"""Golden-vector format-stability tests (FIXTURES.md F3).

Translation of the reference's byte-exact golden tests
(`/root/reference/tests/test_ppmd7.py:10-37`: fixed sentence → pinned
compressed bytes). Pinned blobs guard the wire format: resume depends on
re-encoded blocks being byte-identical across engine versions, so any
intentional format change must bump the blob VERSION and re-pin here.
"""

from __future__ import annotations

import numpy as np

import hashlib

import pytest

from pyppmd_ray.codecs import decode_blob, encode_fsst, encode_lined, encode_lz
from pyppmd_ray.codecs.numeric import encode_constant, encode_delta, encode_for, encode_rle
from pyppmd_ray.codecs.rans import encode_rans0
from pyppmd_ray.codecs.rans_ctx import encode_rans1
from pyppmd_ray.fixtures import generate_source_table

# the reference's golden sentence (tests/test_ppmd7.py:10)
SENTENCE = b"This file is located in a folder.This file is located in the root."

# re-pinned at blob VERSION 2 (u16-renorm rANS round; int-codec payloads
# unchanged apart from the version byte)
GOLDEN = {
    "for": b'PR\x02\x04\x1b{"n":5,"ref":1,"s":1,"w":3}\xc2@',
    "delta": b'PR\x02\x05\'{"first":0,"m":"c","n":10,"s":1,"v":10}',
    "rle": b'PR\x02\x06\r{"n":7,"s":1}"PR\x02\x04\x1c{"n":2,"ref":-2,"s":1,"w":4}\tPR\x02\x04\x1b{"n":2,"ref":3,"s":1,"w":1}\x01',
    "const": b'PR\x02\x02\x14{"n":9,"s":1,"v":42}',
}


def test_int_codec_golden_bytes():
    assert encode_for(np.array([3, 1, 4, 1, 5], dtype=np.int64)) == GOLDEN["for"]
    assert encode_delta(np.arange(0, 50, 5, dtype=np.int64)) == GOLDEN["delta"]
    assert (
        encode_rle(np.repeat(np.array([7, -2], dtype=np.int64), [4, 3])) == GOLDEN["rle"]
    )
    assert encode_constant(9, 42, True) == GOLDEN["const"]


def test_byte_codec_golden_shape():
    """Entropy/lz blobs: pin the prefix (magic, version, codec id, meta) and
    full determinism (same input → same bytes), not the whole payload —
    tuning freq quantization may move payload bytes behind a VERSION bump."""
    for enc in (encode_rans0, encode_fsst, encode_lz):
        a = enc(SENTENCE)
        b = enc(SENTENCE)
        assert a == b, "non-deterministic encode"
        assert a[:2] == b"PR" and a[2] == 2
        assert decode_blob(a) == SENTENCE


# sha256 of whole blobs on fixed F1 text (the ``content`` rows of
# generate_source_table(300, seed=11), newline-joined), recorded before the
# LZ parse/expand loops and the rans1 coder were compiled: the compiled
# kernels must reproduce the numpy/Python ones byte for byte
FULL_BLOB_SHA256 = {
    "lz_stride1": (60_000, "b76425e1d496ee0b147ca32d2ea91abefba0a05b81dbcf19518960066cf48c3f"),
    "lz_stride2": (60_000, "b5e38fe0bb6bdde1a3bfbb7df064336d3a4439c2f17b1d2545579cf900ff7a7e"),
    "rans1": (60_000, "d71be67978ba29875e1744ac94ab12742187cba47dc3a163f72e45d284758cf8"),
    "lined": (400_000, "6723565901b7e43b40b07bab341821f4f4b7c75f3150e9b086797faadaf7520a"),
}
_ENCODERS = {
    "lz_stride1": encode_lz,
    "lz_stride2": lambda d: encode_lz(d, stride=2),
    "rans1": encode_rans1,
    "lined": encode_lined,
}


@pytest.fixture(scope="module")
def f1_text() -> bytes:
    return "\n".join(generate_source_table(300, seed=11)["content"].to_pylist()).encode()


@pytest.mark.parametrize("case", sorted(FULL_BLOB_SHA256))
def test_full_blob_pins(case, f1_text):
    size, digest = FULL_BLOB_SHA256[case]
    data = f1_text[:size]
    blob = _ENCODERS[case](data)
    assert hashlib.sha256(blob).hexdigest() == digest
    assert decode_blob(blob) == data


def test_decode_golden_blobs():
    np.testing.assert_array_equal(
        decode_blob(GOLDEN["for"]), np.array([3, 1, 4, 1, 5], dtype=np.int64)
    )
    np.testing.assert_array_equal(
        decode_blob(GOLDEN["delta"]), np.arange(0, 50, 5, dtype=np.int64)
    )
    np.testing.assert_array_equal(
        decode_blob(GOLDEN["rle"]), np.repeat(np.array([7, -2], dtype=np.int64), [4, 3])
    )
    np.testing.assert_array_equal(
        decode_blob(GOLDEN["const"]), np.full(9, 42, dtype=np.int64)
    )


def test_v1_blob_rejected_loudly():
    """v1 archives (byte-renorm rANS) must raise, not decode garbage."""
    from pyppmd_ray.codecs.base import CodecError

    v1_blob = b'PR\x01\x02\x14{"n":9,"s":1,"v":42}'
    with pytest.raises(CodecError, match="version"):
        decode_blob(v1_blob)
