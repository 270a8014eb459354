"""The compiled core (``codecs/rans_core.c``): wire identity with the numpy
oracle, stream integrity, and the build-once loader (``codecs/native.py``).
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import numpy_oracle as oracle
from pyppmd_ray.codecs import CodecError, decode_blob, encode_rans0, unpack_blob
from pyppmd_ray.codecs.base import read_uvarint
from pyppmd_ray.codecs.numeric import pack_uints, unpack_uints
from pyppmd_ray.codecs.rans import cap_full_freq, normalize_freqs, rans_decode, rans_encode
from pyppmd_ray.codecs.wtok import _wide_lanes, encode_wtok
from pyppmd_ray.fixtures import generate_source_table

ROOT = Path(__file__).resolve().parent.parent


def _symbols(seed: int, n: int, A: int, skew: float) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if skew == 0:
        sym = rng.integers(0, A, n)
    else:
        sym = (rng.zipf(1 + skew, n) - 1) % A
    return sym.astype(np.uint8 if A <= 256 and seed % 2 else np.uint16)


def _freqs(sym: np.ndarray, prob_bits: int) -> np.ndarray:
    m = 1 << prob_bits
    return cap_full_freq(normalize_freqs(np.bincount(sym, minlength=2), m), m)


@st.composite
def rans_cases(draw):
    prob_bits = draw(st.integers(12, 16))
    A = min(draw(st.sampled_from([1, 2, 3, 17, 256, 300, 5000, 65536])), 1 << prob_bits)
    n = draw(st.one_of(st.integers(0, 64), st.integers(0, 4096), st.integers(0, 200_000)))
    lanes = draw(st.sampled_from(["default", "wide", "explicit"]))
    if lanes == "default":
        N = None
    elif lanes == "wide":
        N = _wide_lanes(n)
    else:
        # the oracle's Python loop runs ceil(n/N) steps: keep it short
        N = draw(st.integers(max(1, n // 2000), n + 16))
    skew = draw(st.sampled_from([0.0, 0.2, 1.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    return _symbols(seed, n, A, skew), prob_bits, N


@settings(max_examples=60, deadline=None)
@given(rans_cases())
def test_rans_matches_numpy_oracle(case):
    sym, prob_bits, N = case
    freqs = _freqs(sym if sym.size else np.zeros(1, dtype=sym.dtype), prob_bits)
    stream, states, lanes = rans_encode(sym, freqs, prob_bits, N)
    o_stream, o_states, o_lanes = oracle.rans_encode(sym, freqs, prob_bits, N)
    assert stream == o_stream
    assert lanes == o_lanes
    np.testing.assert_array_equal(states, o_states)
    out = rans_decode(stream, states, lanes, sym.size, freqs, prob_bits)
    np.testing.assert_array_equal(out, sym)
    np.testing.assert_array_equal(
        oracle.rans_decode(stream, states, lanes, sym.size, freqs, prob_bits), out
    )


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 64),
    st.integers(0, 3000),
    st.integers(0, 2**32 - 1),
)
def test_bitpack_matches_numpy_oracle(width, n, seed):
    rng = np.random.default_rng(seed)
    # full 64-bit values: bits at or above width must be dropped by both
    arr = rng.integers(0, 1 << 63, n, dtype=np.uint64) * np.uint64(2) + rng.integers(
        0, 2, n, dtype=np.uint64
    )
    packed = pack_uints(arr, width)
    assert packed == oracle.pack_uints(arr, width)
    out = unpack_uints(packed, n, width)
    np.testing.assert_array_equal(out, oracle.unpack_uints(packed, n, width))
    np.testing.assert_array_equal(unpack_uints(packed + b"\xff\xff", n, width), out)


class TestBitpackErrors:
    def test_width_over_64_raises(self):
        with pytest.raises(CodecError):
            pack_uints(np.arange(3, dtype=np.uint64), 65)
        with pytest.raises(CodecError):
            unpack_uints(b"\x00" * 64, 3, 65)

    def test_short_buffer_raises(self):
        packed = pack_uints(np.arange(10, dtype=np.uint64), 13)
        with pytest.raises(CodecError):
            unpack_uints(packed[:-1], 10, 13)


def _text(n: int) -> bytes:
    t = generate_source_table(200, seed=7)
    return "\n".join(t["content"].to_pylist()).encode()[:n]


class TestStreamIntegrity:
    def _encoded(self, n=20_000):
        sym = np.frombuffer(_text(n), dtype=np.uint8)
        freqs = _freqs(sym, 12)
        stream, states, N = rans_encode(sym, freqs)
        return sym, freqs, stream, states, N

    def test_truncated_stream_raises(self):
        sym, freqs, stream, states, N = self._encoded()
        for cut in (2, 1, len(stream) // 2):
            with pytest.raises(CodecError):
                rans_decode(stream[:-cut], states, N, sym.size, freqs)

    def test_over_long_stream_raises(self):
        sym, freqs, stream, states, N = self._encoded()
        for tail in (b"\x00", b"\x00\x00", b"\x01\x02\x03\x04"):
            with pytest.raises(CodecError):
                rans_decode(stream + tail, states, N, sym.size, freqs)

    def test_over_long_rans0_blob_raises(self):
        data = _text(5000)
        blob = encode_rans0(data)
        assert decode_blob(blob) == data
        with pytest.raises(CodecError):
            decode_blob(blob + b"\x00\x00")
        with pytest.raises(CodecError):
            decode_blob(blob[:-2])

    def test_bad_frequency_table_raises(self):
        sym, freqs, stream, states, N = self._encoded()
        bad = freqs.copy()
        bad[int(np.argmax(bad))] += 1
        with pytest.raises(CodecError):
            rans_decode(stream, states, N, sym.size, bad)


def _flip_outcomes(blob: bytes, data: bytes, lo: int, hi: int,
                   seed: int) -> tuple[int, int, int]:
    """Flip one random bit in blob[lo:hi], FLIPS times; count how the
    decoder reacts: (raised, returned the original, returned other bytes)."""
    rng = np.random.default_rng(seed)
    raised = same = silent = 0
    for _ in range(FLIPS):
        b = bytearray(blob)
        b[int(rng.integers(lo, hi))] ^= 1 << int(rng.integers(0, 8))
        try:
            out = decode_blob(bytes(b))
        except CodecError:
            raised += 1
            continue
        if bytes(out) == data:
            same += 1
        else:
            silent += 1
    return raised, same, silent


def _rans_span(blob: bytes) -> tuple[int, int]:
    """Byte range of a blob's rANS part: the whole payload of a rans0 blob;
    the freq table, lane states and stream of a direct-mode wtok blob."""
    name, meta, payload = unpack_blob(blob)
    base = len(blob) - len(payload)
    if name == "rans0":
        return base, len(blob)
    assert name == "wtok" and meta["m"] == 2
    flen, pos = read_uvarint(payload, 0)
    pos += flen + 4 * meta["N"]
    slen, pos = read_uvarint(payload, pos)
    return base, base + pos + slen


FLIPS = 200


@pytest.mark.parametrize(
    "encode,size",
    [(encode_rans0, 1000), (encode_rans0, 20_000), (encode_rans0, 100_000),
     (encode_wtok, 20_000), (encode_wtok, 100_000)],
)
def test_bit_flips_in_rans_streams_are_caught(encode, size):
    """Fault injection: a flipped bit in the rANS part of a rans0 or wtok
    blob must raise ``CodecError`` (no other exception) or decode to the
    original. A rANS state can absorb a flip: the corrupted stream is then
    a valid stream of another message (seen: 'static' -> 'st_tic') that
    also ends at RANS_L, which no end-of-stream check can tell apart. Those
    must stay rare (0-1 of 200 flips per case when this test was written;
    the numpy decoder, without the check, let 28 of 200 through at 1 KB)."""
    data = _text(size)
    blob = encode(data)
    lo, hi = _rans_span(blob)
    raised, same, silent = _flip_outcomes(blob, data, lo, hi, seed=size)
    assert silent <= FLIPS // 50, (raised, same, silent)


# ------------------------------------------------------------ the build

_CHILD = textwrap.dedent(
    """
    import sys, time
    from pathlib import Path
    import cffi, numpy  # noqa: F401  (start the three imports together)
    Path(sys.argv[2]).touch()
    while not Path(sys.argv[1]).exists():
        time.sleep(0.005)
    from pyppmd_ray.codecs import native
    print(native.LIBRARY)
    """
)


def _child_env(tmp: Path, **extra) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "CC"}
    env.update(
        XDG_CACHE_HOME=str(tmp / "cache"),
        TMPDIR=str(tmp / "tmp"),
        PYTHONPATH=str(ROOT),
        **extra,
    )
    (tmp / "tmp").mkdir(exist_ok=True)
    return env


def test_concurrent_imports_build_once(tmp_path):
    env = _child_env(tmp_path)
    go = tmp_path / "go"
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _CHILD, str(go), str(tmp_path / f"ready{i}")],
            cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for i in range(3)
    ]
    try:
        deadline = time.monotonic() + 120
        while not all((tmp_path / f"ready{i}").exists() for i in range(3)):
            assert time.monotonic() < deadline, "children did not start"
            time.sleep(0.01)
        go.touch()
        results = [p.communicate(timeout=180) for p in procs]
    finally:
        for p in procs:
            p.kill()
    for p, (out, err) in zip(procs, results):
        assert p.returncode == 0, err
    cache = tmp_path / "cache" / "pyppmd_ray"
    libs = sorted(cache.glob("*.so"))
    assert len(libs) == 1, libs
    assert not list(cache.glob(".*.tmp"))
    assert {out.strip() for out, _ in results} == {str(libs[0])}


def test_import_without_compiler_fails_loudly(tmp_path):
    empty_bin = tmp_path / "bin"
    empty_bin.mkdir()
    env = _child_env(tmp_path, PATH=str(empty_bin))
    proc = subprocess.run(
        [sys.executable, "-c", "import pyppmd_ray"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "ImportError" in proc.stderr
    assert "C compiler" in proc.stderr and "'cc'" in proc.stderr
    assert not list((tmp_path / "cache").rglob("*.so"))

