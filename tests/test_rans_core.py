"""The compiled kernels (``codecs/kernels.c``): wire identity with the
numpy/Python oracles, stream integrity, fault injection, and the build-once
loader (``codecs/native.py``).
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
from pyppmd_ray.codecs import CodecError, decode_blob, encode_lz, encode_rans0, unpack_blob
from pyppmd_ray.codecs.base import pack_blob, read_uvarint
from pyppmd_ray.codecs.lz import lz_parse
from pyppmd_ray.codecs.numeric import pack_uints, pack_varbits, unpack_uints, unpack_varbits
from pyppmd_ray.codecs.rans import cap_full_freq, normalize_freqs, rans_decode, rans_encode
from pyppmd_ray.codecs.rans_ctx import _lane_count, encode_rans1, rans1_tables
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


def _flip_outcomes(blob: bytes, data: bytes, spans: list[tuple[int, int]],
                   seed: int) -> tuple[int, int, int]:
    """Flip one random bit in the byte ranges ``spans`` of blob, FLIPS
    times; count how the decoder reacts: (raised, returned the original,
    returned other bytes). Any exception but ``CodecError`` fails the test."""
    rng = np.random.default_rng(seed)
    where = np.concatenate([np.arange(lo, hi) for lo, hi in spans])
    raised = same = silent = 0
    for _ in range(FLIPS):
        b = bytearray(blob)
        b[int(where[rng.integers(0, where.size)])] ^= 1 << int(rng.integers(0, 8))
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
    raised, same, silent = _flip_outcomes(blob, data, [(lo, hi)], seed=size)
    assert silent <= FLIPS // 50, (raised, same, silent)


# --------------------------------------------------- LZ and order-1 rANS

def _sample(kind: str, n: int, seed: int) -> bytes:
    """n bytes of one kind of input: F1 text, u16 line-id-like ids,
    random bytes, or short runs (overlapping matches)."""
    rng = np.random.default_rng(seed)
    if kind == "text":
        text = _text(400_000)
        start = int(rng.integers(0, max(len(text) - n, 0) + 1))
        return (text[start:] * (n // max(len(text) - start, 1) + 1))[:n]
    if kind == "ids":
        ids = rng.zipf(1.3, n // 2 + 1) % 3000
        return ids.astype("<u2").tobytes()[:n]
    if kind == "random":
        return rng.integers(0, 256, n, dtype=np.uint8).tobytes()
    pattern = rng.integers(0, 256, int(rng.integers(1, 12)), dtype=np.uint8).tobytes()
    return (pattern * (n // len(pattern) + 1))[:n]


byte_inputs = st.tuples(
    st.sampled_from(["text", "ids", "random", "runs"]),
    st.one_of(st.integers(0, 300), st.integers(0, 20_000), st.integers(0, 200_000)),
    st.integers(0, 2**32 - 1),
)


@settings(max_examples=40, deadline=None)
@given(byte_inputs, st.sampled_from([1, 2, 4]))
def test_lz_parse_and_expand_match_oracle(inp, stride):
    data = _sample(*inp)
    arr = np.frombuffer(data, dtype=np.uint8)
    ll, ml, of, lits = lz_parse(arr, stride)
    o_ll, o_ml, o_of, o_lits = oracle.lz_parse(arr, stride)
    assert ll.tolist() == o_ll and ml.tolist() == o_ml and of.tolist() == o_of
    assert lits.tobytes() == o_lits.tobytes()
    assert oracle.lz_expand(ll, ml, of, lits, arr.size) == data
    assert decode_blob(encode_lz(data, stride=stride)) == data


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 64), st.integers(0, 3000), st.integers(0, 2**32 - 1))
def test_varbits_match_oracle(max_width, n, seed):
    rng = np.random.default_rng(seed)
    widths = rng.integers(0, max_width + 1, n).astype(np.int64)
    # full 64-bit values: bits at or above each width must be dropped
    vals = rng.integers(0, 1 << 63, n, dtype=np.uint64) * np.uint64(2) + rng.integers(
        0, 2, n, dtype=np.uint64
    )
    packed = pack_varbits(vals, widths)
    assert packed == oracle.pack_varbits(vals, widths)
    out = unpack_varbits(packed, widths)
    np.testing.assert_array_equal(out, oracle.unpack_varbits(packed, widths))
    np.testing.assert_array_equal(unpack_varbits(packed + b"\xff", widths), out)
    if int(widths.sum()):
        with pytest.raises(CodecError):
            unpack_varbits(packed[:-1], widths)


def test_varbits_reject_bad_widths():
    vals = np.arange(3, dtype=np.uint64)
    for bad in (-1, 65):
        widths = np.array([3, bad, 3], dtype=np.int64)
        with pytest.raises(CodecError):
            pack_varbits(vals, widths)
        with pytest.raises(CodecError):
            unpack_varbits(b"\xff" * 32, widths)


def _rans1_blob_from_oracle(arr: np.ndarray) -> bytes:
    """The full m=1 rans1 blob, with the oracle coding the stream."""
    N = _lane_count(arr.size)
    cls, F = rans1_tables(arr, N)
    stream, states = oracle.rans1_encode(arr, cls, F, N)
    payload = (
        pack_uints(cls.astype(np.uint64), 4)
        + pack_uints(F.reshape(-1).astype(np.uint64), 13)
        + states.astype("<u4").tobytes()
        + stream
    )
    return pack_blob("rans1", {"n": arr.size, "m": 1, "N": N, "A": F.shape[1]}, payload)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(["text", "ids", "random", "runs", "skewed"]),
    st.one_of(st.integers(0, 5000), st.integers(4096, 200_000)),
    st.integers(0, 2**32 - 1),
)
def test_rans1_matches_oracle(kind, n, seed):
    if kind == "skewed":
        A = int(np.random.default_rng(seed).choice([1, 2, 3, 17, 256]))
        data = _symbols(seed, n, A, 1.0).astype(np.uint8).tobytes()
    else:
        data = _sample(kind, n, seed)
    arr = np.frombuffer(data, dtype=np.uint8)
    blob = encode_rans1(data)
    assert decode_blob(blob) == data
    if arr.size < 4096:
        return  # m=0: a rans0 blob inside
    assert blob == _rans1_blob_from_oracle(arr)
    _, meta, payload = unpack_blob(blob)
    N, A = meta["N"], meta["A"]
    cls, F = rans1_tables(arr, N)
    pos = 128 + (16 * A * 13 + 7) // 8
    states = np.frombuffer(payload[pos : pos + 4 * N], dtype="<u4")
    assert oracle.rans1_decode(payload[pos + 4 * N :], states, N, arr.size, cls, F) == data


def test_lz_multi_segment_roundtrip():
    """An input past one parse segment (2^24 positions) is cut into
    independent segments; no oracle, the Python parse would take minutes."""
    text = _text(400_000)
    n = (1 << 24) + 50_000
    data = (text * (n // len(text) + 1))[:n]
    blob = encode_lz(data)
    assert unpack_blob(blob)[1]["S"] == -2
    assert len(blob) < n // 100
    assert decode_blob(blob) == data


def _repack(blob: bytes, drop=(), payload=None, **meta_updates) -> bytes:
    name, meta, body = unpack_blob(blob)
    meta = {k: v for k, v in meta.items() if k not in drop}
    meta.update(meta_updates)
    return pack_blob(name, meta, bytes(body) if payload is None else payload)


class TestRans1Integrity:
    """The rans1 decoder raises ``CodecError`` on impossible meta, on class
    tables that neither sum to M nor are empty, and on a stream that is not
    consumed exactly or leaves a lane away from RANS_L."""

    @pytest.fixture(scope="class")
    def case(self):
        data = _text(20_000)
        blob = encode_rans1(data)
        assert unpack_blob(blob)[1]["m"] == 1
        return data, blob

    @pytest.mark.parametrize(
        "update",
        [{"N": 0}, {"N": -3}, {"N": 20_001}, {"A": 300}, {"A": 1}, {"m": 2},
         {"n": 0}, {"n": 19_999}, {"n": 20_001}],
    )
    def test_bad_meta_raises(self, case, update):
        data, blob = case
        with pytest.raises(CodecError):
            decode_blob(_repack(blob, **update))

    def test_class_row_not_summing_to_m_raises(self, case):
        data, blob = case
        _, meta, payload = unpack_blob(blob)
        A = meta["A"]
        ftab_len = (16 * A * 13 + 7) // 8
        F = unpack_uints(payload[128 : 128 + ftab_len], 16 * A, 13)
        F[int(np.argmax(F))] += 1
        body = bytes(payload[:128]) + pack_uints(F, 13) + bytes(payload[128 + ftab_len :])
        with pytest.raises(CodecError, match="frequency table"):
            decode_blob(_repack(blob, payload=body))

    def test_stream_not_consumed_exactly_raises(self, case):
        data, blob = case
        for bad in (blob + b"\x00\x00", blob[:-2], blob[:-1]):
            with pytest.raises(CodecError):
                decode_blob(bad)

    def test_lane_state_changed_raises(self, case):
        data, blob = case
        _, meta, payload = unpack_blob(blob)
        pos = 128 + (16 * meta["A"] * 13 + 7) // 8
        body = bytearray(payload)
        body[pos + 4 * (meta["N"] - 1)] ^= 0x10  # last lane's final state
        with pytest.raises(CodecError):
            decode_blob(_repack(blob, payload=bytes(body)))


def _entropy_spans(blob: bytes) -> list[tuple[int, int]]:
    """Byte ranges of the rANS payloads inside an lz blob: the code and
    literal streams that are rans0/rans1 blobs (not the raw extra bits)."""
    _, meta, payload = unpack_blob(blob)
    base = len(blob) - len(payload)
    spans = []
    pos = 0
    for k in range(5):
        plen, pos = read_uvarint(payload, pos)
        if k != 3:
            name, _, inner = unpack_blob(payload[pos : pos + plen])
            if name in ("rans0", "rans1"):
                spans.append((base + pos + plen - len(inner), base + pos + plen))
        pos += plen
    return spans


@pytest.mark.parametrize("size", [20_000, 100_000])
def test_bit_flips_in_lz_entropy_streams_are_caught(size):
    """A flipped bit in the rANS-coded code or literal streams of an lz
    blob must raise ``CodecError`` or decode to the original, with the same
    allowance as the rans0 case (0-1 of 200 seen when this was written)."""
    data = _text(size)
    blob = encode_lz(data)
    spans = _entropy_spans(blob)
    assert len(spans) >= 3
    raised, same, silent = _flip_outcomes(blob, data, spans, seed=size)
    assert silent <= FLIPS // 50, (raised, same, silent)


@pytest.mark.parametrize("size", [1_000, 20_000, 100_000])
def test_bit_flips_anywhere_in_lz_blob_raise_only_codec_error(size):
    """Anywhere in an lz blob a flip raises ``CodecError`` or decodes; it
    never raises another exception or reads out of bounds. Flips in the raw
    extra bits (match offsets) and in raw inner streams do decode to other
    bytes (47-154 of 200 on 1-100 KB of F1 text when this was written):
    they carry no redundancy, and only a checksum over the output can
    catch them."""
    data = _text(size)
    blob = encode_lz(data)
    raised, same, silent = _flip_outcomes(blob, data, [(0, len(blob))], seed=size + 1)
    assert raised > FLIPS // 10, (raised, same, silent)


@pytest.mark.parametrize("size", [20_000, 100_000])
def test_bit_flips_in_rans1_blobs_are_caught(size):
    """A flipped bit anywhere in the payload of an m=1 rans1 blob (class
    map, tables, states, stream) must raise ``CodecError`` or decode to the
    original (0-1 silent of 200 seen when this was written)."""
    data = _text(size)
    blob = encode_rans1(data)
    _, meta, payload = unpack_blob(blob)
    assert meta["m"] == 1
    raised, same, silent = _flip_outcomes(
        blob, data, [(len(blob) - len(payload), len(blob))], seed=size
    )
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

