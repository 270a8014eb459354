"""Interleaved static rANS entropy coder (order-0) with a compiled core.

From-scratch design informed by the public rANS literature (Duda 2013,
"Asymmetric numeral systems"; the widely documented byte-oriented rANS
with interleaved lanes for SIMD decode). This replaces the reference's
per-byte adaptive range coder (`/root/reference/src/lib/ppmd/Ppmd7Enc.c:9-72`,
`Ppmd7Dec.c:9-64`) with a two-pass static model. The symbol loops of
:func:`rans_encode`/:func:`rans_decode` are C (``kernels.c``, built once
per node and loaded by ``native.py``), and so is the byte and bigram count
behind the models and the size estimate (:func:`byte_hist`); this module
keeps the model (freq quantization, lane count, blob framing) in numpy.
The lane-vectorized numpy coder and the bincounts it replaced are kept in
``tests/numpy_oracle.py``, and the tests hold the two byte-identical.

Stream framing is explicit (lane count, length, freq table, final states in
the blob header) — the engine-wide answer to the reference's out-of-band
params + ``needs_input`` protocol (`/root/reference/README.rst:35-54`).

Layout: symbols are assigned round-robin to N lanes (symbol i → lane i%N,
step i//N). The decoder processes steps 0..T-1, lanes 0..N-1 within a step,
refilling from ONE shared stream of u16 words; the encoder runs the exact
time reversal, writing its words backwards so forward reads match. The
decoder also checks that the stream is consumed exactly and that every lane
ends in the encoder's initial state, so most corruptions raise
``CodecError`` instead of decoding to wrong bytes.
"""

from __future__ import annotations

import numpy as np

from .base import CodecError, pack_blob, register
from .native import ffi, lib

PROB_BITS = 12
M = 1 << PROB_BITS          # total of the quantized frequency table
# u32 state, 16-bit renormalization: state in [L, 2^16*L); at most ONE
# u16 word emitted/consumed per symbol (vs up to two bytes in the classic
# byte-wise scheme). Requires every freq < M so that f << 20 fits in u32
# (see cap_full_freq). kernels.c hard-codes the same L and word size.
RANS_L = 1 << 16
_RENORM = 16
_U32 = np.uint32
_U64 = np.uint64


def normalize_freqs(counts: np.ndarray, m: int = M) -> np.ndarray:
    """Quantize counts to sum exactly ``m`` (default M), every present
    symbol >= 1."""
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        raise CodecError("empty frequency table")
    f = np.where(counts > 0, np.maximum(1, (counts * m) // total), 0).astype(np.int64)
    diff = m - int(f.sum())
    if diff > 0:
        # dump the whole surplus on the most frequent symbol
        f[int(np.argmax(f))] += diff
    elif diff < 0:
        # take from the largest symbols, each down to freq 1 at most
        for j in np.argsort(-f, kind="stable"):
            if diff == 0:
                break
            take = max(diff, 1 - int(f[j]))  # negative adjustment
            f[j] += take
            diff -= take
        if diff != 0:
            raise CodecError("freq normalization failed")
    return f.astype(_U32)


def cap_full_freq(f: np.ndarray, m: int = M) -> np.ndarray:
    """Ensure max freq <= m-1 (a single-symbol table would make the xmax
    shift overflow u32). Moves one count to a deterministic dummy slot — the
    decoder never sees its slots because the encoder never produces them."""
    j = int(np.argmax(f))
    if int(f[j]) == m:
        f = f.copy()
        f[j] = m - 1
        f[0 if j != 0 else 1] += 1
    return f


def _lane_count(n: int) -> int:
    # part of the wire format (N is in every header): states cost 4
    # bytes/lane, ~0.6% header cost on large blocks. The rule dates from the
    # numpy coder, where more lanes meant fewer, bigger steps.
    return max(1, min(8192, n // 700)) if n else 1


_NO_MEMORY = -4
_DECODE_ERRORS = {
    -1: "corrupt frequency table",
    -2: "rans stream overrun",
    -3: "rans stream does not end where the encoder started",
}


def rans_encode(
    symbols: np.ndarray,
    freqs: np.ndarray,
    prob_bits: int = PROB_BITS,
    n_lanes: int | None = None,
) -> tuple[bytes, np.ndarray, int]:
    """Encode uint8/uint16 symbols with quantized ``freqs`` (sum ==
    2^prob_bits, every freq <= 2^prob_bits - 1 — see :func:`cap_full_freq`).

    ``prob_bits`` may be raised (up to 16) for wide alphabets where the
    default 12-bit quantization is too coarse — e.g. the wtok token-id
    stream with thousands of symbols (see codecs/wtok.py).

    Returns (stream_bytes, final_states_u32, n_lanes).
    """
    sym = np.ascontiguousarray(symbols)
    if sym.dtype != np.uint8 and sym.dtype != np.uint16:
        raise CodecError(f"rans symbols must be uint8 or uint16, got {sym.dtype}")
    n = int(sym.size)
    N = n_lanes if n_lanes is not None else _lane_count(n)
    if N < 1 or not 1 <= prob_bits <= 16:
        raise CodecError(f"bad rans parameters N={N} prob_bits={prob_bits}")
    f = np.ascontiguousarray(freqs, dtype=_U32)
    states = np.empty(N, dtype=_U32)
    out = np.empty(2 * n, dtype=np.uint8)
    words = lib.rans_encode(
        ffi.from_buffer(sym), sym.itemsize, n, N,
        ffi.from_buffer("uint32_t[]", f), f.size, prob_bits,
        ffi.from_buffer("uint32_t[]", states), ffi.from_buffer("uint8_t[]", out),
    )
    if words == _NO_MEMORY:
        raise MemoryError("rans_encode")
    if words < 0:
        raise CodecError("rans symbol has no slot in the frequency table")
    return out[2 * (n - words) :].tobytes(), states, N


def rans_decode(stream: memoryview | bytes, states: np.ndarray, N: int, n: int,
                freqs: np.ndarray, prob_bits: int = PROB_BITS) -> np.ndarray:
    """Inverse of :func:`rans_encode`; returns uint16 symbol array of length n.

    Integrity: besides overruns, decode raises ``CodecError`` unless the
    stream is consumed exactly and every lane ends at ``RANS_L`` — the
    state the encoder starts from, so any valid stream passes."""
    if N < 1 or len(states) != N or n < 0 or not 1 <= prob_bits <= 16:
        raise CodecError("bad rans header")
    x = np.array(states, dtype=_U32)
    f = np.ascontiguousarray(freqs, dtype=_U32)
    out = np.empty(n, dtype=np.uint16)
    buf = ffi.from_buffer("uint8_t[]", stream)
    rc = lib.rans_decode(
        buf, len(buf), ffi.from_buffer("uint32_t[]", x), N, n,
        ffi.from_buffer("uint32_t[]", f), f.size, prob_bits,
        ffi.from_buffer("uint16_t[]", out),
    )
    if rc == _NO_MEMORY:
        raise MemoryError("rans_decode")
    if rc:
        raise CodecError(_DECODE_ERRORS[rc])
    return out


# ---------------------------------------------------- size estimation

def byte_hist(arr: np.ndarray, bigrams: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """(c1, c2): the int64 count of each byte value of the uint8 ``arr``
    and, with ``bigrams``, the (256, 256) count of each (previous byte,
    byte) pair; c2 is None without. One pass, ``byte_hist`` in
    ``kernels.c``."""
    arr = np.ascontiguousarray(arr, dtype=np.uint8)
    c1 = np.empty(256, dtype=np.int64)
    c2 = np.empty((256, 256), dtype=np.int64) if bigrams else None
    lib.byte_hist(
        ffi.from_buffer("uint8_t[]", arr), arr.size, ffi.from_buffer("int64_t[]", c1),
        ffi.from_buffer("int64_t[]", c2) if bigrams else ffi.NULL,
    )
    return c1, c2


def alphabet_size(c1: np.ndarray) -> int:
    """1 + the largest byte value counted in ``c1`` (which counts some)."""
    return int(np.flatnonzero(c1)[-1]) + 1


def estimate_rans_sizes(data: bytes | np.ndarray) -> tuple[int, int, int]:
    """(raw, ~rans0, ~rans1) encoded sizes from byte/bigram histograms —
    O(n) with one counting pass, no trial encodes. Estimates include header
    overheads. rans1 is sized on the coder's own model
    (``rans_ctx.class_counts``): the entropy of each context class's
    counts, plus the class map, the per-class 13-bit tables and 4 bytes
    per lane; under 4,096 bytes, where ``encode_rans1`` stores rans0, it
    is never chosen."""
    from .rans_ctx import N_CLASSES, class_counts

    arr = np.frombuffer(data, dtype=np.uint8) if not isinstance(data, np.ndarray) else data
    n = int(arr.size)
    if n == 0:
        return 0, 24, 42
    c1, c2 = byte_hist(arr, bigrams=n >= 4096)
    c0 = c1.astype(np.float64)
    p0 = c0[c0 > 0] / n
    h0 = float(-(p0 * np.log2(p0)).sum())
    A = alphabet_size(c1)
    N = _lane_count(n)
    rans0 = int(n * h0 / 8) + (A * 13 + 7) // 8 + 4 * N + 24
    if c2 is not None:
        cnt = class_counts(c1, c2)[1].astype(np.float64)
        tot = cnt.sum(axis=1)
        tot = tot[tot > 0]
        nz = cnt[cnt > 0]
        bits = float((tot * np.log2(tot)).sum() - (nz * np.log2(nz)).sum())
        # class map (256 x 4 bits) + blob header, then tables and states
        rans1 = int(bits / 8) + 128 + 40 + (N_CLASSES * max(A, 2) * 13 + 7) // 8 + 4 * N
    else:
        rans1 = 1 << 60
    return n + 16, rans0, rans1


def best_entropy_blob(data: bytes) -> bytes:
    """The engine's one raw/rANS chooser for an inner byte stream: raw
    under 64 bytes, else raw, rans0 or rans1 as :func:`estimate_rans_sizes`
    ranks them — ONE encode total. A rans0 blob that comes out no smaller
    than raw is replaced by raw."""
    from .numeric import encode_raw

    if len(data) < 64:
        return encode_raw(data)
    raw_sz, r0_sz, r1_sz = estimate_rans_sizes(data)
    best = min((raw_sz, 0), (r0_sz, 1), (r1_sz, 2))[1]
    if best == 2:
        from .rans_ctx import encode_rans1

        return encode_rans1(data)
    if best == 1:
        blob = encode_rans0(data)
        if len(blob) < len(data) + 16:
            return blob
    return encode_raw(data)


# ------------------------------------------------------------- blob codec

def encode_rans0(data: bytes | memoryview | np.ndarray) -> bytes:
    """Order-0 rANS over a byte sequence; self-describing blob."""
    arr = np.frombuffer(data, dtype=np.uint8) if not isinstance(data, np.ndarray) else data
    arr = arr.astype(np.uint8, copy=False)
    n = int(arr.size)
    if n == 0:
        return pack_blob("rans0", {"n": 0, "N": 1, "A": 0})
    # at least 2 slots: single-symbol inputs need a dummy slot for cap_full_freq
    c1, _ = byte_hist(arr)
    A = max(alphabet_size(c1), 2)
    counts = c1[:A]
    freqs = cap_full_freq(normalize_freqs(counts))
    stream, states, N = rans_encode(arr, freqs)
    from .numeric import pack_uints

    ftab = pack_uints(freqs.astype(_U64), 13)
    payload = ftab + states.astype("<u4").tobytes() + stream
    return pack_blob("rans0", {"n": n, "N": N, "A": A}, payload)


def _decode_rans0(meta: dict, payload: memoryview) -> bytes:
    n, N, A = meta["n"], meta["N"], meta["A"]
    if n == 0:
        return b""
    from .numeric import unpack_uints

    ftab_len = (A * 13 + 7) // 8
    freqs = unpack_uints(payload[:ftab_len], A, 13).astype(_U32)
    states = np.frombuffer(payload[ftab_len : ftab_len + 4 * N], dtype="<u4")
    stream = payload[ftab_len + 4 * N :]
    syms = rans_decode(stream, states, N, n, freqs)
    return syms.astype(np.uint8).tobytes()


register(8, "rans0", _decode_rans0)
