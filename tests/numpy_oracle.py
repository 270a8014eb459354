"""Numpy reference implementations of the compiled kernels in
``pyppmd_ray/codecs/rans_core.c``: the interleaved rANS coder
(``rans_encode``/``rans_decode``) and the LSB-first bit packer
(``pack_uints``/``unpack_uints``).

These are the lane-vectorized numpy versions the package ran before its
coder was compiled. They are kept here only as wire-identity oracles: the
tests assert that the compiled kernels produce the same stream bytes, final
states, lane counts and packed bytes. Not collected by pytest (no
``test_`` prefix); import it as ``numpy_oracle`` from a test module.
"""

from __future__ import annotations

import numpy as np

from pyppmd_ray.codecs.base import CodecError
from pyppmd_ray.codecs.rans import PROB_BITS, RANS_L, _RENORM, _lane_count
from pyppmd_ray.codecs.rans_ctx import _division_magic

_U32 = np.uint32
_U64 = np.uint64


def rans_encode(
    symbols: np.ndarray,
    freqs: np.ndarray,
    prob_bits: int = PROB_BITS,
    n_lanes: int | None = None,
) -> tuple[bytes, np.ndarray, int]:
    """Encode uint8/uint16 symbols with quantized ``freqs`` (sum ==
    2^prob_bits, every freq <= 2^prob_bits - 1 — see :func:`cap_full_freq`).

    Round-robin lane layout (symbol i → lane i%N, step i//N) means only
    the FINAL decode step (= first encode step here) is partially active;
    every other step runs mask-free. Per-symbol (freq, start) arrays are
    gathered once up front. u32 states with 16-bit renorm: at most one
    u16 word per symbol, one compare per step.

    ``prob_bits`` may be raised (up to 16) for wide alphabets where the
    default 12-bit quantization is too coarse — e.g. the wtok token-id
    stream with thousands of symbols (see codecs/wtok.py).

    Returns (stream_bytes, final_states_u32, n_lanes).
    """
    sym = np.ascontiguousarray(symbols)
    n = int(sym.size)
    N = n_lanes if n_lanes is not None else _lane_count(n)
    f_tab = freqs.astype(_U32)
    start_tab = np.concatenate(([0], np.cumsum(f_tab)))[:-1].astype(_U32)
    fa = f_tab[sym]
    sa = start_tab[sym]
    m_tab, s_tab = _division_magic(f_tab, bound_log=32 - prob_bits)
    ma = m_tab[sym]
    sha = s_tab[sym]

    states = np.full(N, RANS_L, dtype=_U32)
    T = -(-n // N) if n else 0
    chunks: list[np.ndarray] = []
    shift = _U32(_RENORM)
    pbits = _U32(prob_bits)
    # f << (32-pb) == f * ((L >> prob_bits) << 16)
    xmax_shift = _U32(32 - prob_bits)
    w_mask = _U32(0xFFFF)

    for t in range(T - 1, -1, -1):
        lo = t * N
        f = fa[lo : lo + N]
        st = sa[lo : lo + N]
        x = states
        if f.size < N:  # only possible at t == T-1 (partial last step)
            x = states[: f.size]
        need = x >= (f << xmax_shift)
        if need.any():
            # decoder refills lanes in ascending order within the step
            chunks.append((x[need] & w_mask).astype(np.uint16))
            x = np.where(need, x >> shift, x)
        # exact division by magic multiply (numpy integer '//' is a scalar
        # loop; the renorm invariant x < f·2^20 bounds the dividend so the
        # u64 product cannot overflow — see _division_magic)
        q = ((x.astype(_U64) * ma[lo : lo + N]) >> sha[lo : lo + N]).astype(_U32)
        nx = (q << pbits) + (x - q * f) + st
        if nx.size < N:
            states = states.copy()
            states[: nx.size] = nx
        else:
            states = nx

    chunks.reverse()
    stream = np.concatenate(chunks).astype("<u2").tobytes() if chunks else b""
    return stream, states.astype(_U32), N


def rans_decode(stream: memoryview | bytes, states: np.ndarray, N: int, n: int,
                freqs: np.ndarray, prob_bits: int = PROB_BITS) -> np.ndarray:
    """Inverse of :func:`rans_encode`; returns uint16 symbol array of length n.

    Mask-free main loop: only the final step is partially active, and the
    output slice per step is contiguous (round-robin layout transposed)."""
    f_tab = freqs.astype(np.int64)
    start_tab = np.concatenate(([0], np.cumsum(f_tab)))[:-1].astype(np.int64)
    slot2sym = np.repeat(
        np.arange(len(f_tab), dtype=np.uint16), f_tab
    )
    if slot2sym.size != (1 << prob_bits):
        raise CodecError("corrupt frequency table")
    buf = np.frombuffer(stream, dtype="<u2")
    out = np.empty(n, dtype=np.uint16)
    x = states.astype(_U32).copy()
    ptr = 0
    T = -(-n // N) if n else 0
    mask = _U32((1 << prob_bits) - 1)
    shift = _U32(_RENORM)
    pbits = _U32(prob_bits)
    L = _U32(RANS_L)

    for t in range(T):
        lo = t * N
        if lo + N > n:  # partial final step
            x = x[: n - lo]
        slot = (x & mask).astype(np.int64)
        s = slot2sym[slot]
        out[lo : lo + s.size] = s
        f = f_tab[s].astype(_U32)
        st = start_tab[s].astype(_U32)
        x = f * (x >> pbits) + (x & mask) - st

        need = x < L
        total = int(need.sum())
        if total:
            w = buf[ptr : ptr + total].astype(_U32)
            x[need] = (x[need] << shift) | w
            ptr += total
    return out


def pack_uints(arr: np.ndarray, width: int) -> bytes:
    """LSB-first bit-pack ``arr`` (uint64, values < 2**width) into bytes."""
    if width == 0 or arr.size == 0:
        return b""
    if width > 64:
        raise CodecError(f"bad width {width}")
    shifts = np.arange(width, dtype=_U64)
    bits = ((arr[:, None] >> shifts) & _U64(1)).astype(np.uint8)
    return np.packbits(bits.reshape(-1), bitorder="little").tobytes()


def unpack_uints(buf: bytes | memoryview, n: int, width: int) -> np.ndarray:
    if width == 0 or n == 0:
        return np.zeros(n, dtype=_U64)
    raw = np.frombuffer(buf, dtype=np.uint8)
    bits = np.unpackbits(raw, bitorder="little", count=n * width).reshape(n, width)
    shifts = np.arange(width, dtype=_U64)
    return (bits.astype(_U64) << shifts).sum(axis=1, dtype=_U64)


