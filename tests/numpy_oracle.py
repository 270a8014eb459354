"""Numpy/Python reference implementations of the compiled kernels in
``pyppmd_ray/codecs/kernels.c``: the interleaved rANS coder
(``rans_encode``/``rans_decode``), the order-1 coder
(``rans1_encode``/``rans1_decode``), the LSB-first bit packers
(``pack_uints``/``unpack_uints``, ``pack_varbits``/``unpack_varbits``) and
the LZ greedy parse and sequence expansion (``lz_parse``/``lz_expand``).

These are the versions the package ran before those loops were compiled.
They are kept here only as wire-identity oracles: the tests assert that the
compiled kernels produce the same stream bytes, final states, lane counts,
packed bytes, sequences and output. Not collected by pytest (no ``test_``
prefix); import it as ``numpy_oracle`` from a test module.
"""

from __future__ import annotations

import numpy as np

from pyppmd_ray.codecs import lz
from pyppmd_ray.codecs.base import CodecError
from pyppmd_ray.codecs.rans import M, PROB_BITS, RANS_L, _RENORM, _lane_count
from pyppmd_ray.codecs.rans_ctx import N_CLASSES

_U32 = np.uint32
_U64 = np.uint64
_I64 = np.int64


def _division_magic(
    f_tab: np.ndarray, bound_log: int = 20
) -> tuple[np.ndarray, np.ndarray]:
    """Per-symbol (multiplier, shift) such that x // f == (x*m) >> s for
    every dividend the encoder can present (renorm keeps x < f·2^bound_log,
    where bound_log = 32 − prob_bits): s = bound_log + 2·ceil(log2 f),
    m = ceil(2^s / f). Exactness (Granlund & Montgomery, Thm 4.2):
    m·f − 2^s ≤ f−1 ≤ 2^s/B with B = f·2^bound_log ⇔
    f(f−1) ≤ 2^(2·ceil(log2 f)), true for all f; the u64 product is
    bounded by f·2^bound_log·2^s/f = 2^(bound_log+s) ≤ 2^(64−2(pb−L)) < 2^64
    since L = ceil(log2 f) ≤ prob_bits. Zero-freq slots (never encoded)
    get a dummy divisor of 1."""
    f = f_tab.astype(np.int64)
    safe = np.maximum(f, 1)
    l = np.zeros_like(safe)
    v = safe - 1
    while (v > 0).any():
        l[v > 0] += 1
        v >>= 1
    s = (bound_log + 2 * l).astype(_U64)
    m = ((np.int64(1) << (bound_log + 2 * l)).astype(np.uint64) + safe.astype(_U64) - _U64(1)) // safe.astype(_U64)
    return m, s


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


# ------------------------------------------------------------ order-1 rANS

def rans1_encode(arr: np.ndarray, cls: np.ndarray, F: np.ndarray, N: int) -> tuple[bytes, np.ndarray]:
    """Lockstep encode of uint8 ``arr`` in N contiguous lanes with class map
    ``cls`` and (N_CLASSES, A) tables ``F``; returns (stream, states)."""
    n = int(arr.size)
    A = F.shape[1]
    ctx = np.zeros(n, dtype=np.uint8)
    ctx[1:] = cls[arr[:-1]]
    T = -(-n // N)
    lane_starts = np.arange(N) * T
    ctx[lane_starts[lane_starts < n]] = 0
    S = np.zeros((N_CLASSES, A + 1), dtype=_U32)
    S[:, 1:] = np.cumsum(F, axis=1)

    fa = F[ctx, arr]
    sa = S[ctx, arr]
    m_tab, s_tab = _division_magic(F.reshape(-1))
    flat_idx = ctx.astype(np.int64) * A + arr
    ma = m_tab[flat_idx]
    sha = s_tab[flat_idx]

    states = np.full(N, RANS_L, dtype=_U32)
    chunks: list[np.ndarray] = []
    lanes = np.arange(N)
    shift = _U32(_RENORM)
    pbits = _U32(PROB_BITS)
    xmax_shift = _U32(_RENORM + 4)  # f << 20 == f * ((L >> PROB_BITS) << 16)
    w_mask = _U32((1 << _RENORM) - 1)
    for t in range(T - 1, -1, -1):
        idx = lanes * T + t
        active = idx < n
        safe = np.minimum(idx, n - 1)
        f = fa[safe]
        st = sa[safe]
        x = states
        need = active & (x >= (f << xmax_shift))
        if need.any():
            chunks.append((x[need] & w_mask).astype(np.uint16))
            x = np.where(need, x >> shift, x)
        # exact magic-multiply division (see _division_magic); inactive
        # lanes may divide by a dummy f but the where() below drops them
        q = ((x.astype(_U64) * ma[safe]) >> sha[safe]).astype(_U32)
        nx = (q << pbits) + (x - q * f) + st
        states = np.where(active, nx, x)

    chunks.reverse()
    stream = np.concatenate(chunks).astype("<u2").tobytes() if chunks else b""
    return stream, states


def rans1_decode(stream: bytes, states: np.ndarray, N: int, n: int,
                 cls: np.ndarray, F: np.ndarray) -> bytes:
    """Inverse of :func:`rans1_encode` (no integrity checks)."""
    A = F.shape[1]
    S = np.zeros((N_CLASSES, A + 1), dtype=_U32)
    S[:, 1:] = np.cumsum(F, axis=1)
    slot2sym = np.zeros((N_CLASSES, M), dtype=np.uint8)
    for c in range(N_CLASSES):
        row = F[c].astype(np.int64)
        if row.sum() == M:
            slot2sym[c] = np.repeat(np.arange(A, dtype=np.uint8), row)
    buf = np.frombuffer(stream, dtype="<u2")
    out = np.empty(n, dtype=np.uint8)
    T = -(-n // N)
    x = states.astype(_U32).copy()
    ptr = 0
    mask = _U32(M - 1)
    shift = _U32(_RENORM)
    pbits = _U32(PROB_BITS)
    L = _U32(RANS_L)
    lanes = np.arange(N)
    ctx_lane = np.zeros(N, dtype=np.int64)  # class 0 at lane starts
    for t in range(T):
        idx = lanes * T + t
        active = idx < n
        slot = (x & mask).astype(np.int64)
        sym = slot2sym[ctx_lane, slot]
        out[idx[active]] = sym[active]
        f = F[ctx_lane, sym].astype(_U32)
        st = S[ctx_lane, sym].astype(_U32)
        nx = f * (x >> pbits) + (x & mask) - st
        x = np.where(active, nx, x)
        need = active & (x < L)
        total = int(need.sum())
        if total:
            w = buf[ptr : ptr + total].astype(_U32)
            x[need] = (x[need] << shift) | w
            ptr += total
        ctx_lane = np.where(active, cls[sym].astype(np.int64), ctx_lane)
    return out.tobytes()


# ------------------------------------------------------- variable-width bits

def pack_varbits(vals: np.ndarray, widths: np.ndarray) -> bytes:
    """Pack vals[i] (LSB-first) into widths[i] bits, concatenated."""
    total = int(widths.sum())
    if total == 0:
        return b""
    starts = np.concatenate(([0], np.cumsum(widths)))[:-1]
    bits = np.zeros(total, dtype=np.uint8)
    vu = vals.astype(_U64)
    mw = int(widths.max())
    for j in range(mw):
        m = widths > j
        bits[starts[m] + j] = ((vu[m] >> _U64(j)) & _U64(1)).astype(np.uint8)
    return np.packbits(bits, bitorder="little").tobytes()


def unpack_varbits(buf: memoryview | bytes, widths: np.ndarray) -> np.ndarray:
    total = int(widths.sum())
    out = np.zeros(widths.size, dtype=_U64)
    if total == 0:
        return out
    bits = np.unpackbits(np.frombuffer(buf, dtype=np.uint8), bitorder="little", count=total)
    starts = np.concatenate(([0], np.cumsum(widths)))[:-1]
    mw = int(widths.max())
    for j in range(mw):
        m = widths > j
        out[m] |= bits[starts[m] + j].astype(_U64) << _U64(j)
    return out


# ---------------------------------------------------------------------- LZ

def _mismatch_at(a: bytes, b: bytes) -> int:
    """First differing index of two equal-length unequal byte strings."""
    lo, hi = 0, len(a)
    while hi - lo > 32:
        mid = (lo + hi) // 2
        if a[lo:mid] == b[lo:mid]:
            lo = mid
        else:
            hi = mid
    for t in range(lo, hi):
        if a[t] != b[t]:
            return t
    return hi


def _extend_match(db: bytes, c: int, j: int, L: int, n: int) -> int:
    """Extend a guaranteed L-byte match in doubling memcmp chunks."""
    limit = n - j
    step = 64
    while L < limit:
        m = min(step, limit - L)
        a = db[j + L : j + L + m]
        b = db[c + L : c + L + m]
        if a == b:
            L += m
            step = min(step * 2, 1 << 16)
            continue
        return L + _mismatch_at(a, b)
    return L


def lz_parse(data: np.ndarray, stride: int = 1) -> tuple[list[int], list[int], list[int], np.ndarray]:
    """Greedy parse → (lit_lens, match_lens, offsets, literal bytes), on the
    package's own match candidates (``lz._match_candidates``)."""
    n = int(data.size)
    g8, c6, c16 = lz._match_candidates(data, stride)
    mpos = np.flatnonzero(c6 >= 0)
    db = data.tobytes()
    c6l = memoryview(np.ascontiguousarray(c6))
    c16l = memoryview(np.ascontiguousarray(c16))
    n16 = len(c16l)
    mposl = memoryview(np.ascontiguousarray(mpos))
    g8l = memoryview(np.ascontiguousarray(g8))
    lls: list[int] = []
    mls: list[int] = []
    ofs: list[int] = []
    lit_slices: list[bytes] = []
    anchor = 0
    i = 0
    np_size = int(mpos.size)
    extend = _extend_match

    # xor of the two little-endian 8-byte packs gives the first mismatching
    # BYTE as the lowest set bit's byte index
    def probe6(c: int, j: int) -> int:
        x = g8l[j] ^ g8l[c]
        if x:
            return ((x & -x).bit_length() - 1) >> 3
        return extend(db, c, j, 8, n)

    def probe16(c: int, j: int) -> int:
        x = g8l[j] ^ g8l[c]
        if x:
            return ((x & -x).bit_length() - 1) >> 3
        x = g8l[j + 8] ^ g8l[c + 8]  # in-bounds: the 16-gram domain is g8.size-8
        if x:
            return 8 + (((x & -x).bit_length() - 1) >> 3)
        return extend(db, c, j, 16, n)
    p = 0  # monotone cursor into mpos
    while True:
        while p < np_size and mposl[p] < i:
            p += 1
        if p >= np_size:
            break
        j = mposl[p]
        L = 0
        c = -1
        score = -1 << 30
        if j < n16:
            c2 = c16l[j]
            if c2 >= 0:
                L = probe16(c2, j)
                c = c2
                score = 8 * L - (j - c2).bit_length()
        if L < 64:
            c1 = c6l[j]
            if c1 >= 0 and c1 != c:
                L1 = probe6(c1, j)
                s1 = 8 * L1 - (j - c1).bit_length()
                if s1 > score:
                    c, L, score = c1, L1, s1
            if L < 24 and c1 >= 0:
                cc = c6l[c1]  # one chain hop on the 6-gram chain
                if cc >= 0 and cc != c:
                    L2 = probe6(cc, j)
                    s2 = 8 * L2 - (j - cc).bit_length()
                    if s2 > score:
                        c, L, score = cc, L2, s2
        of = j - c
        min_l = lz.MIN_MATCH if of < 1 << 14 else (6 if of < 1 << 20 else 8)
        if L < min_l:
            i = j + 1
            continue
        lls.append(j - anchor)
        mls.append(L)
        ofs.append(of)
        if j > anchor:
            lit_slices.append(db[anchor:j])
        anchor = j + L
        i = anchor
    if anchor < n:
        lit_slices.append(db[anchor:])
    lits = (
        np.frombuffer(b"".join(lit_slices), dtype=np.uint8)
        if lit_slices
        else np.zeros(0, dtype=np.uint8)
    )
    return lls, mls, ofs, lits


def lz_expand(ll: np.ndarray, ml: np.ndarray, of: np.ndarray, lits: np.ndarray, n: int) -> bytes:
    """Rebuild the n output bytes from valid sequences and literals."""
    out = np.empty(n, dtype=np.uint8)
    o = 0
    lp = 0
    for s in range(len(ll)):
        llv = int(ll[s])
        mlv = int(ml[s])
        ofv = int(of[s])
        if llv:
            out[o : o + llv] = lits[lp : lp + llv]
            o += llv
            lp += llv
        src = o - ofv
        if ofv >= mlv:
            out[o : o + mlv] = out[src : src + mlv]
        else:
            pattern = out[src:o]
            reps = -(-mlv // ofv)
            out[o : o + mlv] = np.tile(pattern, reps)[:mlv]
        o += mlv
    out[o:] = lits[lp : lp + n - o]
    return out.tobytes()
