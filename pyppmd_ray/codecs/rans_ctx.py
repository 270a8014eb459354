"""Order-1 context-modeled static rANS ("rans1").

The engine's adaptive-context entropy stage (north-star: a from-scratch
context codec informed by the reference's PPMd design space — PPMd predicts
from suffix contexts, `/root/reference/src/lib/ppmd/Ppmd7Enc.c:77-185`;
here the context is the previous byte, quantized to C classes, with static
per-class tables built in a first pass).

Vectorization note: lanes are CONTIGUOUS CHUNKS (lane k owns positions
[k*T, (k+1)*T)), not round-robin — each lane's context byte is its own
previous symbol, so N lanes decode in lockstep with 2D table gathers and
no cross-lane sequential dependency. The first symbol of each lane uses
class 0 (the lane boundary byte is not yet decoded in lockstep order).

Wire format: cls_map (256 x 4-bit) + per-class 13-bit freq tables +
lane states + single interleaved stream (same stream discipline as rans.py).
"""

from __future__ import annotations

import numpy as np

from .base import CodecError, pack_blob, register
from .rans import M, PROB_BITS, RANS_L, _RENORM, cap_full_freq, normalize_freqs

_U32 = np.uint32
_U64 = np.uint64

N_CLASSES = 16


def build_classes(data: np.ndarray) -> np.ndarray:
    """256 → class map: the 15 most frequent context bytes get their own
    class; everything else shares class 15. Class 0 is reserved for the
    most frequent byte so lane-boundary symbols (forced class 0) use the
    commonest model."""
    counts = np.bincount(data, minlength=256)
    order = np.argsort(-counts, kind="stable")
    cls = np.full(256, N_CLASSES - 1, dtype=np.uint8)
    for rank, b in enumerate(order[: N_CLASSES - 1]):
        cls[b] = rank
    return cls


def _lane_count(n: int) -> int:
    # match rans.py: big lanes amortize per-step numpy overhead
    return max(1, min(8192, n // 700)) if n else 1


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


def encode_rans1(data: bytes | memoryview | np.ndarray) -> bytes:
    arr = np.frombuffer(data, dtype=np.uint8) if not isinstance(data, np.ndarray) else data
    arr = np.ascontiguousarray(arr, dtype=np.uint8)
    n = int(arr.size)
    if n < 4096:
        from .rans import encode_rans0

        inner = encode_rans0(arr)
        return pack_blob("rans1", {"n": n, "m": 0}, inner)

    cls = build_classes(arr)
    A = max(int(arr.max()) + 1, 2)  # >= 2 so cap_full_freq has a dummy slot
    # context class per position (class 0 at lane starts, set below)
    ctx = np.zeros(n, dtype=np.uint8)
    ctx[1:] = cls[arr[:-1]]
    N = _lane_count(n)
    T = -(-n // N)
    lane_starts = np.arange(N) * T
    ctx[lane_starts[lane_starts < n]] = 0

    # per-class counts → quantized tables
    F = np.zeros((N_CLASSES, A), dtype=_U32)
    flat = ctx.astype(np.int64) * A + arr
    cnt = np.bincount(flat, minlength=N_CLASSES * A).reshape(N_CLASSES, A)
    for c in range(N_CLASSES):
        if cnt[c].sum() > 0:
            F[c] = cap_full_freq(normalize_freqs(cnt[c]))
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
    # derived from rans.py's renorm width so the two wire formats can
    # never silently desynchronize
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
        # exact magic-multiply division (see _division_magic);
        # inactive lanes may divide by a dummy f but their result is
        # discarded by the where() below
        q = ((x.astype(_U64) * ma[safe]) >> sha[safe]).astype(_U32)
        nx = (q << pbits) + (x - q * f) + st
        states = np.where(active, nx, x)

    chunks.reverse()
    stream = (
        np.concatenate(chunks).astype("<u2").tobytes() if chunks else b""
    )

    from .numeric import pack_uints

    cls_packed = pack_uints(cls.astype(_U64), 4)
    ftab = pack_uints(F.reshape(-1).astype(_U64), 13)
    payload = (
        cls_packed + ftab + states.astype("<u4").tobytes() + stream
    )
    return pack_blob("rans1", {"n": n, "m": 1, "N": N, "A": A}, payload)


def _decode_rans1(meta: dict, payload: memoryview) -> bytes:
    from .base import decode_blob

    if meta["m"] == 0:
        return decode_blob(payload)
    n, N, A = meta["n"], meta["N"], meta["A"]
    from .numeric import unpack_uints

    cls_len = (256 * 4 + 7) // 8
    cls = unpack_uints(payload[:cls_len], 256, 4).astype(np.uint8)
    ftab_len = (N_CLASSES * A * 13 + 7) // 8
    F = (
        unpack_uints(payload[cls_len : cls_len + ftab_len], N_CLASSES * A, 13)
        .astype(_U32)
        .reshape(N_CLASSES, A)
    )
    pos = cls_len + ftab_len
    states = np.frombuffer(payload[pos : pos + 4 * N], dtype="<u4")
    stream = payload[pos + 4 * N :]

    S = np.zeros((N_CLASSES, A + 1), dtype=_U32)
    S[:, 1:] = np.cumsum(F, axis=1)
    # per-class slot→symbol tables
    slot2sym = np.zeros((N_CLASSES, M), dtype=np.uint8)
    for c in range(N_CLASSES):
        row = F[c].astype(np.int64)
        if row.sum() == M:
            slot2sym[c] = np.repeat(np.arange(A, dtype=np.uint8), row)
        # all-zero rows never used as contexts

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


register(17, "rans1", _decode_rans1)
