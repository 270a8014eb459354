"""Order-1 context-modeled static rANS ("rans1").

The engine's adaptive-context entropy stage (north-star: a from-scratch
context codec informed by the reference's PPMd design space — PPMd predicts
from suffix contexts, `/root/reference/src/lib/ppmd/Ppmd7Enc.c:77-185`;
here the context is the previous byte, quantized to C classes, with static
per-class tables built in a first pass).

Lane layout: lanes are CONTIGUOUS CHUNKS (lane k owns positions
[k*T, (k+1)*T)), not round-robin, so each lane's context byte is its own
previous symbol. The first symbol of each lane uses class 0. The encode
and decode loops are C (``rans1_encode``/``rans1_decode`` in
``kernels.c``); this module builds the model (class map, per-class
tables) in numpy. The lockstep numpy coder they replaced is kept in
``tests/numpy_oracle.py``, and the tests hold the two byte-identical.

Wire format: cls_map (256 x 4-bit) + per-class 13-bit freq tables +
lane states + single interleaved stream (same stream discipline as rans.py).
The decoder rejects impossible meta (lane count, alphabet, mode), class
tables that neither sum to M nor are empty, and a stream that is not
consumed exactly or leaves a lane away from ``RANS_L``.
"""

from __future__ import annotations

import numpy as np

from .base import CodecError, pack_blob, register
from .native import ffi, lib
from .numeric import pack_uints, unpack_uints
from .rans import _DECODE_ERRORS, _NO_MEMORY, cap_full_freq, normalize_freqs

_U32 = np.uint32
_U64 = np.uint64

N_CLASSES = 16  # kernels.c hard-codes the same, and PROB_BITS = 12


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
    # part of the wire format (N is in every header); the rule dates from
    # the lockstep numpy coder, where more lanes meant fewer, bigger steps
    return max(1, min(8192, n // 700)) if n else 1


def rans1_tables(arr: np.ndarray, N: int) -> tuple[np.ndarray, np.ndarray]:
    """(cls, F): the class map and the (N_CLASSES, A) quantized tables of
    ``arr`` coded in N contiguous lanes, A = max(arr.max() + 1, 2)."""
    n = int(arr.size)
    cls = build_classes(arr)
    A = max(int(arr.max()) + 1, 2)  # >= 2 so cap_full_freq has a dummy slot
    # context class per position; class 0 at lane starts
    ctx = np.zeros(n, dtype=np.uint8)
    ctx[1:] = cls[arr[:-1]]
    ctx[:: -(-n // N)] = 0
    cnt = np.bincount(
        ctx.astype(np.int64) * A + arr, minlength=N_CLASSES * A
    ).reshape(N_CLASSES, A)
    F = np.zeros((N_CLASSES, A), dtype=_U32)
    for c in range(N_CLASSES):
        if cnt[c].sum() > 0:
            F[c] = cap_full_freq(normalize_freqs(cnt[c]))
    return cls, F


def encode_rans1(data: bytes | memoryview | np.ndarray) -> bytes:
    arr = np.frombuffer(data, dtype=np.uint8) if not isinstance(data, np.ndarray) else data
    arr = np.ascontiguousarray(arr, dtype=np.uint8)
    n = int(arr.size)
    if n < 4096:
        from .rans import encode_rans0

        inner = encode_rans0(arr)
        return pack_blob("rans1", {"n": n, "m": 0}, inner)

    N = _lane_count(n)
    cls, F = rans1_tables(arr, N)
    A = F.shape[1]
    states = np.empty(N, dtype=_U32)
    out = np.empty(2 * n, dtype=np.uint8)
    words = lib.rans1_encode(
        ffi.from_buffer("uint8_t[]", arr), n, N, ffi.from_buffer("uint8_t[]", cls),
        ffi.from_buffer("uint32_t[]", F), A, ffi.from_buffer("uint32_t[]", states),
        ffi.from_buffer("uint8_t[]", out),
    )
    if words == _NO_MEMORY:
        raise MemoryError("rans1_encode")
    if words < 0:
        raise CodecError("rans1 symbol has no slot in its class table")
    payload = (
        pack_uints(cls.astype(_U64), 4)
        + pack_uints(F.reshape(-1).astype(_U64), 13)
        + states.astype("<u4").tobytes()
        + out[2 * (n - words) :].tobytes()
    )
    return pack_blob("rans1", {"n": n, "m": 1, "N": N, "A": A}, payload)


def _decode_rans1(meta: dict, payload: memoryview) -> bytes:
    from .base import decode_blob

    m = meta["m"]
    if m not in (0, 1):
        raise CodecError(f"bad rans1 mode {m!r}")
    if m == 0:
        return decode_blob(payload)
    n, N, A = meta["n"], meta["N"], meta["A"]
    if not (1 <= N <= max(n, 1) and 2 <= A <= 256):
        raise CodecError(f"bad rans1 header n={n} N={N} A={A}")

    cls_len = (256 * 4 + 7) // 8
    ftab_len = (N_CLASSES * A * 13 + 7) // 8
    pos = cls_len + ftab_len
    if len(payload) < pos + 4 * N:
        raise CodecError("truncated rans1 tables")
    cls = unpack_uints(payload[:cls_len], 256, 4).astype(np.uint8)
    F = unpack_uints(payload[cls_len:pos], N_CLASSES * A, 13).astype(_U32)
    states = np.frombuffer(payload[pos : pos + 4 * N], dtype="<u4").astype(_U32)
    stream = ffi.from_buffer("uint8_t[]", payload[pos + 4 * N :])
    out = np.empty(n, dtype=np.uint8)
    rc = lib.rans1_decode(
        stream, len(stream), ffi.from_buffer("uint32_t[]", states), N, n,
        ffi.from_buffer("uint8_t[]", cls), ffi.from_buffer("uint32_t[]", F), A,
        ffi.from_buffer("uint8_t[]", out),
    )
    if rc == _NO_MEMORY:
        raise MemoryError("rans1_decode")
    if rc:
        raise CodecError(_DECODE_ERRORS[rc])
    return out.tobytes()


register(17, "rans1", _decode_rans1)
