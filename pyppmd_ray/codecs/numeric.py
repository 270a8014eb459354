"""Integer codecs: bit-packing, frame-of-reference, delta+zigzag, RLE,
constant, raw.

All vectorized numpy over contiguous buffers, except the bit packer's
loops, which are compiled C (``kernels.c``, loaded by ``native.py``).
Every encoder returns a self-describing blob (see ``base.py``) and every
decoder reproduces the input array bit-identically (the engine-wide
translation of the reference's round-trip contract,
`/root/reference/tests/test_ppmd7.py:56-92`).

Integer domain: all encoders take int64/uint64-viewable arrays; narrower
Arrow types are widened by the column layer and narrowed back on decode.
Frame-of-reference arithmetic is done modulo 2**64 (bit-pattern exact), so
the full int64 range round-trips even when ``max - min`` overflows int64.
"""

from __future__ import annotations

import numpy as np

from .base import CodecError, pack_blob, register, unpack_blob, read_uvarint, write_uvarint
from .native import ffi, lib

_U64 = np.uint64


def _bit_width(x: int) -> int:
    return int(x).bit_length()


def _pack_bits(vals: np.ndarray, widths: np.ndarray | None, width: int, total: int) -> bytes:
    v = np.ascontiguousarray(vals).astype(_U64, copy=False)
    out = np.zeros((total + 7) // 8, dtype=np.uint8)
    w = ffi.NULL if widths is None else ffi.from_buffer("int64_t[]", widths)
    if lib.pack_bits(ffi.from_buffer("uint64_t[]", v), v.size, w, width,
                     ffi.from_buffer("uint8_t[]", out)):
        raise CodecError("bit width outside 0..64")
    return out.tobytes()


def _unpack_bits(buf: bytes | memoryview, n: int, widths: np.ndarray | None,
                 width: int) -> np.ndarray:
    src = ffi.from_buffer("uint8_t[]", buf)
    out = np.empty(n, dtype=_U64)
    w = ffi.NULL if widths is None else ffi.from_buffer("int64_t[]", widths)
    rc = lib.unpack_bits(src, len(src), n, w, width, ffi.from_buffer("uint64_t[]", out))
    if rc == -1:
        raise CodecError("bit width outside 0..64")
    if rc:
        raise CodecError(f"bit-packed buffer of {len(src)} bytes too short for {n} values")
    return out


def pack_uints(arr: np.ndarray, width: int) -> bytes:
    """LSB-first bit-pack ``arr`` (uint64, values < 2**width) into bytes:
    bit j of value i is bit ``i*width + j`` of the little-endian bit
    stream; bits of a value at or above ``width`` are dropped."""
    if width == 0 or arr.size == 0:
        return b""
    if not 0 < width <= 64:
        raise CodecError(f"bad width {width}")
    return _pack_bits(arr, None, width, arr.size * width)


def unpack_uints(buf: bytes | memoryview, n: int, width: int) -> np.ndarray:
    """Inverse of :func:`pack_uints`; bytes past the last value are ignored."""
    if width == 0 or n == 0:
        return np.zeros(n, dtype=_U64)
    if not 0 < width <= 64 or n < 0:
        raise CodecError(f"bad bit-pack shape n={n} width={width}")
    return _unpack_bits(buf, n, None, width)


def pack_varbits(vals: np.ndarray, widths: np.ndarray) -> bytes:
    """The :func:`pack_uints` stream with a width per value: vals[i] takes
    the next widths[i] bits (0..64), LSB-first."""
    w = np.ascontiguousarray(widths, dtype=np.int64)
    if w.size != vals.size:
        raise CodecError(f"{vals.size} values but {w.size} widths")
    return _pack_bits(vals, w, 0, int(w.sum()))


def unpack_varbits(buf: bytes | memoryview, widths: np.ndarray) -> np.ndarray:
    """Inverse of :func:`pack_varbits`; bytes past the last value are ignored."""
    w = np.ascontiguousarray(widths, dtype=np.int64)
    return _unpack_bits(buf, w.size, w, 0)


def _as_u64(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    if arr.dtype == np.int64:
        return arr.view(_U64)
    if arr.dtype == _U64:
        return arr
    raise CodecError(f"numeric codecs take int64/uint64, got {arr.dtype}")


def _from_u64(arr: np.ndarray, signed: bool) -> np.ndarray:
    return arr.view(np.int64) if signed else arr


# ---------------------------------------------------------------- forpack

def encode_for(arr: np.ndarray) -> bytes:
    """Frame-of-reference + bit-pack. Natural decode type: same-dtype array."""
    signed = arr.dtype == np.int64
    u = _as_u64(arr)
    if u.size == 0:
        return pack_blob("forpack", {"n": 0, "w": 0, "ref": 0, "s": int(signed)})
    view = arr  # signed view for a meaningful reference value
    ref = int(view.min())
    off = u - _U64(ref & 0xFFFFFFFFFFFFFFFF)  # modular: exact for any int64 range
    w = _bit_width(int(off.max()))
    meta = {"n": int(u.size), "w": w, "ref": ref, "s": int(signed)}
    return pack_blob("forpack", meta, pack_uints(off, w))


def _decode_for(meta: dict, payload: memoryview) -> np.ndarray:
    off = unpack_uints(payload, meta["n"], meta["w"])
    vals = off + _U64(meta["ref"] & 0xFFFFFFFFFFFFFFFF)
    return _from_u64(vals, bool(meta["s"]))


# ------------------------------------------------------------------ delta

def _zigzag(d: np.ndarray) -> np.ndarray:
    return ((d << np.int64(1)) ^ (d >> np.int64(63))).view(_U64)


def _unzigzag(z: np.ndarray) -> np.ndarray:
    zi = z.view(np.int64)
    return (z >> _U64(1)).view(np.int64) ^ -(zi & np.int64(1))


def encode_delta(arr: np.ndarray) -> bytes:
    """Delta + zigzag, diffs encoded with the best of constant / RLE /
    bit-pack; wins on sorted/near-sorted ints (offsets, row ids)."""
    signed = arr.dtype == np.int64
    u = _as_u64(arr)
    n = int(u.size)
    if n == 0:
        return pack_blob("delta", {"n": 0, "m": "p", "w": 0, "first": 0, "s": int(signed)})
    first = int(u[0])
    d = np.diff(u.view(np.int64))  # modular diff, exact under zigzag round-trip
    z = _zigzag(d)
    meta = {"n": n, "first": first, "s": int(signed)}
    if z.size == 0 or (z == z[0]).all():
        meta["m"] = "c"
        meta["v"] = int(z[0]) if z.size else 0
        return pack_blob("delta", meta)
    w = _bit_width(int(z.max()))
    packed = pack_uints(z, w)
    runs = int(np.count_nonzero(np.diff(z))) + 1
    if runs < z.size // 4:
        rb = encode_rle(z.astype(np.int64) if int(z.max()) < 1 << 62 else z)
        if len(rb) < len(packed) + 8:
            meta["m"] = "r"
            return pack_blob("delta", meta, rb)
    meta["m"] = "p"
    meta["w"] = w
    return pack_blob("delta", meta, packed)


def _decode_delta(meta: dict, payload: memoryview) -> np.ndarray:
    n = meta["n"]
    if n == 0:
        return _from_u64(np.zeros(0, dtype=_U64), bool(meta["s"]))
    mode = meta.get("m", "p")
    if mode == "c":
        z = np.full(n - 1, meta["v"], dtype=_U64)
    elif mode == "r":
        from .base import decode_blob

        z = np.asarray(decode_blob(payload)).astype(_U64)
    else:
        z = unpack_uints(payload, n - 1, meta["w"])
    d = _unzigzag(z).view(_U64)
    out = np.empty(n, dtype=_U64)
    out[0] = _U64(meta["first"])
    np.cumsum(d, out=out[1:])  # modular cumsum
    out[1:] += _U64(meta["first"])
    return _from_u64(out, bool(meta["s"]))


# -------------------------------------------------------------------- rle

def encode_rle(arr: np.ndarray) -> bytes:
    """Run-length: (run values → forpack, run lengths → forpack)."""
    signed = arr.dtype == np.int64
    u = _as_u64(arr)
    n = int(u.size)
    if n == 0:
        values = u
        lengths = np.zeros(0, dtype=np.int64)
    else:
        bounds = np.flatnonzero(np.diff(u) != 0) + 1
        starts = np.concatenate(([0], bounds))
        ends = np.concatenate((bounds, [n]))
        values = u[starts]
        lengths = (ends - starts).astype(np.int64)
    vb = encode_for(_from_u64(values, signed))
    lb = encode_for(lengths)
    payload = write_uvarint(len(vb)) + vb + lb
    return pack_blob("rle", {"n": n, "s": int(signed)}, payload)


def _decode_rle(meta: dict, payload: memoryview) -> np.ndarray:
    vlen, pos = read_uvarint(payload, 0)
    from .base import decode_blob

    values = decode_blob(payload[pos : pos + vlen])
    lengths = decode_blob(payload[pos + vlen :])
    out = np.repeat(np.asarray(values), np.asarray(lengths))
    if out.size != meta["n"]:
        raise CodecError("rle length mismatch")
    signed = bool(meta["s"])
    u = out.view(_U64) if out.dtype == np.int64 else out.astype(_U64)
    return _from_u64(u, signed)


# --------------------------------------------------------- constant / raw

def encode_constant(n: int, value: int, signed: bool) -> bytes:
    return pack_blob("constant", {"n": n, "v": int(value), "s": int(signed)})


def _decode_constant(meta: dict, payload: memoryview) -> np.ndarray:
    dtype = np.int64 if meta["s"] else _U64
    return np.full(meta["n"], meta["v"], dtype=dtype)


def encode_raw(data: bytes | memoryview) -> bytes:
    return pack_blob("raw", {"n": len(data)}, data)


def _decode_raw(meta: dict, payload: memoryview) -> bytes:
    return bytes(payload)


def encode_gcd(arr: np.ndarray) -> bytes | None:
    """GCD-scaling candidate: when every (v − min) shares a common
    divisor g > 1 — day-granular timestamps (g = 86.4e9 µs), cent
    prices, fixed-stride ids — encode (v − min)/g and reconstruct with
    exact integer math. Returns None when g ≤ 1, the value range
    cannot be normalized safely, or the dtype is not int64/uint64."""
    if arr.size == 0 or arr.dtype not in (np.dtype(np.int64), np.dtype(np.uint64)):
        return None
    signed = arr.dtype == np.int64
    mn = int(arr.min())
    if signed:
        if int(arr.max()) - mn >= 1 << 63:
            return None  # range overflows the u64 normalize path
        d = (arr - np.int64(mn)).astype(np.uint64)
    else:
        d = arr - np.uint64(mn)
    # prefix early-exit: the full gcd divides any subset's gcd, so a
    # prefix gcd of 1 (the common case — offsets, ids) rejects without
    # the O(n) elementwise-Euclid pass over the whole array
    if int(np.gcd.reduce(d[: min(d.size, 64)])) <= 1:
        return None
    g = int(np.gcd.reduce(d))
    if g <= 1:
        return None
    q = (d // np.uint64(g)).astype(np.int64)  # ≤ (2^64−1)/2 → fits
    payload = encode_int_auto(q)  # q's gcd is 1 ⇒ recursion stops here
    return pack_blob(
        "gcd", {"n": int(arr.size), "mn": mn, "g": g, "s": int(signed)}, payload
    )


def _decode_gcd(meta: dict, payload: memoryview) -> np.ndarray:
    from .base import decode_blob

    q = np.asarray(decode_blob(payload))
    if q.size != meta["n"]:
        raise CodecError("gcd length mismatch")
    if bool(meta["s"]):
        # q·g ≤ (max−min) < 2^63 and +min stays in int64 by construction
        return q.astype(np.int64) * np.int64(meta["g"]) + np.int64(meta["mn"])
    return q.astype(np.uint64) * np.uint64(meta["g"]) + np.uint64(meta["mn"])


def encode_int_auto(arr: np.ndarray) -> bytes:
    """Pick the smallest of forpack / delta / rle / gcd / constant for an
    int array."""
    if arr.size:
        mn, mx = int(arr.min()), int(arr.max())
        if mn == mx:
            return encode_constant(int(arr.size), mn, arr.dtype == np.int64)
    cands = [encode_for(arr), encode_delta(arr)]
    # RLE only worth trying when runs exist
    if arr.size and np.count_nonzero(np.diff(arr)) < arr.size // 2:
        cands.append(encode_rle(arr))
    eg = encode_gcd(arr)
    if eg is not None:
        cands.append(eg)
    return min(cands, key=len)


register(1, "raw", _decode_raw)
register(2, "constant", _decode_constant)
register(4, "forpack", _decode_for)
register(5, "delta", _decode_delta)
register(6, "rle", _decode_rle)
register(26, "gcd", _decode_gcd)
