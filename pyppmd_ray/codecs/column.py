"""Top-level column codec: any supported Arrow array ↔ one self-describing
blob, bit-identical on round-trip.

This is the engine's unit of work per (block × column) — the analogue of
one reference compression stream (`/root/reference/src/pyppmd/__init__.py:
126-155`), except the "stream" is a typed Arrow column and the codec is a
cascade chosen per column (string cascades by the sampling selector).

Nested-type normalization note: decoded list/struct children use Arrow's
default child-field NAMES and NULLABILITY ("item", nullable) — a source
parquet with REQUIRED child fields decodes to equal VALUES under
normalized flags. Canonical byte verification (run_verify_job) and the
driver's value-hash compare are unaffected; only strict Schema.equals on
child-field metadata would notice. Maps rebuild the spec-exact
(non-nullable key) entry fields — parquet writers reject anything else.

Type dispatch:
- int / uint / timestamp / date / time → widen to int64 → constant | FOR |
  delta | RLE (smallest wins);
- float32/64 → byte-shuffle + the entropy stage, or decimal scaling
  (fdec) where it round-trips and is smaller; float16 → byte-shuffle;
- bool → bitpack;
- string / binary (+large) / fixed-size binary → dictionary or plain
  offsets+data with one byte codec (raw | rANS | FSST | LZ | …), both
  decided by the sampling selector (``select.plan_strcol``), never here;
- list<primitive> → offsets (delta) + recursively encoded values;
- nulls → validity bitmap blob + values encoded with nulls filled.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .base import CodecError, pack_blob, register, read_uvarint, write_uvarint
from .numeric import encode_int_auto, encode_raw
from .rans import best_entropy_blob, estimate_rans_sizes
from .select import plan_strcol
from .strings import StrCol, encode_sdict, encode_strings, strcol_from_arrow, strcol_to_arrow

# ---------------------------------------------------------- type registry

_INT_TYPES = {
    "i8": pa.int8(), "i16": pa.int16(), "i32": pa.int32(), "i64": pa.int64(),
    "u8": pa.uint8(), "u16": pa.uint16(), "u32": pa.uint32(), "u64": pa.uint64(),
}


def type_to_str(t: pa.DataType) -> str:
    if pa.types.is_string(t):
        return "str"
    if pa.types.is_large_string(t):
        return "lstr"
    if pa.types.is_binary(t):
        return "bin"
    if pa.types.is_large_binary(t):
        return "lbin"
    if pa.types.is_boolean(t):
        return "bool"
    if pa.types.is_float32(t):
        return "f32"
    if pa.types.is_float64(t):
        return "f64"
    for name, it in _INT_TYPES.items():
        if t.equals(it):
            return name
    if pa.types.is_timestamp(t):
        return f"ts:{t.unit}:{t.tz or ''}"
    if pa.types.is_date32(t):
        return "date32"
    if pa.types.is_date64(t):
        return "date64"
    if pa.types.is_list(t):
        return "list<" + type_to_str(t.value_type) + ">"
    if pa.types.is_large_list(t):
        return "llist<" + type_to_str(t.value_type) + ">"
    if pa.types.is_float16(t):
        return "f16"
    if pa.types.is_time32(t):
        return f"time32:{t.unit}"
    if pa.types.is_time64(t):
        return f"time64:{t.unit}"
    if pa.types.is_duration(t):
        return f"dur:{t.unit}"
    if pa.types.is_fixed_size_binary(t):
        return f"fsb:{t.byte_width}"
    if pa.types.is_decimal128(t):
        return f"dec:{t.precision}:{t.scale}"
    if pa.types.is_null(t):
        return "null"
    # nested/parametric markers: the exact type is rebuilt from the child
    # blobs (which carry their own type strings), not from this marker
    if pa.types.is_dictionary(t):
        return "dict"
    if pa.types.is_struct(t):
        return "struct"
    if pa.types.is_map(t):
        return "map"
    raise CodecError(f"unsupported column type {t}")


def str_to_type(s: str) -> pa.DataType:
    simple = {
        "str": pa.string(), "lstr": pa.large_string(), "bin": pa.binary(),
        "lbin": pa.large_binary(), "bool": pa.bool_(), "f32": pa.float32(),
        "f64": pa.float64(), "date32": pa.date32(), "date64": pa.date64(),
        **_INT_TYPES,
    }
    if s in simple:
        return simple[s]
    if s.startswith("ts:"):
        _, unit, tz = s.split(":", 2)
        return pa.timestamp(unit, tz=tz or None)
    if s.startswith("list<") and s.endswith(">"):
        inner = str_to_type(s[5:-1])
        return pa.list_(inner) if inner is not None else None
    if s.startswith("llist<") and s.endswith(">"):
        inner = str_to_type(s[6:-1])
        return pa.large_list(inner) if inner is not None else None
    if s == "f16":
        return pa.float16()
    if s.startswith("time32:"):
        return pa.time32(s.split(":", 1)[1])
    if s.startswith("time64:"):
        return pa.time64(s.split(":", 1)[1])
    if s.startswith("dur:"):
        return pa.duration(s.split(":", 1)[1])
    if s.startswith("fsb:"):
        return pa.binary(int(s.split(":", 1)[1]))
    if s.startswith("dec:"):
        _, p, sc = s.split(":")
        return pa.decimal128(int(p), int(sc))
    if s == "null":
        return pa.null()
    if s in ("dict", "struct", "map"):
        return None  # rebuilt from child blobs
    raise CodecError(f"unknown type string {s}")


def _int_storage_view(arr: pa.Array) -> np.ndarray:
    """int-family arrow array (no nulls) → int64 numpy.

    uint64 is bit-reinterpreted (``view``), not value-cast: values ≥ 2^63
    wrap to negative int64 and are un-wrapped on decode, so the full u64
    range round-trips (int codecs all use wrapping int64 arithmetic)."""
    t = arr.type
    if pa.types.is_timestamp(t) or pa.types.is_date64(t) or pa.types.is_time64(t) or pa.types.is_duration(t):
        arr = arr.cast(pa.int64())
    elif pa.types.is_date32(t) or pa.types.is_time32(t):
        arr = arr.cast(pa.int32())
    v = arr.to_numpy(zero_copy_only=False)
    if v.dtype == np.uint64:
        return v.view(np.int64)
    return v.astype(np.int64)


# ------------------------------------------------------------ sub-codecs

def _byte_planes(v: np.ndarray) -> bytes:
    """Byte-shuffle (transpose) of the values: byte 0 of each, then byte 1, …"""
    a = np.ascontiguousarray(v).view(np.uint8)
    return a.reshape(v.size, v.dtype.itemsize).T.tobytes()


def _encode_bshuf(v: np.ndarray, planes: bytes) -> bytes:
    """The byte planes of ``v`` through the entropy stage, which falls
    back to raw where rANS does not pay."""
    meta = {"n": int(v.size), "w": v.dtype.itemsize}
    return pack_blob("bshuf", meta, best_entropy_blob(planes))


def _decode_bshuf(meta: dict, payload: memoryview) -> bytes:
    from .base import decode_blob

    t = np.frombuffer(decode_blob(payload), dtype=np.uint8)
    n, w = meta["n"], meta["w"]
    return t.reshape(w, n).T.copy().tobytes()


register(13, "bshuf", _decode_bshuf)


# --------------------------------------------------------------- column

def encode_column(arr: pa.Array | pa.ChunkedArray, hints: dict | None = None) -> bytes:
    """Encode one Arrow column into a self-describing blob.

    ``hints`` (from the sampling selector): {"layout": "sdict"|"strs",
    "data_codec": a name in strings.BYTE_CODECS, "fsst_table": [...]} for
    a string-like column. A key left out is filled in by
    ``select.plan_strcol`` on the column itself, which is also how nested
    string children (struct, list, map, dictionary) are encoded.
    """
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    hints = hints or {}
    t = arr.type
    n = len(arr)
    tstr = type_to_str(t)
    null_blob = b""
    has_null = arr.null_count > 0
    if has_null:
        validity = np.asarray(pc.is_valid(arr))
        null_blob = encode_raw(np.packbits(validity, bitorder="little").tobytes())
        fill = null_fill_value(t)
        arr = pc.fill_null(arr, fill) if fill is not None else arr

    child = _encode_values(arr, tstr, hints)
    meta = {"t": tstr, "n": n, "nl": int(has_null)}
    payload = (write_uvarint(len(null_blob)) + null_blob + child) if has_null else child
    return pack_blob("column", meta, payload)


def null_fill_value(t: pa.DataType):
    """What a null slot is read as, by the encoder here and by the
    canonical hash (``stages/blocks.py``); None where nulls are handled
    structurally."""
    if pa.types.is_null(t):
        return None  # every slot is null by construction
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        return ""
    if pa.types.is_fixed_size_binary(t):
        return pa.scalar(b"\x00" * t.byte_width, type=t)
    if pa.types.is_binary(t) or pa.types.is_large_binary(t):
        return b""
    if pa.types.is_boolean(t):
        return False
    if (
        pa.types.is_list(t)
        or pa.types.is_large_list(t)
        or pa.types.is_dictionary(t)
        or pa.types.is_struct(t)
        or pa.types.is_map(t)
    ):
        return None  # handled structurally inside the value encoder
    if pa.types.is_decimal128(t):
        from decimal import Decimal

        return pa.scalar(Decimal(0), type=t)
    if (
        pa.types.is_timestamp(t) or pa.types.is_date32(t) or pa.types.is_date64(t)
        or pa.types.is_time32(t) or pa.types.is_time64(t) or pa.types.is_duration(t)
    ):
        return pa.scalar(0, type=t)
    if pa.types.is_float16(t):
        return None  # no halffloat fill_null kernel; handled in the f16 branch
    return 0


def _encode_values(arr: pa.Array, tstr: str, hints: dict) -> bytes:
    t = arr.type
    if tstr == "null":
        return encode_raw(b"")  # length carried by the column meta
    if tstr in ("str", "lstr", "bin", "lbin"):
        col = strcol_from_arrow(arr)
        return _encode_strcol(col, hints)
    if (
        tstr in _INT_TYPES
        or tstr.startswith(("ts:", "time32:", "time64:", "dur:"))
        or tstr in ("date32", "date64")
    ):
        return encode_int_auto(_int_storage_view(arr))
    if tstr in ("f32", "f64"):
        v = arr.to_numpy(zero_copy_only=False)
        planes = _byte_planes(v)
        fd = _encode_fdec(v, tstr)
        # the entropy stage codes the planes within ~2% of their estimate,
        # so bshuf is encoded only where it may beat fdec
        if fd is not None and len(fd) < 0.98 * min(estimate_rans_sizes(planes)):
            return fd
        bs = _encode_bshuf(v, planes)
        return bs if fd is None else min(bs, fd, key=len)
    if tstr == "bool":
        v = arr.to_numpy(zero_copy_only=False)
        return pack_blob("boolp", {"n": len(arr)},
                         encode_raw(np.packbits(v, bitorder="little").tobytes()))
    if tstr.startswith("list<") or tstr.startswith("llist<"):
        if arr.null_count > 0:
            # nulls handled by caller's validity bitmap; fill with empty lists
            arr = _fill_null_lists(arr)
        offsets = np.asarray(arr.offsets, dtype=np.int64)
        start = int(offsets[0])
        values = arr.values.slice(start, int(offsets[-1]) - start)
        ob = encode_int_auto((offsets - start).astype(np.int64))
        vb = encode_column(values, hints)
        return pack_blob("plist", {"n": len(arr)}, write_uvarint(len(ob)) + ob + vb)
    if tstr == "f16":
        if arr.null_count:
            # fill through float32 (halffloat has no fill_null kernel);
            # f16→f32→f16 is exact for every representable value
            arr = pc.cast(pc.fill_null(pc.cast(arr, pa.float32()), 0.0), pa.float16())
        v = arr.to_numpy(zero_copy_only=False)
        return _encode_bshuf(v, _byte_planes(v))
    if tstr.startswith("fsb:"):
        w = t.byte_width
        n = len(arr)
        buf = arr.buffers()[1]
        data = bytes(memoryview(buf)[arr.offset * w : (arr.offset + n) * w])
        col = (np.arange(n + 1, dtype=np.int64) * w, data)
        return _encode_strcol(col, hints)
    if tstr.startswith("dec:"):
        n = len(arr)
        buf = arr.buffers()[1]
        raw = np.frombuffer(buf, dtype=np.uint8, count=n * 16, offset=arr.offset * 16)
        pairs = raw.view("<i8").reshape(n, 2)  # 128-bit LE two's complement
        lb = encode_int_auto(np.ascontiguousarray(pairs[:, 0]))
        hb = encode_int_auto(np.ascontiguousarray(pairs[:, 1]))  # hi: mostly 0/-1 → RLE
        return pack_blob("pdec", {"n": n}, write_uvarint(len(lb)) + lb + hb)
    if tstr == "dict":
        # indices (incl. nulls) + dictionary values, each a full column blob
        ib = encode_column(arr.indices)
        db = encode_column(arr.dictionary)
        return pack_blob(
            "pdict2",
            {"n": len(arr), "ord": int(t.ordered)},
            write_uvarint(len(ib)) + ib + db,
        )
    if tstr == "struct":
        # flatten() pushes parent nulls into the children; parent validity
        # is restored by the caller's validity bitmap
        fields = arr.flatten()
        payload = bytearray()
        payload += write_uvarint(len(fields))
        for field, child in zip(t, fields):
            nb = field.name.encode()
            blob = encode_column(child)
            payload += write_uvarint(len(nb)) + nb + write_uvarint(len(blob)) + blob
        return pack_blob("pstruct", {"n": len(arr)}, bytes(payload))
    if tstr == "map":
        if arr.null_count > 0:
            vals = arr.to_pylist()
            for i in np.flatnonzero(np.asarray(pc.is_null(arr))):
                vals[int(i)] = []
            arr = pa.array(vals, type=t)
        offsets = np.asarray(arr.offsets, dtype=np.int64)
        start = int(offsets[0])
        length = int(offsets[-1]) - start
        kb = encode_column(arr.keys.slice(start, length))
        vb = encode_column(arr.items.slice(start, length))
        ob = encode_int_auto((offsets - start).astype(np.int64))
        return pack_blob(
            "pmap",
            {"n": len(arr), "ks": int(t.keys_sorted)},
            write_uvarint(len(ob)) + ob + write_uvarint(len(kb)) + kb + vb,
        )
    raise CodecError(f"cannot encode type {t}")


def _fill_null_lists(arr: pa.Array) -> pa.Array:
    mask = np.asarray(pc.is_null(arr))
    lists = arr.to_pylist()
    for i in np.flatnonzero(mask):
        lists[int(i)] = []
    return pa.array(lists, type=arr.type)


def _encode_strcol(col: StrCol, hints: dict) -> bytes:
    """Encode under the hinted layout and byte codec; a key the hints
    lack comes from :func:`plan_strcol`, so a column without hints (a
    nested child, a fixed-size binary) gets the bytes it would get
    planned at top level."""
    layout, data_codec = hints.get("layout"), hints.get("data_codec")
    if layout is None or data_codec is None:
        plan = plan_strcol(col)
        layout = layout or plan["layout"]
        data_codec = data_codec or plan["data_codec"]
    encode = encode_sdict if layout == "sdict" else encode_strings
    return encode(col, data_codec, fsst_table=hints.get("fsst_table"))


def _decode_boolp(meta: dict, payload: memoryview):
    from .base import decode_blob

    packed = np.frombuffer(decode_blob(payload), dtype=np.uint8)
    return np.unpackbits(packed, bitorder="little", count=meta["n"]).astype(bool)


def _decode_plist(meta: dict, payload: memoryview):
    from .base import decode_blob

    olen, pos = read_uvarint(payload, 0)
    offsets = np.asarray(decode_blob(payload[pos : pos + olen]), dtype=np.int64)
    values = decode_blob(payload[pos + olen :])
    return offsets, values  # values is a pa.Array (from the column codec)


def _encode_fdec(v: np.ndarray, tstr: str) -> bytes | None:
    """Decimal-scaling float candidate: prices/rates/quantities are
    fixed-point decimals stored as floats — if every value equals
    round(v·10^k)/10^k BIT-FOR-BIT for some k ≤ 4, encode the scaled
    int64s (cents, basis points) through the int cascade instead of
    entropy-coding mantissa noise.

    Self-validating: the encoder replays the exact decode arithmetic
    (float64 divide, cast to the target dtype) and compares BIT
    patterns, so NaN/inf, −0.0, and any value the scaling cannot
    represent exactly all fall back to the shuffle path — the candidate
    can never lose data."""
    if v.size == 0:
        return None
    bits = v.view(np.uint32 if v.dtype == np.float32 else np.uint64)

    def roundtrips(vv, bb, k):
        """Replay the EXACT decode arithmetic — int64 cast included
        (float m would keep -0.0 and validate a value the int payload
        cannot represent) — and compare bit patterns."""
        s = 10.0**k
        m = np.rint(vv.astype(np.float64) * s)
        if not np.all(np.isfinite(m)) or np.any(np.abs(m) > 2.0**53):
            return None
        ints = m.astype(np.int64)
        recon = (ints.astype(np.float64) / s).astype(vv.dtype)
        return ints if np.array_equal(recon.view(bb.dtype), bb) else None

    v64 = v.astype(np.float64)  # f32 → f64 widening is exact
    if not np.all(np.isfinite(v64)):
        return None
    probe = min(v.size, 64)  # reject noise columns on a prefix first
    for k in range(5):
        if roundtrips(v[:probe], bits[:probe], k) is None:
            continue
        ints = roundtrips(v, bits, k)
        if ints is not None:
            ib = encode_int_auto(ints)
            return pack_blob("fdec", {"n": int(v.size), "k": k, "t": tstr}, ib)
    return None


def _decode_fdec(meta: dict, payload: memoryview) -> bytes:
    from .base import decode_blob

    ints = np.asarray(decode_blob(payload)).astype(np.float64)
    if ints.size != meta["n"]:
        raise CodecError("fdec length mismatch")
    out = ints / (10.0 ** meta["k"])
    dtype = np.float32 if meta["t"] == "f32" else np.float64
    return out.astype(dtype).tobytes()


register(14, "boolp", _decode_boolp)
register(15, "plist", _decode_plist)
register(27, "fdec", _decode_fdec)


def _decode_pdec(meta: dict, payload: memoryview) -> bytes:
    from .base import decode_blob

    n = meta["n"]
    llen, pos = read_uvarint(payload, 0)
    lo = np.asarray(decode_blob(payload[pos : pos + llen]), dtype=np.int64)
    hi = np.asarray(decode_blob(payload[pos + llen :]), dtype=np.int64)
    pairs = np.empty((n, 2), dtype="<i8")
    pairs[:, 0] = lo
    pairs[:, 1] = hi
    return pairs.tobytes()


def _decode_pdict2(meta: dict, payload: memoryview) -> pa.Array:
    from .base import decode_blob

    ilen, pos = read_uvarint(payload, 0)
    indices = decode_blob(payload[pos : pos + ilen])
    dictionary = decode_blob(payload[pos + ilen :])
    return pa.DictionaryArray.from_arrays(
        indices, dictionary, ordered=bool(meta.get("ord", 0))
    )


def _decode_pstruct(meta: dict, payload: memoryview) -> pa.Array:
    from .base import decode_blob

    nfields, pos = read_uvarint(payload, 0)
    names, children = [], []
    for _ in range(nfields):
        nlen, pos = read_uvarint(payload, pos)
        names.append(bytes(payload[pos : pos + nlen]).decode())
        pos += nlen
        blen, pos = read_uvarint(payload, pos)
        children.append(decode_blob(payload[pos : pos + blen]))
        pos += blen
    return pa.StructArray.from_arrays(children, names)


def _decode_pmap(meta: dict, payload: memoryview) -> pa.Array:
    from .base import decode_blob

    n = meta["n"]
    olen, pos = read_uvarint(payload, 0)
    offsets = np.asarray(decode_blob(payload[pos : pos + olen]), dtype=np.int64)
    pos += olen
    klen, pos2 = read_uvarint(payload, pos)
    keys = decode_blob(payload[pos2 : pos2 + klen])
    items = decode_blob(payload[pos2 + klen :])
    if offsets.size != n + 1:
        raise CodecError("pmap: offsets count mismatch")
    if len(keys) != len(items):
        raise CodecError("pmap: key/item count mismatch")
    _check_offsets(offsets, len(keys), "pmap")
    typ = pa.map_(keys.type, items.type, keys_sorted=bool(meta.get("ks", 0)))
    # the entries struct must carry the map type's EXACT field nullability
    # (key non-nullable) — a generic struct writes unreadable parquet
    # ("Malformed levels") because the definition-level depth differs
    entries = pa.StructArray.from_arrays(
        [keys, items], fields=[typ.key_field, typ.item_field]
    )
    return pa.Array.from_buffers(
        typ, n,
        [None, pa.py_buffer(np.ascontiguousarray(offsets.astype(np.int32)))],
        children=[entries],
    )


register(21, "pdec", _decode_pdec)
register(22, "pdict2", _decode_pdict2)
register(23, "pstruct", _decode_pstruct)
register(24, "pmap", _decode_pmap)


def _decode_column(meta: dict, payload: memoryview) -> pa.Array:
    from .base import decode_blob

    t = str_to_type(meta["t"])
    n = meta["n"]
    validity = None
    if meta.get("nl"):
        nlen, pos = read_uvarint(payload, 0)
        packed = np.frombuffer(decode_blob(payload[pos : pos + nlen]), dtype=np.uint8)
        validity = np.unpackbits(packed, bitorder="little", count=n).astype(bool)
        payload = payload[pos + nlen :]

    arr = _rebuild_values(t, meta["t"], n, payload)
    if validity is not None:
        arr = _apply_validity(arr, validity)
    return arr


def _check_offsets(off: np.ndarray, limit: int, label: str) -> None:
    """Validate DECODED (untrusted) offsets before Arrow from_buffers —
    Arrow does no validation, and corrupt offsets make downstream kernels
    read out of bounds (crash, not the catchable quarantine CodecError)."""
    if off.size < 1 or int(off[0]) < 0 or int(off[-1]) > limit or (np.diff(off) < 0).any():
        raise CodecError(f"{label}: corrupt offsets plane")


def _rebuild_values(t: pa.DataType, tstr: str, n: int, payload: memoryview) -> pa.Array:
    from .base import decode_blob

    if tstr == "null":
        return pa.nulls(n)
    if tstr in ("str", "lstr", "bin", "lbin"):
        offsets, data = decode_blob(payload)
        large = tstr in ("lstr", "lbin")
        binary = tstr in ("bin", "lbin")
        offsets = np.asarray(offsets, dtype=np.int64)
        if offsets.size != n + 1:
            raise CodecError(f"{tstr}: offsets count mismatch")
        _check_offsets(offsets, len(data), tstr)
        if binary:
            typ = pa.large_binary() if large else pa.binary()
            off = offsets if large else offsets.astype(np.int32)
            return pa.Array.from_buffers(
                typ, n, [None, pa.py_buffer(np.ascontiguousarray(off)), pa.py_buffer(data)]
            )
        return strcol_to_arrow((offsets, data), large=large)
    if (
        tstr in _INT_TYPES
        or tstr.startswith(("ts:", "time64:", "dur:"))
        or tstr in ("date32", "date64")
    ):
        vals = np.asarray(decode_blob(payload), dtype=np.int64)
        if tstr.startswith(("ts:", "time64:", "dur:")) or tstr == "date64":
            return pa.array(vals, type=pa.int64()).cast(t)
        if tstr == "date32":
            return pa.array(vals.astype(np.int32), type=pa.int32()).cast(t)
        if tstr == "u64":
            # inverse of the encode-side bit-reinterpret (see _int_storage_view)
            return pa.array(vals.view(np.uint64), type=pa.uint64())
        return pa.array(vals, type=pa.int64()).cast(t)
    if tstr.startswith("time32:"):
        vals = np.asarray(decode_blob(payload), dtype=np.int64)
        return pa.array(vals.astype(np.int32), type=pa.int32()).cast(t)
    if tstr == "f16":
        raw = decode_blob(payload)
        vals = np.frombuffer(raw, dtype=np.float16)
        if vals.size != n:
            raise CodecError("f16: value count mismatch")
        return pa.array(vals, type=t)
    if tstr.startswith("fsb:"):
        offsets, data = decode_blob(payload)
        if len(data) != n * t.byte_width:
            raise CodecError("fsb: data length mismatch")
        return pa.Array.from_buffers(t, n, [None, pa.py_buffer(data)])
    if tstr.startswith("dec:"):
        raw = decode_blob(payload)  # pdec decoder → n*16 LE bytes
        if len(raw) != n * 16:
            raise CodecError("dec: data length mismatch")
        return pa.Array.from_buffers(t, n, [None, pa.py_buffer(raw)])
    if tstr in ("dict", "struct", "map"):
        return decode_blob(payload)  # self-contained child decoders
    if tstr in ("f32", "f64"):
        raw = decode_blob(payload)
        dtype = np.float32 if tstr == "f32" else np.float64
        vals = np.frombuffer(raw, dtype=dtype)
        if vals.size != n:
            raise CodecError(f"{tstr}: value count mismatch")
        return pa.array(vals, type=t)
    if tstr == "bool":
        return pa.array(decode_blob(payload), type=pa.bool_())
    if tstr.startswith("list<") or tstr.startswith("llist<"):
        offsets, values = decode_blob(payload)
        large = tstr.startswith("llist<")
        off_t = np.int64 if large else np.int32
        offsets = np.asarray(offsets, dtype=np.int64)
        if offsets.size != n + 1:
            raise CodecError(f"{tstr}: offsets count mismatch")
        _check_offsets(offsets, len(values), tstr)
        typ = pa.large_list(values.type) if large else pa.list_(values.type)
        return pa.Array.from_buffers(
            typ, n,
            [None, pa.py_buffer(np.ascontiguousarray(offsets.astype(off_t)))],
            children=[values],
        )
    raise CodecError(f"cannot decode type {tstr}")


def _apply_validity(arr: pa.Array, validity: np.ndarray) -> pa.Array:
    # take with a null index yields null — works uniformly for nested types
    idx = pa.array(np.arange(len(arr), dtype=np.int64), mask=~validity)
    return arr.take(idx)


register(16, "column", _decode_column)
