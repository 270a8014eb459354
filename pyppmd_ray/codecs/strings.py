"""String-column codecs: plain (offsets+data) and dictionary.

In-memory representation shared with the column layer: a string column is
``(offsets: np.int64 array of n+1, data: bytes)`` — exactly Arrow's layout,
extracted zero-copy from ``pa.Array`` buffers.

- ``strs``: offsets → best int codec (delta wins on monotone offsets),
  data bytes → the byte codec the caller names (``data_codec``, which
  ``select.plan_strcol`` decides; this module never chooses one).
- ``sdict``: dictionary-encode values (codes → int codec cascade, distinct
  values → a nested ``strs`` blob). Wins on low-cardinality columns
  (``lang``, ``repo``, ``commit``).
"""

from __future__ import annotations

import numpy as np

from .base import CodecError, pack_blob, register, read_uvarint, write_uvarint
from .fieldt import encode_fieldt
from .fsst import encode_fsst
from .lined import encode_lined
from .lz import encode_lz
from .numeric import encode_int_auto, encode_raw
from .rans import encode_rans0
from .rans_ctx import encode_rans1
from .wtok import encode_wtok

StrCol = tuple[np.ndarray, bytes]

# the one name → encoder table of the byte-stream codecs: the selector's
# trials, string columns, hint validation and ``compress()`` all read it
BYTE_CODECS = {
    "raw": encode_raw,
    "rans0": encode_rans0,
    "rans1": encode_rans1,
    "fsst": encode_fsst,
    "lz": encode_lz,
    "lined": encode_lined,
    "fieldt": encode_fieldt,
    "wtok": encode_wtok,
}


def encode_strings(col: StrCol, data_codec: str = "raw",
                   fsst_table: list[bytes] | None = None) -> bytes:
    """``data_codec``: a name in ``BYTE_CODECS``; data under 64 bytes is
    stored raw. ``fsst_table``: a symbol table trained once on the
    dataset sample (the ``fsst_table`` hint that
    ``pipelines.compress.plan_sample_table`` adds to its plan) — skips
    per-block table training; the table is still embedded in the blob,
    so decode stays stateless."""
    offsets, data = col
    data = bytes(data)
    ob = encode_int_auto(np.ascontiguousarray(offsets, dtype=np.int64))
    if len(data) < 64:
        db = encode_raw(data)
    elif data_codec == "fsst" and fsst_table:
        db = encode_fsst(data, table=fsst_table)
    else:
        db = BYTE_CODECS[data_codec](data)
    payload = write_uvarint(len(ob)) + ob + db
    return pack_blob("strs", {"n": int(offsets.size) - 1}, payload)


def _decode_strings(meta: dict, payload: memoryview) -> StrCol:
    from .base import decode_blob

    olen, pos = read_uvarint(payload, 0)
    offsets = np.asarray(decode_blob(payload[pos : pos + olen]), dtype=np.int64)
    data = decode_blob(payload[pos + olen :])
    if offsets.size != meta["n"] + 1:
        raise CodecError("strs offsets mismatch")
    return offsets, data


def strcol_from_arrow(arr) -> StrCol:
    """Zero-copy-ish (offsets, data) from a pa.(Large)String/Binary array.

    Offsets are rebased to 0 (sliced arrays); nulls must be filled upstream.
    """
    import pyarrow as pa

    t = arr.type
    bufs = arr.buffers()
    n = len(arr)
    if pa.types.is_large_string(t) or pa.types.is_large_binary(t):
        off = np.frombuffer(bufs[1], dtype=np.int64)[arr.offset : arr.offset + n + 1]
    else:
        off = np.frombuffer(bufs[1], dtype=np.int32)[arr.offset : arr.offset + n + 1].astype(
            np.int64
        )
    start = int(off[0])
    end = int(off[-1])
    off = (off - start).astype(np.int64)
    data = bytes(memoryview(bufs[2])[start:end]) if bufs[2] is not None and end > start else b""
    return off, data


def filled_strcol(arr) -> StrCol | None:
    """(offsets, data) of a (large) string/binary column with nulls read
    as empty values; None for any other type."""
    import pyarrow as pa
    import pyarrow.compute as pc

    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    t = arr.type
    is_bin = pa.types.is_binary(t) or pa.types.is_large_binary(t)
    if not (is_bin or pa.types.is_string(t) or pa.types.is_large_string(t)):
        return None
    if arr.null_count:
        arr = pc.fill_null(arr, b"" if is_bin else "")
    return strcol_from_arrow(arr)


def strcol_to_arrow(col: StrCol, large: bool = True):
    import pyarrow as pa

    offsets, data = col
    n = int(offsets.size) - 1
    if large:
        return pa.Array.from_buffers(
            pa.large_string(),
            n,
            [None, pa.py_buffer(np.ascontiguousarray(offsets, dtype=np.int64)), pa.py_buffer(data)],
        )
    return pa.Array.from_buffers(
        pa.string(),
        n,
        [None, pa.py_buffer(np.ascontiguousarray(offsets).astype(np.int32)), pa.py_buffer(data)],
    )


def checked_binary_values(voff: np.ndarray, vdata: bytes, label: str):
    """Build a pa.large_binary value array from DECODED (untrusted)
    offsets + data, validating the offsets first.

    Arrow's ``from_buffers`` does no validation; a corrupted offsets
    plane (negative, non-monotonic, or past the data buffer) would make
    the subsequent ``take`` read out of bounds — a crash, not the
    catchable ``CodecError`` the quarantine contract requires.
    """
    import pyarrow as pa

    from .base import CodecError

    voff = np.ascontiguousarray(voff, dtype=np.int64)
    if voff.size < 1:
        raise CodecError(f"{label}: empty offsets plane")
    if int(voff[0]) != 0 or int(voff[-1]) > len(vdata) or (np.diff(voff) < 0).any():
        raise CodecError(f"{label}: corrupt offsets plane")
    return pa.Array.from_buffers(
        pa.large_binary(),
        int(voff.size) - 1,
        [None, pa.py_buffer(voff), pa.py_buffer(vdata)],
    )


def dict_encode_strcol(col: StrCol) -> tuple[np.ndarray, StrCol]:
    """(codes, distinct StrCol) via Arrow's dictionary_encode kernel."""
    arr = strcol_to_arrow(col)
    d = arr.dictionary_encode()
    codes = d.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    return codes, strcol_from_arrow(d.dictionary)


def encode_sdict(col: StrCol, data_codec: str = "raw",
                 fsst_table: list[bytes] | None = None) -> bytes:
    codes, (voff, vdata) = dict_encode_strcol(col)
    cb = encode_int_auto(codes)
    vb = encode_strings((voff, vdata), data_codec, fsst_table=fsst_table)
    payload = write_uvarint(len(cb)) + cb + vb
    return pack_blob("sdict", {"n": int(codes.size)}, payload)


def _decode_sdict(meta: dict, payload: memoryview) -> StrCol:
    from .base import decode_blob

    clen, pos = read_uvarint(payload, 0)
    codes = np.asarray(decode_blob(payload[pos : pos + clen]), dtype=np.int64)
    voff, vdata = decode_blob(payload[pos + clen :])
    # Arrow C take kernel: gathers rows without per-byte index temporaries
    import pyarrow as pa
    import pyarrow.compute as pc

    values = checked_binary_values(np.asarray(voff), vdata, "sdict")
    taken = pc.take(values, pa.array(codes, type=pa.int64()))
    return strcol_from_arrow(taken)


register(11, "strs", _decode_strings)
register(12, "sdict", _decode_sdict)
