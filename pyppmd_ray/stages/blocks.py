"""Encoded-block framing: a pa.Table slice ↔ one self-describing block.

A block is the engine's atomic decode unit — the analogue of one reference
compression stream (SURVEY.md §1.1: "an encoded block is the atomic decode
unit; row order within a block must be recorded"). Row order inside a block
is positional (column layouts preserve order); every block carries:

- ``block_id``: content address — sha256 over the canonical uncompressed
  column bytes. Deterministic encode ⇒ Ray task retries write identical
  blocks (lineage-safe, SURVEY.md §4.2), and identical input blocks
  dedupe naturally.
- ``meta``: JSON with schema, per-column codec ids + sizes,
  ``uncompressed_bytes`` — the explicit out-of-band framing the reference
  lacks (its decoder needs length fed separately,
  `/root/reference/src/ext/_ppmdmodule.c:398-407`).
- ``payload``: framed per-column blobs.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pyarrow as pa

from ..codecs import decode_blob, unpack_blob
from ..codecs.base import read_uvarint, write_uvarint
from ..codecs.column import encode_column, null_fill_value, type_to_str
from ..codecs.select import plan_table

BLOCK_SCHEMA = pa.schema(
    [
        ("block_id", pa.string()),
        ("n_rows", pa.int64()),
        ("uncompressed_bytes", pa.int64()),
        ("encoded_bytes", pa.int64()),
        ("meta", pa.string()),
        ("payload", pa.large_binary()),
    ]
)


def canonical_column_bytes(arr: pa.Array) -> list[bytes]:
    """Deterministic byte rendering of a column for hashing (type-aware,
    layout-independent)."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    t = arr.type
    import pyarrow.compute as pc

    parts: list[bytes] = []
    if pa.types.is_null(t):
        return [len(arr).to_bytes(8, "little")]  # content IS the length
    if arr.null_count:
        parts.append(np.packbits(np.asarray(pc.is_valid(arr)), bitorder="little").tobytes())
        fill = null_fill_value(t)
        arr = pc.fill_null(arr, fill) if fill is not None else arr
    if pa.types.is_string(t) or pa.types.is_large_string(t) or pa.types.is_binary(t) or pa.types.is_large_binary(t):
        from ..codecs.strings import strcol_from_arrow

        off, data = strcol_from_arrow(arr)
        parts += [off.tobytes(), data]
    elif pa.types.is_list(t) or pa.types.is_large_list(t):
        # logical canonical form: null slots count as empty lists, child
        # values of null slots excluded (pc.list_flatten drops them)
        lens = np.asarray(pc.fill_null(pc.list_value_length(arr), 0), dtype=np.int64)
        off = np.concatenate(([0], np.cumsum(lens)))
        parts.append(off.tobytes())
        parts += canonical_column_bytes(pc.list_flatten(arr))
    elif pa.types.is_boolean(t):
        parts.append(np.packbits(arr.to_numpy(zero_copy_only=False), bitorder="little").tobytes())
    elif pa.types.is_dictionary(t):
        # logical canonical form: the decoded values (dictionary layout is
        # an encoding detail, not content)
        parts += canonical_column_bytes(arr.cast(t.value_type))
    elif pa.types.is_struct(t):
        for child in arr.flatten():  # parent nulls pushed into children
            parts += canonical_column_bytes(child)
    elif pa.types.is_map(t):
        # list_value_length has no map kernel in this pyarrow; diff the
        # offsets and zero the null slots instead
        lens = np.diff(np.asarray(arr.offsets, dtype=np.int64))
        if arr.null_count:
            lens = lens.copy()
            lens[~np.asarray(pc.is_valid(arr))] = 0
        off = np.concatenate(([0], np.cumsum(lens)))
        parts.append(off.tobytes())
        valid = arr.drop_null() if arr.null_count else arr
        o2 = np.asarray(valid.offsets, dtype=np.int64)
        if o2.size:
            s, ln = int(o2[0]), int(o2[-1]) - int(o2[0])
            parts += canonical_column_bytes(valid.keys.slice(s, ln))
            parts += canonical_column_bytes(valid.items.slice(s, ln))
    elif pa.types.is_decimal128(t):
        n = len(arr)
        parts.append(
            np.frombuffer(
                arr.buffers()[1], dtype=np.uint8, count=n * 16, offset=arr.offset * 16
            ).tobytes()
        )
    elif pa.types.is_fixed_size_binary(t):
        n, w = len(arr), t.byte_width
        parts.append(
            bytes(memoryview(arr.buffers()[1])[arr.offset * w : (arr.offset + n) * w])
        )
    elif pa.types.is_time32(t) or pa.types.is_time64(t) or pa.types.is_duration(t):
        parts.append(arr.cast(pa.int64()).to_numpy(zero_copy_only=False).tobytes())
    elif pa.types.is_float16(t):
        if arr.null_count:
            arr = pc.cast(pc.fill_null(pc.cast(arr, pa.float32()), 0.0), pa.float16())
        parts.append(arr.to_numpy(zero_copy_only=False).tobytes())
    else:
        parts.append(arr.to_numpy(zero_copy_only=False).tobytes())
    return parts


def table_uncompressed_bytes(tbl: pa.Table) -> int:
    return sum(sum(len(p) for p in canonical_column_bytes(tbl[c])) for c in tbl.column_names)


PERM_ENTRY = "\x00perm"  # reserved payload entry name (NUL is invalid in schemas)
CLUSTER_AUTO = ("lang", "source", "path")


def encode_block(tbl: pa.Table, hints: dict[str, dict] | None = None) -> dict:
    """Encode one table slice into a block row (dict matching BLOCK_SCHEMA).

    Rows are first sorted by whichever of ``CLUSTER_AUTO`` (lang, source,
    path) exist (the north rule's lang-aware layout — similar content
    clusters, so dictionaries/LZ windows see denser redundancy; measured
    ~4.5% smaller on the source fixture). The inverse permutation is
    stored in the block and decode restores the EXACT original row order
    — bit-identity holds."""
    import pyarrow.compute as pc

    perm_blob = None
    keys = [c for c in CLUSTER_AUTO if c in tbl.column_names]
    if keys and tbl.num_rows > 1:
        idx = pc.sort_indices(tbl, sort_keys=[(k, "ascending") for k in keys])
        idxa = np.asarray(idx, dtype=np.int64)
        if not np.array_equal(idxa, np.arange(tbl.num_rows)):
            inv = np.empty_like(idxa)
            inv[idxa] = np.arange(idxa.size)
            tbl = tbl.take(idx)
            from ..codecs.numeric import encode_int_auto

            perm_blob = encode_int_auto(inv)
    if hints is None:
        hints = plan_table(tbl)
    h = hashlib.sha256()
    unc = 0
    for name in tbl.column_names:
        for part in canonical_column_bytes(tbl[name]):
            h.update(part)
            unc += len(part)
    blobs: dict[str, bytes] = {}
    col_meta: dict[str, dict] = {}
    for name in tbl.column_names:
        blob = encode_column(tbl[name], hints=hints.get(name))
        blobs[name] = blob
        cname, _, _ = unpack_blob(blob)
        col_meta[name] = {
            "codec": _cascade_id(blob),
            "bytes": len(blob),
            "type": type_to_str(
                tbl[name].type if not isinstance(tbl[name], pa.ChunkedArray) else tbl[name].type
            ),
            # shared trained tables (raw bytes) are embedded in the blob,
            # not the JSON meta
            "hints": {
                k: v for k, v in hints.get(name, {}).items() if k != "fsst_table"
            },
        }
    payload = bytearray()
    payload += write_uvarint(len(blobs) + (1 if perm_blob else 0))
    if perm_blob:
        nb = PERM_ENTRY.encode()
        payload += write_uvarint(len(nb)) + nb + write_uvarint(len(perm_blob)) + perm_blob
    for name, blob in blobs.items():
        nb = name.encode()
        payload += write_uvarint(len(nb)) + nb + write_uvarint(len(blob)) + blob
    payload = bytes(payload)
    meta = {
        "columns": col_meta,
        "n_rows": tbl.num_rows,
        "uncompressed_bytes": unc,
        "v": 1,
    }
    return {
        "block_id": h.hexdigest(),
        "n_rows": tbl.num_rows,
        "uncompressed_bytes": unc,
        "encoded_bytes": len(payload),
        "meta": json.dumps(meta, sort_keys=True),
        "payload": payload,
    }


def _cascade_id(blob: bytes | memoryview) -> str:
    """Readable codec cascade, e.g. 'column[strs[delta,lz]]' — recorded in
    manifests so per-partition metrics show the selector's choices."""
    name, meta, payload = unpack_blob(blob)
    try:
        if name == "column":
            if meta.get("nl"):
                nlen, pos = read_uvarint(payload, 0)
                payload = payload[pos + nlen :]
            return f"column[{_cascade_id(payload)}]"
        if name in ("strs", "sdict"):
            alen, pos = read_uvarint(payload, 0)
            a = _cascade_id(payload[pos : pos + alen])
            b = _cascade_id(payload[pos + alen :])
            return f"{name}[{a},{b}]"
        if name == "plist":
            olen, pos = read_uvarint(payload, 0)
            a = _cascade_id(payload[pos : pos + olen])
            b = _cascade_id(payload[pos + olen :])
            return f"plist[{a},{b}]"
    except Exception:
        pass
    return name


def decode_block(
    payload: bytes | memoryview, columns: list[str] | None = None
) -> pa.Table:
    """Inverse of :func:`encode_block` — bit-identical table slice
    (including original row order when the block was cluster-sorted).

    ``columns``: decode ONLY these columns. Every column is an
    independently framed blob, so non-requested blobs are SKIPPED without
    decoding (length-prefixed framing — a seek, not a decode). This is the
    per-column engine's analogue of parquet column pruning; the
    reference's single compressed stream cannot skip anything
    (`/root/reference/src/ext/_ppmdmodule.c:396-615` decodes the whole
    stream regardless of what the caller needs)."""
    mv = memoryview(payload)
    ncols, pos = read_uvarint(mv, 0)
    cols: dict[str, pa.Array] = {}
    wanted = None if columns is None else set(columns)
    perm = None
    for _ in range(ncols):
        nlen, pos = read_uvarint(mv, pos)
        name = bytes(mv[pos : pos + nlen]).decode()
        pos += nlen
        blen, pos = read_uvarint(mv, pos)
        if name == PERM_ENTRY:
            # always decoded: restores original row order for any subset
            perm = np.asarray(decode_blob(mv[pos : pos + blen]), dtype=np.int64)
        elif wanted is None or name in wanted:
            cols[name] = decode_blob(mv[pos : pos + blen])
        pos += blen
    if wanted is not None:
        missing = wanted - cols.keys()
        if missing:
            raise KeyError(f"columns not in block: {sorted(missing)}")
        tbl = pa.table({c: cols[c] for c in columns})
    else:
        tbl = pa.table(cols)
    if perm is not None:
        tbl = tbl.take(pa.array(perm))
    return tbl


def split_by_bytes(tbl: pa.Table, target_bytes: int) -> list[pa.Table]:
    """Split a table into row-contiguous slices of ~target_bytes each
    (heavy-tail skew taming: byte-budget blocks, SURVEY.md §7.4)."""
    n = tbl.num_rows
    if n == 0:
        return []
    sizes = np.zeros(n, dtype=np.int64)
    for name in tbl.column_names:
        col = tbl[name]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        t = col.type
        if pa.types.is_string(t) or pa.types.is_large_string(t) or pa.types.is_binary(t) or pa.types.is_large_binary(t):
            import pyarrow.compute as pc

            is_bin = pa.types.is_binary(t) or pa.types.is_large_binary(t)
            filled = pc.fill_null(col, b"" if is_bin else "")
            sizes += np.asarray(pc.binary_length(filled), dtype=np.int64) + 8
        else:
            sizes += 8
    cum = np.cumsum(sizes)
    total = int(cum[-1])
    if total <= target_bytes:
        return [tbl]
    n_blocks = -(-total // target_bytes)
    bounds = np.searchsorted(cum, np.arange(1, n_blocks) * (total / n_blocks))
    bounds = np.unique(np.clip(bounds + 1, 1, n - 1))
    starts = np.concatenate(([0], bounds))
    ends = np.concatenate((bounds, [n]))
    return [tbl.slice(int(s), int(e - s)) for s, e in zip(starts, ends) if e > s]
