"""Benchmark inputs and the checks the benchmark makes on outputs.

Everything here is computed by the benchmark itself from the Arrow
values, never from the program's own accounting: input bytes, per-row
sha256 digests and bitwise float comparison.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa

BLOCK_BYTES = 4 << 20

# Row counts of the F1 input. "full" is what the benchmark measures;
# "small" is for the benchmark's own test.
SOURCE_ROWS = {"full": 2000, "small": 300}
# The F1 rows are generated once from this fixed seed; --seed permutes
# them. F1 is heavy-tailed (1% incompressible blobs, lognormal file
# sizes), so fresh 2000-row draws differ by up to 20% in ratio and
# encode speed; a permutation keeps the rows and changes which rows
# share a block.
SOURCE_CORPUS_SEED = 42
SHARD_ROWS = 1000  # rows per parquet file of the pipeline's input
# Leading slices of the sf0.1 test tables, kept in perfbench/data/ and
# written by ``python3 perfbench/inputs.py --sf-dir DIR``. Each slice has
# about as many rows as ``split_by_bytes`` keeps in one 4 MiB block
# (documents and embeddings are the whole tables). A run encodes one
# window of each slice, 9/10 of its rows, at an offset drawn from the seed.
DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
SLICE_ROWS = {"lineitem": 46000, "orders": 72000, "events": 66000, "documents": 5000, "embeddings": 2000}
WINDOW_SHARE = 0.9
SMALL_ROWS = {"lineitem": 3000, "orders": 3000, "events": 3000, "documents": 400, "embeddings": 200}
# the one column each table's projected decode reads
TABLE_PROJECTION = {
    "lineitem": "l_extendedprice",
    "orders": "o_orderpriority",
    "events": "ts",
    "documents": "text",
    "embeddings": "embedding",
}
SOURCE_PROJECTION = "path"


def source_table(seed: int, size: str = "full") -> pa.Table:
    """The F1 ``source_files`` table (repo, path, commit, lang, content),
    its rows in an order drawn from ``seed``."""
    from pyppmd_ray.fixtures import generate_source_table

    corpus = generate_source_table(SOURCE_ROWS[size], seed=SOURCE_CORPUS_SEED)
    order = np.random.default_rng(seed).permutation(corpus.num_rows)
    return corpus.take(pa.array(order))


def write_shards(table: pa.Table, path: str):
    """Sharded parquet in the layout of ``pyppmd_ray.fixtures.source_table_path``
    (``SHARD_ROWS`` rows per file, 1024-row row groups): one read task per file."""
    import pyarrow.parquet as pq

    os.makedirs(path, exist_ok=True)
    for s, start in enumerate(range(0, table.num_rows, SHARD_ROWS)):
        part = table.slice(start, SHARD_ROWS)
        pq.write_table(part, os.path.join(path, f"part-{s:05d}.parquet"), row_group_size=1024)


def sf_tables(seed: int, size: str = "full") -> dict[str, pa.Table]:
    """One window of each stored sf0.1 slice (``lineitem``, ``orders``,
    ``events``, ``documents``, ``embeddings``): 9/10 of the slice's rows
    from an offset drawn from ``seed`` ("small": the leading rows). Each
    fits one 4 MiB block, so every table is one batch that
    ``encode_batches`` plans on its own."""
    import pyarrow.parquet as pq

    rng = np.random.default_rng(seed)
    out: dict[str, pa.Table] = {}
    for name in SLICE_ROWS:
        tbl = pq.read_table(os.path.join(DATA_DIR, f"{name}.parquet"))
        if size == "small":
            out[name] = tbl.slice(0, SMALL_ROWS[name])
            continue
        rows = int(tbl.num_rows * WINDOW_SHARE)
        start = int(rng.integers(0, tbl.num_rows - rows + 1))
        out[name] = tbl.slice(start, rows).combine_chunks()
    return out


def write_slices(sf_dir: str):
    """Write the leading ``SLICE_ROWS`` rows of each sf0.1 table in
    ``sf_dir`` to ``DATA_DIR`` as zstd parquet, one row group each."""
    import pyarrow.parquet as pq

    os.makedirs(DATA_DIR, exist_ok=True)
    for name, rows in SLICE_ROWS.items():
        tbl = pq.read_table(os.path.join(sf_dir, f"{name}.parquet")).slice(0, rows)
        pq.write_table(tbl, os.path.join(DATA_DIR, f"{name}.parquet"),
                       compression="zstd", compression_level=9, row_group_size=rows)


def _flat(col) -> pa.Array:
    return col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col


def _offsets(arr: pa.Array) -> np.ndarray:
    """Offsets of a string or list array's slice, into its full value buffer."""
    large = pa.types.is_large_string(arr.type) or pa.types.is_large_list(arr.type)
    dt = np.int64 if large else np.int32
    return np.frombuffer(arr.buffers()[1], dtype=dt)[arr.offset : arr.offset + len(arr) + 1].astype(np.int64)


def _values(arr: pa.Array) -> pa.Array:
    """The value array of a list column, sliced to the list's extent."""
    off = _offsets(arr)
    return arr.values.slice(int(off[0]), int(off[-1] - off[0]))


def input_bytes(col) -> int:
    """User-data bytes of a column: string value bytes plus fixed-width
    values (list columns count their child values)."""
    arr = _flat(col)
    t = arr.type
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        off = _offsets(arr)
        return int(off[-1] - off[0])
    if pa.types.is_list(t) or pa.types.is_large_list(t):
        return input_bytes(_values(arr))
    return len(arr) * (t.bit_width // 8)


def table_bytes(tbl: pa.Table) -> int:
    return sum(input_bytes(tbl[c]) for c in tbl.column_names)


def _row_parts(arr: pa.Array) -> tuple[np.ndarray | None, list | None]:
    """(fixed-width byte matrix, None) or (None, per-row bytes list)."""
    t = arr.type
    n = len(arr)
    if pa.types.is_list(t) or pa.types.is_large_list(t) or pa.types.is_string(t) or pa.types.is_large_string(t):
        off = _offsets(arr)
        if pa.types.is_list(t) or pa.types.is_large_list(t):
            child = arr.values
            w = child.type.bit_width // 8
            data = memoryview(child.buffers()[1]).cast("B")[child.offset * w :]
            off = off * w
        else:
            data = memoryview(arr.buffers()[2]).cast("B")
        return None, [bytes(data[a:b]) for a, b in zip(off[:-1].tolist(), off[1:].tolist())]
    w = t.bit_width // 8
    buf = np.frombuffer(arr.buffers()[1], dtype=np.uint8)[arr.offset * w : (arr.offset + n) * w]
    return buf.reshape(n, w), None


def row_digests(tbl: pa.Table) -> list[bytes]:
    """Per-row sha256 over every column's value bytes (validity, then
    fixed-width values, then length-prefixed variable-width values)."""
    n = tbl.num_rows
    fixed, var = [], []
    validity = np.ones((n, tbl.num_columns), dtype=np.uint8)
    for j, name in enumerate(tbl.column_names):
        arr = _flat(tbl[name])
        if arr.null_count:
            validity[:, j] = np.asarray(arr.is_valid(), dtype=np.uint8)
        mat, rows = _row_parts(arr)
        if mat is not None:
            fixed.append(mat)
        else:
            var.append(rows)
    head = np.concatenate([validity] + fixed, axis=1) if n else validity
    w = head.shape[1]
    hb = head.tobytes()
    out = []
    for i in range(n):
        h = hashlib.sha256(hb[i * w : (i + 1) * w])
        for rows in var:
            v = rows[i]
            h.update(len(v).to_bytes(8, "little"))
            h.update(v)
        out.append(h.digest())
    return out


def _float_bits(arr: pa.Array) -> np.ndarray | None:
    t = arr.type
    if pa.types.is_list(t) or pa.types.is_large_list(t):
        return _float_bits(_values(arr))
    if pa.types.is_floating(t):
        w = t.bit_width // 8
        return np.frombuffer(arr.buffers()[1], dtype=np.uint8)[arr.offset * w : (arr.offset + len(arr)) * w]
    return None


def tables_equal(got: pa.Table, want: pa.Table) -> bool:
    """``pa.Table.equals`` plus a bitwise comparison of float values."""
    if got.num_rows != want.num_rows or not got.equals(want):
        return False
    for name in want.column_names:
        a, b = _float_bits(_flat(got[name])), _float_bits(_flat(want[name]))
        if a is not None and not np.array_equal(a, b):
            return False
    return True


def value_bytes(col) -> bytes:
    """A column's value bytes: string data or fixed-width values (list
    columns give their child values)."""
    arr = _flat(col)
    t = arr.type
    if pa.types.is_list(t) or pa.types.is_large_list(t):
        return value_bytes(_values(arr))
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        off = _offsets(arr)
        return arr.buffers()[2].to_pybytes()[off[0] : off[-1]]
    w = t.bit_width // 8
    return arr.buffers()[1].to_pybytes()[arr.offset * w : (arr.offset + len(arr)) * w]


def main():
    """Write every input of one seed as parquet: ``source.parquet`` (also
    the pipeline's input, before sharding) and one file per table. With
    ``--sf-dir``, first rewrite the stored slices from the sf0.1 tables."""
    import argparse

    import pyarrow.parquet as pq

    p = argparse.ArgumentParser(description=main.__doc__.split(":")[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", choices=("full", "small"), default="full")
    p.add_argument("--out", required=True)
    p.add_argument("--sf-dir", help="directory of the sf0.1 parquet tables; rewrites perfbench/data/")
    args = p.parse_args()
    if args.sf_dir:
        write_slices(args.sf_dir)
    os.makedirs(args.out, exist_ok=True)
    pq.write_table(source_table(args.seed, args.size), os.path.join(args.out, "source.parquet"))
    for name, tbl in sf_tables(args.seed, args.size).items():
        pq.write_table(tbl, os.path.join(args.out, f"{name}.parquet"))


if __name__ == "__main__":
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    main()
