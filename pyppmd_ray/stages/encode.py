"""The engine's one encode kernel and one decode kernel.

:func:`encode_batches` and :func:`decode_batches` are stateless across
batches (every block is planned and framed on its own), so every pipeline
shape in ``pipelines/compress.py`` runs them as plain Ray tasks —
``map_batches(encode_batches, fn_kwargs=...)`` — or calls them inside a
task. Stateless stages are tasks: they reuse Ray's warm worker processes
with no per-pipeline actor spin-up (measured: a 30-actor pool costs
~4-6 s of import/startup per pipeline, several × the actual encode
compute at bench scale). Trained state (a pinned plan, shared FSST
tables) rides in ``fn_kwargs``, which Ray Data puts in the object store
once per operator and hands to every task by reference.
"""

from __future__ import annotations

import pyarrow as pa

from .blocks import BLOCK_SCHEMA, decode_block, encode_block, split_by_bytes

DEFAULT_BLOCK_BYTES = 16 << 20


def _payload_views(col) -> list[memoryview]:
    """Zero-copy views into a (large_)binary column's value buffer —
    ``scalar.as_py()`` would copy every multi-hundred-KB payload before
    decode; these views read the Arrow buffer in place."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    t = col.type
    if not (pa.types.is_large_binary(t) or pa.types.is_binary(t)):
        return [memoryview(col[i].as_py()) for i in range(len(col))]
    import numpy as np

    bufs = col.buffers()
    dt = np.int64 if pa.types.is_large_binary(t) else np.int32
    off = np.frombuffer(bufs[1], dtype=dt)[col.offset : col.offset + len(col) + 1]
    mv = memoryview(bufs[2])
    return [mv[off[i] : off[i + 1]] for i in range(len(col))]


def encode_batches(
    batch: pa.Table,
    *,
    target_block_bytes: int = DEFAULT_BLOCK_BYTES,
    hints: dict | None = None,
    columns: list[str] | None = None,
) -> pa.Table:
    """Stateless per-batch encode: split by byte budget, plan once per
    batch (deterministic), encode each sub-block. Use with
    ``map_batches(encode_batches, fn_kwargs={...})``."""
    if columns:
        batch = batch.select(columns)
    subs = split_by_bytes(batch, target_block_bytes)
    if not subs:
        return BLOCK_SCHEMA.empty_table()
    if hints is None:
        from ..codecs.select import plan_table

        hints = plan_table(subs[0])
    rows = [encode_block(sub, hints=hints) for sub in subs]
    return pa.Table.from_pylist(rows, schema=BLOCK_SCHEMA)


def decode_batches(
    batch: pa.Table,
    *,
    on_error: str = "raise",
    quarantine_dir: str | None = None,
    columns: list[str] | None = None,
):
    """Stateless decode: yields one decoded table per block so downstream
    stages stream block-by-block instead of waiting on a concat.

    ``columns``: project the decode — skip non-requested per-column blobs
    entirely (see :func:`..stages.blocks.decode_block`).

    ``on_error="quarantine"``: a corrupt block doesn't poison the job —
    it is skipped, and its payload + error are written to
    ``quarantine_dir`` keyed by block_id for offline inspection (the
    engine's poison-row policy; the reference's analogue is a hard
    ``PpmdError`` mid-stream, `/root/reference/src/pyppmd/c/c_ppmd.py:
    21-23`, which kills the whole decode)."""
    from ..codecs.base import CodecError

    payloads = _payload_views(batch["payload"])
    for i in range(batch.num_rows):
        payload = payloads[i]
        try:
            yield decode_block(payload, columns=columns)
        except (
            CodecError,
            ValueError,
            KeyError,
            IndexError,
            OverflowError,  # bit-flipped uvarints overflow C-long paths
            TypeError,      # corrupt JSON meta with wrong field types
            MemoryError,    # bogus lengths demanding absurd allocations
        ) as e:
            if on_error != "quarantine":
                raise
            bid = (
                batch["block_id"][i].as_py()
                if "block_id" in batch.column_names
                else f"unknown-{i}"
            )
            if quarantine_dir:
                import os

                os.makedirs(quarantine_dir, exist_ok=True)
                tmp = os.path.join(quarantine_dir, f".{bid}.tmp-{os.getpid()}")
                with open(tmp, "wb") as f:
                    f.write(payload or b"")
                os.replace(tmp, os.path.join(quarantine_dir, f"{bid}.bin"))
                with open(os.path.join(quarantine_dir, f"{bid}.error.txt"), "w") as f:
                    f.write(f"{type(e).__name__}: {e}\n")
