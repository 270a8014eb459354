"""Embedding-column utilities for training-data pipelines.

Vectorized map_batches stages over the ``embeddings`` table shape
(vec_id, embedding list<float>, ...). Arithmetic is arranged to be
bit-reproducible in DuckDB (float64 ops in identical order; ``floor(x +
0.5)`` instead of round(), whose half-tie behavior differs between
numpy's banker's rounding and SQL round-half-away)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def embedding_matrix(col: pa.Array | pa.ChunkedArray, dtype=np.float64) -> np.ndarray:
    """list<float> column → (n, d) ndarray WITHOUT boxing through Python
    objects (``to_pylist`` costs ~10× on n×64 floats): ``pc.list_flatten``
    + ``to_numpy`` reads the Arrow value buffer directly. Raises on ragged
    or null rows (embeddings are fixed-dim by contract)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    if n == 0:
        return np.zeros((0, 0), dtype=dtype)
    if col.null_count:
        raise ValueError("embedding column contains nulls")
    lens = pc.list_value_length(col)
    d = lens[0].as_py()
    mm = pc.min_max(lens)
    if mm["min"].as_py() != d or mm["max"].as_py() != d:
        raise ValueError("ragged embedding column (rows differ in length)")
    flat = pc.list_flatten(col).to_numpy(zero_copy_only=False)
    return flat.astype(dtype, copy=False).reshape(n, d)


def int64_column(col: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """Integer column → int64 ndarray via the Arrow buffer (no pylist).
    Raises on nulls — a silent NaN→INT64_MIN conversion would feed bogus
    ids into ANN results / centroid seeds."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if col.null_count:
        raise ValueError("id column contains nulls")
    return col.to_numpy(zero_copy_only=False).astype(np.int64, copy=False)


class EmbeddingQuantizer:
    """Symmetric int8-style quantization per vector: amax = max(|x|),
    q_i = floor(x_i * 127 / amax + 0.5) ∈ [-127, 127] (0-vector → zeros).
    Returns (vec_id, amax, qvec) — amax is the dequantization scale."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["vec_id"]
        m = embedding_matrix(batch["embedding"])
        amax = np.abs(m).max(axis=1)
        scale = np.where(amax > 0, 127.0 / np.where(amax > 0, amax, 1.0), 0.0)
        q = np.floor(m * scale[:, None] + 0.5).astype(np.int64)
        return pa.table(
            {
                "vec_id": ids,
                "amax": pa.array(amax, type=pa.float64()),
                "qvec": pa.array(q.tolist(), type=pa.list_(pa.int64())),
            }
        )
