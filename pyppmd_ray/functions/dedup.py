"""Deduplication operators for training-data pipelines, Ray-Data-first.

Scale shapes (documented per operator):
- exact: content-hash column added in map_batches (vectorized sha256),
  then ``groupby(hash).map_groups`` keeps the min-id row per group — the
  whole reduction runs in the cluster, no driver-side keep-set;
- MinHash+LSH: per-batch shingle→minhash signatures (numpy), explode to
  (band_id, band_key, doc_id, sig) rows, ``groupby(band key).map_groups``
  emits *verified* candidate pairs (signatures travel with the band rows,
  so verification happens inside the bucket group), then a tiny
  groupby(pair) dedupes across bands. All-to-all volume is
  O(docs × bands), never O(docs²), and nothing is materialized on the
  driver;
- SimHash: 64-bit hyperplane sketch per doc (token-hash cache per actor);
- embedding cosine: see functions/ann.py for the bucketed scale path;
  :func:`embedding_neardup_ds` distributes the exact check (broadcast
  normalized matrix via ray.put, per-batch matmul in workers).

Hash functions are deliberately SQL-reproducible (sha256 prefixes +
explicit modular arithmetic that never exceeds 2^64), so every operator
here has a DuckDB oracle in ``__ray_entry__.oracle_sql()``.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd

from pyppmd_ray.functions.hashing import sha256_hex

_M61 = (1 << 61) - 1

# token = maximal run of non-[ \t\n\r] — shared VERBATIM with the SQL oracle
# (regexp_extract_all(text, '[^ \t\n\r]+')) and with functions/text.py
TOKEN_RE = re.compile(r"[^ \t\n\r]+")


def _mod_m61(y: np.ndarray) -> np.ndarray:
    """y % (2^61 - 1) for u64 arrays via Mersenne folding (y ≡ (y>>61) +
    (y&M61)) — exact for all y < 2^64 and ~10× faster than hardware '%'.
    Two folds bring y into [0, M61]; one conditional subtract finishes."""
    m = np.uint64(_M61)
    s = np.uint64(61)
    r = (y >> s) + (y & m)
    r = (r >> s) + (r & m)
    return np.where(r >= m, r - m, r)


def _sha_prefix_u64(s: str, nbytes: int = 8) -> int:
    """First ``nbytes`` of sha256(utf8), big-endian — matches the oracle's
    ('0x' || substr(sha256(s), 1, 2*nbytes))::UBIGINT."""
    return int.from_bytes(hashlib.sha256(s.encode("utf-8")).digest()[:nbytes], "big")


def add_text_sha(batch: pa.Table, column: str = "text") -> pa.Table:
    return batch.append_column("text_sha", sha256_hex(batch[column]))


def dedup_exact(ds: rd.Dataset, id_col: str = "doc_id", text_col: str = "text") -> rd.Dataset:
    """Keep the min-id row per distinct text. Shuffle key = sha256(text)
    (hash-partitioned groupby; 64-hex strings shuffle, never full docs
    twice). Entirely in-cluster: groupby(hash).map_groups(min-id row)."""
    hashed = ds.map_batches(add_text_sha, batch_format="pyarrow")

    def keep_min(group: pa.Table) -> pa.Table:
        i = pc.index(group[id_col], pc.min(group[id_col]))
        return group.take([i.as_py()]).drop_columns(["text_sha"])

    return hashed.groupby("text_sha").map_groups(keep_min, batch_format="pyarrow")


# ------------------------------------------------------------- MinHash/LSH


def minhash_params(num_hashes: int = 128, seed: int = 42) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic (a, b) for the 128 hash functions — a < 2^31 so that
    a*x + b with x < 2^32 stays below 2^64 (exact in uint64 AND in the SQL
    oracle's UBIGINT — no wrap on either side)."""
    rng = np.random.default_rng(seed)
    a = rng.integers(1, 1 << 31, size=num_hashes, dtype=np.int64).astype(np.uint64)
    b = rng.integers(0, _M61, size=num_hashes, dtype=np.int64).astype(np.uint64)
    return a, b


class MinHasher:
    """Word-shingle MinHash signatures. Stateful: the (a,b) hash params
    are built once per actor. sig[i] = min over distinct shingles s of
    (a_i * h32(s) + b_i) mod M61, h32 = first 4 bytes of sha256."""

    _MAX_CACHE = 1 << 20

    def __init__(self, num_hashes: int = 128, shingle: int = 3, seed: int = 42):
        self.a, self.b = minhash_params(num_hashes, seed)
        self.num_hashes = num_hashes
        self.shingle = shingle
        # hot shingles hash once per actor (sha256 per distinct shingle is
        # the per-doc hot loop; real corpora repeat shingles heavily)
        self._cache: dict[bytes, int] = {}

    def _batch_shingle_hashes(
        self, texts: pa.Array
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized shingling for a whole batch of texts.

        Returns (hashes, counts): per-doc shingle counts and the flat
        u64 h32 values of every shingle window, doc-major. No per-token
        Python loop: Arrow's regex split (C kernel) tokenizes the batch,
        ``dictionary_encode`` maps tokens to ids, and shingle windows
        become k-column id slices; only DISTINCT (id-tuple) shingles
        reach sha256 (further amortized by the per-actor byte cache).
        Duplicate windows within a doc are fine — min() over the window
        multiset equals min() over the shingle SET, so the old per-doc
        set construction was never load-bearing for the signature."""
        from pyppmd_ray.functions.text import TOKEN_SPLIT_RE, TOKEN_STRIP_CHARS

        n = len(texts)
        counts = np.zeros(n, dtype=np.int64)
        if n == 0:
            return np.empty(0, dtype=np.uint64), counts
        trimmed = pc.utf8_trim(pc.fill_null(texts, ""), characters=TOKEN_STRIP_CHARS)
        nonempty = np.asarray(pc.not_equal(trimmed, ""))
        ne_idx = np.flatnonzero(nonempty)
        if ne_idx.size == 0:
            return np.empty(0, dtype=np.uint64), counts
        lists = pc.split_pattern_regex(
            trimmed.filter(pa.array(nonempty)), TOKEN_SPLIT_RE
        )
        if isinstance(lists, pa.ChunkedArray):
            lists = lists.combine_chunks()
        toks_per_doc = np.asarray(pc.list_value_length(lists), dtype=np.int64)
        flat = pc.list_flatten(lists)
        d = flat.dictionary_encode()
        codes = d.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        dict_bytes = [
            t.as_py().encode("utf-8") if isinstance(t.as_py(), str) else t.as_py()
            for t in d.dictionary
        ]
        k = self.shingle
        doc_starts = np.concatenate(([0], np.cumsum(toks_per_doc)))[:-1]
        n_win = np.where(toks_per_doc >= k, toks_per_doc - k + 1, 1)
        counts[ne_idx] = n_win

        # full windows (docs with >= k tokens), id matrix (S, k)
        full = toks_per_doc >= k
        hashes = np.empty(int(n_win.sum()), dtype=np.uint64)
        # output slot ranges, doc-major over nonempty docs
        out_starts = np.concatenate(([0], np.cumsum(n_win)))[:-1]
        if full.any():
            base = np.repeat(doc_starts[full], n_win[full]) + (
                np.arange(int(n_win[full].sum()))
                - np.repeat(np.concatenate(([0], np.cumsum(n_win[full])))[:-1], n_win[full])
            )
            cols = np.stack([codes[base + t] for t in range(k)], axis=1)
            D = max(int(codes.max()) + 1, 2)
            bits = max(int(D - 1).bit_length(), 1)
            if bits * k <= 63:  # pack the id tuple into one u64 key
                packed = np.zeros(cols.shape[0], dtype=np.uint64)
                for t in range(k):
                    packed = (packed << np.uint64(bits)) | cols[:, t].astype(np.uint64)
                uniq, inv = np.unique(packed, return_inverse=True)
                uniq_rows = np.stack(
                    [
                        (uniq >> np.uint64(bits * (k - 1 - t))).astype(np.int64)
                        & ((1 << bits) - 1)
                        for t in range(k)
                    ],
                    axis=1,
                )
            else:  # void-view unique for very wide id spaces
                rec = np.ascontiguousarray(cols).view(
                    [("", np.int64)] * k
                ).reshape(-1)
                uniq_v, inv = np.unique(rec, return_inverse=True)
                uniq_rows = uniq_v.view(np.int64).reshape(-1, k)
            h_dist = self._hash_id_rows(uniq_rows, dict_bytes)
            full_vals = h_dist[inv]
            # scatter window hashes into the doc-major output layout
            f_out = np.repeat(out_starts[full], n_win[full]) + (
                np.arange(full_vals.size)
                - np.repeat(np.concatenate(([0], np.cumsum(n_win[full])))[:-1], n_win[full])
            )
            hashes[f_out] = full_vals
        # short docs (< k tokens): one variable-length shingle each
        short_idx = np.flatnonzero(~full)
        for i in short_idx:
            s, c = int(doc_starts[i]), int(toks_per_doc[i])
            key = b" ".join(dict_bytes[j] for j in codes[s : s + c])
            hashes[int(out_starts[i])] = self._hash_bytes(key)
        return hashes, counts

    def _hash_bytes(self, key: bytes) -> int:
        v = self._cache.get(key)
        if v is None:
            v = int.from_bytes(hashlib.sha256(key).digest()[:4], "big")
            if len(self._cache) < self._MAX_CACHE:
                self._cache[key] = v
        return v

    def _hash_id_rows(self, rows: np.ndarray, dict_bytes: list[bytes]) -> np.ndarray:
        out = np.empty(rows.shape[0], dtype=np.uint64)
        hb = self._hash_bytes
        for i, row in enumerate(rows):
            out[i] = hb(b" ".join(dict_bytes[int(j)] for j in row))
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        """Batched signatures: Arrow-split tokens → id-window shingles →
        sha256 only per DISTINCT shingle, then one
        (num_hashes, total_windows) vectorized pass +
        ``np.minimum.reduceat`` per-doc segments. sig[i] is the min over
        the doc's distinct shingles, each the oracle-pinned shingle string
        hashed byte-for-byte; a doc without shingles (empty or
        whitespace-only) gets a null signature and takes part in no
        buckets, as in the SQL oracle, where it has no shingle rows."""
        texts = batch["text"].combine_chunks() if isinstance(
            batch["text"], pa.ChunkedArray
        ) else batch["text"]
        h, counts = self._batch_shingle_hashes(texts)
        sig_col: list = [None] * batch.num_rows
        nz = np.flatnonzero(counts)
        if nz.size:
            # permute only the DISTINCT h32 values (typically ~10x fewer
            # than windows), then gather back to window-major for the
            # per-doc min — arithmetic on U columns, memory-move on W
            u, inv = np.unique(h, return_inverse=True)
            vals_u = _mod_m61(u[None, :] * self.a[:, None] + self.b[:, None])
            vals = vals_u[:, inv]
            starts = np.concatenate(([0], np.cumsum(counts[nz])[:-1]))
            sigs = np.minimum.reduceat(vals, starts, axis=1)  # (num_hashes, n_nz)
            sigs = sigs.astype(np.int64).T
            for j, i in enumerate(nz):
                sig_col[int(i)] = sigs[j].tolist()
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "sig": pa.array(sig_col, type=pa.list_(pa.int64())),
            }
        )


def minhash_bands(batch: pa.Table, bands: int = 16, rows: int = 8) -> pa.Table:
    """Explode signatures → (band_id, band_key, doc_id, sig_bin) rows.

    band_key is the comma-joined slice itself (SQL-reproducible:
    array_to_string(sig[b*rows+1 : (b+1)*rows], ',')) — no extra hash
    layer; the groupby key is a short string either way. Signatures ride
    along PACKED as little-endian u64 binary so bucket groups can verify
    pairs without a second join (a list<int64> column costs ~2× in the
    all-to-all shuffle)."""
    empty = pa.table(
        {
            "band_id": pa.array([], type=pa.int32()),
            "band_key": pa.array([], type=pa.string()),
            "doc_id": pa.array([], type=pa.int64()),
            "sig_bin": pa.array([], type=pa.large_binary()),
        }
    )
    if batch.num_rows == 0:
        return empty
    sig_col = batch["sig"].combine_chunks() if isinstance(
        batch["sig"], pa.ChunkedArray
    ) else batch["sig"]
    valid = pc.is_valid(sig_col)
    if not pc.any(valid).as_py():
        return empty
    sigs = sig_col.filter(valid)
    ids = batch["doc_id"].combine_chunks().filter(valid)
    lens = np.asarray(pc.list_value_length(sigs), dtype=np.int64)
    L = int(lens[0])
    if (lens != L).any():
        raise ValueError("ragged signature lengths in batch")
    if bands * rows > L:
        # out-of-range slices would give every doc band_key '' in the
        # excess bands — one giant bucket, O(n²) verification
        raise ValueError(
            f"bands*rows ({bands}*{rows}) exceeds signature length {L}"
        )
    n = len(sigs)
    flat = pc.list_flatten(sigs)  # (n*L,) int64, doc-major
    # band_key: per (doc, band), the comma-joined 'rows' slice — all in
    # Arrow C kernels: int→string cast, re-list as (n*bands) rows-sized
    # lists, binary_join. SQL-identical to
    # array_to_string(sig[b*rows+1:(b+1)*rows], ',').
    flat_str = pc.cast(flat, pa.string())
    if L == bands * rows:
        use = flat_str
    else:  # drop each doc's unused signature tail before re-listing
        keep_idx = (
            np.arange(n, dtype=np.int64)[:, None] * L
            + np.arange(bands * rows, dtype=np.int64)[None, :]
        ).reshape(-1)
        use = pc.take(flat_str, pa.array(keep_idx))
    offsets = pa.array(
        np.arange(n * bands + 1, dtype=np.int32) * rows, type=pa.int32()
    )
    if isinstance(use, pa.ChunkedArray):
        use = use.combine_chunks()
    keys = pc.binary_join(pa.ListArray.from_arrays(offsets, use), ",")
    # packed per-doc signature bytes, one slice per doc, repeated per band
    data = (
        pc.list_flatten(sigs)
        .to_numpy(zero_copy_only=False)
        .astype("<i8")
        .tobytes()
    )
    doc_offsets = (np.arange(n + 1, dtype=np.int64) * (8 * L)).astype(np.int64)
    sig_bin = pa.Array.from_buffers(
        pa.large_binary(),
        n,
        [None, pa.py_buffer(doc_offsets.tobytes()), pa.py_buffer(data)],
    )
    rep = np.repeat(np.arange(n, dtype=np.int64), bands)
    return pa.table(
        {
            "band_id": pa.array(
                np.tile(np.arange(bands, dtype=np.int32), n), type=pa.int32()
            ),
            "band_key": keys,
            "doc_id": pc.take(ids, pa.array(rep)),
            "sig_bin": pc.take(sig_bin, pa.array(rep)),
        }
    )


_PAIR_SCHEMA = pa.schema(
    [
        ("doc_id_a", pa.int64()),
        ("doc_id_b", pa.int64()),
        ("jaccard_est", pa.float64()),
    ]
)


# all-pairs verification is exact up to this bucket size; above it a
# degenerate bucket (thousands of near-identical template docs landing on
# one band_key) switches to sorted-neighborhood sub-banding so one bucket
# costs O(n·window·k), never O(n²)
BUCKET_CAP = 2048
BUCKET_WINDOW = 64


def band_bucket_pairs(
    group: pa.Table,
    threshold: float,
    bucket_cap: int = BUCKET_CAP,
    window: int = BUCKET_WINDOW,
) -> pa.Table:
    """One (band_id, band_key) bucket → verified pairs. jaccard_est =
    fraction of agreeing signature positions (exact k/num_hashes — no
    rounding, so the SQL oracle reproduces it bit-for-bit).

    Buckets up to ``bucket_cap`` docs get exact all-pairs verification.
    A larger (degenerate) bucket is sub-banded: docs are sorted by their
    full signature and each doc is compared only to its next ``window``
    neighbors, so per-bucket work is O(n·window·k) with O(n·window)
    output. Near-identical docs have near-identical signatures and land
    adjacent in the sort, so cluster connectivity survives; the emitted
    jaccard_est is still the exact agreeing-position fraction — only the
    candidate set is pruned (LSH banding is itself a pruned candidate
    set, so this changes recall only inside pathological buckets)."""
    n = group.num_rows
    if n < 2:
        return _PAIR_SCHEMA.empty_table()
    ids = np.asarray(group["doc_id"].to_pylist(), dtype=np.int64)
    sigs = np.stack(
        [np.frombuffer(b, dtype="<i8") for b in group["sig_bin"].to_pylist()]
    )
    out_a, out_b, out_j = [], [], []
    if n <= bucket_cap:
        order = np.argsort(ids)
        ids, sigs = ids[order], sigs[order]
        for i in range(n - 1):
            est = (sigs[i + 1 :] == sigs[i]).mean(axis=1)
            keep = np.flatnonzero(est >= threshold)
            for j in keep:
                out_a.append(int(ids[i]))
                out_b.append(int(ids[i + 1 + j]))
                out_j.append(float(est[j]))
    else:
        order = np.lexsort(sigs.T[::-1])  # lexicographic by signature
        ids, sigs = ids[order], sigs[order]
        for w in range(1, min(window, n - 1) + 1):
            est = (sigs[w:] == sigs[:-w]).mean(axis=1)
            keep = np.flatnonzero(est >= threshold)
            if keep.size == 0:
                continue
            a = ids[keep]
            b = ids[keep + w]
            lo = np.minimum(a, b)
            hi = np.maximum(a, b)
            out_a.extend(lo.tolist())
            out_b.extend(hi.tolist())
            out_j.extend(est[keep].tolist())
    return pa.table(
        {
            "doc_id_a": pa.array(out_a, type=pa.int64()),
            "doc_id_b": pa.array(out_b, type=pa.int64()),
            "jaccard_est": pa.array(out_j, type=pa.float64()),
        }
    )


def minhash_lsh_pairs(
    ds: rd.Dataset, *, num_hashes: int = 128, bands: int = 16, rows: int = 8,
    shingle: int = 3, threshold: float = 0.5, concurrency=None,
    bucket_cap: int = BUCKET_CAP, bucket_window: int = BUCKET_WINDOW,
) -> rd.Dataset:
    """Full MinHash-LSH near-dup pipeline → Dataset(doc_id_a, doc_id_b,
    jaccard_est), entirely in-cluster.

    Dataflow: map_batches(MinHasher actor pool) → band explode (sig rides
    along) → groupby(band_id, band_key).map_groups(verify pairs) →
    groupby(pair).max dedupe across bands. All-to-all volume is
    O(docs × bands); the driver only sees the final (tiny) pair set."""
    from ray.data.aggregate import Max

    if bands * rows > num_hashes:
        raise ValueError(
            f"bands*rows ({bands}*{rows}={bands * rows}) must be <= "
            f"num_hashes ({num_hashes}) — excess bands would share an empty "
            "band_key and collapse the corpus into one O(n²) bucket"
        )
    if concurrency:
        sigs = ds.map_batches(
            MinHasher,
            fn_constructor_kwargs={"num_hashes": num_hashes, "shingle": shingle},
            batch_format="pyarrow",
            concurrency=concurrency,
        )
    else:
        # instance = task mode: reuses Ray's warm workers, no pool spin-up
        # (the hasher state is just the 128 (a,b) constants)
        sigs = ds.map_batches(
            MinHasher(num_hashes=num_hashes, shingle=shingle), batch_format="pyarrow"
        )
    band_rows = sigs.map_batches(
        lambda b: minhash_bands(b, bands=bands, rows=rows), batch_format="pyarrow"
    )
    pairs = band_rows.groupby(["band_id", "band_key"]).map_groups(
        lambda g: band_bucket_pairs(g, threshold, bucket_cap, bucket_window),
        batch_format="pyarrow",
    )
    # the same pair found in several bands carries the same jaccard_est;
    # Max is just "pick the one value"
    out = pairs.groupby(["doc_id_a", "doc_id_b"]).aggregate(
        Max("jaccard_est", alias_name="jaccard_est")
    )

    def typed(batch: pa.Table) -> pa.Table:
        # a clean corpus (zero pairs) would otherwise yield schema-less
        # zero-column blocks, and downstream joins (hash_join,
        # connected_components) need a typed schema even when empty
        if batch.num_columns == 0:
            return _PAIR_SCHEMA.empty_table()
        return batch

    # the union contributes one typed EMPTY block: when the corpus has no
    # pairs the aggregate may emit zero blocks (schema None), and the
    # map_batches above never runs — the extra block pins the schema
    return out.map_batches(typed, batch_format="pyarrow").union(
        rd.from_arrow(_PAIR_SCHEMA.empty_table())
    )


def winnow_duplicate_fingerprints(
    ds: rd.Dataset, k: int = 8, window: int = 16
) -> rd.Dataset:
    """Cross-document duplicate-SPAN index (the MOSS / exact-substring
    dedup shape, Schleimer et al. 2003; Lee et al. 2022 §4): winnowing
    fingerprints — minima of rolling k-gram hashes per window — that
    appear in MORE THAN ONE document → Dataset(fp, n_docs). Any shared
    span of ≥ k+window−1 bytes is guaranteed to share a fingerprint, so
    the output is the candidate index for substring-level dedup.

    Fully vectorized per batch: one rolling-hash pass over the batch's
    concatenated UTF-8 bytes (shifted-slice Horner accumulation, u64
    wraparound — byte-identical to :class:`WinnowFingerprinter`), a
    single ``sliding_window_view`` min for the fixed-window docs plus a
    ``minimum.reduceat`` for docs shorter than the window, and a
    lexsort dedup for per-doc distinct fingerprints. Shuffle volume is
    the fingerprint stream (≈ bytes/window per doc — the standard
    winnowing index density), pre-deduped per document; then ONE
    ``groupby(fp).count`` and a ≥2 filter. Fingerprints are masked to
    63 bits (int64-safe) BEFORE the distinct, matching the SQL oracle.
    """
    from ray.data.aggregate import Count

    if k < 1 or window < 1:
        raise ValueError(f"k and window must be >= 1 (got {k}, {window})")
    prime = np.uint64(0x100000001B3)
    mask = np.uint64(0x7FFFFFFFFFFFFFFF)

    def partials(batch: pa.Table) -> pa.Table:
        empty = pa.table({"fp": pa.array([], type=pa.int64())})
        col = batch["text"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        b = pc.cast(pc.fill_null(col, ""), pa.large_binary())
        off = np.frombuffer(
            b.buffers()[1], dtype=np.int64, count=len(b) + 1, offset=b.offset * 8
        )
        data = np.frombuffer(b.buffers()[2], dtype=np.uint8)
        n_bytes = int(off[-1]) - int(off[0])
        if n_bytes < k:
            return empty
        a = data[int(off[0]) : int(off[-1])]
        off0 = off - off[0]
        lens = np.diff(off0)
        n_rows = lens.size
        # rolling k-gram hashes over the flat stream (Horner, u64 wrap)
        npos = a.size - k + 1
        g = np.zeros(npos, dtype=np.uint64)
        for j in range(k):
            g = g * prime + a[j : j + npos].astype(np.uint64)
        # gram valid iff its k bytes lie inside one document
        byte_doc = np.repeat(np.arange(n_rows, dtype=np.int64), lens)
        valid = byte_doc[:npos] == byte_doc[k - 1 :]
        g2 = g[valid]
        gdoc = byte_doc[:npos][valid]
        if g2.size == 0:
            return empty
        m = np.maximum(lens - k + 1, 0)  # grams per doc
        fps_doc = []
        fps_val = []
        # fixed-window docs: one global sliding min, windows kept only
        # when fully inside a document (gram segments are contiguous)
        if g2.size >= window:
            from numpy.lib.stride_tricks import sliding_window_view

            wmin = sliding_window_view(g2, window).min(axis=1)
            nw = wmin.size
            wok = gdoc[:nw] == gdoc[window - 1 :]
            fps_val.append(wmin[wok])
            fps_doc.append(gdoc[:nw][wok])
        # short docs (0 < grams < window): fingerprint = min of all grams.
        # reduceat over the starts of ALL nonzero-gram docs — their
        # segments tile g2 exactly, so each reduction stops at the next
        # doc's start (start-indices of only the short docs would bleed
        # into neighbouring documents)
        nzdocs = np.flatnonzero(m > 0)
        if nzdocs.size:
            gstart = np.concatenate(([0], np.cumsum(m)[:-1]))
            dmin = np.minimum.reduceat(g2, gstart[nzdocs])
            is_short = m[nzdocs] < window
            if is_short.any():
                fps_val.append(dmin[is_short])
                fps_doc.append(nzdocs[is_short].astype(np.int64))
        if not fps_val:
            return empty
        fv = (np.concatenate(fps_val) & mask).astype(np.int64)
        fd = np.concatenate(fps_doc)
        # per-doc distinct fingerprints (masked), one lexsort
        order = np.lexsort((fv, fd))
        fv, fd = fv[order], fd[order]
        keep = np.r_[True, (fv[1:] != fv[:-1]) | (fd[1:] != fd[:-1])]
        return pa.table({"fp": pa.array(fv[keep], type=pa.int64())})

    counts = (
        ds.select_columns(["text"])
        .map_batches(partials, batch_format="pyarrow")
        .groupby("fp")
        .aggregate(Count(alias_name="n_docs"))
    )
    return counts.filter(expr="n_docs >= 2")


# ---------------------------------------------------------------- SimHash


class SimHasher:
    """63-bit SimHash over distinct word features (Charikar 2002).
    Word hash = first 8 bytes of sha256 (big-endian); bit j of the sketch
    is sign(sum over words of ±1 by bit j of the word hash), j in 0..62.
    Per-actor word→u64-hash cache (hot words hash once per worker).

    Batched: the whole batch's word hashes expand to one (total, 63)
    ±1 matrix, per-doc sums via ``np.add.reduceat`` — one numpy dispatch
    per batch instead of one per word."""

    _MAX_CACHE = 1 << 20

    def __init__(self):
        self._cache: dict[str, int] = {}
        self._shifts = np.arange(63, dtype=np.uint64)

    def _hash_word(self, w: str) -> int:
        v = self._cache.get(w)
        if v is None:
            v = _sha_prefix_u64(w, 8)
            if len(self._cache) < self._MAX_CACHE:
                self._cache[w] = v
        return v

    def __call__(self, batch: pa.Table) -> pa.Table:
        """Vectorized: Arrow regex split tokenizes the batch, per-doc
        DISTINCT tokens come from one np.unique over (doc, token-id)
        pairs (distinctness is load-bearing here — duplicate tokens
        would double-weight the ±1 sums), and sha256 runs once per
        distinct dictionary entry (plus the per-actor cache)."""
        from pyppmd_ray.functions.text import TOKEN_SPLIT_RE, TOKEN_STRIP_CHARS

        n_rows = batch.num_rows
        col = batch["text"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        counts = np.zeros(n_rows, dtype=np.int64)
        flat_h = np.empty(0, dtype=np.uint64)
        trimmed = pc.utf8_trim(pc.fill_null(col, ""), characters=TOKEN_STRIP_CHARS)
        nonempty = np.asarray(pc.not_equal(trimmed, ""))
        ne_idx = np.flatnonzero(nonempty)
        if ne_idx.size:
            lists = pc.split_pattern_regex(
                trimmed.filter(pa.array(nonempty)), TOKEN_SPLIT_RE
            )
            if isinstance(lists, pa.ChunkedArray):
                lists = lists.combine_chunks()
            flat = pc.list_flatten(lists)
            d = flat.dictionary_encode()
            codes = d.indices.to_numpy(zero_copy_only=False).astype(np.int64)
            V = max(len(d.dictionary), 1)
            doc_idx = np.repeat(
                np.arange(len(lists), dtype=np.int64),
                np.asarray(pc.list_value_length(lists), dtype=np.int64),
            )
            upair = np.unique(doc_idx * np.int64(V) + codes)
            updoc = upair // np.int64(V)
            ucode = upair % np.int64(V)
            hw = self._hash_word
            dict_hash = np.fromiter(
                (hw(d.dictionary[int(i)].as_py()) for i in range(len(d.dictionary))),
                dtype=np.uint64,
                count=len(d.dictionary),
            )
            flat_h = dict_hash[ucode]
            counts[ne_idx] = np.bincount(updoc, minlength=ne_idx.size)
        out = np.zeros(n_rows, dtype=np.int64)
        nz = np.flatnonzero(counts)
        if nz.size:
            h = flat_h
            bits = ((h[:, None] >> self._shifts[None, :]) & np.uint64(1)).astype(bool)
            pm = np.where(bits, np.int32(1), np.int32(-1))  # (total, 63)
            starts = np.concatenate(([0], np.cumsum(counts[nz])[:-1]))
            acc = np.add.reduceat(pm, starts, axis=0)  # (n_nz, 63)
            weights = (np.uint64(1) << self._shifts).astype(np.uint64)
            vals = ((acc > 0).astype(np.uint64) * weights[None, :]).sum(axis=1)
            out[nz] = vals.astype(np.int64)
        return pa.table(
            {"doc_id": batch["doc_id"], "simhash": pa.array(out, type=pa.int64())}
        )


def ngram_jaccard(a: str, b: str, n: int = 3) -> float:
    """Exact word n-gram Jaccard (the verify step after LSH candidates)."""
    def grams(t: str) -> set[str]:
        toks = TOKEN_RE.findall(t)
        if len(toks) < n:
            return {" ".join(toks)} if toks else set()
        return {" ".join(toks[i : i + n]) for i in range(len(toks) - n + 1)}

    ga, gb = grams(a), grams(b)
    if not ga and not gb:
        return 1.0
    inter = len(ga & gb)
    return inter / (len(ga) + len(gb) - inter)


# ------------------------------------------------------ embedding near-dup


def embedding_neardup_pairs(tbl: pa.Table, threshold: float = 0.9) -> pa.Table:
    """(vec_id_a, vec_id_b) with cosine > threshold, a < b — single-process
    brute-force float64 matmul. Small-scale oracle cross-check; the
    distributed paths are :func:`embedding_neardup_ds` (exact) and
    :func:`embedding_neardup_lsh` (bucketed, the 100 TB shape)."""
    from .embeddings import embedding_matrix, int64_column

    ids = int64_column(tbl["vec_id"])
    m = embedding_matrix(tbl["embedding"])
    norms = np.linalg.norm(m, axis=1)
    norms[norms == 0] = 1.0
    mn = m / norms[:, None]
    cos = mn @ mn.T
    ia, ib = np.where(np.triu(cos > threshold, k=1))
    order = np.lexsort((ids[ib], ids[ia]))
    return pa.table(
        {
            "vec_id_a": pa.array(ids[ia][order], type=pa.int64()),
            "vec_id_b": pa.array(ids[ib][order], type=pa.int64()),
        }
    )


from .broadcast import LazyBroadcast as _LazyBC


class _NeardupScorer(_LazyBC):
    """Holds a ref to the broadcast normalized corpus matrix; fetched
    lazily once per worker (:class:`..broadcast.LazyBroadcast`)."""

    def __init__(self, ref, threshold: float):
        super().__init__(ref)
        self.threshold = threshold

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .embeddings import embedding_matrix, int64_column

        ids, mn = self.state
        bids = int64_column(batch["vec_id"])
        m = embedding_matrix(batch["embedding"])
        norms = np.linalg.norm(m, axis=1)
        norms[norms == 0] = 1.0
        cos = (m / norms[:, None]) @ mn.T  # (batch, corpus)
        ia, ib = np.where(cos > self.threshold)
        a_ids, b_ids = bids[ia], ids[ib]
        keep = a_ids < b_ids  # each unordered pair emitted exactly once
        return pa.table(
            {
                "vec_id_a": pa.array(a_ids[keep], type=pa.int64()),
                "vec_id_b": pa.array(b_ids[keep], type=pa.int64()),
            }
        )


@ray.remote
def _assemble_normalized(*tables: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    """Worker-side assembly of the broadcast (ids, normalized matrix) —
    the whole corpus never lands on the driver; the result goes straight
    into the object store as this task's return value."""
    from .embeddings import embedding_matrix, int64_column

    typed = [t for t in tables if t.num_columns > 0]
    tbl = pa.concat_tables([t for t in typed if t.num_rows > 0] or typed[:1])
    ids = int64_column(tbl["vec_id"])
    m = embedding_matrix(tbl["embedding"])
    norms = np.linalg.norm(m, axis=1)
    norms[norms == 0] = 1.0
    return ids, m / norms[:, None]


def embedding_neardup_ds(
    ds: rd.Dataset, threshold: float = 0.9, concurrency=None
) -> rd.Dataset:
    """Distributed exact near-dup: the normalized corpus matrix is
    assembled IN A WORKER (``to_arrow_refs`` → one remote task concats and
    normalizes; the driver touches only ObjectRefs) and broadcast once via
    the object store; each batch does one matmul against it in a worker.
    O(n²) compute spread over the pool, O(n·d) broadcast memory per node —
    exact up to ~10^6 vectors; beyond that use
    :func:`embedding_neardup_lsh`."""
    proj = ds.select_columns(["vec_id", "embedding"])
    block_refs = proj.to_arrow_refs()
    ref = _assemble_normalized.remote(*block_refs)
    if concurrency:
        return ds.map_batches(
            _NeardupScorer,
            fn_constructor_kwargs={"ref": ref, "threshold": threshold},
            batch_format="pyarrow",
            concurrency=concurrency,
        )
    return ds.map_batches(_NeardupScorer(ref, threshold), batch_format="pyarrow")


def embedding_neardup_lsh(
    ds: rd.Dataset, threshold: float = 0.9, n_bits: int = 6, seed: int = 42,
    concurrency=None,
) -> rd.Dataset:
    """Bucketed near-dup — the 100 TB shape: random-hyperplane LSH bucket
    per vector (map_batches), then intra-bucket exact cosine pairs via
    groupby(bucket).map_groups. Recall < 1 by design (pairs split across
    buckets are missed); bucket id is the partition key at scale."""
    from .ann import LshBucketer

    first = ds.take_batch(1, batch_format="pyarrow")
    dim = len(first["embedding"][0])
    if concurrency:
        bucketed = ds.map_batches(
            LshBucketer,
            fn_constructor_kwargs={"dim": dim, "n_bits": n_bits, "seed": seed},
            batch_format="pyarrow",
            concurrency=concurrency,
        )
    else:
        bucketed = ds.map_batches(
            LshBucketer(dim=dim, n_bits=n_bits, seed=seed), batch_format="pyarrow"
        )

    def bucket_pairs(group: pa.Table) -> pa.Table:
        pairs = embedding_neardup_pairs(group, threshold=threshold)
        return pairs

    return bucketed.groupby("bucket").map_groups(bucket_pairs, batch_format="pyarrow")
