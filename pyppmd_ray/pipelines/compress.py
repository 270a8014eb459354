"""Encode / decode / verify pipelines — the engine's flagship dataflow.

Every shape below runs the same two stateless kernels,
:func:`~..stages.encode.encode_batches` and
:func:`~..stages.encode.decode_batches`, as plain Ray tasks — no stage
holds state across batches, so none needs an actor. Trained state (the
dataset plan, shared FSST tables) reaches every task through
``fn_kwargs``, which Ray Data puts in the object store once per operator.

1. **Streaming** (`encode_dataset` / `decode_dataset` /
   `encode_dataset_shared`): pure Ray Data —
   ``read_parquet → map_batches(encode_batches) → encoded Dataset`` and
   the inverse. Lazy, streams with backpressure, no driver
   materialization. Used by benchmarks and as a composable stage.

2. **Resumable job** (`run_encode_job` / `run_decode_to_parquet` /
   `run_verify_job`): the production path of the north rule —
   deterministic *units* (input parquet fragments) fan out as one task
   each; each unit writes ``blocks/unit-<id>.parquet`` +
   ``_manifests/unit-<id>.json`` atomically; a rerun skips completed
   units (checkpoint-resume with per-partition lineage + metrics). Scale
   shape: unit granularity = parquet row-group → at 10^12 files the unit
   list is the only driver-side state, and it is itself streamed via
   ray.data.

``concurrency`` everywhere is Ray's task cap for a function: an int
bounds the number of concurrent tasks; ``None`` lets Ray decide.

The correctness contract is the reference's round-trip equality
(`/root/reference/tests/test_ppmd7.py:56-92`): decode reproduces every
content byte bit-identically, verified per row via sha256.
"""

from __future__ import annotations

import hashlib
import json
import os
import time

import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq

import ray.data as rd

from ..stages.blocks import canonical_column_bytes, split_by_bytes
from ..stages.encode import DEFAULT_BLOCK_BYTES, decode_batches, encode_batches
from ..state.manifest import (
    completed_units,
    unit_blocks_path,
    unit_manifest_path,
    write_unit_manifest,
)

# ------------------------------------------------------------- streaming


def plan_sample_table(
    sample: pa.Table, target_block_bytes: int = DEFAULT_BLOCK_BYTES
) -> tuple[dict | None, int | None]:
    """(hints, batch_rows) from an already-materialized sample table —
    the single planning kernel shared by :func:`plan_dataset_hints` and
    any deterministic external sampler (bench.py reads its sample with
    pyarrow directly)."""
    from ..codecs.select import plan_table
    from ..stages.blocks import table_uncompressed_bytes

    if sample.num_rows == 0:
        return None, None
    avg_row = max(1, table_uncompressed_bytes(sample) // sample.num_rows)
    batch_rows = int(min(1 << 16, max(256, target_block_bytes // avg_row)))
    sub = split_by_bytes(sample, 2 << 20)
    return (plan_table(sub[0]) if sub else None), batch_rows


def plan_dataset_hints(
    ds: rd.Dataset,
    columns: list[str] | None = None,
    sample_rows: int = 1024,
    target_block_bytes: int = DEFAULT_BLOCK_BYTES,
) -> tuple[dict | None, int | None]:
    """Run the sampling codec selector ONCE on a leading sample; returns
    (hints, batch_rows). Per-batch planning costs more than the encode
    itself on ~1 MB batches (the selector runs trial encodes); one plan per
    dataset amortizes it to zero. ``batch_rows`` converts the byte budget
    into a row-count batch size (Ray batches are row-counted) so each task
    gets ~one target block instead of whatever the read produced. For
    heterogeneous inputs use ``plan="block"`` (per-batch planning) or
    run_encode_job (per-unit).

    Determinism note: Ray's streaming ``limit()`` may sample different
    rows at different cluster sizes, so the chosen plan can vary across
    RUNS (within one job the plan is computed once and broadcast —
    retries stay consistent). For a run-reproducible plan, sample the
    input yourself (e.g. pyarrow read of the first fragment) and call
    :func:`plan_sample_table`, as bench.py does."""
    try:
        sample = ds.limit(sample_rows).take_batch(sample_rows, batch_format="pyarrow")
    except Exception:
        return None, None
    if columns:
        sample = sample.select(columns)
    return plan_sample_table(sample, target_block_bytes)


def encode_dataset(
    ds: rd.Dataset,
    *,
    target_block_bytes: int = DEFAULT_BLOCK_BYTES,
    hints: dict | None = None,
    columns: list[str] | None = None,
    concurrency=None,
    plan: str = "dataset",
    batch_rows: int | None = None,
    partition_by: tuple[str, ...] | list[str] | None = None,
) -> rd.Dataset:
    """ds → Dataset of encoded block rows (BLOCK_SCHEMA). Streaming.

    Runs :func:`encode_batches` as plain tasks: the per-block codecs are
    stateless across batches, so tasks reuse Ray's warm workers (an actor
    pool would cost ~4-6 s of per-pipeline spin-up — several × the encode
    compute at small scale). ``concurrency``: at most this many tasks at
    once (``None``: Ray decides).

    ``plan``: "dataset" (default) samples the dataset once and broadcasts
    the selector's hints to every task; "block" re-plans per batch
    (heterogeneous inputs).

    ``batch_rows``: rows per task batch; derived from the sample when
    planning (≈ one target block per task — bigger tasks amortize parse
    tables and scheduling).

    ``partition_by``: the north rule's lang-aware global repartition —
    an explicit ``ds.sort(keys)`` (all-to-all range shuffle) so same-key
    rows land in the same blocks and shared dictionaries/windows see
    denser redundancy. The per-block cluster sort already handles
    intra-block locality; this pays the shuffle for CROSS-block locality
    (~2% ratio on the mixed-lang documents table, more when languages
    genuinely diverge). Skew note: the sort's range partitioner splits
    hot keys across blocks, so one giant language cannot pin a single
    task."""
    from ..codecs.select import validate_hints

    validate_hints(hints)
    if hints is None and plan == "dataset":
        # plan BEFORE the partition sort — hints don't depend on row
        # order, and sampling the sorted dataset would execute the
        # all-to-all sort once just to read 1024 rows (then again for
        # the real encode)
        hints, sampled_rows = plan_dataset_hints(
            ds, columns, target_block_bytes=target_block_bytes
        )
        batch_rows = batch_rows or sampled_rows
    if partition_by:
        ds = ds.sort(list(partition_by))
    return ds.map_batches(
        encode_batches,
        fn_kwargs={
            "target_block_bytes": target_block_bytes,
            "hints": hints,
            "columns": columns,
        },
        batch_format="pyarrow",
        batch_size=batch_rows,  # ~one target block per task; split inside
        concurrency=concurrency,
    )


def decode_dataset(
    encoded: rd.Dataset,
    *,
    concurrency=None,
    on_error: str = "raise",
    quarantine_dir: str | None = None,
    columns: list[str] | None = None,
) -> rd.Dataset:
    """Encoded block rows → decoded tables (streams block-by-block).

    ``columns``: decode ONLY these columns — per-column framing means
    non-requested blobs are skipped entirely (the engine's analogue of
    parquet column pruning; the reference's single-stream format must
    always decode everything, `/root/reference/src/ext/_ppmdmodule.c:
    396-615`). Decode cost scales with SELECTED bytes, not total bytes.
    """
    if on_error == "quarantine" and not quarantine_dir:
        # a None dir would silently drop corrupt blocks with no record
        # anywhere — rows would vanish from the output without a trace
        raise ValueError(
            "on_error='quarantine' requires quarantine_dir (otherwise "
            "corrupt blocks would be dropped without any record)"
        )
    return encoded.map_batches(
        decode_batches,
        fn_kwargs={
            "on_error": on_error,
            "quarantine_dir": quarantine_dir,
            "columns": columns,
        },
        batch_format="pyarrow",
        batch_size=None,
        concurrency=concurrency,
    )


# ----------------------------------------------- shared trained state


def train_shared_state(
    ds: rd.Dataset,
    columns: list[str] | None = None,
    sample_rows: int = 4096,
    target_block_bytes: int = DEFAULT_BLOCK_BYTES,
) -> dict:
    """Train partition-shared codec state from ONE sample pass: the
    selector's plan (:func:`plan_sample_table`) plus, for every column it
    routed to FSST, a shared symbol table trained on the sample. Returns
    ``{"hints", "batch_rows"}``; passed as ``fn_kwargs`` it travels to the
    workers as one object-store copy per operator — the engine analogue of
    the reference's per-stream trained model, which refuses pickling and
    must be built inside each worker
    (`/root/reference/src/ext/_ppmdmodule.c:617-634`)."""
    import pyarrow.compute as pc

    from ..codecs.fsst import train_table
    from ..codecs.strings import strcol_from_arrow

    sample = ds.limit(sample_rows).take_batch(sample_rows, batch_format="pyarrow")
    if columns:
        sample = sample.select(columns)
    hints, batch_rows = plan_sample_table(sample, target_block_bytes)
    hints = hints or {}
    for name, h in hints.items():
        if h.get("data_codec") != "fsst":
            continue
        col = sample[name]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        t = col.type
        if not (
            pa.types.is_string(t) or pa.types.is_large_string(t)
            or pa.types.is_binary(t) or pa.types.is_large_binary(t)
        ):
            continue
        is_bin = pa.types.is_binary(t) or pa.types.is_large_binary(t)
        if col.null_count:
            col = pc.fill_null(col, b"" if is_bin else "")
        _, data = strcol_from_arrow(col)
        if len(data) >= 256:
            h["fsst_table"] = train_table(data[: 1 << 20])
    return {"hints": hints, "batch_rows": batch_rows}


def encode_dataset_shared(
    ds: rd.Dataset,
    *,
    target_block_bytes: int = DEFAULT_BLOCK_BYTES,
    columns: list[str] | None = None,
    concurrency=None,
) -> rd.Dataset:
    """Encode with partition-shared trained state: train once on a sample
    (:func:`train_shared_state`), then :func:`encode_dataset` with those
    hints. Use when the corpus is homogeneous enough that one symbol table
    serves all blocks (skips per-block FSST training). Blobs still embed
    their tables, so decode stays a stateless pass."""
    state = train_shared_state(ds, columns, target_block_bytes=target_block_bytes)
    return encode_dataset(
        ds,
        target_block_bytes=target_block_bytes,
        hints=state["hints"],
        columns=columns,
        concurrency=concurrency,
        batch_rows=state["batch_rows"],
    )


# ---------------------------------------------------------- resumable job


def plan_units(
    input_path: str | list[str],
    columns: list[str] | None = None,
    *,
    unit_bytes: int = 32 << 20,
) -> list[dict]:
    """Deterministic unit list: parquet row-group fragments COALESCED into
    units of ~``unit_bytes`` (uncompressed estimate).

    Tiny files/row-groups would otherwise become tiny encode blocks and
    destroy the ratio (the per-row degenerate mode the reference measures
    at 1.11×, BASELINE.md); at the other end one unit never exceeds a few
    row-groups beyond the budget, keeping tasks balanced. The member list
    is sorted and content-addresses the unit id, so the plan (and resume
    ledger) is stable across runs."""
    dataset = pads.dataset(input_path, format="parquet")
    frags: list[tuple[str, int, int]] = []  # (path, row_group, est_bytes)
    for frag in dataset.get_fragments():
        if frag.row_groups:
            for rg in frag.row_groups:
                est = int(rg.total_byte_size) if rg.total_byte_size else 1 << 20
                frags.append((frag.path, int(rg.id), est))
        else:
            frags.append((frag.path, -1, 1 << 20))
    frags.sort(key=lambda f: (f[0], f[1]))
    units: list[dict] = []
    members: list[tuple[str, int]] = []
    acc = 0
    def flush():
        nonlocal members, acc
        if not members:
            return
        key = ";".join(f"{p}::{rg}" for p, rg in members)
        uid = hashlib.sha1(key.encode()).hexdigest()[:16]
        units.append({"unit_id": uid, "members": list(members), "columns": columns})
        members = []
        acc = 0
    for path, rg, est in frags:
        members.append((path, rg))
        acc += est
        if acc >= unit_bytes:
            flush()
    flush()
    return units




def _unit_members(unit: dict) -> list:
    m = unit.get("members")
    if isinstance(m, str):
        m = json.loads(m)
    return [list(x) for x in m]


def read_unit_table(unit: dict) -> pa.Table:
    """Read one coalesced unit (list of (path, row_group) members)."""
    cols = unit.get("columns")
    if isinstance(cols, str):
        cols = json.loads(cols) if cols else None
    tables = []
    for path, rg in _unit_members(unit):
        pf = pq.ParquetFile(path)
        t = pf.read_row_group(int(rg), columns=cols) if int(rg) >= 0 else pf.read(columns=cols)
        tables.append(t)
    return pa.concat_tables(tables) if len(tables) > 1 else tables[0]


def _encode_units(
    batch: pa.Table, *, out_dir: str, target_block_bytes: int, hints: dict | None
) -> pa.Table:
    """Task: encode each unit of ``batch`` with ONE :func:`encode_batches`
    call (so one deterministic plan per unit) → atomic blocks parquet +
    manifest; returns the per-unit stats rows."""
    return pa.Table.from_pylist(
        [_encode_unit(u, out_dir, target_block_bytes, hints) for u in batch.to_pylist()]
    )


def _encode_unit(unit: dict, out_dir: str, target_block_bytes: int, hints: dict | None) -> dict:
    t0 = time.monotonic()
    uid = unit["unit_id"]
    tbl = read_unit_table(unit)
    blocks = encode_batches(tbl, target_block_bytes=target_block_bytes, hints=hints)
    bpath = unit_blocks_path(out_dir, uid)
    tmp = bpath + f".tmp-{os.getpid()}"
    pq.write_table(blocks, tmp, compression="none")
    os.replace(tmp, bpath)
    unc = sum(blocks["uncompressed_bytes"].to_pylist())
    enc = sum(blocks["encoded_bytes"].to_pylist())
    record = {
        "status": "done",
        "unit_id": uid,
        "members": _unit_members(unit),
        "n_rows": int(tbl.num_rows),
        "n_blocks": blocks.num_rows,
        "bytes_in": unc,
        "bytes_out": enc,
        "ratio": (unc / enc) if enc else 0.0,
        "wall_s": time.monotonic() - t0,
        "block_ids": blocks["block_id"].to_pylist(),
        "columns": _manifest_columns(blocks["meta"].to_pylist()),
    }
    write_unit_manifest(out_dir, uid, record)
    return {k: record[k] for k in ("unit_id", "n_rows", "n_blocks", "bytes_in", "bytes_out", "wall_s")}


def _manifest_columns(metas: list[str]) -> dict:
    """Per-column manifest entry covering EVERY block of a unit: ``bytes``
    summed, ``codec`` the sorted distinct cascades; ``type`` and
    ``hints`` from block 0 (one plan serves the whole unit)."""
    cols = [json.loads(m)["columns"] for m in metas]
    return {
        name: {
            "type": first["type"],
            "hints": first["hints"],
            "bytes": sum(c[name]["bytes"] for c in cols),
            "codec": sorted({c[name]["codec"] for c in cols}),
        }
        for name, first in (cols[0].items() if cols else ())
    }


def _unit_items(units: list[dict]) -> list[dict]:
    """Unit dicts as flat rows for ``rd.from_items`` (members/columns as
    JSON strings, so every row has the same arrow schema)."""
    return [
        {"unit_id": u["unit_id"], "members": json.dumps(u["members"]),
         "columns": json.dumps(u["columns"]) if u["columns"] else ""}
        for u in units
    ]


def run_encode_job(
    input_path: str | list[str],
    out_dir: str,
    *,
    columns: list[str] | None = None,
    target_block_bytes: int = DEFAULT_BLOCK_BYTES,
    hints: dict | None = None,
    concurrency=None,
    resume: bool = True,
    unit_bytes: int = 32 << 20,
) -> dict:
    """Resumable distributed encode. Returns a summary dict.

    A ``_job.json`` records the plan parameters; resuming with DIFFERENT
    parameters (e.g. another unit_bytes) would re-plan to all-new unit ids
    — completed_units() would match nothing and the stale block files
    would duplicate every row on decode — so a mismatch raises instead."""
    from ..codecs.base import CodecError
    from ..codecs.select import validate_hints

    validate_hints(hints)
    os.makedirs(out_dir, exist_ok=True)
    job_params = {
        "unit_bytes": int(unit_bytes),
        "target_block_bytes": int(target_block_bytes),
        "columns": columns,
        "blob_version": 2,
    }
    job_path = os.path.join(out_dir, "_job.json")
    if os.path.exists(job_path):
        with open(job_path) as f:
            prev = json.load(f)
        if resume and prev != job_params:
            raise CodecError(
                f"out_dir {out_dir} was written with different job parameters "
                f"({prev} != {job_params}); resume would duplicate rows — "
                "use a fresh out_dir or pass resume=False after clearing it"
            )
    elif resume and (
        os.path.isdir(os.path.join(out_dir, "blocks"))
        or os.path.isdir(os.path.join(out_dir, "_manifests"))
    ):
        # blocks/manifests from a build that predates _job.json: its plan
        # parameters are unknown, so a resume could silently re-plan to
        # all-new unit ids and leave stale blocks that duplicate rows at
        # decode — treat exactly like a parameter mismatch
        raise CodecError(
            f"out_dir {out_dir} contains blocks/manifests but no _job.json "
            "(written before the parameter guard); resume cannot prove the "
            "plan matches — use a fresh out_dir or pass resume=False after "
            "clearing it"
        )
    tmp = job_path + f".tmp-{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(job_params, f)
    os.replace(tmp, job_path)
    units = plan_units(input_path, columns, unit_bytes=unit_bytes)
    done = completed_units(out_dir) if resume else set()
    todo = [u for u in units if u["unit_id"] not in done]
    summary = {
        "units_total": len(units),
        "units_skipped": len(units) - len(todo),
        "units_encoded": len(todo),
    }
    if todo:
        from ray.data.aggregate import Sum

        os.makedirs(os.path.join(out_dir, "blocks"), exist_ok=True)
        stats_ds = rd.from_items(_unit_items(todo)).map_batches(
            _encode_units,
            fn_kwargs={
                "out_dir": out_dir,
                "target_block_bytes": target_block_bytes,
                "hints": hints,
            },
            batch_size=1,
            batch_format="pyarrow",
            concurrency=concurrency,
        )
        # streamed reduce — at 10^7 units a driver-side to_pandas() would
        # hold the whole per-unit stats table; the aggregate keeps only
        # four counters on the driver
        agg = stats_ds.aggregate(
            Sum("bytes_in", alias_name="bytes_in"),
            Sum("bytes_out", alias_name="bytes_out"),
            Sum("n_rows", alias_name="n_rows"),
            Sum("n_blocks", alias_name="n_blocks"),
        )
        summary["bytes_in"] = int(agg["bytes_in"])
        summary["bytes_out"] = int(agg["bytes_out"])
        summary["n_rows"] = int(agg["n_rows"])
        summary["n_blocks"] = int(agg["n_blocks"])
        summary["ratio"] = summary["bytes_in"] / max(1, summary["bytes_out"])
    return summary


def read_encoded(out_dir: str) -> rd.Dataset:
    return rd.read_parquet(os.path.join(out_dir, "blocks"))


def run_decode_job(
    out_dir: str, *, concurrency=None, quarantine: bool = False,
    columns: list[str] | None = None,
) -> rd.Dataset:
    """Decode all blocks under ``out_dir``. ``quarantine=True``: corrupt
    blocks are skipped and parked under ``out_dir/_quarantine/`` instead
    of failing the job. ``columns``: decode only these columns (skips the
    other per-column blobs entirely)."""
    return decode_dataset(
        read_encoded(out_dir),
        concurrency=concurrency,
        on_error="quarantine" if quarantine else "raise",
        quarantine_dir=os.path.join(out_dir, "_quarantine") if quarantine else None,
        columns=columns,
    )


def _decode_units(
    batch: pa.Table, *, out_dir: str, dest: str, columns: list[str] | None
) -> pa.Table:
    """Task: decode each encode-unit's blocks file with
    :func:`decode_batches` → atomic parquet at ``dest``. The unit id is
    reused from the ENCODE manifests, so the decode ledger is simply
    "which unit-<id>.parquet files exist" — a rerun skips finished units
    (crash-resumable, like the encode job)."""
    results = []
    for uid in batch["unit_id"].to_pylist():
        t0 = time.monotonic()
        blocks = pq.read_table(unit_blocks_path(out_dir, uid))
        tables = list(decode_batches(blocks, columns=columns))
        tbl = pa.concat_tables(tables) if tables else pa.table({})
        fpath = os.path.join(dest, f"unit-{uid}.parquet")
        tmp = fpath + f".tmp-{os.getpid()}"
        pq.write_table(tbl, tmp)
        os.replace(tmp, fpath)
        results.append(
            {
                "unit_id": uid,
                "n_rows": int(tbl.num_rows),
                "n_blocks": int(blocks.num_rows),
                "wall_s": time.monotonic() - t0,
            }
        )
    return pa.Table.from_pylist(results)


def run_decode_to_parquet(
    out_dir: str,
    dest: str,
    *,
    columns: list[str] | None = None,
    concurrency=None,
    resume: bool = True,
) -> dict:
    """Resumable distributed decode: every completed ENCODE unit decodes
    to one atomic ``dest/unit-<id>.parquet``; a rerun skips units whose
    output file already exists. Returns a summary dict.

    This is the production decode shape (the streaming
    :func:`run_decode_job` has no ledger — a crash restarts the whole
    write). ``columns`` projects the decode per block."""
    from ray.data.aggregate import Sum

    from ..codecs.base import CodecError

    units = sorted(completed_units(out_dir))
    if not units:
        raise CodecError(
            f"no completed encode units under {out_dir} (missing "
            "_manifests/) — run run_encode_job first"
        )
    os.makedirs(dest, exist_ok=True)
    foreign = [
        f
        for f in os.listdir(dest)
        if f.endswith(".parquet") and not f.startswith("unit-")
    ]
    if foreign:
        # e.g. Ray part-*.parquet from a prior streaming decode: writing
        # unit files alongside would silently duplicate every row when
        # dest is later read as one parquet dataset
        raise CodecError(
            f"dest {dest} already holds non-unit parquet files "
            f"(e.g. {foreign[0]}) — refusing to mix output layouts; use a "
            "clean destination"
        )
    done = (
        {
            f[len("unit-") : -len(".parquet")]
            for f in os.listdir(dest)
            if f.startswith("unit-") and f.endswith(".parquet")
        }
        if resume
        else set()
    )
    todo = [u for u in units if u not in done]
    summary = {
        "units_total": len(units),
        "units_skipped": len(units) - len(todo),
        "units_decoded": len(todo),
    }
    if todo:
        stats_ds = rd.from_items([{"unit_id": u} for u in todo]).map_batches(
            _decode_units,
            fn_kwargs={"out_dir": out_dir, "dest": dest, "columns": columns},
            batch_size=1,
            batch_format="pyarrow",
            concurrency=concurrency,
        )
        agg = stats_ds.aggregate(
            Sum("n_rows", alias_name="n_rows"),
            Sum("n_blocks", alias_name="n_blocks"),
        )
        summary["n_rows"] = int(agg["n_rows"])
        summary["n_blocks"] = int(agg["n_blocks"])
    return summary


# ----------------------------------------------------------------- verify


def row_sha256(tbl: pa.Table, column: str = "content") -> list[str]:
    """Per-row sha256 of a string/binary column — the reference contract
    (`/root/reference/tests/test_ppmd7.py:76-92`: sha of decompressed ==
    sha of input)."""
    from ..codecs.strings import strcol_from_arrow
    import pyarrow.compute as pc

    col = tbl[column]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if col.null_count:
        is_bin = pa.types.is_binary(col.type) or pa.types.is_large_binary(col.type)
        col = pc.fill_null(col, b"" if is_bin else "")
    off, data = strcol_from_arrow(col)
    mv = memoryview(data)
    return [
        hashlib.sha256(mv[off[i] : off[i + 1]]).hexdigest() for i in range(len(off) - 1)
    ]


def _verify_units(batch: pa.Table, *, out_dir: str) -> pa.Table:
    """Task: decode each unit's blocks with :func:`decode_batches` and
    compare against the original input fragment — per-row sha256
    equality, per-column bit-identity. A unit that fails to read or
    decode becomes a loud FAIL row instead of failing the job."""
    results = []
    for unit in batch.to_pylist():
        try:
            results.append({**_verify_unit(unit, out_dir), "error": ""})
        except Exception as e:  # missing/corrupt block → loud FAIL row
            results.append(
                {
                    "unit_id": unit["unit_id"],
                    "rows_ok": False,
                    "column_mismatches": -1,
                    "row_sha_mismatches": -1,
                    "ok": False,
                    "error": f"{type(e).__name__}: {e}",
                }
            )
    return pa.Table.from_pylist(results)


def _verify_unit(unit: dict, out_dir: str) -> dict:
    uid = unit["unit_id"]
    orig = read_unit_table(unit)
    blocks = pq.read_table(unit_blocks_path(out_dir, uid))
    decoded = (
        pa.concat_tables(list(decode_batches(blocks)))
        if blocks.num_rows
        else orig.schema.empty_table()
    )
    ok_rows = decoded.num_rows == orig.num_rows
    mismatches = 0
    for name in orig.column_names:
        a = b"".join(canonical_column_bytes(orig[name]))
        b = b"".join(canonical_column_bytes(decoded[name])) if name in decoded.column_names else b""
        if hashlib.sha256(a).digest() != hashlib.sha256(b).digest():
            mismatches += 1
    # per-row contract on string columns
    row_mismatches = 0
    for name in orig.column_names:
        t = orig[name].type
        if pa.types.is_string(t) or pa.types.is_large_string(t):
            sa = row_sha256(orig, name)
            sb = row_sha256(decoded, name)
            row_mismatches += sum(1 for x, y in zip(sa, sb) if x != y)
            row_mismatches += abs(len(sa) - len(sb))
    return {
        "unit_id": uid,
        "rows_ok": bool(ok_rows),
        "column_mismatches": mismatches,
        "row_sha_mismatches": row_mismatches,
        "ok": bool(ok_rows and mismatches == 0 and row_mismatches == 0),
    }


# failing unit ids kept for the report — a bound, not the full list, so
# the driver-side state stays O(1) regardless of unit count
VERIFY_FAIL_SAMPLE = 32


def _failed_units_agg(limit: int = VERIFY_FAIL_SAMPLE):
    """Bounded in-cluster sample of failing unit ids: each accumulator
    holds at most ``limit`` ids, merges truncate, so no task or the
    driver ever sees more than ``limit`` strings."""
    import pyarrow.compute as pc
    from ray.data.aggregate import AggregateFn

    def acc_block(acc: list, block) -> list:
        if len(acc) >= limit:
            return acc
        tbl = block if isinstance(block, pa.Table) else pa.Table.from_pandas(block)
        bad = tbl.filter(pc.invert(tbl["ok"].combine_chunks()))
        return (acc + bad["unit_id"].to_pylist())[:limit]

    return AggregateFn(
        init=lambda k: [],
        merge=lambda a, b: (a + b)[:limit],
        accumulate_block=acc_block,
        name="failed_units",
    )


def run_verify_job(
    input_path: str | list[str], out_dir: str, *, columns: list[str] | None = None,
    concurrency=None, unit_bytes: int = 32 << 20,
) -> dict:
    units = plan_units(input_path, columns, unit_bytes=unit_bytes)
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    # one streamed aggregate — per-unit result rows never concentrate on
    # the driver (the encode job's own Sum-summary pattern, not to_pandas)
    agg = (
        rd.from_items(_unit_items(units))
        .map_batches(
            _verify_units,
            fn_kwargs={"out_dir": out_dir},
            batch_size=1,
            batch_format="pyarrow",
            concurrency=concurrency,
        )
        .map_batches(
            lambda t: t.append_column(
                "ok_int", pc.cast(t["ok"], pa.int64())
            ),
            batch_format="pyarrow",
        )
        .aggregate(
            Sum("ok_int", alias_name="ok_units"),
            Sum("column_mismatches", alias_name="column_mismatches"),
            Sum("row_sha_mismatches", alias_name="row_sha_mismatches"),
            _failed_units_agg(),
        )
    )
    n_units = len(units)
    ok_units = int(agg["ok_units"] or 0)
    return {
        "units": n_units,
        "ok": ok_units == n_units,
        "column_mismatches": int(agg["column_mismatches"] or 0),
        "row_sha_mismatches": int(agg["row_sha_mismatches"] or 0),
        "failed_units": sorted(agg["failed_units"] or []),
    }
