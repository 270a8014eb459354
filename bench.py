"""Benchmark harness — prints ONE JSON line (driver contract).

Headline pipelines over $GRAFT_SF_DIR (default /root/testdata/sf0.1) plus
the north-rule source_files fixture (generated, cached in /tmp):

- encode_source / decode_source: the flagship per-column compression
  round-trip over the (repo, path, commit, lang, content) table;
- encode_source_fast: selector pinned to the lightweight cascade
  (dict/delta/rANS — the >>7 MB/s/core path);
- encode_documents: sf documents table;
- dedup_minhash, ann_topk, lineitem_agg: training-data ops.

`--scaling`: runs the core pipelines in fresh processes at num_cpus=2, 8
and 32 on identical (4x) input; the N→4N criterion pair is 2→8 (below
this VM's memory-bandwidth ceiling) with 8→32 reported alongside — the
sandbox protocol for the north rule's two-cluster criterion (BASELINE.md
has the Ray-free control measurements).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

REPO = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, REPO)

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS") or os.cpu_count() or 1)
BENCH_ROWS = int(os.environ.get("GRAFT_BENCH_ROWS", "120000"))
BLOCK_BYTES = 4 << 20
# pinned read fan-out for the source fixture: Ray otherwise derives read
# parallelism from the CPU count, giving DIFFERENT input-bundle (and thus
# encode-block) structure per scaling level — more partial batches → more
# small blocks → worse ratio AND slower encode at higher cpu counts, which
# poisons cross-level efficiency comparisons (observed: ratio 13.35 at 2
# cpus vs 12.22 at 8 on identical input). 64 bundles ≈ 20 MB each at the
# 480k-row scaling fixture — enough tasks for every level tested.
SRC_BLOCKS = int(os.environ.get("GRAFT_BENCH_BLOCKS", "64"))
# repetitions for the timed core stages (min is reported): single runs on
# this shared sandbox vary ±30-40% — the r3 committed fast-path number
# regressed 1.78x purely from a noisy single run, so min-of-2 is now the
# default for the committed bench as well as the scaling protocol
BENCH_REPS = int(os.environ.get("GRAFT_BENCH_REPS", "2"))


def _timed(fn, reps: int = None):
    """Run fn() `reps` times; return (best wall seconds, last result)."""
    reps = reps or BENCH_REPS
    best, result = float("inf"), None
    for _ in range(reps):
        t0 = time.monotonic()
        result = fn()
        dt = time.monotonic() - t0
        if dt < best:
            best = dt
    return best, result


def _run_bench() -> dict:
    os.environ.setdefault("PYTHONPATH", REPO)
    os.chdir(REPO)
    import ray

    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    import logging

    logging.getLogger("ray.data").setLevel(logging.ERROR)

    from pyppmd_ray.fixtures import source_table_path
    from pyppmd_ray.pipelines import decode_dataset, encode_dataset, row_sha256
    from pyppmd_ray.pipelines.compress import plan_sample_table

    src_path = source_table_path(BENCH_ROWS, seed=42)
    # warm page cache (measure compute, not first disk read)
    import pyarrow.dataset as pads

    pads.dataset(src_path, format="parquet").to_table()

    queries: dict[str, float] = {}
    extra: dict[str, object] = {"source_rows": BENCH_ROWS}

    # warm Ray's worker processes (imports happen once per worker; the
    # task-based stages then run on hot workers, like a long-lived job)
    rd.read_parquet(src_path, override_num_blocks=SRC_BLOCKS).limit(512).map_batches(
        lambda b: b, batch_format="pyarrow"
    ).materialize()

    # ---- flagship: encode source_files (auto selector, lz-heavy) ----
    # the dataset-level plan is a once-per-dataset cost (amortized to zero
    # at scale) — timed separately so the encode number is steady-state
    t0 = time.monotonic()
    # plan from a DIRECT pyarrow read of the leading rows — Ray's
    # streaming limit() can sample different rows under different
    # parallelism (observed: one scaling level occasionally picked a
    # different codec plan, ratio 13.85 vs 12.74, wrecking comparability)
    first_file = sorted(
        f.path for f in pads.dataset(src_path, format="parquet").get_fragments()
    )[0]
    sample = pq.ParquetFile(first_file).read_row_group(0).slice(0, 1024)
    auto_hints, batch_rows = plan_sample_table(sample, BLOCK_BYTES)
    extra["plan_s"] = round(time.monotonic() - t0, 3)
    t_enc, enc = _timed(
        lambda: encode_dataset(
            rd.read_parquet(src_path, override_num_blocks=SRC_BLOCKS),
            target_block_bytes=BLOCK_BYTES,
            hints=auto_hints,
            batch_rows=batch_rows,
        ).materialize()
    )
    stats = enc.to_pandas()
    bytes_in = int(stats["uncompressed_bytes"].sum())
    bytes_out = int(stats["encoded_bytes"].sum())
    queries["encode_source"] = round(t_enc, 3)
    extra["encode_source_MBps"] = round(bytes_in / 1e6 / t_enc, 1)
    extra["source_ratio"] = round(bytes_in / bytes_out, 3)
    extra["source_bytes_in"] = bytes_in

    # ---- decode + spot sha verify ----
    t_dec, n_rows = _timed(lambda: decode_dataset(enc).count())
    queries["decode_source"] = round(t_dec, 3)
    extra["decode_source_MBps"] = round(bytes_in / 1e6 / t_dec, 1)
    assert n_rows == BENCH_ROWS, f"decode rows {n_rows} != {BENCH_ROWS}"

    if not os.environ.get("GRAFT_BENCH_CORE"):
        # ---- column-projection decode: only (path) is decoded; cost must
        # track SELECTED bytes, not total bytes (content dominates) ----
        t0 = time.monotonic()
        n_rows_p = decode_dataset(enc, columns=["path"]).count()
        t_proj = time.monotonic() - t0
        queries["decode_source_projected"] = round(t_proj, 3)
        assert n_rows_p == BENCH_ROWS
        extra["decode_projected_speedup"] = round(t_dec / t_proj, 2)

    # ---- lightweight path: selector pinned to rans0 (speed headline) ----
    hints = {
        "content": {"layout": "strs", "data_codec": "rans0"},
        "path": {"layout": "strs", "data_codec": "rans0"},
        "repo": {"layout": "sdict", "data_codec": "raw"},
        "lang": {"layout": "sdict", "data_codec": "raw"},
        "commit": {"layout": "sdict", "data_codec": "raw"},
    }
    t_fast, enc_fast = _timed(
        lambda: encode_dataset(
            rd.read_parquet(src_path, override_num_blocks=SRC_BLOCKS),
            target_block_bytes=BLOCK_BYTES,
            hints=hints,
            batch_rows=batch_rows,
        ).materialize()
    )
    stats_f = enc_fast.to_pandas()
    queries["encode_source_fast"] = round(t_fast, 3)
    extra["encode_fast_MBps"] = round(bytes_in / 1e6 / t_fast, 1)
    extra["fast_ratio"] = round(
        int(stats_f["uncompressed_bytes"].sum()) / int(stats_f["encoded_bytes"].sum()), 3
    )

    if os.environ.get("GRAFT_BENCH_CORE"):
        # scaling-protocol runs: only the core encode/decode pipelines
        ray.shutdown()
        total = round(sum(queries.values()), 3)
        return {
            "metric": "pyppmd_ray bench (core pipelines)",
            "value": total,
            "unit": "sec",
            "queries": queries,
            "sf": SF_DIR,
            "num_cpus": NUM_CPUS,
            "extra": extra,
        }

    # ---- documents table from the sf dir (min-of-2 like the core
    # stages: sub-second queries on this sandbox vary ±30%) ----
    t_docs, enc_docs = _timed(
        lambda: encode_dataset(
            rd.read_parquet(os.path.join(SF_DIR, "documents.parquet")),
            target_block_bytes=BLOCK_BYTES,
        ).materialize()
    )
    queries["encode_documents"] = round(t_docs, 3)
    sd = enc_docs.to_pandas()
    extra["documents_ratio"] = round(
        int(sd["uncompressed_bytes"].sum()) / int(sd["encoded_bytes"].sum()), 3
    )

    # ---- training-data ops (all min-of-2) ----
    from pyppmd_ray.functions.dedup import minhash_lsh_pairs

    t_mh, n_pairs = _timed(
        lambda: minhash_lsh_pairs(
            # the sf documents table is ONE parquet fragment; without a
            # block override the signature stage runs on a single worker
            # (production inputs have thousands of fragments) — 16 blocks
            # exercises the stage the way the 100-TB layout would
            rd.read_parquet(
                os.path.join(SF_DIR, "documents.parquet"), override_num_blocks=16
            ),
            threshold=0.3,
        ).count()  # lazy Dataset — count() drives the whole LSH pipeline
    )
    queries["dedup_minhash"] = round(t_mh, 3)
    extra["minhash_pairs"] = int(n_pairs)

    from pyppmd_ray.functions.ann import _seed_centroid_table, brute_force_topk
    from pyppmd_ray.functions.embeddings import embedding_matrix

    emb_ds = rd.read_parquet(os.path.join(SF_DIR, "embeddings.parquet"))
    qv = embedding_matrix(_seed_centroid_table(emb_ds, 16)["embedding"])
    t_ann, _ = _timed(lambda: brute_force_topk(emb_ds, qv, k=10))
    queries["ann_topk"] = round(t_ann, 3)

    from ray.data.aggregate import Count, Sum

    t_agg, _ = _timed(
        lambda: (
            rd.read_parquet(
                os.path.join(SF_DIR, "lineitem.parquet"),
                columns=["l_returnflag", "l_linestatus", "l_quantity"],
            )
            .groupby(["l_returnflag", "l_linestatus"])
            .aggregate(Count(alias_name="n"), Sum("l_quantity", alias_name="sum_qty"))
            .to_pandas()
        )
    )
    queries["lineitem_agg"] = round(t_agg, 3)

    ray.shutdown()
    total = round(sum(queries.values()), 3)
    return {
        "metric": "pyppmd_ray bench: encode/decode + training-data ops wall time",
        "value": total,
        "unit": "sec",
        "queries": queries,
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "extra": extra,
    }


def _run_scaling() -> dict:
    """Three parallelism levels (2, 8, 32 cpus), same input, fresh
    processes. The N→4N criterion pair is 2→8 (both sides below this VM's
    memory-bandwidth ceiling — a Ray-free multiprocessing control of the
    same kernels measures the machine itself at ~0.57 eff for 8→30 procs
    and ~0.91 for 2→8; see BASELINE.md); 8→32 is reported alongside to
    show the single-node saturation curve. On a real N vs 4N NODE cluster,
    per-node bandwidth scales with nodes, so 2→8 is the faithful proxy.

    4x the default input: at 32 cpus the 120k-row job lasts ~4 s and the
    ~1 s fixed pipeline latency would masquerade as lost efficiency."""
    scale_rows = os.environ.get("GRAFT_SCALING_ROWS", str(max(BENCH_ROWS, 480000)))

    def run(ncpu: int) -> dict:
        env = dict(
            os.environ,
            RAY_GRAFT_CPUS=str(ncpu),
            GRAFT_BENCH_ROWS=scale_rows,
            GRAFT_BENCH_CORE="1",
            GRAFT_BENCH_REPS=os.environ.get("GRAFT_BENCH_REPS", "2"),
            PYTHONPATH=REPO,
        )
        out = subprocess.run(
            [sys.executable, os.path.join(REPO, "bench.py")],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            cwd=REPO,
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    levels = [int(x) for x in os.environ.get("GRAFT_SCALING_LEVELS", "2,8,32").split(",")]
    runs = {n: run(n) for n in levels}

    def eff(lo_n, hi_n, stage_keys):
        t_lo = sum(runs[lo_n]["queries"][k] for k in stage_keys)
        t_hi = sum(runs[hi_n]["queries"][k] for k in stage_keys)
        return t_lo, t_hi, round((t_lo * lo_n) / (t_hi * hi_n), 3)

    bytes_in = runs[levels[0]]["extra"]["source_bytes_in"]
    lo_n, mid_n, hi_n = levels[0], levels[1], levels[-1]
    t2, t8, e_enc = eff(lo_n, mid_n, ["encode_source"])
    _, _, e_dec = eff(lo_n, mid_n, ["decode_source"])
    _, _, e_fast = eff(lo_n, mid_n, ["encode_source_fast"])
    t8b, t32, e_enc_sat = eff(mid_n, hi_n, ["encode_source"])
    _, _, e_dec_sat = eff(mid_n, hi_n, ["decode_source"])
    _, _, e_fast_sat = eff(mid_n, hi_n, ["encode_source_fast"])
    return {
        "metric": f"scaling efficiency (flagship encode), num_cpus {lo_n} -> {mid_n} (N -> 4N)",
        "value": e_enc,
        "unit": "efficiency",
        "levels": levels,
        "throughput_MBps": {
            str(n): round(bytes_in / 1e6 / runs[n]["queries"]["encode_source"], 1)
            for n in levels
        },
        "efficiency_encode_N_4N": e_enc,
        "efficiency_decode_N_4N": e_dec,
        "efficiency_fast_path_N_4N": e_fast,
        "efficiency_encode_8_32": e_enc_sat,
        "efficiency_decode_8_32": e_dec_sat,
        "efficiency_fast_path_8_32": e_fast_sat,
        "note": (
            "8->32 on one VM saturates shared DRAM (Ray-free multiprocessing "
            "control of the same kernels: 0.91 eff for 2->8, 0.57 for 8->30); "
            "N vs 4N NODES adds bandwidth per node, so the 2->8 pair is the "
            "faithful single-machine proxy"
        ),
        "runs": {str(n): runs[n] for n in levels},
    }


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(_run_scaling()))
    else:
        print(json.dumps(_run_bench()))
