"""pyppmd_ray benchmark: encode, decode and stored size, end to end and per layer.

    python3 perfbench/run.py --workload source|tables|pipeline --seed N \
        --seconds S --trace 0|1 [--size full|small]

Workloads (see README.md for why each exists):

- ``source``: the seeded F1 ``source_files`` table, one pinned plan,
  ``encode_batches``/``decode_batches`` in this process;
- ``tables``: windows of five sf0.1 tables (``lineitem``, ``orders``,
  ``events``, ``documents``, ``embeddings``) kept in ``perfbench/data/``,
  one 4 MiB batch each, planned per batch by ``encode_batches`` in this
  process;
- ``pipeline``: Ray Data ``encode_dataset``/``decode_dataset`` over the
  sharded parquet of the ``source`` table, at ``num_cpus=2`` (runnable,
  but not in BENCHMARK.json: too noisy here; a traced ``source`` run
  takes its ``ray.*`` metrics from a short ``pipeline`` run).

Set-up (``setup_s``) ends after a warm-up that runs every operation once
on the leading rows of each batch. An untimed reference encode follows;
then each run repeats whole passes over its input until ``--seconds``
have gone by. Every output is checked against digests and tables the
benchmark computes itself; an operation that raises or fails a check is
counted in ``failed``. The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end with ``--trace 0``, per-layer with
``--trace 1``). A full report of the run goes to
``.pb/out/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import shutil
import statistics
import sys
import time

T0 = time.perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".pb")
NUM_CPUS = 2
SOURCE_COLUMNS = ("repo", "path", "commit", "lang", "content")
RANS_SIZES = (("4k", 4 << 10), ("64k", 64 << 10), ("1m", 1 << 20))
# decodes are 2-20x cheaper than the encode; repeating them in each pass
# gives their best-of as many samples as the encode's
DECODE_REPEATS = 2
PROJECT_REPEATS = 4
# rows of each batch that the warm-up encodes and decodes
WARM_ROWS = 64
# a traced `source` run also runs the Ray pipeline this long for ray.*
PIPELINE_TRACE_SECONDS = 5
# AF_UNIX socket paths are limited to 107 bytes; Ray puts its sockets at
# <temp dir>/session_<date>_<time>_<usec>_<pid>/sockets/plasma_store
RAY_SOCKET_SUFFIX = 64


def _age_at_start() -> float:
    """Seconds from this process's start to ``T0`` (interpreter start-up;
    /proc gives the start in clock ticks, so this part is coarse)."""
    try:
        with open("/proc/self/stat") as f:
            start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime") as f:
            uptime = float(f.read().split()[0])
        return max(0.0, uptime - start_ticks / os.sysconf("SC_CLK_TCK") - (time.perf_counter() - T0))
    except (OSError, ValueError, IndexError):
        return 0.0


AGE_AT_T0 = _age_at_start()


def process_age_s() -> float:
    """Seconds since this process started."""
    return AGE_AT_T0 + time.perf_counter() - T0


def now() -> float:
    return time.perf_counter()


class Checks:
    """Counts each correctness check that ran and every timed operation;
    records every failure."""

    NAMES = ("row_counts", "digests", "tables_equal", "projection", "deterministic")

    def __init__(self):
        self.passed = {n: 0 for n in self.NAMES}
        self.failed: list[str] = []
        self.errors: list[str] = []  # operations that raised
        self.attempted = 0  # timed operations
        self.failed_ops = 0  # timed operations that raised or failed a check
        self.seconds = 0.0  # time spent checking, kept out of setup_s

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        if ok:
            self.passed[name] += 1
        else:
            self.failed.append(f"{name}: {detail}")
            print(f"CHECK FAILED {name}: {detail}", file=sys.stderr)
        return ok

    def op(self, ok: bool):
        """Count one timed operation, failed unless ``ok``."""
        self.attempted += 1
        self.failed_ops += not ok

    def error(self, what: str, exc: BaseException):
        self.errors.append(f"{what}: {exc!r}")
        print(f"OPERATION FAILED {what}: {exc!r}", file=sys.stderr)

    @property
    def correct(self) -> bool:
        return not self.failed


def best_MBps(per_item: list[list[float]], sizes: list[int]) -> float:
    """MB per second over the items that have a time: their bytes over the
    sum of each one's fastest time across passes. The host drifts by
    20-50% within minutes; the fastest of several short timings tracks the
    program, the median tracks the neighbours."""
    timed = [(min(ts), n) for ts, n in zip(per_item, sizes) if ts]
    return sum(n for _, n in timed) / 1e6 / sum(t for t, _ in timed) if timed else 0.0


def calibration_ms() -> float:
    """A fixed numpy sort plus a pure-Python loop: moves with the machine."""
    import numpy as np

    a = np.random.default_rng(0).random(1 << 20)
    times = []
    for _ in range(5):
        t0 = now()
        np.sort(a)
        s = 0
        for i in range(300_000):
            s += i * i
        times.append((now() - t0) * 1e3)
    return statistics.median(times)


def workload_bytes(tables, limit: int) -> bytes:
    """The first ``limit`` value bytes of the workload's input, column by
    column (string data or fixed-width values)."""
    from perfbench.inputs import value_bytes

    parts, n = [], 0
    for tbl in tables:
        for name in tbl.column_names:
            b = value_bytes(tbl[name])
            parts.append(b)
            n += len(b)
            if n >= limit:
                return b"".join(parts)[:limit]
    return b"".join(parts)


def rans_metrics(data: bytes, checks: Checks) -> dict:
    """MB/s of the shared entropy kernel on slices of the workload's bytes."""
    from pyppmd_ray.codecs import decode_blob, encode_rans0

    def median_s(fn, arg):
        times, res = [], None
        while len(times) < 3 or sum(times) < 0.2:
            t0 = now()
            res = fn(arg)
            times.append(now() - t0)
        return statistics.median(times), res

    out = {}
    for label, size in RANS_SIZES:
        s = data[:size]
        t_enc, blob = median_s(encode_rans0, s)
        t_dec, back = median_s(decode_blob, blob)
        checks.check("tables_equal", bytes(back) == s, f"rans0 round trip at {label}")
        out[f"rans.encode_MBps.{label}"] = len(s) / 1e6 / t_enc
        out[f"rans.decode_MBps.{label}"] = len(s) / 1e6 / t_dec
    return out


def layer_metrics(snap: dict, passes: int, plan: dict, columns: dict, blocks: float,
                  in_bytes: int, ray_stats: dict, rans: dict, calib: float) -> dict:
    """Per-layer metrics. Times are per encode, or per full decode, of the
    workload's whole input (projected decodes are not traced)."""
    from perfbench.trace import FAMILIES

    ms = snap["ms"]
    per = {"encode": passes, "decode": passes * DECODE_REPEATS}

    def phase_ms(key: str, phase: str) -> float:
        return ms.get(key, 0.0) / per[phase]

    m = {
        "select.plan_ms": plan["ms"],
        "select.plan_calls": plan["calls"],
        "blocks.split_ms": phase_ms("blocks.split_ms", "encode"),
        "blocks.hash_ms": phase_ms("blocks.hash_ms", "encode"),
        "blocks.encode_ms": phase_ms("blocks.encode_ms", "encode"),
        "blocks.decode_ms": phase_ms("blocks.decode_ms", "decode"),
        "blocks.encode_self_ms": phase_ms("blocks.encode_self_ms", "encode"),
        "blocks.decode_self_ms": phase_ms("blocks.decode_self_ms", "decode"),
        "blocks.count": blocks,
        "blocks.fill": in_bytes / blocks / (4 << 20),
    }
    for name in SOURCE_COLUMNS:
        for phase in ("encode", "decode"):
            m[f"column.{name}.{phase}_ms"] = phase_ms(f"column.{name}.{phase}_ms", phase) if name in columns else 0.0
        m[f"column.{name}.ratio"] = columns.get(name, 0.0)
    for fam in FAMILIES:
        for phase in ("encode", "decode"):
            m[f"codec.{fam}.{phase}_ms"] = phase_ms(f"codec.{fam}.{phase}_ms", phase)
    m.update(rans)
    for k in ("read_s", "encode_udf_s", "encode_wall_s", "decode_udf_s", "decode_wall_s", "tasks"):
        m[f"ray.{k}"] = ray_stats.get(k, 0.0)
    m["host.calibration_ms"] = calib
    return m


def column_ratios(tbl, metas: list[str]) -> dict:
    """Input bytes of each source column over its stored blob bytes."""
    from perfbench.inputs import input_bytes

    stored = {}
    for meta in metas:
        for name, c in json.loads(meta)["columns"].items():
            stored[name] = stored.get(name, 0) + c["bytes"]
    return {n: input_bytes(tbl[n]) / stored[n] for n in SOURCE_COLUMNS if n in stored}


def stored_bytes(enc) -> int:
    """Stored bytes of encoded block rows: payload plus meta."""
    import pyarrow.compute as pc

    return sum(pc.sum(pc.binary_length(enc[c])).as_py() for c in ("payload", "meta"))


# ------------------------------------------------------------ in-process


def run_in_process(workload: str, seed: int, size: str, seconds: float, traced: bool, checks: Checks):
    import pyarrow as pa

    from perfbench import inputs, trace
    from pyppmd_ray.stages import encode as stage

    if traced:
        trace.install()
    BLOCK = inputs.BLOCK_BYTES
    if workload == "source":
        from pyppmd_ray.pipelines import compress
        from pyppmd_ray.stages.blocks import split_by_bytes

        table = inputs.source_table(seed, size)
        # plan once from the leading rows, as a pinned dataset plan does;
        # each batch is one of the even 4 MiB blocks encode_batches would
        # cut the whole table into, so each block is timed on its own
        t0 = now()
        hints, _ = compress.plan_sample_table(table.slice(0, 1024), BLOCK)
        plan = {"ms": (now() - t0) * 1e3, "calls": 1}
        batches = split_by_bytes(table, BLOCK)
        projections = [[inputs.SOURCE_PROJECTION]] * len(batches)
    else:
        tables = inputs.sf_tables(seed, size)
        hints, plan = None, None
        batches = list(tables.values())
        projections = [[inputs.TABLE_PROJECTION[name]] for name in tables]
    in_bytes = [inputs.table_bytes(b) for b in batches]
    proj_bytes = [inputs.table_bytes(b.select(p)) for b, p in zip(batches, projections)]

    def encode(b):
        return stage.encode_batches(b, target_block_bytes=BLOCK, hints=hints)

    def decode(e, cols=None):
        parts = list(stage.decode_batches(e, columns=cols))
        return pa.concat_tables(parts) if parts else None

    def same(got, want) -> bool:
        return got is not None and got.column_names == want.column_names and inputs.tables_equal(got, want)

    # warm-up: every operation once on the leading rows of each batch, so
    # that set-up covers first-call costs but not a full pass
    for b, p in zip(batches, projections):
        head = b.slice(0, WARM_ROWS)
        e = encode(head)
        checks.check("tables_equal", same(decode(e), head), "warm-up")
        checks.check("projection", same(decode(e, p), head.select(p)), "warm-up")
    setup_s = process_age_s() - checks.seconds

    # the reference encode, untimed: every timed encode must equal it
    ref = [encode(b) for b in batches]
    t0 = now()
    want_digests = [inputs.row_digests(b) for b in batches]
    for i, (b, e) in enumerate(zip(batches, ref)):
        got = decode(e)
        checks.check("row_counts", sum(e["n_rows"].to_pylist()) == b.num_rows, f"batch {i}")
        checks.check("digests", got is not None and inputs.row_digests(got) == want_digests[i], f"batch {i}")
    checks.seconds += now() - t0
    if traced:
        trace.TRACER.reset()

    def attempt(what, fn):
        """(seconds, output) of one operation, or None if it raised."""
        t0 = now()
        try:
            out = fn()
        except Exception as exc:  # counted in `failed`, the run goes on
            checks.error(what, exc)
            return None
        return now() - t0, out

    def one_pass(first: bool):
        """Encode each batch once, decode it DECODE_REPEATS times and
        decode its projection PROJECT_REPEATS times; check every output
        and count every operation. Returns the seconds of each operation
        that gave a correct output, per batch."""
        t = {"enc": [], "dec": [], "proj": []}
        for i, (b, p) in enumerate(zip(batches, projections)):
            enc = attempt(f"encode batch {i}", lambda: encode(b))
            dec = [attempt(f"decode batch {i}", lambda: decode(enc[1])) if enc else None
                   for _ in range(DECODE_REPEATS)]
            proj = [attempt(f"projected decode batch {i}", lambda: decode(enc[1], p)) if enc else None
                    for _ in range(PROJECT_REPEATS)]
            c0 = now()
            ok = enc is not None and all([
                checks.check("row_counts", sum(enc[1]["n_rows"].to_pylist()) == b.num_rows, f"batch {i}"),
                checks.check("deterministic", enc[1]["payload"].equals(ref[i]["payload"])
                             and enc[1]["block_id"].equals(ref[i]["block_id"]), f"batch {i}"),
            ])
            checks.op(ok)
            t["enc"].append([enc[0]] if ok else [])
            t["dec"].append([])
            for j, d in enumerate(dec):
                ok = d is not None and all([
                    checks.check("row_counts", d[1] is not None and d[1].num_rows == b.num_rows, f"batch {i}"),
                    checks.check("tables_equal", same(d[1], b), f"batch {i}"),
                    # digests on the first decode of the first timed pass
                    not (first and j == 0) or checks.check(
                        "digests", d[1] is not None and inputs.row_digests(d[1]) == want_digests[i],
                        f"batch {i}"),
                ])
                checks.op(ok)
                if ok:
                    t["dec"][-1].append(d[0])
            t["proj"].append([])
            for d in proj:
                ok = d is not None and checks.check("projection", same(d[1], b.select(p)), f"batch {i}")
                checks.op(ok)
                if ok:
                    t["proj"][-1].append(d[0])
            checks.seconds += now() - c0
        return t

    times = {"enc": [[] for _ in batches], "dec": [[] for _ in batches], "proj": [[] for _ in batches]}
    passes, start = 0, now()
    while passes == 0 or now() - start < seconds:
        t = one_pass(first=passes == 0)
        for k in times:
            for i, v in enumerate(t[k]):
                times[k][i] += v
        passes += 1

    total = sum(in_bytes)
    e2e = {
        "encode_MBps": best_MBps(times["enc"], in_bytes),
        "decode_MBps": best_MBps(times["dec"], in_bytes),
        "projected_decode_MBps": best_MBps(times["proj"], proj_bytes),
        # every timed encode is checked to give the reference's payload,
        # so the reference's stored size is every pass's
        "ratio": total / sum(stored_bytes(e) for e in ref),
        "setup_s": setup_s,
        "peak_rss_MB": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {"passes": passes, "ops_per_pass": (1 + DECODE_REPEATS + PROJECT_REPEATS) * len(batches),
            "input_bytes": total,
            "batches": len(batches), "rows": sum(b.num_rows for b in batches),
            "blocks_per_pass": sum(e.num_rows for e in ref)}
    layers = None
    if traced:
        snap = trace.TRACER.snapshot()
        if workload == "tables":
            plan = {"ms": snap["ms"].get("select.plan_ms", 0.0) / passes,
                    "calls": snap["n"].get("select.plan_calls", 0) / passes}
        metas = [m for e in ref for m in e["meta"].to_pylist()]
        cols = column_ratios(table, metas) if workload == "source" else {}
        layers = layer_metrics(
            snap, passes, plan, cols, sum(e.num_rows for e in ref), total, {},
            rans_metrics(workload_bytes(batches, 1 << 20), checks), calibration_ms(),
        )
    return e2e, layers, info


# -------------------------------------------------------------- pipeline

_OP = re.compile(r"^Operator \d+ (?P<name>.+?): (?P<tasks>\d+) tasks executed, \d+ blocks produced in (?P<v>[\d.]+)(?P<u>us|ms|s)\s*$")
_TOTAL = re.compile(r"^\* (?P<what>Remote wall time|UDF time): .* (?P<v>[\d.]+)(?P<u>us|ms|s) total")
_UNIT = {"us": 1e-6, "ms": 1e-3, "s": 1.0}


def parse_stats(text: str) -> list[dict]:
    """Operators of a ``Dataset.stats()`` report: name, tasks, operator
    wall seconds, summed remote wall and UDF seconds."""
    ops = []
    for line in text.splitlines():
        line = line.strip()
        m = _OP.match(line)
        if m:
            ops.append({"name": m["name"], "tasks": int(m["tasks"]),
                        "wall": float(m["v"]) * _UNIT[m["u"]], "remote": 0.0, "udf": 0.0})
            continue
        m = _TOTAL.match(line)
        if m and ops:
            ops[-1]["remote" if m["what"] == "Remote wall time" else "udf"] = float(m["v"]) * _UNIT[m["u"]]
    return ops


def ray_pass_stats(enc_ds, dec_dss, proj_dss) -> dict:
    """Ray's own numbers for one pass: the encode job, and the mean over
    the pass's full and projected decode jobs."""
    enc_ops = parse_stats(enc_ds.stats())

    def decode_ops(ds):
        return [o for o in parse_stats(ds.stats()) if "decode_batches" in o["name"]]

    def mean_over(dss, key):
        return statistics.mean(sum(o[key] for o in decode_ops(ds)) for ds in dss)

    read = [o for o in enc_ops if "Read" in o["name"]]
    encode = [o for o in enc_ops if "encode_batches" in o["name"]]
    return {
        "read_s": sum(o["remote"] - o["udf"] for o in read),
        "encode_udf_s": sum(o["udf"] for o in encode),
        "encode_wall_s": sum(o["wall"] for o in encode),
        "decode_udf_s": mean_over(dec_dss, "udf"),
        "decode_wall_s": mean_over(dec_dss, "wall"),
        "tasks": sum(o["tasks"] for o in enc_ops) + mean_over(dec_dss, "tasks") + mean_over(proj_dss, "tasks"),
    }


def run_pipeline(seed: int, size: str, seconds: float, traced: bool, checks: Checks):
    import logging

    import pyarrow as pa
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    from perfbench import inputs, trace
    from pyppmd_ray.pipelines import compress
    from pyppmd_ray.stages import blocks

    run_dir = os.path.join(WORK, str(os.getpid()))
    trace_dir = os.path.join(run_dir, "trace")
    os.makedirs(trace_dir, exist_ok=True)
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    BLOCK = inputs.BLOCK_BYTES

    import ray
    import ray.data as rd

    try:
        table = inputs.source_table(seed, size)
        path = os.path.join(run_dir, "source")
        inputs.write_shards(table, path)
        t0 = now()
        want_digests = sorted(inputs.row_digests(table))
        want_paths = sorted(table["path"].to_pylist())
        checks.seconds += now() - t0
        in_bytes = inputs.table_bytes(table)
        proj_bytes = inputs.input_bytes(table[inputs.SOURCE_PROJECTION])

        runtime_env = None
        if traced:
            os.environ[trace.TRACE_DIR_ENV] = trace_dir
            runtime_env = {"worker_process_setup_hook": "perfbench.trace.install_worker"}
        temp_dir = run_dir if len(run_dir) + RAY_SOCKET_SUFFIX <= 107 else None
        if temp_dir is None:
            print(f"checkout path too long for Ray's sockets; Ray uses its default temp dir", file=sys.stderr)
        ray.init(
            num_cpus=NUM_CPUS,
            include_dashboard=False,
            logging_level="ERROR",
            log_to_driver=False,
            object_store_memory=256 << 20,
            _temp_dir=temp_dir,
            runtime_env=runtime_env,
        )
        ctx = rd.DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False
        logging.getLogger("ray").setLevel(logging.ERROR)

        # the plan is pinned from a direct pyarrow read of the leading rows;
        # each task encodes one parquet file's rows, so block boundaries
        # follow the input layout rather than a sampled row size
        first = sorted(f.path for f in pads.dataset(path, format="parquet").get_fragments())[0]
        sample = pq.ParquetFile(first).read_row_group(0).slice(0, 1024)
        t0 = now()
        hints, _ = compress.plan_sample_table(sample, BLOCK)
        plan = {"ms": (now() - t0) * 1e3, "calls": 1}
        proj_cols = [inputs.SOURCE_PROJECTION]

        def timed(make):
            t0 = now()
            ds = make().materialize()
            return now() - t0, ds

        def one_pass():
            """One encode, DECODE_REPEATS decodes and PROJECT_REPEATS
            projected decodes, each a materialized Ray Data job."""
            enc = timed(lambda: compress.encode_dataset(
                rd.read_parquet(path), target_block_bytes=BLOCK, hints=hints,
                batch_rows=inputs.SHARD_ROWS))
            dec = [timed(lambda: compress.decode_dataset(enc[1])) for _ in range(DECODE_REPEATS)]
            proj = [timed(lambda: compress.decode_dataset(enc[1], columns=proj_cols))
                    for _ in range(PROJECT_REPEATS)]
            return enc, dec, proj

        def fetch(ds) -> pa.Table:
            parts = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
            return pa.concat_tables(parts)

        def verify(enc, dec, proj, count: bool) -> pa.Table:
            """Check every job of a pass; with ``count``, count each job
            as one operation, failed if one of its checks fails."""
            t0 = now()
            n = table.num_rows
            enc_t = fetch(enc[1])
            # one block, encoded again in this process, must be identical
            payload = enc_t["payload"][0].as_py()
            again = blocks.encode_block(blocks.decode_block(payload), hints=hints)
            ok = all([
                checks.check("row_counts", sum(enc_t["n_rows"].to_pylist()) == n, "pipeline encode"),
                checks.check("deterministic", again["payload"] == payload
                             and again["block_id"] == enc_t["block_id"][0].as_py(), "pipeline block 0"),
            ])
            oks = [ok]
            for _, ds in dec:
                dec_t = fetch(ds)
                oks.append(all([
                    checks.check("row_counts", dec_t.num_rows == n, "pipeline decode"),
                    checks.check("digests", sorted(inputs.row_digests(dec_t)) == want_digests, "pipeline"),
                    checks.check("tables_equal", dec_t.schema.equals(table.schema), "pipeline schema"),
                ]))
            for _, ds in proj:
                proj_t = fetch(ds)
                oks.append(checks.check(
                    "projection",
                    proj_t.column_names == proj_cols
                    and sorted(proj_t[inputs.SOURCE_PROJECTION].to_pylist()) == want_paths,
                    "pipeline",
                ))
            if count:
                for ok in oks:
                    checks.op(ok)
            checks.seconds += now() - t0
            return enc_t

        verify(*one_pass(), count=False)  # warm-up: starts and warms Ray's workers
        if traced:
            trace.clear_worker_files(trace_dir)
        setup_s = process_age_s() - checks.seconds

        times = {"enc": [], "dec": [], "proj": []}
        ratios, n_blocks, stats = [], [], []
        passes, start = 0, now()
        while passes == 0 or now() - start < seconds:
            enc, dec, proj = one_pass()
            times["enc"].append(enc[0])
            times["dec"] += [t for t, _ in dec]
            times["proj"] += [t for t, _ in proj]
            enc_t = verify(enc, dec, proj, count=True)
            ratios.append(in_bytes / stored_bytes(enc_t))
            n_blocks.append(enc_t.num_rows)
            if traced:
                stats.append(ray_pass_stats(enc[1], [d for _, d in dec], [p for _, p in proj]))
            passes += 1

        e2e = {
            "encode_MBps": best_MBps([times["enc"]], [in_bytes]),
            "decode_MBps": best_MBps([times["dec"]], [in_bytes]),
            "projected_decode_MBps": best_MBps([times["proj"]], [proj_bytes]),
            "ratio": statistics.median(ratios),
            "setup_s": setup_s,
            "peak_rss_MB": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        info = {"passes": passes, "ops_per_pass": 1 + DECODE_REPEATS + PROJECT_REPEATS,
                "input_bytes": in_bytes, "rows": table.num_rows, "blocks_per_pass": n_blocks}
        layers = None
        if traced:
            snap = trace.collect_worker_files(trace_dir)
            ray_stats = {k: statistics.mean(s[k] for s in stats) for k in stats[0]}
            layers = layer_metrics(
                snap, passes, plan, column_ratios(table, enc_t["meta"].to_pylist()),
                statistics.mean(n_blocks), in_bytes, ray_stats,
                rans_metrics(workload_bytes([table], 1 << 20), checks), calibration_ms(),
            )
        return e2e, layers, info
    finally:
        ray.shutdown()
        shutil.rmtree(run_dir, ignore_errors=True)


# ------------------------------------------------------------------ main


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("source", "tables", "pipeline"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "small"), default="full",
                   help="small: a tiny input, for the benchmark's own test")
    args = p.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "pyppmd_ray")):
        print(f"pyppmd_ray package not found under {ROOT}", file=sys.stderr)
        return 2
    os.environ.setdefault("OMP_NUM_THREADS", "1")
    os.environ.setdefault("RAY_USAGE_STATS_ENABLED", "0")
    sys.path.insert(0, ROOT)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    checks = Checks()
    traced = bool(args.trace)
    if args.workload == "pipeline":
        e2e, layers, info = run_pipeline(args.seed, args.size, args.seconds, traced, checks)
    elif args.workload == "source" and traced:
        # Ray's layer is measured on the same input through the pipeline,
        # before this process installs its own wrappers
        t0, checked = now(), checks.seconds
        pipe_e2e, pipe_layers, _ = run_pipeline(args.seed, args.size, PIPELINE_TRACE_SECONDS, True, checks)
        pipe_s = now() - t0 - (checks.seconds - checked)
        e2e, layers, info = run_in_process(args.workload, args.seed, args.size, args.seconds, traced, checks)
        e2e["setup_s"] -= pipe_s
        layers.update({k: v for k, v in pipe_layers.items() if k.startswith("ray.")})
        info["pipeline_end_to_end"] = pipe_e2e
    else:
        e2e, layers, info = run_in_process(args.workload, args.seed, args.size, args.seconds, traced, checks)
    if not traced:
        info["calibration_ms"] = calibration_ms()

    chosen = spec["per_layer"] if traced else spec["end_to_end"]
    values = layers if traced else e2e
    result = {
        "correct": checks.correct,
        "attempted": checks.attempted,
        "failed": checks.failed_ops,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in chosen},
    }
    report = {"args": vars(args), "result": result, "end_to_end": e2e, "info": info,
              "checks_passed": checks.passed, "checks_failed": checks.failed,
              "operations_raised": checks.errors}
    os.makedirs(os.path.join(WORK, "out"), exist_ok=True)
    out = os.path.join(WORK, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w") as f:
        json.dump(report, f, indent=1)
    print("end-to-end: " + json.dumps(e2e), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
