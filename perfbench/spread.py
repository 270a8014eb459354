"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py [--workloads source,tables,pipeline]
        [--seeds 1-10] [--trace 0] [--out perfbench/results/<name>.json]
    python3 perfbench/spread.py --compare perfbench/results/first.json \
        perfbench/results/second.json

For every workload and metric it prints the median of the runs and the
distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound in BENCHMARK.json. Runs are made one after another,
each in a fresh process, from the root of the checkout.

``--compare A B`` makes no runs: for two saved sets it prints, per
workload and metric, how much worse B's median is than A's as a share of
A's (negative: better), against the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def compare(spec: dict, first: str, second: str) -> int:
    """Print how much worse each median of ``second`` is than ``first``'s."""
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    sets = []
    for path in (first, second):
        with open(path) as f:
            sets.append(json.load(f)["workloads"])
    for wl, a in sets[0].items():
        if wl not in sets[1]:
            continue
        b = sets[1][wl]
        shares = [r["failed"] / r["attempted"] for s in (a, b) for r in s["runs"]]
        print(f"{wl:9s} failed share {min(shares):.4f}-{max(shares):.4f}")
        for name, sa in a["summary"].items():
            m, ma, mb = metrics.get(name, {}), sa["median"], b["summary"][name]["median"]
            worse = (ma - mb) / ma if m.get("better") == "higher" else (mb - ma) / ma
            bound = m.get("bound")
            flag = "" if bound is None else ("  ok" if worse <= bound else "  OVER BOUND")
            print(f"{wl:9s} {name:28s} {ma:12.4f} -> {mb:12.4f}  worse by {worse:+.4f}  bound {bound}{flag}")
    return 0


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="write every run and the summary here as JSON")
    p.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"),
                   help="compare the medians of two saved sets instead of running")
    args = p.parse_args()
    if args.compare:
        return compare(spec, *args.compare)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    report = {"run_seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    for wl in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            cmd = spec["command"] + ["--workload", wl, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            t0 = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            wall = time.monotonic() - t0
            if proc.returncode != 0:
                print(proc.stderr[-4000:], file=sys.stderr)
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            res["seed"], res["wall_s"] = seed, wall
            runs.append(res)
            print(f"{wl} seed {seed}: {wall:.0f} s, correct={res['correct']}, "
                  f"attempted={res['attempted']}, failed={res['failed']}", file=sys.stderr)
        summary = {}
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med, med, med]
            spread = (q[2] - q[0]) / med if med else 0.0
            summary[name] = {"median": med, "q1": q[0], "q3": q[2], "spread": spread,
                             "bound": bounds.get(name)}
            b = bounds.get(name)
            flag = "" if b is None else ("  ok" if spread < b / 3 else ("  WITHIN BOUND" if spread <= b else "  OVER BOUND"))
            print(f"{wl:9s} {name:28s} median {med:12.4f}  spread {spread:7.4f}  bound {b}{flag}")
        report["workloads"][wl] = {"runs": runs, "summary": summary}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
