"""The benchmark's own test: every workload, untraced and traced, on a
small input. Run from the root of the checkout:

    python3 -m pytest perfbench/test_run.py -q
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# runnable, but not in BENCHMARK.json (see README.md)
EXTRA_WORKLOADS = ["pipeline"]


def run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS + EXTRA_WORKLOADS)
def test_workload_runs_and_checks_its_outputs(workload, trace):
    proc = run(["--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace), "--size", "small"])
    assert proc.returncode == 0, proc.stderr[-4000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1

    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in want}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())

    with open(os.path.join(ROOT, ".pb", "out", f"{workload}-seed5-trace{trace}.json")) as f:
        report = json.load(f)
    assert report["checks_failed"] == []
    assert report["operations_raised"] == []
    assert all(n >= 1 for n in report["checks_passed"].values()), report["checks_passed"]


def test_an_operation_that_raises_is_counted_as_failed(monkeypatch, capsys):
    sys.path.insert(0, ROOT)
    from perfbench import run as bench
    from pyppmd_ray.stages import encode as stage

    real = stage.decode_batches

    def projection_raises(batch, *, columns=None, **kwargs):
        # the warm-up's blocks hold WARM_ROWS rows; only timed passes fail
        if columns and sum(batch["n_rows"].to_pylist()) > bench.WARM_ROWS:
            raise RuntimeError("injected")
        return real(batch, columns=columns, **kwargs)

    monkeypatch.setattr(stage, "decode_batches", projection_raises)
    args = ["--workload", "tables", "--seed", "3", "--seconds", "1", "--trace", "0", "--size", "small"]
    assert bench.main(args) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    ops = 1 + bench.DECODE_REPEATS + bench.PROJECT_REPEATS
    assert result["correct"] is True
    assert result["attempted"] % ops == 0
    assert result["failed"] * ops == result["attempted"] * bench.PROJECT_REPEATS
    assert result["metrics"]["projected_decode_MBps"]["value"] == 0.0
    assert result["metrics"]["encode_MBps"]["value"] > 0


def test_same_seed_gives_same_stored_size():
    ratios = []
    for _ in range(2):
        proc = run(["--workload", "tables", "--seed", "9", "--seconds", "1", "--trace", "0", "--size", "small"])
        assert proc.returncode == 0, proc.stderr[-4000:]
        ratios.append(json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]["ratio"]["value"])
    assert ratios[0] == ratios[1]


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench")
    proc = run(["--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
