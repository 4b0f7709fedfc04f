"""Tests of the benchmark harness itself.

    python3 -m pytest -q dermbench/tests

- smoke runs of every workload at tiny budgets, untraced and traced, so
  the harness cannot rot;
- the gate self-test: at the benchmark budget, the gates pass on the
  program as it is and every affected gate fails under a planted fault
  (Adam returning the parameters unchanged, sharp evaluation paying zero);
- the span checks on hand-made spans.

Workload processes run one at a time: the put workload alone peaks at
about 4 GB.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

OUT = ROOT / ".bench_out" / "tests"
WORKLOADS = sorted(workloads.WORKLOADS)


def _bench(*args: str) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    assert lines[0].startswith("# environment ")
    env = json.loads(lines[0][len("# environment "):])
    assert env["nproc"] >= 1 and env["OPENBLAS_NUM_THREADS"] == "1"
    return json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_smoke_run(workload, trace):
    result = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                    "--trace", trace, "--tiny")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    units = run.LAYER_UNITS if trace == "1" else run.E2E_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace == "0":
        assert all(v > 0 for v in values.values())
    else:
        assert values["nn.forward.rows_per_iter"] > 0
        assert values["experiments.artifact_bytes"] > 0
        assert values["nn.share"] > 0


def _child(workload: str, seed: int, fault: str | None = None) -> dict:
    out = OUT / f"{workload}-{fault or 'clean'}"
    result = out / "result.json"
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out), "--result", str(result)]
    if fault:
        cmd += ["--fault", fault]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               DERM_LAB_WORKERS=str(workloads.WORKLOADS[workload].workers))
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(result.read_text())["gates"]


# gates a fault must trip; seed 1 is one where the untrained controls
# are well away from the references
AFFECTED = {
    "adam": {"put": ["put.within_band"], "maxcall": ["maxcall.near_lsm"],
             "hedge": ["hedge.near_oracle"], "merton": ["merton.near_optimum"]},
    "eval": {"put": ["put.within_band"], "maxcall": ["maxcall.near_lsm"]},
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_gates_pass_and_planted_faults_trip_them(workload):
    clean = _child(workload, seed=1)
    assert all(v for k, v in clean.items() if not k.endswith(".values")), clean
    for fault, affected in AFFECTED.items():
        if workload not in affected:
            continue
        gates = _child(workload, seed=1, fault=fault)
        tripped = [name for name in affected[workload] if not gates[name]]
        assert tripped == affected[workload], (fault, gates)


def test_span_checks():
    # root 0..100 with children 10..40 and 50..90; a grandchild 20..30
    good = [["experiments.run_experiment", -1, 0, 100], ["nn.forward", 0, 10, 40],
            ["nn.backward", 0, 50, 90], ["trace.graph_walk", 1, 20, 30]]
    assert tracing.check_spans(good) == []
    assert tracing.self_times(good) == [30, 20, 40, 10]
    shares = tracing.layer_metrics(good, tracing.Counter())
    assert sum(shares[f"{layer}.share"] for layer in tracing.LAYERS) == pytest.approx(1.0)
    escaped = good + [["nn.adam_step", 2, 80, 120]]
    assert any("leaves its parent" in p for p in tracing.check_spans(escaped))
    overlapping = good + [["nn.adam_step", 0, 5, 95]]
    assert any("negative self time" in p for p in tracing.check_spans(overlapping))


def test_refuses_to_run_without_sources():
    bare = OUT / "bare"
    (bare / "dermbench").mkdir(parents=True, exist_ok=True)
    for name in ("run.py", "child.py", "tracing.py", "workloads.py"):
        (bare / "dermbench" / name).write_bytes((BENCH / name).read_bytes())
    proc = subprocess.run([sys.executable, "dermbench/run.py", "--workload", "put",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
