"""derm-lab benchmark: closed-loop batch runner over four CLI experiments.

    python3 dermbench/run.py --workload put|maxcall|hedge|merton
                             --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
./src.  Each workload run is one fresh interpreter (dermbench/child.py)
with one BLAS thread, started only after the previous one has ended.
Full run i of an end-to-end measurement passes --seed 1000 N + i to the
program: the trained controls, and so the evaluation cost, differ from
seed to seed, and a median over several seeds is steadier than one seed
repeated.  Traced runs all use 1000 N, so their counts can be compared.

--trace 0 (end-to-end): a warm-up process, a set-up-only process, a
memory warm-up, then full runs until S seconds are spent, at least
MIN_RUNS of them.  Prints the medians of setup_s, run_s,
train_iters_per_s, eval_paths_per_s, peak_rss_mb and paper_budget_h.

--trace 1 (per layer): DERM_LAB_WORKERS=1; the same warm-ups, one
untraced run as the overhead baseline, then at least two traced runs.
Prints the medians of the layer metrics and checks that spans nest, self
times are >= 0, layer shares sum to 1 and count metrics repeat exactly.

Every run's accuracy gates are checked; a run that fails a gate or exits
non-zero counts as failed.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_RUNS = 3
RUN_TIMEOUT_S = 150.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

E2E_UNITS = {"setup_s": "s", "run_s": "s", "train_iters_per_s": "1/s",
             "eval_paths_per_s": "1/s", "peak_rss_mb": "MB", "paper_budget_h": "h"}
LAYER_UNITS = {
    "markets.simulate_gbm.ns_per_path_step": "ns",
    "markets.simulate_heston.ns_per_path_step": "ns",
    "nn.forward.ns_per_row": "ns",
    "nn.forward.rows_per_iter": "count",
    "nn.forward.distinct_row_frac": "fraction",
    "nn.backward.ms_per_iter": "ms",
    "nn.graph_nodes_per_iter": "count",
    "nn.forward_eval.ns_per_row": "ns",
    "nn.forward_eval.rows_per_path": "count",
    "nn.adam.us_per_step": "us",
    "nn.train.self_ms_per_iter": "ms",
    "stopping.relaxed_graph.ms_per_iter": "ms",
    "stopping.first_crossing.ns_per_path": "ns",
    "hedging.loss_graph.ms_per_iter": "ms",
    "merton.train_portfolio.self_ms_per_iter": "ms",
    "merton.validation.ms_per_call": "ms",
    "oracles.american_put_fd.ms": "ms",
    "oracles.lsm_price.ms": "ms",
    "oracles.lsm_price.fallback_dates": "count",
    "oracles.heston_call_quote.ms": "ms",
    "experiments.self_ms": "ms",
    "experiments.artifact_bytes": "bytes",
    "trace.overhead_frac": "fraction",
    **{f"{layer}.share": "fraction" for layer in tracing.LAYERS},
}


def say(line: str) -> None:
    print(line, flush=True)


def environment(seed: int, env: dict) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, timeout=10).stdout.strip()
    except OSError:
        commit = ""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") >> 20,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **{var: env[var] for var in THREAD_VARS},
        "DERM_LAB_WORKERS": env["DERM_LAB_WORKERS"],
        "git_commit": commit or "none (not a git checkout)",
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


class Runner:
    """Starts workload processes one at a time and collects their records."""

    def __init__(self, workload: str, seed: int, out: Path, env: dict, tiny: bool):
        self.workload = workload
        self.seed = seed
        self.out = out
        self.env = env
        self.tiny = tiny
        self.count = 0

    def spawn(self, *, trace: bool = False, setup_only: bool = False,
              workers: int | None = None, offset: int = 0) -> dict:
        self.count += 1
        run_dir = self.out / f"run{self.count}"
        result = run_dir / "result.json"
        run_dir.mkdir(parents=True)
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", self.workload,
               "--seed", str(1000 * self.seed + offset),
               "--out", str(run_dir), "--result", str(result)]
        cmd += ["--trace"] * trace + ["--setup-only"] * setup_only + ["--tiny"] * self.tiny
        env = dict(self.env)
        if workers is not None:
            env["DERM_LAB_WORKERS"] = str(workers)
        with open(run_dir / "log.txt", "w") as log:
            t0 = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log, stderr=log,
                                    start_new_session=True)
            status, usage = _wait(proc, t0 + RUN_TIMEOUT_S)
        record = json.loads(result.read_text()) if result.exists() else {"ok": False}
        record["exit_status"] = status
        record["peak_rss_mb"] = usage.ru_maxrss / 1024.0 if usage else None
        if record.get("setup_done") is not None:
            record["setup_s"] = record["setup_done"] - t0
        record["passed"] = (status == 0 and record["ok"]
                            and (setup_only or record.get("gates_ok", False)))
        if not record["passed"]:
            tail = (run_dir / "log.txt").read_text()[-2000:]
            print(f"run {self.count} failed (status {status}); gates "
                  f"{record.get('gates')}\n{tail}", file=sys.stderr)
        return record


def _wait(proc: subprocess.Popen, deadline: float):
    """Wait for the child; kill its process group if it overruns.
    Returns (exit status, rusage including reaped pool workers)."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage
        if time.monotonic() > deadline:
            os.killpg(proc.pid, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            return -1, usage
        time.sleep(0.01)


def describe(name: str, values: list[float], unit: str) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(values)
    line = f"# {name}: median {statistics.median(values):.6g} {unit}, n={n}"
    if n >= 11:
        ranked = sorted(values)
        pct = 100.0 * (n - 10) / n
        line += f", p{pct:.0f} {ranked[n - 11]:.6g} {unit}"
    else:
        line += ", no percentile with 10 samples beyond it (n < 11)"
    return line


def warm_memory(mb: int) -> None:
    """Touch `mb` MB in a throwaway process.  On a virtual machine whose
    host takes back freed guest memory, the first process to fault in
    gigabytes after an idle spell pays for the host's page faults too;
    this moves that cost out of the first timed run."""
    subprocess.run([sys.executable, "-c",
                    f"import numpy; numpy.ones({mb << 17}).sum()"],
                   cwd=ROOT, check=True, timeout=RUN_TIMEOUT_S)


def end_to_end(runner: Runner, seconds: float, warm_mb: int) -> tuple[dict, int, int]:
    runner.spawn(setup_only=True)  # warm-up: bytecode cache and page cache
    records = [runner.spawn(setup_only=True)]
    warm_memory(warm_mb)
    full = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        full.append(runner.spawn(offset=len(full)))
        took = time.monotonic() - t0
        if len(full) >= MIN_RUNS and time.monotonic() - start + took > seconds:
            break
    records += full
    good = [r for r in full if r["passed"]]
    setups = [r["setup_s"] for r in records if r["passed"]]
    failed = sum(not r["passed"] for r in records)
    if not good:
        return {}, len(records), failed

    samples = {"setup_s": setups, "run_s": [], "train_iters_per_s": [],
               "eval_paths_per_s": [], "peak_rss_mb": [], "paper_budget_h": []}
    for r in good:
        ph, paper = r["phases"], r["paper"]
        iters_rate = ph["train_iters"] / ph["train_s"]
        eval_rate = ph["eval_paths"] / ph["eval_s"]
        samples["run_s"].append(r["run_s"])
        samples["train_iters_per_s"].append(iters_rate)
        samples["eval_paths_per_s"].append(eval_rate)
        samples["peak_rss_mb"].append(r["peak_rss_mb"])
        samples["paper_budget_h"].append(
            (paper["iterations"] / iters_rate + paper["eval_paths"] / eval_rate) / 3600.0)
    for name, values in samples.items():
        say(describe(name, values, E2E_UNITS[name]))
    say(f"# gates (last run): {json.dumps(good[-1]['gates'])}")
    return ({name: statistics.median(v) for name, v in samples.items()},
            len(records), failed)


def per_layer(runner: Runner, seconds: float, warm_mb: int) -> tuple[dict, int, int]:
    runner.spawn(setup_only=True, workers=1)  # warm-up
    warm_memory(warm_mb)
    start = time.monotonic()
    baseline = runner.spawn(workers=1)
    traced = []
    while True:
        t0 = time.monotonic()
        traced.append(runner.spawn(trace=True, workers=1))
        took = time.monotonic() - t0
        if len(traced) >= 2 and time.monotonic() - start + took > seconds:
            break
    records = [baseline] + traced
    good = [r for r in traced if r["passed"]]
    if not baseline["passed"] or len(good) < 2:
        return {}, len(records), sum(not r["passed"] for r in records)

    overhead = statistics.median(r["run_s"] for r in good) / baseline["run_s"] - 1.0
    problems = []
    for i, r in enumerate(good):
        problems += [f"traced run {i}: {p}" for p in r["span_problems"]]
        share_sum = sum(r["layers"][f"{layer}.share"] for layer in tracing.LAYERS)
        if abs(share_sum - 1.0) > max(abs(overhead), 1e-9):
            problems.append(f"traced run {i}: layer shares sum to {share_sum}")
    for key in tracing.COUNT_METRICS:
        values = {r["layers"][key] for r in good}
        if len(values) != 1:
            problems.append(f"count metric {key} differs between traced runs: {values}")
    for p in problems:
        print(f"trace check failed: {p}", file=sys.stderr)

    metrics = tracing.median_metrics([r["layers"] for r in good])
    metrics["trace.overhead_frac"] = overhead
    for name in LAYER_UNITS:
        say(f"# {name}: {metrics[name]:.6g} {LAYER_UNITS[name]} (median of {len(good)} traced runs)")
    failed = sum(not r["passed"] for r in records) + (1 if problems else 0)
    return metrics, len(records), failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test budgets; accuracy bands are not checked")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "derm_lab" / "__init__.py").is_file():
        print(f"error: no derm_lab sources under {ROOT / 'src'}; run from a "
              "derm-lab source checkout", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload]
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["DERM_LAB_WORKERS"] = str(1 if args.trace else wl.workers)
    env.pop("PYTHONPATH", None)
    out = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    say("# environment " + json.dumps(environment(args.seed, env), sort_keys=True))
    runner = Runner(args.workload, args.seed, out, env, args.tiny)
    if args.trace:
        metrics, attempted, failed = per_layer(runner, args.seconds, wl.warm_mb)
        units = LAYER_UNITS
    else:
        metrics, attempted, failed = end_to_end(runner, args.seconds, wl.warm_mb)
        units = E2E_UNITS
    if not metrics:
        print("error: no workload run succeeded", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
