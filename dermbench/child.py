"""One workload run in a fresh interpreter.

    python3 dermbench/child.py --workload put --seed 0 --out DIR --result FILE
                               [--trace] [--setup-only] [--tiny] [--fault adam|eval]

Runs the workload's CLI experiments through derm_lab.cli.main, the same
path as `derm-lab <experiment> --config ... --seed ... --out ...`, and
writes one JSON record to FILE: the moment the first call into
run_experiment was made (time.monotonic, comparable with the parent's
clock), the wall time of the run_experiment calls, the training and
evaluation phase timers, the accuracy gates and, with --trace, the layer
metrics.  The parent measures set-up time and peak RSS around this
process.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402
from derm_lab import cli  # noqa: E402
from derm_lab.experiments import effective_config  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


class _SetupDone(Exception):
    """Raised at the call into run_experiment by --setup-only runs."""


def _plant_fault(patches: tracing.Patches, fault: str) -> None:
    """Deliberate defects for the gate self-test."""
    if fault == "adam":
        def frozen(fn):
            def adam_step(params, grad, state):
                return params.copy()
            return adam_step
        patches.wrap("nn.train", "adam_step", frozen)
        patches.wrap("merton", "adam_step", frozen)
    elif fault == "eval":
        from derm_lab.stopping import StoppingSpec

        def zero_payoff(fn):
            def evaluate_price(*args, **kwargs):
                original = StoppingSpec.payoff
                StoppingSpec.payoff = lambda spec, s: np.zeros(np.asarray(s).shape[0])
                try:
                    return fn(*args, **kwargs)
                finally:
                    StoppingSpec.payoff = original
            return evaluate_price
        patches.wrap("experiments", "evaluate_price", zero_payoff)


def paper_counts(wl: workloads.Workload) -> dict:
    """Training iterations and evaluation paths of the --paper-scale run."""
    tag = wl.experiments[0].tag
    cfg = effective_config(tag, {}, paper_scale=True)
    iters = cfg["train"]["iterations"]
    if tag == "put-boundary":
        return {"iterations": iters, "eval_paths": cfg["eval"]["n_paths"]}
    if tag == "maxcall":
        n = cfg["n_repeats"]
        return {"iterations": n * iters, "eval_paths": n * cfg["eval"]["n_paths"]}
    if tag == "heston-hedge":
        jobs = len(cfg["strikes"]) * cfg["n_repeats"]
        return {"iterations": jobs * iters, "eval_paths": 2 * cfg["trace_paths"]}
    jobs = len(cfg["dims"]) * cfg["n_repeats"]
    return {"iterations": jobs * iters,
            "eval_paths": jobs * (cfg["n_data"] + cfg["n_eval"])}


def artifact_bytes(out_dirs: list[Path]) -> int:
    """Bytes of the byte-deterministic artifacts (manifest.json excluded)."""
    return sum(f.stat().st_size for d in out_dirs for f in d.rglob("*")
               if f.is_file() and f.name != "manifest.json")


def run_gates(wl: workloads.Workload, configs: list[dict], out_dirs: list[Path],
              phases: tracing.Phases | None) -> dict:
    if wl.name == "put":
        return workloads.gate_put(configs[0], out_dirs[0])
    if wl.name == "maxcall":
        return workloads.gate_maxcall(out_dirs)
    if wl.name == "hedge":
        finite = phases.losses_finite if phases is not None else True
        return workloads.gate_hedge(configs[0], out_dirs[0], finite)
    return workloads.gate_merton(configs[0], out_dirs[0])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--fault", choices=("adam", "eval"))
    args = parser.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    record = {"setup_done": None, "run_s": 0.0, "exit_codes": []}

    patches = tracing.Patches()
    if args.fault:
        _plant_fault(patches, args.fault)
    tracer = phases = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(patches)
        patches.wrap(cli, "run_experiment", tracer.span("experiments.run_experiment"))
    else:
        phases = tracing.Phases()
        phases.install(patches, wl.train_entry, wl.eval_entry)

    def timed_root(fn):
        def run_experiment(*a, **kw):
            if record["setup_done"] is None:
                record["setup_done"] = time.monotonic()
            if args.setup_only:
                raise _SetupDone
            t0 = time.perf_counter()
            try:
                return fn(*a, **kw)
            finally:
                record["run_s"] += time.perf_counter() - t0
        return run_experiment

    patches.wrap(cli, "run_experiment", timed_root)

    user_configs, out_dirs = [], []
    for i, exp in enumerate(wl.experiments):
        cfg = exp.config
        if args.tiny:
            cfg = workloads.deep_merge(cfg, wl.tiny[i])
        user_configs.append(cfg)
        path = out / f"config{i}.json"
        path.write_text(json.dumps(cfg))
        out_dirs.append(out / exp.tag)

    for i, exp in enumerate(wl.experiments):
        try:
            code = cli.main([exp.tag, "--config", str(out / f"config{i}.json"),
                             "--seed", str(args.seed), "--out", str(out_dirs[i])])
        except _SetupDone:
            break
        record["exit_codes"].append(code)
        if code != 0:
            break
    patches.restore()

    ran = (not args.setup_only and len(record["exit_codes"]) == len(wl.experiments)
           and all(c == 0 for c in record["exit_codes"]))
    record["ok"] = ran or (args.setup_only and record["setup_done"] is not None)
    if ran:
        if phases is not None:
            record["phases"] = {"train_s": phases.train_s, "train_iters": phases.train_iters,
                                "eval_s": phases.eval_s, "eval_paths": phases.eval_paths}
            record["paper"] = paper_counts(wl)
        configs = [effective_config(e.tag, c, seed=args.seed)
                   for e, c in zip(wl.experiments, user_configs)]
        if args.tiny:
            # bands are calibrated for the full budget; keep the finiteness checks
            gates = {k: v for k, v in run_gates(wl, configs, out_dirs, phases).items()
                     if k.endswith("losses_finite") or k.endswith(".values")}
        else:
            gates = run_gates(wl, configs, out_dirs, phases)
        record["gates"] = gates
        record["gates_ok"] = all(v for k, v in gates.items() if not k.endswith(".values"))
        if tracer is not None:
            metrics = tracing.layer_metrics(tracer.spans, tracer.counts)
            metrics["experiments.artifact_bytes"] = artifact_bytes(out_dirs)
            record["layers"] = metrics
            record["span_problems"] = tracing.check_spans(tracer.spans)[:20]
            (out / "spans.json").write_text(json.dumps(tracer.spans))
    Path(args.result).write_text(json.dumps(record))
    return 0 if record["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
