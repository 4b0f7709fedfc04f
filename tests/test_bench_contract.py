"""The benchmark's patch points exist in the program.

dermbench/ times and traces a run by replacing program functions by
attribute from outside src/ (tracing.Patches).  A renamed or deleted patch
point would otherwise only show when the benchmark itself runs.  The
benchmark modules are loaded from their files and only read here.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from derm_lab import cli
from derm_lab.experiments import effective_config, run_experiment

BENCH = Path(__file__).resolve().parent.parent / "dermbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"dermbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")


def _install(wl):
    """A workload's phase timers, then the tracer, as dermbench/child.py
    installs them."""
    patches = tracing.Patches()
    tracing.Phases().install(patches, wl.train_entry, wl.eval_entry)
    tracer = tracing.Tracer()
    tracer.install(patches)
    patches.wrap(cli, "run_experiment", tracer.span("experiments.run_experiment"))
    return patches, tracer


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_patch_points_install_and_restore(name):
    patches, _ = _install(workloads.WORKLOADS[name])
    originals = {}
    for owner, attr, original in patches._undo:
        originals.setdefault((owner, attr), original)
    assert len(originals) > 20
    for (owner, attr), original in originals.items():
        assert getattr(owner, attr) is not original, f"{owner}.{attr}"
    patches.restore()
    for (owner, attr), original in originals.items():
        assert getattr(owner, attr) is original, f"{owner}.{attr}"


def test_lsm_oracle_runs_through_the_traced_lsm_price(tmp_path):
    # run_oracle must look lsm_price up on its module at call time, or the
    # benchmark's oracles.lsm_price span reads 0
    user = workloads.deep_merge(workloads._LSM, {"params": {"n_paths": 2000}})
    patches, tracer = _install(workloads.WORKLOADS["maxcall"])
    try:
        run_experiment("oracle", effective_config("oracle", user), tmp_path, 1)
    finally:
        patches.restore()
    assert "oracles.lsm_price" in {span[0] for span in tracer.spans}
