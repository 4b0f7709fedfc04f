"""The four benchmark workloads: fixed experiment budgets and accuracy gates.

Each workload runs one or two CLI experiments at a fixed budget.  The
budgets keep the per-iteration shape of the desk defaults (put, maxcall)
or of the paper (hedge, merton) and shrink only the iteration, repeat and
evaluation counts, so that one run takes seconds.  Learning rates are
raised over the desk defaults so that the short budgets still train far
enough for the gates below to separate a trained control from an
untrained one; they do not change the cost of an iteration.

A gate compares a run's result with a reference that does not go through
the autodiff stack.  A failed gate marks the run as a failed operation.
The bands were calibrated on seeds 0-19 and 100-119 at the commit that
added the benchmark; see README.md.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path


@dataclass(frozen=True)
class Experiment:
    tag: str          # CLI experiment name
    config: dict      # merged over the desk defaults by the CLI


@dataclass(frozen=True)
class Workload:
    name: str
    experiments: tuple
    workers: int
    train_entry: tuple   # (module, attribute) timed as the training phase
    eval_entry: tuple    # (module, attribute) timed as the evaluation phase
    warm_mb: int         # memory touched before the first timed run, about its peak RSS
    tiny: tuple = field(default=())  # per-experiment config for smoke runs


_PUT = {
    "eps_final": 0.5,
    "train": {"batch_size": 1024, "iterations": 60, "learning_rate": 0.003,
              "avg_tail": 0.5},
    "eval": {"n_paths": 1 << 16},
    "fd_reference": True,
}

_MAXCALL_MARKET = {"s0": [90.0, 90.0], "rate": 0.05, "sigma": 0.2, "div": 0.1}
_MAXCALL_MESH = {"kind": "uniform", "maturity": 3.0, "n_steps": 9}

_MAXCALL = {
    "market": _MAXCALL_MARKET,
    "mesh": _MAXCALL_MESH,
    "train": {"batch_size": 1024, "iterations": 200, "learning_rate": 0.01,
              "avg_tail": 0.5},
    "eval": {"n_paths": 1 << 16},
    "n_repeats": 1,
}

_LSM = {
    "method": "lsm-max-call",
    "params": {"market": _MAXCALL_MARKET, "strike": 100.0, "mesh": _MAXCALL_MESH,
               "n_paths": 1 << 17, "degree": 2},
}

_HEDGE = {
    "strikes": [90.0, 100.0, 110.0],
    "n_steps": 22,
    "hidden": [20, 20],
    "x0_mode": "learnable",
    "train": {"batch_size": 512, "iterations": 60, "learning_rate": 0.065,
              "avg_tail": 0.3},
    "n_repeats": 2,   # 3 strikes x 2 repeats = 6 jobs, 3 per worker
    "trace_paths": 4096,
}

_MERTON = {
    "dims": [10, 40],
    "n_data": 100000,
    "hidden": [10, 10, 10],
    "train": {"batch_size": 512, "iterations": 400},
    "n_repeats": 2,
    "n_eval": 1 << 17,
}

WORKLOADS = {
    "put": Workload(
        name="put",
        experiments=(Experiment("put-boundary", _PUT),),
        workers=1,
        train_entry=("experiments", "train_boundary"),
        eval_entry=("experiments", "evaluate_price"),
        warm_mb=4400,
        tiny=({"train": {"iterations": 2}, "eval": {"n_paths": 4096}},),
    ),
    "maxcall": Workload(
        name="maxcall",
        experiments=(Experiment("maxcall", _MAXCALL), Experiment("oracle", _LSM)),
        workers=1,
        train_entry=("experiments", "train_boundary"),
        eval_entry=("experiments", "evaluate_price"),
        warm_mb=1300,
        tiny=({"train": {"iterations": 2}, "eval": {"n_paths": 4096}},
              {"params": {"n_paths": 4096}}),
    ),
    "hedge": Workload(
        name="hedge",
        experiments=(Experiment("heston-hedge", _HEDGE),),
        workers=2,
        train_entry=("experiments", "_map_jobs"),
        eval_entry=("experiments", "wealth_rollout"),
        warm_mb=1800,
        tiny=({"train": {"iterations": 2}, "trace_paths": 64},),
    ),
    "merton": Workload(
        name="merton",
        experiments=(Experiment("merton", _MERTON),),
        workers=1,
        train_entry=("merton", "train_portfolio"),
        eval_entry=("merton", "utility_value"),
        warm_mb=500,
        tiny=({"n_data": 4096, "train": {"iterations": 30}, "n_eval": 4096},),
    ),
}


def deep_merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = deep_merge(out[key], value)
        else:
            out[key] = value
    return out


# ----------------------------------------------------------------------
# accuracy gates

PUT_BAND = 0.15          # FD price minus neural price, price units
MAXCALL_BAND = 0.35      # |neural - LSM|, price units
MAXCALL_LITERATURE = 8.08  # d=2, S0=90 (Andersen & Broadie 2004)
HEDGE_BAND = 0.15        # |mean learned price - Heston transform price|
MERTON_BAND = 0.10       # relative CE shortfall below the closed form
N_SE = 3.0
MERTON_N_SE = 4.0        # four checks per run, so a wider one-sided margin


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _finite_column(path: Path, column: str) -> bool:
    return all(math.isfinite(float(row[column])) for row in _read_rows(path))


def gate_put(cfg: dict, out_dir: Path) -> dict:
    """Neural lower bound vs the Bermudan FD price on the same mesh."""
    from derm_lab.experiments import _build_mesh
    from derm_lab.oracles import american_put_fd

    price = _read_json(out_dir / "price.json")
    market = cfg["market"]
    mesh = _build_mesh(cfg["mesh"])
    fd = american_put_fd(market["s0"], cfg["strike"], market["rate"],
                         market["sigma"], mesh.maturity,
                         exercise_times=mesh.times).price
    p, se = price["price"], price["std_error"]
    return {
        "put.below_fd": p <= fd + N_SE * se,
        "put.within_band": fd - p <= PUT_BAND,
        "put.losses_finite": _finite_column(out_dir / "loss.csv", "loss"),
        "put.values": {"price": p, "std_error": se, "fd_price": fd},
    }


def gate_maxcall(out_dirs: list[Path]) -> dict:
    """Neural price vs the LSM reference run and the literature value."""
    summary = _read_json(out_dirs[0] / "summary.json")
    lsm = _read_json(out_dirs[1] / "price.json")
    p, se = summary["price_mean"], summary["mc_std_error"]
    return {
        "maxcall.near_lsm": abs(p - lsm["price"]) <= MAXCALL_BAND,
        "maxcall.below_literature": p <= MAXCALL_LITERATURE + N_SE * se,
        "maxcall.losses_finite": _finite_column(out_dirs[0] / "loss.csv", "loss"),
        "maxcall.values": {"price": p, "std_error": se, "lsm_price": lsm["price"]},
    }


def gate_hedge(cfg: dict, out_dir: Path, job_losses_finite: bool) -> dict:
    """Mean learned price per strike vs the Heston transform price."""
    from derm_lab.experiments import _heston_params
    from derm_lab.oracles import heston_call_quote

    market = _heston_params(cfg["market"])
    errors = {}
    for row in _read_rows(out_dir / "summary.csv"):
        strike = float(row["strike"])
        quote = heston_call_quote(market, strike, cfg["maturity"]).price
        errors[str(strike)] = float(row["price_mean"]) - quote
    return {
        "hedge.near_oracle": all(abs(e) <= HEDGE_BAND for e in errors.values()),
        "hedge.losses_finite": job_losses_finite,
        "hedge.values": {"price_error_by_strike": errors},
    }


def merton_closed_form(d: int, n_data: int, rate: float) -> tuple[float, float]:
    """(ce*, standard deviation of exp(-X_2) under the optimal position).

    Recomputed here from the Gaussian moments, independently of
    derm_lab.merton: X_2 = (1+r) X_1 + a*.(Z_2 - r) is Gaussian, so
    E[exp(-X_2)] = exp(-m + s^2/2) and Var[exp(-X_2)] = exp(-2m + s^2)(exp(s^2) - 1).
    """
    import numpy as np
    from derm_lab.merton import MertonSpec

    spec = MertonSpec.with_defaults(d, n_data=n_data, rate=rate)
    excess = spec.mu2 - rate
    a_star = np.linalg.solve(spec.sigma2, excess)
    c = 1.0 + rate
    ones = np.ones(d)
    mean = c * (spec.mu1 @ ones / d - rate) + a_star @ excess
    var = c * c * (ones @ spec.sigma1 @ ones) / d ** 2 + a_star @ spec.sigma2 @ a_star
    e1 = math.exp(-mean + 0.5 * var)
    sd = math.sqrt(math.exp(-2.0 * mean + var) * (math.exp(var) - 1.0))
    return -math.log(e1), sd


def gate_merton(cfg: dict, out_dir: Path) -> dict:
    """Out-of-sample certainty equivalent vs the closed-form optimum."""
    above, short = [], []
    finite = True
    for row in _read_rows(out_dir / "reports.csv"):
        ce_star, sd = merton_closed_form(int(row["dim"]), cfg["n_data"], cfg["rate"])
        ce_out = float(row["ce_out"])
        finite &= all(math.isfinite(float(v)) for k, v in row.items() if k != "dim")
        # delta method: se(ce) = se(E exp(-X)) / E exp(-X)
        se_ce = sd / math.sqrt(cfg["n_eval"]) / math.exp(-ce_star)
        above.append(ce_out <= ce_star + MERTON_N_SE * se_ce)
        short.append((ce_star - ce_out) / ce_star <= MERTON_BAND)
    return {
        "merton.below_optimum": all(above),
        "merton.near_optimum": all(short),
        "merton.losses_finite": finite,
    }
