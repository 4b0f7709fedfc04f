"""Experiment runners behind the command-line interface.

Each runner takes an effective (defaults-merged, schema-valid) config
dict, executes one experiment family, and writes its artifacts into an
output directory:

- numeric artifacts (CSV tables, price/report JSON, checkpoints) are
  byte-deterministic for a given config and seed: floats are serialised
  via repr, and every random stream is derived from the root seed by
  name, so worker counts and scheduling cannot change results;
- manifest.json records the effective config, its hash, code version,
  per-repeat seeds, the file list, and wall-clock timings.  Timings make
  the manifest the one artifact excluded from byte-determinism.

Repeats are independent jobs keyed by per-repeat seeds and can run in a
process pool (the DERM_LAB_WORKERS environment variable); results are
reassembled in repeat order so the artifacts do not depend on the pool.
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError
from .markets import GbmParams, HestonParams, TimeMesh, simulate_heston
from .merton import MertonSpec, run_single_repeat
from .hedging import (HedgePolicy, HedgingSpec, hedge_trace_rows,
                      train_price_and_hedge, train_pure_hedge, wealth_rollout)
from .nn import MLP, TrainConfig
from .oracles import (american_put_fd, binomial_american, bs_call_price,
                      bs_put_price, heston_call_quote, lsm)
from .rng import derive_rng, substream
from .stopping import (BoundaryNet, StoppingSpec, boundary_grid_rows,
                       evaluate_price, price_report, train_boundary)

__all__ = [
    "DESK_DEFAULTS",
    "PAPER_OVERRIDES",
    "effective_config",
    "run_experiment",
    "emit_plots",
]


# ----------------------------------------------------------------------
# defaults

DESK_DEFAULTS: dict[str, dict] = {
    "put-boundary": {
        "market": {"s0": 40.0, "rate": 0.06, "sigma": 0.4, "div": 0.0},
        "strike": 40.0,
        "mesh": {"kind": "geometric", "maturity": 1.0, "n_steps": 50, "shrink": 0.05},
        "eps": 2.0,
        "g_kind": "linear",
        "drift_tilt": -0.014,
        "hidden": [32, 32],
        "train": {"batch_size": 1024, "iterations": 2000, "learning_rate": 1e-3},
        "eval": {"n_paths": 1 << 20},
        "fd_reference": True,
        "seed": 0,
    },
    "maxcall": {
        "market": {"s0": [90.0, 90.0], "rate": 0.05, "sigma": 0.2, "div": 0.1},
        "strike": 100.0,
        "mesh": {"kind": "uniform", "maturity": 3.0, "n_steps": 9},
        "eps": 10.0,
        "eps_final": 0.5,
        "g_kind": "linear",
        "drift_tilt": 0.0,
        "hidden": [32, 32],
        "train": {"batch_size": 1024, "iterations": 3000, "learning_rate": 1e-3},
        "eval": {"n_paths": 1 << 20},
        "n_repeats": 1,
        "seed": 0,
    },
    "heston-hedge": {
        "market": {"s0": 100.0, "v0": 0.04, "mu": 0.0, "kappa": 0.9, "theta": 0.04,
                   "sigma_vol": 0.2, "rho": 0.0, "lam": 0.0, "rate": 0.0},
        "strikes": [90.0, 100.0, 110.0],
        "maturity": 1.0 / 12.0,
        "n_steps": 22,
        "policy_inputs": "t_s",
        "hidden": [20, 20],
        "x0_mode": "learnable",
        "train": {"batch_size": 256, "iterations": 1800, "learning_rate": 4e-3},
        "n_repeats": 20,
        "eval": {"n_paths": 1 << 16},
        "trace_paths": 8,
        "seed": 0,
    },
    "merton": {
        "dims": [10, 40],
        "n_data": 4096,
        "regime": "fixed-dataset",
        "rate": 0.0,
        "hidden": [10, 10, 10],
        "train": {"batch_size": 512, "iterations": 4000, "learning_rate": 1e-3},
        "n_repeats": 30,
        "n_eval": 1 << 16,
        "seed": 0,
    },
    "oracle": {
        "seed": 0,
    },
}

PAPER_OVERRIDES: dict[str, dict] = {
    "put-boundary": {
        "train": {"batch_size": 1 << 13, "iterations": 7000},
        "eval": {"n_paths": 1 << 23},
    },
    "maxcall": {
        "train": {"batch_size": 1 << 13, "iterations": 7000},
        "eval": {"n_paths": 1 << 23},
        "n_repeats": 10,
    },
    "heston-hedge": {
        "train": {"batch_size": 512, "iterations": 20000, "learning_rate": 1e-3},
        "n_repeats": 100,
    },
    "merton": {
        "n_data": 100000,
        "train": {"iterations": 20000},
        "n_eval": 1 << 17,
    },
    "oracle": {},
}


def _deep_merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = value
    return out


def effective_config(tag: str, user_config: dict, paper_scale: bool = False,
                     seed: int | None = None) -> dict:
    """defaults < config file < --paper-scale block < --seed flag.

    The output directory is deliberately not part of the config: the
    config hash names the default output directory, so the hash covers
    numerics only.
    """
    cfg = _deep_merge(DESK_DEFAULTS[tag], user_config)
    if paper_scale:
        cfg = _deep_merge(cfg, PAPER_OVERRIDES[tag])
    if seed is not None:
        cfg["seed"] = seed
    return cfg


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def repeat_seed(root_seed: int, index: int) -> int:
    """Stable per-repeat root seed derived from the run's root seed."""
    return int(substream(root_seed, "repeat", index).generate_state(1, np.uint64)[0])


def _heston_params(market: dict) -> HestonParams:
    # mu is irrelevant for pricing; default it to the risk-free rate
    filled = dict(market)
    filled.setdefault("mu", filled.get("rate", 0.0))
    return HestonParams(**filled)


def _build_mesh(cfg: dict) -> TimeMesh:
    if cfg["kind"] == "uniform":
        return TimeMesh.uniform(cfg["maturity"], cfg["n_steps"])
    return TimeMesh.geometric(cfg["maturity"], cfg["n_steps"],
                              shrink=cfg.get("shrink", 0.05))


def _train_config(cfg: dict, seed: int) -> TrainConfig:
    return TrainConfig(
        batch_size=cfg["batch_size"],
        iterations=cfg["iterations"],
        learning_rate=cfg.get("learning_rate", 1e-3),
        lr_final=cfg.get("lr_final"),
        avg_tail=cfg.get("avg_tail", 0.0),
        beta1=cfg.get("beta1", 0.9),
        beta2=cfg.get("beta2", 0.999),
        adam_eps=cfg.get("adam_eps", 1e-8),
        seed=seed,
        stop_rule=cfg.get("stop_rule", "fixed"),
        plateau_rel_tol=cfg.get("plateau_rel_tol", 1e-4),
        plateau_patience=cfg.get("plateau_patience", 500),
    )


def _write_json(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def _write_csv(path: Path, header, rows) -> Path:
    """The one CSV writer.  Floats (numpy scalars too) become Python floats,
    which csv writes as repr(float(v)): shortest round-trip, so files are
    byte-stable.  Ints and strings are written with str."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([float(v) if isinstance(v, float) else v for v in row])
    return path


def _spread(values) -> float:
    """Sample standard deviation across repeats; 0 for a single repeat."""
    values = np.asarray(values, dtype=np.float64)
    return float(values.std(ddof=1)) if values.size > 1 else 0.0


def _fd_boundary_csv(path: Path, sol) -> Path:
    return _write_csv(path, ["time", "level"],
                      zip(sol.boundary_times, sol.boundary_levels))


class _Manifest:
    """Collects run metadata; written last so a manifest implies a
    complete artifact set."""

    def __init__(self, tag: str, cfg: dict, paper_scale: bool, workers: int):
        self.payload = {
            "experiment": tag,
            "code_version": __version__,
            "config": cfg,
            "config_hash": config_hash(cfg),
            "seed": cfg.get("seed", 0),
            "paper_scale": paper_scale,
            "workers": workers,
            "repeat_seeds": [],
            "timings": {},
        }
        self._t0 = time.perf_counter()
        self._phase_start = self._t0

    def phase(self, name: str) -> None:
        now = time.perf_counter()
        self.payload["timings"][name] = now - self._phase_start
        self._phase_start = now

    def write(self, out_dir: Path, files: list[Path]) -> None:
        self.payload["files"] = [{"name": path.name, "bytes": path.stat().st_size}
                                 for path in files]
        self.payload["timings"]["total"] = time.perf_counter() - self._t0
        _write_json(out_dir / "manifest.json", self.payload)


# ----------------------------------------------------------------------
# worker-pool plumbing (module-level functions so payloads pickle)


def _map_jobs(fn, payloads: list, workers: int) -> list:
    if workers <= 1 or len(payloads) <= 1:
        return [fn(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, payloads))


def _maxcall_job(payload: dict) -> dict:
    market = GbmParams(**payload["market"])
    mesh = _build_mesh(payload["mesh"])
    spec = StoppingSpec(payoff_kind="max_call", strike=payload["strike"],
                        rate=market.rate, mesh=mesh, eps=payload["eps"],
                        g_kind=payload["g_kind"])
    seed = payload["seed"]
    boundary = BoundaryNet.create(
        "max_call", market.n_assets, payload["strike"], mesh.maturity,
        hidden=tuple(payload["hidden"]), init_level=payload.get("init_level"),
        rng=derive_rng(seed, "init"))
    config = _train_config(payload["train"], seed)
    report = train_boundary(spec, boundary, market, config,
                            drift_tilt=payload["drift_tilt"],
                            eps_final=payload.get("eps_final"))
    estimate = evaluate_price(boundary, market, spec, payload["n_eval"], seed)
    return {
        "price": estimate.price,
        "std_error": estimate.std_error,
        "n_paths": estimate.n_paths,
        "iterations_run": report.iterations_run,
        "losses": report.losses,
        "boundary": boundary.to_dict(),
    }


def _hedge_job(payload: dict) -> dict:
    market = HestonParams(**payload["market"])
    mesh = TimeMesh.uniform(payload["maturity"], payload["n_steps"])
    spec = HedgingSpec(market=market, strike=payload["strike"], mesh=mesh,
                       x0_mode=payload["x0_mode"], x0=payload.get("x0"),
                       policy_inputs=payload["policy_inputs"])
    seed = payload["seed"]
    config = _train_config(payload["train"], seed)
    policy = HedgePolicy.create(spec, hidden=tuple(payload["hidden"]),
                                rng=derive_rng(seed, "init"))
    if spec.x0_mode == "learnable":
        report, policy = train_price_and_hedge(spec, config, policy=policy)
        learned = report.stats["learned_price"]
    else:
        report, policy = train_pure_hedge(spec, config, policy=policy)
        learned = float(spec.x0)
    out = {
        "learned_price": learned,
        "iterations_run": report.iterations_run,
        "losses": report.losses,
    }
    if payload.get("return_policy"):
        out["policy"] = policy.net.to_dict()
        out["policy_inputs"] = policy.inputs
    return out


_MERTON_REPORT_KEYS = ("v_in", "v_out", "ce_in", "ce_out", "v_star", "ce_star",
                       "p_in", "p_out", "gap")


def _merton_job(payload: dict) -> dict:
    spec = MertonSpec(**payload["spec"])
    config = _train_config(payload["train"], payload["seed"])
    report = run_single_repeat(spec, tuple(payload["hidden"]), config,
                               payload["root_seed"], payload["repeat"],
                               n_eval=payload["n_eval"])
    return {key: getattr(report, key) for key in _MERTON_REPORT_KEYS}


# ----------------------------------------------------------------------
# experiment runners


def run_put_boundary(cfg: dict, out_dir: Path, workers: int,
                     paper_scale: bool = False) -> dict:
    manifest = _Manifest("put-boundary", cfg, paper_scale, workers)
    seed = cfg["seed"]
    market = GbmParams(**cfg["market"])
    mesh = _build_mesh(cfg["mesh"])
    spec = StoppingSpec(payoff_kind="put", strike=cfg["strike"], rate=market.rate,
                        mesh=mesh, eps=cfg["eps"], g_kind=cfg["g_kind"])
    boundary = BoundaryNet.create("put", 1, cfg["strike"], mesh.maturity,
                                  hidden=tuple(cfg["hidden"]),
                                  init_level=cfg.get("init_level"),
                                  rng=derive_rng(seed, "init"))
    config = _train_config(cfg["train"], seed)
    report = train_boundary(spec, boundary, market, config,
                            drift_tilt=cfg["drift_tilt"],
                            eps_final=cfg.get("eps_final"))
    manifest.phase("train")

    estimate = evaluate_price(boundary, market, spec, cfg["eval"]["n_paths"], seed)
    manifest.phase("evaluate")

    files = [
        _write_json(out_dir / "price.json", price_report(estimate, spec, seed)),
        _write_csv(out_dir / "boundary.csv", ["time", "level"],
                   boundary_grid_rows(boundary, spec)),
    ]
    boundary.save(out_dir / "boundary.json")
    files.append(out_dir / "boundary.json")
    files.append(_write_csv(out_dir / "loss.csv", ["iteration", "loss"],
                            enumerate(report.losses)))

    summary = {"price": estimate.price, "std_error": estimate.std_error}
    if cfg["fd_reference"]:
        fd = american_put_fd(market.s0[0], cfg["strike"], market.rate,
                             market.sigma[0], mesh.maturity,
                             exercise_times=mesh.times)
        rel_dev = abs(estimate.price - fd.price) / fd.price
        files.append(_write_json(out_dir / "fd_reference.json",
                                 {"price": fd.price, "neural_price": estimate.price,
                                  "rel_dev": rel_dev}))
        files.append(_fd_boundary_csv(out_dir / "fd_boundary.csv", fd))
        summary["fd_price"] = fd.price
        summary["rel_dev"] = rel_dev
        manifest.phase("fd_reference")

    manifest.write(out_dir, files)
    return summary


def run_maxcall(cfg: dict, out_dir: Path, workers: int,
                paper_scale: bool = False) -> dict:
    manifest = _Manifest("maxcall", cfg, paper_scale, workers)
    n_repeats = cfg["n_repeats"]
    seeds = [repeat_seed(cfg["seed"], r) for r in range(n_repeats)]
    manifest.payload["repeat_seeds"] = seeds
    payloads = [{
        "market": cfg["market"], "mesh": cfg["mesh"], "strike": cfg["strike"],
        "eps": cfg["eps"], "eps_final": cfg.get("eps_final"),
        "g_kind": cfg["g_kind"], "hidden": cfg["hidden"],
        "init_level": cfg.get("init_level"), "drift_tilt": cfg["drift_tilt"],
        "train": cfg["train"], "n_eval": cfg["eval"]["n_paths"], "seed": s,
    } for s in seeds]
    results = _map_jobs(_maxcall_job, payloads, workers)
    manifest.phase("train_evaluate")

    files = [_write_csv(
        out_dir / "runs.csv",
        ["repeat", "seed", "price", "std_error", "n_paths", "iterations_run"],
        [(r, s, res["price"], res["std_error"], res["n_paths"], res["iterations_run"])
         for r, (s, res) in enumerate(zip(seeds, results))])]

    prices = [res["price"] for res in results]
    summary = {
        "price_mean": float(np.mean(prices)),
        "price_std_across_runs": _spread(prices),
        "mc_std_error": results[0]["std_error"],
        "n_repeats": n_repeats,
    }
    files.append(_write_json(out_dir / "summary.json", summary))

    market = GbmParams(**cfg["market"])
    mesh = _build_mesh(cfg["mesh"])
    spec = StoppingSpec(payoff_kind="max_call", strike=cfg["strike"],
                        rate=market.rate, mesh=mesh, eps=cfg["eps"],
                        g_kind=cfg["g_kind"])
    boundary = BoundaryNet.from_dict(results[0]["boundary"])
    boundary.save(out_dir / "boundary.json")
    files.append(out_dir / "boundary.json")
    coords = [f"z{i + 1}" for i in range(boundary.n_assets)]
    files.append(_write_csv(out_dir / "boundary.csv", ["time", *coords, "level"],
                            boundary_grid_rows(boundary, spec)))
    files.append(_write_csv(out_dir / "loss.csv", ["iteration", "loss"],
                            enumerate(results[0]["losses"])))

    manifest.write(out_dir, files)
    return summary


def run_heston_hedge(cfg: dict, out_dir: Path, workers: int,
                     paper_scale: bool = False) -> dict:
    manifest = _Manifest("heston-hedge", cfg, paper_scale, workers)
    market = HestonParams(**cfg["market"])
    n_repeats = cfg["n_repeats"]
    strikes = cfg["strikes"]

    payloads = []
    all_seeds = []
    for si, strike in enumerate(strikes):
        for r in range(n_repeats):
            s = repeat_seed(cfg["seed"], si * n_repeats + r)
            all_seeds.append(s)
            payloads.append({
                "market": cfg["market"], "maturity": cfg["maturity"],
                "n_steps": cfg["n_steps"], "strike": strike,
                "x0_mode": cfg["x0_mode"], "x0": cfg.get("x0"),
                "policy_inputs": cfg["policy_inputs"], "hidden": cfg["hidden"],
                "train": cfg["train"], "seed": s,
                "return_policy": r == 0,
            })
    manifest.payload["repeat_seeds"] = all_seeds
    results = _map_jobs(_hedge_job, payloads, workers)
    manifest.phase("train")

    price_rows = []
    summary_rows = []
    for si, strike in enumerate(strikes):
        oracle = heston_call_quote(market, strike, cfg["maturity"]).price
        learned = []
        for r in range(n_repeats):
            k = si * n_repeats + r
            price = results[k]["learned_price"]
            learned.append(price)
            price_rows.append((float(strike), r, all_seeds[k], price, oracle,
                               abs(price - oracle)))
        summary_rows.append({
            "strike": float(strike),
            "oracle_price": oracle,
            "price_mean": float(np.mean(learned)),
            "avg_abs_error": float(np.abs(np.array(learned) - oracle).mean()),
            "error_std": _spread(learned),
        })
    summary_header = ["strike", "oracle_price", "price_mean", "avg_abs_error", "error_std"]
    files = [
        _write_csv(out_dir / "prices.csv", ["strike", "repeat", "seed", "learned_price",
                                            "oracle_price", "abs_error"], price_rows),
        _write_csv(out_dir / "summary.csv", summary_header,
                   [[row[k] for k in summary_header] for row in summary_rows]),
    ]
    manifest.phase("aggregate")

    # Figure-style traces: one trained policy, common paths, full vs half
    # initial wealth.
    if cfg["trace_paths"] > 0:
        first = results[0]
        mesh = TimeMesh.uniform(cfg["maturity"], cfg["n_steps"])
        spec = HedgingSpec(market=market, strike=strikes[0], mesh=mesh,
                           x0_mode=cfg["x0_mode"], x0=cfg.get("x0"),
                           policy_inputs=cfg["policy_inputs"])
        policy = HedgePolicy(net=MLP.from_dict(first["policy"]),
                             inputs=first["policy_inputs"],
                             s0=market.s0, maturity=cfg["maturity"])
        trace_batch = simulate_heston(market, mesh, cfg["trace_paths"],
                                      derive_rng(cfg["seed"], "trace"))
        x_full = first["learned_price"] if cfg["x0_mode"] == "learnable" else float(cfg["x0"])
        for label, x0 in (("full", x_full), ("half", 0.5 * x_full)):
            outcome = wealth_rollout(policy, x0, trace_batch, spec)
            files.append(_write_csv(out_dir / f"trace_{label}.csv",
                                    ["path_id", "time", "stock", "wealth", "position"],
                                    hedge_trace_rows(outcome, trace_batch)))
        manifest.phase("traces")

    manifest.write(out_dir, files)
    return {"summary": summary_rows}


def run_merton(cfg: dict, out_dir: Path, workers: int,
               paper_scale: bool = False) -> dict:
    manifest = _Manifest("merton", cfg, paper_scale, workers)
    n_repeats = cfg["n_repeats"]
    report_rows = []
    table_rows = []
    dims = []
    for dim in cfg["dims"]:
        spec = MertonSpec.with_defaults(dim, n_data=cfg["n_data"],
                                        regime=cfg["regime"], rate=cfg["rate"])
        payloads = [{
            "spec": {"d": spec.d, "mu1": spec.mu1, "mu2": spec.mu2,
                     "sigma1": spec.sigma1, "sigma2": spec.sigma2,
                     "rate": spec.rate, "n_data": spec.n_data,
                     "regime": spec.regime},
            "hidden": cfg["hidden"], "train": cfg["train"],
            "seed": cfg["seed"], "root_seed": cfg["seed"], "repeat": r,
            "n_eval": cfg["n_eval"],
        } for r in range(n_repeats)]
        results = _map_jobs(_merton_job, payloads, workers)
        report_rows += [(dim, r, *(res[k] for k in _MERTON_REPORT_KEYS))
                        for r, res in enumerate(results)]
        p_in = [res["p_in"] for res in results]
        gap = [res["gap"] for res in results]
        dims.append({"dim": dim, "p_in_mean": float(np.mean(p_in)),
                     "gap_mean": float(np.mean(gap))})
        # table values in percent
        table_rows.append((dim, 100.0 * dims[-1]["p_in_mean"], 100.0 * _spread(p_in),
                           100.0 * dims[-1]["gap_mean"], 100.0 * _spread(gap)))
        manifest.phase(f"dim_{dim}")

    files = [
        _write_csv(out_dir / "reports.csv", ["dim", "repeat", *_MERTON_REPORT_KEYS],
                   report_rows),
        _write_csv(out_dir / "table.csv", ["dim", "p_in_mean_pct", "p_in_std_pct",
                                           "gap_mean_pct", "gap_std_pct"], table_rows),
    ]
    manifest.write(out_dir, files)
    return {"dims": dims}


def run_oracle(cfg: dict, out_dir: Path, workers: int,
               paper_scale: bool = False) -> dict:
    manifest = _Manifest("oracle", cfg, paper_scale, workers)
    method = cfg["method"]
    params = cfg["params"]
    seed = cfg["seed"]
    fd = None
    std_error = None

    if method == "fd-american-put":
        exercise = None
        if "exercise_mesh" in params:
            exercise = _build_mesh(params["exercise_mesh"]).times
        fd = american_put_fd(params["s0"], params["strike"], params["rate"],
                             params["sigma"], params["maturity"],
                             n_space=params.get("n_space", 500),
                             n_time=params.get("n_time", 800),
                             exercise_times=exercise)
        price, error_estimate = fd.price, None
    elif method == "heston-call":
        market = _heston_params(params["market"])
        quote = heston_call_quote(market, params["strike"], params["maturity"])
        price, error_estimate = quote.price, quote.error_estimate
    elif method == "black-scholes":
        fn = bs_call_price if params["kind"] == "call" else bs_put_price
        price = fn(params["s0"], params["strike"], params["rate"],
                   params["sigma"], params["maturity"], div=params.get("div", 0.0))
        error_estimate = 0.0
    elif method == "lsm-max-call":
        market = GbmParams(**params["market"])
        mesh = _build_mesh(params["mesh"])
        # through the module, so that a patched lsm.lsm_price is the one called
        res = lsm.lsm_price(market, params["strike"], mesh, params["n_paths"],
                            derive_rng(seed, "lsm"), payoff_kind="max_call",
                            degree=params.get("degree", 2))
        price, error_estimate = res.price, res.std_error
        std_error = res.std_error
    elif method == "binomial-american":
        price = binomial_american(params["s0"], params["strike"], params["rate"],
                                  params["sigma"], params["maturity"],
                                  params["n_steps"], kind=params["kind"],
                                  div=params.get("div", 0.0))
        error_estimate = None
    else:  # pragma: no cover - schema rejects unknown methods
        raise ConfigError(f"unknown oracle method {method!r}")
    manifest.phase("solve")

    payload = {"method": method, "params": params, "price": price,
               "error_estimate": error_estimate}
    if std_error is not None:
        payload["std_error"] = std_error
    files = [_write_json(out_dir / "price.json", payload)]
    if fd is not None:
        files.append(_fd_boundary_csv(out_dir / "fd_boundary.csv", fd))

    manifest.write(out_dir, files)
    return payload


_RUNNERS = {
    "put-boundary": run_put_boundary,
    "maxcall": run_maxcall,
    "heston-hedge": run_heston_hedge,
    "merton": run_merton,
    "oracle": run_oracle,
}


def run_experiment(tag: str, cfg: dict, out_dir: Path, workers: int,
                   paper_scale: bool = False) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    return _RUNNERS[tag](cfg, out_dir, workers, paper_scale=paper_scale)


# ----------------------------------------------------------------------
# plot-data emission


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = list(reader)
    return rows[0], rows[1:]


def emit_plots(run_dir: Path, out_dir: Path | None = None) -> list[Path]:
    """Derive plot-ready CSV bundles from a completed run directory.

    Fails before writing anything if the run directory has no manifest
    (so there are never partial plot files).
    """
    run_dir = Path(run_dir)
    manifest_path = run_dir / "manifest.json"
    if not manifest_path.exists():
        raise ConfigError(f"no manifest.json in {run_dir}; not a completed run")
    manifest = json.loads(manifest_path.read_text())
    tag = manifest["experiment"]
    plots = Path(out_dir) if out_dir is not None else run_dir / "plots"

    staged: list[tuple[Path, list[str], list[list[str]]]] = []

    if tag == "put-boundary":
        _, rows = _read_csv(run_dir / "boundary.csv")
        overlay = [["neural", t, lev] for t, lev in rows]
        fd_path = run_dir / "fd_boundary.csv"
        if fd_path.exists():
            _, fd_rows = _read_csv(fd_path)
            overlay += [["fd", t, lev] for t, lev in fd_rows]
        staged.append((plots / "boundary_overlay.csv",
                       ["source", "time", "level"], overlay))
        lh, lrows = _read_csv(run_dir / "loss.csv")
        staged.append((plots / "loss_curve.csv", lh, lrows))
    elif tag == "maxcall":
        header, rows = _read_csv(run_dir / "boundary.csv")
        staged.append((plots / "boundary_sections.csv", header, rows))
        lh, lrows = _read_csv(run_dir / "loss.csv")
        staged.append((plots / "loss_curve.csv", lh, lrows))
        rh, rrows = _read_csv(run_dir / "runs.csv")
        staged.append((plots / "price_runs.csv", rh, rrows))
    elif tag == "heston-hedge":
        full = run_dir / "trace_full.csv"
        half = run_dir / "trace_half.csv"
        if not (full.exists() and half.exists()):
            raise ConfigError(f"hedge run in {run_dir} has no trace files")
        fh_, frows = _read_csv(full)
        _, hrows = _read_csv(half)
        merged = [f + h[3:] for f, h in zip(frows, hrows)]
        staged.append((plots / "hedge_traces.csv",
                       ["path_id", "time", "stock", "wealth_full", "position_full",
                        "wealth_half", "position_half"], merged))
        sh, srows = _read_csv(run_dir / "summary.csv")
        staged.append((plots / "price_table.csv", sh, srows))
    elif tag == "merton":
        th, trows = _read_csv(run_dir / "table.csv")
        staged.append((plots / "overlearning_table.csv", th, trows))
        rh, rrows = _read_csv(run_dir / "reports.csv")
        staged.append((plots / "repeat_scatter.csv", rh, rrows))
    elif tag == "oracle":
        fd_path = run_dir / "fd_boundary.csv"
        if fd_path.exists():
            bh, brows = _read_csv(fd_path)
            staged.append((plots / "boundary_curve.csv", bh, brows))
        else:
            raise ConfigError(f"oracle run in {run_dir} has no plottable artifacts")
    else:
        raise ConfigError(f"unknown experiment {tag!r} in manifest")

    plots.mkdir(parents=True, exist_ok=True)
    return [_write_csv(path, header, rows) for path, header, rows in staged]
