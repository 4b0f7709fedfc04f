"""Command-line entry point.

    derm-lab <experiment> [--config cfg.json] [--seed N] [--paper-scale]
                          [--out DIR]
    derm-lab emit-plots --run DIR [--out DIR]

Experiments: put-boundary, maxcall, heston-hedge, merton, oracle.

Config files are JSON, validated against the bundled schemas after
merging over desk defaults; --paper-scale swaps in the full-size batch,
iteration and evaluation budgets.  Exit codes: 0 success, 2 config
error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import resources
from pathlib import Path

import jsonschema
from referencing import Registry, Resource

from .errors import ConfigError, DermError
from .experiments import config_hash, effective_config, emit_plots, run_experiment

EXPERIMENTS = ("put-boundary", "maxcall", "heston-hedge", "merton", "oracle")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def load_schema(tag: str) -> dict:
    name = tag.replace("-", "_") + ".json"
    with resources.files("derm_lab.schemas").joinpath(name).open() as fh:
        return json.load(fh)


def _schema_registry() -> Registry:
    """Every bundled schema file by name, so that references such as
    "common.json#/$defs/train" resolve."""
    files = resources.files("derm_lab.schemas")
    return Registry().with_resources(
        (f.name, Resource.from_contents(json.loads(f.read_text())))
        for f in files.iterdir() if f.name.endswith(".json"))


def validate_config(tag: str, cfg: dict) -> None:
    """Schema-check an effective config; raises ConfigError with the
    JSON path of the first offending field."""
    validator = jsonschema.Draft202012Validator(load_schema(tag),
                                                registry=_schema_registry())
    errors = sorted(validator.iter_errors(cfg), key=lambda e: list(e.absolute_path))
    if errors:
        err = errors[0]
        path = "$" + "".join(
            f"[{p}]" if isinstance(p, int) else f".{p}" for p in err.absolute_path
        )
        raise ConfigError(f"config error at {path}: {err.message}")


def _read_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        cfg = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return cfg


def _workers_from_env() -> int:
    raw = os.environ.get("DERM_LAB_WORKERS", "1")
    try:
        workers = int(raw)
    except ValueError:
        raise ConfigError(f"DERM_LAB_WORKERS must be an integer, got {raw!r}")
    if workers < 1:
        raise ConfigError(f"DERM_LAB_WORKERS must be >= 1, got {workers}")
    return workers


def _summary_lines(tag: str, result: dict) -> list[str]:
    if tag == "put-boundary":
        lines = [f"price {result['price']:.6f}  (MC std error {result['std_error']:.6f})"]
        if "fd_price" in result:
            lines.append(f"fd reference {result['fd_price']:.6f}  "
                         f"relative deviation {result['rel_dev']:.4%}")
        return lines
    if tag == "maxcall":
        return [f"price mean {result['price_mean']:.6f} over {result['n_repeats']} run(s)  "
                f"(across-run std {result['price_std_across_runs']:.6f}, "
                f"MC std error {result['mc_std_error']:.6f})"]
    if tag == "heston-hedge":
        return [f"strike {row['strike']:g}: learned mean {row['price_mean']:.6f}  "
                f"oracle {row['oracle_price']:.6f}  "
                f"avg |error| {row['avg_abs_error']:.6f}"
                for row in result["summary"]]
    if tag == "merton":
        return [f"d={row['dim']}: in-sample inflation {row['p_in_mean']:.2%}  "
                f"overlearning gap {row['gap_mean']:.2%}"
                for row in result["dims"]]
    if tag == "oracle":
        err = result.get("error_estimate")
        tail = "" if err is None else f"  (error estimate {err:.2e})"
        return [f"{result['method']}: price {result['price']:.8f}{tail}"]
    return []


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="derm-lab",
        description="Deep empirical risk minimization experiments for optimal "
                    "stopping, hedging and portfolio selection.")
    sub = parser.add_subparsers(dest="command", required=True)

    for tag in EXPERIMENTS:
        p = sub.add_parser(tag, help=f"run the {tag} experiment")
        p.add_argument("--config", help="JSON config file (merged over desk defaults)")
        p.add_argument("--seed", type=int, help="root seed override")
        p.add_argument("--paper-scale", action="store_true",
                       help="full-size batch/iteration/evaluation budgets")
        p.add_argument("--out", help="output directory (default runs/<tag>-<hash>)")

    p = sub.add_parser("emit-plots", help="derive plot-ready CSVs from a run directory")
    p.add_argument("--run", required=True, help="completed run directory")
    p.add_argument("--out", help="plot output directory (default <run>/plots)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "emit-plots":
            written = emit_plots(Path(args.run),
                                 Path(args.out) if args.out else None)
            for path in written:
                print(path)
            return EXIT_OK

        tag = args.command
        user_cfg = _read_config_file(args.config)
        cfg = effective_config(tag, user_cfg, paper_scale=args.paper_scale,
                               seed=args.seed)
        validate_config(tag, cfg)
        workers = _workers_from_env()
        out_dir = Path(args.out) if args.out else \
            Path("runs") / f"{tag}-{config_hash(cfg)[:8]}"
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        result = run_experiment(tag, cfg, out_dir, workers,
                                paper_scale=args.paper_scale)
    except DermError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC

    for line in _summary_lines(tag, result):
        print(line)
    print(f"artifacts in {out_dir}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
