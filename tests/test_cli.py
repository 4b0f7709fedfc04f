"""Command-line behaviour: config merging, validation paths, exit codes,
artifact layout, determinism, and the plot deriver.

Everything drives main() directly so exit codes and messages are the ones
a shell would see.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from derm_lab.cli import (EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, EXPERIMENTS,
                          load_schema, main, validate_config)
from derm_lab.errors import ConfigError
from derm_lab.experiments import (DESK_DEFAULTS, config_hash, effective_config,
                                  repeat_seed)


def write_cfg(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


TINY_ORACLE = {"method": "black-scholes",
               "params": {"kind": "put", "s0": 40.0, "strike": 40.0,
                          "rate": 0.06, "sigma": 0.4, "maturity": 1.0}}

TINY_MERTON = {"dims": [2], "n_data": 64, "n_repeats": 2, "n_eval": 512,
               "hidden": [4], "train": {"batch_size": 32, "iterations": 40}}

TINY_PUT = {"mesh": {"kind": "uniform", "maturity": 1.0, "n_steps": 8},
            "hidden": [4], "train": {"batch_size": 32, "iterations": 3},
            "eval": {"n_paths": 2048}}

TINY_MAXCALL = {"mesh": {"kind": "uniform", "maturity": 3.0, "n_steps": 4},
                "hidden": [4], "train": {"batch_size": 32, "iterations": 3},
                "eval": {"n_paths": 5000}, "n_repeats": 2}

# batch-norm policies (the default) in two pooled jobs
TINY_HEDGE = {"strikes": [95.0, 105.0], "n_steps": 4, "hidden": [4],
              "train": {"batch_size": 32, "iterations": 3},
              "n_repeats": 1, "trace_paths": 4}


# ----------------------------------------------------------------------
# config plumbing


def test_effective_config_precedence():
    cfg = effective_config("merton", {"n_data": 128}, paper_scale=False, seed=7)
    assert cfg["n_data"] == 128            # user wins over desk default
    assert cfg["dims"] == [10, 40]         # untouched default survives
    assert cfg["seed"] == 7                # --seed wins over everything
    paper = effective_config("merton", {}, paper_scale=True, seed=None)
    assert paper["n_data"] == 100000
    assert paper["train"]["iterations"] == 20000


def test_effective_config_merge_is_deep():
    cfg = effective_config("maxcall", {"train": {"batch_size": 64}},
                           paper_scale=False, seed=None)
    assert cfg["train"]["batch_size"] == 64
    assert cfg["train"]["iterations"] == \
        DESK_DEFAULTS["maxcall"]["train"]["iterations"]


def test_config_hash_is_key_order_invariant():
    a = {"x": 1, "nested": {"p": [1, 2], "q": 0.5}}
    b = {"nested": {"q": 0.5, "p": [1, 2]}, "x": 1}
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash({"x": 2, "nested": a["nested"]})


def test_repeat_seeds_are_distinct():
    seeds = {repeat_seed(0, i) for i in range(64)}
    assert len(seeds) == 64


def test_load_schema_all_tags():
    for tag in EXPERIMENTS:
        schema = load_schema(tag)
        assert schema["type"] == "object"
        assert schema["additionalProperties"] is False


def test_validate_config_reports_field_path():
    cfg = effective_config("merton", {"train": {"batch_size": 1}},
                           paper_scale=False, seed=None)
    with pytest.raises(ConfigError) as exc:
        validate_config("merton", cfg)
    assert "$.train.batch_size" in str(exc.value)


def test_validate_config_rejects_unknown_key():
    cfg = effective_config("oracle", TINY_ORACLE | {"mystery": 1},
                           paper_scale=False, seed=None)
    with pytest.raises(ConfigError) as exc:
        validate_config("oracle", cfg)
    assert "mystery" in str(exc.value)


# ----------------------------------------------------------------------
# exit codes


def test_missing_config_file_is_config_error(tmp_path, capsys):
    code = main(["oracle", "--config", str(tmp_path / "nope.json")])
    assert code == EXIT_CONFIG
    assert "not found" in capsys.readouterr().err


def test_malformed_json_is_config_error(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["oracle", "--config", str(p)]) == EXIT_CONFIG
    assert "not valid JSON" in capsys.readouterr().err


def test_schema_violation_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TINY_ORACLE | {"method": "astrology"})
    assert main(["oracle", "--config", cfg]) == EXIT_CONFIG
    assert "$.method" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("lr_final", 1e-4), ("avg_tail", 0.3), ("stop_rule", "plateau"),
    ("plateau_rel_tol", 1e-3), ("plateau_patience", 10)])
def test_merton_rejects_train_keys_it_does_not_read(tmp_path, capsys, key, value):
    cfg = write_cfg(tmp_path, {"train": {key: value}})
    assert main(["merton", "--config", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "$.train" in err and key in err


def test_plateau_stop_with_tail_averaging_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"train": {"stop_rule": "plateau", "avg_tail": 0.3}})
    assert main(["put-boundary", "--config", cfg]) == EXIT_CONFIG
    assert "$.train.avg_tail" in capsys.readouterr().err


def test_bad_worker_env_is_config_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DERM_LAB_WORKERS", "many")
    cfg = write_cfg(tmp_path, TINY_ORACLE)
    assert main(["oracle", "--config", cfg,
                 "--out", str(tmp_path / "r")]) == EXIT_CONFIG
    assert "DERM_LAB_WORKERS" in capsys.readouterr().err


def test_numeric_failure_exits_3(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "method": "heston-call",
        "params": {
            "market": {"s0": 100.0, "v0": 0.04, "kappa": -2.0, "theta": 0.04,
                       "sigma_vol": 0.2, "rate": 0.0},
            "strike": 100.0, "maturity": 0.5}})
    code = main(["oracle", "--config", cfg, "--out", str(tmp_path / "r")])
    assert code == EXIT_NUMERIC
    assert "numeric failure" in capsys.readouterr().err


def test_oracle_run_succeeds(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TINY_ORACLE)
    out = tmp_path / "run"
    assert main(["oracle", "--config", cfg, "--out", str(out)]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "black-scholes" in stdout
    assert str(out) in stdout
    price = json.loads((out / "price.json").read_text())
    assert price["price"] == pytest.approx(5.05962313, abs=1e-7)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["experiment"] == "oracle"
    assert "price.json" in [f["name"] for f in manifest["files"]]
    assert manifest["config"]["method"] == "black-scholes"


def test_default_out_dir_uses_config_hash(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, TINY_ORACLE)
    assert main(["oracle", "--config", cfg]) == EXIT_OK
    eff = effective_config("oracle", TINY_ORACLE, paper_scale=False, seed=None)
    expect = Path("runs") / f"oracle-{config_hash(eff)[:8]}"
    assert expect.is_dir()
    assert (expect / "manifest.json").exists()


# ----------------------------------------------------------------------
# real (tiny) experiment runs


def run_merton_cli(tmp_path, out_name, extra_args=()):
    cfg = write_cfg(tmp_path, TINY_MERTON)
    out = tmp_path / out_name
    code = main(["merton", "--config", cfg, "--out", str(out), *extra_args])
    assert code == EXIT_OK
    return out


def test_merton_run_artifacts_and_determinism(tmp_path):
    out1 = run_merton_cli(tmp_path, "r1")
    out2 = run_merton_cli(tmp_path, "r2")
    for name in ("reports.csv", "table.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    rows = (out1 / "reports.csv").read_text().strip().split("\n")
    assert rows[0].startswith("dim,repeat,")
    assert len(rows) == 1 + 2  # header + dims x repeats


def test_put_boundary_run_artifacts_and_determinism(tmp_path):
    artifacts = {"price.json", "boundary.csv", "boundary.json", "loss.csv",
                 "fd_reference.json", "fd_boundary.csv"}
    cfg = write_cfg(tmp_path, TINY_PUT)
    outs = [tmp_path / "r1", tmp_path / "r2"]
    for out in outs:
        assert main(["put-boundary", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert {f.name for f in outs[0].iterdir()} == artifacts | {"manifest.json"}
    manifest = json.loads((outs[0] / "manifest.json").read_text())
    assert {f["name"] for f in manifest["files"]} == artifacts
    for name in artifacts:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    price = json.loads((outs[0] / "price.json").read_text())
    assert price["n_paths"] == 2048
    assert len((outs[0] / "boundary.csv").read_text().strip().split("\n")) == 1 + 9
    assert len((outs[0] / "loss.csv").read_text().strip().split("\n")) == 1 + 3


def _pooled_runs_agree(tmp_path, monkeypatch, tag, payload, artifacts):
    """Two serial runs and one over two workers: the artifact set matches
    the manifest and every artifact is byte-identical across the runs."""
    cfg = write_cfg(tmp_path, payload)
    outs = []
    for name, workers in (("r1", "1"), ("r2", "1"), ("pooled", "2")):
        monkeypatch.setenv("DERM_LAB_WORKERS", workers)
        outs.append(tmp_path / name)
        assert main([tag, "--config", cfg, "--out", str(outs[-1])]) == EXIT_OK
    assert {f.name for f in outs[0].iterdir()} == artifacts | {"manifest.json"}
    manifest = json.loads((outs[0] / "manifest.json").read_text())
    assert {f["name"] for f in manifest["files"]} == artifacts
    for name in artifacts:
        first = (outs[0] / name).read_bytes()
        assert all((out / name).read_bytes() == first for out in outs[1:]), name
    return outs[0]


def test_maxcall_run_artifacts_and_determinism(tmp_path, monkeypatch):
    out = _pooled_runs_agree(
        tmp_path, monkeypatch, "maxcall", TINY_MAXCALL,
        {"runs.csv", "summary.json", "boundary.json", "boundary.csv", "loss.csv"})
    runs = (out / "runs.csv").read_text().strip().split("\n")
    assert len(runs) == 1 + 2
    assert all(row.endswith(",5000,3") for row in runs[1:])
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_repeats"] == 2 and np.isfinite(summary["price_mean"])


def test_heston_hedge_run_artifacts_and_determinism(tmp_path, monkeypatch):
    out = _pooled_runs_agree(
        tmp_path, monkeypatch, "heston-hedge", TINY_HEDGE,
        {"prices.csv", "summary.csv", "trace_full.csv", "trace_half.csv"})
    assert len((out / "prices.csv").read_text().strip().split("\n")) == 1 + 2
    assert len((out / "summary.csv").read_text().strip().split("\n")) == 1 + 2
    # 4 trace paths x 5 dates
    assert len((out / "trace_full.csv").read_text().strip().split("\n")) == 1 + 4 * 5


def test_worker_count_does_not_change_results(tmp_path, monkeypatch):
    out1 = run_merton_cli(tmp_path, "serial")
    monkeypatch.setenv("DERM_LAB_WORKERS", "2")
    out2 = run_merton_cli(tmp_path, "parallel")
    assert (out1 / "reports.csv").read_bytes() == (out2 / "reports.csv").read_bytes()
    assert (out1 / "table.csv").read_bytes() == (out2 / "table.csv").read_bytes()


def test_seed_flag_changes_results(tmp_path):
    out1 = run_merton_cli(tmp_path, "s0")
    out2 = run_merton_cli(tmp_path, "s9", extra_args=("--seed", "9"))
    assert (out1 / "reports.csv").read_bytes() != (out2 / "reports.csv").read_bytes()


def test_fd_oracle_with_exercise_mesh(tmp_path):
    cfg = write_cfg(tmp_path, {
        "method": "fd-american-put",
        "params": {"s0": 40.0, "strike": 40.0, "rate": 0.06, "sigma": 0.4,
                   "maturity": 1.0, "n_space": 200, "n_time": 120}})
    out = tmp_path / "fd"
    assert main(["oracle", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert (out / "fd_boundary.csv").exists()
    price = json.loads((out / "price.json").read_text())
    assert price["price"] == pytest.approx(5.3184, abs=0.02)


# ----------------------------------------------------------------------
# emit-plots


def test_emit_plots_requires_manifest(tmp_path, capsys):
    empty = tmp_path / "not_a_run"
    empty.mkdir()
    assert main(["emit-plots", "--run", str(empty)]) == EXIT_CONFIG
    assert "manifest" in capsys.readouterr().err
    assert list(empty.iterdir()) == []  # nothing written on failure


def test_emit_plots_merton(tmp_path, capsys):
    out = run_merton_cli(tmp_path, "run")
    capsys.readouterr()
    assert main(["emit-plots", "--run", str(out)]) == EXIT_OK
    printed = capsys.readouterr().out.strip().split("\n")
    plots = out / "plots"
    assert plots.is_dir()
    names = {p.name for p in plots.iterdir()}
    assert names == {"overlearning_table.csv", "repeat_scatter.csv"}
    assert {Path(line).name for line in printed} == names


def test_emit_plots_custom_out_dir(tmp_path):
    run = run_merton_cli(tmp_path, "run2")
    dest = tmp_path / "figures"
    assert main(["emit-plots", "--run", str(run), "--out", str(dest)]) == EXIT_OK
    assert (dest / "repeat_scatter.csv").exists()
    assert not (run / "plots").exists()
