"""End-to-end CLI tests: round trips, determinism, exit codes, plots."""

import csv
import hashlib
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from gtvclass.cli import REPORT_COLUMNS, SweepConfig, main
from gtvclass import ValidationError


def run(tmp_path, *argv):
    return main(["--out-dir", str(tmp_path)] + list(argv))


def write_sweep_config(tmp_path, **overrides):
    cfg = {
        "model": "builtin:quadrant",
        "n_list": [150, 300],
        "eps_rule": {"c": 1.0, "a": 1 / 3},
        "lambda_rule": {"regime": "overfit", "c": 1e-3, "b": 0.0},
        "kernel": "indicator",
        "seeds": [1, 2],
        "test_m": 400,
        "report": "report.csv",
    }
    cfg.update(overrides)
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_gen_solve_risk_round_trip(tmp_path, capsys):
    assert run(tmp_path, "gen", "--model", "builtin:quadrant", "--n", "120",
               "--out", "data.csv", "--seed", "4") == 0
    assert run(tmp_path, "solve", "--data", str(tmp_path / "data.csv"),
               "--eps", "0.2", "--lambda", "0.0001", "--out", "sol.json") == 0
    sol = json.loads((tmp_path / "sol.json").read_text())
    assert sol["certificate"] is True
    assert sol["u_binary"] == [int(v) for v in sol["u"]]
    capsys.readouterr()
    assert run(tmp_path, "risk", "--data", str(tmp_path / "data.csv"),
               "--model", "builtin:quadrant",
               "--solution", str(tmp_path / "sol.json"),
               "--test-m", "500", "--seed", "2") == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["empirical_risk"] == 0.0  # certified overfit reproduces labels
    assert rec["excess_risk"] >= -rec["ci_halfwidth"]


def test_solve_pd_method(tmp_path, capsys):
    run(tmp_path, "gen", "--model", "builtin:quadrant", "--n", "80",
        "--out", "d.csv", "--seed", "1")
    capsys.readouterr()
    assert run(tmp_path, "solve", "--data", str(tmp_path / "d.csv"),
               "--eps", "0.25", "--lambda", "0.05", "--method", "pd") == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["method"] == "primal_dual" and rec["iters"] > 0
    assert rec["energy_binary"] <= rec["energy_relaxed"] + 1e-9


def test_certify_subcommand(tmp_path, capsys):
    run(tmp_path, "gen", "--model", "builtin:quadrant", "--n", "60",
        "--out", "d.csv", "--seed", "2")
    capsys.readouterr()
    assert run(tmp_path, "certify", "--data", str(tmp_path / "d.csv"),
               "--eps", "0.2", "--lambda", "100.0") == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["certificate"] is False and rec["margin"] < 0


def test_sweep_report_schema_and_determinism(tmp_path):
    cfg = write_sweep_config(tmp_path)
    assert run(tmp_path, "sweep", "--config", cfg) == 0
    first = (tmp_path / "report.csv").read_text().splitlines()
    assert run(tmp_path, "--threads", "2", "sweep", "--config", cfg) == 0
    second = (tmp_path / "report.csv").read_text().splitlines()
    assert first[0].split(",") == REPORT_COLUMNS
    assert len(first) == 5

    def strip_runtime(lines):
        k = REPORT_COLUMNS.index("runtime_ms")
        return [",".join(v for i, v in enumerate(l.split(",")) if i != k)
                for l in lines]

    # byte-identical modulo the wall-clock column, threads notwithstanding
    assert strip_runtime(first) == strip_runtime(second)


# sha256 of the report below with runtime_ms blanked, recorded with the
# 8-nearest Voronoi query and the per-cell loop for model cell lookups
SMALL_CONSISTENT_REPORT_SHA256 = (
    "62f76ed2a34692550212a4d52758033676d3435e4eb3c43333afa1cc6c0283f3")


def test_sweep_report_bytes_pinned(tmp_path):
    # every evaluation column (test risk, Bayes agreement, TL1 proxy) goes
    # through the Voronoi query and the model's cell lookup
    cfg = write_sweep_config(
        tmp_path, n_list=[200, 500], eps_rule={"c": 0.7, "a": 1 / 3},
        lambda_rule={"regime": "consistent", "c": 0.15, "b": 0.25},
        seeds=[1, 2], test_m=2000)
    assert run(tmp_path, "sweep", "--config", cfg) == 0
    lines = (tmp_path / "report.csv").read_text().splitlines()
    assert len(lines) == 5 and lines[0].endswith(",runtime_ms")
    blanked = "\n".join(ln.rsplit(",", 1)[0] + "," for ln in lines)
    assert hashlib.sha256(blanked.encode()).hexdigest() == SMALL_CONSISTENT_REPORT_SHA256


def test_sweep_overfit_rows_reproduce_labels(tmp_path):
    cfg = write_sweep_config(tmp_path)
    run(tmp_path, "sweep", "--config", cfg)
    with open(tmp_path / "report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for r in rows:
        assert r["certificate"] == "true"
        assert float(r["empirical_risk"]) == 0.0
        assert float(r["label_agreement"]) == 1.0


def test_sweep_underfit_rows_are_constant_majority(tmp_path):
    cfg = write_sweep_config(
        tmp_path, model="builtin:asymmetric",
        lambda_rule={"regime": "underfit", "c": 1000.0, "b": 0.0},
        n_list=[200], seeds=[3])
    run(tmp_path, "sweep", "--config", cfg)
    with open(tmp_path / "report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for r in rows:
        # constant solution: gtv 0, empirical risk = minority fraction <= 1/2
        assert float(r["gtv_of_solution"]) == 0.0
        assert float(r["empirical_risk"]) <= 0.5
        assert float(r["label_agreement"]) == 1.0 - float(r["empirical_risk"])


def test_sweep_config_validation(tmp_path):
    bad = write_sweep_config(tmp_path, lambda_rule={"regime": "bogus", "c": 1.0})
    assert run(tmp_path, "sweep", "--config", bad) == 2
    with pytest.raises(ValidationError):
        SweepConfig({"model": "builtin:quadrant"})
    with pytest.raises(ValidationError):
        SweepConfig(json.loads((tmp_path / "sweep.json").read_text().replace(
            '"c": 1.0', '"c": -1.0')))


def test_sweep_config_rule_keys():
    base = {"model": "builtin:quadrant", "n_list": [10000], "seeds": [1],
            "eps_rule": {"c": 1.0, "a": 0.25}}

    def lam(rule):
        cfg = SweepConfig(dict(base, lambda_rule=rule))
        return cfg.lambda_of(10000, cfg.eps_of(10000))

    # consistent regime: c * n^(-b), with b = 1/4 when absent
    assert lam({"regime": "consistent", "c": 1, "b": 0.5}) == pytest.approx(0.01, rel=1e-12)
    assert lam({"regime": "consistent", "c": 1}) == pytest.approx(0.1, rel=1e-12)
    for bad in ({"regime": "consistent", "c": 1, "a": 0.5},
                {"regime": "fixed", "c": 1, "scale": 2}):
        with pytest.raises(ValidationError, match="lambda_rule has unknown keys"):
            SweepConfig(dict(base, lambda_rule=bad))
    with pytest.raises(ValidationError, match="eps_rule has unknown keys"):
        SweepConfig(dict(base, eps_rule={"c": 1.0, "a": 0.25, "b": 0.5},
                         lambda_rule={"regime": "fixed", "c": 1}))


def test_risk_reproduces_sweep_row(tmp_path, capsys):
    # risk runs the sweep's evaluation on the same streams, so a cell's cloud
    # (gen) and cut (solve) give back the row's evaluation columns exactly
    cfg = write_sweep_config(
        tmp_path, model="builtin:halfplane", n_list=[300], seeds=[3],
        eps_rule={"c": 0.7, "a": 1 / 3},
        lambda_rule={"regime": "consistent", "c": 0.15, "b": 0.25}, test_m=1000)
    assert run(tmp_path, "sweep", "--config", cfg) == 0
    with open(tmp_path / "report.csv", newline="") as fh:
        row = next(csv.DictReader(fh))
    assert run(tmp_path, "gen", "--model", "builtin:halfplane", "--n", row["n"],
               "--seed", row["seed"], "--out", "cell.csv") == 0
    assert run(tmp_path, "solve", "--data", str(tmp_path / "cell.csv"),
               "--eps", row["eps"], "--lambda", row["lambda"], "--out", "cell.json") == 0
    ub = json.loads((tmp_path / "cell.json").read_text())["u_binary"]
    assert 0 < sum(ub) < len(ub)
    capsys.readouterr()
    assert run(tmp_path, "risk", "--data", str(tmp_path / "cell.csv"),
               "--model", "builtin:halfplane", "--solution", str(tmp_path / "cell.json"),
               "--test-m", "1000", "--seed", row["seed"]) == 0
    rec = json.loads(capsys.readouterr().out)
    for col in ("empirical_risk", "label_agreement", "test_risk", "ci_halfwidth",
                "bayes_agreement", "excess_risk", "tl1_proxy"):
        assert rec[col] == float(row[col]), col


def write_bad_inputs(tmp_path):
    run(tmp_path, "gen", "--model", "builtin:quadrant", "--n", "50",
        "--out", "d.csv", "--seed", "3")
    run(tmp_path, "solve", "--data", str(tmp_path / "d.csv"), "--eps", "0.3",
        "--lambda", "0.01", "--out", "s.json")
    sol = json.loads((tmp_path / "s.json").read_text())
    files = {
        "short.json": dict(sol, u_binary=sol["u_binary"][:20]),
        "no_u.json": {k: v for k, v in sol.items() if k != "u_binary"},
        "model.json": {"domain": {"lo": [0, 0], "hi": ["a", 1]},
                       "density_cells": [], "mu_cells": []},
        "interface.json": [[0.5, 0.0, 0.5]],
        "list.json": [write_sweep_config(tmp_path)],
    }
    for name, obj in files.items():
        (tmp_path / name).write_text(json.dumps(obj))
    (tmp_path / "no_excess.csv").write_text("regime,n,eps\noverfit,100,0.1\n")
    (tmp_path / "bad_n.csv").write_text("regime,n,excess_risk\noverfit,abc,0.1\n")
    (tmp_path / "report.csv").write_text("regime,n,excess_risk\noverfit,100,0.1\n")


BAD_INPUTS = {
    "n-list-not-int": ["gamma-check", "--n-list", "300,abc"],
    "gen-negative-seed": ["gen", "--model", "builtin:quadrant", "--n", "10",
                          "--out", "x.csv", "--seed", "-1"],
    "risk-negative-seed": ["risk", "--data", "{d}/d.csv", "--model", "builtin:quadrant",
                           "--solution", "{d}/s.json", "--seed", "-1"],
    "gamma-negative-seed": ["--seed", "-1", "gamma-check", "--n-list", "100"],
    "threads-zero": ["--threads", "0", "sweep", "--config", "{d}/sweep.json"],
    "threads-negative": ["sweep", "--threads", "-1", "--config", "{d}/sweep.json"],
    "risk-no-u-binary": ["risk", "--data", "{d}/d.csv", "--model", "builtin:quadrant",
                         "--solution", "{d}/no_u.json"],
    "plot-no-u-binary": ["plot", "--data", "{d}/d.csv", "--solution", "{d}/no_u.json"],
    "plot-short-solution": ["plot", "--data", "{d}/d.csv", "--solution", "{d}/short.json"],
    "report-no-excess": ["plot", "--report", "{d}/no_excess.csv"],
    "report-bad-n": ["plot", "--report", "{d}/bad_n.csv"],
    "model-bad-number": ["gen", "--model", "{d}/model.json", "--n", "10", "--out", "y.csv"],
    "interface-bad-shape": ["gamma-check", "--interface", "{d}/interface.json",
                            "--n-list", "100"],
    "sweep-config-list": ["sweep", "--config", "{d}/list.json"],
    "plot-solution-no-data": ["plot", "--report", "{d}/report.csv", "--solution", "{d}/s.json"],
    "solve-kernel-scale": ["solve", "--data", "{d}/d.csv", "--eps", "0.3", "--lambda", "0.01",
                           "--kernel", "gauss:scale=0.5"],
    "sigma-kernel-scale": ["sigma", "--kernel", "gauss:scale=0.5"],
    "solve-eps-inf": ["solve", "--data", "{d}/d.csv", "--eps", "inf", "--lambda", "0.01"],
    **{"%s-lambda-%s" % (cmd, name): [cmd, "--data", "{d}/d.csv", "--eps", "0.3",
                                      "--lambda", value]
       for cmd in ("solve", "certify")
       for name, value in (("negative", "-1"), ("zero", "0"), ("nan", "nan"), ("inf", "inf"))},
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_malformed_input_exits_2(tmp_path, capsys, case):
    write_bad_inputs(tmp_path)
    argv = [a.format(d=tmp_path) for a in BAD_INPUTS[case]]
    try:
        code = run(tmp_path, *argv)
    except SystemExit as exc:   # argparse rejects the flag itself
        code = exc.code
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("overrides, key", [
    ({"tset_m": 400}, "tset_m"),
    ({"plots_dir": "plots"}, "plots_dir"),
    ({"n_list": "12"}, "n_list"),
    ({"seeds": "12"}, "seeds"),
    ({"seeds": [1, -2]}, "seeds"),
    ({"test_m": 50}, "test_m"),
    ({"test_m": 150.5}, "test_m"),
    ({"n_list": [500.9]}, "n_list"),
])
def test_sweep_config_strict_before_any_row(tmp_path, capsys, monkeypatch,
                                            overrides, key):
    def no_row(*args):
        raise AssertionError("a row ran before the config was rejected")
    monkeypatch.setattr("gtvclass.cli._run_one", no_row)
    assert run(tmp_path, "sweep", "--config",
               write_sweep_config(tmp_path, **overrides)) == 2
    assert key in capsys.readouterr().err


def test_readme_sweep_config_is_every_accepted_key():
    # the README's sweep config documents every top-level key the sweep takes
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"Sweep config \(JSON\):\s*```json\n(.*?)```", readme, re.S)
    raw = json.loads(block.group(1))
    SweepConfig(raw)
    assert set(raw) == set(SweepConfig.KEYS)


def test_exit_codes(tmp_path, capsys):
    # missing file -> I/O error
    assert run(tmp_path, "solve", "--data", str(tmp_path / "nope.csv"),
               "--eps", "0.1", "--lambda", "0.1") == 3
    # malformed JSON config -> validation error
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(tmp_path, "sweep", "--config", str(bad)) == 2
    # unknown builtin -> validation error
    assert run(tmp_path, "gen", "--model", "builtin:nope", "--n", "10",
               "--out", "x.csv") == 2
    capsys.readouterr()


def test_tl1_subcommand(tmp_path, capsys):
    run(tmp_path, "gen", "--model", "builtin:quadrant", "--n", "30",
        "--out", "a.csv", "--seed", "1")
    run(tmp_path, "gen", "--model", "builtin:quadrant", "--n", "30",
        "--out", "b.csv", "--seed", "2")
    capsys.readouterr()
    assert run(tmp_path, "tl1", "--a", str(tmp_path / "a.csv"),
               "--b", str(tmp_path / "b.csv")) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["cost"] > 0 and rec["sup_displacement"] > 0
    # identical inputs -> zero distance
    assert run(tmp_path, "tl1", "--a", str(tmp_path / "a.csv"),
               "--b", str(tmp_path / "a.csv")) == 0
    assert json.loads(capsys.readouterr().out)["cost"] == 0.0
    # unequal sizes -> validation error
    run(tmp_path, "gen", "--model", "builtin:quadrant", "--n", "10",
        "--out", "c.csv", "--seed", "3")
    assert run(tmp_path, "tl1", "--a", str(tmp_path / "a.csv"),
               "--b", str(tmp_path / "c.csv")) == 2


def test_sigma_subcommand(tmp_path, capsys):
    assert run(tmp_path, "sigma", "--kernel", "indicator", "--d", "2") == 0
    assert json.loads(capsys.readouterr().out)["sigma"] == pytest.approx(4 / 3)
    assert run(tmp_path, "sigma", "--kernel", "gauss", "--d", "1") == 0
    assert json.loads(capsys.readouterr().out)["sigma"] == pytest.approx(2.0, rel=1e-12)


def test_gamma_check_subcommand(tmp_path, capsys):
    assert run(tmp_path, "gamma-check", "--model", "builtin:halfplane",
               "--n-list", "300,900", "--seed", "5") == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["target"] == pytest.approx(4 / 3)
    assert [r["n"] for r in rec["rows"]] == [300, 900]


def test_plot_outputs_and_regime_filter(tmp_path, capsys):
    cfg = write_sweep_config(tmp_path)
    run(tmp_path, "sweep", "--config", cfg)
    run(tmp_path, "gen", "--model", "builtin:quadrant", "--n", "50",
        "--out", "d.csv", "--seed", "8")
    run(tmp_path, "solve", "--data", str(tmp_path / "d.csv"), "--eps", "0.25",
        "--lambda", "0.001", "--out", "s.json")
    capsys.readouterr()
    assert run(tmp_path, "plot", "--report", str(tmp_path / "report.csv"),
               "--data", str(tmp_path / "d.csv"),
               "--solution", str(tmp_path / "s.json")) == 0
    rec = json.loads(capsys.readouterr().out)
    assert len(rec["written"]) == 3
    for p in rec["written"]:
        assert os.path.exists(p)
        text = open(p).read()
        assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
    # empty regime filter errors and names the available regimes
    assert run(tmp_path, "plot", "--report", str(tmp_path / "report.csv"),
               "--regime", "underfit") == 2
    err = capsys.readouterr().err
    assert "overfit" in err


def test_plot_single_row_report(tmp_path, capsys):
    cfg = write_sweep_config(tmp_path, n_list=[100], seeds=[1])
    run(tmp_path, "sweep", "--config", cfg)
    capsys.readouterr()
    assert run(tmp_path, "plot", "--report", str(tmp_path / "report.csv")) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["written"] and os.path.exists(rec["written"][0])


def test_plot_nothing_to_do(tmp_path):
    assert run(tmp_path, "plot") == 2


def test_gen_deterministic_bytes(tmp_path):
    run(tmp_path, "gen", "--model", "builtin:asymmetric", "--n", "77",
        "--out", "g1.csv", "--seed", "12")
    run(tmp_path, "gen", "--model", "builtin:asymmetric", "--n", "77",
        "--out", "g2.csv", "--seed", "12")
    assert (tmp_path / "g1.csv").read_bytes() == (tmp_path / "g2.csv").read_bytes()


def test_sweep_energy_recompute_invariant(tmp_path):
    from gtvclass.graph import build
    from gtvclass.groundtruth import BUILTIN_MODELS, sample
    from gtvclass.kernels import KernelProfile
    from gtvclass.solver import energy

    cfg = write_sweep_config(tmp_path, n_list=[200], seeds=[5])
    run(tmp_path, "sweep", "--config", cfg)
    with open(tmp_path / "report.csv", newline="") as fh:
        row = next(iter(csv.DictReader(fh)))
    model = BUILTIN_MODELS["quadrant"]()
    cloud = sample(model, int(row["n"]), int(row["seed"]))
    g = build(cloud, float(row["eps"]), KernelProfile("indicator"))
    # the stored energy must match an independent recomputation
    u = cloud.labels.astype(float)  # overfit rows reproduce the labels
    e = energy(g, cloud.labels, float(row["lambda"]), u)
    assert abs(e - float(row["energy"])) <= 1e-9 * max(1.0, abs(e))
