"""End-to-end CLI tests: round trips, determinism, exit codes, plots."""

import csv
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gtvclass
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
    assert set(sol) == {"n", "eps", "lambda", "kernel", "method", "iters", "u_binary",
                        "energy_binary", "gap", "certificate", "margin", "components",
                        "schema_version"}
    assert sol["certificate"] is True
    assert 0 <= sol["gap"] <= 1e-4 * sol["energy_binary"]
    capsys.readouterr()
    assert run(tmp_path, "risk", "--data", str(tmp_path / "data.csv"),
               "--model", "builtin:quadrant",
               "--solution", str(tmp_path / "sol.json"),
               "--test-m", "500", "--seed", "2") == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["empirical_risk"] == 0.0  # certified overfit reproduces labels
    assert rec["excess_risk"] >= -rec["ci_halfwidth"]


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


@pytest.mark.parametrize("regime, rule, lam_of", [
    ("overfit", {"c": 0.01, "b": 0.5}, lambda n, eps: 0.01 * eps * n ** (-0.5)),
    ("consistent", {"c": 0.15, "b": 0.25}, lambda n, eps: 0.15 * n ** (-0.25)),
    ("fixed", {"c": 0.02}, lambda n, eps: 0.02),
    ("underfit", {"c": 0.15, "b": 0.25}, lambda n, eps: 0.15 * n ** 0.25),
])
def test_sweep_rates_bit_for_bit(tmp_path, regime, rule, lam_of):
    # each regime's eps and lambda columns equal the README's closed forms exactly
    cfg = write_sweep_config(
        tmp_path, n_list=[150, 2000], seeds=[1], test_m=100,
        eps_rule={"c": 0.7, "a": 1 / 3}, lambda_rule=dict(rule, regime=regime))
    assert run(tmp_path, "sweep", "--config", cfg) == 0
    with open(tmp_path / "report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["n"]) for r in rows] == [150, 2000]
    for r in rows:
        n = int(r["n"])
        eps = 0.7 * n ** (-(1 / 3))
        assert r["regime"] == regime
        assert float(r["eps"]) == eps
        assert float(r["lambda"]) == lam_of(n, eps)


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

    # consistent regime: c * n^(-b), checked once per n of n_list
    eps, lam = SweepConfig(dict(base, lambda_rule={"regime": "consistent", "c": 1, "b": 0.5})
                           ).rates[10000]
    assert eps == pytest.approx(0.1, rel=1e-12) and lam == pytest.approx(0.01, rel=1e-12)
    # b has no default: without it the rule names no rate
    with pytest.raises(ValidationError, match="lambda_rule: missing or malformed 'b'"):
        SweepConfig(dict(base, lambda_rule={"regime": "consistent", "c": 1}))
    # fixed gives c at every n, so a b there would change nothing
    for bad in ({"regime": "consistent", "c": 1, "a": 0.5},
                {"regime": "fixed", "c": 1, "scale": 2}, {"regime": "fixed", "c": 1, "b": 5}):
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
    one_d = {"domain": {"lo": [0], "hi": [1]},
             "density_cells": [{"lo": [0], "hi": [1], "value": 1.0}],
             "mu_cells": [{"lo": [0], "hi": [1], "value": 0.3}]}
    files = {
        "short.json": dict(sol, u_binary=sol["u_binary"][:20]),
        "no_u.json": {k: v for k, v in sol.items() if k != "u_binary"},
        "model.json": {"domain": {"lo": [0, 0], "hi": ["a", 1]},
                       "density_cells": [], "mu_cells": []},
        "model-nan.json": {"domain": {"lo": [0], "hi": [1]},
                           "density_cells": [{"lo": [0], "hi": [1], "value": 1.0}],
                           "mu_cells": [{"lo": [0], "hi": [1], "value": float("nan")}]},
        # JSON numbers only: no bool, no number in a string, no numeric name
        "model-bool.json": dict(one_d, mu_cells=[{"lo": [0], "hi": [1], "value": True}]),
        "model-string-number.json": dict(one_d, domain={"lo": [0], "hi": ["1e0"]}),
        "model-numeric-name.json": dict(one_d, name=5),
        "model-short-hi.json": {"domain": {"lo": [0, 0], "hi": [1, 1]},
                                "density_cells": [{"lo": [0, 0], "hi": [1, 1], "value": 1.0}],
                                "mu_cells": [{"lo": [0, 0], "hi": [1], "value": 0.3}]},
        "model-typo.json": {"domain": {"lo": [0], "hi": [1]}, "mu_typo": 3,
                            "density_cells": [{"lo": [0], "hi": [1], "value": 1.0}],
                            "mu_cells": [{"lo": [0], "hi": [1], "value": 0.3}]},
        "model-rho-jump.json": {"domain": {"lo": [0], "hi": [1]},
                                "density_cells": [{"lo": [0], "hi": [0.5], "value": 0.8},
                                                  {"lo": [0.5], "hi": [1], "value": 1.2}],
                                "mu_cells": [{"lo": [0], "hi": [0.5], "value": 0.3},
                                             {"lo": [0.5], "hi": [1], "value": 0.7}]},
        "list.json": [write_sweep_config(tmp_path)],
    }
    for name, obj in files.items():
        (tmp_path / name).write_text(json.dumps(obj))
    (tmp_path / "no_excess.csv").write_text("regime,n,eps\noverfit,100,0.1\n")
    (tmp_path / "bad_n.csv").write_text("regime,n,excess_risk\noverfit,abc,0.1\n")
    for name, row in (("inf", "2000,inf"), ("nan", "500,nan"), ("n-zero", "0,0.02")):
        (tmp_path / ("report-%s.csv" % name)).write_text(
            "regime,n,excess_risk\noverfit,100,0.1\noverfit,%s\n" % row)
    # a short row: csv reads the missing regime as None
    (tmp_path / "report-short-row.csv").write_text("n,excess_risk,regime\n100,0.1\n")
    (tmp_path / "report.csv").write_text("regime,n,excess_risk\noverfit,100,0.1\n")
    (tmp_path / "d3.csv").write_text("x0,x1,x2,y\n" + "".join(
        "%.3f,%.3f,%.3f,%d\n" % (i / 50, (i * 7 % 50) / 50, (i * 13 % 50) / 50, i % 2)
        for i in range(50)))
    run(tmp_path, "solve", "--data", str(tmp_path / "d3.csv"), "--eps", "0.3",
        "--lambda", "0.01", "--out", "s3.json")
    for name, row in (("nan", "nan,0.25,1"), ("inf", "0.5,inf,1"),
                      ("extra-field", "0.5,0.25,1,junk")):
        (tmp_path / ("data-%s.csv" % name)).write_text("x0,x1,y\n0.1,0.2,0\n%s\n" % row)


BAD_INPUTS = {
    "n-list-not-int": ["gamma-check", "--n-list", "300,abc"],
    "gen-negative-seed": ["gen", "--model", "builtin:quadrant", "--n", "10",
                          "--out", "x.csv", "--seed", "-1"],
    "risk-negative-seed": ["risk", "--data", "{d}/d.csv", "--model", "builtin:quadrant",
                           "--solution", "{d}/s.json", "--seed", "-1"],
    "gamma-negative-seed": ["--seed", "-1", "gamma-check", "--n-list", "100"],
    "threads-zero": ["--threads", "0", "sweep", "--config", "{d}/sweep.json"],
    "threads-negative": ["sweep", "--threads", "-1", "--config", "{d}/sweep.json"],
    "risk-dimension-mismatch": ["risk", "--data", "{d}/d3.csv", "--model", "builtin:quadrant",
                                "--solution", "{d}/s3.json"],
    "risk-no-u-binary": ["risk", "--data", "{d}/d.csv", "--model", "builtin:quadrant",
                         "--solution", "{d}/no_u.json"],
    "plot-no-u-binary": ["plot", "--data", "{d}/d.csv", "--solution", "{d}/no_u.json"],
    "plot-short-solution": ["plot", "--data", "{d}/d.csv", "--solution", "{d}/short.json"],
    "report-no-excess": ["plot", "--report", "{d}/no_excess.csv"],
    "report-bad-n": ["plot", "--report", "{d}/bad_n.csv"],
    **{"report-%s" % name: ["plot", "--report", "{d}/report-%s.csv" % name]
       for name in ("inf", "nan", "n-zero", "short-row")},
    "model-bad-number": ["gen", "--model", "{d}/model.json", "--n", "10", "--out", "y.csv"],
    "model-nan-mu": ["gen", "--model", "{d}/model-nan.json", "--n", "5", "--out", "y.csv"],
    **{"model-%s" % name: ["gen", "--model", "{d}/model-%s.json" % name, "--n", "5",
                           "--out", "y.csv"]
       for name in ("bool", "string-number", "numeric-name", "short-hi")},
    "model-unknown-key": ["gen", "--model", "{d}/model-typo.json", "--n", "5", "--out", "y.csv"],
    "gamma-interface-flag": ["gamma-check", "--interface", "{d}/s.json", "--n-list", "100"],
    "gamma-vertical-flag": ["gamma-check", "--vertical", "0.5", "--n-list", "100"],
    "gamma-model-rho-jump": ["gamma-check", "--model", "{d}/model-rho-jump.json",
                             "--n-list", "100"],
    "gamma-eps-overflow": ["gamma-check", "--n-list", "100", "--eps-a", "-400"],
    "gamma-eps-negative": ["gamma-check", "--n-list", "100,200", "--eps-c", "-1"],
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
    # eps, lambda and kernel are refused before the dataset is read: exit 2, not 3
    **{"%s-%s-before-data" % (cmd, name): [cmd, "--data", "{d}/missing.csv", *flags]
       for cmd in ("solve", "certify")
       for name, flags in (("eps", ["--eps", "0", "--lambda", "0.01"]),
                           ("lambda", ["--eps", "0.3", "--lambda", "0"]),
                           ("kernel", ["--eps", "0.3", "--lambda", "0.01", "--kernel", "bogus"]))},
    # and risk's builtin model name
    "risk-model-before-data": ["risk", "--data", "{d}/missing.csv", "--model", "builtin:bogus",
                               "--solution", "{d}/s.json"],
    **{"%s-data-%s" % (cmd, name): [cmd, "--data", "{d}/data-%s.csv" % name, "--eps", "0.3",
                                    "--lambda", "0.01"]
       for cmd in ("solve", "certify") for name in ("nan", "inf", "extra-field")},
    # the primal-dual method's flags, malformed or not: solve runs min-cut only and
    # refuses them
    **{"solve-%s-tol-%s" % (method, name): ["solve", "--data", "{d}/d.csv", "--eps", "0.3",
                                            "--lambda", "0.01", "--method", method,
                                            "--tol", value]
       for method in ("pd", "mincut")
       for name, value in (("inf", "inf"), ("nan", "nan"), ("one", "1"), ("two", "2"),
                           ("seven", "7"), ("zero", "0"), ("text", "abc"))},
    **{"solve-%s-max-iters-%s" % (method, name): ["solve", "--data", "{d}/d.csv", "--eps",
                                                  "0.3", "--lambda", "0.01", "--method",
                                                  method, "--max-iters", value]
       for method in ("pd", "mincut")
       for name, value in (("negative", "-1"), ("fraction", "2.7"), ("bool", "True"))},
    "solve-method-flag": ["solve", "--data", "{d}/d.csv", "--eps", "0.3", "--lambda", "0.01",
                          "--method", "pd"],
    "solve-max-iters-flag": ["solve", "--data", "{d}/d.csv", "--eps", "0.3", "--lambda",
                             "0.01", "--max-iters", "5"],
    "solve-tol-flag": ["solve", "--data", "{d}/d.csv", "--eps", "0.3", "--lambda", "0.01",
                       "--tol", "0.1"],
    "plot-regime-no-report": ["plot", "--data", "{d}/d.csv", "--regime", "nonsense"],
}


# the field that a case's message names, where it is not the flag itself
NAMED_FIELD = {"model-bad-number": "domain", "model-string-number": "domain"}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_malformed_input_exits_2(tmp_path, capsys, case):
    write_bad_inputs(tmp_path)
    argv = [a.format(d=tmp_path) for a in BAD_INPUTS[case]]
    try:
        code = run(tmp_path, *argv)
    except SystemExit as exc:   # argparse rejects the flag itself
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert NAMED_FIELD.get(case, "") in err


# one file per reader, each with bytes that are not UTF-8
NON_UTF8 = {
    "data": (b"x0,y\n0.5,1\n\xff\xfe,0\n",
             ["solve", "--data", "{f}", "--eps", "0.3", "--lambda", "0.01"]),
    "sweep-config": (b'{"model": "\xff"}\n', ["sweep", "--config", "{f}"]),
    "model": (b'{"name": "\xfe"}\n', ["gamma-check", "--model", "{f}", "--n-list", "100"]),
    "report": (b"regime,n,excess_risk\n\xff,100,0.1\n", ["plot", "--report", "{f}"]),
}


@pytest.mark.parametrize("case", sorted(NON_UTF8))
def test_non_utf8_input_exits_2(tmp_path, capsys, case):
    raw, argv = NON_UTF8[case]
    path = tmp_path / "input"
    path.write_bytes(raw)
    assert run(tmp_path, *[a.format(f=path) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not UTF-8" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("overrides, key", [
    ({"tset_m": 400}, "tset_m"),
    ({"plots_dir": "plots"}, "plots_dir"),
    ({"n_list": "12"}, "n_list"),
    ({"seeds": "12"}, "seeds"),
    ({"seeds": [1, -2]}, "seeds"),
    ({"test_m": 50}, "test_m"),
    ({"test_m": 150.5}, "test_m"),
    ({"n_list": [500.9]}, "n_list"),
    ({"report": None}, "report"),
    ({"report": 5}, "report"),
    ({"model": 5}, "model"),
    ({"eps_rule": [["c", 0.7], ["a", 0.333]]}, "eps_rule"),
    ({"eps_rule": {"c": "0.7", "a": 0.333}}, "eps_rule"),
    ({"eps_rule": {"c": 0.7, "a": True}}, "eps_rule"),
    ({"lambda_rule": {"regime": "overfit", "c": 1e-3, "b": False}}, "lambda_rule"),
    ({"n_list": ["500"]}, "n_list"),
    ({"seeds": ["1"]}, "seeds"),
    ({"test_m": "400"}, "test_m"),
    # Python's json reads NaN and Infinity (and 1e400) as floats, and an
    # integer of 401 digits that no float holds
    ({"eps_rule": {"c": 0.7, "a": float("nan")}}, "eps_rule"),
    ({"eps_rule": {"c": 1e400, "a": 0.3}}, "eps_rule"),
    ({"lambda_rule": {"regime": "consistent", "c": 0.15, "b": float("inf")}},
     "lambda_rule"),
    ({"lambda_rule": {"regime": "fixed", "c": float("nan")}}, "lambda_rule"),
    ({"eps_rule": {"c": 10 ** 400, "a": 0.3}}, "eps_rule"),
    # finite constants whose eps or lambda over- or underflows at n = 150
    ({"eps_rule": {"c": 0.7, "a": -400}}, "eps_rule"),
    ({"eps_rule": {"c": 0.7, "a": 400}}, "eps_rule"),
    ({"lambda_rule": {"regime": "underfit", "c": 0.15, "b": 400}}, "lambda_rule"),
    ({"lambda_rule": {"regime": "underfit", "c": 0.15, "b": -400}}, "lambda_rule"),
    # constants that give eps <= 0 or lambda <= 0 at every n
    ({"eps_rule": {"c": -0.7, "a": 0.3}}, "eps_rule"),
    ({"lambda_rule": {"regime": "fixed", "c": 0}}, "lambda_rule"),
    # every constant of a rule is required: no default c or b
    ({"lambda_rule": {"regime": "underfit", "c": 0.15}}, "lambda_rule"),
    ({"lambda_rule": {"regime": "consistent"}}, "lambda_rule"),
    ({"lambda_rule": {"regime": "fixed"}}, "lambda_rule"),
    ({"lambda_rule": {"regime": "overfit", "b": 0}}, "lambda_rule"),
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


def test_readme_quickstart_runs():
    # the README's library example, run as written in a fresh interpreter,
    # exits 0 and prints finite numbers
    root = Path(__file__).resolve().parents[1]
    block = re.search(r"## Quickstart \(library\)\s*```python\n(.*?)```",
                      (root / "README.md").read_text(), re.S).group(1)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", block], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    numbers = [float(t) for t in out.stdout.split()]
    assert numbers and np.all(np.isfinite(numbers))


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


def test_import_leaves_assignment_solver_unloaded():
    # only tl1_exact needs scipy.optimize, and it imports it when called
    env = dict(os.environ, PYTHONPATH=str(Path(gtvclass.__file__).parents[1]))
    subprocess.run([sys.executable, "-c", "import sys, gtvclass.cli; "
                    "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize loaded'"],
                   env=env, check=True)


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


def test_gamma_check_quadrant_target(tmp_path, capsys):
    # u_B's interface is the cross of length 2: sigma_eta * 2 = 8/3, not
    # the 4/3 of a single midline
    assert run(tmp_path, "gamma-check", "--model", "builtin:quadrant",
               "--n-list", "300") == 0
    assert json.loads(capsys.readouterr().out)["target"] == pytest.approx(8 / 3, rel=1e-12)


@pytest.mark.parametrize("d, target", [(1, 1.0), (3, np.pi / 2)])
def test_gamma_check_json_model_any_dimension(tmp_path, capsys, d, target):
    # mu flips at x0 = 1/2 of the unit cube: TV(u_B) = 1 and sigma_eta is
    # 1 in d = 1 and pi/2 in d = 3 for the indicator kernel
    def cell(lo, hi, value):
        return {"lo": lo, "hi": hi, "value": value}
    ones, zeros, mid = [1.0] * d, [0.0] * d, [0.5] + [1.0] * (d - 1)
    model = {"domain": {"lo": zeros, "hi": ones},
             "density_cells": [cell(zeros, ones, 1.0)],
             "mu_cells": [cell(zeros, mid, 0.7), cell([0.5] + zeros[1:], ones, 0.3)]}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    assert run(tmp_path, "gamma-check", "--model", str(path), "--n-list", "300") == 0
    assert json.loads(capsys.readouterr().out)["target"] == pytest.approx(target, rel=1e-9)


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


def test_plot_negative_excess_risks_inside_frame(tmp_path, capsys):
    (tmp_path / "report.csv").write_text(
        "regime,n,excess_risk\nconsistent,500,-0.010\nconsistent,2000,-0.004\n")
    assert run(tmp_path, "plot", "--report", str(tmp_path / "report.csv")) == 0
    text = open(json.loads(capsys.readouterr().out)["written"][0]).read()
    frame = re.search(r'<rect x="(\S+)" y="(\S+)" width="(\S+)" height="(\S+)" '
                      r'fill="none"', text)
    x0, y0, w, h = map(float, frame.groups())
    circles = re.findall(r'<circle cx="(\S+)" cy="(\S+)"', text)
    assert len(circles) == 2
    for cx, cy in circles:
        assert x0 <= float(cx) <= x0 + w and y0 <= float(cy) <= y0 + h


def test_plot_nothing_to_do(tmp_path):
    assert run(tmp_path, "plot") == 2


def test_gen_deterministic_bytes(tmp_path):
    run(tmp_path, "gen", "--model", "builtin:asymmetric", "--n", "77",
        "--out", "g1.csv", "--seed", "12")
    run(tmp_path, "gen", "--model", "builtin:asymmetric", "--n", "77",
        "--out", "g2.csv", "--seed", "12")
    assert (tmp_path / "g1.csv").read_bytes() == (tmp_path / "g2.csv").read_bytes()


def test_gen_builtin_noisy_halfplane(tmp_path, capsys):
    from gtvclass.groundtruth import (BUILTIN_MODELS, bayes_risk, bayes_tv, load_cloud,
                                      risk_of_constant)

    assert run(tmp_path, "gen", "--model", "builtin:noisy-halfplane", "--n", "40",
               "--out", "nh.csv", "--seed", "3") == 0
    assert json.loads(capsys.readouterr().out)["model"] == "noisy-halfplane"
    assert load_cloud(tmp_path / "nh.csv").points.shape == (40, 2)
    model = BUILTIN_MODELS["noisy-halfplane"]()
    assert bayes_risk(model) == pytest.approx(0.1, abs=1e-12)
    assert risk_of_constant(model, 0.0) == pytest.approx(0.5, abs=1e-12)
    assert risk_of_constant(model, 1.0) == pytest.approx(0.5, abs=1e-12)
    assert bayes_tv(model) == pytest.approx(1.0, abs=1e-12)


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
