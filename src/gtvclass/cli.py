"""Experiment driver: data generation, solving, regime sweeps, and plots.

Subcommands: gen, solve, certify, sweep, tl1, sigma, gamma-check, plot, risk.
Global flags, accepted before or after the subcommand: --out-dir roots the
relative output paths of every subcommand; --seed is read only by gen, risk
and gamma-check (sweep takes its seeds from the config); --threads (>= 1)
is read only by sweep. risk scores a solution with the sweep's evaluation.
--kernel is indicator|exp|exponential|gauss|gaussian with no options: the
profile eta(r/s) at eps and lambda is --eps s*eps --lambda s^(d+1)*lambda.
Everything is deterministic given the seeds; sweep reports are CSV with a
versioned schema (the runtime_ms column is the one wall-clock exception),
all other outputs are JSON records, plots are self-contained SVG.

Exit codes: 0 success, 2 invalid input (flags, JSON fields, report columns,
config keys, input files that are not UTF-8), 3 I/O error.
"""

import argparse
import csv
import io
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

import numpy as np

from . import (ValidationError, check_int, check_labels, check_number, json_value, read_field,
               read_json, read_object, read_text)
from .graph import build, gtv, num_components
from .groundtruth import (BUILTIN_MODELS, bayes_risk, load_cloud, load_model,
                          sample, save_cloud)
from .kernels import KernelProfile, surface_tension
from .metrics import (bayes_agreement, empirical_risk, gamma_check, test_risk,
                      tl1_exact, tl1_proxy_1nn, voronoi_extend)
from .solver import certify_overfit, solve_mincut

SCHEMA_VERSION = 1

REPORT_COLUMNS = [
    "schema_version", "n", "eps", "lambda", "regime", "seed", "method",
    "iters", "energy", "gtv_of_solution", "empirical_risk", "label_agreement",
    "bayes_agreement", "test_risk", "ci_halfwidth", "excess_risk", "tl1_proxy",
    "certificate", "margin", "components", "runtime_ms",
]


def _resolve_model(ref):
    if ref.startswith("builtin:"):
        name = ref.split(":", 1)[1]
        if name not in BUILTIN_MODELS:
            raise ValidationError("unknown builtin model %r; have %s"
                                  % (name, ", ".join(sorted(BUILTIN_MODELS))))
        return BUILTIN_MODELS[name]()
    return load_model(ref)


def _out_path(path, out_dir):
    path = path if os.path.isabs(path) else os.path.join(out_dir, path)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return path


def _emit_json(record, args, out=None):
    text = json.dumps(record, indent=2, sort_keys=True)
    if out:
        with open(_out_path(out, args.out_dir), "w") as fh:
            fh.write(text + "\n")
    print(text)


def _int_flag(lo):
    """A flag's text as an integer >= lo."""
    def integer(text):
        return check_int(int(text), "value", lo)
    return integer


def _ints(lo):
    """Checker of a nonempty JSON array of integers >= lo."""
    def integers(value, name):
        if not json_value(list)(value, name):
            raise ValidationError("%s must not be empty" % name)
        return [check_int(v, name, lo) for v in value]
    return integers


def _load_solution(path, cloud):
    return read_field(read_json(path), "u_binary", lambda v, _: check_labels(v, cloud.n), path)


def _rate(rule, n, formula, *args, **consts):
    """formula(n, *args, **consts), once it is positive and finite; an overflow counts as inf."""
    try:
        value = formula(n, *args, **consts)
    except OverflowError:
        value = np.inf
    return check_number(value, "%s at n = %d" % (rule, n), 0)


def _eps(n, c, a):
    return c * n ** (-a)


# ------------------------------------------------------------------ sweep

# lambda at (n, eps) under each regime tag, from lambda_rule's constants
LAMBDA_RULES = {
    "overfit": lambda n, eps, c, b: c * eps * n ** (-b),
    "consistent": lambda n, eps, c, b: c * n ** (-b),
    "fixed": lambda n, eps, c: c,
    "underfit": lambda n, eps, c, b: c * n ** b,
}
REGIMES = tuple(LAMBDA_RULES)


class SweepConfig:
    """Validated sweep description: each key of KEYS becomes an attribute, and
    rates[n] is the checked (eps, lambda) of the rows at n. eps_rule {c, a} gives
    c * n^-a and lambda_rule {regime, c, b} LAMBDA_RULES[regime] (fixed takes no b);
    every constant is required, and unknown keys, in either rule too, are rejected.
    """

    KEYS = {"model": json_value(str), "n_list": _ints(1), "eps_rule": json_value(dict),
            "lambda_rule": json_value(dict), "kernel": json_value(str), "seeds": _ints(0),
            "test_m": lambda v, name: check_int(v, name, 100), "report": json_value(str)}

    def __init__(self, raw):
        self.__dict__.update(read_object(raw, self.KEYS, "sweep config", kernel="indicator",
                                         test_m=2000, report="report.csv"))
        eps_consts = read_object(self.eps_rule, {"c": check_number, "a": check_number}, "eps_rule")
        self.regime = self.lambda_rule.get("regime")
        if self.regime not in REGIMES:
            raise ValidationError("lambda_rule.regime must be one of %s" % (REGIMES,))
        lam_of = LAMBDA_RULES[self.regime]
        lam_consts = read_object(
            self.lambda_rule, {"regime": json_value(str), "c": check_number,
                               **({} if self.regime == "fixed" else {"b": check_number})},
            "lambda_rule")
        del lam_consts["regime"]
        self.rates = {}   # n -> (eps, lambda), each positive and finite
        for n in self.n_list:
            eps = _rate("eps_rule", n, _eps, **eps_consts)
            self.rates[n] = eps, _rate("lambda_rule", n, lam_of, eps, **lam_consts)


def _evaluate(cloud, u_binary, model, m, seed):
    """The report's evaluation columns for a binary labeling of the cloud;
    the three fresh m-point draws use streams (seed, 101), (seed, 102), (seed, 103)."""
    er = empirical_risk(u_binary, cloud.labels)
    vc = voronoi_extend(cloud, u_binary)
    tr, ci = test_risk(vc, model, m, (seed, 101))
    return {
        "empirical_risk": er, "label_agreement": 1.0 - er, "test_risk": tr,
        "ci_halfwidth": ci, "excess_risk": tr - bayes_risk(model),
        "bayes_agreement": bayes_agreement(vc, model, m, (seed, 102)),
        "tl1_proxy": tl1_proxy_1nn(vc, model, m, (seed, 103)),
    }


def _run_one(model, profile, cfg, n, seed):
    cloud = sample(model, n, seed)
    eps, lam = cfg.rates[n]
    g = build(cloud, eps, profile)
    cert, margin = certify_overfit(g, lam)
    t0 = perf_counter()
    res = solve_mincut(g, cloud.labels, lam)
    ms = (perf_counter() - t0) * 1000.0
    return {
        "schema_version": SCHEMA_VERSION, "n": n, "eps": eps, "lambda": lam,
        "regime": cfg.regime, "seed": seed, "method": res.method,
        "iters": res.iters, "energy": res.energy_binary,
        "gtv_of_solution": gtv(g, res.u_binary), "certificate": bool(cert),
        "margin": margin, "components": num_components(g),
        "runtime_ms": round(ms, 3),
        **_evaluate(cloud, res.u_binary, model, cfg.test_m, seed),
    }


def run_sweep(cfg, out_dir=".", threads=1):
    """Run the whole (n, seed) grid on `threads` workers, persist the report.

    Rows are computed independently and sorted by (n, seed) before writing,
    so the output bytes do not depend on scheduling; only runtime_ms varies
    between identical runs.
    """
    model = _resolve_model(cfg.model)
    profile = KernelProfile(cfg.kernel)
    jobs = [(n, seed) for n in cfg.n_list for seed in cfg.seeds]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        rows = sorted(ex.map(lambda job: _run_one(model, profile, cfg, *job), jobs),
                      key=lambda r: (r["n"], r["seed"]))
    path = _out_path(cfg.report, out_dir)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(REPORT_COLUMNS)
        for r in rows:
            w.writerow([_fmt(r[c]) for c in REPORT_COLUMNS])
    return rows, path


def _fmt(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


# ------------------------------------------------------------------ SVG plots

_W, _H, _ML, _MB, _MT, _MR = 640, 480, 64, 48, 36, 24
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


def _px(v, lo, hi, a, b):
    if hi == lo:
        return 0.5 * (a + b)
    return a + (v - lo) * (b - a) / (hi - lo)


def _svg_doc(title, body):
    head = ['<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d">'
            % (_W, _H),
            '<rect width="%d" height="%d" fill="white"/>' % (_W, _H),
            '<text x="%d" y="22" text-anchor="middle" font-family="monospace" '
            'font-size="14">%s</text>' % (_W // 2, title),
            '<rect x="%d" y="%d" width="%d" height="%d" fill="none" '
            'stroke="#444"/>' % (_ML, _MT, _W - _ML - _MR, _H - _MT - _MB)]
    return "\n".join(head + body + ["</svg>"]) + "\n"


def _scatter_svg(points, values, title):
    # points and values as load_cloud and _load_solution checked them
    xy = points[:, :2] if points.shape[1] >= 2 else np.column_stack(
        [points[:, 0], np.full(len(points), 0.5)])
    lo, hi = xy.min(axis=0), xy.max(axis=0)
    body = []
    for p, v in zip(xy, values):
        cx = _px(p[0], lo[0], hi[0], _ML + 6, _W - _MR - 6)
        cy = _px(p[1], lo[1], hi[1], _H - _MB - 6, _MT + 6)
        body.append('<circle cx="%.2f" cy="%.2f" r="2.5" fill="%s"/>'
                    % (cx, cy, _COLORS[1] if v >= 0.5 else _COLORS[0]))
    body.append('<text x="%d" y="%d" font-family="monospace" font-size="12" '
                'fill="%s">class 0</text>' % (_ML, _H - 14, _COLORS[0]))
    body.append('<text x="%d" y="%d" font-family="monospace" font-size="12" '
                'fill="%s">class 1</text>' % (_ML + 90, _H - 14, _COLORS[1]))
    return _svg_doc(title, body)


def _curves_svg(series, title, ylabel):
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    xlo, xhi = np.log10(min(xs_all)), np.log10(max(xs_all))
    ylo, yhi = min(0.0, min(ys_all)), max(0.0, max(ys_all)) * 1.05 + 1e-12
    body = []
    for k, (label, xs, ys) in enumerate(series):
        color = _COLORS[k % len(_COLORS)]
        px = [(_px(np.log10(x), xlo, xhi, _ML + 8, _W - _MR - 8),
               _px(y, ylo, yhi, _H - _MB, _MT)) for x, y in zip(xs, ys)]
        if len(px) > 1:
            body.append('<polyline fill="none" stroke="%s" stroke-width="1.5" '
                        'points="%s"/>' % (color, " ".join(
                            "%.2f,%.2f" % p for p in px)))
        for p in px:
            body.append('<circle cx="%.2f" cy="%.2f" r="3" fill="%s"/>'
                        % (p[0], p[1], color))
        body.append('<text x="%d" y="%d" font-family="monospace" '
                    'font-size="12" fill="%s">%s</text>'
                    % (_W - _MR - 150, _MT + 16 + 14 * k, color, label))
    for x in sorted(set(xs_all)):
        cx = _px(np.log10(x), xlo, xhi, _ML + 8, _W - _MR - 8)
        body.append('<text x="%.2f" y="%d" text-anchor="middle" '
                    'font-family="monospace" font-size="11">%g</text>'
                    % (cx, _H - _MB + 16, x))
    for t in (ylo, 0.5 * (ylo + yhi), yhi):
        cy = _px(t, ylo, yhi, _H - _MB, _MT)
        body.append('<text x="%d" y="%.2f" text-anchor="end" '
                    'font-family="monospace" font-size="11">%.3g</text>'
                    % (_ML - 6, cy + 4, t))
    body.append('<text x="%d" y="%d" font-family="monospace" font-size="12">'
                'n (log scale) | %s</text>' % (_ML, _H - 8, ylabel))
    return _svg_doc(title, body)


# ------------------------------------------------------------------ commands

def _cmd_gen(args):
    model = _resolve_model(args.model)
    cloud = sample(model, args.n, args.seed)
    path = _out_path(args.out, args.out_dir)
    save_cloud(cloud, path)
    _emit_json({"path": path, "n": cloud.n, "d": cloud.d,
                "model": model.name, "seed": args.seed}, args)
    return 0


def _solve_common(args):
    # every flag is checked before the dataset is read
    eps, lam = check_number(args.eps, "eps", 0), check_number(args.lam, "lambda", 0)
    profile = KernelProfile(args.kernel)
    cloud = load_cloud(args.data)
    return cloud, build(cloud, eps, profile), lam


def _cmd_solve(args):
    cloud, g, lam = _solve_common(args)
    cert, margin = certify_overfit(g, lam)
    res = solve_mincut(g, cloud.labels, lam)
    _emit_json({
        "n": cloud.n, "eps": args.eps, "lambda": args.lam,
        "kernel": args.kernel, "method": res.method, "iters": res.iters,
        "u_binary": [int(v) for v in res.u_binary],
        "energy_binary": res.energy_binary, "gap": res.gap,
        "certificate": bool(cert), "margin": margin,
        "components": num_components(g), "schema_version": SCHEMA_VERSION,
    }, args, args.out)
    return 0


def _cmd_certify(args):
    cloud, g, lam = _solve_common(args)
    cert, margin = certify_overfit(g, lam)
    _emit_json({"n": cloud.n, "eps": args.eps, "lambda": args.lam,
                "certificate": bool(cert), "margin": margin}, args, args.out)
    return 0


def _cmd_sweep(args):
    cfg = SweepConfig(read_json(args.config))
    rows, path = run_sweep(cfg, out_dir=args.out_dir, threads=args.threads)
    _emit_json({"report": path, "rows": len(rows)}, args)
    return 0


def _cmd_tl1(args):
    a, b = load_cloud(args.a), load_cloud(args.b)
    r = tl1_exact(a.points, a.labels, b.points, b.labels)
    _emit_json({"n": a.n, "cost": r.cost,
                "sup_displacement": r.sup_displacement}, args, args.out)
    return 0


def _cmd_sigma(args):
    profile = KernelProfile(args.kernel)
    _emit_json({"kernel": args.kernel, "d": args.d,
                "sigma": surface_tension(profile, args.d)}, args, args.out)
    return 0


def _cmd_gamma_check(args):
    eps = {n: _rate("eps rule (--eps-c, --eps-a)", n, _eps, c=args.eps_c, a=args.eps_a)
           for n in args.n_list}
    model = _resolve_model(args.model)
    rows = gamma_check(model, KernelProfile(args.kernel), args.n_list, eps.__getitem__, args.seed)
    _emit_json({"target": rows[0]["target"], "rows": rows}, args, args.out)
    return 0


def _cmd_plot(args):
    if args.solution and not args.data:
        raise ValidationError("--solution needs the --data it labels")
    if args.regime is not None and not args.report:
        raise ValidationError("--regime filters the curves of a --report")
    docs = []   # (file name, SVG text)
    if args.report:
        raw = list(csv.DictReader(io.StringIO(read_text(args.report))))
        if not raw:
            raise ValidationError("report %s is empty" % args.report)
        groups = {}   # regime -> n -> excess risks
        for r in raw:
            tag, n, e = (read_field(r, key, kind, args.report) for key, kind in
                         (("regime", lambda text, _: text),
                          ("n", lambda text, key: check_int(int(text), key, 1)),
                          ("excess_risk", lambda text, key: check_number(float(text), key))))
            groups.setdefault(tag, {}).setdefault(n, []).append(e)
        if args.regime is not None:
            if args.regime not in groups:
                raise ValidationError("no rows for regime %r; available: %s"
                                      % (args.regime, ", ".join(sorted(groups))))
            groups = {args.regime: groups[args.regime]}
        series = [(tag, sorted(g), [float(np.median(g[n])) for n in sorted(g)])
                  for tag, g in sorted(groups.items())]
        docs.append(("excess_risk_vs_n.svg", _curves_svg(
            series, "median excess risk vs n", "excess risk")))
    if args.data:
        cloud = load_cloud(args.data)
        docs.append(("samples_by_label.svg", _scatter_svg(
            cloud.points, cloud.labels, "samples by label")))
        if args.solution:
            docs.append(("solution_level_set.svg", _scatter_svg(
                cloud.points, _load_solution(args.solution, cloud),
                "solution level set")))
    if not docs:
        raise ValidationError("nothing to plot: pass a report and/or a dataset")
    written = []
    for name, text in docs:
        written.append(_out_path(name, args.out_dir))
        with open(written[-1], "w") as fh:
            fh.write(text)
    _emit_json({"written": written}, args)
    return 0


def _cmd_risk(args):
    model = _resolve_model(args.model)
    cloud = load_cloud(args.data)
    ub = _load_solution(args.solution, cloud)
    _emit_json({"n": cloud.n, "test_m": args.test_m, "bayes_risk": bayes_risk(model),
                **_evaluate(cloud, ub, model, args.test_m, args.seed)},
               args, args.out)
    return 0


def _build_parser():
    p = argparse.ArgumentParser(
        prog="gtvclass",
        description="Graph-TV regularized binary classification on point "
                    "clouds: an exact min-cut solver, TL1 transport "
                    "distances, and regime-sweep experiment drivers.")
    # global flags, accepted after the subcommand too; SUPPRESS keeps the
    # subparser from clobbering values already parsed by the main parser
    common = argparse.ArgumentParser(add_help=False)
    for flag, kw in (("--seed", dict(type=_int_flag(0), default=0, help="base RNG seed")),
                     ("--out-dir", dict(default=".", help="directory for outputs")),
                     ("--threads", dict(type=_int_flag(1), default=1,
                                        help="parallel workers for sweeps"))):
        p.add_argument(flag, **kw)
        common.add_argument(flag, **dict(kw, default=argparse.SUPPRESS))
    sub = p.add_subparsers(dest="command", required=True)

    def add_parser(name, func, out=False, **kw):
        sp = sub.add_parser(name, parents=[common], **kw)
        sp.set_defaults(func=func)
        if out:
            sp.add_argument("--out", default=None, help="also write the JSON here")
        return sp

    sp = add_parser("gen", _cmd_gen, help="sample a labeled dataset from a model")
    sp.add_argument("--model", required=True,
                    help="model JSON path or builtin:<name>")
    sp.add_argument("--n", type=_int_flag(1), required=True)
    sp.add_argument("--out", required=True, help="output CSV path")

    for name, fn in (("solve", _cmd_solve), ("certify", _cmd_certify)):
        sp = add_parser(name, fn, out=True, help="%s a dataset instance" % name)
        sp.add_argument("--data", required=True, help="dataset CSV")
        sp.add_argument("--eps", type=float, required=True)
        sp.add_argument("--lambda", dest="lam", type=float, required=True)
        sp.add_argument("--kernel", default="indicator")

    sp = add_parser("sweep", _cmd_sweep, help="run a regime sweep from a JSON config")
    sp.add_argument("--config", required=True)

    sp = add_parser("tl1", _cmd_tl1, out=True, help="exact TL1 distance between two datasets")
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)

    sp = add_parser("sigma", _cmd_sigma, out=True, help="surface tension of a kernel")
    sp.add_argument("--kernel", default="indicator")
    sp.add_argument("--d", type=_int_flag(1), default=2)

    sp = add_parser("gamma-check", _cmd_gamma_check, out=True,
                    help="graph TV vs continuum target across n")
    sp.add_argument("--model", default="builtin:halfplane")
    sp.add_argument("--kernel", default="indicator")
    sp.add_argument("--n-list", default="1000,4000,16000",
                    type=lambda text: [_int_flag(1)(t) for t in text.split(",")])
    sp.add_argument("--eps-c", type=float, default=1.0)
    sp.add_argument("--eps-a", type=float, default=0.25)

    sp = add_parser("plot", _cmd_plot, help="emit SVG plots from reports/datasets")
    sp.add_argument("--report", default=None, help="sweep report CSV")
    sp.add_argument("--regime", default=None, help="filter curves to one regime")
    sp.add_argument("--data", default=None, help="dataset CSV to scatter")
    sp.add_argument("--solution", default=None,
                    help="solve JSON; adds the level-set scatter")

    sp = add_parser("risk", _cmd_risk, out=True, help="evaluate a stored solution's risks")
    sp.add_argument("--data", required=True)
    sp.add_argument("--model", required=True)
    sp.add_argument("--solution", required=True)
    sp.add_argument("--test-m", type=_int_flag(100), default=2000)
    return p


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
