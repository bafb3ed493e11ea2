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
config keys), 3 I/O error.
"""

import argparse
import csv
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

import numpy as np

from . import ValidationError
from .graph import build, gtv, num_components
from .groundtruth import (BUILTIN_MODELS, bayes_classify, bayes_risk,
                          load_cloud, load_model, sample, save_cloud)
from .kernels import KernelProfile, surface_tension
from .metrics import (bayes_agreement, continuum_tv_indicator, empirical_risk,
                      gamma_check, test_risk, tl1_exact, tl1_proxy_1nn,
                      voronoi_extend)
from .solver import SolverConfig, certify_overfit, solve_mincut, solve_primal_dual

SCHEMA_VERSION = 1
REGIMES = ("overfit", "consistent", "fixed", "underfit")

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


def _load_json(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError("malformed JSON in %s: %s" % (path, exc))


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


def _field(record, key, kind, where):
    """kind(record[key]); a missing or malformed field is a ValidationError."""
    try:
        return kind(record[key])
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ValidationError("%s: missing or malformed %r (%s)"
                              % (where, key, exc)) from None


def _int_from(lo):
    """Converter to an integer >= lo, from a flag's text or a JSON value."""
    def integer(value):
        if isinstance(value, (bool, float)) or int(value) < lo:
            raise ValueError("%r is not an integer >= %d" % (value, lo))
        return int(value)
    return integer


def _ints_from(lo):
    def integers(value):
        if not isinstance(value, list) or not value:
            raise ValueError("expected a nonempty list")
        return [_int_from(lo)(v) for v in value]
    return integers


def _read(raw, kinds, where, **defaults):
    """{key: kinds[key](raw[key])}; unknown or absent keys are a ValidationError."""
    if not isinstance(raw, dict):
        raise ValidationError("%s must be a JSON object" % where)
    unknown = sorted(set(raw) - set(kinds))
    if unknown:
        raise ValidationError("%s has unknown keys %s" % (where, unknown))
    raw = {**defaults, **raw}
    return {key: _field(raw, key, kind, where) for key, kind in kinds.items()}


def _load_solution(path, cloud):
    ub = _field(_load_json(path), "u_binary",
                lambda v: np.asarray(v, dtype=float), path)
    if ub.shape != (cloud.n,):
        raise ValidationError("solution length does not match the dataset")
    return ub


# ------------------------------------------------------------------ sweep

class SweepConfig:
    """Validated sweep description: each key of KEYS becomes an attribute.

    eps_rule {c, a} is c * n^-a. lambda_rule {regime, c, b} depends on the
    regime tag: overfit c*eps*n^-b, consistent c*n^-b, fixed c, underfit
    c*n^+b. Unknown keys, at the top level or in either rule, are rejected.
    """

    KEYS = {"model": str, "n_list": _ints_from(1), "eps_rule": dict,
            "lambda_rule": dict, "kernel": str, "seeds": _ints_from(0),
            "test_m": _int_from(100), "report": str}

    def __init__(self, raw):
        self.__dict__.update(_read(raw, self.KEYS, "sweep config", kernel="indicator",
                                   test_m=2000, report="report.csv"))
        self.eps_c, self.eps_a = _read(self.eps_rule, {"c": float, "a": float},
                                       "eps_rule").values()
        self.regime = self.lambda_rule.get("regime")
        if self.regime not in REGIMES:
            raise ValidationError("lambda_rule.regime must be one of %s"
                                  % (REGIMES,))
        _, self.lam_c, self.lam_b = _read(
            self.lambda_rule, {"regime": str, "c": float, "b": float}, "lambda_rule",
            c=1.0, b=0.25 if self.regime == "consistent" else 0.0).values()
        if self.eps_c <= 0 or self.lam_c <= 0:
            raise ValidationError("rule constants must be positive")

    def eps_of(self, n):
        return self.eps_c * n ** (-self.eps_a)

    def lambda_of(self, n, eps):
        c, b = self.lam_c, self.lam_b
        if self.regime == "overfit":
            return c * eps * n ** (-b)
        if self.regime == "consistent":
            return c * n ** (-b)
        if self.regime == "fixed":
            return c
        return c * n ** b


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
        "tl1_proxy": tl1_proxy_1nn(
            cloud, u_binary, model,
            lambda x: bayes_classify(model, x).astype(float), m, (seed, 103)),
    }


def _run_one(model, profile, cfg, n, seed):
    cloud = sample(model, n, seed)
    eps = cfg.eps_of(n)
    lam = cfg.lambda_of(n, eps)
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
    pts = np.asarray(points, dtype=float)
    xy = pts[:, :2] if pts.shape[1] >= 2 else np.column_stack(
        [pts[:, 0], np.full(len(pts), 0.5)])
    lo = xy.min(axis=0)
    hi = xy.max(axis=0)
    body = []
    for p, v in zip(xy, np.asarray(values, dtype=float)):
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
    ylo, yhi = min(0.0, min(ys_all)), max(ys_all) * 1.05 + 1e-12
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
    cloud = load_cloud(args.data)
    profile = KernelProfile(args.kernel)
    g = build(cloud, args.eps, profile)
    return cloud, g


def _cmd_solve(args):
    cloud, g = _solve_common(args)
    cert, margin = certify_overfit(g, args.lam)
    if args.method == "mincut":
        res = solve_mincut(g, cloud.labels, args.lam)
    else:
        res = solve_primal_dual(g, cloud.labels,
                                SolverConfig(args.lam, max_iters=args.max_iters,
                                             tol=args.tol))
    _emit_json({
        "n": cloud.n, "eps": args.eps, "lambda": args.lam,
        "kernel": args.kernel, "method": res.method, "iters": res.iters,
        "u": [float(v) for v in res.u],
        "u_binary": [int(v) for v in res.u_binary],
        "energy_relaxed": res.energy_relaxed,
        "energy_binary": res.energy_binary, "gap": res.gap,
        "converged": bool(res.converged), "certificate": bool(cert),
        "margin": margin, "components": num_components(g),
        "schema_version": SCHEMA_VERSION,
    }, args, args.out)
    return 0


def _cmd_certify(args):
    cloud, g = _solve_common(args)
    cert, margin = certify_overfit(g, args.lam)
    _emit_json({"n": cloud.n, "eps": args.eps, "lambda": args.lam,
                "certificate": bool(cert), "margin": margin}, args, args.out)
    return 0


def _cmd_sweep(args):
    cfg = SweepConfig(_load_json(args.config))
    rows, path = run_sweep(cfg, out_dir=args.out_dir, threads=args.threads)
    _emit_json({"report": path, "rows": len(rows)}, args)
    return 0


def _cmd_tl1(args):
    a = load_cloud(args.a)
    b = load_cloud(args.b)
    r = tl1_exact(a.points, a.labels.astype(float),
                  b.points, b.labels.astype(float))
    _emit_json({"n": a.n, "cost": r.cost,
                "sup_displacement": r.sup_displacement}, args, args.out)
    return 0


def _cmd_sigma(args):
    profile = KernelProfile(args.kernel)
    _emit_json({"kernel": args.kernel, "d": args.d,
                "sigma": surface_tension(profile, args.d)}, args, args.out)
    return 0


def _cmd_gamma_check(args):
    model = _resolve_model(args.model)
    if args.interface:
        interface = _field({"pieces": _load_json(args.interface)}, "pieces",
                           lambda v: np.asarray(v, dtype=float), args.interface)
    else:
        if model.d != 2:
            raise ValidationError("--vertical needs a 2-d model; pass --interface")
        lo, hi = model.lo[1], model.hi[1]
        interface = np.array([[[args.vertical, lo], [args.vertical, hi]]])
    profile = KernelProfile(args.kernel)
    rows = gamma_check(model, interface, profile, args.n_list,
                       lambda n: args.eps_c * n ** (-args.eps_a), args.seed)
    _emit_json({"target": rows[0]["target"], "rows": rows}, args, args.out)
    return 0


def _cmd_plot(args):
    if args.solution and not args.data:
        raise ValidationError("--solution needs the --data it labels")
    docs = []   # (file name, SVG text)
    if args.report:
        with open(args.report, newline="") as fh:
            raw = list(csv.DictReader(fh))
        if not raw:
            raise ValidationError("report %s is empty" % args.report)
        groups = {}   # regime -> n -> excess risks
        for r in raw:
            tag, n, e = (_field(r, key, kind, args.report) for key, kind in
                         (("regime", str), ("n", int), ("excess_risk", float)))
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
    cloud = load_cloud(args.data)
    model = _resolve_model(args.model)
    ub = _load_solution(args.solution, cloud)
    _emit_json({"n": cloud.n, "test_m": args.test_m, "bayes_risk": bayes_risk(model),
                **_evaluate(cloud, ub, model, args.test_m, args.seed)},
               args, args.out)
    return 0


def _build_parser():
    p = argparse.ArgumentParser(
        prog="gtvclass",
        description="Graph-TV regularized binary classification on point "
                    "clouds: exact and first-order solvers, TL1 transport "
                    "distances, and regime-sweep experiment drivers.")
    # global flags, accepted after the subcommand too; SUPPRESS keeps the
    # subparser from clobbering values already parsed by the main parser
    common = argparse.ArgumentParser(add_help=False)
    for flag, kw in (("--seed", dict(type=_int_from(0), default=0, help="base RNG seed")),
                     ("--out-dir", dict(default=".", help="directory for outputs")),
                     ("--threads", dict(type=_int_from(1), default=1,
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
    sp.add_argument("--n", type=_int_from(1), required=True)
    sp.add_argument("--out", required=True, help="output CSV path")

    for name, fn, extra in (("solve", _cmd_solve, True),
                            ("certify", _cmd_certify, False)):
        sp = add_parser(name, fn, out=True, help="%s a dataset instance" % name)
        sp.add_argument("--data", required=True, help="dataset CSV")
        sp.add_argument("--eps", type=float, required=True)
        sp.add_argument("--lambda", dest="lam", type=float, required=True)
        sp.add_argument("--kernel", default="indicator")
        if extra:
            sp.add_argument("--method", choices=("pd", "mincut"),
                            default="mincut")
            sp.add_argument("--max-iters", type=_int_from(0), default=20000)
            sp.add_argument("--tol", type=float, default=1e-7)

    sp = add_parser("sweep", _cmd_sweep, help="run a regime sweep from a JSON config")
    sp.add_argument("--config", required=True)

    sp = add_parser("tl1", _cmd_tl1, out=True, help="exact TL1 distance between two datasets")
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)

    sp = add_parser("sigma", _cmd_sigma, out=True, help="surface tension of a kernel")
    sp.add_argument("--kernel", default="indicator")
    sp.add_argument("--d", type=_int_from(1), default=2)

    sp = add_parser("gamma-check", _cmd_gamma_check, out=True,
                    help="graph TV vs continuum target across n")
    sp.add_argument("--model", default="builtin:halfplane")
    sp.add_argument("--kernel", default="indicator")
    sp.add_argument("--n-list", default="1000,4000,16000",
                    type=lambda text: _ints_from(1)(text.split(",")))
    sp.add_argument("--eps-c", type=float, default=1.0)
    sp.add_argument("--eps-a", type=float, default=0.25)
    sp.add_argument("--vertical", type=float, default=0.5,
                    help="x of a full-height interface segment (2-d models)")
    sp.add_argument("--interface", default=None,
                    help="JSON file with explicit interface pieces")

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
    sp.add_argument("--test-m", type=_int_from(100), default=2000)
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
