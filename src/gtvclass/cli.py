"""Experiment driver: data generation, solving, regime sweeps, and plots.

Subcommands: gen, solve, certify, sweep, tl1, sigma, gamma-check, plot, risk.
Global flags, accepted before or after the subcommand: --out-dir roots the
relative output paths of every subcommand; --seed is read only by gen, risk
and gamma-check (sweep takes its seeds from the config); --threads is read
only by sweep.
Everything is deterministic given the seeds; sweep reports are CSV with a
versioned schema (the runtime_ms column is the one wall-clock exception),
all other outputs are JSON records, plots are self-contained SVG.

Exit codes: 0 success, 2 validation error, 3 I/O error.
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
from .kernels import parse_kernel, surface_tension
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


def _emit_json(record, args):
    text = json.dumps(record, indent=2, sort_keys=True)
    if getattr(args, "out", None):
        with open(_out_path(args.out, args.out_dir), "w") as fh:
            fh.write(text + "\n")
    print(text)


# ------------------------------------------------------------------ sweep

class SweepConfig:
    """Validated sweep description: model, schedules, seeds, output paths.

    eps_rule {c, a} is c * n^-a. lambda_rule {regime, c, b} depends on the
    regime tag: overfit c*eps*n^-b, consistent c*n^-b, fixed c, underfit
    c*n^+b. Unknown keys in either rule are rejected.
    """

    def __init__(self, raw):
        try:
            self.model_ref = raw["model"]
            self.n_list = [int(n) for n in raw["n_list"]]
            self.eps_c = float(raw["eps_rule"]["c"])
            self.eps_a = float(raw["eps_rule"]["a"])
            self.lambda_rule = dict(raw["lambda_rule"])
            self.kernel = raw.get("kernel", "indicator")
            self.seeds = [int(s) for s in raw["seeds"]]
            self.test_m = int(raw.get("test_m", 2000))
            self.report = raw.get("report", "report.csv")
            self.plots_dir = raw.get("plots_dir")
        except KeyError as exc:
            raise ValidationError("sweep config is missing key %s" % exc)
        for rule, keys in (("eps_rule", {"c", "a"}),
                           ("lambda_rule", {"regime", "c", "b"})):
            unknown = sorted(set(raw[rule]) - keys)
            if unknown:
                raise ValidationError("%s has unknown keys %s" % (rule, unknown))
        self.regime = self.lambda_rule.get("regime")
        if self.regime not in REGIMES:
            raise ValidationError("lambda_rule.regime must be one of %s"
                                  % (REGIMES,))
        if not self.n_list or min(self.n_list) < 1:
            raise ValidationError("n_list must be nonempty positive")
        if not self.seeds:
            raise ValidationError("need at least one seed")
        if self.eps_c <= 0 or float(self.lambda_rule.get("c", 1.0)) <= 0:
            raise ValidationError("rule constants must be positive")

    def eps_of(self, n):
        return self.eps_c * n ** (-self.eps_a)

    def lambda_of(self, n, eps):
        c = float(self.lambda_rule.get("c", 1.0))
        if self.regime == "overfit":
            lam = c * eps * n ** (-float(self.lambda_rule.get("b", 0.0)))
        elif self.regime == "consistent":
            lam = c * n ** (-float(self.lambda_rule.get("b", 0.25)))
        elif self.regime == "fixed":
            lam = c
        else:
            lam = c * n ** float(self.lambda_rule.get("b", 0.0))
        if not (lam > 0):
            raise ValidationError("lambda rule produced a nonpositive value")
        return lam


def _run_one(model, profile, cfg, n, seed):
    cloud = sample(model, n, seed)
    eps = cfg.eps_of(n)
    lam = cfg.lambda_of(n, eps)
    g = build(cloud, eps, profile)
    cert, margin = certify_overfit(g, lam)
    t0 = perf_counter()
    res = solve_mincut(g, cloud.labels, lam)
    ms = (perf_counter() - t0) * 1000.0
    ub = res.u_binary
    er = empirical_risk(ub, cloud.labels)
    vc = voronoi_extend(cloud, ub)
    tr, ci = test_risk(vc, model, cfg.test_m, (seed, 101))
    ba = bayes_agreement(vc, model, cfg.test_m, (seed, 102))
    tp = tl1_proxy_1nn(cloud, ub, model,
                       lambda x: bayes_classify(model, x).astype(float),
                       cfg.test_m, (seed, 103))
    return {
        "schema_version": SCHEMA_VERSION, "n": n, "eps": eps, "lambda": lam,
        "regime": cfg.regime, "seed": seed, "method": res.method,
        "iters": res.iters, "energy": res.energy_binary,
        "gtv_of_solution": gtv(g, ub), "empirical_risk": er,
        "label_agreement": 1.0 - er, "bayes_agreement": ba, "test_risk": tr,
        "ci_halfwidth": ci, "excess_risk": tr - bayes_risk(model),
        "tl1_proxy": tp, "certificate": bool(cert), "margin": margin,
        "components": num_components(g), "runtime_ms": round(ms, 3),
    }


def run_sweep(cfg, out_dir=".", threads=1):
    """Run the whole (n, seed) grid and persist the report CSV.

    Rows are computed independently (optionally in parallel) and sorted by
    (n, seed) before writing, so the output bytes do not depend on scheduling;
    only runtime_ms varies between identical runs.
    """
    model = _resolve_model(cfg.model_ref)
    profile = parse_kernel(cfg.kernel)
    jobs = [(n, seed) for n in cfg.n_list for seed in cfg.seeds]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            rows = list(ex.map(lambda js: _run_one(model, profile, cfg, *js), jobs))
    else:
        rows = [_run_one(model, profile, cfg, n, s) for n, s in jobs]
    rows.sort(key=lambda r: (r["n"], r["seed"]))
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


def emit_plots(rows=None, out_dir=".", regime=None, cloud=None, u_binary=None):
    """Write the requested SVG files; returns the list of paths written."""
    written = []
    if rows is not None:
        if regime is not None:
            have = sorted({r["regime"] for r in rows})
            rows = [r for r in rows if r["regime"] == regime]
            if not rows:
                raise ValidationError("no rows for regime %r; available: %s"
                                      % (regime, ", ".join(have)))
        series = []
        for tag in sorted({r["regime"] for r in rows}):
            sub = [r for r in rows if r["regime"] == tag]
            ns = sorted({r["n"] for r in sub})
            med = [float(np.median([r["excess_risk"] for r in sub
                                    if r["n"] == n])) for n in ns]
            series.append((tag, ns, med))
        path = os.path.join(out_dir, "excess_risk_vs_n.svg")
        with open(path, "w") as fh:
            fh.write(_curves_svg(series, "median excess risk vs n", "excess risk"))
        written.append(path)
    if cloud is not None:
        path = os.path.join(out_dir, "samples_by_label.svg")
        with open(path, "w") as fh:
            fh.write(_scatter_svg(cloud.points, cloud.labels, "samples by label"))
        written.append(path)
        if u_binary is not None:
            path = os.path.join(out_dir, "solution_level_set.svg")
            with open(path, "w") as fh:
                fh.write(_scatter_svg(cloud.points, u_binary,
                                      "solution level set"))
            written.append(path)
    if not written:
        raise ValidationError("nothing to plot: pass a report and/or a dataset")
    return written


# ------------------------------------------------------------------ commands

def _cmd_gen(args):
    model = _resolve_model(args.model)
    cloud = sample(model, args.n, args.seed)
    path = _out_path(args.out, args.out_dir)
    save_cloud(cloud, path)
    _emit_json({"path": path, "n": cloud.n, "d": cloud.d,
                "model": model.name, "seed": args.seed},
               argparse.Namespace(out=None, out_dir=args.out_dir))
    return 0


def _solve_common(args):
    cloud = load_cloud(args.data)
    profile = parse_kernel(args.kernel)
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
    }, args)
    return 0


def _cmd_certify(args):
    cloud, g = _solve_common(args)
    cert, margin = certify_overfit(g, args.lam)
    _emit_json({"n": cloud.n, "eps": args.eps, "lambda": args.lam,
                "certificate": bool(cert), "margin": margin}, args)
    return 0


def _cmd_sweep(args):
    cfg = SweepConfig(_load_json(args.config))
    rows, path = run_sweep(cfg, out_dir=args.out_dir, threads=args.threads)
    if cfg.plots_dir:
        os.makedirs(_out_path(cfg.plots_dir, args.out_dir), exist_ok=True)
        emit_plots(rows=rows, out_dir=_out_path(cfg.plots_dir, args.out_dir))
    _emit_json({"report": path, "rows": len(rows)},
               argparse.Namespace(out=None, out_dir=args.out_dir))
    return 0


def _cmd_tl1(args):
    a = load_cloud(args.a)
    b = load_cloud(args.b)
    r = tl1_exact(a.points, a.labels.astype(float),
                  b.points, b.labels.astype(float))
    _emit_json({"n": a.n, "cost": r.cost,
                "sup_displacement": r.sup_displacement}, args)
    return 0


def _cmd_sigma(args):
    profile = parse_kernel(args.kernel)
    _emit_json({"kernel": args.kernel, "d": args.d,
                "sigma": surface_tension(profile, args.d)}, args)
    return 0


def _cmd_gamma_check(args):
    model = _resolve_model(args.model)
    if args.interface:
        interface = np.asarray(_load_json(args.interface), dtype=float)
    else:
        if model.d != 2:
            raise ValidationError("--vertical needs a 2-d model; pass --interface")
        lo, hi = model.lo[1], model.hi[1]
        interface = np.array([[[args.vertical, lo], [args.vertical, hi]]])
    profile = parse_kernel(args.kernel)
    n_list = [int(s) for s in args.n_list.split(",")]
    rows = gamma_check(model, interface, profile, n_list,
                       lambda n: args.eps_c * n ** (-args.eps_a), args.seed)
    _emit_json({"target": rows[0]["target"] if rows else 0.0, "rows": rows}, args)
    return 0


def _cmd_plot(args):
    rows = None
    if args.report:
        with open(args.report, newline="") as fh:
            raw = list(csv.DictReader(fh))
        if not raw:
            raise ValidationError("report %s is empty" % args.report)
        rows = [{"regime": r["regime"], "n": int(r["n"]),
                 "excess_risk": float(r["excess_risk"])} for r in raw]
    cloud = load_cloud(args.data) if args.data else None
    ub = None
    if args.solution:
        ub = np.asarray(_load_json(args.solution)["u_binary"], dtype=float)
    os.makedirs(args.out_dir, exist_ok=True)
    written = emit_plots(rows=rows, out_dir=args.out_dir, regime=args.regime,
                         cloud=cloud, u_binary=ub)
    _emit_json({"written": written},
               argparse.Namespace(out=None, out_dir=args.out_dir))
    return 0


def _cmd_risk(args):
    cloud = load_cloud(args.data)
    model = _resolve_model(args.model)
    sol = _load_json(args.solution)
    ub = np.asarray(sol["u_binary"], dtype=float)
    if ub.shape != (cloud.n,):
        raise ValidationError("solution length does not match the dataset")
    vc = voronoi_extend(cloud, ub)
    tr, ci = test_risk(vc, model, args.test_m, args.seed)
    rb = bayes_risk(model)
    _emit_json({
        "n": cloud.n, "test_m": args.test_m,
        "empirical_risk": empirical_risk(ub, cloud.labels),
        "test_risk": tr, "ci_halfwidth": ci, "bayes_risk": rb,
        "excess_risk": tr - rb,
        "bayes_agreement": bayes_agreement(vc, model, args.test_m,
                                           (args.seed, 1)),
    }, args)
    return 0


def _build_parser():
    p = argparse.ArgumentParser(
        prog="gtvclass",
        description="Graph-TV regularized binary classification on point "
                    "clouds: exact and first-order solvers, TL1 transport "
                    "distances, and regime-sweep experiment drivers.")
    p.add_argument("--seed", type=int, default=0, help="base RNG seed")
    p.add_argument("--out-dir", default=".", help="directory for outputs")
    p.add_argument("--threads", type=int, default=1,
                   help="parallel workers for sweeps")
    # accept the global flags after the subcommand too; SUPPRESS keeps the
    # subparser from clobbering values already parsed by the main parser
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--out-dir", default=argparse.SUPPRESS)
    common.add_argument("--threads", type=int, default=argparse.SUPPRESS)
    sub = p.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    sp = add_parser("gen", help="sample a labeled dataset from a model")
    sp.add_argument("--model", required=True,
                    help="model JSON path or builtin:<name>")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--out", required=True, help="output CSV path")
    sp.set_defaults(func=_cmd_gen)

    for name, fn, extra in (("solve", _cmd_solve, True),
                            ("certify", _cmd_certify, False)):
        sp = add_parser(name, help="%s a dataset instance" % name)
        sp.add_argument("--data", required=True, help="dataset CSV")
        sp.add_argument("--eps", type=float, required=True)
        sp.add_argument("--lambda", dest="lam", type=float, required=True)
        sp.add_argument("--kernel", default="indicator")
        if extra:
            sp.add_argument("--method", choices=("pd", "mincut"),
                            default="mincut")
            sp.add_argument("--max-iters", type=int, default=20000)
            sp.add_argument("--tol", type=float, default=1e-7)
        sp.add_argument("--out", default=None, help="also write JSON here")
        sp.set_defaults(func=fn)

    sp = add_parser("sweep", help="run a regime sweep from a JSON config")
    sp.add_argument("--config", required=True)
    sp.set_defaults(func=_cmd_sweep)

    sp = add_parser("tl1", help="exact TL1 distance between two datasets")
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_tl1)

    sp = add_parser("sigma", help="surface tension of a kernel")
    sp.add_argument("--kernel", default="indicator")
    sp.add_argument("--d", type=int, default=2)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_sigma)

    sp = add_parser("gamma-check",
                        help="graph TV vs continuum target across n")
    sp.add_argument("--model", default="builtin:halfplane")
    sp.add_argument("--kernel", default="indicator")
    sp.add_argument("--n-list", default="1000,4000,16000")
    sp.add_argument("--eps-c", type=float, default=1.0)
    sp.add_argument("--eps-a", type=float, default=0.25)
    sp.add_argument("--vertical", type=float, default=0.5,
                    help="x of a full-height interface segment (2-d models)")
    sp.add_argument("--interface", default=None,
                    help="JSON file with explicit interface pieces")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_gamma_check)

    sp = add_parser("plot", help="emit SVG plots from reports/datasets")
    sp.add_argument("--report", default=None, help="sweep report CSV")
    sp.add_argument("--regime", default=None, help="filter curves to one regime")
    sp.add_argument("--data", default=None, help="dataset CSV to scatter")
    sp.add_argument("--solution", default=None,
                    help="solve JSON; adds the level-set scatter")
    sp.set_defaults(func=_cmd_plot)

    sp = add_parser("risk", help="evaluate a stored solution's risks")
    sp.add_argument("--data", required=True)
    sp.add_argument("--model", required=True)
    sp.add_argument("--solution", required=True)
    sp.add_argument("--test-m", type=int, default=2000)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_risk)
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
