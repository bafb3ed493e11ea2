"""Span tracing around the public calls into gtvclass, installed from outside.

Tracer.install() rebinds, in every loaded gtvclass module, each name that
refers to one of the TARGETS (for example gtvclass.cli.build,
gtvclass.metrics.sample, gtvclass.kernels.eval) and the method
VoronoiClassifier.__call__, to a wrapper that records a span. The package
itself is not edited, so untraced runs execute exactly the shipped code.

A span is (name, start, end, parent, run id, attributes); spans stay in
memory until write() is called. Top-level graph and solver spans (those with
no graph or solver span above them) also record their tracemalloc peak.
Spans assume one calling thread: the benchmark runs the sweep with
--threads 1.
"""

import functools
import importlib
import json
import sys
import tracemalloc
from time import perf_counter

import numpy as np

# metric-name prefix, module, attribute path inside the module
TARGETS = [
    ("groundtruth.sample", "gtvclass.groundtruth", "sample"),
    ("groundtruth.bayes_classify", "gtvclass.groundtruth", "bayes_classify"),
    ("groundtruth.load_cloud", "gtvclass.groundtruth", "load_cloud"),
    ("kernels.eval", "gtvclass.kernels", "eval"),
    ("graph.build", "gtvclass.graph", "build"),
    ("graph.gtv", "gtvclass.graph", "gtv"),
    ("graph.num_components", "gtvclass.graph", "num_components"),
    ("solver.certify_overfit", "gtvclass.solver", "certify_overfit"),
    ("solver.solve_mincut", "gtvclass.solver", "solve_mincut"),
    ("solver.solve_primal_dual", "gtvclass.solver", "solve_primal_dual"),
    ("solver.energy", "gtvclass.solver", "energy"),
    ("solver.binarize", "gtvclass.solver", "binarize"),
    ("metrics.voronoi_extend", "gtvclass.metrics", "voronoi_extend"),
    ("metrics.classify", "gtvclass.metrics", "VoronoiClassifier.__call__"),
    ("metrics.test_risk", "gtvclass.metrics", "test_risk"),
    ("metrics.bayes_agreement", "gtvclass.metrics", "bayes_agreement"),
    ("metrics.tl1_proxy_1nn", "gtvclass.metrics", "tl1_proxy_1nn"),
    ("cli.main", "gtvclass.cli", "main"),
]

_MEMORY_LAYERS = ("graph.", "solver.")


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


# attributes recorded per span; arrays are kept by reference and reduced
# to counts only when the spans are summarized, outside the timed spans
_ATTRS = {
    "groundtruth.sample": lambda a, k, out: {"points": int(_arg(a, k, 1, "n"))},
    "graph.build": lambda a, k, out: {"edges": int(out.m)},
    "solver.solve_primal_dual": lambda a, k, out: {"iters": int(out.iters),
                                                   "gap": float(out.gap)},
    "solver.binarize": lambda a, k, out: {"u": _arg(a, k, 3, "u")},
    "metrics.classify": lambda a, k, out: {"x": _arg(a, k, 1, "x")},
}


def _thresholds(u):
    # binarize tries every distinct value of u plus t = 1/2
    return int(np.unique(np.concatenate([np.asarray(u, dtype=float), [0.5]])).size)


def _points(x):
    return int(np.atleast_2d(np.asarray(x)).shape[0])


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent, run, attrs]
        self.run = None
        self._stack = []
        self._memory_open = False
        self._undo = []

    # -- installation -------------------------------------------------------

    def install(self):
        for name, modname, attr in TARGETS:
            mod = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._rebind(cls, meth, self._wrap(name, orig))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(name, orig)
            for other in list(sys.modules.values()):
                oname = getattr(other, "__name__", "")
                if oname != "gtvclass" and not oname.startswith("gtvclass."):
                    continue
                for key, val in list(vars(other).items()):
                    if val is orig:
                        self._rebind(other, key, wrapper)

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo = []

    def _rebind(self, owner, key, value):
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _wrap(self, name, fn):
        tracer = self
        attrs_of = _ATTRS.get(name)
        memory = name.startswith(_MEMORY_LAYERS)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1,
                   tracer.run, {}]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            top_memory = memory and not tracer._memory_open
            if top_memory:
                tracer._memory_open = True
                tracemalloc.start()
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                tracer._stack.pop()
                if top_memory:
                    rec[5]["peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 2 ** 20
                    tracemalloc.stop()
                    tracer._memory_open = False
            if attrs_of is not None:
                rec[5].update(attrs_of(args, kwargs, out))
            return out

        return wrapper

    # -- results ------------------------------------------------------------

    def _reduce_attrs(self):
        for rec in self.spans:
            at = rec[5]
            if "u" in at:
                at["thresholds"] = _thresholds(at.pop("u"))
            if "x" in at:
                at["points"] = _points(at.pop("x"))

    def summarize(self, run, wall):
        """Per-layer metrics of one traced run of the timed body."""
        self._reduce_attrs()
        idx = [i for i, s in enumerate(self.spans) if s[4] == run]
        child = {i: 0.0 for i in idx}
        top = 0.0
        for i in idx:
            s = self.spans[i]
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
            else:
                top += s[2] - s[1]
        # a layer this run never called reports zeros
        agg = {name: {"self_s": 0.0, "calls": 0, "points": 0, "edges": 0,
                      "iters": 0, "thresholds": 0, "gap": 0.0, "peak_alloc_mb": 0.0}
               for name, _, _ in TARGETS}
        for i in idx:
            name, t0, t1, _, _, at = self.spans[i]
            a = agg[name]
            a["self_s"] += (t1 - t0) - child[i]
            a["calls"] += 1
            for key in ("points", "edges", "iters", "thresholds"):
                a[key] += at.get(key, 0)
            a["gap"] = max(a["gap"], at.get("gap", 0.0))
            a["peak_alloc_mb"] = max(a["peak_alloc_mb"], at.get("peak_alloc_mb", 0.0))
        pd = agg["solver.solve_primal_dual"]
        pd["s_per_iter"] = pd["self_s"] / pd["iters"] if pd["iters"] else 0.0
        out = {"%s.%s" % (name, q): v for name, a in agg.items() for q, v in a.items()}
        out["trace.coverage"] = top / wall
        return out

    def write(self, path):
        self._reduce_attrs()
        with open(path, "w") as fh:
            for name, t0, t1, parent, run, at in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "run": run, **at}) + "\n")
