#!/usr/bin/env python3
"""gtvclass benchmark: three workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload sweep_desk --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload all          # each workload in its own process

A run repeats set-up and timed body in a closed loop with one caller for
--seconds (at least MIN_ITERS bodies); wall_s is the median body time and
setup_s the median set-up time. Every output is
checked after the loop (see workloads.py); an operation that raised or failed
a gate counts as failed. --trace 1 alternates untraced and traced bodies and
reports the per-layer metrics of the traced ones (see spans.py).

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. --out FILE also appends the full result,
with the run record, as one JSON line; compare.py reads two such files.
Metric names, units and bounds are declared in BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
MIN_ITERS = 3
WORKLOAD_NAMES = ("sweep_desk", "mincut_large", "pd_relax")
# set-ups before each timed body; setup_s is the median over the whole run,
# so that it samples the same stretch of machine time as wall_s
SETUP_REPS = {"sweep_desk": 9, "mincut_large": 1, "pd_relax": 3}
PINS = json.loads((BENCH_DIR / "pins.json").read_text())


def fail(msg):
    print("bench: %s" % msg, file=sys.stderr)
    sys.exit(2)


def import_package():
    """Import gtvclass from this checkout's src/, never from elsewhere."""
    init = SRC / "gtvclass" / "__init__.py"
    if not init.is_file():
        fail("%s not found; run from a full checkout" % init.relative_to(ROOT))
    sys.path.insert(0, str(SRC))
    import gtvclass
    if Path(gtvclass.__file__).resolve() != init.resolve():
        fail("imported gtvclass from %s, not from the checkout" % gtvclass.__file__)


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


# -- run record ---------------------------------------------------------------

def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256():
    h = hashlib.sha256()
    for path in sorted((SRC / "gtvclass").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _openblas():
    import ctypes
    import numpy as np
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def run_record(args):
    import numpy
    import scipy
    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "default_seed": PINS["default_seed"],
        "held_out_seed": PINS["held_out_seed"],
        "seconds": args.seconds,
        "trace": args.trace,
    }


# -- one workload -------------------------------------------------------------

def run_workload(args):
    import workloads
    from spans import Tracer

    wl = workloads.WORKLOADS[args.workload]
    e2e_units, layer_units = declared_metrics()
    work_dir = WORK_DIR / wl.name
    work_dir.mkdir(parents=True, exist_ok=True)

    tracer = Tracer() if args.trace else None
    setup_times, walls, traced_walls, outcomes = [], [], [], []
    run = 0
    t_end = perf_counter() + args.seconds
    cycle = 0.0
    # stop before a cycle that would overrun --seconds, so runs end on time
    while len(walls) < MIN_ITERS or perf_counter() + cycle <= t_end:
        t_cycle = perf_counter()
        for traced in ((False, True) if tracer else (False,)):
            for _ in range(SETUP_REPS[wl.name]):
                t0 = perf_counter()
                inputs = wl.setup(work_dir, args.seed)
                setup_times.append(perf_counter() - t0)
            if traced:
                tracer.run = run
                tracer.install()
            error = None
            t0 = perf_counter()
            try:
                out = wl.body(inputs)
            except Exception:
                out, error = None, traceback.format_exc()
            dt = perf_counter() - t0
            if traced:
                tracer.uninstall()
                traced_walls.append((run, dt))
            else:
                walls.append(dt)
            outcomes.append((out, error))
            run += 1
        cycle = perf_counter() - t_cycle
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = failed = 0
    messages = []
    try:
        ref, ref_error = wl.reference(inputs), None
    except Exception:
        ref, ref_error = None, traceback.format_exc()
    for out, error in outcomes:
        attempted += wl.ops
        error = error or ref_error
        if not error:
            try:
                bad = wl.check(inputs, out, ref)
            except Exception:
                error = traceback.format_exc()
        if error:
            bad = [error] * wl.ops
        failed += len(bad)
        messages.extend(bad)
    for msg in dict.fromkeys(messages):
        print("FAILED %s: %s" % (wl.name, msg.rstrip()), file=sys.stderr)

    wall_s = statistics.median(walls)
    if tracer:
        per_run = [tracer.summarize(r, dt) for r, dt in traced_walls]
        # the lower median keeps counts whole when the number of runs is even
        values = {k: statistics.median_low(p[k] for p in per_run) for k in per_run[0]}
        values["trace.overhead_s"] = statistics.median(dt for _, dt in traced_walls) - wall_s
        units, samples = layer_units, len(traced_walls)
        tracer.write(work_dir / ("trace-seed%d.jsonl" % args.seed))
    else:
        values = {"wall_s": wall_s, "setup_s": statistics.median(setup_times),
                  "peak_rss_mb": peak_rss_mb,
                  "ok_ratio": (attempted - failed) / attempted}
        units, samples = e2e_units, len(walls)
    values = {k: v for k, v in values.items() if k in units}
    if set(values) != set(units):
        fail("metrics %s are declared but not measured" % sorted(set(units) - set(values)))
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}

    print("workload %s  seed %d  trace %d  samples %d (setup %d)  attempted %d  "
          "failed %d  fail_ratio %.4g" % (wl.name, args.seed, args.trace, samples,
                                          len(setup_times), attempted, failed,
                                          failed / attempted))
    for k, m in metrics.items():
        print("  %-40s %14.6g %s" % (k, m["value"], m["unit"]))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    detail = {"record": run_record(args), "samples": samples,
              "wall_s_all": walls, "setup_s_all": setup_times}
    print(json.dumps(detail))
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps({**detail, **result}) + "\n")
    print(json.dumps(result))
    return 0


# -- all workloads ------------------------------------------------------------

def run_all(args):
    """Each workload in a fresh process, so that peak RSS is its own."""
    rows = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--out", args.out] if args.out else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-2]))
        if proc.returncode != 0 or not lines:
            rows.append((name, None))
            continue
        rows.append((name, json.loads(lines[-1])))
    print("\n%-14s %12s %12s %18s %11s" % ("workload", "wall_s (s)", "setup_s (s)",
                                          "peak_rss_mb (MB)", "fail_ratio"))
    ok = True
    for name, res in rows:
        if res is None:
            print("%-14s did not finish" % name)
            ok = False
            continue
        ok = ok and res["correct"]
        m = res["metrics"]
        ratio = res["failed"] / res["attempted"]
        if args.trace:
            print("%-14s traced: %d per-layer metrics, fail_ratio %.4g"
                  % (name, len(m), ratio))
            continue
        print("%-14s %12.4f %12.4f %18.1f %11.4g" % (
            name, m["wall_s"]["value"], m["setup_s"]["value"],
            m["peak_rss_mb"]["value"], ratio))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=PINS["default_seed"],
                   help="workload seed (held-out seed: %d)" % PINS["held_out_seed"])
    p.add_argument("--seconds", type=int, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None, help="append the result to this JSONL file")
    args = p.parse_args()
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    import_package()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
