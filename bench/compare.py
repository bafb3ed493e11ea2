#!/usr/bin/env python3
"""Report-only comparison of two benchmark result files.

    python3 bench/compare.py BASE.jsonl NEW.jsonl

Each file holds result lines appended by `bench/run.py --out FILE`, usually
several seeds per workload. For every workload and metric found in both
files this prints the median and quartiles of each side and the change of
the median. An end-to-end metric is flagged WORSE when the new median is
worse than the base median by more than its bound in BENCHMARK.json, and
UNRESOLVED when either side's quartile spread exceeds that bound. Count
metrics whose medians differ are flagged CHANGED. The script always exits 0:
it reports and is never a test failure.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    runs = {}
    sources = set()
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        res = json.loads(line)
        rec = res["record"]
        sources.add((rec.get("git_sha"), rec["source_sha256"]))
        for name, m in res["metrics"].items():
            runs.setdefault((rec["workload"], name), []).append(m["value"])
    return runs, sources


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2].strip())
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, base_src = load(argv[1])
    new, new_src = load(argv[2])
    for label, src in (("base", base_src), ("new", new_src)):
        for sha, digest in sorted(src, key=str):
            print("%-4s git %s  source %s" % (label, sha, digest[:16]))
    print("%-13s %-40s %34s %34s %8s" % ("workload", "metric", "base median [q1, q3] (n)",
                                        "new median [q1, q3] (n)", "change"))
    for key in sorted(set(base) & set(new)):
        workload, name = key
        spec_m = declared.get(name, {"unit": "?", "better": "lower"})
        b, n = base[key], new[key]
        bq, nq = quartiles(b), quartiles(n)
        change = (nq[1] - bq[1]) / bq[1] if bq[1] else 0.0
        worse = change if spec_m["better"] == "lower" else -change
        flag = ""
        if "bound" in spec_m:
            bound = spec_m["bound"]
            spreads = [(q[2] - q[0]) / abs(q[1]) for q in (bq, nq) if q[1]]
            if any(s > bound for s in spreads):
                flag = "UNRESOLVED"
            elif worse > bound:
                flag = "WORSE"
        elif spec_m["unit"] == "count" and nq[1] != bq[1]:
            flag = "CHANGED"
        print("%-13s %-40s %12.5g [%.5g, %.5g] (%d) %12.5g [%.5g, %.5g] (%d) %+7.1f%% %s" % (
            workload, name, bq[1], bq[0], bq[2], len(b), nq[1], nq[0], nq[2], len(n),
            100.0 * change, flag))
    only = sorted(set(base) ^ set(new))
    if only:
        print("in one file only: %s" % ", ".join("%s/%s" % k for k in only))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
