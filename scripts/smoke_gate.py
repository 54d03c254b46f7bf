#!/usr/bin/env python3
"""Judge short relinkbench runs against a committed baseline.

usage: python3 scripts/smoke_gate.py BASELINE LOG...
       python3 scripts/smoke_gate.py --record BASELINE LOG...

Each LOG is the output of one `relinkbench/run.py --workload NAME` run.
A run fails the gate when its summary line is missing or counts a
failed op, or when op_ms_p50, alloc_mw_per_op or peak_rss_mib is worse
than BASELINE by more than the bound BENCHMARK.json gives that metric.
Every workload in BASELINE needs a LOG. op_ms_p50 is already scaled to
nominal host speed by relinkbench. setup_s is not gated: its spread on
5 s runs is as wide as its bound.

--record writes BASELINE instead: per workload, the median of each
gated metric over the LOGs given for it.
"""

import json
import os
import statistics
import sys

GATED = ("op_ms_p50", "alloc_mw_per_op", "peak_rss_mib")

root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def bounds():
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}


def parse_log(path):
    """(workload, {metric: value}, failed) of one run; failed is None
    when the run printed no summary line."""
    workload, metrics, failed = None, {}, None
    with open(path, errors="replace") as f:
        for line in f:
            try:
                obj = json.loads(line)
            except ValueError:
                continue
            if not isinstance(obj, dict):
                continue
            if "metric" in obj:
                workload = obj["workload"]
                metrics[obj["metric"]] = obj["value"]
            elif "failed" in obj:
                failed = obj["failed"]
    return workload, metrics, failed


def show_log(path):
    with open(path, errors="replace") as f:
        sys.stderr.write(f.read())


def load_runs(logs):
    """{workload: [metrics, ...]}, or None after reporting a bad run."""
    runs = {}
    for path in logs:
        workload, metrics, failed = parse_log(path)
        if failed != 0 or workload is None:
            why = "no summary line" if failed is None else "%s failed op(s)" % failed
            print("FAIL %s: %s" % (path, why), file=sys.stderr)
            show_log(path)
            return None
        missing = [m for m in GATED if m not in metrics]
        if missing:
            print("FAIL %s: no %s" % (path, ", ".join(missing)), file=sys.stderr)
            return None
        runs.setdefault(workload, []).append(metrics)
    return runs


def record(baseline_path, logs):
    runs = load_runs(logs)
    if runs is None:
        return 1
    baseline = {
        w: {m: statistics.median(r[m] for r in rs) for m in GATED}
        for w, rs in sorted(runs.items())
    }
    with open(baseline_path, "w") as f:
        json.dump(baseline, f, indent=2, sort_keys=True)
        f.write("\n")
    for w, rs in sorted(runs.items()):
        print("recorded %s: median of %d run(s)" % (w, len(rs)))
    return 0


def check(baseline_path, logs):
    with open(baseline_path) as f:
        baseline = json.load(f)
    runs = load_runs(logs)
    if runs is None:
        return 1
    limits = bounds()
    ok = True
    for w in sorted(baseline):
        if w not in runs:
            print("FAIL %s: no run of this baseline workload" % w, file=sys.stderr)
            ok = False
            continue
        for metrics in runs[w]:
            for m in GATED:
                bound, better = limits[m]
                base, cur = baseline[w][m], metrics[m]
                delta = (cur - base) / base
                worse = delta if better == "lower" else -delta
                mark = "REGRESSED" if worse > bound else "ok"
                ok = ok and worse <= bound
                print("%-9s %-12s %-15s %10.4g -> %10.4g  (%+6.1f%%, bound %.0f%%)"
                      % (mark, w, m, base, cur, 100 * delta, 100 * bound))
    return 0 if ok else 1


def main(argv):
    if len(argv) >= 3 and argv[0] == "--record":
        return record(argv[1], argv[2:])
    if len(argv) >= 2 and not argv[0].startswith("-"):
        return check(argv[0], argv[1:])
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
