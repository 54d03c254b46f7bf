#!/usr/bin/env python3
"""Run the benchmark in repeated sets and judge how well they agree.

usage: python3 relinkbench/repeat.py [--sets N] [--runs N]

Run from the repository root. Each set runs every workload of
BENCHMARK.json --runs times for its run_seconds, each run with its own seed
(set s, run i uses seed 1 + s*runs + i), through the command in
BENCHMARK.json. For every (workload, end-to-end metric) pair it prints each
set's median and quartiles (Python's statistics.quantiles) and the spread,
(Q3 - Q1) / median. It flags a spread above a third of the metric's bound or
above the bound itself (setup_s excepted), and a set median worse than the
first set's by more than the bound. Raw results go to
relinkbench/out/repeat-*.json. Exits 1 when any run fails or any flag is
raised.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    started = time.monotonic()
    proc = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    wall = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    ok = proc.returncode == 0 and result is not None and result["correct"]
    if not ok:
        sys.stderr.write(proc.stderr)
    return {"workload": workload, "seed": seed, "wall_s": wall,
            "exit": proc.returncode, "ok": ok, "result": result}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=10)
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]

    runs = []
    for s in range(opts.sets):
        for w in workloads:
            for i in range(opts.runs):
                r = run_once(bench["command"], w, 1 + s * opts.runs + i, bench["run_seconds"])
                r["set"] = s
                runs.append(r)
                print(f"set {s} {w} seed {r['seed']}: "
                      f"{'ok' if r['ok'] else 'FAILED'} in {r['wall_s']:.1f}s", flush=True)

    os.makedirs(os.path.join("relinkbench", "out"), exist_ok=True)
    out = os.path.join("relinkbench", "out", f"repeat-{int(time.time())}.json")
    with open(out, "w") as f:
        json.dump(runs, f, indent=1)

    flags = [f"{r['workload']} seed {r['seed']}: run failed" for r in runs if not r["ok"]]
    print(f"\n{'workload':16} {'metric':28} set {'median':>12} {'Q1':>12} {'Q3':>12} spread")
    for w in workloads:
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            medians = []
            for s in range(opts.sets):
                vals = [r["result"]["metrics"][name]["value"] for r in runs
                        if r["ok"] and r["set"] == s and r["workload"] == w]
                if len(vals) < 2:
                    continue
                q1, q2, q3, sp = spread(vals)
                medians.append(q2)
                note = ""
                if name != "setup_s" and sp > bound:
                    note = "  OVER BOUND"
                    flags.append(f"{w} {name}: spread {sp:.3f} > bound {bound}")
                elif name != "setup_s" and sp > bound / 3:
                    note = "  over a third of the bound"
                    flags.append(f"{w} {name}: spread {sp:.3f} > bound/3 {bound / 3:.3f}")
                print(f"{w:16} {name:28} {s:3} {q2:12.6g} {q1:12.6g} {q3:12.6g} "
                      f"{sp:6.3f}{note}")
            sign = 1 if m["better"] == "lower" else -1
            for s, med in enumerate(medians[1:], 1):
                worse = sign * (med - medians[0]) / medians[0]
                if worse > bound:
                    flags.append(f"{w} {name}: set {s} median worse by {worse:.3f} > {bound}")
    print(f"\nraw results: {out}")
    for f in flags:
        print("FLAG", f)
    sys.exit(1 if flags else 0)


if __name__ == "__main__":
    main()
