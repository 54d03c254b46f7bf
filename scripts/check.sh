#!/bin/sh
# Repo health check: hygiene, the export scan, build, the tier-1 suite (the cram
# tests test/cli.t and examples/quickstart.t included), one observability smoke
# run of the propeller tool, the bench regression gate on simulated metrics, and
# the relinkbench smokes (cold relinks at --jobs 1 and 2, warm relinks,
# simulated batches),
# which check golden digests and gate speed. Run from the repository
# root.
set -eu

cd "$(dirname "$0")/.."

echo "== repo hygiene =="
# Build artifacts must never be tracked or staged.
if git ls-files | grep -q '^_build/'; then
  echo "FAIL: _build/ paths are tracked by git" >&2
  git ls-files | grep '^_build/' | head >&2
  exit 1
fi
if git status --porcelain | awk '{print $2}' | grep -q '^_build/'; then
  echo "FAIL: _build/ paths are staged or modified in git status" >&2
  exit 1
fi

echo "== export scan =="
# Every value a lib/ interface exports needs a reader outside test/ or
# an allowlist entry with its reason (scripts/export_scan.py).
python3 scripts/export_scan.py

echo "== dune build =="
dune build

echo "== dune runtest =="
dune runtest

propeller() { dune exec --no-print-directory -- propeller "$@"; }

out_dir=$(mktemp -d)
trap 'rm -rf "$out_dir"' EXIT

echo "== propeller run observability smoke =="
# The tool re-parses the trace and self-profile it writes and prints the
# verdict; validate re-parses all three files, and stat top re-reads the
# self-profile.
propeller run -b 505.mcf -r 40 \
  --trace "$out_dir/trace.json" \
  --metrics-out "$out_dir/metrics.json" \
  --self-profile-out "$out_dir/selfprof.json" >"$out_dir/run.log"
grep -q '^trace: .*valid JSON' "$out_dir/run.log" &&
  grep -q '^self-profile: .*valid JSON' "$out_dir/run.log" &&
  grep -q '^self-profile hotspots' "$out_dir/run.log" || {
  echo "FAIL: run did not validate its trace and self-profile" >&2
  cat "$out_dir/run.log" >&2
  exit 1
}
propeller inspect validate \
  "$out_dir/trace.json" "$out_dir/metrics.json" "$out_dir/selfprof.json" || {
  echo "FAIL: an emitted observability file does not re-parse" >&2
  exit 1
}
propeller stat top --from "$out_dir/selfprof.json" -n 5 >"$out_dir/top.log"
test -s "$out_dir/top.log" || { echo "FAIL: stat top printed nothing" >&2; exit 1; }

echo "== bench regression gate =="
# Emit a fresh bench JSON for the small progen workload and diff it
# against the committed golden baseline; >5% regression fails the check.
# Every judged metric is simulated, so it reads the same at any --jobs
# width; --jobs 1 keeps the run to one domain. Speed is gated on the
# relinkbench smokes below.
dune exec bench/main.exe -- --jobs 1 \
  --json-out "$out_dir/bench.json" --json-bench 505.mcf --json-requests 40 \
  >"$out_dir/bench.log" 2>&1 || {
  echo "FAIL: bench --json-out run failed" >&2
  cat "$out_dir/bench.log" >&2
  exit 1
}
# The informational micro and layout_search objects must ride along in
# every bench file.
for key in '"micro"' '"layout_search"'; do
  grep -q "$key" "$out_dir/bench.json" || {
    echo "FAIL: bench JSON missing the $key object" >&2
    exit 1
  }
done
# The micro timings are informational, but the kernel list is not: a
# kernel added or dropped must re-record bench/baseline.json's micro
# object, so its timings never go stale unnoticed.
python3 - "$out_dir/bench.json" bench/baseline.json <<'EOF' || {
import json, sys
fresh, base = ([k["name"] for k in json.load(open(p))["micro"]["kernels"]] for p in sys.argv[1:])
if fresh != base:
    print("fresh micro kernels:   ", fresh, file=sys.stderr)
    print("baseline micro kernels:", base, file=sys.stderr)
    sys.exit(1)
EOF
  echo "FAIL: bench micro kernels differ from bench/baseline.json; re-record its micro object" >&2
  exit 1
}
propeller stat diff bench/baseline.json "$out_dir/bench.json" || {
  echo "FAIL: bench regression vs bench/baseline.json" >&2
  exit 1
}

echo "== relinkbench smokes and speed gate =="
# Short runs at the default seeds check every op against
# relinkbench/golden.json: cold-clang every relinked image digest and
# counter set, warm-clang also warm == cold digests and that no object
# is compiled, simulate-mcf every simulated batch's counters and cycles.
# cold-clang-j2 runs the cold relinks at --jobs 2, so the domain pool's
# real fan-out goes through the same golden digest checks.
# smoke_gate.py fails on any failed op, and on op_ms_p50 (scaled to
# nominal host speed), alloc_mw_per_op or peak_rss_mib worse than
# bench/relinkbench_smoke.json by more than BENCHMARK.json's bound,
# for all four workloads (ten 5 s cold-clang-j2 runs spread 14% from
# slowest to fastest, inside the 25% bound; EXPERIMENTS.md).
for w in cold-clang cold-clang-j2 warm-clang simulate-mcf; do
  python3 relinkbench/run.py --workload "$w" --seconds 5 \
    >"$out_dir/relinkbench-$w.log" 2>&1 || true
done
python3 scripts/smoke_gate.py bench/relinkbench_smoke.json "$out_dir"/relinkbench-*.log || {
  echo "FAIL: relinkbench smokes vs bench/relinkbench_smoke.json" >&2
  exit 1
}

echo "OK: hygiene + export scan + build + tests + run smoke + bench gate + relinkbench smokes and speed gate all green"
