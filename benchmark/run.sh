#!/usr/bin/env bash
# Builds and runs the repository benchmark (benchmark/README.md).
#
#   benchmark/run.sh --workload hot --seed 1 --seconds 24 --trace 0
#       one run of one workload; the last stdout line is its JSON result
#   benchmark/run.sh [--seed N] [--runs N] [--out DIR]
#       every workload, N runs each (seeds N, N+1, ...), end-to-end metrics
#   benchmark/run.sh --traced
#       every workload, per-layer metrics (a separate process per run)
#   benchmark/run.sh --quick
#       smoke test at tiny sizes: checks that every metric declared in
#       BENCHMARK.json is emitted with a valid name and its declared unit
#
# The workloads and the default --seconds are those of BENCHMARK.json.
# Results are appended to <out>/<workload>.jsonl (<workload>.traced.jsonl
# for traced runs); <out> defaults to build-bench/results. build-bench/, under
# the repository root, holds a Release build of the fm_* libraries
# (failpoints off) and the benchmark program fmbench
# (benchmark/CMakeLists.txt) linked against them.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

workload=""
seed=1
seconds=""
trace=0
runs=1
quick=0
out=""

usage() {
  sed -n '2,19p' "${BASH_SOURCE[0]}" | sed 's/^# \{0,1\}//' >&2
  exit 2
}

while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="${2:?}"; shift 2 ;;
    --seed) seed="${2:?}"; shift 2 ;;
    --seconds) seconds="${2:?}"; shift 2 ;;
    --trace) trace="${2:?}"; shift 2 ;;
    --traced) trace=1; shift ;;
    --runs) runs="${2:?}"; shift 2 ;;
    --quick) quick=1; shift ;;
    --out) out="${2:?}"; shift 2 ;;
    -h|--help) usage ;;
    *) echo "run.sh: unknown argument $1" >&2; usage ;;
  esac
done
[[ "$trace" == 0 || "$trace" == 1 ]] || { echo "run.sh: --trace takes 0 or 1" >&2; exit 2; }

if [[ ! -f CMakeLists.txt || ! -d src ]]; then
  echo "run.sh: no fuzzymatch source tree at $root" >&2
  exit 1
fi

# The run length and the workloads a full pass runs: BENCHMARK.json's.
mapfile -t declared < <(python3 -c '
import json
bench = json.load(open("BENCHMARK.json"))
print(bench["run_seconds"])
for w in bench["workloads"]:
    print(w["name"])')
if [[ ${#declared[@]} -lt 2 ]]; then
  echo "run.sh: cannot read the workloads from BENCHMARK.json" >&2
  exit 1
fi
seconds="${seconds:-${declared[0]}}"
workloads=("${declared[@]:1}")

build=build-bench
mkdir -p "$build/tmp"
build="$(cd "$build" && pwd)"
out="${out:-$build/results}"
mkdir -p "$out"
# Compilers and fmbench keep their scratch files inside the repository.
export TMPDIR="$build/tmp"

build_fmbench() {
  local log="$build/build.log"
  local jobs
  jobs="$(nproc 2>/dev/null || echo 4)"
  {
    if [[ ! -f "$build/fm/CMakeCache.txt" ]]; then
      cmake -S . -B "$build/fm" -DCMAKE_BUILD_TYPE=Release -DFM_FAILPOINTS=OFF
    fi
    cmake --build "$build/fm" --target fm_server -j "$jobs"
    if [[ ! -f "$build/fmbench/CMakeCache.txt" ]]; then
      cmake -S benchmark -B "$build/fmbench" -DCMAKE_BUILD_TYPE=Release \
        -DFM_SOURCE_DIR="$root" -DFM_BUILD_DIR="$build/fm"
    fi
    cmake --build "$build/fmbench" -j "$jobs"
  } > "$log" 2>&1 || {
    tail -n 40 "$log" >&2
    echo "run.sh: build failed (full log: $log)" >&2
    return 1
  }
}

commit="unknown"
if [[ -e .git ]] && command -v git > /dev/null; then
  commit="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
fi

# One fmbench process; its stdout is passed through.
run_one() {  # workload seed trace
  local work="$build/work-$1-$$"
  local file="$out/$1.jsonl"
  [[ "$3" == 1 ]] && file="$out/$1.traced.jsonl"
  local args=(--workload "$1" --seed "$2" --seconds "$seconds" --trace "$3"
              --work-dir "$work" --out "$file" --commit "$commit")
  [[ "$quick" == 1 ]] && args+=(--quick)
  local status=0
  "$build/fmbench/fmbench" "${args[@]}" || status=$?
  rm -rf "$work"
  return "$status"
}

build_fmbench

if [[ -n "$workload" ]]; then
  run_one "$workload" "$seed" "$trace"
  exit $?
fi

modes=("$trace")
if [[ "$quick" == 1 ]]; then
  modes=(0 1)
  seconds=2
  out="$build/quick"
  rm -rf "$out"
  mkdir -p "$out"
fi

failed=0
for ((r = 0; r < runs; r++)); do
  for w in "${workloads[@]}"; do
    for mode in "${modes[@]}"; do
      result="$(run_one "$w" "$((seed + r))" "$mode")" || {
        echo "run.sh: $w (seed $((seed + r)), trace $mode) exited non-zero" >&2
        failed=1
        continue
      }
      printf '%s\n' "$result" | sed '$d'
      if ! printf '%s\n' "$result" | tail -n 1 | grep -q '"correct":true'; then
        echo "run.sh: $w (seed $((seed + r)), trace $mode) failed its checks" >&2
        failed=1
      fi
    done
  done
done

if [[ "$quick" == 1 ]]; then
  python3 - "$root/BENCHMARK.json" "$out" <<'EOF' || failed=1
import json, re, sys
bench = json.load(open(sys.argv[1]))
name_ok = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
problems = []
for mode, kind in ((0, "end_to_end"), (1, "per_layer")):
    declared = {m["name"]: m["unit"] for m in bench[kind]}
    for w in (x["name"] for x in bench["workloads"]):
        path = f"{sys.argv[2]}/{w}.jsonl" if mode == 0 else f"{sys.argv[2]}/{w}.traced.jsonl"
        try:
            got = json.loads(open(path).read().splitlines()[-1])["metrics"]
        except (OSError, IndexError, ValueError) as e:
            problems.append(f"{w} trace {mode}: no result ({e})")
            continue
        for name, unit in declared.items():
            if name not in got:
                problems.append(f"{w} trace {mode}: {name} missing")
            elif got[name]["unit"] != unit:
                problems.append(f"{w} trace {mode}: {name} unit {got[name]['unit']} != {unit}")
        for name in got:
            if not name_ok.match(name):
                problems.append(f"{w} trace {mode}: bad metric name {name!r}")
            if name not in declared:
                problems.append(f"{w} trace {mode}: {name} not declared")
for p in problems:
    print("quick check:", p, file=sys.stderr)
print("quick check:", "ok" if not problems else f"{len(problems)} problems")
sys.exit(1 if problems else 0)
EOF
fi
exit "$failed"
