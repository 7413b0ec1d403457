#!/usr/bin/env bash
# Build, test, and regenerate every figure + extra table from scratch.
#
# Bench binaries are independent processes writing disjoint BENCH_*.json
# files, so they run concurrently; each gets a log under build/bench/logs/
# and any non-zero exit fails the whole script (after all of them finish).
#
# Usage: scripts/run_all.sh [--smoke]
#   --smoke   reduced workloads: engine_bench --smoke, one system (or one
#             configuration) per figure bench. For CI and quick sanity runs.
set -euo pipefail
cd "$(dirname "$0")/.."

SMOKE=0
for arg in "$@"; do
  case "$arg" in
    --smoke) SMOKE=1 ;;
    *)
      echo "usage: $0 [--smoke]" >&2
      exit 2
      ;;
  esac
done

# An existing build dir keeps its generator (CMake refuses to switch);
# fresh configures prefer Ninja when available.
if [ -f build/CMakeCache.txt ]; then
  cmake -B build
elif command -v ninja >/dev/null 2>&1; then
  cmake -B build -G Ninja
else
  cmake -B build
fi
cmake --build build -j "$(nproc)"
ctest --test-dir build --output-on-failure

mkdir -p build/bench/logs
declare -A pids
for b in build/bench/*; do
  [ -x "$b" ] && [ -f "$b" ] || continue
  name="$(basename "$b")"
  args=()
  case "$name" in
    bench_json_check) continue ;;  # validator CLI, needs a file argument
    trace_inspect) continue ;;     # inspector CLI, runs after the benches
    bench_common_test) continue ;; # gtest binary, already run by ctest
    fig2_get_breakdown)
      # Also produce a flight-recorder export and a telemetry timeline
      # (both validated below).
      args+=(--trace-out=TRACE_fig2.json --telemetry)
      [ "$SMOKE" -eq 1 ] && args+=(--system=Erda) ;;
    engine_bench)
      [ "$SMOKE" -eq 1 ] && args+=(--smoke) ;;
    fault_matrix)
      # Reduced plan matrix; exits nonzero on any consistency violation.
      [ "$SMOKE" -eq 1 ] && args+=(--smoke) ;;
    fig10_scalability)
      # Smoke keeps the shard family only (eFactory, shards 1 vs 4 at 128
      # clients); the full run sweeps both the classic and shard families.
      [ "$SMOKE" -eq 1 ] && args+=(--smoke) ;;
    adaptive_read)
      # All three variants must run even in smoke — the bench's point is
      # the adaptive-vs-plain-vs-no-hr comparison.
      [ "$SMOKE" -eq 1 ] && args+=(--smoke) ;;
    ablation_efactory)
      [ "$SMOKE" -eq 1 ] && args+=("--filter=crc_rate/1.05") ;;
    fig11_log_cleaning)
      [ "$SMOKE" -eq 1 ] && args+=("--filter=update-only") ;;
    fig1_write_latency)
      # Fig. 1 has no Erda row; a filter that selects no point is an error.
      [ "$SMOKE" -eq 1 ] && args+=(--system=eFactory) ;;
    *)
      [ "$SMOKE" -eq 1 ] && args+=("--system=Erda") ;;
  esac
  log="build/bench/logs/$name.log"
  echo "start $name${args[0]+ ${args[*]}} -> $log"
  (cd build/bench && exec "./$name" ${args[0]+"${args[@]}"}) \
    >"$log" 2>&1 &
  pids[$name]=$!
done

status=0
for name in "${!pids[@]}"; do
  if wait "${pids[$name]}"; then
    echo "PASS $name"
  else
    echo "FAIL $name (see build/bench/logs/$name.log)" >&2
    status=1
  fi
done

# fig2 ran with --trace-out: validate its Chrome export against the
# golden schema and print the tail-latency attribution for the slowest
# ops (see docs/OBSERVABILITY.md).
if [ "$status" -eq 0 ]; then
  ./build/bench/trace_inspect validate build/bench/TRACE_fig2.json
  ./build/bench/trace_inspect explain --slowest=5 \
    build/bench/TRACE_fig2.json.bin
  # fig2 also ran with --telemetry: render its sampled timelines and emit
  # the Perfetto counter-track export next to it.
  ./build/bench/trace_inspect timeline \
    --perfetto=build/bench/TELEM_fig2_counters.json \
    build/bench/TELEM_fig2.json
  # fig10's shard family also exported the sharded-sweep metrics.
  ./build/bench/bench_json_check build/bench/BENCH_shard.json
  # The adaptive-read sweep (Fig. 9(c) deviation fix; docs/ADAPTIVE_READ.md).
  ./build/bench/bench_json_check build/bench/BENCH_adaptive.json
  # The trend gate: deterministic virtual-time numbers must match the
  # checked-in baselines within tolerance (see scripts/bench_compare.py).
  python3 scripts/bench_compare.py --baselines bench/baselines \
    --current build/bench
fi

# Collect every export into artifacts/ with a manifest, so a CI run (or a
# colleague) gets one self-describing directory instead of a scavenger
# hunt through build/bench/.
if [ "$status" -eq 0 ]; then
  rm -rf artifacts
  mkdir -p artifacts
  cp build/bench/BENCH_*.json build/bench/TELEM_*.json artifacts/
  python3 - <<'EOF'
import json, os
entries = []
for name in sorted(os.listdir("artifacts")):
    if name == "MANIFEST.json":
        continue
    path = os.path.join("artifacts", name)
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    entries.append({
        "file": name,
        "schema": doc.get("schema", ""),
        "figure": doc.get("figure", ""),
        "bytes": os.path.getsize(path),
    })
manifest = {"schema": "efac.artifacts.v1", "artifacts": entries}
with open("artifacts/MANIFEST.json", "w", encoding="utf-8") as f:
    json.dump(manifest, f, indent=2)
    f.write("\n")
print(f"artifacts/: {len(entries)} export(s) + MANIFEST.json")
EOF
fi

# Documentation must stay navigable: every doc reachable from README.md,
# no dead relative links.
python3 scripts/check_doc_links.py

exit "$status"
