#!/bin/bash
# Regenerates every paper table and figure (see DESIGN.md experiment
# index). Environment knobs:
#   TAGLETS_SEEDS  (default 3; the recorded bench_output.txt used 2)
#   TAGLETS_SPLITS (default 3; the recorded run used 1 for figs 8-13)
#   TAGLETS_FAST=1 to shrink all training schedules ~3x
# On a single core a full-fidelity run takes a few hours; the recorded
# run used seeds=2 and FAST mode for the split-table tail (Tables 3-6,
# Figures 8-13), as documented in EXPERIMENTS.md.
cd "$(dirname "$0")"
for b in build/bench/table1_officehome build/bench/table2_grocery_fmd \
         build/bench/fig4_module_pruning build/bench/fig5_ensemble_gain \
         build/bench/fig6_module_ablation build/bench/fig7_pruning_retrieval \
         build/bench/micro_core build/bench/ablation_design \
         build/bench/ablation_budget \
         build/bench/table3_4_officehome_splits \
         build/bench/table5_6_grocery_fmd_splits \
         build/bench/fig8_10_module_pruning_all \
         build/bench/fig11_13_ensemble_gain_all; do
  $b
done

# Serving benches: each emits a committed BENCH_*.json snapshot
# tracked across PRs (in-process server, micro kernels, the fleet
# drill: 3 shard processes, one SIGKILLed mid-run, and the pipeline
# scheduling A/B: the task graph on 1 lane vs every lane of the pool,
# bitwise-checked).
TAGLETS_PIPELINE_JSON_OUT=BENCH_pipeline.json build/bench/pipeline_bench
TAGLETS_SERVE_JSON_OUT=BENCH_serve.json build/bench/serve_loadgen
build/bench/micro_core --benchmark_out=BENCH_micro_core.json \
  --benchmark_out_format=json
TAGLETS_FLEET_JSON_OUT=BENCH_fleet.json build/bench/fleet_loadgen

# Stamp every snapshot with its provenance — the numbers are
# meaningless in a trajectory without knowing what produced them.
sha=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
dirty=$(git diff --quiet 2>/dev/null || echo "-dirty")
backend=$(build/tools/taglets_run --backend-info | head -1 | sed 's/^tensor backend: //')
threads=${TAGLETS_THREADS:-$(nproc)}
cores=$(nproc)
cpu=$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo | head -1)
build_type=$(sed -n 's/^CMAKE_BUILD_TYPE:STRING=//p' build/CMakeCache.txt)
# An empty cache entry means CMakeLists.txt's default, Release.
build_type=${build_type:-Release}
for f in BENCH_*.json; do
  python3 - "$f" "$sha$dirty" "$backend" "$threads" "$cores" "$cpu" \
    "$build_type" <<'EOF'
import json, sys
path, sha, backend, threads, cores, cpu, build_type = sys.argv[1:8]
with open(path) as fh:
    doc = json.load(fh)
doc["provenance"] = {
    "git_sha": sha,
    "build_type": build_type,
    "tensor_backend": backend,
    "threads": int(threads),
    "nproc": int(cores),
    "cpu_model": cpu,
}
with open(path, "w") as fh:
    json.dump(doc, fh, indent=1 if path.endswith("micro_core.json") else None)
    fh.write("\n")
EOF
done
echo "[run_benches] stamped BENCH_*.json with git_sha=$sha$dirty build=$build_type backend=$backend threads=$threads nproc=$cores cpu=$cpu"
