#!/usr/bin/env bash
# Benchmark gates: re-runs the microbench suite and fails if any case's
# median regressed more than the threshold (default 25%) against the
# committed baseline in results/microbench.json, or if a baseline case
# disappeared from the suite; then holds the interleaved ratio gates
# (batched train step, f32 fast path), the loadgen QPS floor and the
# retrieval cascade floors.
#
# Every gate runs even when an earlier one failed: the median gate is
# the least reliable on a small, noisy host, and stopping there would
# leave the ratio gates unchecked. Each failed gate is listed at the
# end, and the script exits non-zero if any failed.
#
# Medians are host-sensitive — the committed baseline is only meaningful
# on hardware comparable to the one that recorded it (EXPERIMENTS.md
# names the host each baseline was taken on). On a slower machine, raise
# the threshold:  scripts/bench_check.sh --threshold 60
#
# Usage: scripts/bench_check.sh [--threshold <percent>]
#   --threshold  allowed median growth in percent before failing
#
# The suite always runs --full: the committed baseline was recorded at
# full scale, and a --quick run would drop its n=200 cases, which the
# checker treats as missing-case failures.
set -euo pipefail
cd "$(dirname "$0")/.."

threshold=()
while [[ $# -gt 0 ]]; do
    case "$1" in
    --threshold)
        threshold=(--threshold "$2")
        shift
        ;;
    *)
        echo "unknown argument: $1" >&2
        exit 2
        ;;
    esac
    shift
done

baseline=results/microbench.json
current=$(mktemp /tmp/microbench.XXXXXX.json)
trap 'rm -f "$current"' EXIT
failed=()

# count-allocs installs the counting global allocator so the fresh run
# also reports allocations per iteration (ignored by the comparison, but
# the numbers land in the JSON for inspection).
cargo run --release --offline -p hap-bench --features count-allocs \
    --bin microbench -- --full --out "$current" \
    || failed+=("microbench run")

cargo run --release --offline -p hap-bench --bin bench_check -- \
    "$baseline" "$current" "${threshold[@]}" \
    || failed+=("microbench medians against $baseline")

# Batched-forward win: the block-diagonal batched train step must not be
# meaningfully slower than the per-sample loop on the same workload
# (EXPERIMENTS.md "Sparse vs dense crossover"). The two cases run
# interleaved (Bench::run_pair) so host drift cannot bias the pair, and
# no committed baseline is involved — batched is ~13% *faster*, so the
# 1.10 ceiling leaves room for scheduler noise only.
python3 - "$current" <<'EOF' || failed+=("batched train step <= 1.10x looped")
import json, sys
results = {r["name"]: r["median_ns"] for r in json.load(open(sys.argv[1]))["results"]}
looped = results["train/train_step/batch=8"]
batched = results["train/train_step_batched/batch=8"]
if batched > looped * 1.10:
    sys.exit(f"batched train step regressed past the per-sample loop: "
             f"{batched:.0f} ns vs {looped:.0f} ns")
print(f"batched train step: {batched:.0f} ns vs looped {looped:.0f} ns "
      f"(ratio {batched / looped:.2f})")
EOF

# f32 fast-path gate: the precision/* cases run f64 and f32 interleaved
# (Bench::run_pair) on identical inputs, so the ratio is host-drift-free.
# The GEMM kernel runs at the host's vector width (its AVX2 compile where
# the CPU has AVX2, the SSE2 baseline otherwise). At either width a
# register holds exactly twice as many f32 lanes as f64 and the tile's
# instruction stream is otherwise identical, so 2.0× is the *theoretical
# ceiling* for pure GEMM (measured 1.74–2.02× on the AVX2 tile). The
# train step also pays dtype-independent tape bookkeeping and sits below
# it: 1.20–1.23× on the COLLAB-scale workload in --full mode with the
# AVX2 tile (1.32–1.44× on the SSE2 kernel it replaced, whose f64 GEMM
# took a larger share of the step), and about 1.0× at IMDB scale. The
# floors catch a broken fast path (a ratio near 1.0 means f32 stopped
# being vectorised); the COLLAB floor fails with the AVX2 tile
# (EXPERIMENTS.md "Precision").
python3 - "$current" <<'EOF' || failed+=("f32 fast path >= 1.60x matmul / 1.25x COLLAB step")
import json, sys
results = {r["name"]: r["median_ns"] for r in json.load(open(sys.argv[1]))["results"]}
gates = [
    ("precision/matmul/n=200", 1.60),
    ("precision/train_step_collab/batch=4", 1.25),
]
for base, floor in gates:
    f64 = results[f"{base}/f64"]
    f32 = results[f"{base}/f32"]
    ratio = f64 / f32
    if ratio < floor:
        sys.exit(f"f32 fast path regressed on {base}: f64 {f64:.0f} ns vs "
                 f"f32 {f32:.0f} ns (ratio {ratio:.2f}, floor {floor:.2f})")
    print(f"{base}: f64 {f64:.0f} ns vs f32 {f32:.0f} ns "
          f"(ratio {ratio:.2f}, floor {floor:.2f})")
EOF

# Serving throughput gate: replay the committed deterministic traffic
# against the committed snapshot and fail on a QPS collapse versus the
# committed results/loadgen.json baseline (same host caveat as above;
# the generous 60% floor absorbs normal scheduler noise).
loadgen_out=$(mktemp /tmp/loadgen.XXXXXX.json)
trap 'rm -f "$current" "$loadgen_out"' EXIT
cargo run --release --offline -p hap-bench --bin loadgen -- \
    --baseline results/loadgen.json --threshold 60 --out "$loadgen_out" \
    || failed+=("loadgen QPS >= 60% of results/loadgen.json")

# Retrieval cascade gate: rebuild the 100k-graph index and replay the
# held-out queries fresh, then hold the gated operating point (the
# smallest budget whose recall@10 clears 0.95) to the committed floors:
# >= 8x median speedup over the exhaustive scan at >= 0.95 recall@10.
# The best-first bucket walk measures 11-12x there; a cascade that slid
# back to scanning every entry measured 4.2x, so it fails the floor.
# Speedup here is FLOP reduction, not parallelism — the floors hold at
# HAP_THREADS=1 — so unlike the latency gates above they are not
# host-sensitive. The committed curve lives in results/retrieval.json.
# The answers are checked too: the run's results_hash, over every (id,
# distance-bits) pair of every exhaustive and cascade answer, must equal
# the committed one.
retrieval_out=$(mktemp /tmp/retrieval.XXXXXX.json)
trap 'rm -f "$current" "$loadgen_out" "$retrieval_out"' EXIT
cargo run --release --offline -p hap-bench --bin retrieval_bench -- \
    --out "$retrieval_out" \
    || failed+=("retrieval_bench run")
python3 - "$retrieval_out" results/retrieval.json <<'EOF' || failed+=("retrieval answers, and cascade >= 8x at recall@10 >= 0.95")
import json, sys
r = json.load(open(sys.argv[1]))
golden = json.load(open(sys.argv[2]))["results_hash"]
if r["results_hash"] != golden:
    sys.exit(f"retrieval answers changed: results_hash {r['results_hash']} "
             f"differs from results/retrieval.json's {golden}")
speedup, recall, budget = r["gated_speedup"], r["gated_recall"], r["gated_budget"]
if recall < 0.95:
    sys.exit(f"retrieval recall collapsed: no budget reaches recall@10 >= 0.95 "
             f"(best gated: {recall:.4f} at budget {budget})")
if speedup < 8.0:
    sys.exit(f"retrieval cascade speedup regressed: {speedup:.2f}x at budget "
             f"{budget} (floor 8.0x)")
print(f"retrieval cascade: {speedup:.2f}x over exhaustive at budget {budget}, "
      f"recall@10 {recall:.4f}, results_hash {golden}")
EOF

if [[ ${#failed[@]} -gt 0 ]]; then
    for gate in "${failed[@]}"; do
        echo "bench_check: FAILED: $gate" >&2
    done
    exit 1
fi
echo "bench_check: every gate passed"
