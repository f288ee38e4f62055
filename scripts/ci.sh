#!/usr/bin/env bash
# Tier-1 gate (see ROADMAP.md): formatting, an offline release build, the
# full offline test suite, clippy and rustdoc without warnings, and the
# determinism goldens under both threading modes. Run from the repository
# root. The build must succeed with no network access and no external
# crates — every dependency is a workspace path dependency.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --check
cargo build --release --offline
cargo test -q --offline

# Lints over every target (tests, benches, examples), warnings denied. In
# numeric kernels a lint is silenced with a reasoned #[allow] rather than
# a loop rewrite, so no summation order (and no golden) moves.
cargo clippy --offline --workspace --all-targets -- -D warnings

# Broken intra-doc links and missing docs fail tier-1 (hap-tensor,
# hap-rand and hap-par carry #![deny(missing_docs)]).
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline

# Training trajectories must be byte-identical at HAP_THREADS=1 (no thread
# is ever started) and unset (sized from the hardware). Every kernel a
# training step runs stays on the calling thread; what does run on
# hap-par's scoped threads is the index build, the retrieval shard scans
# and batch_ged, covered by the retrieval replays below and by
# crates/integration/tests/par_determinism.rs.
HAP_THREADS=1 cargo test -q --offline -p hap-train --test determinism
env -u HAP_THREADS cargo test -q --offline -p hap-train --test determinism

# The f32 fast path must hold the same contracts as f64: analytic
# gradients check against central differences at f32 tolerances
# (crates/autograd/src/gradcheck.rs), and an f32 training run is both
# bit-reproducible against itself and tracks the f64 trajectory within
# single-precision drift (crates/train/tests/determinism.rs) — at both
# threading modes, so that neither dtype can come to depend on the thread
# count (only the index build, the shard scans and batch_ged start
# threads).
HAP_THREADS=1 cargo test -q --offline -p hap-autograd --lib -- gradcheck_f32
env -u HAP_THREADS cargo test -q --offline -p hap-autograd --lib -- gradcheck_f32
HAP_THREADS=1 cargo test -q --offline -p hap-train --test determinism -- f32_
env -u HAP_THREADS cargo test -q --offline -p hap-train --test determinism -- f32_

# The per-sample training path (`hap_train::train`, `Stepper::step` with
# one sample per group) is pinned end to end: the default-scale
# design-choice ablation must print exactly the committed table. The
# determinism tests above compare two fresh runs, perfbench's train
# golden runs `train_batched`, and the other committed paper tables are
# not rerun here, so without this pin a change to `train`'s trajectory
# would leave them stale without failing anything. The step itself is
# pinned to the earlier loop by crates/train/tests/step_oracle.rs.
ABLATION_TMP="$(mktemp)"
cargo run --release --offline -q -p hap-bench --bin ablation_design_choices \
  > "$ABLATION_TMP" 2> /dev/null
diff -u results/ablation_design_choices.txt "$ABLATION_TMP" || {
  echo "ablation_design_choices differs from results/ablation_design_choices.txt" >&2
  exit 1
}
rm -f "$ABLATION_TMP"

# The fused transposed-GEMM kernels (matmul_nt / matmul_tn) must match the
# composed transpose+matmul path bit-for-bit at every thread setting — the
# tape-level fusion in hap-autograd relies on it, and the goldens above
# only exercise the shapes a training run happens to hit. The same suite
# runs batch_ged, which hands pairs to scoped threads, at both settings.
HAP_THREADS=1 cargo test -q --offline -p hap-integration --test par_determinism
env -u HAP_THREADS cargo test -q --offline -p hap-integration --test par_determinism

# The GEMM kernel is compiled twice, portably and for AVX2, and each call
# picks one at run time. These tests run every case through the public
# (dispatched) API and through the portable driver called directly, so an
# AVX2 host still checks the bits a CPU without AVX2 computes. The kernel
# starts no thread, so both threading modes must agree; only the index
# build, the shard scans and batch_ged run on scoped threads.
GEMM_TESTS=(microkernel_matches_streaming_reference_bitwise
  matmul_nt_matches_composed_bitwise matmul_tn_matches_composed_bitwise)
HAP_THREADS=1 cargo test -q --offline -p hap-tensor --lib -- "${GEMM_TESTS[@]}"
env -u HAP_THREADS cargo test -q --offline -p hap-tensor --lib -- "${GEMM_TESTS[@]}"

# Observability must be a pure observer: a Level::Trace run (every timer
# and finiteness scan live) must be byte-identical to a Level::Off run,
# at both threading modes (crates/integration/tests/obs_determinism.rs).
HAP_THREADS=1 cargo test -q --offline -p hap-integration --test obs_determinism
env -u HAP_THREADS cargo test -q --offline -p hap-integration --test obs_determinism

# Sparse & batched execution contract (ARCHITECTURE.md "Sparse & batched
# execution"): CSR SpMM must be byte-identical to the dense zero-skipping
# GEMM forward and backward, the CSR-only GCN and edge-list GAT layers
# must match their dense oracles bit-for-bit, and a block-diagonal
# BatchGraph forward must reproduce every per-graph embedding — again at
# both threading modes: the sparse kernel starts no thread, while the
# batched forward also runs inside the index build's scoped threads.
HAP_THREADS=1 cargo test -q --offline -p hap-integration --test sparse_batch_determinism
env -u HAP_THREADS cargo test -q --offline -p hap-integration --test sparse_batch_determinism

# NaN/∞ regression tests (EXPERIMENTS.md "Numeric robustness"): each fed
# the pre-fix code a value that panicked or silently corrupted the run.
cargo test -q --offline -p hap-core -- \
  nan_content_no_longer_panics_column_reduction \
  nan_logit_no_longer_panics_argmax \
  gumbel_noise_is_finite_at_uniform_boundaries \
  boundary_uniform_draws_survive_the_sampler \
  empty_graph_returns_typed_error
cargo test -q --offline -p hap-train --lib -- \
  non_finite_loss_sample_is_skipped_not_fatal \
  nan_gradient_batch_is_dropped_not_applied

# The metrics exporter must produce a parseable report end to end.
METRICS_TMP="$(mktemp -d)"
cargo run --release --offline -q -p hap-bench --bin metrics-dump -- \
  --epochs 1 --out "$METRICS_TMP/metrics.json"
python3 -c "import json,sys; json.load(open(sys.argv[1]))" \
  "$METRICS_TMP/metrics.json" 2>/dev/null \
  || grep -q '"nonfinite_total"' "$METRICS_TMP/metrics.json"
rm -rf "$METRICS_TMP"

# Serving smoke test: the committed snapshot must serve on an ephemeral
# port, answer /healthz, /classify and /metrics, and shut down cleanly.
# Replayed traffic must be byte-identical across runs and thread counts
# (the response_hash in loadgen.json is an FNV over every response body
# in request order), and the committed snapshot must replay 1000 requests
# with zero errors.
SERVE_TMP="$(mktemp -d)"
HAP_THREADS=1 cargo run --release --offline -q -p hap-bench --bin loadgen -- \
  --requests 200 --out "$SERVE_TMP/a.json"
HAP_THREADS=1 cargo run --release --offline -q -p hap-bench --bin loadgen -- \
  --requests 200 --out "$SERVE_TMP/b.json"
env -u HAP_THREADS cargo run --release --offline -q -p hap-bench --bin loadgen -- \
  --requests 200 --clients 7 --out "$SERVE_TMP/c.json"
# --keep-alive replays the same traffic a second time over persistent
# connections; loadgen itself exits non-zero if the two transports
# produce different response hashes, and the d.json hash below must
# still match the per-request runs (head -1: a keep-alive report
# carries a second hash field inside its nested section).
env -u HAP_THREADS cargo run --release --offline -q -p hap-bench --bin loadgen -- \
  --requests 200 --clients 4 --keep-alive --out "$SERVE_TMP/d.json"
hash_a=$(grep -o '"response_hash": "[0-9a-f]*"' "$SERVE_TMP/a.json")
hash_b=$(grep -o '"response_hash": "[0-9a-f]*"' "$SERVE_TMP/b.json")
hash_c=$(grep -o '"response_hash": "[0-9a-f]*"' "$SERVE_TMP/c.json")
hash_d=$(grep -o '"response_hash": "[0-9a-f]*"' "$SERVE_TMP/d.json" | head -1)
[ -n "$hash_a" ] && [ "$hash_a" = "$hash_b" ] && [ "$hash_a" = "$hash_c" ] \
  && [ "$hash_a" = "$hash_d" ] || {
  echo "serve responses are not deterministic: $hash_a / $hash_b / $hash_c / $hash_d" >&2
  exit 1
}
# Run-to-run equality is not enough: the replay must also reproduce the
# pinned golden, so a change that shifts every run alike (e.g. a WL cache
# key that merges or splits colour classes) still fails.
[ "$hash_a" = '"response_hash": "3bc2b0daadab4e83"' ] || {
  echo "loadgen response_hash $hash_a differs from the pinned 3bc2b0daadab4e83" >&2
  exit 1
}
grep -q '"errors": 0,' "$SERVE_TMP/a.json" || {
  echo "serve smoke run had request errors" >&2
  exit 1
}
rm -rf "$SERVE_TMP"

# Streaming updates (ARCHITECTURE.md "Streaming updates"): a graph
# mutated through Graph::apply must hold bitwise the same cached
# CSR/WL structures as a from-scratch rebuild — the fuzz differential
# suite pins that at both threading modes, and the serve smoke below
# replays a deterministic /update + /search stream against the committed
# snapshot: every update mutates a corpus graph in place (index-slot
# rewrite, stale-cache eviction) and the results_hash over all response
# bodies must be byte-identical across runs and thread counts, with
# zero request errors.
HAP_THREADS=1 cargo test -q --offline -p hap-integration --test stream_determinism
env -u HAP_THREADS cargo test -q --offline -p hap-integration --test stream_determinism
STREAM_TMP="$(mktemp -d)"
HAP_THREADS=1 cargo run --release --offline -q -p hap-bench --bin stream_bench -- \
  --out "$STREAM_TMP/a.json"
HAP_THREADS=1 cargo run --release --offline -q -p hap-bench --bin stream_bench -- \
  --out "$STREAM_TMP/b.json"
env -u HAP_THREADS cargo run --release --offline -q -p hap-bench --bin stream_bench -- \
  --out "$STREAM_TMP/c.json"
shash_a=$(grep -o '"results_hash": "[0-9a-f]*"' "$STREAM_TMP/a.json")
shash_b=$(grep -o '"results_hash": "[0-9a-f]*"' "$STREAM_TMP/b.json")
shash_c=$(grep -o '"results_hash": "[0-9a-f]*"' "$STREAM_TMP/c.json")
[ -n "$shash_a" ] && [ "$shash_a" = "$shash_b" ] && [ "$shash_a" = "$shash_c" ] || {
  echo "streaming updates are not deterministic: $shash_a / $shash_b / $shash_c" >&2
  exit 1
}
# Run-to-run equality is not enough: the replay must also reproduce the
# committed golden, so a change that shifts every run alike still fails.
shash_golden=$(grep -o '"results_hash": "[0-9a-f]*"' results/stream.json)
[ "$shash_a" = "$shash_golden" ] || {
  echo "stream results_hash $shash_a differs from results/stream.json $shash_golden" >&2
  exit 1
}
grep -q '"errors": 0,' "$STREAM_TMP/a.json" || {
  echo "stream smoke run had request errors" >&2
  exit 1
}
rm -rf "$STREAM_TMP"

# Retrieval smoke test: a small index replayed three times — twice pinned
# to one thread, once with the index build's chunks and the shard scans on
# scoped threads sized from the hardware — must return
# byte-identical top-k lists (the results_hash covers every (id,
# distance-bits) pair of every exhaustive and cascade answer). The
# admissibility property tests also run under both threading modes.
RETRIEVAL_TMP="$(mktemp -d)"
HAP_THREADS=1 cargo run --release --offline -q -p hap-bench --bin retrieval_bench -- \
  --graphs 2000 --queries 8 --budgets 64,128,256 --out "$RETRIEVAL_TMP/a.json"
HAP_THREADS=1 cargo run --release --offline -q -p hap-bench --bin retrieval_bench -- \
  --graphs 2000 --queries 8 --budgets 64,128,256 --out "$RETRIEVAL_TMP/b.json"
env -u HAP_THREADS cargo run --release --offline -q -p hap-bench --bin retrieval_bench -- \
  --graphs 2000 --queries 8 --budgets 64,128,256 --out "$RETRIEVAL_TMP/c.json"
rhash_a=$(grep -o '"results_hash": "[0-9a-f]*"' "$RETRIEVAL_TMP/a.json")
rhash_b=$(grep -o '"results_hash": "[0-9a-f]*"' "$RETRIEVAL_TMP/b.json")
rhash_c=$(grep -o '"results_hash": "[0-9a-f]*"' "$RETRIEVAL_TMP/c.json")
[ -n "$rhash_a" ] && [ "$rhash_a" = "$rhash_b" ] && [ "$rhash_a" = "$rhash_c" ] || {
  echo "retrieval results are not deterministic: $rhash_a / $rhash_b / $rhash_c" >&2
  exit 1
}
# Pinned like the stream golden: the WL-L1 filter's prune decisions feed
# every cascade answer, so WL colour classes are checked here too.
[ "$rhash_a" = '"results_hash": "d8c02164afb49db5"' ] || {
  echo "retrieval results_hash $rhash_a differs from the pinned d8c02164afb49db5" >&2
  exit 1
}
rm -rf "$RETRIEVAL_TMP"
HAP_THREADS=1 cargo test -q --offline -p hap-retrieval --test admissibility
env -u HAP_THREADS cargo test -q --offline -p hap-retrieval --test admissibility

# The whole perfbench test suite. Its unit tests cover plan purity,
# exact quantiles and the result-line keys. Its contract tests check the
# committed benchmark goldens (every workload — serve-hot, serve-cold,
# stream, train — must reproduce the result hashes pinned in
# perfbench/tests/contract.rs, with HAP_THREADS=1 and unset; the test
# runs both thread modes itself), body hashes over one and two
# connections against the in-process reference, the declared metrics,
# and bad arguments.
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml
