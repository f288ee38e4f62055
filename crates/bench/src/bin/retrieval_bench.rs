//! Corpus-scale retrieval benchmark: exhaustive scan vs pruning cascade.
//!
//! Builds a `GraphIndex` over a seeded synthetic corpus, replays a set of
//! held-out queries through the exhaustive scan (ground truth) and the
//! coarse-to-fine cascade at several pruning budgets, and reports
//! recall@k, median latency, and the speedup at the smallest budget that
//! clears the recall floor. The run is a pure function of `--seed`: the
//! emitted `results_hash` covers every returned (id, distance-bits) pair
//! and must be identical at any `HAP_THREADS` setting — CI replays the
//! small configuration under different thread modes and compares hashes.
//!
//! ```text
//! cargo run --release -p hap-bench --bin retrieval_bench -- \
//!     --graphs 100000 --queries 64 --k 10 --budgets 256,512,1024,2048
//! ```

use hap_autograd::ParamStore;
use hap_core::{HapClassifier, HapConfig, HapModel};
use hap_data::{RetrievalCorpus, CORPUS_FEATURE_DIM};
use hap_rand::Rng;
use hap_retrieval::{CascadeReport, GraphIndex, IndexConfig, Neighbor};
use hap_snapshot::ModelSnapshot;
use std::path::PathBuf;
use std::time::Instant;

/// Recall@k floor a budget must clear to be eligible as the gated
/// operating point reported to `bench_check.sh`.
const RECALL_FLOOR: f64 = 0.95;

struct Args {
    graphs: usize,
    queries: usize,
    k: usize,
    budgets: Vec<usize>,
    seed: u64,
    out: PathBuf,
}

fn usage() -> ! {
    eprintln!(
        "usage: retrieval_bench [--graphs N] [--queries N] [--k N] \
         [--budgets a,b,c] [--seed N] [--out PATH]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        graphs: 100_000,
        queries: 64,
        k: 10,
        budgets: vec![64, 128, 256, 512, 1024],
        seed: 9,
        out: PathBuf::from("results/retrieval.json"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--graphs" => args.graphs = value().parse().unwrap_or_else(|_| usage()),
            "--queries" => args.queries = value().parse().unwrap_or_else(|_| usage()),
            "--k" => args.k = value().parse().unwrap_or_else(|_| usage()),
            "--budgets" => {
                args.budgets = value()
                    .split(',')
                    .map(|s| s.trim().parse().unwrap_or_else(|_| usage()))
                    .collect();
            }
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--out" => args.out = PathBuf::from(value()),
            _ => usage(),
        }
    }
    if args.graphs == 0 || args.queries == 0 || args.k == 0 || args.budgets.is_empty() {
        usage();
    }
    args.budgets.sort_unstable();
    args.budgets.dedup();
    args
}

fn snapshot(seed: u64) -> ModelSnapshot {
    let mut rng = Rng::from_seed(seed);
    let mut store = ParamStore::<f64>::new();
    let cfg = HapConfig::new(CORPUS_FEATURE_DIM, 16).with_clusters(&[8, 4, 2]);
    let model = HapModel::new(&mut store, &cfg, &mut rng);
    let _clf = HapClassifier::new(&mut store, model, 2, &mut rng);
    ModelSnapshot::capture(&cfg, 2, &store)
}

fn median_ns(samples: &[u64]) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    sorted[sorted.len() / 2]
}

/// FNV-1a over every returned neighbor list, in replay order, with a
/// 0xFF separator between lists. Ids and distance bits both count, so
/// any ordering or numeric drift changes the hash.
fn fold_results(hash: &mut u64, results: &[Neighbor]) {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut eat = |byte: u8| {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(PRIME);
    };
    for n in results {
        for b in (n.id as u64).to_le_bytes() {
            eat(b);
        }
        for b in n.distance.to_bits().to_le_bytes() {
            eat(b);
        }
    }
    eat(0xFF);
}

#[derive(Default)]
struct BudgetStats {
    latencies: Vec<u64>,
    hits: usize,
    report: CascadeReport,
}

fn main() {
    let args = parse_args();
    let snap = snapshot(args.seed);
    let corpus = RetrievalCorpus::new(args.seed, args.graphs);

    eprintln!(
        "retrieval_bench: building index over {} graphs (seed {})",
        args.graphs, args.seed
    );
    let t0 = Instant::now();
    let index = GraphIndex::build(&snap, &corpus, IndexConfig::default()).unwrap_or_else(|e| {
        eprintln!("retrieval_bench: index build failed: {e}");
        std::process::exit(1);
    });
    let build_seconds = t0.elapsed().as_secs_f64();
    eprintln!(
        "retrieval_bench: built in {build_seconds:.2}s ({:.0} graphs/s)",
        args.graphs as f64 / build_seconds
    );

    // Queries come from a disjoint corpus seed so none is an index member.
    let (_store, clf) = snap.build_classifier().unwrap_or_else(|e| {
        eprintln!("retrieval_bench: classifier rebuild failed: {e}");
        std::process::exit(1);
    });
    let qcorpus = RetrievalCorpus::new(args.seed ^ 0xABCD, args.queries);
    let queries: Vec<_> = (0..args.queries)
        .map(|i| {
            let g = qcorpus.graph(i);
            let f = qcorpus.features::<f64>(&g);
            index.embed_query(&clf, &g, &f).unwrap_or_else(|e| {
                eprintln!("retrieval_bench: query {i} embedding failed: {e}");
                std::process::exit(1);
            })
        })
        .collect();

    let mut results_hash: u64 = 0xCBF2_9CE4_8422_2325; // FNV offset basis
    let mut exhaustive_ns = Vec::with_capacity(args.queries);
    let mut per_budget: Vec<BudgetStats> = args
        .budgets
        .iter()
        .map(|_| BudgetStats::default())
        .collect();

    for q in &queries {
        let t = Instant::now();
        let truth = index.exhaustive(q, args.k);
        exhaustive_ns.push(t.elapsed().as_nanos() as u64);
        fold_results(&mut results_hash, &truth);
        let truth_ids: Vec<usize> = truth.iter().map(|n| n.id).collect();

        for (bi, &budget) in args.budgets.iter().enumerate() {
            let t = Instant::now();
            let (got, report) = index.cascade(q, args.k, budget);
            per_budget[bi].latencies.push(t.elapsed().as_nanos() as u64);
            fold_results(&mut results_hash, &got);
            per_budget[bi].hits += got.iter().filter(|n| truth_ids.contains(&n.id)).count();
            per_budget[bi].report.skipped_size_degree += report.skipped_size_degree;
            per_budget[bi].report.skipped_wl += report.skipped_wl;
            per_budget[bi].report.coarse_evals += report.coarse_evals;
            per_budget[bi].report.refined += report.refined;
            per_budget[bi].report.visited += report.visited;
        }
    }

    let exhaustive_median = median_ns(&exhaustive_ns);
    let denom = (args.queries * args.k) as f64;
    let mut budget_rows = Vec::new();
    let mut gated: Option<(usize, f64, f64)> = None; // (budget, speedup, recall)
    for (bi, &budget) in args.budgets.iter().enumerate() {
        let stats = &per_budget[bi];
        let med = median_ns(&stats.latencies);
        let speedup = exhaustive_median as f64 / med.max(1) as f64;
        let recall = stats.hits as f64 / denom;
        eprintln!(
            "retrieval_bench: budget {budget:>6}  median {:>9}ns  speedup {speedup:>6.2}x  recall@{} {recall:.4}",
            med, args.k
        );
        if gated.is_none() && recall >= RECALL_FLOOR {
            gated = Some((budget, speedup, recall));
        }
        budget_rows.push(format!(
            "    {{\"budget\": {budget}, \"median_ns\": {med}, \"speedup\": {speedup}, \
             \"recall_at_k\": {recall}, \"skipped_size_degree\": {}, \"skipped_wl\": {}, \
             \"coarse_evals\": {}, \"refined\": {}, \"visited\": {}}}",
            stats.report.skipped_size_degree,
            stats.report.skipped_wl,
            stats.report.coarse_evals,
            stats.report.refined,
            stats.report.visited
        ));
    }
    let (gated_budget, gated_speedup, gated_recall) = gated.unwrap_or_else(|| {
        eprintln!(
            "retrieval_bench: WARNING no budget reached recall@{} >= {RECALL_FLOOR}",
            args.k
        );
        let last = args.budgets.len() - 1;
        let med = median_ns(&per_budget[last].latencies);
        (
            args.budgets[last],
            exhaustive_median as f64 / med.max(1) as f64,
            per_budget[last].hits as f64 / denom,
        )
    });
    eprintln!(
        "retrieval_bench: gated budget {gated_budget} -> speedup {gated_speedup:.2}x at recall {gated_recall:.4}"
    );
    eprintln!("retrieval_bench: results_hash {results_hash:016x}");

    let json = format!(
        "{{\n  \"graphs\": {},\n  \"queries\": {},\n  \"k\": {},\n  \"seed\": {},\n  \
         \"build_seconds\": {build_seconds},\n  \"graphs_per_second\": {},\n  \
         \"exhaustive_median_ns\": {exhaustive_median},\n  \"budgets\": [\n{}\n  ],\n  \
         \"gated_budget\": {gated_budget},\n  \"gated_speedup\": {gated_speedup},\n  \
         \"gated_recall\": {gated_recall},\n  \"results_hash\": \"{results_hash:016x}\"\n}}\n",
        args.graphs,
        args.queries,
        args.k,
        args.seed,
        args.graphs as f64 / build_seconds,
        budget_rows.join(",\n")
    );
    if let Some(parent) = args.out.parent() {
        std::fs::create_dir_all(parent).expect("create output directory");
    }
    std::fs::write(&args.out, &json).expect("write results file");
    eprintln!("retrieval_bench: wrote {}", args.out.display());
}
