//! Outside-in benchmark for the HAP stack.
//!
//! One command runs a named workload in one process, checks its outputs
//! and prints its end-to-end metrics; `--trace 1` replays the workload
//! through each layer's public functions instead and prints the per-layer
//! breakdown. The benchmark uses the repository's crates as libraries and
//! edits none of them. See `perfbench/README.md` for the workloads, the
//! metrics and how to run it.

pub mod client;
pub mod plan;
pub mod serve;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod train;

use std::collections::BTreeMap;
use std::time::Duration;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["serve-hot", "serve-cold", "stream", "train"];

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// What one run measured and whether its outputs were right.
#[derive(Debug)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// The one-line JSON object the benchmark prints last.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    hap_serve::json::num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A memory figure of this process from `/proc/self/status`, in MB.
fn status_mb(field: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no {field} in /proc/self/status"))
}

/// Resident set size now (`VmRSS`), in MB.
pub fn rss_mb() -> Result<f64, String> {
    status_mb("VmRSS:")
}

/// `peak_rss_mb`: the peak resident set size (`VmHWM`, read at exit) above
/// `inputs_mb`, the resident size once the workload's inputs were
/// generated. The benchmark's own request plan is not the program's
/// memory, and its size varies with the seed.
pub fn peak_rss_metric(inputs_mb: f64) -> Result<Metric, String> {
    Ok(Metric::new(
        "peak_rss_mb",
        status_mb("VmHWM:")? - inputs_mb,
        "MB",
    ))
}

/// Computed SpMM operations of the level-0 GCN encoder on one graph whose
/// normalised adjacency stores `nnz` entries: `2·nnz·hidden` per layer,
/// two layers (`HapConfig`'s architecture: two embedding layers before
/// each coarsening module).
pub fn spmm_flops(nnz: usize, hidden: usize) -> f64 {
    2.0 * 2.0 * nnz as f64 * hidden as f64
}

/// Every per-layer metric and its unit, in `BENCHMARK.json` order. A
/// traced run prints all of them; a layer its workload does not exercise
/// reads 0.
pub const LAYER_METRICS: [(&str, &str); 45] = [
    ("http.read_request_us", "us"),
    ("http.write_response_us", "us"),
    ("http.request_bytes", "B"),
    ("json.parse_us", "us"),
    ("json.graph_from_json_us", "us"),
    ("batch.submit_us", "us"),
    ("batch.wait_us", "us"),
    ("batch.size_mean", "count"),
    ("batch.classify_size_mean", "count"),
    ("cache.hit_rate", "ratio"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("service.classify_us_per_graph", "us"),
    ("service.similarity_us", "us"),
    ("service.search_us", "us"),
    ("service.update_us", "us"),
    ("graph.wl_key_us", "us"),
    ("graph.csr_us", "us"),
    ("graph.apply_us_per_delta", "us"),
    ("graph.deltas", "count"),
    ("core.embed_us_per_graph", "us"),
    ("core.nodes_per_s", "1/s"),
    ("core.encoder_us", "us"),
    ("core.spmm_flops", "count"),
    ("core.coarsen_self_us", "us"),
    ("core.assignment_self_us", "us"),
    ("core.soft_sample_us", "us"),
    ("core.gcont_us", "us"),
    ("core.moa_us", "us"),
    ("retrieval.build_graphs_per_s", "1/s"),
    ("retrieval.cascade_us", "us"),
    ("retrieval.pruned_share", "ratio"),
    ("retrieval.coarse_evals", "count"),
    ("retrieval.refined", "count"),
    ("retrieval.update_entry_us", "us"),
    ("ged.rerank_us", "us"),
    ("ged.pairs", "count"),
    ("train.forward_us", "us"),
    ("train.backward_us", "us"),
    ("train.optimizer_us", "us"),
    ("train.eval_us", "us"),
    ("snapshot.load_us", "us"),
    ("unattributed_share", "ratio"),
    ("trace_overhead", "ratio"),
    ("loadgen.lag_p99_ms", "ms"),
];

/// Per-layer values by metric name.
pub type LayerValues = BTreeMap<&'static str, f64>;

/// The full per-layer metric list from the values a traced run measured.
pub fn layer_metrics(values: &LayerValues) -> Vec<Metric> {
    for name in values.keys() {
        assert!(
            LAYER_METRICS.iter().any(|(n, _)| n == name),
            "undeclared per-layer metric {name}"
        );
    }
    LAYER_METRICS
        .iter()
        .map(|&(name, unit)| Metric::new(name, values.get(name).copied().unwrap_or(0.0), unit))
        .collect()
}

/// The traced run's validity figures: the share of the traced replay's
/// wall time no layer span accounts for, and the traced replay's wall
/// time against the untraced one's.
pub fn record_validity(
    v: &mut LayerValues,
    traced: Duration,
    untraced: Duration,
    attributed_ns: u64,
) {
    v.insert(
        "unattributed_share",
        1.0 - attributed_ns as f64 / traced.as_nanos() as f64,
    );
    v.insert(
        "trace_overhead",
        traced.as_secs_f64() / untraced.as_secs_f64() - 1.0,
    );
}

/// `hap-core`'s own timing scopes (recorded at `Level::Trace`), read from
/// their exact sums and counts as self times. The scopes nest as
/// `embed_hierarchy[_batch] ⊃ coarsen ⊃ {assignment ⊃ {gcont, moa},
/// soft_sample}`. `batched_graphs` is the number of graphs the batched
/// scope covered, when a call embeds more than one.
pub fn record_core_self_times(v: &mut LayerValues, batched_graphs: Option<u64>) {
    let h = |name: &str| hap_obs::histogram(name).map_or((0.0, 0u64), |h| (h.sum, h.count));
    let (single, n_single) = h("time.core.embed_hierarchy");
    let (batch, n_batch) = h("time.core.embed_hierarchy_batch");
    let (coarsen, n_coarsen) = h("time.core.coarsen");
    let (assign, n_assign) = h("time.core.coarsen.assignment");
    let (soft, n_soft) = h("time.core.coarsen.soft_sample");
    let (gcont, n_gcont) = h("time.core.gcont");
    let (moa, n_moa) = h("time.core.moa");
    let per_us = |ns: f64, n: u64| if n == 0 { 0.0 } else { ns / n as f64 / 1e3 };
    let graphs = n_single + batched_graphs.unwrap_or(n_batch);
    v.insert("core.encoder_us", per_us(single + batch - coarsen, graphs));
    v.insert(
        "core.coarsen_self_us",
        per_us(coarsen - assign - soft, n_coarsen),
    );
    v.insert(
        "core.assignment_self_us",
        per_us(assign - gcont - moa, n_assign),
    );
    v.insert("core.soft_sample_us", per_us(soft, n_soft));
    v.insert("core.gcont_us", per_us(gcont, n_gcont));
    v.insert("core.moa_us", per_us(moa, n_moa));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let r = RunResult {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![Metric::new("setup_s", 0.5, "s")],
        };
        let v = hap_serve::Json::parse(&r.to_json()).unwrap();
        assert_eq!(
            v.get("attempted").and_then(hap_serve::Json::as_usize),
            Some(3)
        );
        let m = v.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(m.get("value").and_then(hap_serve::Json::as_f64), Some(0.5));
        assert_eq!(m.get("unit").and_then(hap_serve::Json::as_str), Some("s"));
    }

    #[test]
    fn layer_table_matches_the_declaration() {
        let bench = hap_serve::Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let declared: Vec<(String, String)> = bench
            .get("per_layer")
            .and_then(hap_serve::Json::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                let field = |k: &str| {
                    m.get(k)
                        .and_then(hap_serve::Json::as_str)
                        .unwrap()
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect();
        let table: Vec<(String, String)> = LAYER_METRICS
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(table, declared);
    }

    #[test]
    #[should_panic(expected = "undeclared per-layer metric")]
    fn undeclared_layer_metrics_are_refused() {
        layer_metrics(&LayerValues::from([("nope_us", 1.0)]));
    }

    #[test]
    fn peak_rss_is_at_least_the_current_rss() {
        let now = rss_mb().unwrap();
        assert!(now > 0.0);
        assert!(peak_rss_metric(now).unwrap().value >= 0.0);
    }
}
