//! End-to-end checks of the benchmark against its own contract: output
//! hashes that do not depend on thread count or connection count, and
//! result lines that carry exactly the metrics `BENCHMARK.json` declares.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`;
//! the debug build of the model stack is slow.

use hap_perfbench::client::closed_loop;
use hap_perfbench::serve::{self, ServeKind};
use hap_perfbench::{spec, stats, train, WORKLOADS};
use hap_serve::Json;
use hap_snapshot::ModelSnapshot;
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn snapshot() -> ModelSnapshot<f64> {
    ModelSnapshot::load(&repo_root().join("results/model.snap")).expect("committed snapshot")
}

/// Computes every workload's golden hash in this process and checks it
/// against the recorded one. Driven in child processes by
/// `golden_hashes_do_not_depend_on_thread_count`.
#[test]
#[ignore = "run in a child process with a fixed HAP_THREADS"]
fn golden_hashes_match_the_recorded_ones() {
    let snap = snapshot();
    for name in WORKLOADS {
        let spec = spec::workload(name).unwrap();
        let hash = match ServeKind::from_name(name) {
            Some(kind) => serve::golden_hash(kind, &snap, &spec).unwrap(),
            None => train::golden_hash(&spec),
        };
        println!("golden {name} {hash}");
        assert_eq!(hash, spec.golden.hash, "{name}");
    }
}

#[test]
fn golden_hashes_do_not_depend_on_thread_count() {
    let exe = std::env::current_exe().unwrap();
    let mut outputs = Vec::new();
    for threads in [Some("1"), None] {
        let mut cmd = Command::new(&exe);
        cmd.args([
            "--exact",
            "golden_hashes_match_the_recorded_ones",
            "--ignored",
            "--nocapture",
        ]);
        match threads {
            Some(t) => cmd.env("HAP_THREADS", t),
            None => cmd.env_remove("HAP_THREADS"),
        };
        let out = cmd.output().unwrap();
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(
            out.status.success(),
            "HAP_THREADS={threads:?}:\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let hashes: Vec<String> = stdout
            .lines()
            .filter(|l| l.starts_with("golden "))
            .map(str::to_string)
            .collect();
        assert_eq!(hashes.len(), WORKLOADS.len(), "{stdout}");
        outputs.push(hashes);
    }
    assert_eq!(outputs[0], outputs[1]);
}

/// The served bodies of a plan hash the same over one connection and two,
/// and equal the in-process reference. (`stream` is ordered — updates and
/// searches must interleave as planned — so it always uses one.)
#[test]
fn body_hash_does_not_depend_on_connection_count() {
    let snap = snapshot();
    let snap_path = repo_root().join("results/model.snap");
    for kind in [ServeKind::Hot, ServeKind::Cold] {
        let plan = kind.plan(3, 120);
        let reference: Vec<String> = serve::reference_bodies(&snap, &kind.service(), &plan)
            .unwrap()
            .into_iter()
            .map(Result::unwrap)
            .collect();
        let (server, _) = serve::start(kind, &snap_path).unwrap();
        for conns in [1, 2] {
            let (out, _) = closed_loop(server.addr(), &plan, conns);
            assert_eq!(out.len(), plan.len(), "{kind:?} x {conns}");
            assert!(out.iter().all(|o| o.status == 200));
            let bodies: Vec<&str> = out.iter().map(|o| o.body.as_str()).collect();
            assert_eq!(
                stats::hash_bodies(&bodies),
                stats::hash_bodies(&reference),
                "{kind:?} over {conns} connection(s)"
            );
        }
    }
}

fn declared(kind: &str) -> Vec<String> {
    let bench =
        Json::parse(&std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap()).unwrap();
    let mut names: Vec<String> = bench
        .get(kind)
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect();
    names.sort();
    names
}

fn run_bench(workload: &str, seconds: &str, trace: &str) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_hap-perfbench"))
        .current_dir(repo_root())
        .args([
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            seconds,
            "--trace",
            trace,
        ])
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let v = Json::parse(last).unwrap();
    assert_eq!(
        v.get("correct").and_then(Json::as_bool),
        Some(true),
        "{last}"
    );
    assert_eq!(v.get("failed").and_then(Json::as_usize), Some(0), "{last}");
    v
}

fn metric_names(v: &Json) -> Vec<String> {
    let mut names: Vec<String> = match v.get("metrics") {
        Some(Json::Obj(members)) => members.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("metrics is not an object: {other:?}"),
    };
    names.sort();
    names
}

fn value(v: &Json, name: &str) -> f64 {
    v.get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("no {name}"))
}

#[test]
fn result_lines_carry_exactly_the_declared_metrics() {
    let e2e = run_bench("serve-hot", "3", "0");
    assert_eq!(metric_names(&e2e), declared("end_to_end"));
    for name in declared("end_to_end") {
        assert!(value(&e2e, &name) > 0.0, "{name}");
    }
    // Every layer a workload exercises reads non-zero in its traced run.
    let hot = run_bench("serve-hot", "3", "1");
    assert_eq!(metric_names(&hot), declared("per_layer"));
    for name in [
        "http.read_request_us",
        "json.parse_us",
        "json.graph_from_json_us",
        "batch.submit_us",
        "batch.size_mean",
        "cache.hits",
        "service.classify_us_per_graph",
        "service.search_us",
        "graph.wl_key_us",
        "core.embed_us_per_graph",
        "core.encoder_us",
        "core.moa_us",
        "retrieval.cascade_us",
        "snapshot.load_us",
        "loadgen.lag_p99_ms",
    ] {
        assert!(value(&hot, name) > 0.0, "serve-hot {name}");
    }
    let train = run_bench("train", "1", "1");
    assert_eq!(metric_names(&train), declared("per_layer"));
    for name in [
        "train.forward_us",
        "train.backward_us",
        "train.optimizer_us",
        "train.eval_us",
        "core.embed_us_per_graph",
        "core.coarsen_self_us",
    ] {
        assert!(value(&train, name) > 0.0, "train {name}");
    }
    assert_eq!(value(&train, "http.read_request_us"), 0.0);
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_hap-perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
