//! Streaming-update benchmark for `hap-serve`'s `POST /update` path.
//!
//! Starts the server in-process on an ephemeral loopback port (committed
//! snapshot, search enabled) and replays a seeded, deterministic stream
//! of interleaved `/update` and `/search` requests over real TCP. Every
//! update batch mutates a corpus graph in place (`Graph::apply` →
//! index-slot rewrite); every search immediately reads the mutated index
//! back. `results_hash` is an FNV-1a over all response bodies in request
//! order — the same construction as loadgen's `response_hash` — and must
//! be byte-stable across runs, client counts and `HAP_THREADS` settings
//! (`scripts/ci.sh` replays it under both threading modes and compares).
//! The artefact (default `results/stream.json`) also records the
//! `/update` round-trip p50 and p99.
//!
//! ```text
//! cargo run --release -p hap-bench --bin stream_bench -- \
//!     [--snapshot results/model.snap] [--updates 48] [--seed 7] \
//!     [--out results/stream.json]
//! ```

use hap_graph::{generators, Graph};
use hap_rand::Rng;
use hap_serve::{serve_snapshot_file, ServeConfig, ServiceConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::Instant;

struct Args {
    snapshot: PathBuf,
    updates: usize,
    seed: u64,
    out: PathBuf,
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: stream_bench [--snapshot <path>] [--updates <n>] [--seed <u64>] [--out <path>]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        snapshot: PathBuf::from("results/model.snap"),
        updates: 48,
        seed: 7,
        out: PathBuf::from("results/stream.json"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} requires a value")))
        };
        match a.as_str() {
            "--snapshot" => args.snapshot = PathBuf::from(value("--snapshot")),
            "--updates" => {
                args.updates = value("--updates")
                    .parse()
                    .ok()
                    .filter(|&u| u > 0)
                    .unwrap_or_else(|| usage("--updates must be a positive usize"))
            }
            "--seed" => {
                args.seed = value("--seed")
                    .parse()
                    .unwrap_or_else(|_| usage("--seed must be a u64"))
            }
            "--out" => args.out = PathBuf::from(value("--out")),
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    args
}

/// Sends one request over a fresh connection; returns (status, body, ns).
fn send(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String, u64) {
    let start = Instant::now();
    let mut s = TcpStream::connect(addr).expect("connect to serve");
    let _ = s.set_nodelay(true);
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: stream-bench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    s.write_all(head.as_bytes()).expect("write request");
    s.write_all(body.as_bytes()).expect("write body");
    let mut response = String::new();
    s.read_to_string(&mut response).expect("read response");
    let ns = start.elapsed().as_nanos() as u64;
    let status: u16 = response
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body, ns)
}

/// FNV-1a over all response bodies in request order (loadgen's
/// construction: 0xFF separator per body so concatenation is unambiguous).
fn results_hash(bodies: &[String]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in bodies {
        for &byte in b.as_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h ^= 0xFF;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Serialises a graph into the serve wire schema.
fn graph_json(g: &Graph) -> String {
    let mut edges = Vec::new();
    for u in 0..g.n() {
        for v in (u + 1)..g.n() {
            if g.has_edge(u, v) {
                edges.push(format!("[{u},{v}]"));
            }
        }
    }
    format!("{{\"n\": {}, \"edges\": [{}]}}", g.n(), edges.join(","))
}

/// One seeded `/update` op batch as a JSON array. Ops touch only nodes
/// `{0, 1, 2}` — every corpus graph has at least 3 nodes, so the batch
/// is structurally valid against any slot (removing an absent edge is a
/// legal bit-level no-op).
fn plan_ops(rng: &mut Rng, batch: usize) -> String {
    let ops: Vec<String> = (0..batch)
        .map(|_| {
            let u = rng.gen_range(0..3usize);
            let v = (u + 1 + rng.gen_range(0..2usize)) % 3;
            if rng.gen_f64() < 0.6 {
                let w = [1.0, 0.5, 2.0][rng.gen_range(0..3usize)];
                format!("{{\"op\":\"add\",\"u\":{u},\"v\":{v},\"w\":{w:?}}}")
            } else {
                format!("{{\"op\":\"remove\",\"u\":{u},\"v\":{v}}}")
            }
        })
        .collect();
    format!("[{}]", ops.join(","))
}

/// The end-to-end replay: interleaved `/update` + `/search` against the
/// served snapshot. Returns (hash, errors, update latencies in ns).
fn replay(args: &Args) -> (u64, usize, Vec<u64>) {
    let corpus_len = 64usize;
    let config = ServeConfig {
        service: ServiceConfig {
            search_corpus: corpus_len,
            ..ServiceConfig::default()
        },
        ..ServeConfig::default()
    };
    let handle = serve_snapshot_file(&args.snapshot, config, None).unwrap_or_else(|e| {
        eprintln!(
            "stream_bench: cannot serve {}: {e}",
            args.snapshot.display()
        );
        eprintln!(
            "             (generate it with: cargo run --release -p hap-bench --bin train_snapshot)"
        );
        std::process::exit(1);
    });
    let addr = handle.addr();
    let (hstatus, hbody, _) = send(addr, "GET", "/healthz", "");
    assert_eq!(
        (hstatus, hbody.as_str()),
        (200, "{\"status\":\"ok\"}"),
        "healthz"
    );
    eprintln!(
        "== stream_bench: {} update/search rounds against {addr} (seed {}) ==",
        args.updates, args.seed
    );

    let mut root = Rng::from_seed(args.seed);
    let mut plan_rng = root.fork("plan");
    let queries: Vec<String> = (0..8)
        .map(|i| {
            let mut rng = root.fork(&format!("query{i}"));
            let n = rng.gen_range(6..=16usize);
            let g = match i % 3 {
                0 => generators::erdos_renyi_connected(n, 0.3, &mut rng),
                1 => generators::barabasi_albert(n, 2, &mut rng),
                _ => generators::cycle(n),
            };
            graph_json(&g)
        })
        .collect();

    let mut bodies = Vec::new();
    let mut errors = 0usize;
    let mut latencies = Vec::new();
    for i in 0..args.updates {
        let id = plan_rng.gen_range(0..corpus_len);
        let batch = 1 + plan_rng.gen_range(0..4usize);
        let ops = plan_ops(&mut plan_rng, batch);
        let body = format!("{{\"id\": {id}, \"ops\": {ops}}}");
        let (status, reply, ns) = send(addr, "POST", "/update", &body);
        if status != 200 {
            errors += 1;
        }
        latencies.push(ns);
        bodies.push(reply);

        let q = &queries[i % queries.len()];
        let (status, reply, _) = send(
            addr,
            "POST",
            "/search",
            &format!("{{\"graph\": {q}, \"k\": 5}}"),
        );
        if status != 200 {
            errors += 1;
        }
        bodies.push(reply);
    }
    handle.shutdown();
    (results_hash(&bodies), errors, latencies)
}

fn main() {
    let args = parse_args();

    let (hash, errors, mut latencies) = replay(&args);
    latencies.sort_unstable();
    let q = |f: f64| latencies[((latencies.len() - 1) as f64 * f) as usize];
    let (p50, p99) = (q(0.5), q(0.99));
    eprintln!(
        "replay: {} rounds, {errors} errors, /update p50 {:.2}ms p99 {:.2}ms, hash {hash:016x}",
        args.updates,
        p50 as f64 / 1e6,
        p99 as f64 / 1e6
    );

    let json = format!(
        "{{\n  \"updates\": {},\n  \"seed\": {},\n  \"errors\": {},\n  \"results_hash\": \"{:016x}\",\n  \"update_latency_ns\": {{\"p50\": {}, \"p99\": {}}}\n}}\n",
        args.updates,
        args.seed,
        errors,
        hash,
        p50,
        p99
    );
    if let Some(dir) = args.out.parent() {
        std::fs::create_dir_all(dir).expect("create results dir");
    }
    std::fs::write(&args.out, &json).expect("write stream.json");
    eprintln!("results_hash {hash:016x} -> {}", args.out.display());

    if errors > 0 {
        eprintln!("stream_bench: FAIL — {errors} request(s) did not answer 200");
        std::process::exit(1);
    }
}
