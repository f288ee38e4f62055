//! End-to-end tests over a real TCP socket: a tiny untrained snapshot is
//! served on an ephemeral port and exercised by raw `TcpStream` clients,
//! including the hostile inputs (malformed request lines, oversized
//! bodies, empty graphs) that must map to 4xx without killing a worker.

use hap_autograd::ParamStore;
use hap_core::{HapClassifier, HapConfig, HapModel};
use hap_rand::Rng;
use hap_serve::{serve, ServeConfig, ServerHandle};
use hap_snapshot::ModelSnapshot;
use std::io::{Read, Write};
use std::net::TcpStream;

fn tiny_snapshot() -> ModelSnapshot {
    let mut rng = Rng::from_seed(3);
    let mut store = ParamStore::new();
    let cfg = HapConfig::new(4, 4).with_clusters(&[2]);
    let model = HapModel::new(&mut store, &cfg, &mut rng);
    let _clf = HapClassifier::new(&mut store, model, 2, &mut rng);
    ModelSnapshot::capture(&cfg, 2, &store)
}

fn start() -> ServerHandle {
    serve(
        tiny_snapshot(),
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
    )
    .expect("server starts")
}

/// Sends raw bytes, returns (status line, body).
fn raw(handle: &ServerHandle, bytes: &[u8]) -> (String, String) {
    let mut s = TcpStream::connect(handle.addr()).expect("connect");
    s.write_all(bytes).expect("write");
    let mut response = String::new();
    s.read_to_string(&mut response).expect("read");
    let status = response.lines().next().unwrap_or("").to_string();
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn request(handle: &ServerHandle, method: &str, path: &str, body: &str) -> (String, String) {
    let raw_bytes = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    raw(handle, raw_bytes.as_bytes())
}

#[test]
fn healthz_and_unknown_routes() {
    let h = start();
    let (status, body) = request(&h, "GET", "/healthz", "");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert_eq!(body, "{\"status\":\"ok\"}");

    let (status, _) = request(&h, "GET", "/nope", "");
    assert!(status.contains("404"), "{status}");

    let (status, _) = request(&h, "DELETE", "/classify", "");
    assert!(status.contains("405"), "{status}");

    let (status, _) = request(&h, "GET", "/classify", "");
    assert!(status.contains("405"), "GET on a POST route: {status}");
    h.shutdown();
}

#[test]
fn classify_roundtrip_is_deterministic() {
    let h = start();
    let payload = r#"{"n": 4, "edges": [[0,1],[1,2],[2,3]]}"#;
    let (status, body1) = request(&h, "POST", "/classify", payload);
    assert_eq!(status, "HTTP/1.1 200 OK", "{body1}");
    assert!(body1.starts_with("{\"label\":"), "{body1}");
    let (_, body2) = request(&h, "POST", "/classify", payload);
    assert_eq!(body1, body2, "same payload must answer byte-identically");

    // The {"graph": ...} envelope is accepted too.
    let wrapped = format!("{{\"graph\": {payload}}}");
    let (_, body3) = request(&h, "POST", "/classify", &wrapped);
    assert_eq!(body1, body3);
    h.shutdown();
}

#[test]
fn pipelined_keep_alive_requests_in_one_write_get_two_answers() {
    // The second request arrives in the same segment as the first, so it
    // sits in the connection's read buffer while the first is answered.
    let h = start();
    let payload = r#"{"n": 4, "edges": [[0,1],[1,2],[2,3]]}"#;
    let (_, expected) = request(&h, "POST", "/classify", payload);
    let pipelined = format!(
        "GET /healthz HTTP/1.1\r\nConnection: keep-alive\r\n\r\n\
         POST /classify HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{payload}",
        payload.len()
    );
    let (first_status, rest) = raw(&h, pipelined.as_bytes());
    assert_eq!(first_status, "HTTP/1.1 200 OK");
    // `raw` splits at the first blank line: `rest` is the first body
    // followed by the whole second response.
    let second = rest
        .strip_prefix("{\"status\":\"ok\"}")
        .unwrap_or_else(|| panic!("first answer must be /healthz: {rest}"));
    let (second_head, second_body) = second.split_once("\r\n\r\n").expect("second response");
    assert!(
        second_head.starts_with("HTTP/1.1 200 OK\r\n"),
        "{second_head}"
    );
    assert!(second_head.contains("Connection: close"), "{second_head}");
    assert_eq!(second_body, expected);
    h.shutdown();
}

#[test]
fn similarity_of_a_graph_with_itself_is_one() {
    let h = start();
    let payload = r#"{"a": {"n": 4, "edges": [[0,1],[1,2],[2,3]]},
                      "b": {"n": 4, "edges": [[0,1],[1,2],[2,3]]}}"#;
    let (status, body) = request(&h, "POST", "/similarity", payload);
    assert_eq!(status, "HTTP/1.1 200 OK", "{body}");
    assert!(body.starts_with("{\"mean\":1.0"), "{body}");

    let (status, body) = request(&h, "POST", "/similarity", r#"{"a": {"n": 2}}"#);
    assert!(status.contains("400"), "missing b: {status} {body}");
    h.shutdown();
}

#[test]
fn hostile_inputs_get_4xx_and_workers_survive() {
    let h = start();
    // Malformed request line.
    let (status, _) = raw(&h, b"GARBAGE NONSENSE\r\n\r\n");
    assert!(status.contains("400"), "{status}");

    // Declared body over the 1 MiB cap: 413 without reading the body.
    let (status, _) = raw(
        &h,
        b"POST /classify HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n",
    );
    assert!(status.contains("413"), "{status}");

    // Unparseable JSON.
    let (status, _) = request(&h, "POST", "/classify", "{not json");
    assert!(status.contains("400"), "{status}");

    // Schema violations: n missing, edge out of range, empty graph.
    for bad in [
        r#"{"edges": []}"#,
        r#"{"n": 3, "edges": [[0, 7]]}"#,
        r#"{"n": 0}"#,
    ] {
        let (status, body) = request(&h, "POST", "/classify", bad);
        assert!(status.contains("400"), "{bad}: {status}");
        assert!(body.contains("error"), "{bad}: {body}");
    }

    // After all of the above, the pool still answers correctly —
    // including the n=1 edge case (zero-padded pooling path).
    let (status, body) = request(&h, "POST", "/classify", r#"{"n": 1}"#);
    assert_eq!(status, "HTTP/1.1 200 OK", "{body}");
    assert!(body.starts_with("{\"label\":"), "{body}");
    h.shutdown();
}

#[test]
fn metrics_reports_cache_and_latency() {
    let h = start();
    let payload = r#"{"n": 5, "edges": [[0,1],[1,2],[2,3],[3,4]]}"#;
    let (_, _) = request(&h, "POST", "/classify", payload);
    let (_, _) = request(&h, "POST", "/classify", payload);
    let (status, body) = request(&h, "GET", "/metrics", "");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let v = hap_serve::Json::parse(&body).expect("metrics body must be valid JSON");
    let cache = v.get("cache").expect("cache section");
    let hits = cache.get("hits").and_then(|x| x.as_f64()).unwrap();
    let misses = cache.get("misses").and_then(|x| x.as_f64()).unwrap();
    assert!(hits >= 1.0, "second identical request must hit: {body}");
    assert!(misses >= 1.0);
    assert!(v.get("latency").is_some());
    h.shutdown();
}

#[test]
fn labelled_graphs_classify_and_out_of_range_labels_are_total() {
    let h = start();
    let (status, body) = request(
        &h,
        "POST",
        "/classify",
        r#"{"n": 3, "edges": [[0,1],[1,2]], "labels": [0, 1, 3]}"#,
    );
    assert_eq!(status, "HTTP/1.1 200 OK", "{body}");
    // Label 99 is out of the model's 4-dim feature range; clamping keeps
    // the request servable rather than panicking a worker.
    let (status, body) = request(
        &h,
        "POST",
        "/classify",
        r#"{"n": 2, "edges": [[0,1]], "labels": [0, 99]}"#,
    );
    assert_eq!(status, "HTTP/1.1 200 OK", "{body}");
    h.shutdown();
}

#[test]
fn search_answers_503_when_disabled() {
    let h = start();
    let (status, body) = request(&h, "POST", "/search", r#"{"n": 3, "edges": [[0,1],[1,2]]}"#);
    assert!(status.contains("503"), "{status}");
    assert!(body.contains("not enabled"), "{body}");
    h.shutdown();
}

#[test]
fn search_roundtrip_is_deterministic_and_validates_input() {
    let h = serve(
        tiny_snapshot(),
        ServeConfig {
            workers: 2,
            service: hap_serve::ServiceConfig {
                search_corpus: 64,
                ..hap_serve::ServiceConfig::default()
            },
            ..ServeConfig::default()
        },
    )
    .expect("server with search starts");

    let payload = r#"{"graph": {"n": 5, "edges": [[0,1],[1,2],[2,3],[3,4]]}, "k": 5}"#;
    let (status, body1) = request(&h, "POST", "/search", payload);
    assert_eq!(status, "HTTP/1.1 200 OK", "{body1}");
    assert!(body1.starts_with("{\"results\":[{\"id\":"), "{body1}");
    assert!(body1.contains("\"reranked\":false"), "{body1}");
    let (_, body2) = request(&h, "POST", "/search", payload);
    assert_eq!(body1, body2, "same payload must answer byte-identically");

    // A bare graph object works too, with defaults.
    let (status, body) = request(&h, "POST", "/search", r#"{"n": 3, "edges": [[0,1],[1,2]]}"#);
    assert_eq!(status, "HTTP/1.1 200 OK", "{body}");

    // Reranked search returns the same ids (possibly reordered) and
    // flags itself.
    let reranked =
        r#"{"graph": {"n": 5, "edges": [[0,1],[1,2],[2,3],[3,4]]}, "k": 5, "rerank": true}"#;
    let (status, body) = request(&h, "POST", "/search", reranked);
    assert_eq!(status, "HTTP/1.1 200 OK", "{body}");
    assert!(body.contains("\"reranked\":true"), "{body}");

    // k above the corpus size (but within MAX_SEARCH_K, so it passes
    // wire validation) must clamp to the corpus, not panic the model
    // thread with an inverted clamp range.
    let big_k = r#"{"graph": {"n": 5, "edges": [[0,1],[1,2],[2,3],[3,4]]}, "k": 100}"#;
    let (status, body) = request(&h, "POST", "/search", big_k);
    assert_eq!(status, "HTTP/1.1 200 OK", "{body}");
    assert_eq!(
        body.matches("\"id\":").count(),
        64,
        "k=100 over a 64-graph corpus must return the whole corpus: {body}"
    );
    // The model thread must still answer afterwards.
    let (status, after) = request(&h, "POST", "/search", payload);
    assert_eq!(status, "HTTP/1.1 200 OK", "{after}");
    assert_eq!(after, body1, "service state must be unchanged");

    // Invalid knobs are 400s, not panics.
    for bad in [
        r#"{"graph": {"n": 3}, "k": 0}"#,
        r#"{"graph": {"n": 3}, "k": 5000}"#,
        r#"{"graph": {"n": 3}, "budget": 0}"#,
        r#"{"graph": {"n": 3}, "rerank": 7}"#,
        r#"{"n": 0}"#,
    ] {
        let (status, body) = request(&h, "POST", "/search", bad);
        assert!(
            status.contains("400"),
            "payload {bad} must be rejected: {status} {body}"
        );
    }
    h.shutdown();
}

#[test]
fn update_answers_503_when_search_is_disabled() {
    let h = start();
    let (status, body) = request(
        &h,
        "POST",
        "/update",
        r#"{"id": 0, "ops": [{"op":"remove","u":0,"v":1}]}"#,
    );
    assert!(status.contains("503"), "{status}");
    assert!(body.contains("not enabled"), "{body}");
    let (status, _) = request(&h, "GET", "/update", "");
    assert!(status.contains("405"), "GET on /update: {status}");
    h.shutdown();
}

#[test]
fn update_moves_a_corpus_graph_in_and_out_of_the_topk() {
    let h = serve(
        tiny_snapshot(),
        ServeConfig {
            workers: 2,
            service: hap_serve::ServiceConfig {
                search_corpus: 48,
                ..hap_serve::ServiceConfig::default()
            },
            ..ServeConfig::default()
        },
    )
    .expect("server with search starts");

    // Probe slot 7's node count through the update response (removing
    // edge (0,1) may or may not apply; either way the reply reports n).
    let probe = r#"{"id": 7, "ops": [{"op":"remove","u":0,"v":1}]}"#;
    let (status, body) = request(&h, "POST", "/update", probe);
    assert_eq!(status, "HTTP/1.1 200 OK", "{body}");
    let n = hap_serve::Json::parse(&body)
        .expect("update reply is JSON")
        .get("n")
        .and_then(|x| x.as_f64())
        .expect("reply reports n") as usize;
    assert!(n >= 3, "corpus graphs have at least 3 nodes");

    // Rebuild slot 7 into exactly an n-cycle: remove every possible
    // edge (absent ones are bit-level no-ops), then add the ring.
    let mut ops = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            ops.push(format!("{{\"op\":\"remove\",\"u\":{u},\"v\":{v}}}"));
        }
    }
    for u in 0..n {
        ops.push(format!(
            "{{\"op\":\"add\",\"u\":{u},\"v\":{}}}",
            (u + 1) % n
        ));
    }
    let payload = format!("{{\"id\": 7, \"ops\": [{}]}}", ops.join(","));
    let (status, body) = request(&h, "POST", "/update", &payload);
    assert_eq!(status, "HTTP/1.1 200 OK", "{body}");
    assert!(body.contains("\"reembedded\":true"), "{body}");
    assert!(body.starts_with("{\"id\":7,"), "{body}");
    assert!(
        body.contains(&format!("\"edges\":{n}")),
        "an n-cycle: {body}"
    );
    assert!(body.contains("\"max_degree\":2"), "an n-cycle: {body}");

    // Query with that exact graph: slot 7 is now bitwise identical to
    // the query, so it must surface at distance zero — where before the
    // update the slot held a different (seeded) graph.
    let ring_edges: Vec<String> = (0..n).map(|u| format!("[{u},{}]", (u + 1) % n)).collect();
    let query = format!(
        "{{\"graph\": {{\"n\": {n}, \"edges\": [{}]}}, \"k\": 3}}",
        ring_edges.join(",")
    );
    let (status, after1) = request(&h, "POST", "/search", &query);
    assert_eq!(status, "HTTP/1.1 200 OK", "{after1}");
    let (_, after2) = request(&h, "POST", "/search", &query);
    assert_eq!(after1, after2, "post-update search must stay deterministic");
    assert!(
        after1.contains("\"id\":7,\"distance\":0"),
        "slot 7 now matches the query exactly: {after1}"
    );

    // A pure no-op batch (re-adding a ring edge at its existing weight)
    // reports zero applied ops and leaves the service byte-identical.
    let noop = r#"{"id": 7, "ops": [{"op":"add","u":0,"v":1,"w":1.0}]}"#;
    let (status, body) = request(&h, "POST", "/update", noop);
    assert_eq!(status, "HTTP/1.1 200 OK", "{body}");
    assert!(body.contains("\"applied\":0"), "{body}");
    assert!(body.contains("\"reembedded\":false"), "{body}");
    let (_, after3) = request(&h, "POST", "/search", &query);
    assert_eq!(after1, after3, "no-op update must not change answers");

    // Malformed updates are 400s, not panics; the thread answers after.
    for bad in [
        r#"{"ops": [{"op":"add","u":0,"v":1}]}"#, // missing id
        r#"{"id": 7}"#,                           // missing ops
        r#"{"id": 7, "ops": []}"#,                // empty ops
        r#"{"id": 7, "ops": [{"op":"grow","u":0,"v":1}]}"#, // unknown op
        r#"{"id": 7, "ops": [{"op":"add","u":0}]}"#, // missing v
        r#"{"id": 7, "ops": [{"op":"add","u":0,"v":0}]}"#, // self-loop
        r#"{"id": 7, "ops": [{"op":"add","u":0,"v":9999}]}"#, // out of range
        r#"{"id": 7, "ops": [{"op":"remove","u":0,"v":1,"w":2.0}]}"#, // w on remove
        r#"{"id": 7, "ops": [{"op":"add","u":0,"v":1,"w":-1.0}]}"#, // bad weight
        r#"{"id": 9999, "ops": [{"op":"remove","u":0,"v":1}]}"#, // id out of range
    ] {
        let (status, body) = request(&h, "POST", "/update", bad);
        assert!(status.contains("400"), "{bad}: {status} {body}");
    }
    let (status, after4) = request(&h, "POST", "/search", &query);
    assert_eq!(status, "HTTP/1.1 200 OK", "{after4}");
    assert_eq!(after1, after4, "rejected updates must not mutate state");
    h.shutdown();
}

#[test]
fn search_with_explicit_budget_expands_recall() {
    let h = serve(
        tiny_snapshot(),
        ServeConfig {
            workers: 1,
            service: hap_serve::ServiceConfig {
                search_corpus: 64,
                ..hap_serve::ServiceConfig::default()
            },
            ..ServeConfig::default()
        },
    )
    .expect("server with search starts");
    // Budget == corpus size means the cascade equals the exhaustive
    // scan; the answer at the default budget must match it here because
    // the default (128) already covers the whole 64-graph corpus.
    let q = r#"{"graph": {"n": 6, "edges": [[0,1],[1,2],[2,3],[3,4],[4,5],[5,0]]}, "k": 3}"#;
    let full = r#"{"graph": {"n": 6, "edges": [[0,1],[1,2],[2,3],[3,4],[4,5],[5,0]]}, "k": 3, "budget": 64}"#;
    let (_, body_default) = request(&h, "POST", "/search", q);
    let (_, body_full) = request(&h, "POST", "/search", full);
    let ids = |b: &str| {
        b.split("\"id\":")
            .skip(1)
            .map(|s| s.split(',').next().unwrap().to_string())
            .collect::<Vec<_>>()
    };
    assert_eq!(ids(&body_default), ids(&body_full));
    h.shutdown();
}
