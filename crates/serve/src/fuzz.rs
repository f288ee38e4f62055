//! Seeded fuzzing of the request path a served graph is built from.
//!
//! Valid `/classify`, `/similarity`, `/search` and `/update` bodies are
//! mutated with `hap-rand` (byte flips, truncations, duplicated spans,
//! numbers swapped for huge, negative or fractional values) and fed to
//! `http::read_request`, `Json::parse`, `graph_from_json` and the route
//! body parsers. Properties: nothing panics; every rejection is a typed
//! error that maps to a 4xx (or a dropped connection for a short read);
//! every accepted graph has at most `MAX_GRAPH_NODES` nodes and
//! bit-symmetric rows. A fixed seed and budget keep each run
//! reproducible and inside `cargo test`.

use crate::batch::Job;
use crate::http::{read_request, HttpError};
use crate::server::{parse_classify, parse_search, parse_similarity, parse_update};
use crate::service::{graph_from_json, MAX_GRAPH_NODES, MAX_SEARCH_K, MAX_UPDATE_OPS};
use crate::Json;
use hap_graph::Graph;
use hap_rand::Rng;
use std::io::Cursor;

/// Mutated inputs per property test.
const BUDGET: usize = 3000;

/// One valid body per route shape (routes repeat for the wrapped forms).
const CORPUS: &[(&str, &str)] = &[
    (
        "/classify",
        r#"{"n": 6, "edges": [[0,1],[1,2],[2,3],[3,4],[4,5],[5,0]]}"#,
    ),
    (
        "/classify",
        r#"{"graph": {"n": 4, "edges": [[0,1],[0,2],[0,3]], "labels": [0,1,1,2]}}"#,
    ),
    (
        "/similarity",
        r#"{"a": {"n": 3, "edges": [[0,1],[1,2]]}, "b": {"n": 3, "edges": [[0,1],[1,2],[2,0]]}}"#,
    ),
    (
        "/search",
        r#"{"graph": {"n": 5, "edges": [[0,1],[1,2],[2,3],[3,4]]}, "k": 3, "budget": 16, "rerank": true}"#,
    ),
    (
        "/update",
        r#"{"id": 2, "ops": [{"op":"add","u":0,"v":3,"w":1.5},{"op":"remove","u":1,"v":2}]}"#,
    ),
];

/// Replacement numbers: huge, negative, fractional and boundary values.
const NUMBERS: &[&str] = &[
    "1e308",
    "1e999",
    "-1e999",
    "-1",
    "-0.0",
    "0.5",
    "2.5e-320",
    "9007199254740993",
    "18446744073709551616",
    "512",
    "513",
    "0",
];

/// Applies one to three random mutations to `input`.
fn mutate(rng: &mut Rng, input: &[u8]) -> Vec<u8> {
    let mut out = input.to_vec();
    for _ in 0..rng.gen_range(1..=3usize) {
        match rng.gen_range(0..4u32) {
            0 if !out.is_empty() => {
                let i = rng.gen_range(0..out.len());
                out[i] ^= rng.gen_range(1..=255u8);
            }
            1 => {
                let cut = rng.gen_range(0..=out.len());
                out.truncate(cut);
            }
            2 if !out.is_empty() => {
                let a = rng.gen_range(0..out.len());
                let b = rng.gen_range(a..=out.len());
                let at = rng.gen_range(0..=out.len());
                let span = out[a..b].to_vec();
                out.splice(at..at, span);
            }
            _ => {
                let spans = number_spans(&out);
                if !spans.is_empty() {
                    let (a, b) = spans[rng.gen_range(0..spans.len())];
                    let with = NUMBERS[rng.gen_range(0..NUMBERS.len())];
                    out.splice(a..b, with.bytes());
                }
            }
        }
    }
    out
}

/// The byte spans of the numeric tokens in `s`.
fn number_spans(s: &[u8]) -> Vec<(usize, usize)> {
    let is_num = |c: u8| c.is_ascii_digit() || matches!(c, b'-' | b'.' | b'e' | b'E' | b'+');
    let mut spans = Vec::new();
    let mut i = 0;
    while i < s.len() {
        if s[i].is_ascii_digit() || s[i] == b'-' {
            let start = i;
            while i < s.len() && is_num(s[i]) {
                i += 1;
            }
            spans.push((start, i));
        } else {
            i += 1;
        }
    }
    spans
}

/// An accepted graph is within the node cap, its rows are symmetric bit
/// for bit, and its maintained edge count matches its edge list.
fn check_graph(g: &Graph) {
    assert!(g.n() <= MAX_GRAPH_NODES, "accepted n = {}", g.n());
    assert!(g.adjacency_csr().is_symmetric(), "asymmetric rows");
    assert_eq!(g.num_edges(), g.edges().len());
}

fn check_job(job: &Job) {
    match job {
        Job::Classify(g) => check_graph(g),
        Job::Similarity(a, b) => {
            check_graph(a);
            check_graph(b);
        }
        Job::Search { graph, k, .. } => {
            check_graph(graph);
            assert!((1..=MAX_SEARCH_K).contains(k));
        }
        Job::Update { ops, .. } => assert!((1..=MAX_UPDATE_OPS).contains(&ops.len())),
    }
}

/// Runs every route parser on `body`; an accepted job must satisfy
/// [`check_job`], a rejection is the `Err` the router answers 400 with.
fn parse_everywhere(body: &[u8]) {
    for parse in [parse_classify, parse_similarity, parse_search, parse_update] {
        if let Ok(job) = parse(body) {
            check_job(&job);
        }
    }
}

#[test]
fn json_and_graph_parsers_survive_mutated_bodies() {
    let mut rng = Rng::from_seed(0xF022);
    for _ in 0..BUDGET {
        let (_, body) = CORPUS[rng.gen_range(0..CORPUS.len())];
        let bytes = mutate(&mut rng, body.as_bytes());
        let Ok(text) = std::str::from_utf8(&bytes) else {
            continue;
        };
        let Ok(v) = Json::parse(text) else {
            continue;
        };
        for candidate in [Some(&v), v.get("graph"), v.get("a"), v.get("b")]
            .into_iter()
            .flatten()
        {
            if let Ok(g) = graph_from_json(candidate) {
                check_graph(&g);
            }
        }
    }
}

#[test]
fn route_parsers_survive_mutated_bodies() {
    let mut rng = Rng::from_seed(0xF023);
    for (_, body) in CORPUS {
        parse_everywhere(body.as_bytes());
    }
    for _ in 0..BUDGET {
        let (_, body) = CORPUS[rng.gen_range(0..CORPUS.len())];
        parse_everywhere(&mutate(&mut rng, body.as_bytes()));
    }
}

#[test]
fn read_request_survives_mutated_wire_bytes() {
    const MAX_BODY: usize = 4096;
    let mut rng = Rng::from_seed(0xF024);
    for _ in 0..BUDGET {
        let (path, body) = CORPUS[rng.gen_range(0..CORPUS.len())];
        let wire = format!(
            "POST {path} HTTP/1.1\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
            body.len()
        );
        let bytes = mutate(&mut rng, wire.as_bytes());
        match read_request(&mut Cursor::new(&bytes), MAX_BODY) {
            Ok(req) => {
                assert!(req.body.len() <= MAX_BODY);
                parse_everywhere(&req.body);
            }
            // 400, 413, or a short read that just drops the connection.
            Err(HttpError::BadRequest(_) | HttpError::PayloadTooLarge(_) | HttpError::Io(_)) => {}
        }
    }
}
