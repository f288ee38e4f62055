//! # hap-serve
//!
//! A zero-dependency online inference service for trained HAP models.
//!
//! The stack, bottom to top:
//!
//! * [`json`] — hand-rolled JSON parsing/writing (the request side of the
//!   pair whose response side `hap-obs` already established);
//! * [`cache`] — a slab-backed LRU keyed by `hap_graph::wl_cache_key`,
//!   so isomorphic (and 1-WL-equivalent) request graphs share one
//!   embedding computation;
//! * [`http`] — an HTTP/1.1 request parser and response writer over
//!   `std::net`, with typed errors for malformed and oversized input;
//! * [`service`] — wire schema → [`hap_graph::Graph`], the embedding
//!   cache, and the four operations: `classify`, `similarity`, `search`
//!   (top-k retrieval over a seeded corpus) and `update` (edge edits to a
//!   corpus graph, rewriting its index slot in place);
//! * [`batch`] — the bridge between the multi-threaded HTTP layer and
//!   the single model thread (`HapClassifier` parameters are `Rc`-shared
//!   and cannot cross threads). The thread collects jobs for a short
//!   window, then answers them one at a time through the single-graph
//!   path. It is the only dtype-generic piece: it runs at the snapshot's
//!   recorded element type (`f64` or `f32`), and everything above it is
//!   dtype-erased;
//! * [`server`] — workers accepting on one shared listener, routing,
//!   `/healthz`, `/metrics`, and clean shutdown.
//!
//! Determinism contract: response bodies are pure functions of the
//! request payload — no timestamps, no cache-hit markers, no
//! thread-dependent float orderings — so identical request streams
//! produce byte-identical responses at any `HAP_THREADS` setting. The
//! loadgen harness in `hap-bench` asserts exactly that.

#![deny(missing_docs)]

pub mod batch;
pub mod cache;
#[cfg(test)]
mod fuzz;
pub mod http;
pub mod json;
pub mod server;
pub mod service;

pub use batch::{Batcher, BatcherClient, Job};
pub use cache::LruCache;
pub use json::Json;
pub use server::{serve, serve_snapshot_file, ServeConfig, ServeError, ServerHandle};
pub use service::{graph_from_json, ModelService, SearchState, ServiceConfig, UpdateResult};
