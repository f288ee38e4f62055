//! The bridge between the HTTP workers and the single model thread.
//!
//! `HapClassifier` parameters are `Rc`-shared (deliberately — the whole
//! training stack is single-threaded by design), so the model cannot move
//! across threads. The serving layer therefore runs **one** model thread
//! that owns the classifier and its embedding cache, and the HTTP workers
//! hand it jobs over an mpsc channel. The model thread collects jobs for a
//! short window (default 1 ms) or until `max_batch`, then answers them one
//! at a time: the window only groups jobs, it shares no compute between
//! them. Responses are pure functions of the request payload, which is
//! what makes replayed traffic byte-identical at any worker count and any
//! batch composition.

use crate::json::{num, num_array};
use crate::server::ServeError;
use crate::service::{
    clamp_labels, Classification, ModelService, SearchResult, SearchState, ServiceConfig,
    Similarity,
};
use hap_graph::{EdgeDelta, Graph, GraphScalar};
use hap_snapshot::ModelSnapshot;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, Sender, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One unit of model work.
pub enum Job {
    /// Classify a single graph.
    Classify(Graph),
    /// Score a pair of graphs.
    Similarity(Graph, Graph),
    /// Top-k corpus retrieval for a query graph.
    Search {
        /// The query graph.
        graph: Graph,
        /// How many neighbours to return.
        k: usize,
        /// Cascade candidate budget (`None` = server default).
        budget: Option<usize>,
        /// Whether to exactly rerank the shortlist by GED.
        rerank: bool,
    },
    /// Stream an atomic batch of edge edits into a corpus graph and
    /// refresh its index slot in place.
    Update {
        /// The corpus slot to mutate.
        id: usize,
        /// The edge ops, applied in order.
        ops: Vec<EdgeDelta>,
    },
}

/// A job plus its reply slot. `Ok` carries the response JSON body; `Err`
/// carries a client-facing message that the HTTP layer maps to a 400.
struct Submission {
    job: Job,
    reply: SyncSender<Result<String, String>>,
}

/// Cache statistics mirrored out of the model thread so `/metrics` can
/// read them without touching the (non-`Sync`) service.
#[derive(Default)]
pub struct CacheStats {
    /// Embedding-cache hits since startup.
    pub hits: AtomicU64,
    /// Embedding-cache misses since startup.
    pub misses: AtomicU64,
}

/// Handle to the model thread: clonable submitter plus shared stats.
pub struct Batcher {
    tx: Option<Sender<Submission>>,
    stats: Arc<CacheStats>,
    handle: Option<JoinHandle<()>>,
}

/// A cloneable submission endpoint handed to each HTTP worker.
#[derive(Clone)]
pub struct BatcherClient {
    tx: Sender<Submission>,
}

impl BatcherClient {
    /// Submits a job and blocks until the model thread replies.
    ///
    /// # Errors
    /// The inner `Err` is a client-facing message (→ 400); the outer
    /// `None` means the model thread is gone (→ 500).
    pub fn submit(&self, job: Job) -> Option<Result<String, String>> {
        let (reply_tx, reply_rx) = sync_channel(1);
        self.tx
            .send(Submission {
                job,
                reply: reply_tx,
            })
            .ok()?;
        reply_rx.recv().ok()
    }
}

impl Batcher {
    /// Validates the snapshot, then spawns the model thread. The
    /// classifier is *built inside* the thread (its parameters are
    /// `Rc`-backed and cannot cross), so the snapshot is verified once
    /// here to fail fast on mismatched architectures. The model thread —
    /// and only it — is generic over the snapshot's element type; the
    /// handle, channels and HTTP layer are dtype-erased.
    ///
    /// # Errors
    /// [`ServeError::Snapshot`] when the snapshot cannot rebuild a
    /// classifier, [`ServeError::Retrieval`] when the search index
    /// cannot be built from it.
    pub fn spawn<T: GraphScalar>(
        snapshot: ModelSnapshot<T>,
        svc_cfg: ServiceConfig,
        window: Duration,
        max_batch: usize,
    ) -> Result<Batcher, ServeError> {
        // Fail fast on an unusable snapshot; the validation classifier
        // is dropped (the real one is built inside the model thread).
        snapshot.build_classifier().map_err(ServeError::Snapshot)?;
        // The retrieval index is built *before* the model thread spawns
        // (the index build hands its chunks to scoped threads); the built
        // index is plain owned data and moves into the thread. A build
        // failure surfaces through the same startup error path as a bad
        // snapshot.
        let search = if svc_cfg.search_corpus > 0 {
            let corpus = hap_data::RetrievalCorpus::new(svc_cfg.search_seed, svc_cfg.search_corpus);
            let index = hap_retrieval::GraphIndex::build(
                &snapshot,
                &corpus,
                hap_retrieval::IndexConfig {
                    wl_iterations: svc_cfg.wl_iterations,
                    ..hap_retrieval::IndexConfig::default()
                },
            )?;
            Some(SearchState::new(index, corpus))
        } else {
            None
        };
        let (tx, rx) = std::sync::mpsc::channel::<Submission>();
        let stats = Arc::new(CacheStats::default());
        let stats_thread = Arc::clone(&stats);
        let in_dim = snapshot.config.in_dim;
        let hidden = snapshot.config.hidden;
        // One readout per coarsening module (`HapModel::depth()`).
        let levels = snapshot.config.cluster_sizes.len().max(1);
        let handle = std::thread::Builder::new()
            .name("hap-serve-model".into())
            .spawn(move || {
                let (_store, clf) = snapshot
                    .build_classifier()
                    .expect("snapshot validated before spawn");
                let mut svc = ModelService::new(clf, in_dim, hidden, levels, svc_cfg);
                if let Some(state) = search {
                    svc.enable_search(state);
                }
                run_loop(&rx, &mut svc, window, max_batch, &stats_thread);
            })
            .expect("spawn model thread");
        Ok(Batcher {
            tx: Some(tx),
            stats,
            handle: Some(handle),
        })
    }

    /// A submission endpoint for an HTTP worker.
    pub fn client(&self) -> BatcherClient {
        BatcherClient {
            tx: self.tx.clone().expect("batcher not shut down"),
        }
    }

    /// Shared cache statistics for `/metrics`.
    pub fn stats(&self) -> Arc<CacheStats> {
        Arc::clone(&self.stats)
    }

    /// Stops the model thread (disconnects the channel, joins). Worker
    /// clients created earlier keep the channel alive until they drop,
    /// so the server tears workers down first.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        // Dropping tx disconnects the channel once worker clients are
        // gone; the loop then exits on its own.
        self.tx = None;
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn run_loop<T: GraphScalar>(
    rx: &Receiver<Submission>,
    svc: &mut ModelService<T>,
    window: Duration,
    max_batch: usize,
    stats: &CacheStats,
) {
    loop {
        // Block for the first job of a batch.
        let first = match rx.recv() {
            Ok(s) => s,
            Err(_) => return, // all senders gone — clean shutdown
        };
        let mut batch = vec![first];
        let deadline = Instant::now() + window;
        while batch.len() < max_batch {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            match rx.recv_timeout(deadline - now) {
                Ok(s) => batch.push(s),
                Err(RecvTimeoutError::Timeout) => break,
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        hap_obs::record("serve.batch_size", batch.len() as f64);
        // A batch answers its `/classify` jobs first, then the rest, each
        // group in arrival order. Replays depend on that order: the
        // WL-keyed cache hands a 1-WL-equal graph whichever embedding was
        // computed first.
        let (classify, rest): (Vec<_>, Vec<_>) = batch
            .into_iter()
            .partition(|sub| matches!(sub.job, Job::Classify(_)));
        for Submission { job, reply } in classify.into_iter().chain(rest) {
            // Handlers validate their inputs and should never panic, but
            // the model thread is a singleton: a panic that slipped
            // through would take down every route for the rest of the
            // process. A caught panic answers only its own job; the
            // thread (and the service state, which mutates nothing
            // observable before a result is produced) lives on.
            let body = catch_unwind(AssertUnwindSafe(|| handle_job(svc, job)))
                .unwrap_or_else(|_| Err("internal error handling request".to_string()));
            // A dead receiver just means the worker gave up; ignore.
            let _ = reply.send(body);
        }
        stats.hits.store(svc.cache_hits(), Ordering::Relaxed);
        stats.misses.store(svc.cache_misses(), Ordering::Relaxed);
    }
}

fn handle_job<T: GraphScalar>(svc: &mut ModelService<T>, job: Job) -> Result<String, String> {
    match job {
        Job::Classify(mut g) => {
            clamp_labels(&mut g, svc.in_dim());
            let Classification { label, logits } = svc.classify(&g).map_err(|e| e.to_string())?;
            Ok(format!(
                "{{\"label\":{label},\"logits\":{}}}",
                num_array(&logits)
            ))
        }
        Job::Similarity(mut a, mut b) => {
            clamp_labels(&mut a, svc.in_dim());
            clamp_labels(&mut b, svc.in_dim());
            let Similarity { per_level, mean } =
                svc.similarity(&a, &b).map_err(|e| e.to_string())?;
            Ok(format!(
                "{{\"mean\":{},\"per_level\":{}}}",
                num(mean),
                num_array(&per_level)
            ))
        }
        Job::Search {
            mut graph,
            k,
            budget,
            rerank,
        } => {
            clamp_labels(&mut graph, svc.in_dim());
            let SearchResult {
                hits,
                budget,
                reranked,
            } = svc.search(&graph, k, budget, rerank)?;
            let results: Vec<String> = hits
                .iter()
                .map(|h| format!("{{\"id\":{},\"distance\":{}}}", h.id, num(h.distance)))
                .collect();
            Ok(format!(
                "{{\"results\":[{}],\"budget\":{budget},\"reranked\":{reranked}}}",
                results.join(",")
            ))
        }
        Job::Update { id, ops } => {
            let r = svc.update(id, &ops)?;
            Ok(format!(
                "{{\"id\":{},\"applied\":{},\"noops\":{},\"n\":{},\"edges\":{},\"max_degree\":{},\"reembedded\":{},\"evicted\":{}}}",
                r.id, r.applied, r.noops, r.n, r.edges, r.max_degree, r.reembedded, r.evicted
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hap_autograd::ParamStore;
    use hap_core::{HapClassifier, HapConfig, HapModel};
    use hap_rand::Rng;

    fn tiny_snapshot() -> ModelSnapshot {
        let mut rng = Rng::from_seed(3);
        let mut store = ParamStore::<f64>::new();
        let cfg = HapConfig::new(4, 4).with_clusters(&[2]);
        let model = HapModel::new(&mut store, &cfg, &mut rng);
        let _clf = HapClassifier::new(&mut store, model, 2, &mut rng);
        ModelSnapshot::capture(&cfg, 2, &store)
    }

    #[test]
    fn jobs_roundtrip_through_the_model_thread() {
        let b = Batcher::spawn(
            tiny_snapshot(),
            ServiceConfig::default(),
            Duration::from_micros(200),
            8,
        )
        .expect("spawn");
        let client = b.client();
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let body = client.submit(Job::Classify(g.clone())).unwrap().unwrap();
        assert!(body.starts_with("{\"label\":"), "{body}");
        // Same payload → byte-identical body.
        let again = client.submit(Job::Classify(g.clone())).unwrap().unwrap();
        assert_eq!(body, again);
        let sim = client
            .submit(Job::Similarity(g.clone(), g))
            .unwrap()
            .unwrap();
        assert!(sim.starts_with("{\"mean\":1.0"), "{sim}");
        let stats = b.stats();
        drop(client); // release the channel so shutdown can join
        b.shutdown();
        assert!(stats.hits.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn a_window_answers_each_job_as_if_it_came_alone() {
        let snap = tiny_snapshot();
        let g = Graph::from_edges(7, &[(0, 1), (0, 6), (2, 4), (3, 5), (3, 6), (4, 5), (5, 6)]);
        // `g` under a node relabelling: one WL key, but on this snapshot
        // its cold logits differ from `g`'s in the last bits, so the
        // bodies show which of the two was computed first.
        let relabelled =
            Graph::from_edges(7, &[(2, 3), (2, 0), (1, 4), (5, 6), (5, 0), (4, 6), (6, 0)]);
        let star = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        let triangle = Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let arrivals = || {
            vec![
                Job::Similarity(relabelled.clone(), star.clone()),
                Job::Classify(g.clone()),
                Job::Classify(triangle.clone()),
                Job::Classify(relabelled.clone()),
            ]
        };
        // The window answers its `/classify` jobs first.
        let answering = [1, 2, 3, 0];

        // Queue every job before the loop starts, so one window holds
        // them all; the loop returns once the queue is drained.
        let (tx, rx) = std::sync::mpsc::channel();
        let replies: Vec<_> = arrivals()
            .into_iter()
            .map(|job| {
                let (reply, answer) = sync_channel(1);
                tx.send(Submission { job, reply }).unwrap();
                answer
            })
            .collect();
        drop(tx);
        let (_store, clf) = snap.build_classifier().unwrap();
        let (in_dim, hidden) = (snap.config.in_dim, snap.config.hidden);
        let mut svc = ModelService::new(clf, in_dim, hidden, 1, ServiceConfig::default());
        let stats = CacheStats::default();
        run_loop(&rx, &mut svc, Duration::from_secs(60), 64, &stats);
        let windowed: Vec<String> = replies.iter().map(|r| r.recv().unwrap().unwrap()).collect();

        // The same jobs one at a time, in answering order, through a
        // zero-window batcher.
        let b = Batcher::spawn(snap, ServiceConfig::default(), Duration::ZERO, 1).unwrap();
        let client = b.client();
        let mut jobs: Vec<Option<Job>> = arrivals().into_iter().map(Some).collect();
        for i in answering {
            let alone = client.submit(jobs[i].take().unwrap()).unwrap().unwrap();
            assert_eq!(windowed[i], alone, "job {i}");
        }
        drop(client);
        b.shutdown();
    }

    #[test]
    fn empty_graph_is_a_client_error_and_the_thread_survives() {
        let b = Batcher::spawn(
            tiny_snapshot(),
            ServiceConfig::default(),
            Duration::from_micros(200),
            8,
        )
        .expect("spawn");
        let client = b.client();
        let err = client.submit(Job::Classify(Graph::empty(0))).unwrap();
        assert!(err.is_err());
        // The model thread must still answer afterwards.
        let ok = client
            .submit(Job::Classify(Graph::empty(1)))
            .unwrap()
            .unwrap();
        assert!(ok.starts_with("{\"label\":"));
        drop(client);
        b.shutdown();
    }

    #[test]
    fn f32_snapshot_serves_through_the_model_thread() {
        let mut rng = Rng::from_seed(3);
        let mut store = ParamStore::<f32>::new();
        let cfg = HapConfig::new(4, 4).with_clusters(&[2]);
        let model = HapModel::new(&mut store, &cfg, &mut rng);
        let _clf = HapClassifier::new(&mut store, model, 2, &mut rng);
        let snap = ModelSnapshot::capture(&cfg, 2, &store);
        let b = Batcher::spawn(
            snap,
            ServiceConfig::default(),
            Duration::from_micros(200),
            8,
        )
        .expect("spawn");
        let client = b.client();
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let body = client.submit(Job::Classify(g.clone())).unwrap().unwrap();
        assert!(body.starts_with("{\"label\":"), "{body}");
        let again = client.submit(Job::Classify(g)).unwrap().unwrap();
        assert_eq!(body, again, "f32 replies must be deterministic");
        drop(client);
        b.shutdown();
    }

    #[test]
    fn concurrent_submitters_all_get_answers() {
        let b = Batcher::spawn(
            tiny_snapshot(),
            ServiceConfig::default(),
            Duration::from_millis(1),
            64,
        )
        .expect("spawn");
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let client = b.client();
            handles.push(std::thread::spawn(move || {
                let mut bodies = Vec::new();
                for i in 0..10 {
                    let n = 3 + ((t as usize + i) % 4);
                    let g = Graph::from_edges(n, &[(0, 1), (1, 2)]);
                    bodies.push(client.submit(Job::Classify(g)).unwrap().unwrap());
                }
                bodies
            }));
        }
        for h in handles {
            let bodies = h.join().unwrap();
            assert_eq!(bodies.len(), 10);
            assert!(bodies.iter().all(|b| b.starts_with("{\"label\":")));
        }
        b.shutdown();
    }
}
