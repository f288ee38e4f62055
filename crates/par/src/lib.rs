//! # hap-par
//!
//! A zero-external-dependency, std-only data-parallel kernel layer for the
//! HAP workspace: a lazily-started scoped thread pool plus the three
//! primitives the numeric crates build on — [`scope`], [`par_chunks_mut`]
//! and [`par_join`].
//!
//! The design constraint that shapes everything here is the workspace's
//! determinism contract (DESIGN.md "Offline & determinism policy"): results
//! must be **byte-identical at every thread count**. All consumers therefore
//! partition work so that each output region (a block of matrix rows, a
//! slot in a batch result vector) is written by exactly one worker with the
//! same per-element arithmetic order as the sequential code. `hap-par` never
//! reduces across threads — there is deliberately no parallel sum/fold — so
//! floating-point summation order cannot depend on scheduling.
//!
//! Consumers: `hap-tensor`'s dense products (from 640 000 multiply–adds),
//! CSR SpMM (from 250 000) and large elementwise kernels, batched GED and
//! retrieval; each threshold is a measured crossover (EXPERIMENTS.md).
//!
//! ## The `HAP_THREADS` contract
//!
//! The effective thread count, returned by [`threads`], resolves in this
//! order:
//!
//! 1. a programmatic override installed via [`set_threads`] (used by the
//!    micro-benchmarks and the differential determinism tests);
//! 2. the `HAP_THREADS` environment variable, read **once** on first use:
//!    it must parse as an integer ≥ 1, otherwise the process panics with a
//!    diagnostic (a silently ignored typo would silently change the
//!    performance envelope);
//! 3. [`std::thread::available_parallelism`], falling back to 1 when the
//!    platform cannot report it.
//!
//! `HAP_THREADS=1` (or a 1-core machine) is the **sequential guarantee**:
//! every primitive in this crate runs its closures inline on the calling
//! thread, in order, without touching the pool — the exact code path of the
//! pre-parallel workspace, so the golden determinism tests in
//! `crates/train/tests/determinism.rs` pass bit-for-bit. Because consumers
//! keep per-cell arithmetic order fixed, outputs are byte-identical between
//! `HAP_THREADS=1` and any other setting as well; the differential tests in
//! `crates/integration/tests/par_determinism.rs` enforce this.
//!
//! ## Pool mechanics
//!
//! Worker threads are spawned lazily on the first parallel [`scope`] and
//! live for the remainder of the process (they park on a condvar when
//! idle). Tasks are lifetime-erased closures pushed to one shared injector
//! queue; a thread waiting for its scope to drain *helps* by executing
//! queued tasks. Parallelism is one level deep: a scope opened while the
//! thread is running a pool task (e.g. a parallel matmul inside a
//! batched-GED or index-build task) runs its tasks inline, exactly the
//! `HAP_THREADS=1` path. Nested scopes therefore never wait, so they
//! cannot deadlock, and a helping thread never starts a second task
//! inside the one it is running — task recursion, and the stack depth it
//! costs, stays bounded at one. The outer level already spreads work over
//! every thread. Panics inside tasks are caught, recorded, and re-raised
//! on the thread that owns the scope once all of its tasks have settled.

#![deny(missing_docs)]

use std::cell::Cell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

// ---------------------------------------------------------------------
// thread-count resolution
// ---------------------------------------------------------------------

/// 0 means "not yet resolved"; any other value is the effective count.
static THREAD_COUNT: AtomicUsize = AtomicUsize::new(0);

/// The effective worker count for parallel primitives (callers included).
///
/// Resolution order: [`set_threads`] override → `HAP_THREADS` environment
/// variable (read once; must be an integer ≥ 1) → hardware parallelism.
/// See the crate docs for the full contract.
///
/// # Panics
/// Panics when `HAP_THREADS` is set but does not parse as an integer ≥ 1.
pub fn threads() -> usize {
    match THREAD_COUNT.load(Ordering::Acquire) {
        0 => {
            let n = threads_from_env();
            // A racing initialiser computes the same value, so a plain
            // store (not CAS) is fine.
            THREAD_COUNT.store(n, Ordering::Release);
            n
        }
        n => n,
    }
}

fn threads_from_env() -> usize {
    match std::env::var("HAP_THREADS") {
        Ok(s) => match s.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => panic!("HAP_THREADS must be an integer >= 1, got {s:?}"),
        },
        Err(_) => std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

thread_local! {
    /// Whether this thread is running a pool task right now.
    static IN_TASK: Cell<bool> = const { Cell::new(false) };
}

/// Whether parallel primitives must run inline on this thread: the
/// sequential mode, or a scope nested inside a running pool task.
fn inline() -> bool {
    threads() == 1 || IN_TASK.with(Cell::get)
}

/// Overrides the effective thread count for the rest of the process (or
/// until the next call), taking precedence over `HAP_THREADS`.
///
/// This exists for the seq-vs-par micro-benchmarks and the differential
/// determinism tests, which compare both modes inside one process.
/// Because every consumer of this crate produces byte-identical output at
/// any thread count, flipping this concurrently with unrelated work is
/// safe — but tests that *compare* modes should serialise themselves (see
/// `crates/integration/tests/par_determinism.rs`).
///
/// # Panics
/// Panics when `n == 0`.
pub fn set_threads(n: usize) {
    assert!(n >= 1, "thread count must be >= 1");
    THREAD_COUNT.store(n, Ordering::Release);
}

// ---------------------------------------------------------------------
// the shared pool
// ---------------------------------------------------------------------

/// A lifetime-erased task. Soundness: [`Scope::wait`] blocks until every
/// task spawned on the scope has finished, so the erased borrows never
/// outlive the data they point into (see the `transmute` in
/// [`Scope::spawn`]).
type Job = Box<dyn FnOnce() + Send + 'static>;

struct Pool {
    queue: Mutex<VecDeque<Job>>,
    job_ready: Condvar,
    spawned_workers: Mutex<usize>,
}

static POOL: OnceLock<Pool> = OnceLock::new();

fn pool() -> &'static Pool {
    POOL.get_or_init(|| Pool {
        queue: Mutex::new(VecDeque::new()),
        job_ready: Condvar::new(),
        spawned_workers: Mutex::new(0),
    })
}

/// Grows the worker set to at least `target` threads (callers of `scope`
/// count as one extra executor, so `target` is `threads() - 1`).
fn ensure_workers(target: usize) {
    let p = pool();
    let mut spawned = p.spawned_workers.lock().unwrap();
    while *spawned < target {
        *spawned += 1;
        std::thread::Builder::new()
            .name(format!("hap-par-{spawned}"))
            .spawn(worker_loop)
            .expect("spawn hap-par worker");
    }
}

fn worker_loop() {
    let p = pool();
    loop {
        let job = {
            let mut q = p.queue.lock().unwrap();
            loop {
                if let Some(j) = q.pop_front() {
                    break j;
                }
                q = p.job_ready.wait(q).unwrap();
            }
        };
        // Jobs are pre-wrapped with catch_unwind by Scope::spawn, so a
        // panicking task cannot take the worker down.
        job();
    }
}

fn try_pop_job() -> Option<Job> {
    pool().queue.lock().unwrap().pop_front()
}

// ---------------------------------------------------------------------
// scopes
// ---------------------------------------------------------------------

struct ScopeState {
    pending: Mutex<usize>,
    all_done: Condvar,
    panicked: AtomicBool,
}

impl ScopeState {
    fn complete_one(&self) {
        let mut pending = self.pending.lock().unwrap();
        *pending -= 1;
        if *pending == 0 {
            self.all_done.notify_all();
        }
    }
}

/// A fork-join scope handed to the closure of [`scope`]; tasks spawned on
/// it may borrow data that outlives the `scope` call.
pub struct Scope<'env> {
    state: Arc<ScopeState>,
    /// Invariant marker tying spawned closures to the caller's borrows.
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'env> Scope<'env> {
    /// Spawns `f` onto the pool. With an effective thread count of 1, or
    /// inside a running pool task, the closure runs inline, immediately,
    /// on the calling thread — the sequential path of the crate docs.
    ///
    /// There are no join handles: results flow out through the mutable
    /// borrows the closure holds (each task must own its output region).
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        if inline() {
            f();
            return;
        }
        {
            let mut pending = self.state.pending.lock().unwrap();
            *pending += 1;
        }
        let state = Arc::clone(&self.state);
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            let outer = IN_TASK.with(|t| t.replace(true));
            if catch_unwind(AssertUnwindSafe(f)).is_err() {
                state.panicked.store(true, Ordering::Release);
            }
            IN_TASK.with(|t| t.set(outer));
            state.complete_one();
        });
        // SAFETY: lifetime erasure only. `Scope::wait` (always executed by
        // `scope` before it returns, even when its closure panics) blocks
        // until `pending == 0`, i.e. until this job has run to completion
        // and been dropped — so the `'env` borrows inside the box never
        // outlive their referents.
        let job: Job = unsafe { std::mem::transmute(job) };
        let p = pool();
        p.queue.lock().unwrap().push_back(job);
        p.job_ready.notify_one();
    }

    /// Blocks until every spawned task has finished, executing queued
    /// tasks (from this or any other scope) while waiting. An inline
    /// scope has nothing pending and returns at once, without helping.
    fn wait(&self) {
        loop {
            if *self.state.pending.lock().unwrap() == 0 {
                return;
            }
            while let Some(job) = try_pop_job() {
                job();
            }
            let pending = self.state.pending.lock().unwrap();
            if *pending == 0 {
                return;
            }
            // A short timeout re-checks the injector queue: a task pushed
            // between our drain above and this wait would otherwise be
            // stranded if every other thread is also blocked (two-lock
            // lost-wakeup race).
            let _ = self
                .state
                .all_done
                .wait_timeout(pending, Duration::from_micros(200))
                .unwrap();
        }
    }
}

/// Runs `f` with a fork-join [`Scope`], returning its result after every
/// spawned task has completed.
///
/// ```
/// let mut halves = [0u64; 2];
/// let (lo, hi) = halves.split_at_mut(1);
/// hap_par::scope(|s| {
///     s.spawn(|| lo[0] = (0..1000u64).sum());
///     s.spawn(|| hi[0] = (1000..2000u64).sum());
/// });
/// assert_eq!(halves[0] + halves[1], (0..2000u64).sum());
/// ```
///
/// # Panics
/// Re-raises a panic from `f` itself; panics with a generic message when
/// any spawned task panicked (after all tasks have settled).
pub fn scope<'env, F, R>(f: F) -> R
where
    F: FnOnce(&Scope<'env>) -> R,
{
    if !inline() {
        ensure_workers(threads() - 1);
    }
    let s = Scope {
        state: Arc::new(ScopeState {
            pending: Mutex::new(0),
            all_done: Condvar::new(),
            panicked: AtomicBool::new(false),
        }),
        _env: PhantomData,
    };
    let result = catch_unwind(AssertUnwindSafe(|| f(&s)));
    // Tasks may still borrow the caller's data: settle them before
    // unwinding out of this frame, no matter how `f` exited.
    s.wait();
    match result {
        Ok(r) => {
            if s.state.panicked.load(Ordering::Acquire) {
                panic!("a task spawned in hap_par::scope panicked");
            }
            r
        }
        Err(payload) => resume_unwind(payload),
    }
}

// ---------------------------------------------------------------------
// derived primitives
// ---------------------------------------------------------------------

/// Splits `data` into contiguous chunks of `chunk_len` elements (the last
/// chunk may be shorter) and runs `f(chunk_index, chunk)` for each, in
/// parallel when the effective thread count allows it.
///
/// Chunk boundaries are a pure function of `data.len()` and `chunk_len`,
/// and every element belongs to exactly one chunk — so any computation
/// whose per-element result depends only on its own chunk is byte-identical
/// at every thread count. This is the row-partitioning primitive behind
/// `hap-tensor`'s parallel GEMM: callers pick `chunk_len` as a multiple of
/// the row stride so each chunk is a block of whole rows.
///
/// ```
/// let mut v = vec![0usize; 10];
/// hap_par::par_chunks_mut(&mut v, 4, |ci, chunk| {
///     for (k, e) in chunk.iter_mut().enumerate() {
///         *e = ci * 4 + k; // global element index
///     }
/// });
/// assert_eq!(v, (0..10).collect::<Vec<_>>());
/// ```
///
/// # Panics
/// Panics when `chunk_len == 0`; propagates panics from `f`.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "par_chunks_mut: chunk_len must be > 0");
    if inline() || data.len() <= chunk_len {
        for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(i, chunk);
        }
        return;
    }
    scope(|s| {
        for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
            let f = &f;
            s.spawn(move || f(i, chunk));
        }
    });
}

/// Runs two closures, potentially in parallel, and returns both results —
/// `b` goes to the pool while `a` runs on the calling thread. Sequential
/// order (`a` then `b`) is preserved under `HAP_THREADS=1` and inside a
/// running pool task.
///
/// ```
/// let (a, b) = hap_par::par_join(|| 2 + 2, || "done");
/// assert_eq!((a, b), (4, "done"));
/// ```
pub fn par_join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if inline() {
        let ra = a();
        let rb = b();
        return (ra, rb);
    }
    let mut rb: Option<RB> = None;
    let ra = {
        let slot = &mut rb;
        scope(move |s| {
            s.spawn(move || *slot = Some(b()));
            a()
        })
    };
    (
        ra,
        rb.expect("par_join: spawned task completed without a result"),
    )
}

/// Chunk length that yields roughly `2 × threads()` chunks of whole rows
/// for a `rows × row_stride` buffer — the over-decomposition the workspace
/// kernels use so stragglers even out without per-element scheduling.
/// Always a positive multiple of `row_stride` (assuming `row_stride > 0`).
pub fn row_chunk_len(rows: usize, row_stride: usize) -> usize {
    let blocks = threads() * 2;
    let rows_per_chunk = rows.div_ceil(blocks.max(1)).max(1);
    rows_per_chunk * row_stride.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    /// Tests that flip the global thread count serialise on this lock so
    /// they never observe each other's override.
    static THREAD_TOGGLE: StdMutex<()> = StdMutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        THREAD_TOGGLE.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn scope_runs_all_tasks_and_keeps_borrow_results() {
        let _g = locked();
        for n in [1, 4] {
            set_threads(n);
            let mut out = vec![0usize; 64];
            scope(|s| {
                for (i, e) in out.iter_mut().enumerate() {
                    s.spawn(move || *e = i * i);
                }
            });
            assert!(out.iter().enumerate().all(|(i, &e)| e == i * i), "n={n}");
        }
    }

    #[test]
    fn par_chunks_mut_covers_every_element_exactly_once() {
        let _g = locked();
        for n in [1, 3] {
            set_threads(n);
            for len in [0usize, 1, 7, 64, 100] {
                let mut v = vec![0u32; len];
                par_chunks_mut(&mut v, 7, |_, chunk| {
                    for e in chunk.iter_mut() {
                        *e += 1;
                    }
                });
                assert!(v.iter().all(|&e| e == 1), "len={len} n={n}");
            }
        }
    }

    #[test]
    fn par_chunks_mut_chunk_indices_are_global() {
        let _g = locked();
        set_threads(4);
        let mut v = vec![0usize; 23];
        par_chunks_mut(&mut v, 5, |ci, chunk| {
            for (k, e) in chunk.iter_mut().enumerate() {
                *e = ci * 5 + k;
            }
        });
        assert_eq!(v, (0..23).collect::<Vec<_>>());
    }

    #[test]
    fn par_join_returns_both_results() {
        let _g = locked();
        for n in [1, 2] {
            set_threads(n);
            let data = vec![1.0f64; 1000];
            let (a, b) = par_join(
                || data.iter().sum::<f64>(),
                || data.iter().map(|x| x * 2.0).sum::<f64>(),
            );
            assert_eq!(a, 1000.0);
            assert_eq!(b, 2000.0);
        }
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        let _g = locked();
        set_threads(4);
        let mut out = vec![0u64; 8];
        par_chunks_mut(&mut out, 1, |i, slot| {
            // Each outer task runs an inner parallel computation.
            let mut inner = vec![0u64; 16];
            par_chunks_mut(&mut inner, 2, |j, chunk| {
                for (k, e) in chunk.iter_mut().enumerate() {
                    *e = (i + j * 2 + k) as u64;
                }
            });
            slot[0] = inner.iter().sum();
        });
        for (i, &v) in out.iter().enumerate() {
            let expect: u64 = (0..16).map(|e| (i + e) as u64).sum();
            assert_eq!(v, expect, "outer task {i}");
        }
    }

    #[test]
    fn nested_scopes_run_inline_so_outer_tasks_never_stack() {
        // A nested scope's wait must never pick up another outer task:
        // outer tasks running inside each other recurse without bound and
        // can overflow a pool thread's stack.
        let _g = locked();
        set_threads(2);
        thread_local! {
            static DEPTH: Cell<usize> = const { Cell::new(0) };
        }
        let max_depth = AtomicUsize::new(0);
        let mut out = vec![0usize; 256];
        scope(|s| {
            for (i, slot) in out.iter_mut().enumerate() {
                let max_depth = &max_depth;
                s.spawn(move || {
                    let depth = DEPTH.with(|d| {
                        d.set(d.get() + 1);
                        d.get()
                    });
                    max_depth.fetch_max(depth, Ordering::Relaxed);
                    let mut inner = [0usize; 4];
                    scope(|t| {
                        for (j, e) in inner.iter_mut().enumerate() {
                            t.spawn(move || *e = i * j);
                        }
                    });
                    *slot = inner.iter().sum();
                    DEPTH.with(|d| d.set(d.get() - 1));
                });
            }
        });
        assert!(out.iter().enumerate().all(|(i, &v)| v == 6 * i));
        assert_eq!(
            max_depth.load(Ordering::Relaxed),
            1,
            "an outer task ran inside another"
        );
    }

    #[test]
    fn task_panic_propagates_after_settling() {
        let _g = locked();
        set_threads(2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            scope(|s| {
                s.spawn(|| panic!("boom"));
                s.spawn(|| ());
            });
        }));
        assert!(caught.is_err(), "scope must re-raise task panics");
    }

    #[test]
    fn sequential_mode_runs_inline_in_order() {
        let _g = locked();
        set_threads(1);
        let order = StdMutex::new(Vec::new());
        scope(|s| {
            s.spawn(|| order.lock().unwrap().push(1));
            order.lock().unwrap().push(2);
            s.spawn(|| order.lock().unwrap().push(3));
        });
        assert_eq!(order.into_inner().unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn row_chunk_len_is_row_aligned() {
        let _g = locked();
        set_threads(4);
        for rows in [1usize, 7, 100, 257] {
            for stride in [1usize, 16, 33] {
                let c = row_chunk_len(rows, stride);
                assert!(c > 0 && c % stride == 0, "rows={rows} stride={stride}");
            }
        }
    }

    #[test]
    fn set_threads_rejects_zero() {
        assert!(catch_unwind(|| set_threads(0)).is_err());
    }
}
