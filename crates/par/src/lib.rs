//! # hap-par
//!
//! A zero-external-dependency, std-only way to hand whole tasks to other
//! threads: [`par_chunks_mut`], one [`std::thread::scope`] per call, plus
//! the thread count it and the HTTP server are sized by.
//!
//! The callers hand over whole tasks, hundreds of microseconds of work or
//! more per call: the chunks of `GraphIndex::build`, the shard scans of
//! the retrieval cascade and exhaustive search, and the pairs of
//! `batch_ged` (from a per-method batch size). Every tensor kernel runs on
//! its calling thread: HAP pools one small graph at a time, and no product
//! of the benchmark workloads is large enough to pay for a fork-join,
//! which costs tens of microseconds (EXPERIMENTS.md "Parallelism").
//!
//! The design constraint is the workspace's determinism contract
//! (DESIGN.md "Offline & determinism policy"): results must be
//! **byte-identical at every thread count**. A caller therefore gives each
//! output region (a slot in a batch result vector, a shard's hits) to
//! exactly one chunk, computed with the same arithmetic as the sequential
//! code. `hap-par` never reduces across threads — there is deliberately no
//! parallel sum/fold — so floating-point summation order cannot depend on
//! scheduling.
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
//! [`par_chunks_mut`] runs its chunks in order on the calling thread and
//! starts no thread. Outputs are byte-identical between `HAP_THREADS=1` and
//! any other setting; the differential tests in
//! `crates/integration/tests/par_determinism.rs` and
//! `crates/retrieval/tests/admissibility.rs` enforce this.

#![deny(missing_docs)]

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// 0 means "not yet resolved"; any other value is the effective count.
static THREAD_COUNT: AtomicUsize = AtomicUsize::new(0);

/// The effective thread count for [`par_chunks_mut`] (the caller included)
/// and the HTTP server's worker pool.
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

/// Overrides the effective thread count for the rest of the process (or
/// until the next call), taking precedence over `HAP_THREADS`.
///
/// This exists for the seq-vs-par micro-benchmarks and the differential
/// determinism tests, which compare both modes inside one process.
/// Because every caller of [`par_chunks_mut`] produces byte-identical
/// output at any thread count, flipping this concurrently with unrelated
/// work is safe — but tests that *compare* modes should serialise
/// themselves (see `crates/integration/tests/par_determinism.rs`).
///
/// # Panics
/// Panics when `n == 0`.
pub fn set_threads(n: usize) {
    assert!(n >= 1, "thread count must be >= 1");
    THREAD_COUNT.store(n, Ordering::Release);
}

/// Splits `data` into contiguous chunks of `chunk_len` elements (the last
/// chunk may be shorter) and runs `f(chunk_index, chunk)` for each.
///
/// With more than one chunk and [`threads`] above 1, the call opens one
/// [`std::thread::scope`]: the caller and `min(threads, chunks) − 1`
/// helper threads claim chunks in index order from a shared iterator
/// until none is left, so a slow chunk does not hold up the rest.
/// Otherwise the chunks run in order on the calling thread. A call made
/// inside a chunk works the same way, one level down.
///
/// Chunk boundaries are a pure function of `data.len()` and `chunk_len`,
/// and every element belongs to exactly one chunk — so any computation
/// whose per-element result depends only on its own chunk is
/// byte-identical at every thread count.
///
/// Starting the helpers costs tens of microseconds (EXPERIMENTS.md
/// "Parallelism"), so hand over whole tasks, not microsecond kernels.
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
/// Panics when `chunk_len == 0`. A panic in `f` re-raises on the caller:
/// in sequential mode at once, and otherwise with its original payload
/// once every other chunk has run.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "par_chunks_mut: chunk_len must be > 0");
    let helpers = threads()
        .min(data.len().div_ceil(chunk_len))
        .saturating_sub(1);
    if helpers == 0 {
        for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(i, chunk);
        }
        return;
    }
    let chunks = Mutex::new(data.chunks_mut(chunk_len).enumerate());
    let first_panic = Mutex::new(None);
    let work = || loop {
        let Some((i, chunk)) = chunks.lock().unwrap().next() else {
            return;
        };
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(i, chunk))) {
            first_panic.lock().unwrap().get_or_insert(payload);
        }
    };
    std::thread::scope(|s| {
        for _ in 0..helpers {
            s.spawn(work);
        }
        work();
    });
    if let Some(payload) = first_panic.into_inner().unwrap() {
        resume_unwind(payload);
    }
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
    fn uneven_last_chunk_is_shorter_and_still_covered() {
        let _g = locked();
        set_threads(2);
        let lens = StdMutex::new(Vec::new());
        let mut v = vec![0usize; 10];
        par_chunks_mut(&mut v, 4, |ci, chunk| {
            lens.lock().unwrap().push((ci, chunk.len()));
            chunk.fill(ci + 1);
        });
        let mut lens = lens.into_inner().unwrap();
        lens.sort_unstable();
        assert_eq!(lens, vec![(0, 4), (1, 4), (2, 2)]);
        assert_eq!(v, vec![1, 1, 1, 1, 2, 2, 2, 2, 3, 3]);
    }

    #[test]
    fn more_threads_than_chunks_starts_one_helper_per_extra_chunk() {
        let _g = locked();
        set_threads(8);
        let caller = std::thread::current().id();
        let ids = StdMutex::new(Vec::new());
        let mut v = vec![0u64; 3];
        par_chunks_mut(&mut v, 1, |ci, slot| {
            ids.lock().unwrap().push(std::thread::current().id());
            slot[0] = ci as u64 * 10;
        });
        assert_eq!(v, vec![0, 10, 20]);
        let ids = ids.into_inner().unwrap();
        assert_eq!(ids.len(), 3);
        // Three chunks use at most the caller and two helpers, not eight.
        let distinct: std::collections::HashSet<_> = ids.into_iter().collect();
        assert!(distinct.len() <= 3);
        // A single chunk runs on the caller and starts no thread.
        let mut one = [0usize; 4];
        par_chunks_mut(&mut one, 4, |_, chunk| {
            assert_eq!(std::thread::current().id(), caller);
            chunk.fill(7);
        });
        assert_eq!(one, [7; 4]);
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        let _g = locked();
        set_threads(4);
        let mut out = vec![0u64; 8];
        par_chunks_mut(&mut out, 1, |i, slot| {
            // Each outer chunk runs an inner parallel computation.
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
            assert_eq!(v, expect, "outer chunk {i}");
        }
    }

    #[test]
    fn nested_scopes_run_inline_so_outer_tasks_never_stack() {
        // A thread that opens a nested call claims only that call's chunks
        // while it waits, never another outer chunk: outer chunks running
        // inside each other recurse without bound and can overflow a
        // thread's stack.
        let _g = locked();
        set_threads(2);
        thread_local! {
            static DEPTH: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
        }
        let max_depth = AtomicUsize::new(0);
        let mut out = vec![0usize; 256];
        par_chunks_mut(&mut out, 1, |i, slot| {
            let depth = DEPTH.with(|d| {
                d.set(d.get() + 1);
                d.get()
            });
            max_depth.fetch_max(depth, Ordering::Relaxed);
            let mut inner = [0usize; 4];
            par_chunks_mut(&mut inner, 1, |j, e| e[0] = i * j);
            slot[0] = inner.iter().sum();
            DEPTH.with(|d| d.set(d.get() - 1));
        });
        assert!(out.iter().enumerate().all(|(i, &v)| v == 6 * i));
        assert_eq!(
            max_depth.load(Ordering::Relaxed),
            1,
            "an outer chunk ran inside another"
        );
    }

    #[test]
    fn nested_call_returns_the_sequential_result() {
        let _g = locked();
        let run = || {
            let mut out = vec![0.0f64; 12];
            par_chunks_mut(&mut out, 3, |i, outer| {
                let mut inner = vec![0.0f64; 40];
                par_chunks_mut(&mut inner, 7, |j, chunk| {
                    for (k, e) in chunk.iter_mut().enumerate() {
                        *e = ((i * 40 + j * 7 + k) as f64).sqrt() / 3.0;
                    }
                });
                for (k, e) in outer.iter_mut().enumerate() {
                    *e = inner.iter().skip(k).sum();
                }
            });
            out.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        };
        set_threads(1);
        let seq = run();
        set_threads(3);
        assert_eq!(run(), seq);
        set_threads(1);
    }

    #[test]
    fn task_panic_propagates_after_settling() {
        let _g = locked();
        set_threads(2);
        let mut out = vec![0u32; 16];
        let caught = catch_unwind(AssertUnwindSafe(|| {
            par_chunks_mut(&mut out, 1, |i, slot| {
                if i == 3 {
                    panic!("boom");
                }
                slot[0] = i as u32 + 1;
            });
        }));
        let payload = caught.expect_err("the chunk's panic must re-raise");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
        for (i, &v) in out.iter().enumerate() {
            let expect = if i == 3 { 0 } else { i as u32 + 1 };
            assert_eq!(v, expect, "slot {i}");
        }
    }

    #[test]
    fn sequential_mode_runs_inline_in_order() {
        let _g = locked();
        set_threads(1);
        let caller = std::thread::current().id();
        let order = StdMutex::new(Vec::new());
        let mut v = vec![0u8; 9];
        par_chunks_mut(&mut v, 2, |ci, _| {
            assert_eq!(std::thread::current().id(), caller);
            order.lock().unwrap().push(ci);
        });
        assert_eq!(order.into_inner().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn set_threads_rejects_zero() {
        assert!(catch_unwind(|| set_threads(0)).is_err());
    }
}
