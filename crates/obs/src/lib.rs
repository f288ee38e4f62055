//! # hap-obs
//!
//! A zero-external-dependency observability layer for the HAP workspace:
//! thread-safe counters, log-bucketed histograms, RAII timing scopes and a
//! non-finite-value sentinel that records *where* a NaN/∞ first appeared
//! (phase label, training step, tensor tag, flat index) instead of letting
//! it surface hundreds of operations later as an unrelated comparator
//! panic.
//!
//! ## The `HAP_METRICS` / `HAP_TRACE` contract
//!
//! Instrumentation is compiled in unconditionally but **branch-gated** on a
//! process-wide level, so the disabled configuration costs one relaxed
//! atomic load per call site and perturbs nothing — the determinism goldens
//! in `crates/train/tests/determinism.rs` and the micro-benchmarks run on
//! exactly the pre-observability arithmetic. The level resolves once, in
//! this order:
//!
//! 1. a programmatic override installed via [`set_level`] (tests, the
//!    `metrics-dump` exporter and the microbench overhead case);
//! 2. the `HAP_TRACE` environment variable (any value other than `0` or
//!    empty) → [`Level::Trace`];
//! 3. the `HAP_METRICS` environment variable (same convention) →
//!    [`Level::Metrics`];
//! 4. otherwise [`Level::Off`].
//!
//! [`Level::Metrics`] records counters and value histograms (per-step
//! loss, gradient norms, batch sizes). [`Level::Trace`] additionally
//! records timing scopes and enables the whole-tensor finiteness scans —
//! the two facilities with per-call cost beyond a branch.
//!
//! The non-finite *event log* is deliberately not gated: a NaN loss or
//! gradient is rare and catastrophic, so [`guard_scalar`] records its
//! provenance (and prints one diagnostic line) at every level, including
//! [`Level::Off`]. Only the proactive scans ([`check_finite`]) are
//! trace-gated, because they touch every element.
//!
//! ## Export
//!
//! [`to_json`] / [`write_json`] serialise the registry in the same
//! hand-rolled flat-JSON style as `results/microbench.json`; the
//! `metrics-dump` binary in `hap-bench` drives a short instrumented
//! training run and writes `results/metrics.json`.
//!
//! ```
//! hap_obs::set_level(hap_obs::Level::Metrics);
//! hap_obs::inc("demo.events");
//! hap_obs::record("demo.value", 0.125);
//! assert_eq!(hap_obs::counter("demo.events"), 1);
//! assert!(hap_obs::to_json().contains("demo.value"));
//! hap_obs::set_level(hap_obs::Level::Off);
//! hap_obs::reset();
//! ```

#![deny(missing_docs)]

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

// --------------------------------------------------------------------
// Level gating
// --------------------------------------------------------------------

/// How much the observability layer records.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Nothing is recorded proactively; only [`guard_scalar`] events land
    /// in the non-finite log. The default.
    Off = 0,
    /// Counters, value histograms and non-finite provenance.
    Metrics = 1,
    /// Everything in `Metrics` plus timing scopes and whole-tensor
    /// finiteness scans.
    Trace = 2,
}

/// Sentinel meaning "not yet resolved from the environment".
const LEVEL_UNSET: u8 = u8::MAX;

static LEVEL: AtomicU8 = AtomicU8::new(LEVEL_UNSET);

fn env_truthy(name: &str) -> bool {
    match std::env::var(name) {
        Ok(v) => !v.is_empty() && v != "0",
        Err(_) => false,
    }
}

fn resolve_level() -> u8 {
    let resolved = if env_truthy("HAP_TRACE") {
        Level::Trace as u8
    } else if env_truthy("HAP_METRICS") {
        Level::Metrics as u8
    } else {
        Level::Off as u8
    };
    // Another thread may have resolved (or overridden) concurrently; keep
    // whichever value landed first so the level stays stable.
    match LEVEL.compare_exchange(LEVEL_UNSET, resolved, Ordering::Relaxed, Ordering::Relaxed) {
        Ok(_) => resolved,
        Err(current) => current,
    }
}

/// The active recording level (environment-resolved on first use).
#[inline]
pub fn level() -> Level {
    let raw = LEVEL.load(Ordering::Relaxed);
    let raw = if raw == LEVEL_UNSET {
        resolve_level()
    } else {
        raw
    };
    match raw {
        2 => Level::Trace,
        1 => Level::Metrics,
        _ => Level::Off,
    }
}

/// Installs a programmatic level override, bypassing the environment.
pub fn set_level(l: Level) {
    LEVEL.store(l as u8, Ordering::Relaxed);
}

/// `true` when metrics (counters/histograms) are being recorded.
#[inline]
pub fn enabled() -> bool {
    level() >= Level::Metrics
}

/// `true` when the trace level (timers + tensor scans) is active.
#[inline]
pub fn trace_enabled() -> bool {
    level() == Level::Trace
}

// --------------------------------------------------------------------
// Registry
// --------------------------------------------------------------------

/// Cap on stored non-finite events: the *first* occurrences carry the
/// diagnostic value, and an unbounded log could balloon in a long broken
/// run. The total count keeps climbing past the cap.
const MAX_NONFINITE_EVENTS: usize = 64;

/// One recorded non-finite value with its provenance.
#[derive(Clone, Debug)]
pub struct NonFiniteEvent {
    /// Tensor/value tag supplied at the check site, e.g. `"train.loss"`.
    pub tag: String,
    /// Innermost phase label active on this thread, `""` when none.
    pub phase: String,
    /// Global step counter at the time of the event (see [`set_step`]).
    pub step: u64,
    /// Flat index of the first offending element within the checked slice.
    pub index: usize,
    /// `"nan"`, `"+inf"` or `"-inf"`.
    pub class: &'static str,
}

/// A log-bucketed histogram over `f64` samples.
///
/// Buckets are keyed by `floor(log2(|v|))` (zero gets its own bucket), so
/// values spanning many orders of magnitude — nanosecond timings next to
/// losses — stay cheap to record and meaningful to read. Count, sum, min
/// and max are tracked exactly.
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of recorded samples.
    pub sum: f64,
    /// Smallest recorded sample (`+∞` when empty).
    pub min: f64,
    /// Largest recorded sample (`-∞` when empty).
    pub max: f64,
    /// `floor(log2(|v|))` → sample count; `i32::MIN` holds exact zeros.
    pub buckets: BTreeMap<i32, u64>,
}

impl Histogram {
    fn new() -> Self {
        Self {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: BTreeMap::new(),
        }
    }

    fn record(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
        let key = if v == 0.0 {
            i32::MIN
        } else {
            v.abs().log2().floor() as i32
        };
        *self.buckets.entry(key).or_insert(0) += 1;
    }

    /// Mean of the recorded samples (`NaN` when empty).
    pub fn mean(&self) -> f64 {
        self.sum / self.count as f64
    }

    /// Estimates the `p`-quantile (`p ∈ [0, 1]`) of the recorded samples
    /// from the log2 buckets.
    ///
    /// The histogram only keeps per-bucket counts, so the estimate walks
    /// the buckets in ascending value order to the one containing the
    /// target rank and interpolates linearly inside its `[2^k, 2^{k+1})`
    /// range; the result is clamped to the exactly-tracked `[min, max]`.
    /// The error is therefore bounded by one bucket width (a factor of 2
    /// of the true sample) — plenty for p50/p99 latency reporting, which
    /// is what `loadgen` and the `/metrics` endpoint use it for.
    ///
    /// The estimate assumes **non-negative samples**: buckets are keyed by
    /// `log2(|v|)`, so a histogram mixing signs has no meaningful value
    /// ordering to walk. Every quantile consumer in the workspace records
    /// timings, losses or norms, all of which are `>= 0`.
    ///
    /// Returns `NaN` for an empty histogram; `p` is clamped to `[0, 1]`.
    pub fn quantile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        let p = p.clamp(0.0, 1.0);
        // Target rank in 1..=count (ceil so p = 1 lands on the last
        // sample and p = 0 on the first).
        let rank = ((p * self.count as f64).ceil() as u64).max(1);
        let mut below = 0u64;
        for (&k, &c) in &self.buckets {
            if below + c >= rank {
                if k == i32::MIN {
                    // The exact-zero bucket.
                    return 0.0f64.clamp(self.min, self.max);
                }
                let lo = 2f64.powi(k);
                let hi = 2f64.powi(k.saturating_add(1));
                let frac = (rank - below) as f64 / c as f64;
                return (lo + (hi - lo) * frac).clamp(self.min, self.max);
            }
            below += c;
        }
        self.max
    }
}

#[derive(Default)]
struct Registry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
    /// Timing histograms keyed by the `&'static str` scope name (the
    /// exported name is `time.<key>`). A separate map so the per-drop
    /// hot path of [`TimeScope`] never allocates a key string.
    timings: BTreeMap<&'static str, Histogram>,
    nonfinite: Vec<NonFiniteEvent>,
    nonfinite_total: u64,
}

static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
static STEP: AtomicU64 = AtomicU64::new(0);

fn registry() -> MutexGuard<'static, Registry> {
    REGISTRY
        .get_or_init(|| Mutex::new(Registry::default()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

thread_local! {
    static PHASE_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// Clears every counter, histogram, non-finite event and the step counter.
/// The level is left untouched.
pub fn reset() {
    let mut reg = registry();
    reg.counters.clear();
    reg.histograms.clear();
    reg.timings.clear();
    reg.nonfinite.clear();
    reg.nonfinite_total = 0;
    STEP.store(0, Ordering::Relaxed);
}

// --------------------------------------------------------------------
// Step + phase provenance
// --------------------------------------------------------------------

/// Sets the global step counter stamped onto non-finite events. The
/// trainer calls this once per optimisation sample; it is a single relaxed
/// atomic store, cheap enough to leave ungated.
#[inline]
pub fn set_step(step: u64) {
    STEP.store(step, Ordering::Relaxed);
}

/// The current global step (as last set by [`set_step`]).
#[inline]
pub fn current_step() -> u64 {
    STEP.load(Ordering::Relaxed)
}

/// RAII guard for a phase label; created by [`phase`].
pub struct PhaseGuard {
    active: bool,
}

/// Pushes `name` onto this thread's phase stack until the guard drops.
/// Non-finite events record the innermost active phase as provenance.
/// No-op (and allocation-free) when observability is [`Level::Off`].
#[must_use = "the phase ends when the guard is dropped"]
pub fn phase(name: &'static str) -> PhaseGuard {
    if !enabled() {
        return PhaseGuard { active: false };
    }
    PHASE_STACK.with(|s| s.borrow_mut().push(name));
    PhaseGuard { active: true }
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        if self.active {
            PHASE_STACK.with(|s| {
                s.borrow_mut().pop();
            });
        }
    }
}

fn current_phase() -> String {
    PHASE_STACK.with(|s| s.borrow().last().copied().unwrap_or("").to_string())
}

// --------------------------------------------------------------------
// Counters & histograms
// --------------------------------------------------------------------

/// Increments counter `name` by 1. No-op below [`Level::Metrics`].
#[inline]
pub fn inc(name: &str) {
    add(name, 1);
}

/// Increments counter `name` by `n`. No-op below [`Level::Metrics`].
#[inline]
pub fn add(name: &str, n: u64) {
    if !enabled() {
        return;
    }
    let mut reg = registry();
    // Steady-state path is a borrowed lookup; the key string is only
    // allocated the first time a counter is seen.
    match reg.counters.get_mut(name) {
        Some(c) => *c += n,
        None => {
            reg.counters.insert(name.to_string(), n);
        }
    }
}

/// Current value of counter `name` (0 when absent) — for tests and the
/// exporter.
pub fn counter(name: &str) -> u64 {
    registry().counters.get(name).copied().unwrap_or(0)
}

/// Records `value` into histogram `name`. No-op below [`Level::Metrics`].
#[inline]
pub fn record(name: &str, value: f64) {
    if !enabled() {
        return;
    }
    let mut reg = registry();
    match reg.histograms.get_mut(name) {
        Some(h) => h.record(value),
        None => {
            let mut h = Histogram::new();
            h.record(value);
            reg.histograms.insert(name.to_string(), h);
        }
    }
}

/// A snapshot of histogram `name`, when it has recorded anything.
/// Timing histograms are addressed by their exported `time.<scope>`
/// name.
pub fn histogram(name: &str) -> Option<Histogram> {
    let reg = registry();
    if let Some(h) = reg.histograms.get(name) {
        return Some(h.clone());
    }
    name.strip_prefix("time.")
        .and_then(|scope| reg.timings.get(scope).cloned())
}

// --------------------------------------------------------------------
// Timing scopes
// --------------------------------------------------------------------

/// RAII timing scope; created by [`time_scope`]. On drop, the elapsed
/// nanoseconds land in histogram `time.<name>`.
pub struct TimeScope {
    start: Option<(Instant, &'static str)>,
}

/// Starts a timing scope named `name`. Inert below [`Level::Trace`]
/// (one branch, no clock read).
#[must_use = "the scope is timed until the guard is dropped"]
pub fn time_scope(name: &'static str) -> TimeScope {
    if !trace_enabled() {
        return TimeScope { start: None };
    }
    TimeScope {
        start: Some((Instant::now(), name)),
    }
}

impl Drop for TimeScope {
    fn drop(&mut self) {
        if let Some((t0, name)) = self.start.take() {
            record_duration(name, t0.elapsed());
        }
    }
}

/// Records `d` into histogram `time.<name>`, as a [`TimeScope`] does on
/// drop. Not level-gated: callers read the clock only at [`Level::Trace`].
pub fn record_duration(name: &'static str, d: std::time::Duration) {
    let ns = d.as_secs_f64() * 1e9;
    registry().timings.entry(name).or_default().record(ns);
}

/// Every timing histogram, as `(scope, histogram)` in scope order.
pub fn timings() -> Vec<(&'static str, Histogram)> {
    registry()
        .timings
        .iter()
        .map(|(&k, h)| (k, h.clone()))
        .collect()
}

// --------------------------------------------------------------------
// Non-finite sentinel
// --------------------------------------------------------------------

fn classify(v: f64) -> &'static str {
    if v.is_nan() {
        "nan"
    } else if v == f64::INFINITY {
        "+inf"
    } else {
        "-inf"
    }
}

fn record_nonfinite(tag: &str, index: usize, v: f64) {
    let event = NonFiniteEvent {
        tag: tag.to_string(),
        phase: current_phase(),
        step: current_step(),
        index,
        class: classify(v),
    };
    let mut reg = registry();
    reg.nonfinite_total += 1;
    if reg.nonfinite.len() < MAX_NONFINITE_EVENTS {
        // The diagnostic print shares the storage cap: the first
        // occurrences carry the signal, and a persistently broken run must
        // not flood stderr.
        eprintln!(
            "hap-obs: non-finite value ({}) in `{}` at index {} (phase `{}`, step {})",
            event.class, event.tag, event.index, event.phase, event.step
        );
        reg.nonfinite.push(event);
    }
}

/// Checks a single scalar; when it is non-finite, records a provenance
/// event (and prints one diagnostic line) **at every level** — a NaN loss
/// or gradient norm is rare and catastrophic, so the broken path can
/// afford the bookkeeping. Returns `true` when `v` is finite.
#[inline]
pub fn guard_scalar(tag: &str, v: f64) -> bool {
    if v.is_finite() {
        return true;
    }
    record_nonfinite(tag, 0, v);
    false
}

/// Scans `data` for the first non-finite element, recording its
/// provenance under `tag` when found. The scan only runs at
/// [`Level::Trace`] (it touches every element); below that the call is a
/// branch returning `true`.
///
/// Generic over any element losslessly widenable to `f64` (`f32` and
/// `f64` in practice — this crate stays dependency-free, so the bound is
/// `Into<f64>` rather than the tensor crate's `Scalar`). Widening
/// preserves the NaN/±∞ classification, so both dtypes feed the same
/// sentinel machinery.
#[inline]
pub fn check_finite<T: Copy + Into<f64>>(tag: &str, data: &[T]) -> bool {
    if !trace_enabled() {
        return true;
    }
    match data.iter().position(|x| !(*x).into().is_finite()) {
        None => true,
        Some(i) => {
            record_nonfinite(tag, i, data[i].into());
            false
        }
    }
}

/// Stored non-finite events, oldest first (capped; see
/// [`nonfinite_total`] for the uncapped count).
pub fn nonfinite_events() -> Vec<NonFiniteEvent> {
    registry().nonfinite.clone()
}

/// Total non-finite values observed, including those past the storage cap.
pub fn nonfinite_total() -> u64 {
    registry().nonfinite_total
}

// --------------------------------------------------------------------
// Export
// --------------------------------------------------------------------

fn escape_json(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            '\n' => "\\n".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// JSON-safe rendering of a possibly non-finite float (JSON has no
/// `Infinity`/`NaN` literals; empty histograms carry ±∞ min/max).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".to_string()
    }
}

/// Serialises the whole registry as a JSON document in the flat
/// hand-rolled style of `results/microbench.json`: top-level `counters`,
/// `histograms` and `nonfinite` arrays, one object per line.
pub fn to_json() -> String {
    let reg = registry();
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"level\": \"{:?}\",\n", level()));
    s.push_str(&format!("  \"step\": {},\n", current_step()));

    s.push_str("  \"counters\": [\n");
    let n = reg.counters.len();
    for (i, (name, v)) in reg.counters.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"value\": {}}}{}\n",
            escape_json(name),
            v,
            if i + 1 < n { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");

    s.push_str("  \"histograms\": [\n");
    // Merge the value and timing histograms into one name-sorted list so
    // the document layout is deterministic.
    let mut hists: Vec<(String, &Histogram)> = reg
        .histograms
        .iter()
        .map(|(name, h)| (name.clone(), h))
        .chain(
            reg.timings
                .iter()
                .map(|(name, h)| (format!("time.{name}"), h)),
        )
        .collect();
    hists.sort_by(|a, b| a.0.cmp(&b.0));
    let n = hists.len();
    for (i, (name, h)) in hists.iter().enumerate() {
        let buckets: Vec<String> = h
            .buckets
            .iter()
            .map(|(k, c)| {
                let label = if *k == i32::MIN {
                    "\"zero\"".to_string()
                } else {
                    k.to_string()
                };
                format!("{{\"log2\": {label}, \"count\": {c}}}")
            })
            .collect();
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"count\": {}, \"sum\": {}, \"mean\": {}, \
             \"min\": {}, \"max\": {}, \"buckets\": [{}]}}{}\n",
            escape_json(name),
            h.count,
            json_f64(h.sum),
            json_f64(h.mean()),
            json_f64(h.min),
            json_f64(h.max),
            buckets.join(", "),
            if i + 1 < n { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");

    s.push_str(&format!(
        "  \"nonfinite_total\": {},\n  \"nonfinite\": [\n",
        reg.nonfinite_total
    ));
    let n = reg.nonfinite.len();
    for (i, e) in reg.nonfinite.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"tag\": \"{}\", \"phase\": \"{}\", \"step\": {}, \
             \"index\": {}, \"class\": \"{}\"}}{}\n",
            escape_json(&e.tag),
            escape_json(&e.phase),
            e.step,
            e.index,
            e.class,
            if i + 1 < n { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Writes [`to_json`] to `path`, creating parent directories.
pub fn write_json(path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::File::create(path)?;
    f.write_all(to_json().as_bytes())
}

// --------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    // The level and registry are process-global; every test that touches
    // them serialises on this lock so `cargo test`'s parallel threads
    // cannot interleave.
    static TEST_LOCK: StdMutex<()> = StdMutex::new(());

    fn with_level<R>(l: Level, f: impl FnOnce() -> R) -> R {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        set_level(l);
        let r = f();
        set_level(Level::Off);
        reset();
        r
    }

    #[test]
    fn disabled_layer_records_nothing() {
        with_level(Level::Off, || {
            inc("c");
            record("h", 1.0);
            let _t = time_scope("t");
            assert_eq!(counter("c"), 0);
            assert!(histogram("h").is_none());
            assert!(check_finite("x", &[f64::NAN]), "scan must be gated off");
            assert!(nonfinite_events().is_empty());
        });
    }

    #[test]
    fn counters_and_histograms_accumulate() {
        with_level(Level::Metrics, || {
            inc("c");
            add("c", 4);
            record("h", 2.0);
            record("h", 8.0);
            record("h", 0.0);
            assert_eq!(counter("c"), 5);
            let h = histogram("h").expect("recorded");
            assert_eq!(h.count, 3);
            assert_eq!(h.min, 0.0);
            assert_eq!(h.max, 8.0);
            assert_eq!(h.buckets.get(&1), Some(&1)); // 2.0 → log2 bucket 1
            assert_eq!(h.buckets.get(&3), Some(&1)); // 8.0 → bucket 3
            assert_eq!(h.buckets.get(&i32::MIN), Some(&1)); // exact zero
        });
    }

    #[test]
    fn timers_are_trace_gated() {
        with_level(Level::Metrics, || {
            {
                let _t = time_scope("work");
            }
            assert!(histogram("time.work").is_none(), "metrics level: no timers");
        });
        with_level(Level::Trace, || {
            {
                let _t = time_scope("work");
            }
            let h = histogram("time.work").expect("trace level records timers");
            assert_eq!(h.count, 1);
            assert!(h.min >= 0.0);
        });
    }

    #[test]
    fn guard_scalar_records_at_every_level() {
        with_level(Level::Off, || {
            assert!(guard_scalar("fine", 1.0));
            assert!(!guard_scalar("broken", f64::NAN));
            let ev = nonfinite_events();
            assert_eq!(ev.len(), 1);
            assert_eq!(ev[0].tag, "broken");
            assert_eq!(ev[0].class, "nan");
            assert_eq!(nonfinite_total(), 1);
        });
    }

    #[test]
    fn check_finite_records_first_offender_with_provenance() {
        with_level(Level::Trace, || {
            set_step(42);
            let _p = phase("unit.phase");
            let data = [1.0, 2.0, f64::NEG_INFINITY, f64::NAN];
            assert!(!check_finite("tensor.x", &data));
            let ev = nonfinite_events();
            assert_eq!(ev.len(), 1, "only the first offender is recorded");
            assert_eq!(ev[0].index, 2);
            assert_eq!(ev[0].class, "-inf");
            assert_eq!(ev[0].step, 42);
            assert_eq!(ev[0].phase, "unit.phase");
        });
    }

    #[test]
    fn check_finite_classifies_f32_sentinels_like_f64() {
        // The widening in `check_finite` must preserve the NaN/±∞
        // classification — f32 slices (the fast-path dtype) feed the same
        // provenance machinery as f64 ones.
        with_level(Level::Trace, || {
            let data = [1.0f32, f32::INFINITY, f32::NAN];
            assert!(!check_finite("tensor.f32", &data));
            let ev = nonfinite_events();
            assert_eq!(ev.len(), 1, "only the first offender is recorded");
            assert_eq!(ev[0].tag, "tensor.f32");
            assert_eq!(ev[0].index, 1);
            assert_eq!(ev[0].class, "+inf");
        });
        with_level(Level::Trace, || {
            assert!(!check_finite("g", &[f32::NAN]));
            assert_eq!(nonfinite_events()[0].class, "nan");
            assert!(check_finite("ok", &[f32::MAX, f32::MIN_POSITIVE, -0.0f32]));
            assert_eq!(nonfinite_total(), 1);
        });
    }

    #[test]
    fn guard_scalar_accepts_widened_f32_values() {
        // Trainers at T = f32 widen via `to_f64` before guarding; a
        // widened f32 NaN/∞ must still trip the guard, and the largest
        // finite f32 must not (widening is exact, never saturating).
        with_level(Level::Off, || {
            assert!(guard_scalar("fine", f32::MAX as f64));
            assert!(!guard_scalar("broken", f32::NAN as f64));
            assert!(!guard_scalar("hot", f32::NEG_INFINITY as f64));
            let ev = nonfinite_events();
            assert_eq!(ev.len(), 2);
            assert_eq!(ev[0].class, "nan");
            assert_eq!(ev[1].class, "-inf");
        });
    }

    #[test]
    fn phase_stack_nests_and_unwinds() {
        with_level(Level::Metrics, || {
            assert_eq!(current_phase(), "");
            let outer = phase("outer");
            assert_eq!(current_phase(), "outer");
            {
                let _inner = phase("inner");
                assert_eq!(current_phase(), "inner");
            }
            assert_eq!(current_phase(), "outer");
            drop(outer);
            assert_eq!(current_phase(), "");
        });
    }

    #[test]
    fn quantile_estimates_land_in_the_right_bucket() {
        let mut h = Histogram::new();
        for v in 1..=100 {
            h.record(v as f64);
        }
        // The true p50 is 50 (bucket [32, 64)); the estimate must stay
        // within that bucket and inside the exact [min, max] envelope.
        let p50 = h.quantile(0.5);
        assert!((32.0..=64.0).contains(&p50), "p50 = {p50}");
        // True p99 is 99 (bucket [64, 128), clamped to max = 100).
        let p99 = h.quantile(0.99);
        assert!((64.0..=100.0).contains(&p99), "p99 = {p99}");
        // Quantiles are monotone in p and pinned at the tracked extremes.
        assert!(h.quantile(0.0) <= p50 && p50 <= p99);
        assert_eq!(h.quantile(1.0), 100.0);
        assert!(h.quantile(0.0) >= 1.0);
    }

    #[test]
    fn quantile_degenerate_histograms() {
        let empty = Histogram::new();
        assert!(empty.quantile(0.5).is_nan());

        let mut single = Histogram::new();
        single.record(42.0);
        // One sample: every quantile is that sample (min = max clamp).
        assert_eq!(single.quantile(0.0), 42.0);
        assert_eq!(single.quantile(0.5), 42.0);
        assert_eq!(single.quantile(1.0), 42.0);

        let mut zeros = Histogram::new();
        zeros.record(0.0);
        zeros.record(0.0);
        zeros.record(8.0);
        // Rank 1 and 2 sit in the exact-zero bucket.
        assert_eq!(zeros.quantile(0.5), 0.0);
        assert_eq!(zeros.quantile(1.0), 8.0);
    }

    #[test]
    fn quantile_p_is_clamped() {
        let mut h = Histogram::new();
        h.record(1.0);
        h.record(2.0);
        assert_eq!(h.quantile(-3.0), h.quantile(0.0));
        assert_eq!(h.quantile(7.0), h.quantile(1.0));
    }

    #[test]
    fn json_export_is_well_formed_enough() {
        with_level(Level::Trace, || {
            inc("a\"quote");
            record("val", 3.0);
            guard_scalar("bad", f64::INFINITY);
            let j = to_json();
            assert!(j.starts_with('{') && j.trim_end().ends_with('}'));
            assert!(j.contains("\\\"quote"));
            assert!(j.contains("\"nonfinite_total\": 1"));
            assert!(j.contains("\"class\": \"+inf\""));
            // non-finite min/max of an untouched histogram never leaks
            // Infinity literals into the JSON
            assert!(!j.contains("inf,") && !j.contains("NaN"));
        });
    }

    #[test]
    fn event_log_is_capped_but_total_is_not() {
        with_level(Level::Metrics, || {
            for _ in 0..(MAX_NONFINITE_EVENTS + 10) {
                guard_scalar("flood", f64::NAN);
            }
            assert_eq!(nonfinite_events().len(), MAX_NONFINITE_EVENTS);
            assert_eq!(nonfinite_total(), (MAX_NONFINITE_EVENTS + 10) as u64);
        });
    }
}
