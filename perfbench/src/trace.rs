//! In-memory spans recorded around calls into each layer.
//!
//! A span is `(name, start, end, parent, request)`. Spans are recorded on
//! one thread and nest strictly, so a span's self time is its duration
//! minus the durations of its direct children. A disabled tracer records
//! nothing and costs one branch per call, which is what makes the same
//! replay code serve as both the traced and the untraced pass.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: usize,
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[must_use = "a span must be ended"]
pub struct Open(Option<usize>);

pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: usize,
}

/// Self time and call count of every span with one name.
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    pub self_ns: u64,
    pub calls: u64,
}

impl Totals {
    /// Mean self time per call in microseconds (0 when never called, so an
    /// unexercised layer reads 0).
    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64 / 1e3
        }
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    /// Tags the spans that follow with request (or step) `id`.
    pub fn set_request(&mut self, id: usize) {
        self.request = id;
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            request: self.request,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn end(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(id), "spans must end innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let r = f();
        self.end(open);
        r
    }

    /// Self time and calls per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            t.self_ns += (s.end_ns - s.start_ns).saturating_sub(children);
            t.calls += 1;
        }
        out
    }

    /// Writes every span as a tab-separated line:
    /// `id parent request name start_ns end_ns` (`-` for no parent).
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tparent\trequest\tname\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{id}\t{parent}\t{}\t{}\t{}\t{}",
                s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.set_request(3);
        let root = t.begin("root");
        let a = t.begin("a");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(a);
        t.end(root);
        let totals = t.totals();
        let (r, a) = (totals["root"], totals["a"]);
        assert_eq!((r.calls, a.calls), (1, 1));
        assert!(a.self_ns >= 2_000_000);
        // Root's self time is only the bookkeeping around its child.
        assert!(r.self_ns < a.self_ns, "{r:?} vs {a:?}");
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[1].request, 3);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.time("x", || 7);
        assert_eq!(v, 7);
        assert!(t.totals().is_empty());
    }
}
