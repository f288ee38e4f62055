//! Micro-benchmark regression checking: compares the medians of two
//! `microbench.json` reports and flags cases that got materially slower.
//!
//! The parser is a deliberate string scan of the harness's own flat
//! schema ([`crate::harness::Bench::to_json`] writes one result object
//! per line with `"name"` first and `"median_ns"` third) — no JSON
//! library in the dependency tree, and no need for one since both sides
//! of the comparison come from the same writer.

/// `(case name, median_ns)` pairs extracted from a report, in file order.
pub type Medians = Vec<(String, f64)>;

/// Extracts `(name, median_ns)` for every result in a microbench JSON
/// report produced by [`crate::harness::Bench::to_json`].
///
/// Lines without a `"name"` field (the header/footer of the report) are
/// skipped; a line with a name but a malformed median is skipped too
/// rather than guessed at.
pub fn parse_medians(json: &str) -> Medians {
    let mut out = Vec::new();
    for line in json.lines() {
        let Some(name) = field_str(line, "\"name\": \"") else {
            continue;
        };
        let Some(median) = field_f64(line, "\"median_ns\": ") else {
            continue;
        };
        out.push((name, median));
    }
    out
}

/// The string value following `key` on `line`, up to the closing quote.
fn field_str(line: &str, key: &str) -> Option<String> {
    let start = line.find(key)? + key.len();
    let rest = &line[start..];
    let end = rest.find('"')?;
    Some(rest[..end].to_string())
}

/// The number following `key` on `line`, up to the next `,` or `}`.
fn field_f64(line: &str, key: &str) -> Option<f64> {
    let start = line.find(key)? + key.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// One case whose median got slower than the threshold allows.
#[derive(Clone, Debug, PartialEq)]
pub struct Regression {
    /// Case name present in both reports.
    pub name: String,
    /// Baseline median in nanoseconds.
    pub base_ns: f64,
    /// Current median in nanoseconds.
    pub cur_ns: f64,
    /// `cur_ns / base_ns` (always > 1 for a reported regression).
    pub ratio: f64,
}

/// Compares two reports and returns the cases whose current median
/// exceeds the baseline by more than `threshold` (a fraction: `0.25`
/// flags >25 % slowdowns).
///
/// Only cases present in *both* reports are compared — renamed or new
/// cases are ignored here; [`missing_cases`] reports baseline cases the
/// current run dropped.
pub fn find_regressions(baseline: &Medians, current: &Medians, threshold: f64) -> Vec<Regression> {
    let mut out = Vec::new();
    for (name, base_ns) in baseline {
        let Some((_, cur_ns)) = current.iter().find(|(n, _)| n == name) else {
            continue;
        };
        if *base_ns > 0.0 && *cur_ns > base_ns * (1.0 + threshold) {
            out.push(Regression {
                name: name.clone(),
                base_ns: *base_ns,
                cur_ns: *cur_ns,
                ratio: cur_ns / base_ns,
            });
        }
    }
    out.sort_by(|a, b| b.ratio.partial_cmp(&a.ratio).unwrap());
    out
}

/// Baseline case names absent from the current report (in baseline
/// order) — a silent drop would otherwise read as "no regression".
pub fn missing_cases(baseline: &Medians, current: &Medians) -> Vec<String> {
    baseline
        .iter()
        .filter(|(name, _)| !current.iter().any(|(n, _)| n == name))
        .map(|(name, _)| name.clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Bench;

    fn medians(pairs: &[(&str, f64)]) -> Medians {
        pairs.iter().map(|(n, m)| (n.to_string(), *m)).collect()
    }

    #[test]
    fn parses_the_harness_own_json() {
        let mut b = Bench::with_iters(0, 3);
        b.run("fast/case", || 1 + 1);
        b.run("slow/case", || (0..1000u64).sum::<u64>());
        let parsed = parse_medians(&b.to_json());
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].0, "fast/case");
        assert_eq!(parsed[1].0, "slow/case");
        // the writer rounds to one decimal place
        assert!((parsed[0].1 - b.results()[0].median_ns).abs() < 0.06);
        assert!(parsed.iter().all(|(_, m)| *m > 0.0));
    }

    #[test]
    fn parses_lines_with_allocs_field() {
        let json = "{\n  \"results\": [\n    {\"name\": \"a\", \"iters\": 2, \
                    \"median_ns\": 100.5, \"max_ns\": 3.0, \"allocs_per_iter\": 4.0}\n  ]\n}\n";
        assert_eq!(parse_medians(json), medians(&[("a", 100.5)]));
    }

    #[test]
    fn flags_only_regressions_beyond_threshold() {
        let base = medians(&[("a", 100.0), ("b", 100.0), ("c", 100.0)]);
        let cur = medians(&[("a", 124.0), ("b", 126.0), ("c", 50.0)]);
        let regs = find_regressions(&base, &cur, 0.25);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].name, "b");
        assert_eq!(regs[0].base_ns, 100.0);
        assert_eq!(regs[0].cur_ns, 126.0);
        assert!((regs[0].ratio - 1.26).abs() < 1e-12);
    }

    #[test]
    fn regressions_sorted_worst_first_and_new_cases_ignored() {
        let base = medians(&[("a", 100.0), ("b", 100.0)]);
        let cur = medians(&[("a", 200.0), ("b", 400.0), ("new", 1.0)]);
        let regs = find_regressions(&base, &cur, 0.25);
        let names: Vec<&str> = regs.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["b", "a"]);
    }

    #[test]
    fn missing_cases_are_reported() {
        let base = medians(&[("a", 1.0), ("gone", 2.0)]);
        let cur = medians(&[("a", 1.0)]);
        assert_eq!(missing_cases(&base, &cur), vec!["gone".to_string()]);
        assert!(missing_cases(&cur, &base).is_empty());
    }
}
