//! The benchmark's recorded constants, read from `spec.json` (compiled
//! in): each workload's open-loop rate and golden output hash, and, for
//! each per-layer metric, the end-to-end metric it should move and the
//! workloads where its layer does most and little of the work.

use hap_serve::Json;

const SPEC: &str = include_str!("../spec.json");

/// A fixed-seed replay whose output hash is recorded: every run replays
/// it and fails on a mismatch, whatever seed the run itself uses.
#[derive(Clone, Debug)]
pub struct Golden {
    pub seed: u64,
    /// Requests (serving workloads) or epochs (`train`).
    pub size: usize,
    pub hash: String,
}

#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    pub name: String,
    /// Open-loop arrival rate of a serving workload: about 15% of the
    /// parent commit's closed-loop throughput on the recording host (low
    /// enough that a slow spell of the host does not tip the open loop
    /// into queueing), and never adapted at run time. `None` for `train`,
    /// which has no open loop.
    pub open_rate_per_s: Option<f64>,
    pub golden: Golden,
}

fn field<'a>(v: &'a Json, key: &str, what: &str) -> Result<&'a Json, String> {
    v.get(key)
        .ok_or_else(|| format!("spec.json: {what} has no \"{key}\""))
}

fn workload_from(name: &str, v: &Json) -> Result<WorkloadSpec, String> {
    let g = field(v, "golden", name)?;
    let num = |obj: &Json, key: &str| -> Result<f64, String> {
        field(obj, key, name)?
            .as_f64()
            .ok_or_else(|| format!("spec.json: {name}.{key} is not a number"))
    };
    Ok(WorkloadSpec {
        name: name.to_string(),
        open_rate_per_s: v.get("open_rate_per_s").and_then(Json::as_f64),
        golden: Golden {
            seed: num(g, "seed")? as u64,
            size: num(g, "size")? as usize,
            hash: field(g, "hash", name)?
                .as_str()
                .ok_or_else(|| format!("spec.json: {name}.golden.hash is not a string"))?
                .to_string(),
        },
    })
}

/// The spec of workload `name`, or an error naming the known workloads.
pub fn workload(name: &str) -> Result<WorkloadSpec, String> {
    let spec = Json::parse(SPEC).map_err(|e| format!("spec.json: {e}"))?;
    let workloads = field(&spec, "workloads", "the spec")?;
    match workloads.get(name) {
        Some(v) => workload_from(name, v),
        None => Err(format!(
            "unknown workload {name:?} (known: {})",
            crate::WORKLOADS.join(", ")
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_has_a_spec() {
        for name in crate::WORKLOADS {
            let w = workload(name).unwrap();
            assert_eq!(w.golden.hash.len(), 16, "{name}");
        }
        assert!(workload("nope").is_err());
    }

    /// Every per-layer metric the benchmark declares names the end-to-end
    /// metric it should move and the workloads where its layer does most
    /// and little of the work.
    #[test]
    fn every_declared_layer_metric_has_a_prediction() {
        let bench = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let spec = Json::parse(SPEC).unwrap();
        let layers = spec.get("layers").unwrap();
        let e2e: Vec<&str> = bench
            .get("end_to_end")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|m| m.get("name").and_then(Json::as_str).unwrap())
            .collect();
        for m in bench.get("per_layer").and_then(Json::as_array).unwrap() {
            let name = m.get("name").and_then(Json::as_str).unwrap();
            let entry = layers.get(name).unwrap_or_else(|| panic!("{name} missing"));
            let moves = entry.get("moves").and_then(Json::as_array).unwrap();
            for target in moves {
                let t = target.as_str().unwrap();
                assert!(
                    e2e.contains(&t) || t == "validity",
                    "{name} moves unknown metric {t}"
                );
            }
            for side in ["most", "little"] {
                for w in entry.get(side).and_then(Json::as_array).unwrap() {
                    let w = w.as_str().unwrap();
                    assert!(crate::WORKLOADS.contains(&w), "{name}: {w}");
                }
            }
        }
    }
}
