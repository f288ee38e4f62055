//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload from the repository root and prints, as the last line
//! of standard output, `{"correct", "attempted", "failed", "metrics"}`:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. A human-readable report goes to standard error. Exits 1
//! without a result line when the workload cannot run, 2 on bad arguments.

use hap_perfbench::serve::{self, ServeKind};
use hap_perfbench::{spec, train, WORKLOADS};
use hap_snapshot::{peek_dtype, ModelSnapshot};
use hap_tensor::Dtype;
use std::path::Path;

/// The served model, relative to the repository root.
const SNAPSHOT: &str = "results/model.snap";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <u64> --seconds <1..=60> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} requires a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .unwrap_or_else(|_| usage("--seed must be a u64")),
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| (1.0..=60.0).contains(s))
                        .unwrap_or_else(|| usage("--seconds must be a number in 1..=60")),
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace must be 0 or 1"),
                })
            }
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
    }
}

fn run(args: &Args) -> Result<String, String> {
    let spec = spec::workload(&args.workload)?;
    let result = match ServeKind::from_name(&args.workload) {
        None => train::run(&spec, args.seed, args.seconds, args.trace)?,
        Some(kind) => {
            let path = Path::new(SNAPSHOT);
            let bytes = std::fs::read(path).map_err(|e| format!("read {SNAPSHOT}: {e}"))?;
            let bad = |e: hap_snapshot::SnapshotError| format!("{SNAPSHOT}: {e}");
            match peek_dtype(&bytes).map_err(bad)? {
                Dtype::F64 => {
                    let snap = ModelSnapshot::<f64>::from_bytes(&bytes).map_err(bad)?;
                    serve::run(
                        kind,
                        path,
                        &snap,
                        &spec,
                        args.seed,
                        args.seconds,
                        args.trace,
                    )?
                }
                Dtype::F32 => {
                    let snap = ModelSnapshot::<f32>::from_bytes(&bytes).map_err(bad)?;
                    serve::run(
                        kind,
                        path,
                        &snap,
                        &spec,
                        args.seed,
                        args.seconds,
                        args.trace,
                    )?
                }
            }
        }
    };
    Ok(result.to_json())
}

fn main() {
    let args = parse_args();
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
