//! Repo-level benchmark of the traffic suite: two workloads, each
//! printing end-to-end metrics untraced and per-layer metrics traced.
//! See `perfbench/README.md` for why each workload exists and which
//! layer metric should move which end-to-end metric.

pub mod loadgen;
pub mod report;
pub mod serve;
pub mod stats;
pub mod sweep;
pub mod trace;

use std::path::Path;

use report::{per_layer, Report};
use trace::OpTotals;

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 2] = ["train-sweep", "serve-large"];

/// The run length the workload tables are sized for; `--seconds`
/// scales batch budgets and phase lengths linearly from it.
pub const DESIGN_SECONDS: f64 = 20.0;

/// Derives an independent seed for one input stream of a run.
pub fn mix_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured run length.
    pub seconds: u64,
    /// Traced (per-layer) run.
    pub trace: bool,
}

/// Parses `--workload <name> --seed <n> --seconds <n> --trace <0|1>`.
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args { workload: String::new(), seed: 0, seconds: 20, trace: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => out.workload = val.clone(),
            "--seed" => out.seed = val.parse().map_err(|_| format!("bad --seed {val}"))?,
            "--seconds" => {
                out.seconds = val.parse().map_err(|_| format!("bad --seconds {val}"))?;
                if out.seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                out.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {val} (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&out.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(out)
}

/// Runs one workload and returns its report.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    match args.workload.as_str() {
        "train-sweep" => sweep::run(args.seed, args.seconds, args.trace, &mut report)?,
        "serve-large" => {
            // One compute thread, set before the pool starts: see
            // "Compute pool" in `perfbench/README.md`.
            std::env::set_var("TRAFFIC_THREADS", "1");
            // Snapshot files for this run, inside the checkout.
            let scratch = Path::new(".perfbench").join(format!("run-{}", std::process::id()));
            std::fs::create_dir_all(&scratch)
                .map_err(|e| format!("cannot create {scratch:?}: {e}"))?;
            let result = serve::run(args.seed, args.seconds, args.trace, &mut report, &scratch);
            let _ = std::fs::remove_dir_all(&scratch);
            result?
        }
        other => return Err(format!("unknown workload {other}")),
    }
    report.retain_declared(args.trace);
    Ok(report)
}

/// Records the profiler's op-category totals.
pub fn set_op_totals(report: &mut Report, ops: &OpTotals) {
    for (cat, s) in &ops.self_s {
        report.set(format!("tensor.{cat}_self_s"), *s);
    }
    report.set("tensor.gemm_gflop", ops.gemm_gflop);
    if ops.dropped > 0 {
        eprintln!(
            "perfbench: the op recorder dropped {} records; op totals undercount",
            ops.dropped
        );
    }
}

/// Per-layer metrics of layers a workload does not exercise read 0.
pub fn zero_missing_per_layer(report: &mut Report) {
    for (name, _) in per_layer() {
        if report.get(&name).is_none() {
            report.set(name, 0.0);
        }
    }
}
