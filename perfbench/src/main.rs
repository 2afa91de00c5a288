//! `perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Prints one line per metric (with sample counts), then the JSON result
//! as the last line. Exits 1 when a correctness check fails and 2 when
//! the benchmark itself cannot produce a result.

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match traffic_perfbench::parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match traffic_perfbench::run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (lines, result) = match report.render(args.trace) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for problem in &report.problems {
        eprintln!("perfbench: correctness check failed: {problem}");
    }
    for line in lines {
        println!("{line}");
    }
    println!("{result}");
    if report.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
