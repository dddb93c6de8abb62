//! End-to-end and per-layer benchmark of the acoustic serving system.
//!
//! `benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload (or `all`) and prints one `workload metric value
//! unit` line per metric, then one JSON result line. `benchmark compare`
//! diffs two sets of run records. See README.md for the workloads, every
//! metric and its bound, and the layer-to-end-to-end predictions.

mod child;
mod compare;
mod gen;
mod json;
mod models;
mod probe;
mod provenance;
mod run;
mod stats;
mod workload;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        Some("child") => child::main(&args[1..]),
        _ => run::main(&args),
    };
    result.unwrap_or_else(|e| {
        eprintln!("benchmark: {e}");
        ExitCode::from(2)
    })
}
