//! Validates `BENCH_*.json` perf reports against the one record shape
//! ([`redeye_bench::schema`]).
//!
//! CI runs this after the perf smokes: every report they wrote must be a
//! non-empty array of `{name, value, unit}` records with unique names, so
//! a malformed report fails the build before it ships as an artifact.
//!
//! Usage: `cargo run -p redeye-bench --bin validate_bench [-- FILES...]`
//!
//! With no arguments, validates every `BENCH_*.json` in the current
//! directory and fails if none exist (a missing report usually means a
//! perf smoke silently didn't run).

use redeye_bench::schema::{discover, validate_report};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<PathBuf> = std::env::args().skip(1).map(PathBuf::from).collect();
    let files = if args.is_empty() {
        discover(Path::new("."))
    } else {
        args
    };
    if files.is_empty() {
        eprintln!("no BENCH_*.json reports found in the current directory");
        return ExitCode::FAILURE;
    }

    let mut failed = false;
    for path in &files {
        let name = path.display();
        let checked = std::fs::read_to_string(path)
            .map_err(|e| format!("unreadable: {e}"))
            .and_then(|json| validate_report(&json));
        match checked {
            Ok(n) => println!("{name}: ok ({n} records)"),
            Err(e) => {
                eprintln!("{name}: INVALID: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
