//! `redeye-benchmark`: end-to-end and per-layer host time of the RedEye
//! simulator on four closed-loop workloads. See `README.md` beside this
//! package for the workloads, the metrics and how to compare two commits.
//!
//! ```text
//! redeye-benchmark --workload <name> [--seed <u64>] [--seconds <s>]
//!                  [--trace <0|1>] [--trace-out <file>] [--runs <n>]
//! redeye-benchmark --smoke
//! ```
//!
//! One invocation runs one workload in its own process, so the peak RSS
//! it reports is that workload's. It prints context lines (`# …`), every
//! metric as `name value unit`, and last a JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; it exits non-zero if
//! any correctness check fails.

mod replay;
mod scene;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::process::{Command, Stdio};
use std::time::Instant;
use workloads::{Options, Report, Workload};

/// Measurement length when `--seconds` is not given (the `run_seconds`
/// of `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 20.0;
/// Set-ups per run; `setup_s` reports their median.
const SETUPS: usize = 3;
/// `--smoke` must run every workload within this many seconds.
const SMOKE_LIMIT_S: f64 = 15.0;

const USAGE: &str =
    "usage: redeye-benchmark --workload <d3_serial|d1_threads2|d5_batch2|micronet_fleet> \
[--seed <u64>] [--seconds <s>] [--trace <0|1>] [--trace-out <file>] [--runs <n>]\n       \
redeye-benchmark --smoke";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
    runs: Option<usize>,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        trace_out: None,
        runs: None,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            out.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                out.workload = Some(Workload::parse(value).ok_or_else(|| bad("a workload name"))?);
            }
            "--seed" => out.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                out.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("a non-negative number of seconds"))?;
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                };
            }
            "--trace-out" => out.trace_out = Some(value.clone()),
            "--runs" => {
                out.runs = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&n: &usize| n >= 2)
                        .ok_or_else(|| bad("a run count of at least 2"))?,
                );
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if out.workload.is_none() && !out.smoke {
        return Err("--workload is required".into());
    }
    Ok(out)
}

/// A JSON number; a metric that is not finite becomes `null` and makes
/// the run incorrect.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Whether the run passed every check and produced only finite metrics.
fn correct(report: &Report) -> bool {
    report.failures.is_empty()
        && report.failed == 0
        && !report.metrics.is_empty()
        && report.metrics.iter().all(|m| m.value.is_finite())
}

/// The result line: the last line of standard output.
fn result_json(report: &Report) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        correct(report),
        report.attempted,
        report.failed
    );
    for (i, m) in report.metrics.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

fn print_report(w: Workload, args: &Args, report: &Report) {
    println!("# workload {} seed {}", w.name(), args.seed);
    for note in &report.notes {
        println!("# {note}");
    }
    for (name, t) in report.tracer.totals() {
        println!(
            "# span {name}: {} calls, {:.3} ms total, {:.3} ms self",
            t.count, t.total_ms, t.self_ms
        );
    }
    for failure in &report.failures {
        println!("# FAILED {failure}");
        eprintln!("error: {}: {failure}", w.name());
    }
    for m in &report.metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_json(report));
}

fn single(w: Workload, args: &Args) -> i32 {
    let opts = Options {
        seed: args.seed,
        seconds: args.seconds,
        setups: SETUPS,
        trace: args.trace,
    };
    let report = match workloads::run(w, &opts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {}: set-up failed: {e}", w.name());
            return 2;
        }
    };
    if let Some(path) = &args.trace_out {
        if let Err(e) = std::fs::write(path, report.tracer.chrome_json()) {
            eprintln!("error: writing trace {path}: {e}");
            return 2;
        }
    }
    print_report(w, args, &report);
    if correct(&report) {
        0
    } else {
        1
    }
}

/// `--smoke`: every workload once, untraced, with a single set-up and the
/// shortest loop the digest fold allows. Returns whether every run was
/// correct, and the total seconds (an optimized build must stay under
/// [`SMOKE_LIMIT_S`]).
fn smoke() -> (bool, f64) {
    let start = Instant::now();
    let mut ok = true;
    for w in Workload::ALL {
        let t = Instant::now();
        let opts = Options {
            seed: 1,
            seconds: 0.0,
            setups: 1,
            trace: false,
        };
        let pass = match workloads::run(w, &opts) {
            Ok(report) => {
                for failure in &report.failures {
                    eprintln!("error: {}: {failure}", w.name());
                }
                correct(&report)
            }
            Err(e) => {
                eprintln!("error: {}: set-up failed: {e}", w.name());
                false
            }
        };
        ok &= pass;
        let verdict = if pass { "ok" } else { "FAILED" };
        println!(
            "# smoke {}: {verdict} in {:.2} s",
            w.name(),
            t.elapsed().as_secs_f64()
        );
    }
    let total = start.elapsed().as_secs_f64();
    println!("# smoke total {total:.2} s (limit {SMOKE_LIMIT_S} s)");
    (ok, total)
}

/// `--runs n`: runs the workload `n` times as child processes with seeds
/// `seed, seed+1, …` and prints each metric's median, quartiles (as
/// Python's `statistics.quantiles(values, n=4)`), `(max−min)/median` and
/// `(q3−q1)/median`.
fn spread(w: Workload, args: &Args, n: usize) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: locating this executable: {e}");
            return 2;
        }
    };
    // (name, unit, one value per run), in the order the runs print them.
    let mut table: Vec<(String, String, Vec<f64>)> = Vec::new();
    for i in 0..n as u64 {
        let seed = args.seed + i;
        let out = Command::new(&exe)
            .args(["--workload", w.name(), "--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output();
        let out = match out {
            Ok(out) => out,
            Err(e) => {
                eprintln!("error: run {i}: {e}");
                return 2;
            }
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or("");
        let parsed: Result<serde_json::Value, _> = serde_json::from_str(last);
        let Ok(result) = parsed else {
            eprintln!("error: run {i} (seed {seed}) printed no result line");
            return 1;
        };
        if !out.status.success() || result["correct"] != true {
            eprintln!("error: run {i} (seed {seed}) failed its correctness checks");
            return 1;
        }
        if let serde_json::Value::Map(metrics) = &result["metrics"] {
            for (name, m) in metrics {
                let value = m["value"].as_f64().unwrap_or(f64::NAN);
                match table.iter_mut().find(|row| &row.0 == name) {
                    Some(row) => row.2.push(value),
                    None => {
                        let unit = m["unit"].as_str().unwrap_or("").to_string();
                        table.push((name.clone(), unit, vec![value]));
                    }
                }
            }
        }
        println!("# run {i}: seed {seed} ok");
    }
    println!(
        "# {} runs of {}: median q1 q3 (max-min)/median (q3-q1)/median",
        n,
        w.name()
    );
    for (name, unit, v) in &table {
        let med = stats::median(v);
        let (q1, q3) = stats::quartiles_exclusive(v);
        let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let min = v.iter().copied().fold(f64::INFINITY, f64::min);
        println!(
            "{name} {med:.6} {q1:.6} {q3:.6} {:.4} {:.4} {unit}",
            (max - min) / med.abs(),
            (q3 - q1) / med.abs()
        );
    }
    0
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match parse_args(&args) {
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            2
        }
        Ok(a) if a.smoke => match smoke() {
            (true, seconds) if seconds < SMOKE_LIMIT_S => 0,
            _ => 1,
        },
        Ok(a) => {
            let w = a
                .workload
                .expect("parse_args requires --workload without --smoke");
            match a.runs {
                Some(n) => spread(w, &a, n),
                None => single(w, &a),
            }
        }
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The benchmark description at the root of the repository.
    fn benchmark_json() -> serde_json::Value {
        serde_json::from_str(include_str!("../../../../../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses")
    }

    fn names(json: &serde_json::Value, key: &str) -> Vec<String> {
        let serde_json::Value::Seq(items) = &json[key] else {
            panic!("BENCHMARK.json has no {key} list");
        };
        items
            .iter()
            .map(|m| m["name"].as_str().expect("named").to_string())
            .collect()
    }

    fn args(line: &str) -> Result<Args, String> {
        parse_args(
            &line
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn emitted_metrics_match_benchmark_json() {
        let json = benchmark_json();
        assert_eq!(json["run_seconds"].as_f64(), Some(DEFAULT_SECONDS));
        let workloads = names(&json, "workloads");
        let all: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, all);
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let opts = Options {
                seed: 1,
                seconds: 0.0,
                setups: 1,
                trace,
            };
            let report = workloads::run(Workload::MicronetFleet, &opts).expect("runs");
            assert!(correct(&report), "{:?}", report.failures);
            let emitted: Vec<String> = report.metrics.iter().map(|m| m.name.to_string()).collect();
            assert_eq!(emitted, names(&json, key), "{key}");
            let units: Vec<String> = report.metrics.iter().map(|m| m.unit.to_string()).collect();
            let serde_json::Value::Seq(declared) = &json[key] else {
                unreachable!()
            };
            let declared: Vec<&str> = declared.iter().filter_map(|m| m["unit"].as_str()).collect();
            assert_eq!(units, declared, "{key} units");
            let line: serde_json::Value =
                serde_json::from_str(&result_json(&report)).expect("JSON");
            assert_eq!(line["correct"], true);
        }
    }

    #[test]
    fn command_line_is_validated() {
        let a = args("--workload d3_serial --seed 2 --seconds 1.5 --trace 1").expect("valid");
        assert_eq!(a.workload, Some(Workload::D3Serial));
        assert_eq!((a.seed, a.seconds, a.trace), (2, 1.5, true));
        assert!(args("--smoke").expect("valid").smoke);
        for bad in [
            "",
            "--workload nope",
            "--workload d3_serial --trace 2",
            "--workload d3_serial --seconds -1",
            "--workload d3_serial --runs 1",
            "--workload d3_serial --seed",
            "--workload d3_serial --frobnicate 1",
        ] {
            assert!(args(bad).is_err(), "{bad:?} was accepted");
        }
    }

    #[test]
    fn smoke_runs_every_workload_in_time() {
        let (ok, seconds) = smoke();
        assert!(ok, "a smoke run failed its checks");
        // Debug assertions slow the kernels too much for the limit, which
        // applies to optimized builds.
        if !cfg!(debug_assertions) {
            assert!(seconds < SMOKE_LIMIT_S, "smoke took {seconds:.2} s");
        }
    }
}
