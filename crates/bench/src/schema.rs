//! The one record shape of the `BENCH_*.json` perf reports.
//!
//! A report is a non-empty JSON array of [`Record`]s, each the same
//! `name value unit` triple the repository benchmark prints. Configuration
//! lives in the name: `gemm_512_packed_2t` (ms), `throughput_depth3_batch_2w`
//! (frames/s), `conv_depth3_3x3_implicit_peak_ws` (B), `fleet_depth1_64_p99`
//! (ms). A `_<n>t` or `_<n>w` suffix names the thread or worker count of a
//! section that sweeps it; a timing without one ran on one thread.
//!
//! The `perf` and `redeye-fleet` binaries write through [`write_report`],
//! which validates before writing, and the `validate_bench` binary and this
//! module's tests read every report back through [`validate_report`].

use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::collections::HashSet;
use std::path::{Path, PathBuf};

/// One perf observation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Record {
    /// What was measured, configuration included, e.g. `gemm_512_packed_2t`.
    pub name: String,
    /// The measurement; always finite.
    pub value: f64,
    /// Unit of `value`, e.g. `ms`, `frames/s`, `B`, `mJ`, `ratio`.
    pub unit: String,
}

impl Record {
    /// A record of `value` in `unit`.
    pub fn new(name: impl Into<String>, value: f64, unit: &str) -> Self {
        Record {
            name: name.into(),
            value,
            unit: unit.into(),
        }
    }
}

/// Validates one `BENCH_*.json` report body and returns its record count.
///
/// The body must be a non-empty array whose every element is an object
/// with exactly the keys `name`, `value` and `unit`: a non-empty string
/// name, a finite numeric value and a non-empty string unit. No name may
/// repeat within the report.
pub fn validate_report(json: &str) -> Result<usize, String> {
    let report: Value = serde_json::from_str(json).map_err(|e| format!("not JSON: {e}"))?;
    let Value::Seq(records) = report else {
        return Err("report is not an array".into());
    };
    if records.is_empty() {
        return Err("report is an empty array".into());
    }
    let mut names = HashSet::new();
    for (i, record) in records.iter().enumerate() {
        let keys_ok = matches!(record, Value::Map(entries) if entries.len() == 3)
            && ["name", "value", "unit"]
                .iter()
                .all(|k| record.get(k).is_some());
        if !keys_ok {
            return Err(format!(
                "record {i} is not an object with exactly the keys name, value, unit"
            ));
        }
        let non_empty = |key: &str| record[key].as_str().filter(|s| !s.is_empty());
        let name =
            non_empty("name").ok_or(format!("record {i}: name must be a non-empty string"))?;
        non_empty("unit").ok_or(format!("record {name}: unit must be a non-empty string"))?;
        record["value"]
            .as_f64()
            .filter(|v| v.is_finite())
            .ok_or(format!("record {name}: value must be a finite number"))?;
        if !names.insert(name) {
            return Err(format!("record name {name} repeats"));
        }
    }
    Ok(records.len())
}

/// Writes `records` to `path` as a pretty-printed report.
///
/// # Panics
///
/// Panics if the records do not form a valid report (see
/// [`validate_report`]) or the file cannot be written: a malformed report
/// is a bug in the binary that measured it.
pub fn write_report(path: &str, records: Vec<Record>) {
    let json = serde_json::to_string_pretty(&records).expect("records serialize");
    if let Err(e) = validate_report(&json) {
        panic!("{path}: {e}");
    }
    std::fs::write(path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path} ({} records)", records.len());
}

/// Every `BENCH_*.json` file directly inside `dir`, sorted.
///
/// # Panics
///
/// Panics if `dir` cannot be read.
pub fn discover(dir: &Path) -> Vec<PathBuf> {
    let mut found: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            let name = path.file_name()?.to_str()?;
            (name.starts_with("BENCH_") && name.ends_with(".json")).then_some(path)
        })
        .collect();
    found.sort();
    found
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn written_records_round_trip() {
        let records = vec![
            Record::new("gemm_512_packed_2t", 4.4, "ms"),
            Record::new("conv_depth3_3x3_implicit_peak_ws", 1_376_256.0, "B"),
        ];
        let json = serde_json::to_string_pretty(&records).unwrap();
        assert_eq!(validate_report(&json), Ok(2));
        assert_eq!(serde_json::from_str::<Vec<Record>>(&json).unwrap(), records);
    }

    #[test]
    fn malformed_reports_are_rejected() {
        let ok = r#"{"name": "x", "value": 1.0, "unit": "ms"}"#;
        assert_eq!(validate_report(&format!("[{ok}]")), Ok(1));
        for bad in [
            "[]".to_string(),
            ok.to_string(),
            r#"[{"name": "x", "value": 1.0}]"#.into(),
            r#"[{"name": "x", "value": 1.0, "unit": "ms", "threads": 1}]"#.into(),
            r#"[{"name": "x", "value": "1.0", "unit": "ms"}]"#.into(),
            r#"[{"name": "x", "value": null, "unit": "ms"}]"#.into(),
            r#"[{"name": "x", "value": 1e999, "unit": "ms"}]"#.into(),
            r#"[{"name": "x", "value": 1.0, "unit": ""}]"#.into(),
            r#"[{"name": "", "value": 1.0, "unit": "ms"}]"#.into(),
            format!("[{ok}, {ok}]"),
        ] {
            assert!(validate_report(&bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn committed_reports_are_valid() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let reports = discover(&root);
        assert!(
            reports.len() >= 5,
            "expected the five committed BENCH_*.json reports, found {reports:?}"
        );
        for path in reports {
            let json = std::fs::read_to_string(&path).unwrap();
            if let Err(e) = validate_report(&json) {
                panic!("{}: {e}", path.display());
            }
        }
    }
}
