//! The JSON schema of the `BENCH_*.json` perf reports.
//!
//! The `perf` binary emits machine-readable benchmark reports that CI
//! uploads as artifacts; downstream tooling (trend dashboards, regression
//! diffing) parses them. These types are the single definition of that
//! contract: the binary serializes through them and the `validate_bench`
//! binary deserializes every report back through them, so a report that
//! drifts from the schema fails the build instead of silently breaking
//! consumers.
//!
//! Four row shapes exist:
//!
//! - [`Row`] — wall-clock sections (`BENCH_gemm.json`, `BENCH_analog.json`):
//!   `{name, wall_ms, threads}`;
//! - [`ConvRow`] — convolution-path sections (`BENCH_conv.json`): a
//!   wall-clock row plus the peak workspace footprint the measured path
//!   staged, `{name, wall_ms, threads, peak_ws_bytes}`;
//! - [`ThroughputRow`] — frame-stream sections (`BENCH_throughput.json`):
//!   `{name, frames, wall_ms, fps, workers}`;
//! - [`FleetRow`] — population sections (`BENCH_fleet.json`): fleet size,
//!   worker count, wall time, population energy, cloudlet tail latency, and
//!   the fleet output digest.
//!
//! Required-field sets are disjoint across shapes with one deliberate
//! exception: a [`ConvRow`] is a [`Row`] plus `peak_ws_bytes`, and the
//! parser ignores unknown fields, so a conv report also parses as plain
//! wall-clock rows. [`validate_report`] resolves that containment by
//! precedence — a report carrying `peak_ws_bytes` on every row is a conv
//! report, never a wall-clock one.

use serde::{Deserialize, Serialize};

/// One wall-clock benchmark observation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// Benchmark identifier, e.g. `gemm_512_packed`.
    pub name: String,
    /// Best-of wall time in milliseconds.
    pub wall_ms: f64,
    /// Worker threads the observation ran with.
    pub threads: usize,
}

/// One convolution-path observation: a wall-clock row plus the peak
/// scratch-arena footprint (`Workspace::peak_bytes`) the measured path
/// reached — the metric the implicit-GEMM path exists to shrink (its
/// `im2col` arena capacity stays zero).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConvRow {
    /// Benchmark identifier, e.g. `conv_depth3_implicit`.
    pub name: String,
    /// Best-of wall time in milliseconds.
    pub wall_ms: f64,
    /// Worker threads the observation ran with.
    pub threads: usize,
    /// Peak workspace bytes staged by the measured path.
    pub peak_ws_bytes: usize,
}

/// One frame-throughput observation: `fps` is the headline
/// continuous-vision metric, `wall_ms` the batch wall time behind it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThroughputRow {
    /// Benchmark identifier, e.g. `throughput_depth3_batch`.
    pub name: String,
    /// Frames in the measured stream.
    pub frames: usize,
    /// Batch wall time in milliseconds.
    pub wall_ms: f64,
    /// Sustained frames per second.
    pub fps: f64,
    /// Pool worker count the observation ran with.
    pub workers: usize,
}

/// One fleet-scale observation: a whole population of devices through the
/// shared engine, plus the cloudlet's view of the offered load. Setup
/// comparison rows (engine construction cost) reuse the shape with
/// `frames: 0` and zeroed population fields.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetRow {
    /// Benchmark identifier, e.g. `fleet_depth1_64`.
    pub name: String,
    /// Devices in the simulated fleet.
    pub fleet: usize,
    /// Work-stealing worker threads the run used.
    pub workers: usize,
    /// Total frames executed across the fleet.
    pub frames: usize,
    /// Fleet wall time in milliseconds.
    pub wall_ms: f64,
    /// Population analog energy in millijoules.
    pub energy_mj: f64,
    /// Cloudlet median end-to-end latency (capture → suffix done), ms.
    pub p50_ms: f64,
    /// Cloudlet 95th-percentile latency, ms.
    pub p95_ms: f64,
    /// Cloudlet 99th-percentile latency, ms.
    pub p99_ms: f64,
    /// Cloudlet utilization over the window (≈1 means saturated).
    pub saturation: f64,
    /// Fleet output digest (hex), identical across worker counts.
    pub digest: String,
}

/// Which schema a report parsed as, plus its row count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportShape {
    /// A `Vec<Row>` report with this many rows.
    WallClock(usize),
    /// A `Vec<ConvRow>` report with this many rows.
    Conv(usize),
    /// A `Vec<ThroughputRow>` report with this many rows.
    Throughput(usize),
    /// A `Vec<FleetRow>` report with this many rows.
    Fleet(usize),
}

/// Validates one `BENCH_*.json` report body against the schema.
///
/// A report must parse as a non-empty array of exactly one row shape.
/// Returns the shape and row count, or a human-readable description of
/// why the report is malformed.
pub fn validate_report(json: &str) -> Result<ReportShape, String> {
    let as_rows = serde_json::from_str::<Vec<Row>>(json).map(|r| r.len());
    let as_conv = serde_json::from_str::<Vec<ConvRow>>(json).map(|r| r.len());
    let as_throughput = serde_json::from_str::<Vec<ThroughputRow>>(json).map(|r| r.len());
    let as_fleet = serde_json::from_str::<Vec<FleetRow>>(json).map(|r| r.len());
    if matches!(as_rows, Ok(0))
        || matches!(as_conv, Ok(0))
        || matches!(as_throughput, Ok(0))
        || matches!(as_fleet, Ok(0))
    {
        return Err("report is an empty array".into());
    }
    // Containment precedence (see the module docs): a report whose rows
    // all carry `peak_ws_bytes` is a conv report even though the lenient
    // parser also accepts it as plain wall-clock rows.
    let as_rows = match (&as_rows, &as_conv) {
        (Ok(_), Ok(_)) => Err(()),
        _ => as_rows.map_err(|_| ()),
    };
    let matches: Vec<ReportShape> = [
        as_rows.ok().map(ReportShape::WallClock),
        as_conv.ok().map(ReportShape::Conv),
        as_throughput.ok().map(ReportShape::Throughput),
        as_fleet.ok().map(ReportShape::Fleet),
    ]
    .into_iter()
    .flatten()
    .collect();
    match matches.as_slice() {
        [shape] => Ok(*shape),
        [] => {
            // Re-parse one shape for a representative error message.
            let err = serde_json::from_str::<Vec<Row>>(json).unwrap_err();
            Err(format!("report matches no row shape: {err}"))
        }
        many => Err(format!(
            "report matches {} row shapes (schema drift?)",
            many.len()
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_reports_validate() {
        let json = r#"[{"name": "gemm_256_packed", "wall_ms": 1.5, "threads": 1}]"#;
        assert_eq!(validate_report(json), Ok(ReportShape::WallClock(1)));
    }

    #[test]
    fn throughput_reports_validate() {
        let json = r#"[
            {"name": "throughput_d1_serial", "frames": 8, "wall_ms": 10.0,
             "fps": 800.0, "workers": 1},
            {"name": "throughput_d1_batch", "frames": 8, "wall_ms": 6.0,
             "fps": 1333.3, "workers": 2}
        ]"#;
        assert_eq!(validate_report(json), Ok(ReportShape::Throughput(2)));
    }

    #[test]
    fn conv_reports_validate_and_stay_disjoint_from_wall_clock() {
        let rows = vec![ConvRow {
            name: "conv_depth3_implicit".into(),
            wall_ms: 9.8,
            threads: 1,
            peak_ws_bytes: 1_048_576,
        }];
        let json = serde_json::to_string_pretty(&rows).unwrap();
        // The lenient parser also accepts conv rows as plain wall-clock
        // rows; precedence resolves the containment toward Conv.
        assert_eq!(validate_report(&json), Ok(ReportShape::Conv(1)));
        // A plain Row is missing a required ConvRow field, so wall-clock
        // reports still validate as wall-clock.
        let plain = r#"[{"name": "gemm_256_packed", "wall_ms": 1.5, "threads": 1}]"#;
        assert!(serde_json::from_str::<Vec<ConvRow>>(plain).is_err());
        assert_eq!(validate_report(plain), Ok(ReportShape::WallClock(1)));
    }

    #[test]
    fn round_trip_through_serialization() {
        let rows = vec![Row {
            name: "frame_depth3_batched".into(),
            wall_ms: 193.0,
            threads: 1,
        }];
        let json = serde_json::to_string_pretty(&rows).unwrap();
        assert_eq!(validate_report(&json), Ok(ReportShape::WallClock(1)));
    }

    #[test]
    fn fleet_reports_validate() {
        let rows = vec![
            FleetRow {
                name: "fleet_setup_shared_64".into(),
                fleet: 64,
                workers: 1,
                frames: 0,
                wall_ms: 3.0,
                energy_mj: 0.0,
                p50_ms: 0.0,
                p95_ms: 0.0,
                p99_ms: 0.0,
                saturation: 0.0,
                digest: String::new(),
            },
            FleetRow {
                name: "fleet_depth1_64".into(),
                fleet: 64,
                workers: 4,
                frames: 64,
                wall_ms: 5_400.0,
                energy_mj: 14.2,
                p50_ms: 151.0,
                p95_ms: 390.0,
                p99_ms: 460.0,
                saturation: 0.97,
                digest: "a3f09c1e5b77d210".into(),
            },
        ];
        let json = serde_json::to_string_pretty(&rows).unwrap();
        assert_eq!(validate_report(&json), Ok(ReportShape::Fleet(2)));
    }

    #[test]
    fn fleet_shape_is_disjoint_from_the_others() {
        // A fleet row must not parse as a wall-clock or throughput row and
        // vice versa — the three required-field sets stay disjoint.
        let fleet = r#"[{"name": "f", "fleet": 8, "workers": 2, "frames": 8,
            "wall_ms": 1.0, "energy_mj": 0.1, "p50_ms": 1.0, "p95_ms": 2.0,
            "p99_ms": 3.0, "saturation": 0.5, "digest": "00ff"}]"#;
        assert_eq!(validate_report(fleet), Ok(ReportShape::Fleet(1)));
        let throughput = r#"[{"name": "t", "frames": 4, "wall_ms": 1.0,
            "fps": 4000.0, "workers": 2}]"#;
        assert_eq!(validate_report(throughput), Ok(ReportShape::Throughput(1)));
        assert!(serde_json::from_str::<Vec<FleetRow>>(throughput).is_err());
        assert!(serde_json::from_str::<Vec<ThroughputRow>>(fleet).is_err());
    }

    #[test]
    fn malformed_reports_are_rejected() {
        // Empty: parses as both shapes, carries no observations.
        assert!(validate_report("[]").is_err());
        // Not an array.
        assert!(validate_report(r#"{"name": "x"}"#).is_err());
        // Missing field.
        let missing = r#"[{"name": "x", "wall_ms": 1.0}]"#;
        assert!(validate_report(missing).is_err());
        // Mixed shapes in one report.
        let mixed = r#"[
            {"name": "x", "wall_ms": 1.0, "threads": 1},
            {"name": "y", "frames": 4, "wall_ms": 1.0, "fps": 4000.0, "workers": 2}
        ]"#;
        assert!(validate_report(mixed).is_err());
    }
}
