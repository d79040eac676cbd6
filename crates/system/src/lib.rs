//! System-level baselines and end-to-end energy models (paper §V-B).
//!
//! RedEye's evaluation compares the sensor against a conventional CMOS image
//! sensor and places both inside three system contexts: cloudlet offload
//! over Bluetooth Low Energy, local execution on an NVIDIA Jetson TK1
//! (CPU or GPU), and a ShiDianNao-style digital accelerator. This crate
//! models each of those, calibrated to the paper's published anchors:
//!
//! - [`ImageSensor`] — 227×227 color, 10-bit readout, 1.1 mJ/frame analog;
//! - [`BleLink`] — 129.42 mJ / 1.54 s per raw frame (Siekkinen et al.);
//! - [`JetsonHost`] — GPU 12.2 W / 33 ms and CPU 3.1 W / 545 ms full
//!   GoogLeNet, with a two-parameter (throughput + per-layer overhead) time
//!   model fitted so the paper's with-RedEye times (18.6 ms / 297 ms) are
//!   reproduced exactly;
//! - [`ShiDianNao`] — 144 instances of a 64×30 patch at stride 16, 2.18 mJ
//!   per 227×227 frame;
//! - [`scenario`] — the six Fig. 8 bars and the §V-B headline reductions;
//! - [`Cloudlet`] — a deterministic single-server FIFO queue over
//!   [`BleLink`] ingress and [`JetsonHost`] service times, reporting
//!   population tail latency (p50/p95/p99) and saturation for fleet-scale
//!   offload.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ble;
mod cloudlet;
mod image_sensor;
mod jetson;
pub mod scenario;
mod shidiannao;

pub use ble::BleLink;
pub use cloudlet::{Cloudlet, CloudletReport, LatencyPercentiles};
pub use image_sensor::ImageSensor;
pub use jetson::{HostMeasurement, JetsonHost, JetsonKind};
pub use shidiannao::ShiDianNao;
