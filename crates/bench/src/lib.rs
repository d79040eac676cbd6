//! Benchmark harness: regenerates every table and figure of the RedEye
//! paper's evaluation (§V).
//!
//! Each `src/bin/*.rs` binary reproduces one artifact and prints
//! paper-vs-measured rows:
//!
//! | Binary | Artifact |
//! |---|---|
//! | `fig6` | GoogLeNet partition depths |
//! | `fig7` | energy / timing / readout workload per depth vs image sensor |
//! | `fig8` | per-frame system energy on Jetson CPU/GPU/cloudlet ± RedEye |
//! | `fig9` | accuracy & energy vs Gaussian SNR |
//! | `fig10` | accuracy & energy vs ADC resolution |
//! | `table1` | operation modes (40/50/60 dB) |
//! | `headline` | §V-B sensor reduction, ShiDianNao, area (§V-D) |
//! | `ablation` | charge-sharing tunable capacitor vs naïve DAC |
//! | `alexnet` | AlexNet partition sweep ("similar findings") |
//! | `lowlight` | §VII situational noise scaling |
//! | `noise_plan` | §III-C per-layer SNR plans |
//! | `noise_aware` | §VII noise-aware fine-tuning |
//! | `privacy` | §VII feature-inversion irreversibility |
//! | `utilization` | §III-B column-mapping ablation |
//! | `all_experiments` | the paper artifacts above, in order |
//!
//! The simulator's own host time is measured by two binaries, `perf` and
//! `redeye-fleet`. Both write `BENCH_*.json` reports of `{name, value,
//! unit}` records through [`schema::write_report`], and `validate_bench`
//! checks reports against that one shape.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod report;
pub mod schema;
pub mod workload;
