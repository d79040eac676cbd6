//! Per-layer noise-plan ablation (§III-C: "developers can specify the SNR
//! for each layer").
//!
//! The paper's evaluation ends up using one global SNR (40 dB), but the
//! architecture supports a per-layer plan. This ablation quantifies what a
//! plan buys on GoogLeNet Depth5: because `conv2` alone carries ~33% of the
//! prefix MACs, relaxing *only* the expensive mid layers (where features
//! are most redundant) reclaims most of a global relaxation's energy while
//! leaving the noise-sensitive first layer at high fidelity.

use redeye_analog::{ProcessCorner, SnrDb};
use redeye_bench::report::{energy, section, table};
use redeye_core::{estimate, Depth, NoisePlan};
use redeye_nn::{summarize, zoo};

fn main() {
    section("§III-C ablation — per-layer noise plans (GoogLeNet Depth5, 4-bit)");
    let summary = summarize(&zoo::googlenet()).expect("GoogLeNet summarizes");
    let cut = Depth::D5.cut_layer();

    let plans: Vec<(&str, NoisePlan)> = vec![
        (
            "uniform 40 dB (paper)",
            NoisePlan::uniform(SnrDb::new(40.0)),
        ),
        ("uniform 50 dB", NoisePlan::uniform(SnrDb::new(50.0))),
        (
            "front@50, rest@40",
            NoisePlan::uniform(SnrDb::new(40.0))
                .with_layer("conv1", SnrDb::new(50.0))
                .with_layer("conv2_reduce", SnrDb::new(50.0))
                .with_layer("conv2", SnrDb::new(50.0)),
        ),
        (
            "front@50, inceptions@34",
            NoisePlan::uniform(SnrDb::new(34.0))
                .with_layer("conv1", SnrDb::new(50.0))
                .with_layer("conv2_reduce", SnrDb::new(50.0))
                .with_layer("conv2", SnrDb::new(50.0)),
        ),
        (
            "conv1-only@50, rest@40",
            NoisePlan::uniform(SnrDb::new(40.0)).with_layer("conv1", SnrDb::new(50.0)),
        ),
    ];

    let mut rows = Vec::new();
    for (name, plan) in &plans {
        let est = estimate::estimate_prefix(&summary, cut, plan, 4, ProcessCorner::TT)
            .expect("plan estimates");
        rows.push(vec![
            name.to_string(),
            energy(est.energy.processing),
            energy(est.energy.analog_total()),
            format!("{:.1}", est.timing.fps()),
        ]);
    }
    table(&["plan", "processing", "analog total", "fps"], &rows);
    println!(
        "protecting only the front layers costs a fraction of a uniform upgrade: the \
         per-layer mechanism is what makes the §VII low-light mode affordable."
    );
}
