//! Column-array utilization ablation (§III-B-3).
//!
//! The paper's column-parallel topology advances one row per timestep; how
//! a layer's work maps onto the 227 column slices decides utilization. This
//! study compares the naïve spatial mapping (one output x position per
//! column) against channel spreading over the horizontal interconnects, per
//! GoogLeNet depth — showing why the bridged column design is what makes
//! the deep cuts meet 30 fps.

use redeye_bench::report::{section, table, time};
use redeye_core::rowsim::{simulate_rows, ColumnMapping};
use redeye_core::{compile, CompileOptions, Depth, WeightBank};
use redeye_nn::{build_network, zoo, WeightInit};
use redeye_tensor::Rng;

fn main() {
    section("§III-B ablation — column mapping & array utilization");
    let spec = zoo::googlenet();
    let mut rows = Vec::new();
    for depth in Depth::ALL {
        let prefix = spec
            .prefix_through(depth.cut_layer())
            .expect("GoogLeNet cuts");
        let mut rng = Rng::seed_from(1);
        let mut net =
            build_network(&prefix, WeightInit::HeNormal, &mut rng).expect("prefix builds");
        let mut bank = WeightBank::from_network(&mut net);
        let program = compile(&prefix, &mut bank, &CompileOptions::default()).expect("compiles");
        let spatial = simulate_rows(&program, ColumnMapping::Spatial).expect("simulates");
        let spread = simulate_rows(&program, ColumnMapping::ChannelSpread).expect("simulates");
        rows.push(vec![
            depth.to_string(),
            time(spatial.frame_time()),
            format!("{:.0}%", spatial.utilization() * 100.0),
            time(spread.frame_time()),
            format!("{:.0}%", spread.utilization() * 100.0),
            format!(
                "{:.1}x",
                spatial.frame_time().value() / spread.frame_time().value()
            ),
        ]);
    }
    table(
        &[
            "depth",
            "spatial time",
            "spatial util",
            "spread time",
            "spread util",
            "speedup",
        ],
        &rows,
    );
    println!(
        "channel spreading over the 23 horizontal interconnects per column is what keeps \
         the 14-wide inception planes from idling 94% of the array; without it Depth5 \
         misses the paper's 32 ms frame budget."
    );
}
