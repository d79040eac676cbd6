//! `redeye` — command-line front end to the simulator.
//!
//! ```text
//! redeye estimate --depth 5 [--snr 40] [--bits 4] [--corner TT] [--json]
//! redeye depths   [--snr 40] [--bits 4]            per-depth sweep table
//! redeye systems                                    the six Fig. 8 scenarios
//! redeye partition --depth 4                        show a GoogLeNet cut
//! redeye modes                                      Table I operation modes
//! ```

use redeye::analog::{
    snr_admissible, DampingConfig, ProcessCorner, SnrDb, SNR_ADMISSIBLE_MAX, SNR_ADMISSIBLE_MIN,
};
use redeye::core::{estimate, Depth, RedEyeConfig};
use redeye::nn::zoo;
use redeye::system::scenario;
use std::process::ExitCode;

/// Minimal flag parser: `--key value` pairs after the subcommand.
struct Args {
    pairs: Vec<(String, String)>,
    flags: Vec<String>,
}

impl Args {
    /// Parses `args` for `command`, which accepts only the flags
    /// `accepted`; any other `--key` is an error that lists them.
    fn parse(command: &str, accepted: &[&str], args: &[String]) -> Result<Self, String> {
        let mut pairs = Vec::new();
        let mut flags = Vec::new();
        let mut iter = args.iter().peekable();
        while let Some(arg) = iter.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return Err(format!("unexpected argument `{arg}` (expected --key)"));
            };
            if !accepted.contains(&key) {
                let list: Vec<String> = accepted.iter().map(|k| format!("--{k}")).collect();
                return Err(match list.as_slice() {
                    [] => format!("`{command}` takes no flags, got `{arg}`"),
                    _ => format!(
                        "unknown flag `{arg}` for `{command}` (accepted: {})",
                        list.join(" ")
                    ),
                });
            }
            match iter.peek() {
                Some(v) if !v.starts_with("--") => {
                    pairs.push((key.to_string(), iter.next().expect("peeked").clone()));
                }
                _ => flags.push(key.to_string()),
            }
        }
        Ok(Args { pairs, flags })
    }

    /// The value given for `--key`, if any; a bare `--key` is an error.
    fn get(&self, key: &str) -> Result<Option<&str>, String> {
        if self.has(key) {
            return Err(format!("--{key} needs a value"));
        }
        Ok(self
            .pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str()))
    }

    fn has(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    fn parse_value<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key)? {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value for --{key}: `{v}`")),
        }
    }
}

fn depth_from(index: u32) -> Result<Depth, String> {
    Depth::ALL
        .get(index.wrapping_sub(1) as usize)
        .copied()
        .ok_or_else(|| format!("--depth must be 1..=5, got {index}"))
}

fn corner_from(name: &str) -> Result<ProcessCorner, String> {
    match name.to_ascii_uppercase().as_str() {
        "TT" => Ok(ProcessCorner::TT),
        "FF" => Ok(ProcessCorner::FF),
        "SS" => Ok(ProcessCorner::SS),
        "FS" => Ok(ProcessCorner::FS),
        "SF" => Ok(ProcessCorner::SF),
        other => Err(format!("unknown corner `{other}` (TT/FF/SS/FS/SF)")),
    }
}

fn config_from(args: &Args) -> Result<RedEyeConfig, String> {
    let snr = SnrDb::new(args.parse_value("snr", 40.0)?);
    if !snr_admissible(snr) {
        return Err(format!(
            "--snr must lie in the damping circuit's admissible [{SNR_ADMISSIBLE_MIN}, {SNR_ADMISSIBLE_MAX}] band, got {} dB",
            snr.db()
        ));
    }
    let bits: u32 = args.parse_value("bits", 4)?;
    if !(1..=10).contains(&bits) {
        return Err(format!("--bits must be 1..=10, got {bits}"));
    }
    let corner = corner_from(args.get("corner")?.unwrap_or("TT"))?;
    Ok(RedEyeConfig {
        snr,
        adc_bits: bits,
        corner,
    })
}

fn cmd_estimate(args: &Args) -> Result<(), String> {
    let depth = depth_from(args.parse_value("depth", 5u32)?)?;
    let config = config_from(args)?;
    let est = estimate::estimate_depth(depth, &config).map_err(|e| e.to_string())?;
    if args.has("json") {
        println!(
            "{{\"depth\":{},\"snr_db\":{},\"adc_bits\":{},\"analog_mj\":{:.6},\"processing_mj\":{:.6},\"quantization_uj\":{:.6},\"controller_mj\":{:.6},\"frame_ms\":{:.3},\"fps\":{:.2},\"readout_bits\":{},\"feature_bytes\":{}}}",
            depth.index(),
            config.snr.db(),
            config.adc_bits,
            est.energy.analog_total().millis(),
            est.energy.processing.millis(),
            est.energy.quantization.micros(),
            est.energy.controller.millis(),
            est.timing.frame_time().millis(),
            est.timing.fps(),
            est.readout_bits,
            est.feature_bytes,
        );
    } else {
        println!(
            "GoogLeNet {depth} @ {} / {}-bit ({:?} corner)",
            config.snr, config.adc_bits, config.corner
        );
        println!(
            "  damping capacitance : {}",
            DampingConfig::from_snr(config.snr).capacitance()
        );
        println!("  processing          : {}", est.energy.processing);
        println!("  pooling             : {}", est.energy.pooling);
        println!("  memory              : {}", est.energy.memory);
        println!("  quantization        : {}", est.energy.quantization);
        println!("  analog total        : {}", est.energy.analog_total());
        println!("  controller          : {}", est.energy.controller);
        println!(
            "  frame time          : {} ({:.1} fps)",
            est.timing.frame_time(),
            est.timing.fps()
        );
        println!(
            "  readout             : {} values, {} bits ({} B)",
            est.readout_values, est.readout_bits, est.feature_bytes
        );
    }
    Ok(())
}

fn cmd_depths(args: &Args) -> Result<(), String> {
    let config = config_from(args)?;
    let rows = estimate::estimate_all_depths(&config).map_err(|e| e.to_string())?;
    println!(
        "{:<8} {:>14} {:>12} {:>10} {:>14}",
        "depth", "analog (mJ)", "frame (ms)", "fps", "payload (kB)"
    );
    for (depth, est) in rows {
        println!(
            "{:<8} {:>14.3} {:>12.1} {:>10.1} {:>14.1}",
            depth.to_string(),
            est.energy.analog_total().millis(),
            est.timing.frame_time().millis(),
            est.timing.fps(),
            est.feature_bytes as f64 / 1e3,
        );
    }
    Ok(())
}

fn cmd_systems(args: &Args) -> Result<(), String> {
    let config = config_from(args)?;
    println!(
        "{:<26} {:>14} {:>12} {:>8}",
        "scenario", "energy (mJ)", "latency", "fps"
    );
    for bar in scenario::fig8(&config).map_err(|e| e.to_string())? {
        println!(
            "{:<26} {:>14.2} {:>11.1}ms {:>8.2}",
            bar.name,
            bar.energy.millis(),
            bar.latency.millis(),
            bar.pipelined_fps
        );
    }
    Ok(())
}

fn cmd_partition(args: &Args) -> Result<(), String> {
    let depth = depth_from(args.parse_value("depth", 5u32)?)?;
    let spec = zoo::googlenet();
    let cut = depth.cut_layer();
    let (Some(prefix), Some(suffix)) = (spec.prefix_through(cut), spec.suffix_after(cut)) else {
        return Err(format!("GoogLeNet has no layer `{cut}`"));
    };
    println!("{depth}: cut after `{cut}`");
    println!(
        "  RedEye prefix ({} layers): {}",
        prefix.layers.len(),
        prefix.layer_names().join(" → ")
    );
    println!(
        "  host suffix  ({} layers): {}",
        suffix.layers.len(),
        suffix.layer_names().join(" → ")
    );
    Ok(())
}

fn cmd_modes(_args: &Args) -> Result<(), String> {
    println!(
        "{:<16} {:>8} {:>12} {:>16}",
        "mode", "SNR", "capacitance", "Depth5 energy"
    );
    for (name, damping) in [
        ("High-efficiency", DampingConfig::high_efficiency()),
        ("Moderate", DampingConfig::moderate()),
        ("High-fidelity", DampingConfig::high_fidelity()),
    ] {
        let config = RedEyeConfig {
            snr: damping.snr(),
            ..RedEyeConfig::default()
        };
        let est = estimate::estimate_depth(Depth::D5, &config).map_err(|e| e.to_string())?;
        println!(
            "{:<16} {:>8} {:>12} {:>16}",
            name,
            damping.snr().to_string(),
            damping.capacitance().to_string(),
            est.energy.analog_total().to_string(),
        );
    }
    Ok(())
}

const USAGE: &str = "\
redeye — analog in-sensor ConvNet simulator (RedEye, ISCA 2016)

USAGE:
    redeye <command> [--key value]...

COMMANDS:
    estimate   per-frame energy/timing for one GoogLeNet depth
               --depth 1..5  --snr 0..100 dB  --bits 1..10  --corner TT|FF|SS|FS|SF  --json
    depths     sweep all five depths at one configuration   --snr  --bits  --corner
    systems    the six system scenarios of Fig. 8             --snr  --bits  --corner
    partition  show the RedEye/host split at a depth         --depth 1..5
    modes      Table I operation modes
";

/// A subcommand: its name, the flags it accepts and its body.
type Command = (
    &'static str,
    &'static [&'static str],
    fn(&Args) -> Result<(), String>,
);

const COMMANDS: [Command; 5] = [
    (
        "estimate",
        &["depth", "snr", "bits", "corner", "json"],
        cmd_estimate,
    ),
    ("depths", &["snr", "bits", "corner"], cmd_depths),
    ("systems", &["snr", "bits", "corner"], cmd_systems),
    ("partition", &["depth"], cmd_partition),
    ("modes", &[], cmd_modes),
];

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match COMMANDS.iter().find(|(name, ..)| name == command) {
        Some((name, accepted, run)) => {
            Args::parse(name, accepted, rest).and_then(|args| run(&args))
        }
        None if ["help", "--help", "-h"].contains(&command.as_str()) => {
            print!("{USAGE}");
            Ok(())
        }
        None => Err(format!("unknown command `{command}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
