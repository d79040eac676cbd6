//! Golden-snapshot tests: one checked-in rendering per diagnostic code.
//!
//! Every case builds the smallest program that triggers one code
//! (RE0101–RE0704), asserts the code is present, and compares the full
//! normalized [`Report::render`] output against the checked-in snapshot in
//! `tests/goldens/<case>.txt`. Because [`Report::normalize`] sorts and
//! dedups before rendering, the snapshots are byte-deterministic.
//!
//! To regenerate the snapshots after an intentional wording or ordering
//! change:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test -p redeye-verify --test golden
//! ```
//!
//! then review the diff under `crates/verify/tests/goldens/` and commit it.
//! A missing snapshot fails with the same instruction. Std-only: no
//! snapshot-testing dependency is involved.

use redeye_analog::{Joules, Seconds, SnrDb};
use redeye_nn::{LayerSpec, NetworkSpec};
use redeye_verify::{
    analyze_cost, verify, verify_against_spec, verify_with_options, CostBudget, Instruction,
    Program, Report, ResourceLimits, VerifyOptions,
};
use std::fs;
use std::path::PathBuf;

fn golden_path(case: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(format!("{case}.txt"))
}

/// Asserts the trigger code fired, then snapshot-compares the rendering.
fn check(case: &str, code: &str, report: &Report) {
    assert!(
        report.diagnostics.iter().any(|d| d.code == code),
        "case {case}: expected {code} to fire:\n{}",
        report.render()
    );
    let rendered = report.render();
    let path = golden_path(case);
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, &rendered).unwrap();
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!("missing golden {path:?}; regenerate with UPDATE_GOLDENS=1 (see module docs)")
    });
    assert_eq!(
        rendered, expected,
        "case {case}: rendering drifted from {path:?}; if intentional, \
         regenerate with UPDATE_GOLDENS=1 and commit the diff"
    );
}

/// A well-formed conv: unit codes, 1/128 scale, zero bias.
fn conv(
    name: &str,
    in_c: usize,
    out_c: usize,
    kernel: usize,
    pad: usize,
    relu: bool,
) -> Instruction {
    Instruction::Conv {
        name: name.into(),
        out_c,
        kernel,
        stride: 1,
        pad,
        relu,
        codes: vec![1; out_c * in_c * kernel * kernel],
        scale: 1.0 / 128.0,
        bias: vec![0.0; out_c],
        snr: SnrDb::new(50.0),
    }
}

fn maxpool(name: &str, window: usize, stride: usize) -> Instruction {
    Instruction::MaxPool {
        name: name.into(),
        window,
        stride,
        pad: 0,
    }
}

/// Mutates the first (top-level) conv of the program.
fn with_conv(mut program: Program, f: impl FnOnce(&mut Instruction)) -> Program {
    let inst = program
        .instructions
        .iter_mut()
        .find(|i| matches!(i, Instruction::Conv { .. }))
        .expect("program has a conv");
    f(inst);
    program
}

/// The minimal clean program the RE02xx/RE06xx/RE07xx cases mutate.
fn base(name: &str) -> Program {
    Program::new(name, [3, 8, 8], vec![conv("conv1", 3, 4, 3, 1, true)], 4)
}

fn budget_report(name: &str, budget: CostBudget) -> Report {
    verify_with_options(
        &base(name),
        &VerifyOptions {
            budget,
            ..VerifyOptions::default()
        },
    )
}

/// The spec that `base` implements, for the conformance (RE05xx) cases.
fn base_spec(layers: Vec<LayerSpec>) -> NetworkSpec {
    NetworkSpec::new("base-spec", [3, 8, 8], layers)
}

fn spec_conv(name: &str, kernel: usize) -> LayerSpec {
    LayerSpec::Conv {
        name: name.into(),
        out_c: 4,
        kernel,
        stride: 1,
        pad: 1,
        relu: true,
    }
}

macro_rules! golden_case {
    ($case:ident, $code:literal, $build:expr) => {
        #[test]
        fn $case() {
            let report = $build;
            check(stringify!($case), $code, &report);
        }
    };
}

// ---- RE01xx: shape dataflow ------------------------------------------------

golden_case!(re0101, "RE0101", {
    verify(&Program::new(
        "re0101",
        [1, 3, 3],
        vec![conv("conv1", 1, 1, 5, 0, true)],
        4,
    ))
});

golden_case!(re0102, "RE0102", {
    verify(&Program::new(
        "re0102",
        [3, 8, 8],
        vec![Instruction::Conv {
            name: "conv1".into(),
            out_c: 0,
            kernel: 3,
            stride: 1,
            pad: 1,
            relu: true,
            codes: vec![],
            scale: 1.0 / 128.0,
            bias: vec![],
            snr: SnrDb::new(50.0),
        }],
        4,
    ))
});

golden_case!(re0103, "RE0103", {
    verify(&Program::new(
        "re0103",
        [1, 8, 8],
        vec![Instruction::Inception {
            name: "mixed".into(),
            branches: vec![
                vec![conv("b0_conv", 1, 2, 1, 0, true)],
                vec![maxpool("b1_pool", 2, 2)],
            ],
        }],
        4,
    ))
});

golden_case!(re0104, "RE0104", {
    verify(&Program::new(
        "re0104",
        [1, 8, 8],
        vec![Instruction::Inception {
            name: "hollow".into(),
            branches: vec![],
        }],
        4,
    ))
});

golden_case!(re0105, "RE0105", {
    verify(&Program::new(
        "re0105",
        [1, 3, 3],
        vec![conv("conv1", 1, 1, 5, 0, true), maxpool("pool1", 2, 2)],
        4,
    ))
});

golden_case!(re0106, "RE0106", {
    verify(&Program::new(
        "re0106",
        [3, 4, 300],
        vec![maxpool("pool1", 2, 2)],
        4,
    ))
});

golden_case!(re0107, "RE0107", {
    verify(&Program::new("re0107", [0, 8, 8], vec![], 4))
});

// ---- RE02xx: DAC/code range ------------------------------------------------

golden_case!(re0201, "RE0201", {
    verify(&with_conv(base("re0201"), |inst| {
        if let Instruction::Conv { codes, .. } = inst {
            codes[0] = 999;
        }
    }))
});

golden_case!(re0202, "RE0202", {
    verify(&with_conv(base("re0202"), |inst| {
        if let Instruction::Conv { codes, .. } = inst {
            codes.push(1);
        }
    }))
});

golden_case!(re0203, "RE0203", {
    verify(&with_conv(base("re0203"), |inst| {
        if let Instruction::Conv { bias, .. } = inst {
            bias.pop();
        }
    }))
});

golden_case!(re0204, "RE0204", {
    verify(&with_conv(base("re0204"), |inst| {
        if let Instruction::Conv { scale, .. } = inst {
            *scale = f32::NAN;
        }
    }))
});

// ---- RE03xx: noise admission -----------------------------------------------

golden_case!(re0301, "RE0301", {
    verify(&with_conv(base("re0301"), |inst| {
        if let Instruction::Conv { snr, .. } = inst {
            *snr = SnrDb::new(150.0);
        }
    }))
});

golden_case!(re0302, "RE0302", {
    let mut program = with_conv(base("re0302"), |inst| {
        if let Instruction::Conv { snr, .. } = inst {
            *snr = SnrDb::new(25.0);
        }
    });
    // 2-bit readout keeps the quantization SNR below the RE0305 threshold.
    program.adc_bits = 2;
    verify(&program)
});

golden_case!(re0303, "RE0303", {
    verify(&Program::new(
        "re0303",
        [3, 8, 8],
        vec![
            with_snr(conv("conv1", 3, 2, 3, 1, true), 42.0),
            with_snr(conv("conv2", 2, 2, 3, 1, true), 58.0),
        ],
        4,
    ))
});

golden_case!(re0304, "RE0304", {
    let mut program = base("re0304");
    program.adc_bits = 14;
    verify(&program)
});

golden_case!(re0305, "RE0305", {
    let mut program = with_conv(base("re0305"), |inst| {
        if let Instruction::Conv { snr, .. } = inst {
            *snr = SnrDb::new(40.0);
        }
    });
    program.adc_bits = 10;
    verify(&program)
});

// ---- RE04xx: resource budget -----------------------------------------------

golden_case!(re0401, "RE0401", {
    verify(&Program::new(
        "re0401",
        [3, 64, 64],
        vec![conv("conv1", 3, 1, 40, 20, true)],
        4,
    ))
});

golden_case!(re0402, "RE0402", {
    verify(&Program::new("re0402", [3, 200, 200], vec![], 10))
});

golden_case!(re0403, "RE0403", {
    verify(&Program::new(
        "re0403",
        [3, 8, 8],
        vec![maxpool("pool", 2, 2), maxpool("pool", 2, 2)],
        4,
    ))
});

golden_case!(re0404, "RE0404", {
    verify(&Program::new(
        "re0404",
        [3, 8, 8],
        vec![maxpool("pool1", 1, 1)],
        4,
    ))
});

golden_case!(re0405, "RE0405", {
    verify(&Program::new("re0405", [3, 16, 16], vec![], 4))
});

// ---- RE05xx: spec conformance ----------------------------------------------

golden_case!(re0501, "RE0501", {
    verify_against_spec(
        &base("re0501"),
        &base_spec(vec![
            spec_conv("conv1", 3),
            LayerSpec::MaxPool {
                name: "pool1".into(),
                window: 2,
                stride: 2,
                pad: 0,
            },
        ]),
        &ResourceLimits::default(),
    )
});

golden_case!(re0502, "RE0502", {
    verify_against_spec(
        &base("re0502"),
        &base_spec(vec![spec_conv("conv1_renamed", 3)]),
        &ResourceLimits::default(),
    )
});

golden_case!(re0503, "RE0503", {
    verify_against_spec(
        &base("re0503"),
        &base_spec(vec![spec_conv("conv1", 5)]),
        &ResourceLimits::default(),
    )
});

golden_case!(re0504, "RE0504", {
    let spec = NetworkSpec::new("base-spec", [3, 16, 16], vec![spec_conv("conv1", 3)]);
    verify_against_spec(&base("re0504"), &spec, &ResourceLimits::default())
});

// ---- RE06xx: signal range --------------------------------------------------

golden_case!(re0601, "RE0601", {
    verify(&with_conv(base("re0601"), |inst| {
        if let Instruction::Conv { bias, .. } = inst {
            bias.fill(-100.0);
        }
    }))
});

golden_case!(re0602, "RE0602", {
    verify(&with_conv(base("re0602"), |inst| {
        if let Instruction::Conv {
            relu, codes, bias, ..
        } = inst
        {
            *relu = false;
            codes.fill(-80);
            bias.fill(-1.0);
        }
    }))
});

golden_case!(re0603, "RE0603", {
    verify(&with_conv(base("re0603"), |inst| {
        if let Instruction::Conv { relu, codes, .. } = inst {
            *relu = false;
            for (i, c) in codes.iter_mut().enumerate() {
                *c = if i % 2 == 0 { 80 } else { -80 };
            }
        }
    }))
});

golden_case!(re0604, "RE0604", {
    let mut program = base("re0604");
    program.instructions.push(Instruction::AvgPool {
        name: "avg1".into(),
        window: 2,
        stride: 2,
        pad: 0,
        snr: SnrDb::new(50.0),
    });
    verify(&program)
});

golden_case!(re0605, "RE0605", {
    verify(&with_conv(base("re0605"), |inst| {
        if let Instruction::Conv { codes, .. } = inst {
            codes.fill(0);
        }
    }))
});

golden_case!(re0606, "RE0606", {
    let mut program = with_conv(base("re0606"), |inst| {
        if let Instruction::Conv { snr, .. } = inst {
            *snr = SnrDb::new(0.0);
        }
    });
    // 1-bit readout keeps RE0305 out of this snapshot.
    program.adc_bits = 1;
    verify(&program)
});

golden_case!(re0607, "RE0607", {
    let mut program = base("re0607");
    program.instructions.push(Instruction::Lrn {
        name: "norm1".into(),
        size: 5,
        alpha: 1e-4,
        beta: 0.75,
        k: 0.0,
        snr: SnrDb::new(50.0),
    });
    verify(&program)
});

golden_case!(re0608, "RE0608", {
    verify(&with_conv(base("re0608"), |inst| {
        if let Instruction::Conv { scale, .. } = inst {
            *scale = 1e18;
        }
    }))
});

// ---- RE07xx: static cost model ---------------------------------------------

golden_case!(re0701, "RE0701", {
    budget_report(
        "re0701",
        CostBudget {
            max_frame_energy: Some(Joules::new(1e-12)),
            max_frame_time: None,
        },
    )
});

golden_case!(re0702, "RE0702", {
    let bounds = analyze_cost(&base("re0702")).expect("cost derivable");
    let mid = (bounds.nominal.energy.value() + bounds.upper.energy.value()) / 2.0;
    budget_report(
        "re0702",
        CostBudget {
            max_frame_energy: Some(Joules::new(mid)),
            max_frame_time: None,
        },
    )
});

golden_case!(re0703, "RE0703", {
    budget_report(
        "re0703",
        CostBudget {
            max_frame_energy: None,
            max_frame_time: Some(Seconds::new(1e-15)),
        },
    )
});

golden_case!(re0704, "RE0704", {
    let bounds = analyze_cost(&base("re0704")).expect("cost derivable");
    let mid = (bounds.nominal.time.value() + bounds.upper.time.value()) / 2.0;
    budget_report(
        "re0704",
        CostBudget {
            max_frame_energy: None,
            max_frame_time: Some(Seconds::new(mid)),
        },
    )
});

fn with_snr(mut inst: Instruction, db: f64) -> Instruction {
    if let Instruction::Conv { snr, .. } = &mut inst {
        *snr = SnrDb::new(db);
    }
    inst
}
