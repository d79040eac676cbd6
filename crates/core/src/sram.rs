//! On-chip SRAM budgets (§V-D).
//!
//! "RedEye requires 100-kB memory to store features and 9-kB for kernels,
//! which fit within the 128-kB on-chip SRAM."

use crate::{CoreError, Program, Result};

/// Total on-chip SRAM (bytes).
pub const TOTAL_SRAM_BYTES: usize = 128 * 1024;

/// Feature SRAM capacity (bytes).
pub const FEATURE_SRAM_BYTES: usize = 100 * 1024;

/// Kernel (program) SRAM capacity (bytes).
pub const KERNEL_SRAM_BYTES: usize = 9 * 1024;

/// The program SRAM: holds the instruction stream's kernel working set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgramSram {
    capacity: usize,
}

impl ProgramSram {
    /// Creates the paper's 9-kB kernel store.
    pub fn new() -> Self {
        ProgramSram {
            capacity: KERNEL_SRAM_BYTES,
        }
    }

    /// Creates a kernel store with an explicit capacity (design-space
    /// exploration away from the paper's 9 kB).
    pub fn with_capacity(capacity: usize) -> Self {
        ProgramSram { capacity }
    }

    /// Verifies that a program's kernel *working set* (the weights resident
    /// while streaming, not the whole network) fits.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::SramOverflow`] if it does not fit.
    pub fn check(&self, program: &Program) -> Result<usize> {
        let required = program.kernel_working_set_bytes();
        if required > self.capacity {
            return Err(CoreError::SramOverflow {
                which: "program",
                required,
                capacity: self.capacity,
            });
        }
        Ok(required)
    }
}

impl Default for ProgramSram {
    fn default() -> Self {
        ProgramSram::new()
    }
}

/// The feature SRAM: holds the quantized output features awaiting host
/// retrieval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeatureSram {
    capacity: usize,
}

impl FeatureSram {
    /// Creates the paper's 100-kB feature store.
    pub fn new() -> Self {
        FeatureSram {
            capacity: FEATURE_SRAM_BYTES,
        }
    }

    /// Creates a feature store with an explicit capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        FeatureSram { capacity }
    }

    /// Bytes needed to hold `values` features at `bits` each (bit-packed).
    pub fn bytes_needed(values: u64, bits: u32) -> usize {
        ((values * u64::from(bits)).div_ceil(8)) as usize
    }

    /// Verifies a feature payload fits.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::SramOverflow`] if it does not fit.
    pub fn check(&self, values: u64, bits: u32) -> Result<usize> {
        let required = Self::bytes_needed(values, bits);
        if required > self.capacity {
            return Err(CoreError::SramOverflow {
                which: "feature",
                required,
                capacity: self.capacity,
            });
        }
        Ok(required)
    }
}

impl Default for FeatureSram {
    fn default() -> Self {
        FeatureSram::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Instruction;

    #[test]
    fn budgets_fit_total() {
        let (f, k, t) = (FEATURE_SRAM_BYTES, KERNEL_SRAM_BYTES, TOTAL_SRAM_BYTES);
        assert!(f + k <= t);
    }

    #[test]
    fn feature_bytes_bit_packed() {
        // 100,352 values (Depth5 output) at 4 bits = 50,176 B — fits easily.
        assert_eq!(FeatureSram::bytes_needed(100_352, 4), 50_176);
        assert!(FeatureSram::new().check(100_352, 4).is_ok());
        // At 10 bits = 125,440 B — would overflow the feature store.
        assert!(FeatureSram::new().check(100_352, 10).is_err());
    }

    #[test]
    fn odd_bit_counts_round_up() {
        assert_eq!(FeatureSram::bytes_needed(3, 3), 2);
        assert_eq!(FeatureSram::bytes_needed(0, 4), 0);
    }

    #[test]
    fn program_sram_accounts_working_set_round_trip() {
        use redeye_analog::SnrDb;
        // 4 output channels of 27-code patches: working set is one channel
        // double-buffered = 54 B.
        let conv = Instruction::Conv {
            name: "c".into(),
            out_c: 4,
            kernel: 3,
            stride: 1,
            pad: 1,
            relu: true,
            codes: vec![0; 4 * 27],
            scale: 1.0,
            bias: vec![0.0; 4],
            snr: SnrDb::new(40.0),
        };
        let p = Program::new("t", [3, 8, 8], vec![conv], 4);
        assert_eq!(p.kernel_working_set_bytes(), 54);
        // Exactly-fitting capacity round-trips the requirement...
        let sram = ProgramSram::with_capacity(54);
        assert_eq!(sram.check(&p).unwrap(), 54);
        // ...and one byte less is rejected with the exact accounting.
        let err = ProgramSram::with_capacity(53).check(&p).unwrap_err();
        match err {
            CoreError::SramOverflow {
                which,
                required,
                capacity,
            } => {
                assert_eq!(which, "program");
                assert_eq!(required, 54);
                assert_eq!(capacity, 53);
            }
            other => panic!("expected SramOverflow, got {other:?}"),
        }
    }

    #[test]
    fn feature_sram_capacity_is_respected() {
        let sram = FeatureSram::with_capacity(100);
        // 200 values at 4 bits = 100 B: fits exactly.
        assert_eq!(sram.check(200, 4).unwrap(), 100);
        // One more value tips it over.
        assert!(matches!(
            sram.check(201, 4),
            Err(CoreError::SramOverflow {
                which: "feature",
                ..
            })
        ));
    }
}
