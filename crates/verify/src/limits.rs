//! Hardware resource envelopes the static passes check against.
//!
//! The defaults are the paper's design point (§V-D): "RedEye requires
//! 100-kB memory to store features and 9-kB for kernels, which fit within
//! the 128-kB on-chip SRAM", over a 227-column sensor array. These are the
//! only copies of the budgets; the RE0401/RE0402 checks enforce them on
//! every program. Callers with a different floorplan (e.g. the stacked-die
//! exploration) can substitute their own limits.

use redeye_analog::calib::COLUMN_COUNT;

/// Total on-chip SRAM (bytes).
pub const TOTAL_SRAM_BYTES: usize = 128 * 1024;

/// Feature SRAM capacity (bytes).
pub const FEATURE_SRAM_BYTES: usize = 100 * 1024;

/// Kernel (program) SRAM capacity (bytes).
pub const KERNEL_SRAM_BYTES: usize = 9 * 1024;

/// Resource limits of one RedEye floorplan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceLimits {
    /// Kernel (program) SRAM capacity in bytes (paper: 9 kB).
    pub kernel_sram_bytes: usize,
    /// Feature SRAM capacity in bytes (paper: 100 kB).
    pub feature_sram_bytes: usize,
    /// Physical column slices in the array (paper: 227).
    pub columns: usize,
}

impl Default for ResourceLimits {
    fn default() -> Self {
        ResourceLimits {
            kernel_sram_bytes: KERNEL_SRAM_BYTES,
            feature_sram_bytes: FEATURE_SRAM_BYTES,
            columns: COLUMN_COUNT,
        }
    }
}

impl ResourceLimits {
    /// Bytes needed to hold `values` features at `bits` each, bit-packed —
    /// the feature-SRAM accounting rule.
    pub fn feature_bytes_needed(values: u64, bits: u32) -> usize {
        ((values * u64::from(bits)).div_ceil(8)) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_the_paper_floorplan() {
        let l = ResourceLimits::default();
        assert_eq!(l.kernel_sram_bytes, 9 * 1024);
        assert_eq!(l.feature_sram_bytes, 100 * 1024);
        assert_eq!(l.columns, 227);
    }

    #[test]
    fn budgets_fit_total() {
        let (f, k, t) = (FEATURE_SRAM_BYTES, KERNEL_SRAM_BYTES, TOTAL_SRAM_BYTES);
        assert!(f + k <= t);
    }

    #[test]
    fn feature_accounting_bit_packs() {
        assert_eq!(ResourceLimits::feature_bytes_needed(100_352, 4), 50_176);
        assert_eq!(ResourceLimits::feature_bytes_needed(3, 3), 2);
        assert_eq!(ResourceLimits::feature_bytes_needed(0, 4), 0);
    }
}
