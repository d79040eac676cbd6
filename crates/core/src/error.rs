//! Error type for the RedEye architecture crate.

use redeye_analog::AnalogError;
use redeye_nn::NnError;
use redeye_tensor::TensorError;
use std::fmt;

/// Error returned by compilation, execution, and estimation.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// An underlying tensor operation failed.
    Tensor(TensorError),
    /// An underlying network operation failed.
    Nn(NnError),
    /// An underlying analog model rejected its configuration.
    Analog(AnalogError),
    /// The network prefix contains a layer RedEye cannot execute in the
    /// analog domain (fully-connected, dropout, softmax, …).
    NotAnalogExecutable {
        /// Name of the offending layer.
        layer: String,
    },
    /// A quantized weight code falls outside the tunable-capacitor DAC's
    /// signed fixed-point range (§IV-A). Codes are applied directly by the
    /// capacitor bank, so an out-of-range code has no hardware realization.
    CodeOutOfRange {
        /// Layer whose kernel produced the code.
        layer: String,
        /// The offending code.
        code: i32,
        /// DAC resolution in bits.
        bits: u32,
    },
    /// Static verification of the compiled program found errors (or, under
    /// [`crate::VerifyPolicy::DenyWarnings`], warnings). The full report is
    /// attached.
    Verify(redeye_verify::Report),
    /// Compilation ran out of weights, or found weights of the wrong shape.
    WeightMismatch {
        /// Layer being compiled.
        layer: String,
        /// Description of the mismatch.
        reason: String,
    },
    /// An execution-time structural failure (program/input inconsistency).
    BadProgram {
        /// Description of the inconsistency.
        reason: String,
    },
    /// A scheduler task panicked. The panic was contained: the worker
    /// rebuilt its scratch state and went on with the remaining tasks.
    WorkerPanic {
        /// Submission index of the task that panicked.
        task: usize,
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Tensor(e) => write!(f, "tensor error: {e}"),
            CoreError::Nn(e) => write!(f, "network error: {e}"),
            CoreError::Analog(e) => write!(f, "analog model error: {e}"),
            CoreError::NotAnalogExecutable { layer } => {
                write!(f, "layer `{layer}` cannot execute in the analog domain")
            }
            CoreError::CodeOutOfRange { layer, code, bits } => {
                let limit = (1i32 << (bits - 1)) - 1;
                write!(
                    f,
                    "weight code {code} at `{layer}` is outside the {bits}-bit DAC range \
                     [-{limit}, {limit}]"
                )
            }
            CoreError::Verify(report) => {
                write!(
                    f,
                    "program `{}` failed verification: {} error(s), {} warning(s)",
                    report.program,
                    report.count(redeye_verify::Severity::Error),
                    report.count(redeye_verify::Severity::Warning)
                )
            }
            CoreError::WeightMismatch { layer, reason } => {
                write!(f, "weight mismatch at `{layer}`: {reason}")
            }
            CoreError::BadProgram { reason } => write!(f, "bad program: {reason}"),
            CoreError::WorkerPanic { task, message } => {
                write!(f, "task {task} panicked: {message}")
            }
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Tensor(e) => Some(e),
            CoreError::Nn(e) => Some(e),
            CoreError::Analog(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for CoreError {
    fn from(e: TensorError) -> Self {
        CoreError::Tensor(e)
    }
}

impl From<NnError> for CoreError {
    fn from(e: NnError) -> Self {
        CoreError::Nn(e)
    }
}

impl From<AnalogError> for CoreError {
    fn from(e: AnalogError) -> Self {
        CoreError::Analog(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_out_of_range_names_the_dac_envelope() {
        let e = CoreError::CodeOutOfRange {
            layer: "conv1".into(),
            code: 999,
            bits: 8,
        };
        assert_eq!(
            e.to_string(),
            "weight code 999 at `conv1` is outside the 8-bit DAC range [-127, 127]"
        );
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }

    #[test]
    fn sources_are_chained() {
        use std::error::Error as _;
        let e = CoreError::from(TensorError::Empty);
        assert!(e.source().is_some());
    }
}
