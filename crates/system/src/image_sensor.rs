//! The conventional CMOS image-sensor baseline (§V-B).
//!
//! "To model quantization overhead, we model a 10-bit 227×227 color image
//! sensor, sampling at 30 fps. Using a recent survey to reference
//! state-of-the-art ADC energy consumption, we conservatively estimate the
//! analog portion of the image sensor to consume 1.1 mJ per frame."

use redeye_analog::{Joules, Seconds};
use serde::{Deserialize, Serialize};

/// A conventional column-readout CMOS image sensor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ImageSensor {
    /// Square frame side in pixels.
    pub side: usize,
    /// Color samples per pixel site (3 for the paper's color model).
    pub channels: usize,
    /// Readout bit depth.
    pub bits: u32,
    /// Frame rate the readout is provisioned for.
    pub fps: f64,
    /// Analog energy per frame (column amps + ADCs), the calibrated anchor.
    analog_energy_per_frame: Joules,
}

impl ImageSensor {
    /// The paper's baseline: 227×227 color at 10 bits, 30 fps, 1.1 mJ/frame.
    pub fn paper_baseline() -> Self {
        ImageSensor {
            side: 227,
            channels: 3,
            bits: 10,
            fps: 30.0,
            analog_energy_per_frame: Joules::from_milli(1.1),
        }
    }

    /// Samples read out per frame.
    fn samples_per_frame(&self) -> u64 {
        (self.side * self.side * self.channels) as u64
    }

    /// Bits produced per frame.
    pub fn bits_per_frame(&self) -> u64 {
        self.samples_per_frame() * u64::from(self.bits)
    }

    /// Analog readout energy per frame.
    pub fn analog_energy_per_frame(&self) -> Joules {
        self.analog_energy_per_frame
    }

    /// Frame period at the provisioned rate.
    pub fn frame_time(&self) -> Seconds {
        Seconds::new(1.0 / self.fps)
    }
}

impl Default for ImageSensor {
    fn default() -> Self {
        ImageSensor::paper_baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_anchor_values() {
        let is = ImageSensor::paper_baseline();
        assert_eq!(is.samples_per_frame(), 227 * 227 * 3);
        assert_eq!(is.bits_per_frame(), 227 * 227 * 3 * 10);
        assert!((is.analog_energy_per_frame().millis() - 1.1).abs() < 1e-12);
        assert!((is.frame_time().millis() - 33.33).abs() < 0.1);
    }

    #[test]
    fn frame_payload_is_193_kb() {
        // The Fig. 7c raw-frame payload the BLE model transmits.
        let bytes = ImageSensor::paper_baseline().bits_per_frame().div_ceil(8);
        assert!((190_000..196_000).contains(&bytes), "{bytes}");
    }
}
