//! The paper's two injected noise layer types (§III-D).

use redeye_analog::SnrDb;
use redeye_nn::Layer;
use redeye_tensor::{NoiseStream, Tensor};

/// The *Gaussian Noise Layer*: "models noise inflicted by data transactions
/// and computational operations", parameterized by SNR relative to the
/// layer's signal power.
///
/// Its noise is keyed as the analog executor keys a layer-noise stage:
/// frame `f` draws from `root.frame_substream(f).substream(ordinal)`
/// through [`NoiseStream::add_scaled_normal`], site `i` being output
/// element `i`. [`instrument`](crate::instrument) numbers a network's noise
/// layers in DFS order. Each `forward` moves on one frame, and
/// [`Layer::seek_frame`] sets the frame, so the noise an input receives
/// depends only on `(root, frame, ordinal)`, never on which network
/// instance or thread runs it.
///
/// Implements [`redeye_nn::Layer`], so it splices into any network. During
/// backpropagation it is treated as identity (noise is not differentiated
/// through), which also enables noise-aware training experiments.
#[derive(Debug)]
pub struct GaussianNoise {
    name: String,
    snr: SnrDb,
    root: NoiseStream,
    ordinal: u64,
    /// The frame the next `forward` draws.
    frame: u64,
}

impl GaussianNoise {
    /// Creates a noise layer at the given SNR, drawing noise stage
    /// `ordinal` of `root`'s frames, starting at frame 0.
    pub fn new(name: impl Into<String>, snr: SnrDb, root: NoiseStream, ordinal: u64) -> Self {
        GaussianNoise {
            name: name.into(),
            snr,
            root,
            ordinal,
            frame: 0,
        }
    }

    /// The configured SNR.
    pub fn snr(&self) -> SnrDb {
        self.snr
    }
}

impl Layer for GaussianNoise {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, input: &Tensor) -> redeye_nn::Result<Tensor> {
        let stream = self
            .root
            .frame_substream(self.frame)
            .substream(self.ordinal);
        self.frame += 1;
        let rms = input.power().map(f32::sqrt).unwrap_or(0.0);
        let mut out = input.clone();
        if rms > 0.0 {
            let sigma = rms / self.snr.amplitude_ratio() as f32;
            stream.add_scaled_normal(0, sigma, out.as_mut_slice());
        }
        Ok(out)
    }

    fn seek_frame(&mut self, frame: u64) {
        self.frame = frame;
    }
}

/// The *Quantization Noise Layer*: "represents error introduced at the
/// circuit output by truncating to finite ADC resolution", modeled as the
/// paper does — uniform quantization error across the signal at `q` bits.
///
/// Values are quantized on a mid-rise grid over `[0, max]` (features at the
/// cut are post-rectification, so non-negative; negative residues clip at
/// the lower rail, as the circuit's rails do).
#[derive(Debug, Clone)]
pub struct QuantizationNoise {
    name: String,
    bits: u32,
}

impl QuantizationNoise {
    /// Creates a quantization layer at the given ADC resolution.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ bits ≤ 16`.
    pub fn new(name: impl Into<String>, bits: u32) -> Self {
        assert!((1..=16).contains(&bits), "ADC bits {bits} out of range");
        QuantizationNoise {
            name: name.into(),
            bits,
        }
    }

    /// The configured resolution.
    pub fn bits(&self) -> u32 {
        self.bits
    }
}

impl Layer for QuantizationNoise {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, input: &Tensor) -> redeye_nn::Result<Tensor> {
        let vmax = input.iter().fold(0.0f32, |m, &v| m.max(v));
        if vmax == 0.0 {
            return Ok(input.clone());
        }
        let levels = 2f32.powi(self.bits as i32);
        let out = input.map(|v| {
            let x = (v.max(0.0) / vmax * levels).floor().min(levels - 1.0);
            (x + 0.5) / levels * vmax
        });
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redeye_tensor::Rng;

    fn layer(snr_db: f64, seed: u64) -> GaussianNoise {
        GaussianNoise::new("g", SnrDb::new(snr_db), NoiseStream::new(seed), 0)
    }

    #[test]
    fn gaussian_noise_hits_target_snr() {
        let mut layer = layer(20.0, 1);
        let input = Tensor::full(&[20_000], 1.0);
        let out = layer.forward(&input).unwrap();
        let err_power = out.iter().map(|v| (v - 1.0).powi(2)).sum::<f32>() / out.len() as f32;
        let snr = 10.0 * (1.0 / err_power).log10();
        assert!((snr - 20.0).abs() < 0.5, "measured {snr} dB");
    }

    #[test]
    fn gaussian_noise_on_zeros_is_identity() {
        let mut layer = layer(40.0, 2);
        let input = Tensor::zeros(&[16]);
        assert_eq!(layer.forward(&input).unwrap(), input);
    }

    #[test]
    fn high_snr_is_nearly_transparent() {
        let mut layer = layer(80.0, 3);
        let mut rng = Rng::seed_from(4);
        let input = Tensor::uniform(&[1000], 0.0, 1.0, &mut rng);
        let out = layer.forward(&input).unwrap();
        assert!(input.rms_error(&out).unwrap() < 1e-3);
    }

    #[test]
    fn noise_is_the_executor_keyed_stage_of_each_frame() {
        let root = NoiseStream::new(4);
        let input = Tensor::full(&[9], 2.0);
        let sigma = 2.0 / SnrDb::new(10.0).amplitude_ratio() as f32;
        let want = |frame: u64| {
            let mut x = input.clone();
            let stage = root.frame_substream(frame).substream(3);
            stage.add_scaled_normal(0, sigma, x.as_mut_slice());
            x
        };
        let mut layer = GaussianNoise::new("g", SnrDb::new(10.0), root, 3);
        assert_eq!(layer.forward(&input).unwrap(), want(0));
        assert_eq!(layer.forward(&input).unwrap(), want(1));
        layer.seek_frame(5);
        assert_eq!(layer.forward(&input).unwrap(), want(5));
        // A silent plane still uses up its frame.
        assert_eq!(
            layer.forward(&Tensor::zeros(&[9])).unwrap(),
            Tensor::zeros(&[9])
        );
        assert_eq!(layer.forward(&input).unwrap(), want(7));
    }

    #[test]
    fn quantization_error_bounded_by_half_lsb() {
        let mut layer = QuantizationNoise::new("q", 4);
        let mut rng = Rng::seed_from(5);
        let input = Tensor::uniform(&[1000], 0.0, 1.0, &mut rng);
        let out = layer.forward(&input).unwrap();
        let vmax = input.max().unwrap();
        let lsb = vmax / 16.0;
        for (a, b) in input.iter().zip(out.iter()) {
            assert!((a - b).abs() <= lsb / 2.0 + 1e-6);
        }
    }

    #[test]
    fn more_bits_less_quantization_error() {
        let mut rng = Rng::seed_from(6);
        let input = Tensor::uniform(&[2000], 0.0, 1.0, &mut rng);
        let err = |bits| {
            let mut l = QuantizationNoise::new("q", bits);
            input.rms_error(&l.forward(&input).unwrap()).unwrap()
        };
        assert!(err(2) > 3.0 * err(6));
    }

    #[test]
    fn quantization_clips_negatives_to_lowest_level() {
        let mut layer = QuantizationNoise::new("q", 2);
        let input = Tensor::from_vec(vec![-1.0, 0.0, 1.0], &[3]).unwrap();
        let out = layer.forward(&input).unwrap();
        assert_eq!(out.as_slice()[0], out.as_slice()[1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_bits_panics() {
        QuantizationNoise::new("q", 0);
    }
}
