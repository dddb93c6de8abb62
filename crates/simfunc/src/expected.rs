//! The value-domain limit of the stochastic datapath.
//!
//! As streams lengthen, the SC datapath converges to a deterministic
//! computation: quantized weights and activations, exact-OR accumulation
//! per sign, per-layer re-quantization at the counters. Evaluating that
//! limit directly (no bitstreams) is thousands of times faster than the
//! bit-level simulator and lets experiments *decompose* the SC accuracy
//! gap into its two parts:
//!
//! * model error — quantization + OR saturation, `|expected − float|`,
//!   independent of stream length;
//! * stochastic noise — `|SC(n) − expected|`, shrinking as `1/√n`.

use acoustic_nn::fixedpoint::Quantizer;
use acoustic_nn::layers::{AccumMode, NetLayer, Network};
use acoustic_nn::train::Sample;
use acoustic_nn::Tensor;

use crate::{SimError, QUANT_BITS};

/// Runs one inference in the value-domain limit of the datapath.
///
/// Uses the same quantizers and layer fusion rules as the bit-level
/// simulator; the output is what [`crate::ScSimulator`] converges to as
/// `stream_len → ∞`, whatever its configuration.
///
/// # Errors
///
/// Propagates layer and quantizer errors.
///
/// # Examples
///
/// ```
/// use acoustic_nn::layers::{AccumMode, Dense, Network};
/// use acoustic_nn::Tensor;
/// use acoustic_simfunc::expected_logits;
///
/// # fn main() -> Result<(), acoustic_simfunc::SimError> {
/// let mut net = Network::new();
/// net.push_dense(Dense::new(4, 2, AccumMode::OrApprox)?);
/// let logits = expected_logits(&net, &Tensor::zeros(&[4]))?;
/// assert_eq!(logits.shape(), &[2]);
/// # Ok(())
/// # }
/// ```
pub fn expected_logits(net: &Network, input: &Tensor) -> Result<Tensor, SimError> {
    let aq = Quantizer::unsigned_unit(QUANT_BITS)?;
    let x = input.map(|v| aq.quantize_value(v.clamp(0.0, 1.0)));
    run_layers(net.layers(), x, &aq)
}

fn run_layers(layers: &[NetLayer], mut x: Tensor, aq: &Quantizer) -> Result<Tensor, SimError> {
    let wq = Quantizer::signed_unit(QUANT_BITS)?;
    for layer in layers {
        x = match layer {
            NetLayer::Conv(c) => {
                let mut c2 = c.clone();
                c2.set_accum_mode(AccumMode::OrExact);
                for w in c2.weights_mut() {
                    *w = wq.quantize_value(*w);
                }
                c2.forward(&x)?
            }
            NetLayer::Dense(d) => {
                let mut d2 = d.clone();
                d2.set_accum_mode(AccumMode::OrExact);
                for w in d2.weights_mut() {
                    *w = wq.quantize_value(*w);
                }
                d2.forward(&x)?
            }
            NetLayer::AvgPool(p) => p.clone().forward(&x)?,
            NetLayer::MaxPool(p) => p.clone().forward(&x)?,
            NetLayer::Relu(r) => {
                let cap = r.max_value().unwrap_or(1.0).min(1.0);
                // Counter conversion re-quantizes post-ReLU activations.
                x.map(|v| aq.quantize_value(v.clamp(0.0, cap)))
            }
            NetLayer::Flatten(_) => x.to_flat(),
            NetLayer::Residual(res) => {
                let skip = x.clone();
                let mut y = run_layers(res.inner().layers(), x, aq)?;
                if y.shape() != skip.shape() {
                    return Err(SimError::UnsupportedLayer(
                        "residual inner path changed shape".into(),
                    ));
                }
                for (o, &s) in y.as_mut_slice().iter_mut().zip(skip.as_slice()) {
                    *o += s;
                }
                y
            }
        };
    }
    Ok(x)
}

/// Classification accuracy in the value-domain limit.
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] for an empty sample set; propagates
/// layer errors.
pub fn expected_accuracy(net: &Network, samples: &[Sample]) -> Result<f64, SimError> {
    if samples.is_empty() {
        return Err(SimError::InvalidConfig("empty evaluation set".into()));
    }
    let mut correct = 0usize;
    for (input, label) in samples {
        if expected_logits(net, input)?.argmax() == *label {
            correct += 1;
        }
    }
    Ok(correct as f64 / samples.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ScSimulator, SimConfig};
    use acoustic_nn::layers::{AvgPool2d, Conv2d, Dense, Relu};

    fn cfg(n: usize) -> SimConfig {
        SimConfig::with_stream_len(n).unwrap()
    }

    fn small_net() -> Network {
        let mut net = Network::new();
        net.push_conv(Conv2d::new(1, 3, 3, 1, 1, AccumMode::OrApprox).unwrap());
        net.push_avg_pool(AvgPool2d::new(2).unwrap());
        net.push_relu(Relu::clamped());
        net.push_flatten();
        net.push_dense(Dense::new(3 * 4 * 4, 4, AccumMode::OrApprox).unwrap());
        net
    }

    fn test_input() -> Tensor {
        Tensor::from_vec(
            &[1, 8, 8],
            (0..64).map(|i| ((i * 7) % 11) as f32 / 11.0).collect(),
        )
        .unwrap()
    }

    #[test]
    fn bit_level_converges_to_expected() {
        // |SC(n) − expected| must shrink as streams lengthen.
        let net = small_net();
        let input = test_input();
        let expected = expected_logits(&net, &input).unwrap();

        let dist = |n: usize| -> f32 {
            let sc = ScSimulator::new(cfg(n)).run(&net, &input).unwrap();
            sc.as_slice()
                .iter()
                .zip(expected.as_slice())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f32::max)
        };
        let d_short = dist(64);
        let d_long = dist(2048);
        assert!(
            d_long < d_short,
            "distance did not shrink: {d_short} -> {d_long}"
        );
        assert!(d_long < 0.08, "long-stream distance {d_long}");
    }

    #[test]
    fn expected_is_deterministic() {
        let net = small_net();
        let input = test_input();
        let a = expected_logits(&net, &input).unwrap();
        let b = expected_logits(&net, &input).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn expected_accuracy_runs_on_samples() {
        let net = small_net();
        let samples: Vec<Sample> = (0..4).map(|i| (test_input(), i % 4)).collect();
        let acc = expected_accuracy(&net, &samples).unwrap();
        assert!((0.0..=1.0).contains(&acc));
        assert!(expected_accuracy(&net, &[]).is_err());
    }

    #[test]
    fn residual_blocks_supported() {
        let mut inner = Network::new();
        inner.push_conv(Conv2d::new(1, 1, 3, 1, 1, AccumMode::OrApprox).unwrap());
        let mut net = Network::new();
        net.push_residual(inner);
        let out = expected_logits(&net, &Tensor::zeros(&[1, 4, 4])).unwrap();
        assert_eq!(out.shape(), &[1, 4, 4]);
    }
}
