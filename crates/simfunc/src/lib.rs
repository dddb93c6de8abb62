//! SC functional simulator: bit-exact stochastic execution of trained CNNs
//! on the ACOUSTIC datapath (§IV-A).
//!
//! The paper decouples *functional* simulation (does the stochastic
//! arithmetic compute the right values? → accuracy) from *performance*
//! simulation (how long does it take? → `acoustic-arch`). This crate is the
//! functional half: it takes a trained [`Network`], quantizes weights and
//! activations to 8 bits, converts them to split-unipolar bitstreams through
//! LFSR-based SNGs, and executes every MAC layer with AND-multiplies and
//! OR-accumulation, two phases per layer, exactly as the hardware would —
//! including computation-skipping average pooling and per-layer binary
//! conversion with stream regeneration.
//!
//! Weight streams are prepared once per network into one representation.
//! Every SNG is a maximal 16-bit LFSR, so every weight stream is a window
//! of that LFSR's single 65,535-state cycle (its orbit, see
//! [`LfsrOrbit`](acoustic_core::LfsrOrbit)). A prepared model keeps one bit
//! cycle per distinct weight threshold, and every weight lane holds one
//! `u32` code: its phase and where its stream starts, in its cycle at its
//! orbit position. That is the same bits a per-lane layout would hold, in
//! a fraction of the memory ([`DedupStats`]).
//!
//! [`Network`]: acoustic_nn::layers::Network
//!
//! ```
//! use acoustic_nn::layers::{AccumMode, Conv2d, Dense, Network, Relu, AvgPool2d};
//! use acoustic_nn::Tensor;
//! use acoustic_simfunc::{ScSimulator, SimConfig};
//!
//! # fn main() -> Result<(), acoustic_simfunc::SimError> {
//! let mut net = Network::new();
//! net.push_conv(Conv2d::new(1, 2, 3, 1, 1, AccumMode::OrApprox)?);
//! net.push_avg_pool(AvgPool2d::new(2)?);
//! net.push_relu(Relu::clamped());
//! net.push_flatten();
//! net.push_dense(Dense::new(2 * 4 * 4, 4, AccumMode::OrApprox)?);
//!
//! let sim = ScSimulator::new(SimConfig::with_stream_len(128)?);
//! let logits = sim.run(&net, &Tensor::zeros(&[1, 8, 8]))?;
//! assert_eq!(logits.shape(), &[4]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod banks;
mod engine;
mod expected;
pub mod kernels;
mod sim_error;

pub use banks::{DedupStats, SimScratch};
pub use engine::{
    LayerTrace, Observe, PreparedNetwork, RunOutput, RunSpec, RunTrace, ScSimulator, StepTiming,
};
pub use expected::{expected_accuracy, expected_logits};
pub use kernels::{
    active_kernel, HostFingerprint, KernelChoice, KernelKind, KernelStats, TilePlan, TILE,
};
pub use sim_error::SimError;

/// Quantization bits of weights and activations (the paper's 8 bits).
pub const QUANT_BITS: u32 = 8;

/// Configuration of a stochastic functional simulation.
///
/// Implements `Hash`/`Eq` so it can key prepared-model caches (see the
/// `acoustic-runtime` crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SimConfig {
    /// Total split-unipolar stream length (paper footnote 3: "256 long
    /// stream implies 128×2" — this is the *total*; each phase runs half).
    pub stream_len: usize,
    /// Base seed for activation SNGs (regenerated per layer).
    pub act_seed: u32,
    /// Base seed for weight SNGs.
    pub wgt_seed: u32,
    /// Maximum number of products OR-ed into one stream before counter
    /// summation takes over. `None` means the whole fan-in is one OR tree
    /// (stochastic partial sums stay stochastic until the counter — the
    /// ACOUSTIC fabric behaviour, Fig. 2's "Stochastic Partial Sums").
    pub or_group: Option<usize>,
    /// Use computation-skipping average pooling (§II-C). When disabled,
    /// convolutions run full-length and pooling averages in binary.
    pub skip_pooling: bool,
    /// Share one LFSR sequence across all activation SNGs of a layer
    /// (hardware RNG sharing) instead of one seed per activation index.
    pub shared_act_rng: bool,
    /// Regenerate fresh random sequences for every layer (§II-C: ACOUSTIC
    /// "converts the streams to binary after each layer (and regenerates
    /// random sequences for the next layer), completely removing the
    /// correlation problem"). Disabling reuses the same sequences in every
    /// layer — the ablation showing why regeneration matters.
    pub regenerate_streams: bool,
    /// MAC kernel preference. [`KernelChoice::Auto`] (the default) runs the
    /// AVX-512 tile block where the host has `avx512f`;
    /// [`KernelChoice::Scalar`] pins the golden reference. Both kernels are
    /// bit-identical, so this never changes results.
    pub kernel: KernelChoice,
}

impl SimConfig {
    /// Default configuration at a given total stream length.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if `stream_len` is odd or zero.
    pub fn with_stream_len(stream_len: usize) -> Result<Self, SimError> {
        if stream_len == 0 || !stream_len.is_multiple_of(2) {
            return Err(SimError::InvalidConfig(format!(
                "stream length {stream_len} must be positive and even (split-unipolar runs two phases)"
            )));
        }
        Ok(SimConfig {
            stream_len,
            act_seed: 0xACE1,
            wgt_seed: 0x1D2C,
            or_group: None,
            skip_pooling: true,
            shared_act_rng: false,
            regenerate_streams: true,
            kernel: KernelChoice::Auto,
        })
    }

    /// Per-phase stream length (`stream_len / 2`).
    pub fn per_phase_len(&self) -> usize {
        self.stream_len / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validates_stream_length() {
        assert!(SimConfig::with_stream_len(0).is_err());
        assert!(SimConfig::with_stream_len(127).is_err());
        let c = SimConfig::with_stream_len(256).unwrap();
        assert_eq!(c.per_phase_len(), 128);
    }
}
