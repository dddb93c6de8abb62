//! # acoustic-runtime
//!
//! Deterministic parallel batch-inference engine over the ACOUSTIC
//! stochastic-computing functional simulator.
//!
//! The stochastic datapath splits naturally into an image-independent half
//! (weight quantization + split-unipolar weight-stream generation) and a
//! per-image half (activation streams + AND/OR datapath). This crate
//! exploits that split for serving:
//!
//! * [`PreparedModel`] performs the image-independent half exactly once and
//!   is immutable — workers share it behind an `Arc` with no locking on the
//!   hot path.
//! * [`ModelCache`] memoizes prepared models across requests, keyed by
//!   `(Network::fingerprint(), SimConfig)`.
//! * [`BatchEngine`] fans a batch out over a fixed pool of `std::thread`
//!   workers. Each image's SNG seeds are derived purely from
//!   `(base_seed, image_index)` via [`derive_image_seed`], so batch results
//!   are **bit-identical regardless of worker count** — parallelism is an
//!   implementation detail, not an experimental variable.
//! * [`BatchEngine::run_ready`] serves admitted requests, each at the full
//!   prepared stream length or at a shorter prefix of the same banks
//!   (`ReadyRequest::stream_len`), grouped into tiles by length.
//! * [`BatchReport`] captures accuracy, a per-class confusion matrix,
//!   throughput (images/s, wall and CPU-busy time), per-layer timing
//!   totals and kernel counters.
//!
//! ```
//! use acoustic_nn::layers::{AccumMode, Dense, Network};
//! use acoustic_nn::Tensor;
//! use acoustic_runtime::{BatchEngine, ModelCache};
//! use acoustic_simfunc::SimConfig;
//!
//! let mut net = Network::new();
//! net.push_flatten();
//! net.push_dense(Dense::new(4, 2, AccumMode::OrApprox).unwrap());
//!
//! let cache = ModelCache::new();
//! let model = cache
//!     .get_or_compile(SimConfig::with_stream_len(64).unwrap(), &net)
//!     .unwrap();
//! let batch: Vec<Tensor> = (0..8)
//!     .map(|i| Tensor::from_vec(&[1, 2, 2], vec![0.1 * i as f32; 4]).unwrap())
//!     .collect();
//! let logits = BatchEngine::new(2).unwrap().run(&model, &batch).unwrap();
//! assert_eq!(logits.len(), 8);
//! ```

pub mod engine;
pub mod prepared;
pub mod report;
pub mod rt_error;

pub use acoustic_simfunc::{DedupStats, HostFingerprint, KernelKind, TilePlan};
pub use engine::{BatchEngine, ReadyOutcome, ReadyRequest};
pub use prepared::{
    derive_image_seed, ModelCache, PrepareStats, PreparedModel, DEFAULT_CACHE_CAPACITY,
};
pub use report::{BatchReport, KernelCounters, LayerTiming};
pub use rt_error::RuntimeError;

/// A sensible default worker count: the machine's available parallelism,
/// or 1 when it cannot be determined.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    #[test]
    fn default_workers_is_positive() {
        assert!(super::default_workers() >= 1);
    }
}
