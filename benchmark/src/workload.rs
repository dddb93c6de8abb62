//! The four workloads: what each serves, at what load, and why.

use std::time::Duration;

use acoustic_serve::ServeConfig;

use crate::models::Model;

/// One traffic mix (or, for `offline_batch`, one in-process batch loop).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LenetServe,
    TinyIo,
    ZooMixEvict,
    OfflineBatch,
}

/// Images per `BatchEngine::run` call of `offline_batch`. 128 splits into
/// at least two tiles at every tile width the autotuner can pick (4..=64),
/// so the batch can occupy both engine workers whichever plan a process
/// draws.
pub const OFFLINE_BATCH: usize = 128;

/// Engine workers of `offline_batch`.
pub const OFFLINE_WORKERS: usize = 2;

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::LenetServe,
        Workload::TinyIo,
        Workload::ZooMixEvict,
        Workload::OfflineBatch,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LenetServe => "lenet_serve",
            Workload::TinyIo => "tiny_io",
            Workload::ZooMixEvict => "zoo_mix_evict",
            Workload::OfflineBatch => "offline_batch",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload goes through the server (false: in-process
    /// `BatchEngine` loop, no network).
    pub fn serving(self) -> bool {
        self != Workload::OfflineBatch
    }

    /// The repeating sequence of models requests ask for. `zoo_mix_evict`
    /// is 4:1:1 LeNet/CIFAR/SVHN with the two CNNs alternating, so every
    /// CNN request finds the other CNN resident and forces an eviction and
    /// a re-prepare: the number of evictions is fixed by the rate instead
    /// of by how a random draw happens to order the CNNs.
    pub fn pattern(self) -> &'static [Model] {
        use Model::{Cifar10Cnn as C, Lenet5 as L, SvhnCnn as S};
        match self {
            Workload::LenetServe => &[L],
            Workload::TinyIo => &[Model::Tiny],
            Workload::ZooMixEvict => &[L, L, C, L, L, S],
            Workload::OfflineBatch => &[C],
        }
    }

    /// The model request `id` asks for; the seed picks where in the
    /// pattern a run starts.
    pub fn model_at(self, id: u64, seed: u64) -> Model {
        let pattern = self.pattern();
        pattern[(id.wrapping_add(seed) % pattern.len() as u64) as usize]
    }

    /// Every model the workload serves, each once.
    pub fn models(self) -> Vec<Model> {
        let mut models: Vec<Model> = Vec::new();
        for &m in self.pattern() {
            if !models.contains(&m) {
                models.push(m);
            }
        }
        models
    }

    /// Open-loop offered rate of the nominal phase, requests per second.
    pub fn qps(self) -> f64 {
        match self {
            Workload::LenetServe => 200.0,
            Workload::TinyIo => 10_000.0,
            Workload::ZooMixEvict => 40.0,
            Workload::OfflineBatch => 0.0,
        }
    }

    /// Requests kept outstanding in the closed-loop saturation phase: the
    /// server's admission queue (64), so the queue never runs dry and the
    /// phase measures what the server can do rather than how fast one
    /// client refills it, and no request is refused. `zoo_mix_evict` keeps
    /// one full micro-batch per worker (16): with 64 in flight, in-flight
    /// batches kept several evicted CNNs alive at once and peak RSS varied
    /// from 86 to 103 MiB between rounds, against ~57 MiB with 16.
    pub fn saturation_window(self) -> usize {
        let cfg = ServeConfig::default();
        match self {
            Workload::ZooMixEvict => cfg.workers * cfg.batch_max,
            _ => cfg.queue_capacity,
        }
    }

    /// Per-request deadline carried on the wire (0 = the server's default,
    /// 250 ms).
    pub fn deadline(self) -> Duration {
        match self {
            Workload::ZooMixEvict => Duration::from_secs(1),
            _ => Duration::ZERO,
        }
    }

    /// `ModelCache` byte budget of the served process. 13 MiB holds LeNet
    /// plus one of the two 8.7 MiB CNNs, never both.
    pub fn cache_budget(self) -> Option<usize> {
        match self {
            Workload::ZooMixEvict => Some(13 << 20),
            _ => None,
        }
    }
}
