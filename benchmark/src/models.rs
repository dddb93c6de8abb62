//! The four models the workloads serve, their inputs, and the read-only
//! model zoo they come from.

use std::path::{Path, PathBuf};

use acoustic_core::prng::splitmix64;
use acoustic_core::DetRng;
use acoustic_nn::layers::{AccumMode, AvgPool2d, Conv2d, Dense, Network, Relu};
use acoustic_nn::Tensor;
use acoustic_train::ZooModel;

/// Images drawn per model; request `id` sends image `id % IMAGES`.
pub const IMAGES: usize = 64;

/// A model the benchmark serves or probes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// A 2-channel 8×8 conv head (~20 µs of compute): the I/O-bound model.
    Tiny,
    Lenet5,
    Cifar10Cnn,
    SvhnCnn,
}

/// Stream length the tiny model is prepared at (it is not in the zoo).
const TINY_STREAM_LEN: usize = 32;

impl Model {
    /// Every model, in per-layer report order.
    pub const ALL: [Model; 4] = [
        Model::Tiny,
        Model::Lenet5,
        Model::Cifar10Cnn,
        Model::SvhnCnn,
    ];

    pub fn slug(self) -> &'static str {
        match self.zoo() {
            Some(z) => z.slug(),
            None => "tiny",
        }
    }

    /// Wire id: the zoo manifest's id, 9 for the tiny model.
    pub fn id(self) -> u32 {
        self.zoo().map_or(9, ZooModel::id)
    }

    fn zoo(self) -> Option<ZooModel> {
        match self {
            Model::Tiny => None,
            Model::Lenet5 => Some(ZooModel::Lenet5),
            Model::Cifar10Cnn => Some(ZooModel::Cifar10Cnn),
            Model::SvhnCnn => Some(ZooModel::SvhnCnn),
        }
    }

    /// `count` inputs drawn from `seed`: the model's synthetic test set,
    /// or uniform 1×8×8 noise for the tiny model.
    pub fn images(self, count: usize, seed: u64) -> Vec<Tensor> {
        let mut state = seed ^ u64::from(self.id()).wrapping_mul(0xA24B_AED4_963E_E407);
        let image_seed = splitmix64(&mut state);
        match self.zoo().and_then(ZooModel::data_kind) {
            Some(kind) => kind
                .generate(0, count, image_seed)
                .test
                .into_iter()
                .map(|(t, _)| t)
                .collect(),
            None => {
                let mut rng = DetRng::seed_from_u64(image_seed);
                (0..count)
                    .map(|_| {
                        let vals: Vec<f32> = (0..64).map(|_| rng.next_f32()).collect();
                        Tensor::from_vec(&[1, 8, 8], vals).expect("8x8 shape matches 64 values")
                    })
                    .collect()
            }
        }
    }
}

/// The committed model zoo directory of the repository this benchmark was
/// built from. The benchmark only ever reads it.
pub fn zoo_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../results/zoo")
}

/// The network and the stream length it is served at: the zoo manifest's
/// for zoo models (only that model's checkpoint is read).
pub fn network(model: Model) -> Result<(Network, usize), String> {
    let Some(zoo) = model.zoo() else {
        return Ok((tiny_network(), TINY_STREAM_LEN));
    };
    let dir = zoo_dir();
    let zoo_err = |e: acoustic_train::TrainError| format!("model zoo at {}: {e}", dir.display());
    let manifest = acoustic_train::load_manifest(&dir).map_err(zoo_err)?;
    let entry = manifest
        .entries
        .iter()
        .find(|e| e.model == zoo)
        .ok_or_else(|| format!("model {} missing from the zoo manifest", model.slug()))?;
    let net = acoustic_train::load_network(&dir, entry).map_err(zoo_err)?;
    Ok((net, entry.stream_len))
}

/// The conv head `connscale` serves: conv(1→2, 3×3) → avgpool(2) → ReLU →
/// dense(32 → 4). Construction is deterministic, so child and parent agree
/// on its weights bit for bit.
fn tiny_network() -> Network {
    let mut net = Network::new();
    net.push_conv(Conv2d::new(1, 2, 3, 1, 1, AccumMode::OrApprox).expect("fixed conv shape"));
    net.push_avg_pool(AvgPool2d::new(2).expect("fixed pool"));
    net.push_relu(Relu::clamped());
    net.push_flatten();
    net.push_dense(Dense::new(2 * 4 * 4, 4, AccumMode::OrApprox).expect("fixed dense shape"));
    net
}
