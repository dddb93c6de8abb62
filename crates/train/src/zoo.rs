//! Trainable constructors for the small end of the ACOUSTIC model zoo.
//!
//! `acoustic_nn::zoo` describes the paper's networks as *shapes* (for MAC
//! and memory accounting); this module builds the matching **trainable**
//! [`Network`]s for the models small enough to train here: LeNet-5 and the
//! CIFAR-10/SVHN CNNs of Table II. Every MAC layer accumulates with
//! [`AccumMode::OrApprox`] — the paper's `1−e^{−Σa}` OR-sum approximation —
//! so the trained weights anticipate the stochastic OR datapath they will
//! be served on (§II-D; training against the wrong forward model is the
//! classic SC accuracy trap).
//!
//! Layer construction is deterministic, so two processes building the same
//! zoo model start from bit-identical weights — the property the serving
//! layer's golden-response validation builds on.

use acoustic_datasets::DataKind;
use acoustic_nn::layers::{AccumMode, AvgPool2d, Conv2d, Dense, MaxPool2d, Network, Relu};
use acoustic_nn::train::SgdConfig;
use acoustic_nn::NnError;

/// The zoo models, each with a stable wire id and checkpoint slug.
///
/// The small models ([`ZooModel::TRAINABLE`]) train end to end on the
/// synthetic datasets; the ImageNet-scale descriptors (AlexNet, VGG-16)
/// are *prepare-only* — deterministic untrained weights, no dataset, no
/// SGD — and exist to exercise the serving registry, the prepared-model
/// cache and the prepared weights at real scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ZooModel {
    /// LeNet-5 on the MNIST-like digits (id 1).
    Lenet5,
    /// The Table II CIFAR-10 CNN on the CIFAR-like dataset (id 2).
    Cifar10Cnn,
    /// The Table II SVHN CNN (same topology) on the SVHN-like dataset
    /// (id 3).
    SvhnCnn,
    /// AlexNet-shaped ImageNet model, prepare-only (id 4).
    Alexnet,
    /// VGG-16-shaped ImageNet model, prepare-only (id 5).
    Vgg16,
}

impl ZooModel {
    /// Every zoo model, trainable or prepare-only.
    pub const ALL: [ZooModel; 5] = [
        ZooModel::Lenet5,
        ZooModel::Cifar10Cnn,
        ZooModel::SvhnCnn,
        ZooModel::Alexnet,
        ZooModel::Vgg16,
    ];

    /// The models that train end to end on a synthetic dataset.
    pub const TRAINABLE: [ZooModel; 3] =
        [ZooModel::Lenet5, ZooModel::Cifar10Cnn, ZooModel::SvhnCnn];

    /// Wire-visible model id the serving registry uses.
    pub fn id(self) -> u32 {
        match self {
            ZooModel::Lenet5 => 1,
            ZooModel::Cifar10Cnn => 2,
            ZooModel::SvhnCnn => 3,
            ZooModel::Alexnet => 4,
            ZooModel::Vgg16 => 5,
        }
    }

    /// Checkpoint slug (manifest `name`, weight file stem).
    pub fn slug(self) -> &'static str {
        match self {
            ZooModel::Lenet5 => "lenet5",
            ZooModel::Cifar10Cnn => "cifar10-cnn",
            ZooModel::SvhnCnn => "svhn-cnn",
            ZooModel::Alexnet => "alexnet",
            ZooModel::Vgg16 => "vgg16",
        }
    }

    /// Whether the model trains end to end (false = prepare-only).
    pub fn trainable(self) -> bool {
        ZooModel::TRAINABLE.contains(&self)
    }

    /// Looks a model up by its [`ZooModel::slug`].
    pub fn from_slug(slug: &str) -> Option<ZooModel> {
        ZooModel::ALL.into_iter().find(|m| m.slug() == slug)
    }

    /// Looks a model up by its [`ZooModel::id`].
    pub fn from_id(id: u32) -> Option<ZooModel> {
        ZooModel::ALL.into_iter().find(|m| m.id() == id)
    }

    /// The synthetic dataset family the model trains on; `None` for the
    /// prepare-only ImageNet-scale descriptors (no synthetic ImageNet).
    pub fn data_kind(self) -> Option<DataKind> {
        match self {
            ZooModel::Lenet5 => Some(DataKind::MnistLike),
            ZooModel::Cifar10Cnn => Some(DataKind::CifarLike),
            ZooModel::SvhnCnn => Some(DataKind::SvhnLike),
            ZooModel::Alexnet | ZooModel::Vgg16 => None,
        }
    }

    /// Manifest `dataset` field: the dataset name for trainable models,
    /// a fixed marker for the prepare-only ones.
    pub fn dataset_name(self) -> &'static str {
        match self.data_kind() {
            Some(kind) => kind.name(),
            None => "imagenet-shaped",
        }
    }

    /// Per-model SGD hyper-parameters (batch size comes from the
    /// pipeline's synthesized-batch size). Prepare-only models share the
    /// deep-CNN defaults, but the pipeline refuses to train them before
    /// these are ever read.
    pub fn sgd(self) -> SgdConfig {
        match self {
            ZooModel::Lenet5 => SgdConfig {
                lr: 0.08,
                momentum: 0.9,
                batch_size: 16,
            },
            // The deeper RGB CNNs want a gentler step.
            ZooModel::Cifar10Cnn | ZooModel::SvhnCnn | ZooModel::Alexnet | ZooModel::Vgg16 => {
                SgdConfig {
                    lr: 0.05,
                    momentum: 0.9,
                    batch_size: 16,
                }
            }
        }
    }

    /// Builds the untrained network with OR-approximate accumulation.
    ///
    /// # Errors
    ///
    /// Propagates layer-construction errors (none for these fixed shapes).
    pub fn network(self) -> Result<Network, NnError> {
        match self {
            ZooModel::Lenet5 => lenet5(),
            ZooModel::Cifar10Cnn | ZooModel::SvhnCnn => cifar10_cnn(),
            ZooModel::Alexnet => alexnet(),
            ZooModel::Vgg16 => vgg16(),
        }
    }
}

/// Trainable LeNet-5 (28×28×1, padded first conv, 6-16-120-84-10), with
/// clamped ReLUs so every activation stays split-unipolar representable.
///
/// # Errors
///
/// Propagates layer-construction errors.
pub fn lenet5() -> Result<Network, NnError> {
    let mut net = Network::new();
    net.push_conv(Conv2d::new(1, 6, 5, 1, 2, AccumMode::OrApprox)?);
    net.push_avg_pool(AvgPool2d::new(2)?);
    net.push_relu(Relu::clamped());
    net.push_conv(Conv2d::new(6, 16, 5, 1, 0, AccumMode::OrApprox)?);
    net.push_avg_pool(AvgPool2d::new(2)?);
    net.push_relu(Relu::clamped());
    net.push_flatten();
    net.push_dense(Dense::new(16 * 5 * 5, 120, AccumMode::OrApprox)?);
    net.push_relu(Relu::clamped());
    net.push_dense(Dense::new(120, 84, AccumMode::OrApprox)?);
    net.push_relu(Relu::clamped());
    net.push_dense(Dense::new(84, 10, AccumMode::OrApprox)?);
    Ok(net)
}

/// Trainable Table II CIFAR-10/SVHN CNN (32×32×3): three 3×3 conv blocks
/// with 2×2 average pooling, one hidden FC layer.
///
/// # Errors
///
/// Propagates layer-construction errors.
pub fn cifar10_cnn() -> Result<Network, NnError> {
    let mut net = Network::new();
    net.push_conv(Conv2d::new(3, 32, 3, 1, 1, AccumMode::OrApprox)?);
    net.push_avg_pool(AvgPool2d::new(2)?);
    net.push_relu(Relu::clamped());
    net.push_conv(Conv2d::new(32, 64, 3, 1, 1, AccumMode::OrApprox)?);
    net.push_avg_pool(AvgPool2d::new(2)?);
    net.push_relu(Relu::clamped());
    net.push_conv(Conv2d::new(64, 64, 3, 1, 1, AccumMode::OrApprox)?);
    net.push_avg_pool(AvgPool2d::new(2)?);
    net.push_relu(Relu::clamped());
    net.push_flatten();
    net.push_dense(Dense::new(64 * 4 * 4, 64, AccumMode::OrApprox)?);
    net.push_relu(Relu::clamped());
    net.push_dense(Dense::new(64, 10, AccumMode::OrApprox)?);
    Ok(net)
}

/// AlexNet-shaped network (227×227×3, torchvision-style ungrouped convs),
/// **prepare-only**: weight lanes mirror `acoustic_nn::zoo::alexnet()`
/// exactly (test-enforced), which is all stream preparation reads. The
/// descriptor's overlapping 3/2 max pools are stood in for by window-2 max
/// pools — pooling has no weights and max pooling never fuses into the
/// stochastic conv, so the prepared banks are unaffected; a *forward*
/// pass, however, would hit the odd 55×55 conv1 output and fail, which is
/// fine for a model that is never trained or executed, only prepared.
pub fn alexnet() -> Result<Network, NnError> {
    let mut net = Network::new();
    net.push_conv(Conv2d::new(3, 96, 11, 4, 0, AccumMode::OrApprox)?);
    net.push_max_pool(MaxPool2d::new(2)?);
    net.push_relu(Relu::clamped());
    net.push_conv(Conv2d::new(96, 256, 5, 1, 2, AccumMode::OrApprox)?);
    net.push_max_pool(MaxPool2d::new(2)?);
    net.push_relu(Relu::clamped());
    net.push_conv(Conv2d::new(256, 384, 3, 1, 1, AccumMode::OrApprox)?);
    net.push_relu(Relu::clamped());
    net.push_conv(Conv2d::new(384, 384, 3, 1, 1, AccumMode::OrApprox)?);
    net.push_relu(Relu::clamped());
    net.push_conv(Conv2d::new(384, 256, 3, 1, 1, AccumMode::OrApprox)?);
    net.push_max_pool(MaxPool2d::new(2)?);
    net.push_relu(Relu::clamped());
    net.push_flatten();
    net.push_dense(Dense::new(256 * 6 * 6, 4096, AccumMode::OrApprox)?);
    net.push_relu(Relu::clamped());
    net.push_dense(Dense::new(4096, 4096, AccumMode::OrApprox)?);
    net.push_relu(Relu::clamped());
    net.push_dense(Dense::new(4096, 1000, AccumMode::OrApprox)?);
    Ok(net)
}

/// VGG-16 (224×224×3): five 3×3 conv blocks with 2×2 max pooling, then
/// the classic 25088-4096-4096-1000 classifier. Prepare-only like
/// [`alexnet`], but dimensionally exact throughout (every pool input is
/// even), so weight lanes match `acoustic_nn::zoo::vgg16()` one for one.
pub fn vgg16() -> Result<Network, NnError> {
    let blocks: &[(usize, usize)] = &[(64, 2), (128, 2), (256, 3), (512, 3), (512, 3)];
    let mut net = Network::new();
    let mut in_c = 3;
    for &(ch, reps) in blocks {
        for _ in 0..reps {
            net.push_conv(Conv2d::new(in_c, ch, 3, 1, 1, AccumMode::OrApprox)?);
            net.push_relu(Relu::clamped());
            in_c = ch;
        }
        net.push_max_pool(MaxPool2d::new(2)?);
    }
    net.push_flatten();
    net.push_dense(Dense::new(512 * 7 * 7, 4096, AccumMode::OrApprox)?);
    net.push_relu(Relu::clamped());
    net.push_dense(Dense::new(4096, 4096, AccumMode::OrApprox)?);
    net.push_relu(Relu::clamped());
    net.push_dense(Dense::new(4096, 1000, AccumMode::OrApprox)?);
    Ok(net)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_and_slugs_round_trip() {
        for m in ZooModel::ALL {
            assert_eq!(ZooModel::from_id(m.id()), Some(m));
            assert_eq!(ZooModel::from_slug(m.slug()), Some(m));
        }
        assert_eq!(ZooModel::from_id(99), None);
        assert_eq!(ZooModel::from_slug("resnet18"), None);
        assert_eq!(ZooModel::from_slug("vgg16"), Some(ZooModel::Vgg16));
        assert_eq!(ZooModel::from_slug("alexnet"), Some(ZooModel::Alexnet));
    }

    #[test]
    fn trainable_models_have_datasets_prepare_only_do_not() {
        for m in ZooModel::ALL {
            assert_eq!(m.trainable(), m.data_kind().is_some(), "{}", m.slug());
        }
        assert!(!ZooModel::Alexnet.trainable());
        assert!(!ZooModel::Vgg16.trainable());
        assert_eq!(ZooModel::Lenet5.dataset_name(), "mnist-like");
        assert_eq!(ZooModel::Vgg16.dataset_name(), "imagenet-shaped");
    }

    #[test]
    fn construction_is_deterministic() {
        // ImageNet-scale builds allocate hundreds of MB; the trainable
        // subset covers the determinism property at test speed, and the
        // ignored descriptor test covers the big builds.
        for m in ZooModel::TRAINABLE {
            let a = m.network().unwrap();
            let b = m.network().unwrap();
            assert_eq!(a.fingerprint(), b.fingerprint(), "{}", m.slug());
        }
    }

    #[test]
    fn trainable_networks_match_zoo_shape_descriptors() {
        // The shape-only descriptors in `acoustic_nn::zoo` are the source
        // of truth for the paper's architectures; the trainable builds must
        // carry exactly the same weight counts.
        let pairs = [
            (ZooModel::Lenet5, acoustic_nn::zoo::lenet5()),
            (ZooModel::Cifar10Cnn, acoustic_nn::zoo::cifar10_cnn()),
            (ZooModel::SvhnCnn, acoustic_nn::zoo::svhn_cnn()),
        ];
        for (model, shape) in pairs {
            let net = model.network().unwrap();
            assert_eq!(
                net.param_count() as u64,
                shape.total_weights(),
                "{} weight count drifted from its shape descriptor",
                model.slug()
            );
        }
    }

    #[test]
    #[ignore = "builds ImageNet-scale networks (hundreds of MB); run with --ignored in release"]
    fn prepare_only_networks_match_zoo_shape_descriptors() {
        let pairs = [
            (ZooModel::Alexnet, acoustic_nn::zoo::alexnet()),
            (ZooModel::Vgg16, acoustic_nn::zoo::vgg16()),
        ];
        for (model, shape) in pairs {
            let net = model.network().unwrap();
            assert_eq!(
                net.param_count() as u64,
                shape.total_weights(),
                "{} weight count drifted from its shape descriptor",
                model.slug()
            );
        }
    }

    #[test]
    fn forward_pass_runs_on_dataset_shapes() {
        for m in ZooModel::TRAINABLE {
            let mut net = m.network().unwrap();
            let ds = m.data_kind().unwrap().generate(1, 0, 5);
            let logits = net.forward(&ds.train[0].0).unwrap();
            assert_eq!(logits.as_slice().len(), 10, "{}", m.slug());
        }
    }
}
