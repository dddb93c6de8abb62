//! Registry ↔ zoo integration: manifests written by acoustic-train load
//! into the serving registry, missing artifacts surface as typed errors,
//! and a cache memory budget evicts cold models without unregistering
//! them.

use std::path::PathBuf;
use std::sync::Arc;

use acoustic_nn::layers::{AccumMode, AvgPool2d, Conv2d, Dense, Network, Relu};
use acoustic_runtime::ModelCache;
use acoustic_serve::{ModelRegistry, ModelSpec, RegistryError};
use acoustic_simfunc::SimConfig;
use acoustic_train::{
    add_builtin_models, save_zoo, train_model, PipelineConfig, TrainError, ZooEntry, ZooModel,
};

/// A fresh per-test temp dir (tests run concurrently in one process).
fn temp_zoo(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("acoustic-serve-zoo-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Trains LeNet-5 at toy scale and writes a one-model zoo directory.
fn tiny_zoo(tag: &str, stream_len: usize) -> (PathBuf, Network) {
    let cfg = PipelineConfig {
        producers: 2,
        channel_capacity: 2,
        batch_size: 6,
        steps: 2,
        val_size: 6,
        seed: 29,
    };
    let outcome = train_model(ZooModel::Lenet5, &cfg).unwrap();
    let entry = ZooEntry::from_outcome(ZooModel::Lenet5, &cfg, stream_len, &outcome);
    let dir = temp_zoo(tag);
    save_zoo(&dir, &[(entry, &outcome.network)]).unwrap();
    (dir, outcome.network)
}

#[test]
fn registry_loads_models_from_zoo_manifest() {
    let (dir, trained) = tiny_zoo("load", 32);
    let cache = Arc::new(ModelCache::new());
    let reg = ModelRegistry::from_zoo_dir(&dir, &cache).unwrap();

    assert_eq!(reg.ids(), vec![ZooModel::Lenet5.id()]);
    let cfg = reg.sim_config(ZooModel::Lenet5.id()).unwrap();
    assert_eq!(cfg.stream_len, 32, "stream length comes from the manifest");

    // The checkpoint round-tripped bit-exactly: the prepared model keys
    // identically to the network we trained, and it is warm in the cache.
    let prepared = reg.resolve(ZooModel::Lenet5.id()).unwrap();
    let golden = acoustic_runtime::PreparedModel::compile(cfg, &trained).unwrap();
    assert_eq!(prepared.fingerprint(), golden.fingerprint());
    assert_eq!(cache.len(), 1);

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn missing_checkpoint_artifact_is_a_typed_error() {
    let (dir, _) = tiny_zoo("missing", 32);
    std::fs::remove_file(dir.join("lenet5.net")).unwrap();

    let cache = Arc::new(ModelCache::new());
    match ModelRegistry::from_zoo_dir(&dir, &cache) {
        Err(RegistryError::Zoo(TrainError::MissingArtifact(path))) => {
            assert!(path.ends_with("lenet5.net"), "{path}");
        }
        other => panic!("expected MissingArtifact, got {other:?}"),
    }

    std::fs::remove_dir_all(&dir).unwrap();
}

/// Two structurally different tiny CNNs with distinct fingerprints.
fn tiny_net(dense_out: usize) -> Network {
    let mut net = Network::new();
    net.push_conv(Conv2d::new(1, 2, 3, 1, 1, AccumMode::OrApprox).unwrap());
    net.push_avg_pool(AvgPool2d::new(2).unwrap());
    net.push_relu(Relu::clamped());
    net.push_flatten();
    net.push_dense(Dense::new(2 * 4 * 4, dense_out, AccumMode::OrApprox).unwrap());
    net
}

#[test]
fn memory_budget_evicts_lru_and_registry_recompiles() {
    let sim = SimConfig::with_stream_len(64).unwrap();
    let (a, b) = (tiny_net(4), tiny_net(6));
    assert_ne!(a.fingerprint(), b.fingerprint());

    // Measure one prepared model so the budget can hold one but not two,
    // and capture both cache keys for the eviction counters.
    let probe = Arc::new(ModelCache::new());
    let fp_a = probe.get_or_compile(sim, &a).unwrap().fingerprint();
    let one = probe.resident_bytes();
    assert!(one > 0);
    let fp_b = probe.get_or_compile(sim, &b).unwrap().fingerprint();
    assert_ne!(fp_a, fp_b);

    let cache = Arc::new(ModelCache::with_limits(8, Some(one + one / 2)).unwrap());
    let reg = ModelRegistry::build(
        vec![
            ModelSpec {
                id: 1,
                network: a.clone(),
                cfg: sim,
            },
            ModelSpec {
                id: 2,
                network: b.clone(),
                cfg: sim,
            },
        ],
        &cache,
    )
    .unwrap();

    // Warming model 2 evicted model 1 (LRU under the byte budget)…
    assert_eq!(cache.len(), 1);
    assert_eq!(cache.evictions(), 1);
    assert_eq!(cache.evictions_of(fp_a), 1);

    // …but model 1 is still registered: resolve recompiles it, which in
    // turn evicts model 2. Identity churns, fingerprints never do.
    let cold = reg.resolve(1).unwrap();
    assert_eq!(cold.fingerprint(), fp_a);
    assert_eq!(cache.evictions(), 2);
    assert_eq!(cache.evictions_of(fp_b), 1);
    assert!(cache.resident_bytes() <= one + one / 2);

    let back = reg.resolve(2).unwrap();
    assert_eq!(back.fingerprint(), fp_b);
    assert_eq!(cache.evictions(), 3);
}

#[test]
fn builtin_manifest_entries_load_through_the_registry() {
    // A zoo directory holding only a `file builtin` entry: no weight file
    // on disk, the registry rebuilds the deterministic constructor network
    // at load time. LeNet keeps the always-run test cheap; the ignored
    // test below exercises the same path at ImageNet scale.
    let dir = temp_zoo("builtin");
    add_builtin_models(&dir, &[(ZooModel::Lenet5, 32)]).unwrap();

    let cache = Arc::new(ModelCache::new());
    let reg = ModelRegistry::from_zoo_dir(&dir, &cache).unwrap();
    assert_eq!(reg.ids(), vec![ZooModel::Lenet5.id()]);

    let prepared = reg.resolve(ZooModel::Lenet5.id()).unwrap();
    let golden = acoustic_runtime::PreparedModel::compile(
        SimConfig::with_stream_len(32).unwrap(),
        &ZooModel::Lenet5.network().unwrap(),
    )
    .unwrap();
    assert_eq!(prepared.fingerprint(), golden.fingerprint());

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
#[ignore = "prepares ImageNet-scale models (GBs of bank memory, minutes in release); run with --ignored"]
fn imagenet_scale_builtin_zoo_resolves_evicts_and_recompiles() {
    let dir = temp_zoo("imagenet");
    add_builtin_models(&dir, &[(ZooModel::Alexnet, 32), (ZooModel::Vgg16, 32)]).unwrap();

    // Budget sized from the two models' measured resident bytes to hold
    // either model alone but never both — so warming VGG during
    // registration must evict AlexNet, and resolving AlexNet again must
    // recompile it and evict VGG.
    let cfg = SimConfig::with_stream_len(32).unwrap();
    let [alex_bytes, vgg_bytes] = [ZooModel::Alexnet, ZooModel::Vgg16].map(|m| {
        acoustic_runtime::PreparedModel::compile(cfg, &m.network().unwrap())
            .unwrap()
            .approx_bytes()
    });
    let budget = alex_bytes.max(vgg_bytes) + alex_bytes.min(vgg_bytes) / 2;
    assert!(budget < alex_bytes + vgg_bytes);
    let cache = Arc::new(ModelCache::with_limits(8, Some(budget)).unwrap());
    let reg = ModelRegistry::from_zoo_dir(&dir, &cache).unwrap();

    assert_eq!(cache.len(), 1, "budget holds only one resident model");
    assert_eq!(cache.evictions(), 1);
    assert!(cache.resident_bytes() <= budget);

    let alex = reg.resolve(ZooModel::Alexnet.id()).unwrap();
    let stats = alex.dedup_stats();
    assert!(
        stats.dedup_ratio() >= 5.0,
        "AlexNet dedup ratio {:.2} below the 5x bar",
        stats.dedup_ratio()
    );
    assert_eq!(cache.evictions(), 2, "recompiling AlexNet evicted VGG-16");
    assert!(cache.resident_bytes() <= budget);

    let vgg = reg.resolve(ZooModel::Vgg16.id()).unwrap();
    let stats = vgg.dedup_stats();
    assert!(
        stats.dedup_ratio() >= 5.0,
        "VGG-16 dedup ratio {:.2} below the 5x bar",
        stats.dedup_ratio()
    );
    assert_eq!(cache.evictions(), 3);

    std::fs::remove_dir_all(&dir).unwrap();
}
