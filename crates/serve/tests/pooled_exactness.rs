//! Zoo-wide bit-exactness of the deduplicated weight-stream pool.
//!
//! Weight streams are pure functions of their `(mixed seed, quantized
//! threshold)` key, so replacing per-lane materialized banks with a shared
//! stream pool must not change a single logit bit. This suite enforces
//! that on every trainable zoo model with its real dataset shapes; the
//! ImageNet-scale prepare-only descriptors are covered structurally by
//! `zoo_registry::imagenet_scale_builtin_zoo_resolves_evicts_and_recompiles`
//! (their forward pass is intentionally out of scope).

use acoustic_simfunc::{RunSpec, ScSimulator, SimConfig, SimScratch, WeightStorage};
use acoustic_train::ZooModel;

#[test]
fn pooled_logits_are_bit_identical_on_every_trainable_zoo_model() {
    for model in ZooModel::TRAINABLE {
        let net = model.network().unwrap();
        let kind = model.data_kind().expect("trainable models have datasets");
        let images: Vec<_> = kind
            .generate(0, 3, 17)
            .test
            .into_iter()
            .map(|(t, _)| t)
            .collect();

        let base = SimConfig::with_stream_len(64).unwrap();
        let pooled_sim = ScSimulator::new(SimConfig {
            weight_storage: WeightStorage::Pooled,
            ..base
        });
        let mat_sim = ScSimulator::new(SimConfig {
            weight_storage: WeightStorage::Materialized,
            ..base
        });
        let pooled = pooled_sim.prepare(&net).unwrap();
        let materialized = mat_sim.prepare(&net).unwrap();
        assert!(
            pooled.dedup_stats().resident_bytes <= materialized.dedup_stats().resident_bytes,
            "{}: pooling never costs more than materializing",
            model.slug()
        );

        let mut scratch = SimScratch::default();
        for (i, x) in images.iter().enumerate() {
            let spec = RunSpec::one(x, base.act_seed);
            let a = &pooled_sim
                .execute(&pooled, &spec, &mut scratch)
                .unwrap()
                .logits[0];
            let b = &mat_sim
                .execute(&materialized, &spec, &mut scratch)
                .unwrap()
                .logits[0];
            assert_eq!(
                a.as_slice(),
                b.as_slice(),
                "{}: pooled vs materialized logits diverged at image {i}",
                model.slug()
            );
        }
    }
}
