//! Serving-system invariants at tiny scale.
//!
//! `BatchEngine::run` cuts a batch into tiles of up to `TILE` consecutive
//! images and hands each worker one tile per claim, so a batch of more
//! than one tile runs its tiles on several workers at once. The logits
//! must not depend on that: they are bit-identical at 1, 2 and 3 workers
//! for batches of one image, of one tile plus one image, and of two tiles
//! plus one image.
//!
//! The trained zoo in `results/zoo` is pinned too: its logits, its
//! prepared weight banks (at 1, 3 and the host's default prepare threads)
//! and their per-lane byte accounting must not move.

use acoustic::datasets::DataKind;
use acoustic::nn::layers::{AccumMode, AvgPool2d, Conv2d, Dense, Network, Relu};
use acoustic::nn::serialize::from_text;
use acoustic::nn::Tensor;
use acoustic::runtime::{BatchEngine, PreparedModel};
use acoustic::simfunc::{RunSpec, ScSimulator, SimConfig, SimScratch, TILE};

/// A tiny pooled conv + dense net with mixed-sign, partly-zero weights.
fn net() -> Network {
    let mut net = Network::new();
    let mut conv = Conv2d::new(1, 2, 3, 1, 1, AccumMode::OrApprox).unwrap();
    for (i, w) in conv.weights_mut().iter_mut().enumerate() {
        *w = [0.0, 0.8, -0.5, 0.3][i % 4];
    }
    net.push_conv(conv);
    net.push_avg_pool(AvgPool2d::new(2).unwrap());
    net.push_relu(Relu::clamped());
    net.push_flatten();
    let mut fc = Dense::new(2 * 3 * 3, 4, AccumMode::OrApprox).unwrap();
    for (i, w) in fc.weights_mut().iter_mut().enumerate() {
        *w = (i as f32 * 0.37).sin() * 0.9;
    }
    net.push_dense(fc);
    net
}

/// `n` distinct 6×6 images with zeros (gated lanes), ones and a ramp.
fn images(n: usize) -> Vec<Tensor> {
    (0..n)
        .map(|i| {
            let v = (0..36)
                .map(|j| match (i + j) % 5 {
                    0 => 0.0,
                    1 => 1.0,
                    _ => ((i * 7 + j) % 36) as f32 / 35.0,
                })
                .collect();
            Tensor::from_vec(&[1, 6, 6], v).unwrap()
        })
        .collect()
}

#[test]
fn run_logits_are_worker_count_invariant_across_tiles() {
    let model = PreparedModel::compile(SimConfig::with_stream_len(64).unwrap(), &net()).unwrap();
    for n in [1, TILE + 1, 2 * TILE + 1] {
        let xs = images(n);
        let serial = BatchEngine::new(1).unwrap().run(&model, &xs).unwrap();
        assert_eq!(serial.len(), n);
        for workers in [2, 3] {
            let parallel = BatchEngine::new(workers).unwrap().run(&model, &xs).unwrap();
            assert_eq!(serial, parallel, "batch of {n} at {workers} workers");
        }
    }
}

/// One FNV-1a step, as the prepared-content digest mixes its words.
fn fnv1a(h: &mut u64, word: u64) {
    *h = (*h ^ word).wrapping_mul(0x0000_0100_0000_01b3);
}

/// The trained zoo, pinned: for each model in `results/zoo`, prepared at
/// stream 64 and run on 2 test images of its dataset, an FNV-1a digest of
/// the logits' `f32` bits, the prepared `content_digest()` and the
/// analytic per-lane `materialized_bytes`; the banks must digest the same
/// when prepared on 1 and 3 threads. The constants were recorded
/// while the per-lane layout still existed and matched the stream pool
/// bit for bit, and its measured allocation equalled `materialized_bytes`;
/// they fail on any change to the weight banks, the kernels or the
/// byte accounting.
#[test]
fn trained_zoo_logits_and_banks_are_pinned() {
    let zoo = [
        (
            "lenet5",
            DataKind::MnistLike,
            0x5dd0_bffe_3eeb_0935,
            0xc91a_d1f0_217c_fa68,
            4_915_440,
        ),
        (
            "cifar10-cnn",
            DataKind::CifarLike,
            0x195b_b215_e3ab_0935,
            0x673c_3d25_5a20_19c9,
            19_590_912,
        ),
        (
            "svhn-cnn",
            DataKind::SvhnLike,
            0x0a45_22a4_2f2b_0935,
            0x1e2b_7513_a8d4_d548,
            19_590_912,
        ),
    ];
    for (name, kind, logits_digest, content_digest, materialized_bytes) in zoo {
        let path = format!("{}/results/zoo/{name}.net", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).expect("trained zoo checkpoint");
        let net = from_text(&text).unwrap();
        let cfg = SimConfig::with_stream_len(64).unwrap();
        let sim = ScSimulator::new(cfg);
        let prepared = sim.prepare(&net).unwrap();

        let mut scratch = SimScratch::default();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for (x, _) in kind.generate(0, 2, 17).test {
            let out = sim
                .execute(&prepared, &RunSpec::one(&x, cfg.act_seed), &mut scratch)
                .unwrap();
            for v in out.logits[0].as_slice() {
                fnv1a(&mut h, u64::from(v.to_bits()));
            }
        }
        let stats = prepared.dedup_stats();
        assert!(
            stats.resident_bytes <= stats.materialized_bytes,
            "{name}: pooling never costs more than materializing"
        );
        assert_eq!(h, logits_digest, "{name}: logits");
        assert_eq!(prepared.content_digest(), content_digest, "{name}: banks");
        for threads in [1, 3] {
            assert_eq!(
                sim.prepare_with(&net, threads).unwrap().content_digest(),
                content_digest,
                "{name}: banks at {threads} prepare threads"
            );
        }
        assert_eq!(
            stats.materialized_bytes, materialized_bytes,
            "{name}: bytes"
        );
    }
}
