//! Serving-system invariants at tiny scale.
//!
//! `BatchEngine::run` cuts a batch into tiles of up to `TILE` consecutive
//! images and hands each worker one tile per claim, so a batch of more
//! than one tile runs its tiles on several workers at once. The logits
//! must not depend on that: they are bit-identical at 1, 2 and 3 workers
//! for batches of one image, of one tile plus one image, and of two tiles
//! plus one image.

use acoustic::nn::layers::{AccumMode, AvgPool2d, Conv2d, Dense, Network, Relu};
use acoustic::nn::Tensor;
use acoustic::runtime::{BatchEngine, PreparedModel};
use acoustic::simfunc::{SimConfig, TILE};

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
