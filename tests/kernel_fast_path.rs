//! The batched MAC fast path against the golden reference.
//!
//! `BatchEngine::run` tiles consecutive images at the model's plan tile
//! (64) and, on hosts with `avx512f`, walks 8-image blocks of each tile
//! with the AVX-512 kernel and the remainder with the scalar tail; a
//! batch of one is a tile of one. Every image of every batch must equal a
//! tile of one under forced-scalar dispatch at the same derived seed — at
//! 1 and 2 workers, for batch sizes below, at and across the block and
//! tile widths, and for the shapes that always take the scalar kernel
//! (multi-word segments, OR-grouped layers).
//!
//! The serving entry point takes the same path: `run_ready` tiles
//! requests exactly as `run` tiles a batch, so its results are
//! worker-count invariant and equal tiles of one.

use acoustic::nn::layers::{AccumMode, AvgPool2d, Conv2d, Dense, Network, Relu};
use acoustic::nn::Tensor;
use acoustic::runtime::{BatchEngine, HostFingerprint, PreparedModel, ReadyRequest};
use acoustic::simfunc::{KernelChoice, KernelKind, SimConfig, SimScratch, TilePlan, TILE};

/// Image `i` of `model` as a tile of one.
fn tile_of_one(model: &PreparedModel, i: u64, x: &Tensor) -> Tensor {
    model
        .logits(&model.spec([i], vec![x]), &mut SimScratch::default())
        .unwrap()
        .logits
        .remove(0)
}

/// Conv + pool + dense with mixed-sign, partly-zero weights.
fn net() -> Network {
    let mut net = Network::new();
    let mut conv = Conv2d::new(1, 4, 3, 1, 1, AccumMode::OrApprox).unwrap();
    for (i, w) in conv.weights_mut().iter_mut().enumerate() {
        *w = match i % 5 {
            0 => 0.0,
            1 => 0.9,
            2 => -0.6,
            3 => 0.35,
            _ => -0.15,
        };
    }
    net.push_conv(conv);
    net.push_avg_pool(AvgPool2d::new(2).unwrap());
    net.push_relu(Relu::clamped());
    net.push_flatten();
    let mut fc = Dense::new(4 * 4 * 4, 10, AccumMode::OrApprox).unwrap();
    for (i, w) in fc.weights_mut().iter_mut().enumerate() {
        *w = ((i as f32 * 0.19).sin()) * if i % 6 == 0 { 0.0 } else { 0.8 };
    }
    net.push_dense(fc);
    net
}

/// Distinct 8×8 images; image 3 is all zero (every lane gated) and image
/// 10 all one (early saturation), so both land inside an 8-image block.
fn images(n: usize) -> Vec<Tensor> {
    (0..n)
        .map(|i| {
            let v: Vec<f32> = (0..64)
                .map(|j| match (i, (i + j) % 6) {
                    (3, _) => 0.0,
                    (10, _) | (_, 1) => 1.0,
                    (_, 0) => 0.0,
                    _ => ((i * 7 + j) % 64) as f32 / 63.0,
                })
                .collect();
            Tensor::from_vec(&[1, 8, 8], v).unwrap()
        })
        .collect()
}

#[test]
fn batched_runs_match_forced_scalar_solo() {
    let network = net();
    let xs = images(70);
    // Stream 64: every segment is one word (the tile block's shape).
    // Stream 512: the dense layer's segments span four words. `or_group`
    // splits the fan-in into several OR groups. The last two always run
    // the scalar kernel.
    for (stream_len, or_group) in [(64, None), (512, None), (64, Some(3))] {
        let cfg = SimConfig {
            or_group,
            ..SimConfig::with_stream_len(stream_len).unwrap()
        };
        let model = PreparedModel::compile(cfg, &network).unwrap();
        let scalar = PreparedModel::compile(
            SimConfig {
                kernel: KernelChoice::Scalar,
                ..cfg
            },
            &network,
        )
        .unwrap();
        let golden: Vec<Tensor> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| tile_of_one(&scalar, i as u64, x))
            .collect();
        for workers in [1, 2] {
            let engine = BatchEngine::new(workers).unwrap();
            for n in [1, 7, 8, 9, 64, 70] {
                let got = engine.run(&model, &xs[..n]).unwrap();
                for (i, (g, want)) in got.iter().zip(&golden).enumerate() {
                    assert_eq!(
                        g.as_slice(),
                        want.as_slice(),
                        "stream_len={stream_len} or_group={or_group:?} \
                         workers={workers} batch={n} image={i}"
                    );
                }
            }
        }
    }
}

#[test]
fn plan_is_the_host_rule() {
    let cfg = SimConfig::with_stream_len(64).unwrap();
    let model = PreparedModel::compile(cfg, &net()).unwrap();
    let plan = model.plan();
    assert_eq!(plan, TilePlan::for_choice(KernelChoice::Auto));
    assert_eq!(plan.tile, TILE);
    assert_eq!(plan.calibration_ns, 0);
    let avx512 = HostFingerprint::detect().features.contains(&"avx512f");
    let want = if avx512 {
        KernelKind::Avx512
    } else {
        KernelKind::Scalar
    };
    assert_eq!(plan.kernel, want);
    let scalar = PreparedModel::compile(
        SimConfig {
            kernel: KernelChoice::Scalar,
            ..cfg
        },
        &net(),
    )
    .unwrap();
    assert_eq!(scalar.plan().kernel, KernelKind::Scalar);
}

/// `TILE + 5` requests form two units, a full tile and a 5-request
/// remainder: every result must equal a tile of one at any worker count.
#[test]
fn ready_requests_are_worker_count_invariant() {
    let model = PreparedModel::compile(SimConfig::with_stream_len(128).unwrap(), &net()).unwrap();
    let xs = images(TILE + 5);
    let requests: Vec<ReadyRequest> = xs
        .iter()
        .enumerate()
        .map(|(i, x)| ReadyRequest::new(i as u64, x))
        .collect();
    for workers in [1, 2, 3] {
        let got = BatchEngine::new(workers)
            .unwrap()
            .run_ready(&model, &requests)
            .unwrap();
        assert_eq!(got.len(), xs.len());
        for (i, out) in got.into_iter().enumerate() {
            let want = tile_of_one(&model, i as u64, &xs[i]);
            assert_eq!(out.unwrap(), want, "workers={workers} request={i}");
        }
    }
}
