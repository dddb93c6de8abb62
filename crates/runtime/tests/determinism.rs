//! The runtime's headline guarantee: batch results are bit-identical
//! regardless of worker count, across repeated runs, and equivalent to
//! driving the plain simulator image by image with derived seeds.

use acoustic_datasets::mnist_like;
use acoustic_nn::layers::{AccumMode, AvgPool2d, Conv2d, Dense, Network, Relu};
use acoustic_nn::train::Sample;
use acoustic_nn::Tensor;
use acoustic_runtime::{derive_image_seed, BatchEngine, ExitPolicy, PreparedModel, RuntimeError};
use acoustic_simfunc::{ScSimulator, SimConfig};

fn digit_net() -> Network {
    let mut net = Network::new();
    net.push_conv(Conv2d::new(1, 4, 3, 1, 1, AccumMode::OrApprox).unwrap());
    net.push_avg_pool(AvgPool2d::new(2).unwrap());
    net.push_relu(Relu::clamped());
    net.push_flatten();
    net.push_dense(Dense::new(4 * 14 * 14, 10, AccumMode::OrApprox).unwrap());
    net
}

fn batch(n: usize) -> Vec<Sample> {
    mnist_like(n, 3, 10).train
}

#[test]
fn logits_bit_identical_for_1_2_8_workers() {
    let model = PreparedModel::compile(SimConfig::with_stream_len(64).unwrap(), &digit_net())
        .expect("prepare");
    let samples = batch(10);
    let inputs: Vec<Tensor> = samples.iter().map(|(x, _)| x.clone()).collect();

    let reference = BatchEngine::new(1).unwrap().run(&model, &inputs).unwrap();
    for workers in [2usize, 8] {
        let logits = BatchEngine::new(workers)
            .unwrap()
            .with_chunk_size(3)
            .unwrap()
            .run(&model, &inputs)
            .unwrap();
        assert_eq!(
            reference, logits,
            "{workers}-worker batch diverged from single-threaded"
        );
    }
}

#[test]
fn repeated_runs_are_bit_identical() {
    let model = PreparedModel::compile(SimConfig::with_stream_len(64).unwrap(), &digit_net())
        .expect("prepare");
    let samples = batch(6);
    let engine = BatchEngine::new(4).unwrap();
    let a = engine.evaluate(&model, &samples).unwrap();
    let b = engine.evaluate(&model, &samples).unwrap();
    assert_eq!(a.predictions, b.predictions);
    assert_eq!(a.confusion, b.confusion);
    assert_eq!(a.correct, b.correct);
}

#[test]
fn per_image_execution_matches_plain_simulator_with_derived_seed() {
    // PreparedModel::logits(i, x) must be exactly ScSimulator::run with the
    // same config except act_seed = derive_image_seed(base, i) — the
    // prepared path may not drift from the reference path.
    let net = digit_net();
    let base_cfg = SimConfig::with_stream_len(64).unwrap();
    let model = PreparedModel::compile(base_cfg, &net).expect("prepare");
    let samples = batch(4);
    for (i, (x, _)) in samples.iter().enumerate() {
        let fast = model.logits(i as u64, x).unwrap();
        let mut cfg = base_cfg;
        cfg.act_seed = derive_image_seed(base_cfg.act_seed, i as u64);
        let slow = ScSimulator::new(cfg).run(&net, x).unwrap();
        assert_eq!(fast, slow, "image {i}: prepared path diverged from run()");
    }
}

#[test]
fn report_is_consistent_across_worker_counts() {
    let model = PreparedModel::compile(SimConfig::with_stream_len(64).unwrap(), &digit_net())
        .expect("prepare");
    let samples = batch(8);
    let serial = BatchEngine::new(1)
        .unwrap()
        .evaluate(&model, &samples)
        .unwrap();
    let parallel = BatchEngine::new(8)
        .unwrap()
        .with_chunk_size(1)
        .unwrap()
        .evaluate(&model, &samples)
        .unwrap();
    assert_eq!(serial.predictions, parallel.predictions);
    assert_eq!(serial.confusion, parallel.confusion);
    assert_eq!(serial.accuracy, parallel.accuracy);
    assert_eq!(serial.total, 8);
    assert_eq!(serial.classes, 10);
    let row_sum: u64 = serial.confusion.iter().flatten().sum();
    assert_eq!(row_sum, 8);
    // The report carries the model's plan.
    assert_eq!(serial.plan, model.plan());
    assert!(serial.to_string().contains(&format!(
        "plan:  {} kernel, tile {}",
        model.plan().kernel.name(),
        model.plan().tile
    )));
}

#[test]
fn worker_invariance_holds_across_datapath_config_matrix() {
    // The fused-MAC rewrite threads a per-worker scratch through the batch
    // engine; every datapath configuration must stay bit-identical across
    // worker counts and match the scratch-free per-image path.
    let net = digit_net();
    let samples = batch(6);
    let inputs: Vec<Tensor> = samples.iter().map(|(x, _)| x.clone()).collect();
    for or_group in [None, Some(3)] {
        for skip_pooling in [true, false] {
            for shared_act_rng in [true, false] {
                let cfg = SimConfig {
                    or_group,
                    skip_pooling,
                    shared_act_rng,
                    ..SimConfig::with_stream_len(64).unwrap()
                };
                let model = PreparedModel::compile(cfg, &net).expect("prepare");
                let serial = BatchEngine::new(1).unwrap().run(&model, &inputs).unwrap();
                let parallel = BatchEngine::new(4)
                    .unwrap()
                    .with_chunk_size(1)
                    .unwrap()
                    .run(&model, &inputs)
                    .unwrap();
                assert_eq!(
                    serial, parallel,
                    "worker divergence for or_group={or_group:?} \
                     skip_pooling={skip_pooling} shared_act_rng={shared_act_rng}"
                );
                for (i, x) in inputs.iter().enumerate() {
                    let single = model.logits(i as u64, x).unwrap();
                    assert_eq!(serial[i], single, "batch vs per-image drift at {i}");
                }
            }
        }
    }
}

#[test]
fn worker_invariance_holds_with_exit_policy_enabled() {
    // The adaptive path re-runs undecided images at longer prefixes; every
    // escalation decision is a pure function of (model, index, input), so
    // logits, predictions, AND effective lengths must stay bit-identical
    // across worker counts — and match the per-image adaptive path.
    let model = PreparedModel::compile(SimConfig::with_stream_len(256).unwrap(), &digit_net())
        .expect("prepare");
    let samples = batch(10);
    let inputs: Vec<Tensor> = samples.iter().map(|(x, _)| x.clone()).collect();
    for margin in [0.02f32, 0.2] {
        let policy = ExitPolicy::new(1, margin, 2).unwrap();
        let serial_engine = BatchEngine::new(1)
            .unwrap()
            .with_exit_policy(policy)
            .unwrap();
        let serial = serial_engine.run(&model, &inputs).unwrap();
        let serial_report = serial_engine.evaluate(&model, &samples).unwrap();
        for workers in [2usize, 8] {
            let engine = BatchEngine::new(workers)
                .unwrap()
                .with_chunk_size(1)
                .unwrap()
                .with_exit_policy(policy)
                .unwrap();
            let parallel = engine.run(&model, &inputs).unwrap();
            assert_eq!(
                serial, parallel,
                "margin={margin}: {workers}-worker adaptive batch diverged"
            );
            let report = engine.evaluate(&model, &samples).unwrap();
            assert_eq!(serial_report.predictions, report.predictions);
            assert_eq!(serial_report.confusion, report.confusion);
            assert_eq!(
                serial_report.effective_lengths, report.effective_lengths,
                "margin={margin}: effective lengths depend on worker count"
            );
        }
        // Effective lengths are real supported prefixes of the bank.
        assert!(serial_report
            .effective_lengths
            .iter()
            .all(|l| model.supported_lengths().contains(l)));
    }
}

#[test]
fn disabled_policy_is_bit_identical_to_plain_engine() {
    // `with_exit_policy` must be strictly opt-in: an engine without one
    // (or with the policy removed again) produces byte-for-byte the
    // full-length results, including full-length effective-length metrics.
    let model = PreparedModel::compile(SimConfig::with_stream_len(128).unwrap(), &digit_net())
        .expect("prepare");
    let samples = batch(6);
    let inputs: Vec<Tensor> = samples.iter().map(|(x, _)| x.clone()).collect();
    let plain = BatchEngine::new(2).unwrap();
    let removed = plain
        .with_exit_policy(ExitPolicy::new(1, 0.5, 2).unwrap())
        .unwrap()
        .without_exit_policy();
    assert_eq!(
        plain.run(&model, &inputs).unwrap(),
        removed.run(&model, &inputs).unwrap()
    );
    let report = plain.evaluate(&model, &samples).unwrap();
    assert!(report.effective_lengths.iter().all(|&l| l == 128));
    assert_eq!(report.mean_effective_len, 128.0);
}

#[test]
fn errors_are_deterministic_too() {
    let model = PreparedModel::compile(SimConfig::with_stream_len(64).unwrap(), &digit_net())
        .expect("prepare");
    let mut inputs: Vec<Tensor> = batch(8).into_iter().map(|(x, _)| x).collect();
    // Two malformed images; the lowest index must win under any scheduling.
    inputs[2] = Tensor::zeros(&[1, 3, 3]);
    inputs[5] = Tensor::zeros(&[1, 3, 3]);
    for workers in [1usize, 2, 8] {
        let err = BatchEngine::new(workers)
            .unwrap()
            .with_chunk_size(1)
            .unwrap()
            .run(&model, &inputs)
            .unwrap_err();
        match err {
            RuntimeError::Image { index, .. } => {
                assert_eq!(index, 2, "workers={workers} reported the wrong image")
            }
            other => panic!("workers={workers}: unexpected error {other}"),
        }
    }
}
