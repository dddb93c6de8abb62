//! Prefix-consistency property tests for per-request stream lengths.
//!
//! A shorter run relies on one structural fact: an LFSR-driven bitstream
//! of length L is a bit-exact prefix of the length-2L stream from the same
//! seed. `PreparedNetwork` exploits this by reading every shorter weight
//! stream as a shorter window of the same LFSR-orbit cycle, so a `RunSpec`
//! with `stream_len: Some(L)` must produce *exactly* the logits of a
//! network prepared directly at stream length L. These tests pin that
//! equivalence across a seed × length × datapath-config matrix — if it
//! ever breaks, a prefix run silently stops matching what a fixed-budget
//! deployment at the same length would produce.

use acoustic_nn::layers::{AccumMode, AvgPool2d, Conv2d, Dense, Network, Relu};
use acoustic_nn::Tensor;
use acoustic_simfunc::{PreparedNetwork, RunSpec, ScSimulator, SimConfig, SimError, SimScratch};

/// One image at the simulator's seed, at `stream_len` (`None` = maximum).
fn run_at(
    sim: &ScSimulator,
    prepared: &PreparedNetwork,
    input: &Tensor,
    stream_len: Option<usize>,
) -> Result<Tensor, SimError> {
    let spec = RunSpec {
        stream_len,
        ..RunSpec::one(input, sim.config().act_seed)
    };
    let mut out = sim.execute(prepared, &spec, &mut SimScratch::default())?;
    Ok(out.logits.remove(0))
}

fn conv_pool_net() -> Network {
    let mut net = Network::new();
    net.push_conv(Conv2d::new(1, 3, 3, 1, 1, AccumMode::OrApprox).unwrap());
    net.push_avg_pool(AvgPool2d::new(2).unwrap());
    net.push_relu(Relu::clamped());
    net.push_flatten();
    net.push_dense(Dense::new(3 * 4 * 4, 5, AccumMode::OrApprox).unwrap());
    net
}

fn dense_net() -> Network {
    let mut net = Network::new();
    net.push_dense(Dense::new(16, 8, AccumMode::OrExact).unwrap());
    net.push_relu(Relu::clamped());
    net.push_dense(Dense::new(8, 4, AccumMode::OrApprox).unwrap());
    net
}

/// Deterministic pseudo-random input in [0, 1], shaped for `conv_pool_net`.
fn image_input(salt: u32) -> Tensor {
    let vals: Vec<f32> = (0..64)
        .map(|i| {
            let h = (i as u32)
                .wrapping_mul(2_654_435_761)
                .wrapping_add(salt.wrapping_mul(0x9E37_79B9));
            (h >> 8) as f32 / (1u32 << 24) as f32
        })
        .collect();
    Tensor::from_vec(&[1, 8, 8], vals).unwrap()
}

fn flat_input(salt: u32) -> Tensor {
    let vals: Vec<f32> = (0..16)
        .map(|i| {
            let h = (i as u32)
                .wrapping_mul(0x85EB_CA6B)
                .wrapping_add(salt.wrapping_mul(0xC2B2_AE35));
            (h >> 8) as f32 / (1u32 << 24) as f32
        })
        .collect();
    Tensor::from_vec(&[16], vals).unwrap()
}

/// Core property: for every supported prefix length L of a max-length
/// prepared bank, running at prefix L equals preparing directly at L.
fn assert_prefix_consistent(net: &Network, input: &Tensor, cfg: SimConfig) {
    let sim = ScSimulator::new(cfg);
    let prepared = sim.prepare(net).expect("prepare at max length");
    assert_eq!(prepared.max_stream_len(), cfg.stream_len);
    assert!(
        prepared.supported_lengths().len() >= 2,
        "matrix case must exercise at least one true prefix"
    );
    for &len in prepared.supported_lengths() {
        let via_prefix = run_at(&sim, &prepared, input, Some(len)).unwrap();
        let direct_cfg = SimConfig {
            stream_len: len,
            ..cfg
        };
        let direct_sim = ScSimulator::new(direct_cfg);
        let direct_prepared = direct_sim.prepare(net).expect("prepare at prefix length");
        let direct = run_at(&direct_sim, &direct_prepared, input, None).unwrap();
        assert_eq!(
            via_prefix, direct,
            "prefix at len={len} of max={} diverged (seeds act={:#x} wgt={:#x})",
            cfg.stream_len, cfg.act_seed, cfg.wgt_seed
        );
    }
}

#[test]
fn prefix_matches_direct_preparation_across_seed_length_matrix() {
    let net = conv_pool_net();
    for (case, &(act_seed, wgt_seed)) in [(0xACE1u32, 0x1D2Cu32), (1, 2), (0xDEAD, 0xBEEF)]
        .iter()
        .enumerate()
    {
        for max_len in [64usize, 256, 1024] {
            let cfg = SimConfig {
                act_seed,
                wgt_seed,
                ..SimConfig::with_stream_len(max_len).unwrap()
            };
            assert_prefix_consistent(&net, &image_input(case as u32), cfg);
        }
    }
}

#[test]
fn prefix_consistency_holds_across_datapath_variants() {
    let net = conv_pool_net();
    let input = image_input(7);
    for or_group in [None, Some(3)] {
        for skip_pooling in [true, false] {
            for shared_act_rng in [true, false] {
                let cfg = SimConfig {
                    or_group,
                    skip_pooling,
                    shared_act_rng,
                    ..SimConfig::with_stream_len(128).unwrap()
                };
                assert_prefix_consistent(&net, &input, cfg);
            }
        }
    }
}

#[test]
fn prefix_consistency_on_dense_only_network() {
    // Dense-only nets have no pooling segmentation, so the supported-length
    // ladder descends much further; the property must hold all the way down.
    let net = dense_net();
    for salt in 0..3u32 {
        let cfg = SimConfig::with_stream_len(512).unwrap();
        assert_prefix_consistent(&net, &flat_input(salt), cfg);
    }
}

#[test]
fn unsupported_length_is_a_config_error_not_a_wrong_answer() {
    let net = conv_pool_net();
    let sim = ScSimulator::new(SimConfig::with_stream_len(256).unwrap());
    let prepared = sim.prepare(&net).unwrap();
    let input = image_input(0);
    for bad in [0usize, 3, 96, 512] {
        match run_at(&sim, &prepared, &input, Some(bad)) {
            Err(SimError::InvalidConfig(msg)) => {
                assert!(
                    msg.contains("supported"),
                    "error should list supported lengths, got: {msg}"
                );
            }
            other => panic!("length {bad}: expected InvalidConfig, got {other:?}"),
        }
    }
}
