//! Kernel-equivalence suite: both kernel choices and every execution
//! shape must produce bit-identical logits.
//!
//! Two axes are exercised against the portable scalar reference, a
//! `KernelChoice::Scalar` tile of one image:
//!
//! * **Kernel** — a 9-image `KernelChoice::Auto` tile (one 8-image
//!   AVX-512 block plus a one-image scalar tail on hosts with `avx512f`)
//!   vs scalar tiles of one, across seeds, OR-group widths, datapath
//!   variants, and stream lengths spanning
//!   single-word up to multi-word segments.
//! * **Tiling** — `RunSpec`s of up to 16 images (past the 8-image AVX-512
//!   block width) vs tiles of one, for both kernel choices, including an
//!   all-zero image (every lane gated).

use acoustic_nn::layers::{AccumMode, AvgPool2d, Conv2d, Dense, Network, Relu};
use acoustic_nn::Tensor;
use acoustic_simfunc::{
    KernelChoice, PreparedNetwork, RunSpec, ScSimulator, SimConfig, SimScratch,
};

/// `inputs[t]` at `seeds[t]` as one tile.
fn run_tile(
    sim: &ScSimulator,
    prepared: &PreparedNetwork,
    inputs: &[&Tensor],
    seeds: &[u32],
    scratch: &mut SimScratch,
) -> Vec<Tensor> {
    let spec = RunSpec::new(inputs.to_vec(), seeds.to_vec());
    sim.execute(prepared, &spec, scratch).unwrap().logits
}

/// Small conv+pool+dense net with mixed-sign, partly-zero weights.
fn build_net() -> Network {
    let mut net = Network::new();
    let mut conv = Conv2d::new(1, 2, 3, 1, 1, AccumMode::OrApprox).unwrap();
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
    let mut fc = Dense::new(2 * 4 * 4, 4, AccumMode::OrApprox).unwrap();
    for (i, w) in fc.weights_mut().iter_mut().enumerate() {
        *w = ((i as f32 * 0.19).sin()) * if i % 6 == 0 { 0.0 } else { 0.8 };
    }
    net.push_dense(fc);
    net
}

/// Inputs covering gated lanes (zeros), saturating ones, and a ramp; image
/// `i` is a distinct rotation so every tile member differs.
fn test_inputs(n: usize) -> Vec<Tensor> {
    (0..n)
        .map(|i| {
            let v: Vec<f32> = (0..64)
                .map(|j| match (i + j) % 6 {
                    0 => 0.0,
                    1 => 1.0,
                    _ => ((i + j) % 64) as f32 / 63.0,
                })
                .collect();
            Tensor::from_vec(&[1, 8, 8], v).unwrap()
        })
        .collect()
}

fn cfg(stream_len: usize, kernel: KernelChoice) -> SimConfig {
    SimConfig {
        kernel,
        ..SimConfig::with_stream_len(stream_len).unwrap()
    }
}

/// A 9-image `Auto` tile — the AVX-512 block plus its scalar tail where
/// `avx512f` is detected — is bit-identical to scalar tiles of one across
/// seeds, OR-group widths, datapath variants, and stream lengths from
/// single-word up to 4-word segments.
#[test]
fn auto_tile_matches_solo_scalar_across_config_matrix() {
    let net = build_net();
    let inputs = test_inputs(9);
    let refs: Vec<&Tensor> = inputs.iter().collect();
    let mut scratch = SimScratch::default();
    let mut checked = 0usize;
    for (act_seed, wgt_seed) in [(0xACE1u32, 0x1234), (0xBEEF, 0x0F0D)] {
        let seeds: Vec<u32> = (0..9).map(|i| act_seed.wrapping_add(31 * i)).collect();
        for or_group in [None, Some(3)] {
            for skip_pooling in [true, false] {
                for shared_act_rng in [true, false] {
                    for stream_len in [64, 128, 192, 320, 512] {
                        let base = SimConfig {
                            act_seed,
                            wgt_seed,
                            or_group,
                            skip_pooling,
                            shared_act_rng,
                            ..cfg(stream_len, KernelChoice::Scalar)
                        };
                        let auto_sim = ScSimulator::new(SimConfig {
                            kernel: KernelChoice::Auto,
                            ..base
                        });
                        let prepared = auto_sim.prepare(&net).unwrap();
                        let got = run_tile(&auto_sim, &prepared, &refs, &seeds, &mut scratch);
                        let scalar_sim = ScSimulator::new(base);
                        for (i, (x, &s)) in inputs.iter().zip(&seeds).enumerate() {
                            let want = run_tile(&scalar_sim, &prepared, &[x], &[s], &mut scratch)
                                .remove(0);
                            assert_eq!(
                                got[i].as_slice(),
                                want.as_slice(),
                                "auto tile diverged: image={i} act_seed={act_seed:#x} \
                                     or_group={or_group:?} skip_pooling={skip_pooling} \
                                     shared_act_rng={shared_act_rng} stream_len={stream_len}"
                            );
                        }
                        checked += 1;
                    }
                }
            }
        }
    }
    assert_eq!(checked, 80);
}

/// Tiled execution is bit-identical to tiles of one for every tile size
/// and both kernel choices — including an all-zero image whose lanes are
/// all gated, and tile sizes past the 8-image AVX-512 block width (so
/// block + tail paths both run).
#[test]
fn tiled_matches_solo_across_tile_sizes_and_kernels() {
    let net = build_net();
    let mut inputs = test_inputs(12);
    inputs[3] = Tensor::zeros(&[1, 8, 8]); // fully gated image mid-tile
    let seeds: Vec<u32> = (0..12).map(|i| 0x5EED + 31 * i).collect();
    let mut scratch = SimScratch::default();
    for kernel in [KernelChoice::Scalar, KernelChoice::Auto] {
        let base = cfg(128, kernel);
        let sim = ScSimulator::new(base);
        let prepared = sim.prepare(&net).unwrap();
        let solo: Vec<Tensor> = inputs
            .iter()
            .zip(&seeds)
            .map(|(x, &s)| run_tile(&sim, &prepared, &[x], &[s], &mut scratch).remove(0))
            .collect();
        for tile in [1usize, 2, 3, 4, 8, 12, 16] {
            for (lo, (xs, ss)) in inputs
                .chunks(tile)
                .zip(seeds.chunks(tile))
                .enumerate()
                .map(|(t, c)| (t * tile, c))
            {
                let refs: Vec<&Tensor> = xs.iter().collect();
                let got = run_tile(&sim, &prepared, &refs, ss, &mut scratch);
                for (off, g) in got.iter().enumerate() {
                    assert_eq!(
                        g.as_slice(),
                        solo[lo + off].as_slice(),
                        "tiled logits diverged: kernel={kernel:?} tile={tile} image={}",
                        lo + off
                    );
                }
            }
        }
    }
}
