//! Golden-logits bit-exactness suite for the fused MAC rewrite.
//!
//! The simulator's hot path was rewritten from per-lane `Bitstream`
//! allocation (`a.and(&w)` + `or_assign`) plus bit-granular `slice`
//! segmentation to a word-fused, allocation-free kernel over a segmented
//! activation bank. This suite keeps the *original* straight-line datapath
//! alive as a reference implementation — per-bit SNG comparator loops,
//! bit-by-bit segment slicing, two-step AND-then-OR accumulation, the
//! pre-hoist loop nesting — and asserts the production engine produces
//! byte-identical logits across the whole configuration matrix.

use acoustic_core::counter::Phase;
use acoustic_core::sng::quantize_probability;
use acoustic_core::{Bitstream, Lfsr};
use acoustic_nn::fixedpoint::Quantizer;
use acoustic_nn::layers::{AccumMode, AvgPool2d, Conv2d, Dense, Network, Relu};
use acoustic_nn::Tensor;
use acoustic_simfunc::{PreparedNetwork, RunSpec, ScSimulator, SimConfig, SimScratch, QUANT_BITS};

/// One image through the production engine at the simulator's seed.
fn run_one(
    sim: &ScSimulator,
    prepared: &PreparedNetwork,
    input: &Tensor,
    scratch: &mut SimScratch,
) -> Tensor {
    let spec = RunSpec::one(input, sim.config().act_seed);
    sim.execute(prepared, &spec, scratch)
        .unwrap()
        .logits
        .remove(0)
}

/// Copy of the engine's private seed mixer — the reference must draw the
/// exact same LFSR seedings as the production path.
fn mix_seed(base: u32, a: u32, b: u32, c: u32) -> u32 {
    let mut s = base
        .wrapping_add(a.wrapping_mul(0x9E3779B9))
        .wrapping_add(b.wrapping_mul(0x85EBCA6B))
        .wrapping_add(c.wrapping_mul(0xC2B2AE35));
    s ^= s >> 16;
    s = s.wrapping_mul(0x45D9F3B);
    s ^= s >> 13;
    s &= 0xFFFF;
    if s == 0 {
        0x5EED
    } else {
        s
    }
}

/// Per-bit reference SNG: one comparator evaluation per cycle, no word
/// building, no fast paths.
fn ref_stream(seed: u32, threshold: u32, n: usize) -> Bitstream {
    let mut lfsr = Lfsr::maximal(16, seed).unwrap();
    let mut s = Bitstream::zeros(n);
    for bit in 0..n {
        let r = lfsr.next_value();
        if r <= threshold && threshold > 0 {
            s.set(bit, true);
        }
    }
    s
}

/// Bit-by-bit slice (the pre-optimization segmentation).
fn ref_slice(s: &Bitstream, start: usize, count: usize) -> Bitstream {
    let mut out = Bitstream::zeros(count);
    for i in 0..count {
        out.set(i, s.get(start + i));
    }
    out
}

/// Split-unipolar weight streams of one layer, reference form.
struct RefWeights {
    pos: Vec<Option<Vec<Bitstream>>>,
    neg: Vec<Option<Vec<Bitstream>>>,
}

fn ref_weight_streams(
    cfg: &SimConfig,
    wvals: &[f32],
    ordinal: usize,
    segments: usize,
) -> RefWeights {
    let m = cfg.per_phase_len();
    let seg_len = m / segments;
    let mut pos = Vec::with_capacity(wvals.len());
    let mut neg = Vec::with_capacity(wvals.len());
    for (j, &w) in wvals.iter().enumerate() {
        let make = |component: f64, phase: u32| -> Vec<Bitstream> {
            let seed = mix_seed(cfg.wgt_seed, ordinal as u32, j as u32, phase);
            let t = quantize_probability(component, 16).unwrap();
            let full = ref_stream(seed, t, m);
            (0..segments)
                .map(|e| ref_slice(&full, e * seg_len, seg_len))
                .collect()
        };
        if w > 0.0 {
            pos.push(Some(make(f64::from(w), 0)));
            neg.push(None);
        } else if w < 0.0 {
            pos.push(None);
            neg.push(Some(make(f64::from(-w), 1)));
        } else {
            pos.push(None);
            neg.push(None);
        }
    }
    RefWeights { pos, neg }
}

/// Reference activation streams: `[segment][idx] -> Option<Bitstream>`,
/// `None` marking an operand-gated lane.
fn ref_activation_streams(
    cfg: &SimConfig,
    values: &[f32],
    ordinal: usize,
    segments: usize,
) -> Vec<Vec<Option<Bitstream>>> {
    let ordinal = if cfg.regenerate_streams { ordinal } else { 0 };
    let m = cfg.per_phase_len();
    let seg_len = m / segments;
    let mut full: Vec<Option<Bitstream>> = Vec::with_capacity(values.len());
    if cfg.shared_act_rng {
        let seed = mix_seed(cfg.act_seed, ordinal as u32, 0, 7);
        let mut lfsr = Lfsr::maximal(16, seed).unwrap();
        let thresholds: Vec<u32> = values
            .iter()
            .map(|&v| quantize_probability(f64::from(v.clamp(0.0, 1.0)), 16).unwrap())
            .collect();
        let mut streams: Vec<Bitstream> = (0..values.len()).map(|_| Bitstream::zeros(m)).collect();
        for bit in 0..m {
            let r = lfsr.next_value();
            for (s, &t) in streams.iter_mut().zip(&thresholds) {
                if r <= t && t > 0 {
                    s.set(bit, true);
                }
            }
        }
        for s in streams {
            full.push(if s.count_ones() == 0 { None } else { Some(s) });
        }
    } else {
        for (idx, &v) in values.iter().enumerate() {
            if v <= 0.0 {
                full.push(None);
                continue;
            }
            let seed = mix_seed(cfg.act_seed, ordinal as u32, idx as u32, 3);
            let t = quantize_probability(f64::from(v.min(1.0)), 16).unwrap();
            full.push(Some(ref_stream(seed, t, m)));
        }
    }
    (0..segments)
        .map(|e| {
            full.iter()
                .map(|s| s.as_ref().map(|s| ref_slice(s, e * seg_len, seg_len)))
                .collect()
        })
        .collect()
}

/// The original two-step MAC: fresh `and` stream per lane, `or_assign` into
/// a freshly allocated accumulator, reallocated at every group boundary.
fn ref_mac_segment(
    cfg: &SimConfig,
    acts: &[Option<Bitstream>],
    weights: &RefWeights,
    lanes: &[(usize, usize)],
    segment: usize,
) -> i64 {
    let seg_len = acts
        .iter()
        .flatten()
        .next()
        .map_or(cfg.per_phase_len(), Bitstream::len);
    let group = cfg.or_group.unwrap_or(usize::MAX).max(1);
    let mut count: i64 = 0;
    for phase in [Phase::Positive, Phase::Negative] {
        let bank = match phase {
            Phase::Positive => &weights.pos,
            Phase::Negative => &weights.neg,
        };
        let mut acc = Bitstream::zeros(seg_len);
        let mut in_group = 0usize;
        let mut phase_count: i64 = 0;
        for &(a_idx, w_idx) in lanes {
            let (Some(a), Some(ws)) = (&acts[a_idx], &bank[w_idx]) else {
                continue;
            };
            acc.or_assign(&a.and(&ws[segment]).unwrap()).unwrap();
            in_group += 1;
            if in_group == group {
                phase_count += acc.count_ones() as i64;
                acc = Bitstream::zeros(seg_len);
                in_group = 0;
            }
        }
        if in_group > 0 {
            phase_count += acc.count_ones() as i64;
        }
        match phase {
            Phase::Positive => count += phase_count,
            Phase::Negative => count -= phase_count,
        }
    }
    count
}

/// Reference conv (+ optionally fused skip-pooling), original loop nesting:
/// output channel outermost, receptive field rebuilt per `(oc, py, px, e)`.
#[allow(clippy::too_many_arguments)]
fn ref_conv(
    cfg: &SimConfig,
    input: &Tensor,
    in_c: usize,
    out_c: usize,
    k: usize,
    stride: usize,
    pad: usize,
    pool: Option<usize>,
    weights: &RefWeights,
    ordinal: usize,
) -> Tensor {
    let shape = input.shape();
    let (h, w) = (shape[1], shape[2]);
    let oh = (h + 2 * pad - k) / stride + 1;
    let ow = (w + 2 * pad - k) / stride + 1;
    let segments = pool.map_or(1, |p| p * p);
    let acts = ref_activation_streams(cfg, input.as_slice(), ordinal, segments);
    let m = cfg.per_phase_len();
    let fan_in = in_c * k * k;
    let (out_h, out_w) = match pool {
        Some(p) => (oh / p, ow / p),
        None => (oh, ow),
    };
    let mut out = Tensor::zeros(&[out_c, out_h, out_w]);
    for oc in 0..out_c {
        for py in 0..out_h {
            for px in 0..out_w {
                let mut count: i64 = 0;
                let window = pool.unwrap_or(1);
                #[allow(clippy::needless_range_loop)]
                for e in 0..segments {
                    let (oy, ox) = if pool.is_some() {
                        (py * window + e / window, px * window + e % window)
                    } else {
                        (py, px)
                    };
                    let mut lanes = Vec::new();
                    for ic in 0..in_c {
                        for ky in 0..k {
                            let iy = (oy * stride + ky) as isize - pad as isize;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for kx in 0..k {
                                let ix = (ox * stride + kx) as isize - pad as isize;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                let a_idx = (ic * h + iy as usize) * w + ix as usize;
                                let w_idx = oc * fan_in + (ic * k + ky) * k + kx;
                                lanes.push((a_idx, w_idx));
                            }
                        }
                    }
                    count += ref_mac_segment(cfg, &acts[e], weights, &lanes, e);
                }
                out.set3(oc, py, px, count as f32 / m as f32);
            }
        }
    }
    out
}

fn ref_dense(
    cfg: &SimConfig,
    input: &Tensor,
    in_n: usize,
    out_n: usize,
    weights: &RefWeights,
    ordinal: usize,
) -> Tensor {
    let acts = ref_activation_streams(cfg, input.as_slice(), ordinal, 1);
    let m = cfg.per_phase_len();
    let mut out = vec![0.0f32; out_n];
    for (o, slot) in out.iter_mut().enumerate() {
        let lanes: Vec<(usize, usize)> = (0..in_n).map(|i| (i, o * in_n + i)).collect();
        let count = ref_mac_segment(cfg, &acts[0], weights, &lanes, 0);
        *slot = count as f32 / m as f32;
    }
    Tensor::from_vec(&[out_n], out).unwrap()
}

/// Straight-line reference of the full conv→pool→relu→flatten→dense network
/// used by the matrix test. Mirrors the engine's prepare/execute semantics:
/// 8-bit quantization, fused pooling iff `skip_pooling`, binary pooling
/// otherwise, counter-domain ReLU clamp.
fn ref_logits(cfg: &SimConfig, net_weights: &NetWeights, input: &Tensor) -> Tensor {
    let aq = Quantizer::unsigned_unit(QUANT_BITS).unwrap();
    let wq = Quantizer::signed_unit(QUANT_BITS).unwrap();
    let x = input.map(|v| aq.quantize_value(v.clamp(0.0, 1.0)));

    let conv_w: Vec<f32> = net_weights
        .conv
        .iter()
        .map(|&w| wq.quantize_value(w))
        .collect();
    let dense_w: Vec<f32> = net_weights
        .dense
        .iter()
        .map(|&w| wq.quantize_value(w))
        .collect();

    let pool = if cfg.skip_pooling { Some(2) } else { None };
    let segments = pool.map_or(1, |p| p * p);
    let cw = ref_weight_streams(cfg, &conv_w, 0, segments);
    let x = ref_conv(cfg, &x, 1, 2, 3, 1, 1, pool, &cw, 0);
    let x = if cfg.skip_pooling {
        x
    } else {
        let mut p = AvgPool2d::new(2).unwrap();
        p.forward(&x).unwrap()
    };
    let x = x.map(|v| v.clamp(0.0, 1.0));
    let x = x.to_flat();
    let dw = ref_weight_streams(cfg, &dense_w, 1, 1);
    ref_dense(cfg, &x, 2 * 4 * 4, 4, &dw, 1)
}

struct NetWeights {
    conv: Vec<f32>,
    dense: Vec<f32>,
}

/// Deterministic weights exercising every lane kind: positive, negative,
/// exactly zero, and full-scale.
fn net_weights() -> NetWeights {
    let conv: Vec<f32> = (0..2 * 9)
        .map(|i| match i % 5 {
            0 => 0.0,
            1 => 1.0,
            2 => -0.75,
            3 => 0.4,
            _ => -0.1,
        })
        .collect();
    let dense: Vec<f32> = (0..4 * 32)
        .map(|i| ((i as f32 * 0.13).sin()) * if i % 7 == 0 { 0.0 } else { 0.9 })
        .collect();
    NetWeights { conv, dense }
}

fn build_net(w: &NetWeights) -> Network {
    let mut net = Network::new();
    let mut conv = Conv2d::new(1, 2, 3, 1, 1, AccumMode::OrApprox).unwrap();
    conv.weights_mut().copy_from_slice(&w.conv);
    net.push_conv(conv);
    net.push_avg_pool(AvgPool2d::new(2).unwrap());
    net.push_relu(Relu::clamped());
    net.push_flatten();
    let mut fc = Dense::new(2 * 4 * 4, 4, AccumMode::OrApprox).unwrap();
    fc.weights_mut().copy_from_slice(&w.dense);
    net.push_dense(fc);
    net
}

/// Input exercising zero activations (gated lanes), saturated ones, and a
/// ramp in between.
fn test_input() -> Tensor {
    let v: Vec<f32> = (0..64)
        .map(|i| match i % 6 {
            0 => 0.0,
            1 => 1.0,
            _ => (i as f32) / 63.0,
        })
        .collect();
    Tensor::from_vec(&[1, 8, 8], v).unwrap()
}

#[test]
fn fused_path_matches_reference_across_config_matrix() {
    let w = net_weights();
    let net = build_net(&w);
    let input = test_input();
    let mut scratch = SimScratch::default();
    let mut checked = 0usize;
    for or_group in [None, Some(3)] {
        for skip_pooling in [true, false] {
            for shared_act_rng in [true, false] {
                for regenerate_streams in [true, false] {
                    let cfg = SimConfig {
                        or_group,
                        skip_pooling,
                        shared_act_rng,
                        regenerate_streams,
                        ..SimConfig::with_stream_len(128).unwrap()
                    };
                    let sim = ScSimulator::new(cfg);
                    let prepared = sim.prepare(&net).unwrap();
                    let got = run_one(&sim, &prepared, &input, &mut scratch);
                    let want = ref_logits(&cfg, &w, &input);
                    assert_eq!(
                        got.as_slice(),
                        want.as_slice(),
                        "logits diverge for or_group={or_group:?} \
                         skip_pooling={skip_pooling} shared_act_rng={shared_act_rng} \
                         regenerate_streams={regenerate_streams}"
                    );
                    checked += 1;
                }
            }
        }
    }
    assert_eq!(checked, 16);
}

#[test]
fn scratch_reuse_is_bit_identical_to_fresh_scratch() {
    let net = build_net(&net_weights());
    let input = test_input();
    let cfg = SimConfig {
        or_group: Some(3),
        shared_act_rng: true,
        ..SimConfig::with_stream_len(128).unwrap()
    };
    let sim = ScSimulator::new(cfg);
    let prepared = sim.prepare(&net).unwrap();
    let mut reused = SimScratch::default();
    // Dirty the scratch with a differently-shaped run first.
    let other = SimConfig::with_stream_len(256).unwrap();
    let osim = ScSimulator::new(other);
    let oprepared = osim.prepare(&net).unwrap();
    run_one(&osim, &oprepared, &input, &mut reused);
    let a = run_one(&sim, &prepared, &input, &mut reused);
    let b = run_one(&sim, &prepared, &input, &mut SimScratch::default());
    assert_eq!(a.as_slice(), b.as_slice());
}

#[test]
fn stream_length_tail_words_stay_exact() {
    // 96-bit phases leave a 32-bit tail word; 160-bit phases span word
    // boundaries with segments of 40 bits when pooled 2x2.
    let w = net_weights();
    let net = build_net(&w);
    let input = test_input();
    for stream in [192usize, 320] {
        let cfg = SimConfig {
            or_group: Some(5),
            ..SimConfig::with_stream_len(stream).unwrap()
        };
        let sim = ScSimulator::new(cfg);
        let got = sim.run(&net, &input).unwrap();
        let want = ref_logits(&cfg, &w, &input);
        assert_eq!(got.as_slice(), want.as_slice(), "stream {stream}");
    }
}
