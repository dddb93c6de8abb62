//! Micro-benchmarks of the stochastic-computing kernels behind E1–E4:
//! stream generation, AND/OR MAC, wide accumulation, and skipped pooling —
//! plus the fused word-level kernels of the zero-allocation MAC rewrite
//! (fused `acc |= a & w`, single-pass SNG bank fill, and a full
//! `mac_segment`-shaped proxy reporting ns per MAC lane), and the tiled
//! MAC path across tile widths under both kernel choices.
//!
//! Runs on the repo's built-in harness (`acoustic_bench::harness`) — the
//! offline build has no criterion. Pass `--quick` for a short CI run.
//! Writes per-kernel timings (including ns/MAC where an element count is
//! known) to `results/BENCH_kernels.json`.

use std::fmt::Write as _;
use std::hint::black_box;

use acoustic_baselines::mux_tree::mux_tree_accumulate;
use acoustic_bench::harness::{json_string, Harness};
use acoustic_core::bitstream::count_ones_words;
use acoustic_core::pooling::skip_pool_concat;
use acoustic_core::sng::quantize_probability;
use acoustic_core::{or_accumulate, Bitstream, Lfsr, Sng, SngBank, SplitUnipolarMac, SplitWeight};
use acoustic_nn::layers::{AccumMode, AvgPool2d, Conv2d, Dense, Network, Relu};
use acoustic_nn::Tensor;
use acoustic_simfunc::{
    HostFingerprint, KernelChoice, KernelStats, ScSimulator, SimConfig, SimScratch,
};

fn lane_streams(k: usize, n: usize, v: f64) -> Vec<Bitstream> {
    (0..k)
        .map(|i| {
            let seed = 0x1000u32.wrapping_add(i as u32 * 77) & 0xFFFF;
            let mut sng = Sng::new(
                Lfsr::maximal(16, if seed == 0 { 1 } else { seed }).unwrap(),
                16,
            );
            sng.generate(v, n).unwrap()
        })
        .collect()
}

fn main() {
    let mut h = Harness::new("sc_kernels");

    for n in [128usize, 256, 1024] {
        let mut sng = Sng::new(Lfsr::maximal(16, 0xACE1).unwrap(), 16);
        h.bench("sng_generate", n, Some(n as u64), || {
            black_box(sng.generate(0.5, n).unwrap())
        });
    }

    for k in [96usize, 512, 2304] {
        let streams = lane_streams(k, 256, 0.02);
        h.bench("or_accumulate", k, Some(k as u64), || {
            black_box(or_accumulate(&streams).unwrap())
        });
    }

    for k in [96usize, 512] {
        let streams = lane_streams(k, 256, 0.02);
        h.bench("mux_tree_accumulate", k, Some(k as u64), || {
            black_box(mux_tree_accumulate(&streams, 0x7777).unwrap())
        });
    }

    for fan_in in [96usize, 288] {
        let weights: Vec<SplitWeight> = (0..fan_in)
            .map(|i| SplitWeight::from_real(if i % 2 == 0 { 0.02 } else { -0.02 }).unwrap())
            .collect();
        let acts = vec![0.5f64; fan_in];
        let mac = SplitUnipolarMac::new(128, 96);
        h.bench("split_unipolar_mac", fan_in, Some(fan_in as u64), || {
            black_box(mac.execute(&acts, &weights, 0xACE1, 0x1D2C).unwrap())
        });
    }

    for k in [4usize, 9] {
        let seg = 252 / k;
        let short = lane_streams(k, seg, 0.4);
        h.bench("skip_pool_concat", k, None, || {
            black_box(skip_pool_concat(&short).unwrap())
        });
    }

    // --- fused-kernel rewrite: word-level MAC primitives -------------------

    // One OR-accumulated AND product per lane: fused single pass vs the
    // historical two-step form that allocates an intermediate stream.
    for k in [96usize, 2304] {
        let acts = lane_streams(k, 128, 0.5);
        let wgts = lane_streams(k, 128, 0.3);
        let mut acc = Bitstream::zeros(128);
        h.bench("fused_or_assign_and", k, Some(k as u64), || {
            acc.clear_bits();
            for (a, w) in acts.iter().zip(&wgts) {
                acc.or_assign_and(a, w).unwrap();
            }
            black_box(acc.count_ones())
        });
        let mut acc2 = Bitstream::zeros(128);
        h.bench("two_step_and_or", k, Some(k as u64), || {
            acc2.clear_bits();
            for (a, w) in acts.iter().zip(&wgts) {
                acc2.or_assign(&a.and(w).unwrap()).unwrap();
            }
            black_box(acc2.count_ones())
        });
    }

    // Activation-stream generation for one layer's worth of values:
    // single-pass shared bank vs one independent SNG walk per value.
    for streams in [256usize, 1024] {
        let n = 128usize;
        let words_per = n.div_ceil(64);
        let thresholds: Vec<u32> = (0..streams)
            .map(|i| quantize_probability(i as f64 / streams as f64, 16).unwrap())
            .collect();
        let mut flat = vec![0u64; streams * words_per];
        let mut bank = SngBank::new(16, 0xACE1).unwrap();
        h.bench(
            "sng_bank_fill_single_pass",
            streams,
            Some((streams * n) as u64),
            || {
                bank.fill_quantized(&thresholds, n, &mut flat);
                black_box(flat[0])
            },
        );
        h.bench(
            "sng_per_stream_fill",
            streams,
            Some((streams * n) as u64),
            || {
                for (j, &t) in thresholds.iter().enumerate() {
                    let mut sng = Sng::new(Lfsr::maximal(16, 0xACE1).unwrap(), 16);
                    sng.fill_quantized(t, n, &mut flat[j * words_per..(j + 1) * words_per]);
                }
                black_box(flat[0])
            },
        );
    }

    // A mac_segment-shaped proxy: word-fused AND-OR over borrowed lane
    // views with 96-grouped counter hand-off — `elements` is MAC lanes, so
    // the JSON's ns_per_elem column reads as ns/MAC.
    for fan_in in [96usize, 2304] {
        let seg_words = 2usize; // 128-bit segment
        let lane_words: Vec<Vec<u64>> = lane_streams(fan_in, 128, 0.5)
            .iter()
            .map(|s| s.as_words().to_vec())
            .collect();
        let wgt_words: Vec<Vec<u64>> = lane_streams(fan_in, 128, 0.3)
            .iter()
            .map(|s| s.as_words().to_vec())
            .collect();
        let mut acc = vec![0u64; seg_words];
        h.bench("fused_mac_segment", fan_in, Some(fan_in as u64), || {
            let mut count = 0i64;
            acc.fill(0);
            let mut in_group = 0usize;
            for (a, w) in lane_words.iter().zip(&wgt_words) {
                for ((acc_w, &aw), &ww) in acc.iter_mut().zip(a).zip(w) {
                    *acc_w |= aw & ww;
                }
                in_group += 1;
                if in_group == 96 {
                    count += count_ones_words(&acc) as i64;
                    acc.fill(0);
                    in_group = 0;
                }
            }
            if in_group > 0 {
                count += count_ones_words(&acc) as i64;
            }
            black_box(count)
        });
    }

    // --- kernel choice and image tiling ------------------------------------

    // One weight-bank walk shared by `tile` images, under each kernel
    // choice, on a small conv+dense net at stream 128 (single-word
    // segments). `auto` runs the AVX-512 block on 8-image groups where the
    // host has `avx512f`; a tile of 1 is a solo run, scalar under either
    // choice. `elements` is the tile width, so ns_per_elem reads as ns per
    // image.
    let net = bench_net();
    let mut scratch = SimScratch::default();
    let mut skips: Vec<(String, KernelStats)> = Vec::new();
    for (tag, kernel) in [
        ("scalar", KernelChoice::Scalar),
        ("auto", KernelChoice::Auto),
    ] {
        let cfg = SimConfig {
            kernel,
            ..SimConfig::with_stream_len(128).unwrap()
        };
        let sim = ScSimulator::new(cfg);
        let prepared = sim.prepare(&net).unwrap();
        for tile in [1usize, 2, 4, 8, 16, 64] {
            let images: Vec<Tensor> = (0..tile).map(bench_image).collect();
            let refs: Vec<&Tensor> = images.iter().collect();
            let seeds: Vec<u32> = (0..tile as u32).map(|i| 0xACE1 + i).collect();
            let id = format!("{tag}_{tile}");
            scratch.take_kernel_stats();
            sim.run_prepared_tile_with(&prepared, &refs, &seeds, &mut scratch)
                .unwrap();
            skips.push((format!("tile_sweep/{id}"), scratch.take_kernel_stats()));
            h.bench("tile_sweep", &id, Some(tile as u64), || {
                black_box(
                    sim.run_prepared_tile_with(&prepared, &refs, &seeds, &mut scratch)
                        .unwrap(),
                )
            });
        }
    }

    h.finish();
    write_results(&h, &skips);
}

/// Small conv+pool+dense net for the engine-level kernel benches.
fn bench_net() -> Network {
    let mut net = Network::new();
    let mut conv = Conv2d::new(1, 4, 3, 1, 1, AccumMode::OrApprox).unwrap();
    for (i, w) in conv.weights_mut().iter_mut().enumerate() {
        *w = match i % 5 {
            0 => 0.0,
            1 => 0.8,
            2 => -0.5,
            3 => 0.3,
            _ => -0.1,
        };
    }
    net.push_conv(conv);
    net.push_avg_pool(AvgPool2d::new(2).unwrap());
    net.push_relu(Relu::clamped());
    net.push_flatten();
    let mut fc = Dense::new(4 * 6 * 6, 10, AccumMode::OrApprox).unwrap();
    for (i, w) in fc.weights_mut().iter_mut().enumerate() {
        *w = ((i as f32 * 0.17).sin()) * if i % 6 == 0 { 0.0 } else { 0.7 };
    }
    net.push_dense(fc);
    net
}

/// One 12×12 input with zeros, ones, and a ramp; distinct per image index.
fn bench_image(i: usize) -> Tensor {
    let v: Vec<f32> = (0..144)
        .map(|j| match (i + j) % 6 {
            0 => 0.0,
            1 => 1.0,
            _ => ((i + j) % 144) as f32 / 143.0,
        })
        .collect();
    Tensor::from_vec(&[1, 12, 12], v).unwrap()
}

/// Writes every measurement (with derived ns/element where available),
/// the engine-level skip-rate counters and the host fingerprint to
/// `results/BENCH_kernels.json`.
fn write_results(h: &Harness, skips: &[(String, KernelStats)]) {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"bench\": {},", json_string("sc_kernels"));
    let _ = writeln!(out, "  \"host\": {},", HostFingerprint::detect().json());
    out.push_str("  \"skip_rates\": [\n");
    for (i, (id, s)) in skips.iter().enumerate() {
        let presented = s.mac_lanes + s.sat_lanes_skipped + s.zero_seg_skips;
        let fraction = if presented == 0 {
            0.0
        } else {
            (s.sat_lanes_skipped + s.zero_seg_skips) as f64 / presented as f64
        };
        let _ = write!(
            out,
            "    {{\"id\": {}, \"mac_lanes\": {}, \"sat_group_exits\": {}, \
             \"sat_lanes_skipped\": {}, \"zero_seg_skips\": {}, \"skip_fraction\": {:.4}}}",
            json_string(id),
            s.mac_lanes,
            s.sat_group_exits,
            s.sat_lanes_skipped,
            s.zero_seg_skips,
            fraction,
        );
        out.push_str(if i + 1 < skips.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    out.push_str("  \"kernels\": [\n");
    let results = h.results();
    for (i, r) in results.iter().enumerate() {
        let ns_per_elem = r
            .elements
            .map(|e| format!("{:.3}", r.mean_ns / e as f64))
            .unwrap_or_else(|| "null".into());
        let _ = write!(
            out,
            "    {{\"group\": {}, \"id\": {}, \"mean_ns\": {:.1}, \"min_ns\": {:.1}, \
             \"elements\": {}, \"ns_per_elem\": {}}}",
            json_string(&r.group),
            json_string(&r.id),
            r.mean_ns,
            r.min_ns,
            r.elements
                .map(|e| e.to_string())
                .unwrap_or_else(|| "null".into()),
            ns_per_elem,
        );
        out.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/BENCH_kernels.json"
    );
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).unwrap();
    }
    std::fs::write(path, out).unwrap();
    println!("wrote {path}");
}
