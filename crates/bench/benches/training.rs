//! Benchmarks behind E5 and E7: training-step cost per accumulation mode
//! (the §II-D speedup claim) and bit-level stochastic inference cost per
//! stream length.
//!
//! Runs on the repo's built-in harness (`acoustic_bench::harness`) — the
//! offline build has no criterion. Pass `--quick` for a short CI run.

use std::hint::black_box;

use acoustic_bench::harness::Harness;
use acoustic_bench::models::tiny_cnn;
use acoustic_nn::layers::AccumMode;
use acoustic_nn::loss::cross_entropy;
use acoustic_simfunc::{RunSpec, ScSimulator, SimConfig, SimScratch};

fn main() {
    let mut h = Harness::new("training");

    let data = acoustic_datasets::mnist_like(4, 0, 7).train;
    for (label, mode) in [
        ("linear", AccumMode::Linear),
        ("or_approx", AccumMode::OrApprox),
        ("or_exact", AccumMode::OrExact),
    ] {
        let mut net = tiny_cnn(mode).unwrap();
        h.bench("training_step", label, None, || {
            for (x, y) in &data {
                let logits = net.forward(x).unwrap();
                let (_, grad) = cross_entropy(&logits, *y).unwrap();
                net.backward(&grad).unwrap();
            }
            net.apply_update(0.01, 0.9);
            black_box(&net);
        });
    }

    let net = tiny_cnn(AccumMode::OrApprox).unwrap();
    let (img, _) = acoustic_datasets::mnist_like(1, 0, 9).train.pop().unwrap();
    for stream in [128usize, 256, 512] {
        let sim = ScSimulator::new(SimConfig::with_stream_len(stream).unwrap());
        let prepared = sim.prepare(&net).unwrap();
        let spec = RunSpec::one(&img, sim.config().act_seed);
        let mut scratch = SimScratch::default();
        h.bench("sc_inference", stream, None, || {
            black_box(sim.execute(&prepared, &spec, &mut scratch).unwrap())
        });
    }

    h.finish();
}
