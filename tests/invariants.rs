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
//! prepared weight banks and their per-lane byte accounting must not move.
//!
//! The server's one I/O path gets a smoke run over loopback: every request
//! is answered once, the drain invariant holds, served logits equal the
//! engine's, and requests that set a retired field are refused.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use acoustic::datasets::DataKind;
use acoustic::nn::layers::{AccumMode, AvgPool2d, Conv2d, Dense, Network, Relu};
use acoustic::nn::serialize::from_text;
use acoustic::nn::Tensor;
use acoustic::runtime::{BatchEngine, ModelCache, PreparedModel, ReadyRequest};
use acoustic::serve::{
    Client, ErrorCode, Frame, InferRequest, ModelRegistry, ModelSpec, ServeConfig, Server,
    StatsSnapshot,
};
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
/// analytic per-lane `materialized_bytes`. The constants were recorded
/// while the per-lane layout still existed and matched the stream pool
/// bit for bit, and its measured allocation equalled `materialized_bytes`;
/// the orbit-window weights digest the pool's logical content, so the
/// constants fail on any change to the weight streams, the kernels or the
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
        assert_eq!(
            stats.materialized_bytes, materialized_bytes,
            "{name}: bytes"
        );
    }
}

/// Every way a received request can leave the server.
fn drain_accounted(s: &StatsSnapshot) -> u64 {
    s.completed
        + s.rejected_overload
        + s.rejected_model_budget
        + s.rejected_unknown_model
        + s.rejected_shutdown
        + s.rejected_warming
        + s.expired
        + s.failed
}

/// The tiny net served over loopback on 2 pipelined connections, with
/// plain, `stream_len`, unknown-model and `margin` requests; both retired
/// fields are answered `BadInput`.
#[test]
fn served_requests_are_answered_once_and_match_the_engine() {
    if !acoustic::net::Poller::supported() {
        return; // serving needs the readiness-polling shim
    }
    const MODEL_ID: u32 = 1;
    const PER_CONN: u64 = 8;
    let cfg = SimConfig::with_stream_len(64).unwrap();
    let registry = ModelRegistry::build(
        vec![ModelSpec {
            id: MODEL_ID,
            network: net(),
            cfg,
        }],
        &Arc::new(ModelCache::new()),
    )
    .unwrap();
    let handle = Server::start(
        "127.0.0.1:0",
        registry,
        ServeConfig {
            default_deadline: Duration::from_secs(30),
            ..ServeConfig::default()
        },
    )
    .unwrap();

    let xs = images(4);
    // Request `id`'s kind is `id % 4`: plain, stream_len, unknown model,
    // margin.
    let request = |id: u64| {
        let x = &xs[(id % 4) as usize];
        InferRequest {
            request_id: id,
            model_id: if id % 4 == 2 { 99 } else { MODEL_ID },
            deadline_micros: 0,
            stream_len: (id % 4 == 1).then_some(32),
            margin: (id % 4 == 3).then_some(0.5),
            shape: x.shape().iter().map(|&d| d as u32).collect(),
            values: x.as_slice().to_vec(),
        }
    };
    let mut clients: Vec<Client> = (0..2)
        .map(|_| Client::connect(handle.addr()).unwrap())
        .collect();
    for (c, client) in clients.iter_mut().enumerate() {
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        for k in 0..PER_CONN {
            let id = c as u64 * 100 + k;
            client.send(&Frame::InferRequest(request(id))).unwrap();
        }
    }
    let mut replies: HashMap<u64, Frame> = HashMap::new();
    for client in &mut clients {
        for _ in 0..PER_CONN {
            let frame = client.recv().unwrap();
            let id = frame.request_id();
            assert!(
                replies.insert(id, frame).is_none(),
                "id {id} answered twice"
            );
        }
    }

    let stats = handle.shutdown();
    for client in &mut clients {
        // The server closed the connection with nothing more to say.
        assert!(client.recv().is_err(), "extra reply after shutdown");
    }
    assert_eq!(stats.received, 2 * PER_CONN, "{stats:?}");
    assert_eq!(drain_accounted(&stats), stats.received, "{stats:?}");
    assert_eq!(stats.completed, PER_CONN / 2, "{stats:?}");
    assert_eq!(stats.accepted, PER_CONN / 2, "{stats:?}");
    assert_eq!(stats.rejected_unknown_model, PER_CONN / 2, "{stats:?}");
    assert_eq!(stats.failed, PER_CONN, "{stats:?}");

    let model = PreparedModel::compile(cfg, &net()).unwrap();
    let engine = BatchEngine::new(1).unwrap();
    assert_eq!(replies.len(), 2 * PER_CONN as usize);
    for (&id, frame) in &replies {
        match (id % 4, frame) {
            (0, Frame::InferResponse(r)) => {
                let req = ReadyRequest::new(id, &xs[0]);
                let gold = engine.run_ready(&model, &[req]).unwrap().remove(0).unwrap();
                assert_eq!(r.effective_len, 64, "id {id}");
                let got: Vec<u32> = r.logits.iter().map(|v| v.to_bits()).collect();
                let want: Vec<u32> = gold.as_slice().iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "id {id}");
            }
            (2, Frame::Error(e)) => assert_eq!(e.code, ErrorCode::UnknownModel, "id {id}"),
            (1 | 3, Frame::Error(e)) => assert_eq!(e.code, ErrorCode::BadInput, "id {id}"),
            (kind, other) => panic!("id {id} (kind {kind}): unexpected reply {other:?}"),
        }
    }
}
