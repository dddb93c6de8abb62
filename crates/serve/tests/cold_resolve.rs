//! Non-blocking cold resolve: a request for a model whose prepared banks
//! were evicted must get a typed `Warming` reply immediately while a
//! single background thread recompiles it — request workers never stall
//! on stream generation, so warm-model traffic keeps completing. A request
//! no model could answer is `BadInput` before the model is resolved, so it
//! never starts a prepare.

use std::sync::Arc;
use std::time::{Duration, Instant};

use acoustic_core::DetRng;
use acoustic_nn::layers::{AccumMode, AvgPool2d, Conv2d, Dense, Network, Relu};
use acoustic_nn::Tensor;
use acoustic_runtime::ModelCache;
use acoustic_serve::protocol::{ErrorCode, Frame, InferRequest, StatsSnapshot};
use acoustic_serve::{Client, ModelRegistry, ModelSpec, ServeConfig, Server};
use acoustic_simfunc::SimConfig;

const FAST_ID: u32 = 1;
const HEAVY_ID: u32 = 2;

fn fast_network() -> Network {
    let mut net = Network::new();
    net.push_conv(Conv2d::new(1, 2, 3, 1, 1, AccumMode::OrApprox).unwrap());
    net.push_avg_pool(AvgPool2d::new(2).unwrap());
    net.push_relu(Relu::clamped());
    net.push_flatten();
    net.push_dense(Dense::new(2 * 4 * 4, 4, AccumMode::OrApprox).unwrap());
    net
}

/// Big enough that a debug-build prepare takes a visible fraction of a
/// second (dense 1024×32 weight lanes at stream 2048), small enough that
/// the suite stays fast.
fn heavy_network() -> Network {
    let mut net = Network::new();
    net.push_conv(Conv2d::new(1, 4, 3, 1, 1, AccumMode::OrApprox).unwrap());
    net.push_relu(Relu::clamped());
    net.push_flatten();
    net.push_dense(Dense::new(4 * 16 * 16, 32, AccumMode::OrApprox).unwrap());
    net
}

fn image(side: usize) -> Tensor {
    let mut rng = DetRng::seed_from_u64(7);
    let vals: Vec<f32> = (0..side * side).map(|_| rng.next_f32()).collect();
    Tensor::from_vec(&[1, side, side], vals).unwrap()
}

fn request(id: u64, model_id: u32, img: &Tensor) -> InferRequest {
    InferRequest {
        request_id: id,
        model_id,
        deadline_micros: 0,
        stream_len: None,
        margin: None,
        shape: img.shape().iter().map(|&d| d as u32).collect(),
        values: img.as_slice().to_vec(),
    }
}

fn drain_accounted(stats: &StatsSnapshot) -> u64 {
    stats.completed
        + stats.rejected_overload
        + stats.rejected_model_budget
        + stats.rejected_unknown_model
        + stats.rejected_shutdown
        + stats.rejected_warming
        + stats.expired
        + stats.failed
}

fn heavy_cfg() -> SimConfig {
    SimConfig::with_stream_len(2048).unwrap()
}

/// Both models registered, then evicted, then only the fast one re-warmed:
/// the heavy model starts cold, exactly as after a budgeted-cache
/// eviction. Returns the registry, its cache and the prepares so far.
fn cold_heavy_registry() -> (ModelRegistry, Arc<ModelCache>, u64) {
    let fast_cfg = SimConfig::with_stream_len(64).unwrap();
    let cache = Arc::new(ModelCache::new());
    let registry = ModelRegistry::build(
        vec![
            ModelSpec {
                id: FAST_ID,
                network: fast_network(),
                cfg: fast_cfg,
            },
            ModelSpec {
                id: HEAVY_ID,
                network: heavy_network(),
                cfg: heavy_cfg(),
            },
        ],
        &cache,
    )
    .unwrap();
    cache.clear();
    registry.resolve(FAST_ID).unwrap();
    let prepares = cache.prepare_stats().prepares_completed;
    assert_eq!(prepares, 3, "2 warm-ups + 1 re-warm");
    (registry, cache, prepares)
}

#[test]
fn cold_model_warms_in_background_while_warm_traffic_flows() {
    let (registry, _cache, prepares_before) = cold_heavy_registry();
    let handle = Server::start(
        "127.0.0.1:0",
        registry,
        ServeConfig {
            workers: 1,
            default_deadline: Duration::from_secs(60),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let fast_img = image(8);
    let heavy_img = image(16);
    let mut client = Client::connect(handle.addr()).unwrap();
    let started = Instant::now();

    // Two back-to-back cold requests: the first must bounce with `Warming`
    // immediately, and a warm request sent *behind* them on the same
    // connection must complete. The second bounces too while the compile
    // is in flight; a release-build prepare of the heavy model takes about
    // a millisecond, so it may already have landed and the second request
    // be answered. Either way exactly one background compile runs
    // (asserted below); `request_prepare_is_single_flight` in `server.rs`
    // pins the deduplication without a race.
    client
        .send(&Frame::InferRequest(request(0, HEAVY_ID, &heavy_img)))
        .unwrap();
    client
        .send(&Frame::InferRequest(request(1, HEAVY_ID, &heavy_img)))
        .unwrap();
    client
        .send(&Frame::InferRequest(request(2, FAST_ID, &fast_img)))
        .unwrap();
    match client.recv().unwrap() {
        Frame::Error(e) => {
            assert_eq!(e.request_id, 0);
            assert_eq!(e.code, ErrorCode::Warming, "{}", e.message);
        }
        other => panic!("expected Warming, got {other:?}"),
    }
    match client.recv().unwrap() {
        Frame::Error(e) => {
            assert_eq!(e.request_id, 1);
            assert_eq!(e.code, ErrorCode::Warming, "{}", e.message);
        }
        Frame::InferResponse(r) => assert_eq!(r.request_id, 1),
        other => panic!("expected Warming or logits, got {other:?}"),
    }
    let warm_reply_at = match client.recv().unwrap() {
        Frame::InferResponse(r) => {
            assert_eq!(r.request_id, 2);
            started.elapsed()
        }
        other => panic!("expected fast-model response, got {other:?}"),
    };

    // Retry the heavy model until the background prepare lands. Every
    // intermediate reply must be a typed `Warming` error, never a stall.
    let mut retries = 0u64;
    let heavy_done_at = loop {
        client
            .send(&Frame::InferRequest(request(
                100 + retries,
                HEAVY_ID,
                &heavy_img,
            )))
            .unwrap();
        match client.recv().unwrap() {
            Frame::InferResponse(r) => {
                assert_eq!(r.request_id, 100 + retries);
                break started.elapsed();
            }
            Frame::Error(e) if e.code == ErrorCode::Warming => {
                retries += 1;
                assert!(retries < 10_000, "heavy model never warmed");
                std::thread::sleep(Duration::from_millis(10));
            }
            other => panic!("unexpected reply {other:?}"),
        }
    };
    assert!(
        warm_reply_at < heavy_done_at,
        "warm traffic must be answered while the prepare is in flight \
         ({warm_reply_at:?} vs {heavy_done_at:?})"
    );

    let stats = handle.shutdown();
    assert_eq!(drain_accounted(&stats), stats.received, "{stats:?}");
    assert!(stats.rejected_warming >= 1, "{stats:?}");
    assert_eq!(stats.expired, 0, "no deadline expiries: {stats:?}");
    // Single-flight: the burst of cold requests produced exactly one
    // background compile.
    assert_eq!(stats.prepares_completed, prepares_before + 1, "{stats:?}");
    assert!(stats.prepare_ms_total > 0, "{stats:?}");
    assert_eq!(stats.prepares_in_flight, 0, "{stats:?}");
}

/// A NaN value or the retired `stream_len` field, sent for the evicted
/// heavy model: both are `BadInput` at once, never `Warming` (which would
/// have the client retry a request that can never succeed), and neither
/// starts a background prepare.
#[test]
fn malformed_request_for_a_cold_model_is_bad_input_not_warming() {
    let (registry, cache, prepares_before) = cold_heavy_registry();
    let handle = Server::start("127.0.0.1:0", registry, ServeConfig::default()).unwrap();
    let heavy_img = image(16);
    let mut nan = request(0, HEAVY_ID, &heavy_img);
    nan.values[3] = f32::NAN;
    let mut with_len = request(1, HEAVY_ID, &heavy_img);
    with_len.stream_len = Some(2048);
    let mut client = Client::connect(handle.addr()).unwrap();
    for req in [nan, with_len] {
        let id = req.request_id;
        client.send(&Frame::InferRequest(req)).unwrap();
        match client.recv().unwrap() {
            Frame::Error(e) => {
                assert_eq!(e.request_id, id);
                assert_eq!(e.code, ErrorCode::BadInput, "{}", e.message);
            }
            other => panic!("expected BadInput, got {other:?}"),
        }
    }

    let stats = handle.shutdown();
    assert_eq!(drain_accounted(&stats), stats.received, "{stats:?}");
    assert_eq!(stats.received, 2, "{stats:?}");
    assert_eq!(stats.failed, 2, "{stats:?}");
    assert_eq!(stats.rejected_warming, 0, "{stats:?}");
    assert_eq!(stats.prepares_completed, prepares_before, "{stats:?}");
    assert!(!cache.contains(&heavy_cfg(), &heavy_network()));
}
