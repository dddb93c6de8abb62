//! End-to-end server tests over real TCP sockets.
//!
//! Everything runs against a tiny 8×8 CNN so the suite stays fast in
//! debug builds; "slow" requests are made deterministically slow by
//! serving a model prepared at a long stream length rather than by
//! sleeping, which keeps the overload/deadline scenarios reproducible on a
//! 1-core host.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use acoustic_core::DetRng;
use acoustic_nn::layers::{AccumMode, AvgPool2d, Conv2d, Dense, Network, Relu};
use acoustic_nn::Tensor;
use acoustic_runtime::{BatchEngine, ModelCache, PreparedModel, ReadyRequest};
use acoustic_serve::protocol::{encode_frame, ErrorCode, Frame, InferRequest, StatsSnapshot};
use acoustic_serve::{
    Client, InferReply, ModelRegistry, ModelSpec, ServeConfig, Server, ServerHandle,
};
use acoustic_simfunc::SimConfig;

const MODEL_ID: u32 = 1;

fn tiny_network() -> Network {
    let mut net = Network::new();
    net.push_conv(Conv2d::new(1, 2, 3, 1, 1, AccumMode::OrApprox).unwrap());
    net.push_avg_pool(AvgPool2d::new(2).unwrap());
    net.push_relu(Relu::clamped());
    net.push_flatten();
    net.push_dense(Dense::new(2 * 4 * 4, 4, AccumMode::OrApprox).unwrap());
    net
}

fn tiny_images(n: usize) -> Vec<Tensor> {
    let mut rng = DetRng::seed_from_u64(33);
    (0..n)
        .map(|_| {
            let vals: Vec<f32> = (0..64).map(|_| rng.next_f32()).collect();
            Tensor::from_vec(&[1, 8, 8], vals).unwrap()
        })
        .collect()
}

/// Starts a server on an ephemeral port plus a locally prepared copy of
/// the same model for golden evaluation.
fn start(stream_len: usize, cfg: ServeConfig) -> (ServerHandle, Arc<PreparedModel>) {
    let sim = SimConfig::with_stream_len(stream_len).unwrap();
    let cache = Arc::new(ModelCache::new());
    let golden = cache.get_or_compile(sim, &tiny_network()).unwrap();
    let registry = ModelRegistry::build(
        vec![ModelSpec {
            id: MODEL_ID,
            network: tiny_network(),
            cfg: sim,
        }],
        &cache,
    )
    .unwrap();
    let handle = Server::start("127.0.0.1:0", registry, cfg).unwrap();
    (handle, golden)
}

/// Every way a received request can leave the server. The drain invariant
/// is `drain_accounted(stats) == stats.received` once all I/O has settled.
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

fn request(id: u64, img: &Tensor) -> InferRequest {
    InferRequest {
        request_id: id,
        model_id: MODEL_ID,
        deadline_micros: 0,
        stream_len: None,
        margin: None,
        shape: img.shape().iter().map(|&d| d as u32).collect(),
        values: img.as_slice().to_vec(),
    }
}

#[test]
fn concurrent_clients_are_bit_identical_with_direct_engine() {
    let images = tiny_images(6);
    // Mixed request kinds: plain, a stream-length override at the model's
    // own length, a margin override. Both retired overrides are refused at
    // admission; plain requests are bit-exact.
    let kinds: Vec<(Option<u32>, Option<f32>)> =
        vec![(None, None), (Some(256), None), (None, Some(0.8))];

    for workers in [1usize, 3] {
        let (handle, golden) = start(
            256,
            ServeConfig {
                workers,
                default_deadline: Duration::from_secs(30),
                ..ServeConfig::default()
            },
        );
        let addr = handle.addr();

        // 3 clients × 4 requests each, interleaved ids.
        let replies: Vec<(u64, InferReply)> = std::thread::scope(|scope| {
            let mut joins = Vec::new();
            for c in 0..3u64 {
                let images = &images;
                let kinds = &kinds;
                joins.push(scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    let mut got = Vec::new();
                    for k in 0..4u64 {
                        let id = c + 3 * k;
                        let (stream_len, margin) = kinds[(id % 3) as usize];
                        let req = InferRequest {
                            stream_len,
                            margin,
                            ..request(id, &images[(id % 6) as usize])
                        };
                        got.push((id, client.infer(req).unwrap()));
                    }
                    got
                }));
            }
            joins.into_iter().flat_map(|j| j.join().unwrap()).collect()
        });

        let stats = handle.shutdown();
        assert_eq!(stats.received, 12, "workers={workers}: {stats:?}");
        assert_eq!(stats.completed, 4, "workers={workers}: {stats:?}");
        // Override requests fail at admission and never take a queue slot.
        assert_eq!(stats.failed, 8, "workers={workers}: {stats:?}");
        assert_eq!(stats.accepted, 4, "workers={workers}: {stats:?}");

        // Golden: the 4 plain requests straight through run_ready.
        let engine = BatchEngine::new(1).unwrap();
        for (id, reply) in replies {
            let resp = match reply {
                InferReply::Err(e) if id % 3 != 0 => {
                    assert_eq!(e.code, ErrorCode::BadInput, "id {id}: {e:?}");
                    continue;
                }
                InferReply::Ok(r) if id % 3 == 0 => r,
                other => panic!("request {id}: unexpected reply {other:?}"),
            };
            let ready = ReadyRequest::new(id, &images[(id % 6) as usize]);
            let gold = engine
                .run_ready(&golden, &[ready])
                .unwrap()
                .remove(0)
                .unwrap();
            assert_eq!(resp.effective_len, 256, "id {id}");
            let gold_bits: Vec<u32> = gold.as_slice().iter().map(|v| v.to_bits()).collect();
            let got_bits: Vec<u32> = resp.logits.iter().map(|v| v.to_bits()).collect();
            assert_eq!(gold_bits, got_bits, "id {id} workers {workers}");
        }
    }
}

#[test]
fn malformed_frames_get_typed_errors_not_hangs() {
    let (handle, _golden) = start(64, ServeConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    let images = tiny_images(1);

    // Recoverable garbage: a well-delimited frame with an unknown type.
    let mut bytes = acoustic_serve::protocol::encode_frame(&Frame::StatsRequest(77));
    bytes[5] = 123;
    client.send_raw(&bytes).unwrap();
    match client.recv().unwrap() {
        Frame::Error(e) => {
            assert_eq!(e.code, ErrorCode::Malformed);
            assert_eq!(e.request_id, 77);
        }
        other => panic!("expected error frame, got {other:?}"),
    }

    // The connection survived: a valid request still completes.
    match client.infer(request(0, &images[0])).unwrap() {
        InferReply::Ok(r) => assert_eq!(r.request_id, 0),
        InferReply::Err(e) => panic!("unexpected error {e:?}"),
    }

    // Non-recoverable garbage (bad magic): one typed error, then the
    // server hangs up instead of guessing at frame alignment.
    let mut bytes = acoustic_serve::protocol::encode_frame(&Frame::StatsRequest(9));
    bytes[0] ^= 0xFF;
    client.send_raw(&bytes).unwrap();
    match client.recv().unwrap() {
        Frame::Error(e) => assert_eq!(e.code, ErrorCode::Malformed),
        other => panic!("expected error frame, got {other:?}"),
    }
    assert!(client.recv().is_err(), "server should close the connection");

    let stats = handle.shutdown();
    assert_eq!(stats.rejected_malformed, 2);
    assert_eq!(stats.completed, 1);
}

#[test]
fn unknown_model_bad_input_and_bad_stream_len_are_typed() {
    let (handle, _golden) = start(64, ServeConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    let images = tiny_images(1);

    let mut bad_model = request(1, &images[0]);
    bad_model.model_id = 99;
    match client.infer(bad_model).unwrap() {
        InferReply::Err(e) => assert_eq!(e.code, ErrorCode::UnknownModel),
        other => panic!("expected UnknownModel, got {other:?}"),
    }

    let mut bad_values = request(2, &images[0]);
    bad_values.values[5] = f32::INFINITY;
    match client.infer(bad_values).unwrap() {
        InferReply::Err(e) => assert_eq!(e.code, ErrorCode::BadInput),
        other => panic!("expected BadInput, got {other:?}"),
    }

    // The retired field is refused even at the model's own length.
    for (id, len) in [(3, 100), (4, 64)] {
        let mut with_len = request(id, &images[0]);
        with_len.stream_len = Some(len);
        match client.infer(with_len).unwrap() {
            InferReply::Err(e) => {
                assert_eq!(e.code, ErrorCode::BadInput);
                assert!(e.message.contains("stream_len"), "{}", e.message);
            }
            other => panic!("expected BadInput, got {other:?}"),
        }
    }

    let stats = handle.shutdown();
    assert_eq!(stats.rejected_unknown_model, 1);
    assert_eq!(stats.failed, 3);
    assert_eq!(stats.accepted, 0);
    assert_eq!(stats.completed, 0);
}

#[test]
fn overload_rejects_with_typed_error_and_no_hangs() {
    // One serial worker, queue of one: pipelining N slow requests must
    // answer every single one — a couple completed, the rest Overloaded.
    // At 64 Ki bits a request takes ~15 ms (release build, 2 vCPUs), so
    // the worker can drain the burst only if the reactor is starved for
    // that long between each pair of admissions.
    let (handle, _golden) = start(
        65536,
        ServeConfig {
            workers: 1,
            queue_capacity: 1,
            batch_max: 1,
            default_deadline: Duration::from_secs(60),
            ..ServeConfig::default()
        },
    );
    let images = tiny_images(1);
    let mut client = Client::connect(handle.addr()).unwrap();

    // The whole burst goes out in one write, so one reactor read holds
    // all of it and one parse sweep admits it; frame-by-frame writes could
    // be read across ticks, letting the worker keep up and reject nothing.
    const N: u64 = 8;
    let burst: Vec<u8> = (0..N)
        .flat_map(|id| encode_frame(&Frame::InferRequest(request(id, &images[0]))))
        .collect();
    client.send_raw(&burst).unwrap();
    let mut completed = 0u64;
    let mut overloaded = 0u64;
    for _ in 0..N {
        match client.recv().unwrap() {
            Frame::InferResponse(_) => completed += 1,
            Frame::Error(e) if e.code == ErrorCode::Overloaded => overloaded += 1,
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert_eq!(completed + overloaded, N, "every request must be answered");
    assert!(completed >= 1, "the in-service request must complete");
    assert!(overloaded >= 1, "queue of 1 must reject under a burst of 8");

    let stats = handle.shutdown();
    assert_eq!(stats.completed, completed);
    assert_eq!(stats.rejected_overload, overloaded);
    assert!(
        stats.queue_depth_hwm <= 1,
        "admission limit exceeded: {stats:?}"
    );
}

#[test]
fn model_budget_rejections_do_not_starve_other_models() {
    // Two models share a roomy queue, but each gets a queued-share of one.
    // A burst on model 1 must bounce off its own budget (never the shared
    // queue) while model 2 sails through untouched.
    let sim = SimConfig::with_stream_len(4096).unwrap();
    let cache = Arc::new(ModelCache::new());
    let registry = ModelRegistry::build(
        vec![
            ModelSpec {
                id: MODEL_ID,
                network: tiny_network(),
                cfg: sim,
            },
            ModelSpec {
                id: MODEL_ID + 1,
                network: tiny_network(),
                cfg: sim,
            },
        ],
        &cache,
    )
    .unwrap();
    let handle = Server::start(
        "127.0.0.1:0",
        registry,
        ServeConfig {
            workers: 1,
            queue_capacity: 8,
            batch_max: 1,
            model_queue_share: Some(1),
            default_deadline: Duration::from_secs(60),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let images = tiny_images(1);
    let mut client = Client::connect(handle.addr()).unwrap();

    const N: u64 = 6;
    for id in 0..N {
        client
            .send(&Frame::InferRequest(request(id, &images[0])))
            .unwrap();
    }
    let mut other = request(N, &images[0]);
    other.model_id = MODEL_ID + 1;
    client.send(&Frame::InferRequest(other)).unwrap();

    let mut completed = 0u64;
    let mut overloaded = 0u64;
    let mut other_completed = false;
    for _ in 0..=N {
        match client.recv().unwrap() {
            Frame::InferResponse(r) => {
                if r.request_id == N {
                    other_completed = true;
                }
                completed += 1;
            }
            Frame::Error(e) if e.code == ErrorCode::Overloaded => {
                assert!(e.message.contains("admission budget"), "{}", e.message);
                overloaded += 1;
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert_eq!(completed + overloaded, N + 1, "every request answered");
    assert!(overloaded >= 1, "share of 1 must reject under a burst of 6");
    assert!(other_completed, "the second model must not be starved");

    let stats = handle.shutdown();
    assert_eq!(stats.rejected_model_budget, overloaded);
    // Queue occupancy stays bounded by the per-model shares, so the
    // shared queue itself never fills.
    assert_eq!(stats.rejected_overload, 0);
    assert!(stats.queue_depth_hwm <= 2, "{stats:?}");
}

#[test]
fn expired_deadline_is_reported_without_burning_simulation_time() {
    let (handle, _golden) = start(
        4096,
        ServeConfig {
            workers: 1,
            queue_capacity: 8,
            batch_max: 1,
            default_deadline: Duration::from_secs(60),
            ..ServeConfig::default()
        },
    );
    let images = tiny_images(1);
    let mut client = Client::connect(handle.addr()).unwrap();

    // Three slow requests keep the single serial worker busy for many
    // milliseconds; the FIFO queue guarantees the hurried request behind
    // them waits at least that long, so its 1 µs deadline must expire.
    for id in 0..3 {
        client
            .send(&Frame::InferRequest(request(id, &images[0])))
            .unwrap();
    }
    let mut hurried = request(3, &images[0]);
    hurried.deadline_micros = 1;
    client.send(&Frame::InferRequest(hurried)).unwrap();

    let mut ok = 0u64;
    let mut saw_expired = false;
    for _ in 0..4 {
        match client.recv().unwrap() {
            Frame::InferResponse(r) => {
                assert!(r.request_id < 3);
                ok += 1;
            }
            Frame::Error(e) => {
                assert_eq!(e.request_id, 3);
                assert_eq!(e.code, ErrorCode::DeadlineExceeded);
                saw_expired = true;
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert_eq!(ok, 3);
    assert!(saw_expired);

    let stats = handle.shutdown();
    assert_eq!(stats.expired, 1);
    assert_eq!(stats.completed, 3);
}

#[test]
fn stats_travel_over_the_wire() {
    let (handle, _golden) = start(64, ServeConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    let images = tiny_images(2);

    for id in 0..3 {
        match client
            .infer(request(id, &images[(id % 2) as usize]))
            .unwrap()
        {
            InferReply::Ok(_) => {}
            InferReply::Err(e) => panic!("unexpected error {e:?}"),
        }
    }
    let snap: StatsSnapshot = client.stats(500).unwrap();
    assert_eq!(snap.received, 3);
    assert_eq!(snap.accepted, 3);
    assert_eq!(snap.completed, 3);
    assert!(snap.batches >= 1);
    assert!(snap.mean_batch_size() >= 1.0);
    handle.shutdown();
}

#[test]
fn graceful_shutdown_answers_everything_admitted() {
    let (handle, _golden) = start(
        1024,
        ServeConfig {
            workers: 1,
            queue_capacity: 8,
            batch_max: 2,
            default_deadline: Duration::from_secs(60),
            ..ServeConfig::default()
        },
    );
    let images = tiny_images(1);
    let mut client = Client::connect(handle.addr()).unwrap();

    const N: u64 = 4;
    for id in 0..N {
        client
            .send(&Frame::InferRequest(request(id, &images[0])))
            .unwrap();
    }
    // Let the burst be admitted, then shut down while it is still being
    // worked; the contract is that every admitted request is answered.
    std::thread::sleep(Duration::from_millis(100));
    let stats = handle.shutdown();
    assert_eq!(drain_accounted(&stats), stats.received, "{stats:?}");

    let mut answered = 0u64;
    while answered < stats.received {
        match client.recv() {
            Ok(Frame::InferResponse(_)) | Ok(Frame::Error(_)) => answered += 1,
            Ok(other) => panic!("unexpected frame {other:?}"),
            Err(e) => panic!(
                "missing replies after shutdown ({answered}/{}): {e}",
                stats.received
            ),
        }
    }
}

#[test]
fn many_persistent_connections_share_one_reactor() {
    if !acoustic_net::Poller::supported() {
        return;
    }
    const CONNS: usize = 64;
    const PER_CONN: u64 = 3;
    let (handle, golden) = start(
        64,
        ServeConfig {
            workers: 2,
            queue_capacity: 256,
            default_deadline: Duration::from_secs(60),
            ..ServeConfig::default()
        },
    );
    let addr = handle.addr();
    let images = tiny_images(4);
    // A reply proves the server accepted that connection. Every client
    // holds its connection open until all CONNS have had their first
    // reply, so the server sees all of them open at once however fast it
    // answers.
    let first_replies = AtomicUsize::new(0);

    let replies: Vec<(u64, Vec<u32>)> = std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for c in 0..CONNS as u64 {
            let images = &images;
            let first_replies = &first_replies;
            joins.push(scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut got = Vec::new();
                for k in 0..PER_CONN {
                    let id = c + CONNS as u64 * k;
                    match client
                        .infer(request(id, &images[(id % 4) as usize]))
                        .unwrap()
                    {
                        InferReply::Ok(r) => {
                            got.push((id, r.logits.iter().map(|v| v.to_bits()).collect()))
                        }
                        InferReply::Err(e) => panic!("conn {c} id {id}: {e:?}"),
                    }
                    if k == 0 {
                        first_replies.fetch_add(1, Ordering::SeqCst);
                        // Bounded, so a failed client fails the test
                        // instead of hanging it.
                        let deadline = Instant::now() + Duration::from_secs(60);
                        while first_replies.load(Ordering::SeqCst) < CONNS {
                            assert!(Instant::now() < deadline, "conn {c}: peers never answered");
                            std::thread::sleep(Duration::from_millis(1));
                        }
                    }
                }
                got
            }));
        }
        joins.into_iter().flat_map(|j| j.join().unwrap()).collect()
    });
    assert_eq!(replies.len(), CONNS * PER_CONN as usize);

    let stats = handle.shutdown();
    assert_eq!(stats.completed, (CONNS as u64) * PER_CONN);
    assert!(stats.conns_opened >= CONNS as u64, "{stats:?}");
    assert!(stats.active_connections_hwm >= CONNS as u64, "{stats:?}");
    assert_eq!(drain_accounted(&stats), stats.received, "{stats:?}");

    // Spot-check bit-exactness on a sample of the replies.
    let engine = BatchEngine::new(1).unwrap();
    for (id, got_bits) in replies.iter().filter(|(id, _)| id % 37 == 0) {
        let gold = engine
            .run_ready(
                &golden,
                &[ReadyRequest::new(*id, &images[(id % 4) as usize])],
            )
            .unwrap()
            .remove(0)
            .unwrap();
        let gold_bits: Vec<u32> = gold.as_slice().iter().map(|v| v.to_bits()).collect();
        assert_eq!(&gold_bits, got_bits, "id {id}");
    }
}

#[test]
fn shard_and_connection_gauges_travel_over_the_wire() {
    let (handle, _golden) = start(
        64,
        ServeConfig {
            workers: 3,
            shards: 3,
            default_deadline: Duration::from_secs(30),
            ..ServeConfig::default()
        },
    );
    let images = tiny_images(2);

    // Two sequential connections, a handful of requests each.
    for _ in 0..2 {
        let mut client = Client::connect(handle.addr()).unwrap();
        for id in 0..4u64 {
            match client
                .infer(request(id, &images[(id % 2) as usize]))
                .unwrap()
            {
                InferReply::Ok(_) => {}
                InferReply::Err(e) => panic!("unexpected error {e:?}"),
            }
        }
    }
    let mut client = Client::connect(handle.addr()).unwrap();
    let snap: StatsSnapshot = client.stats(500).unwrap();
    assert_eq!(snap.shards, 3);
    assert_eq!(snap.completed, 8);
    assert!(snap.conns_opened >= 3, "{snap:?}");
    assert!(snap.active_connections >= 1, "{snap:?}");
    assert!(
        snap.shard_depth_hwm <= snap.queue_depth_hwm.max(1),
        "{snap:?}"
    );
    handle.shutdown();
}
