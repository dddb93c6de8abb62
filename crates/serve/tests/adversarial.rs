//! Adversarial-client tests: misbehaving peers must cost the server a
//! buffer, never a worker and never a shard.
//!
//! All three scenarios are failure modes a thread-per-connection server
//! would dodge only by burning a thread per client; the reactor has to
//! absorb them in buffers. Each test no-ops on hosts without readiness
//! support, where the server cannot start.

use std::sync::Arc;
use std::time::{Duration, Instant};

use acoustic_core::DetRng;
use acoustic_nn::layers::{AccumMode, AvgPool2d, Conv2d, Dense, Network, Relu};
use acoustic_nn::Tensor;
use acoustic_runtime::ModelCache;
use acoustic_serve::protocol::{encode_frame, Frame, InferRequest};
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

fn tiny_image() -> Tensor {
    let mut rng = DetRng::seed_from_u64(33);
    let vals: Vec<f32> = (0..64).map(|_| rng.next_f32()).collect();
    Tensor::from_vec(&[1, 8, 8], vals).unwrap()
}

fn start(cfg: ServeConfig) -> ServerHandle {
    let sim = SimConfig::with_stream_len(64).unwrap();
    let cache = Arc::new(ModelCache::new());
    let registry = ModelRegistry::build(
        vec![ModelSpec {
            id: MODEL_ID,
            network: tiny_network(),
            cfg: sim,
        }],
        &cache,
    )
    .unwrap();
    Server::start("127.0.0.1:0", registry, cfg).unwrap()
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
fn slow_loris_header_dribble_does_not_stall_other_clients() {
    if !acoustic_net::Poller::supported() {
        return;
    }
    // ONE worker: if the dribbling client could capture anything beyond a
    // buffer, the victim request behind it would hang.
    let handle = start(ServeConfig {
        workers: 1,
        default_deadline: Duration::from_secs(30),
        ..ServeConfig::default()
    });
    let img = tiny_image();

    // The attacker trickles a valid request frame a few bytes at a time,
    // never completing the header in any one write.
    let mut loris = Client::connect(handle.addr()).unwrap();
    let frame = encode_frame(&Frame::InferRequest(request(7, &img)));
    loris.send_raw(&frame[..5]).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    loris.send_raw(&frame[5..11]).unwrap();

    // A well-behaved client must sail straight through meanwhile.
    let started = Instant::now();
    let mut victim = Client::connect(handle.addr()).unwrap();
    match victim.infer(request(1, &img)).unwrap() {
        InferReply::Ok(r) => assert_eq!(r.request_id, 1),
        InferReply::Err(e) => panic!("victim failed: {e:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "victim request stalled behind a header dribble"
    );

    // The dribbled request itself is still whole once the bytes arrive.
    loris.send_raw(&frame[11..]).unwrap();
    match loris.recv().unwrap() {
        Frame::InferResponse(r) => assert_eq!(r.request_id, 7),
        other => panic!("expected the dribbled request to complete, got {other:?}"),
    }

    let stats = handle.shutdown();
    assert_eq!(stats.completed, 2, "{stats:?}");
}

#[test]
fn idle_connections_are_reaped() {
    if !acoustic_net::Poller::supported() {
        return;
    }
    let handle = start(ServeConfig {
        idle_timeout: Some(Duration::from_millis(150)),
        ..ServeConfig::default()
    });
    let img = tiny_image();

    // Activity, then silence: the reactor must close the connection once
    // it has been quiet past the timeout with nothing outstanding.
    let mut idler = Client::connect(handle.addr()).unwrap();
    match idler.infer(request(0, &img)).unwrap() {
        InferReply::Ok(_) => {}
        InferReply::Err(e) => panic!("unexpected error {e:?}"),
    }
    idler
        .set_read_timeout(Some(Duration::from_millis(250)))
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    let closed = loop {
        match idler.recv() {
            Ok(f) => panic!("unexpected frame on an idle connection: {f:?}"),
            // Timeout: still open, keep waiting (bounded).
            Err(acoustic_serve::ServeError::Wire(acoustic_serve::protocol::WireError::Io(e)))
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if Instant::now() >= deadline {
                    break false;
                }
            }
            // EOF / reset: the reactor closed us.
            Err(_) => break true,
        }
    };
    assert!(closed, "idle connection never reaped");

    // A fresh (non-idle) connection still works, and the reap was counted.
    let mut client = Client::connect(handle.addr()).unwrap();
    match client.infer(request(1, &img)).unwrap() {
        InferReply::Ok(_) => {}
        InferReply::Err(e) => panic!("unexpected error {e:?}"),
    }
    let snap = client.stats(500).unwrap();
    assert!(snap.idle_reaped >= 1, "{snap:?}");
    handle.shutdown();
}

#[test]
fn mid_body_disconnects_free_slots_without_poisoning_shards() {
    if !acoustic_net::Poller::supported() {
        return;
    }
    let handle = start(ServeConfig {
        workers: 2,
        max_connections: 64,
        default_deadline: Duration::from_secs(30),
        ..ServeConfig::default()
    });
    let img = tiny_image();
    let frame = encode_frame(&Frame::InferRequest(request(5, &img)));

    // A wave of clients that each send the header plus half the body and
    // vanish. Each must be reaped, releasing its connection slot, and must
    // not leave its home shard (or any worker) wedged.
    for _ in 0..8 {
        let mut quitter = Client::connect(handle.addr()).unwrap();
        quitter.send_raw(&frame[..frame.len() / 2]).unwrap();
        drop(quitter); // RST/FIN mid-body
    }

    // The server keeps answering normal traffic on every shard.
    let mut client = Client::connect(handle.addr()).unwrap();
    for id in 0..6u64 {
        match client.infer(request(id, &img)).unwrap() {
            InferReply::Ok(r) => assert_eq!(r.request_id, id),
            InferReply::Err(e) => panic!("request {id} after disconnect wave: {e:?}"),
        }
    }

    // Every broken connection is eventually reaped: only our live client
    // should remain active.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let snap = client.stats(999).unwrap();
        if snap.active_connections <= 1 {
            assert!(snap.conns_opened >= 9, "{snap:?}");
            break;
        }
        assert!(
            Instant::now() < deadline,
            "disconnected clients never reaped: {snap:?}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }

    let stats = handle.shutdown();
    assert_eq!(stats.completed, 6, "{stats:?}");
}
