//! Open-loop load generation and golden-response validation.
//!
//! The generator replays a Poisson arrival schedule (exponential
//! inter-arrival gaps at a target QPS, drawn from a deterministic seed)
//! against a running server, **open loop**: requests are sent at their
//! scheduled times whether or not earlier replies have arrived, so server
//! slowdown shows up as latency instead of silently throttling offered
//! load (no coordinated omission).
//!
//! Latency is measured from each request's *scheduled* arrival to the
//! moment its reply is read, and percentiles use the nearest-rank method.
//!
//! Because every response is a pure function of `(model, request id,
//! image)`, [`validate_responses`] can recompute each accepted response
//! locally through [`BatchEngine::run_ready`] and demand bit-identity.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use acoustic_core::prng::splitmix64;
use acoustic_core::DetRng;
use acoustic_nn::Tensor;
use acoustic_runtime::{BatchEngine, PreparedModel, ReadyRequest};

use crate::client::{Client, InferReply};
use crate::protocol::{ErrorCode, InferRequest};
use crate::serve_error::ServeError;

/// How long, after the last request is sent, the generator waits for
/// stragglers before force-closing connections.
const GRACE: Duration = Duration::from_secs(5);

/// Load-generation parameters.
#[derive(Debug, Clone, Copy)]
pub struct LoadGenConfig {
    /// Target offered load, requests per second.
    pub qps: f64,
    /// Total number of requests in the schedule.
    pub requests: u64,
    /// Client connections the schedule is spread over (round-robin).
    pub connections: usize,
    /// Seed for the arrival schedule.
    pub seed: u64,
    /// Model id to request.
    pub model_id: u32,
    /// Per-request deadline in µs (0 = server default).
    pub deadline_micros: u32,
    /// Optional fixed stream-length override.
    pub stream_len: Option<u32>,
}

impl Default for LoadGenConfig {
    fn default() -> Self {
        LoadGenConfig {
            qps: 50.0,
            requests: 100,
            connections: 2,
            seed: 7,
            model_id: crate::registry::DEMO_MODEL_ID,
            deadline_micros: 0,
            stream_len: None,
        }
    }
}

/// One observed reply.
#[derive(Debug, Clone)]
pub struct ReplyRecord {
    /// The request id the reply answers.
    pub id: u64,
    /// What the server said.
    pub reply: InferReply,
    /// Scheduled-arrival → reply-read latency.
    pub latency: Duration,
}

/// Everything a load run produced.
#[derive(Debug)]
pub struct LoadOutcome {
    /// Every reply that was received, in arrival order per connection.
    pub replies: Vec<ReplyRecord>,
    /// Requests that never got a reply before the grace deadline.
    pub dropped: u64,
    /// Wall-clock time from first scheduled arrival to last reply.
    pub elapsed: Duration,
}

/// Aggregated metrics over a [`LoadOutcome`].
#[derive(Debug, Clone, Copy)]
pub struct LoadReport {
    /// Requests in the schedule.
    pub offered: u64,
    /// Requests answered with logits.
    pub completed: u64,
    /// `Overloaded` rejections.
    pub rejected_overload: u64,
    /// `DeadlineExceeded` replies.
    pub deadline_exceeded: u64,
    /// `Warming` bounces (cold model compiling in the background).
    pub warming: u64,
    /// Any other error reply.
    pub other_errors: u64,
    /// Requests with no reply at all.
    pub dropped: u64,
    /// p50 latency of completed requests, µs.
    pub p50_us: u64,
    /// p95 latency of completed requests, µs.
    pub p95_us: u64,
    /// p99 latency of completed requests, µs.
    pub p99_us: u64,
    /// Completed requests per second of wall-clock.
    pub goodput_qps: f64,
    /// Fraction of offered requests rejected for overload.
    pub rejection_rate: f64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
}

/// One model's share of mixed-model traffic.
#[derive(Debug, Clone)]
pub struct ModelTraffic {
    /// Model id to request.
    pub model_id: u32,
    /// Relative traffic weight (must be ≥ 1).
    pub weight: u32,
    /// Input images for this model (request `id` sends image
    /// `id % images.len()`), matching the model's input shape.
    pub images: Vec<Tensor>,
}

/// Parses a `--mix`-style spec: `model_id:weight` pairs separated by
/// commas, e.g. `1:3,2:1`. Image sets are attached by the caller.
///
/// # Errors
///
/// [`ServeError::InvalidConfig`] on malformed pairs, zero weights or
/// duplicate ids.
pub fn parse_mix(spec: &str) -> Result<Vec<(u32, u32)>, ServeError> {
    let bad = |msg: String| ServeError::InvalidConfig(msg);
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    for part in spec.split(',') {
        let (id_str, w_str) = part
            .split_once(':')
            .ok_or_else(|| bad(format!("mix entry `{part}` is not model_id:weight")))?;
        let id: u32 = id_str
            .trim()
            .parse()
            .map_err(|_| bad(format!("bad model id `{id_str}` in mix")))?;
        let weight: u32 = w_str
            .trim()
            .parse()
            .map_err(|_| bad(format!("bad weight `{w_str}` in mix")))?;
        if weight == 0 {
            return Err(bad(format!("model {id} has zero weight in mix")));
        }
        if pairs.iter().any(|&(i, _)| i == id) {
            return Err(bad(format!("model {id} appears twice in mix")));
        }
        pairs.push((id, weight));
    }
    if pairs.is_empty() {
        return Err(bad("mix spec is empty".into()));
    }
    Ok(pairs)
}

/// The model a given schedule slot requests — a pure function of
/// `(seed, request id, mix weights)`, shared between the sender,
/// [`summarize_mix`] and [`validate_responses_mix`] so they cannot drift
/// apart.
pub fn model_for(seed: u64, request_id: u64, traffic: &[ModelTraffic]) -> u32 {
    let total: u64 = traffic.iter().map(|t| u64::from(t.weight)).sum();
    let mut state = seed ^ request_id.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x4D1C_5EED_0000_00AB;
    let mut r = splitmix64(&mut state) % total.max(1);
    for t in traffic {
        let w = u64::from(t.weight);
        if r < w {
            return t.model_id;
        }
        r -= w;
    }
    traffic.last().map_or(0, |t| t.model_id)
}

/// Builds the mixed-traffic request a given schedule slot sends.
fn request_for_mix(id: u64, traffic: &[ModelTraffic], cfg: &LoadGenConfig) -> InferRequest {
    let model_id = model_for(cfg.seed, id, traffic);
    let entry = traffic
        .iter()
        .find(|t| t.model_id == model_id)
        .expect("model_for only returns ids from the traffic set");
    let img = &entry.images[(id % entry.images.len() as u64) as usize];
    InferRequest {
        request_id: id,
        model_id,
        deadline_micros: cfg.deadline_micros,
        stream_len: cfg.stream_len,
        margin: None,
        shape: img.shape().iter().map(|&d| d as u32).collect(),
        values: img.as_slice().to_vec(),
    }
}

/// Builds the request a given schedule slot sends — shared between the
/// sender and [`validate_responses`] so they cannot drift apart.
fn request_for(id: u64, images: &[Tensor], cfg: &LoadGenConfig) -> InferRequest {
    let img = &images[(id % images.len() as u64) as usize];
    InferRequest {
        request_id: id,
        model_id: cfg.model_id,
        deadline_micros: cfg.deadline_micros,
        stream_len: cfg.stream_len,
        margin: None,
        shape: img.shape().iter().map(|&d| d as u32).collect(),
        values: img.as_slice().to_vec(),
    }
}

/// The Poisson arrival offsets for `cfg` (deterministic in `cfg.seed`).
pub fn arrival_schedule(cfg: &LoadGenConfig) -> Vec<Duration> {
    let mut rng = DetRng::seed_from_u64(cfg.seed);
    let mut t = 0.0_f64;
    (0..cfg.requests)
        .map(|_| {
            // Exponential gap with mean 1/qps; 1-u keeps ln's argument > 0.
            let u = rng.next_f64();
            t += -(1.0 - u).ln() / cfg.qps;
            Duration::from_secs_f64(t)
        })
        .collect()
}

/// Replays the schedule against `addr` and collects every reply.
///
/// # Errors
///
/// Connection failures and invalid configs; per-request errors are data in
/// the outcome, not `Err`s.
pub fn run_load(
    addr: SocketAddr,
    images: &[Tensor],
    cfg: &LoadGenConfig,
) -> Result<LoadOutcome, ServeError> {
    if images.is_empty() {
        return Err(ServeError::InvalidConfig(
            "load generation needs at least one image".into(),
        ));
    }
    run_load_with(addr, cfg, |id| request_for(id, images, cfg))
}

/// Replays the schedule with mixed-model traffic: each slot's model is
/// drawn from the weighted `traffic` set (deterministically in
/// `cfg.seed`; `cfg.model_id` is ignored).
///
/// # Errors
///
/// As [`run_load`]; additionally rejects an empty traffic set or traffic
/// entries without images.
pub fn run_load_mix(
    addr: SocketAddr,
    traffic: &[ModelTraffic],
    cfg: &LoadGenConfig,
) -> Result<LoadOutcome, ServeError> {
    if traffic.is_empty() || traffic.iter().any(|t| t.images.is_empty() || t.weight == 0) {
        return Err(ServeError::InvalidConfig(
            "mixed load generation needs a non-empty traffic set with images and weights ≥ 1"
                .into(),
        ));
    }
    run_load_with(addr, cfg, |id| request_for_mix(id, traffic, cfg))
}

/// Shared open-loop replay core: `build` maps a schedule slot to the
/// request it sends.
fn run_load_with(
    addr: SocketAddr,
    cfg: &LoadGenConfig,
    build: impl Fn(u64) -> InferRequest + Sync,
) -> Result<LoadOutcome, ServeError> {
    if cfg.requests == 0 || cfg.connections == 0 || cfg.qps <= 0.0 || !cfg.qps.is_finite() {
        return Err(ServeError::InvalidConfig(
            "load generation needs requests ≥ 1, connections ≥ 1 and qps > 0".into(),
        ));
    }
    let schedule = arrival_schedule(cfg);
    let conns = cfg.connections.min(cfg.requests as usize);

    // Connect everything before starting the clock.
    let clients: Vec<Client> = (0..conns)
        .map(|_| Client::connect(addr))
        .collect::<Result<_, _>>()?;

    let received = AtomicU64::new(0);
    let start = Instant::now();
    let mut replies: Vec<ReplyRecord> = Vec::new();
    let mut last_reply = start;

    std::thread::scope(|scope| -> Result<(), ServeError> {
        let mut receivers = Vec::with_capacity(conns);
        let mut streams = Vec::with_capacity(conns);
        for (c, client) in clients.into_iter().enumerate() {
            let reader = client.try_clone()?;
            streams.push(client);
            let expect = (cfg.requests as usize + conns - 1 - c) / conns;
            let received = &received;
            let schedule = &schedule;
            receivers.push(
                scope.spawn(move || receiver_loop(reader, expect, schedule, start, received)),
            );
        }

        let mut senders = Vec::with_capacity(conns);
        for (c, mut client) in streams.into_iter().enumerate() {
            let schedule = &schedule;
            let build = &build;
            senders.push(scope.spawn(move || -> Client {
                for id in ((c as u64)..cfg.requests).step_by(conns) {
                    let target = start + schedule[id as usize];
                    let now = Instant::now();
                    if target > now {
                        std::thread::sleep(target - now);
                    }
                    let req = build(id);
                    if client
                        .send(&crate::protocol::Frame::InferRequest(req))
                        .is_err()
                    {
                        break;
                    }
                }
                client
            }));
        }

        // Once every sender is done, give stragglers a bounded grace
        // window, then force receivers out of their blocking reads.
        let mut held = Vec::with_capacity(conns);
        for s in senders {
            held.push(s.join().expect("sender thread panicked"));
        }
        let grace_deadline = Instant::now() + GRACE;
        while received.load(Ordering::SeqCst) < cfg.requests && Instant::now() < grace_deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        for client in &held {
            client.shutdown_read();
        }
        for r in receivers {
            let (mut got, last) = r.join().expect("receiver thread panicked");
            replies.append(&mut got);
            if let Some(last) = last {
                last_reply = last_reply.max(last);
            }
        }
        drop(held);
        Ok(())
    })?;

    let dropped = cfg.requests - replies.len() as u64;
    Ok(LoadOutcome {
        replies,
        dropped,
        elapsed: last_reply.duration_since(start),
    })
}

fn receiver_loop(
    mut reader: Client,
    expect: usize,
    schedule: &[Duration],
    start: Instant,
    received: &AtomicU64,
) -> (Vec<ReplyRecord>, Option<Instant>) {
    let mut got = Vec::with_capacity(expect);
    let mut last = None;
    while got.len() < expect {
        let frame = match reader.recv() {
            Ok(f) => f,
            Err(_) => break, // socket shut down by the grace watchdog
        };
        let now = Instant::now();
        let (id, reply) = match frame {
            crate::protocol::Frame::InferResponse(r) => (r.request_id, InferReply::Ok(r)),
            crate::protocol::Frame::Error(e) => (e.request_id, InferReply::Err(e)),
            _ => continue,
        };
        let scheduled = start + schedule[id as usize];
        got.push(ReplyRecord {
            id,
            reply,
            latency: now.saturating_duration_since(scheduled),
        });
        last = Some(now);
        received.fetch_add(1, Ordering::SeqCst);
    }
    (got, last)
}

/// Nearest-rank percentile of an unsorted latency set, in microseconds.
fn percentile_us(sorted: &[Duration], pct: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1].as_micros() as u64
}

/// Aggregates a [`LoadOutcome`] into headline metrics.
pub fn summarize(outcome: &LoadOutcome, offered: u64) -> LoadReport {
    let mut completed_lat: Vec<Duration> = Vec::new();
    let mut rejected_overload = 0u64;
    let mut deadline_exceeded = 0u64;
    let mut warming = 0u64;
    let mut other_errors = 0u64;
    for r in &outcome.replies {
        match &r.reply {
            InferReply::Ok(_) => completed_lat.push(r.latency),
            InferReply::Err(e) if e.code == ErrorCode::Overloaded => rejected_overload += 1,
            InferReply::Err(e) if e.code == ErrorCode::DeadlineExceeded => deadline_exceeded += 1,
            InferReply::Err(e) if e.code == ErrorCode::Warming => warming += 1,
            InferReply::Err(_) => other_errors += 1,
        }
    }
    completed_lat.sort_unstable();
    let completed = completed_lat.len() as u64;
    let secs = outcome.elapsed.as_secs_f64();
    LoadReport {
        offered,
        completed,
        rejected_overload,
        deadline_exceeded,
        warming,
        other_errors,
        dropped: outcome.dropped,
        p50_us: percentile_us(&completed_lat, 50.0),
        p95_us: percentile_us(&completed_lat, 95.0),
        p99_us: percentile_us(&completed_lat, 99.0),
        goodput_qps: if secs > 0.0 {
            completed as f64 / secs
        } else {
            0.0
        },
        rejection_rate: if offered > 0 {
            rejected_overload as f64 / offered as f64
        } else {
            0.0
        },
        elapsed: outcome.elapsed,
    }
}

/// Recomputes every completed reply locally and counts responses that are
/// **not** bit-identical to direct [`BatchEngine::run_ready`] evaluation.
///
/// `engine` may use any worker count (outcomes do not depend on it);
/// `model` and `images` must match what the server registered.
///
/// # Errors
///
/// Propagates engine errors (a worker panic).
pub fn validate_responses(
    outcome: &LoadOutcome,
    model: &PreparedModel,
    engine: &BatchEngine,
    images: &[Tensor],
    cfg: &LoadGenConfig,
) -> Result<u64, ServeError> {
    count_mismatches(outcome.replies.iter(), model, engine, images, cfg)
}

/// Counts the completed `replies` whose effective length or logit bits
/// differ from `engine`'s [`BatchEngine::run_ready`] of the same ids over
/// `images`.
fn count_mismatches<'r>(
    replies: impl Iterator<Item = &'r ReplyRecord>,
    model: &PreparedModel,
    engine: &BatchEngine,
    images: &[Tensor],
    cfg: &LoadGenConfig,
) -> Result<u64, ServeError> {
    let completed: Vec<_> = replies
        .filter_map(|r| match &r.reply {
            InferReply::Ok(resp) => Some(resp),
            InferReply::Err(_) => None,
        })
        .collect();
    let requests: Vec<ReadyRequest<'_>> = completed
        .iter()
        .map(|resp| ReadyRequest {
            image_index: resp.request_id,
            input: &images[(resp.request_id % images.len() as u64) as usize],
            stream_len: cfg.stream_len.map(|l| l as usize),
        })
        .collect();
    let golden = engine.run_ready(model, &requests)?;
    let mismatches = completed
        .iter()
        .zip(golden)
        .filter(|(resp, gold)| match gold {
            Ok(g) => {
                g.effective_len as u32 != resp.effective_len
                    || g.logits.as_slice().len() != resp.logits.len()
                    || g.logits
                        .as_slice()
                        .iter()
                        .zip(&resp.logits)
                        .any(|(a, b)| a.to_bits() != b.to_bits())
            }
            Err(_) => true,
        });
    Ok(mismatches.count() as u64)
}

/// Per-connection slice of a load report (persistent-connection mode).
#[derive(Debug, Clone, Copy)]
pub struct ConnectionReport {
    /// Connection index (requests are assigned round-robin by
    /// `id % connections`).
    pub connection: usize,
    /// Schedule slots sent on this connection.
    pub offered: u64,
    /// Requests answered with logits.
    pub completed: u64,
    /// Error replies of any code.
    pub errors: u64,
    /// Requests with no reply at all.
    pub dropped: u64,
    /// p50 latency of completed requests, µs.
    pub p50_us: u64,
    /// p99 latency of completed requests, µs.
    pub p99_us: u64,
}

/// Splits an outcome into per-connection reports using the same
/// round-robin assignment the sender used (`id % effective_connections`,
/// where the effective count is `connections.min(requests)`).
pub fn summarize_connections(outcome: &LoadOutcome, cfg: &LoadGenConfig) -> Vec<ConnectionReport> {
    let conns = cfg.connections.min(cfg.requests as usize).max(1);
    let mut lat: Vec<Vec<Duration>> = vec![Vec::new(); conns];
    let mut errors = vec![0u64; conns];
    let mut answered = vec![0u64; conns];
    for r in &outcome.replies {
        let c = (r.id % conns as u64) as usize;
        answered[c] += 1;
        match &r.reply {
            InferReply::Ok(_) => lat[c].push(r.latency),
            InferReply::Err(_) => errors[c] += 1,
        }
    }
    (0..conns)
        .map(|c| {
            // Round-robin share of the schedule: connection c sends ids
            // c, c+conns, c+2·conns, …
            let offered = (cfg.requests + conns as u64 - 1 - c as u64) / conns as u64;
            lat[c].sort_unstable();
            ConnectionReport {
                connection: c,
                offered,
                completed: lat[c].len() as u64,
                errors: errors[c],
                dropped: offered.saturating_sub(answered[c]),
                p50_us: percentile_us(&lat[c], 50.0),
                p99_us: percentile_us(&lat[c], 99.0),
            }
        })
        .collect()
}

/// Per-model slice of a mixed-traffic load report.
#[derive(Debug, Clone, Copy)]
pub struct ModelLoadReport {
    /// The model id.
    pub model_id: u32,
    /// Schedule slots assigned to this model.
    pub offered: u64,
    /// Requests answered with logits.
    pub completed: u64,
    /// `Overloaded` rejections (shared queue or this model's admission
    /// sub-budget — the wire code is the same).
    pub rejected_overload: u64,
    /// `DeadlineExceeded` replies.
    pub deadline_exceeded: u64,
    /// `Warming` bounces (cold model compiling in the background).
    pub warming: u64,
    /// Any other error reply.
    pub other_errors: u64,
    /// Requests with no reply at all.
    pub dropped: u64,
    /// p50 latency of completed requests, µs.
    pub p50_us: u64,
    /// p99 latency of completed requests, µs.
    pub p99_us: u64,
    /// Completed requests per second of wall-clock.
    pub goodput_qps: f64,
}

/// Splits a mixed-traffic outcome into per-model reports (in `traffic`
/// order), recomputing each slot's model with [`model_for`].
pub fn summarize_mix(
    outcome: &LoadOutcome,
    traffic: &[ModelTraffic],
    cfg: &LoadGenConfig,
) -> Vec<ModelLoadReport> {
    let secs = outcome.elapsed.as_secs_f64();
    traffic
        .iter()
        .map(|t| {
            let offered = (0..cfg.requests)
                .filter(|&id| model_for(cfg.seed, id, traffic) == t.model_id)
                .count() as u64;
            let mut lat: Vec<Duration> = Vec::new();
            let mut rejected_overload = 0u64;
            let mut deadline_exceeded = 0u64;
            let mut warming = 0u64;
            let mut other_errors = 0u64;
            let mut answered = 0u64;
            for r in &outcome.replies {
                if model_for(cfg.seed, r.id, traffic) != t.model_id {
                    continue;
                }
                answered += 1;
                match &r.reply {
                    InferReply::Ok(_) => lat.push(r.latency),
                    InferReply::Err(e) if e.code == ErrorCode::Overloaded => {
                        rejected_overload += 1;
                    }
                    InferReply::Err(e) if e.code == ErrorCode::DeadlineExceeded => {
                        deadline_exceeded += 1;
                    }
                    InferReply::Err(e) if e.code == ErrorCode::Warming => warming += 1,
                    InferReply::Err(_) => other_errors += 1,
                }
            }
            lat.sort_unstable();
            let completed = lat.len() as u64;
            ModelLoadReport {
                model_id: t.model_id,
                offered,
                completed,
                rejected_overload,
                deadline_exceeded,
                warming,
                other_errors,
                dropped: offered.saturating_sub(answered),
                p50_us: percentile_us(&lat, 50.0),
                p99_us: percentile_us(&lat, 99.0),
                goodput_qps: if secs > 0.0 {
                    completed as f64 / secs
                } else {
                    0.0
                },
            }
        })
        .collect()
}

/// Mixed-traffic golden validation: recomputes every completed reply
/// against the prepared model its id deterministically maps to and counts
/// responses that are not bit-identical.
///
/// `models` pairs each traffic model id with the prepared model the server
/// holds for it (same weights, same sim config).
///
/// # Errors
///
/// [`ServeError::InvalidConfig`] when a traffic model id has no prepared
/// model; engine errors as in [`validate_responses`].
pub fn validate_responses_mix(
    outcome: &LoadOutcome,
    models: &[(u32, Arc<PreparedModel>)],
    engine: &BatchEngine,
    traffic: &[ModelTraffic],
    cfg: &LoadGenConfig,
) -> Result<u64, ServeError> {
    let mut mismatches = 0u64;
    for t in traffic {
        let (_, model) = models
            .iter()
            .find(|(id, _)| *id == t.model_id)
            .ok_or_else(|| {
                ServeError::InvalidConfig(format!("no prepared model for mix id {}", t.model_id))
            })?;
        let replies = outcome
            .replies
            .iter()
            .filter(|r| model_for(cfg.seed, r.id, traffic) == t.model_id);
        mismatches += count_mismatches(replies, model, engine, &t.images, cfg)?;
    }
    Ok(mismatches)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_and_monotone() {
        let cfg = LoadGenConfig {
            qps: 100.0,
            requests: 32,
            seed: 9,
            ..LoadGenConfig::default()
        };
        let a = arrival_schedule(&cfg);
        let b = arrival_schedule(&cfg);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        // Mean gap should be in the right ballpark for 100 QPS.
        let mean = a.last().unwrap().as_secs_f64() / a.len() as f64;
        assert!(mean > 0.001 && mean < 0.1, "mean gap {mean}");
    }

    #[test]
    fn mix_parsing_accepts_pairs_and_rejects_garbage() {
        assert_eq!(parse_mix("1:3,2:1").unwrap(), vec![(1, 3), (2, 1)]);
        assert_eq!(parse_mix(" 7 : 2 ").unwrap(), vec![(7, 2)]);
        assert!(parse_mix("").is_err());
        assert!(parse_mix("1").is_err());
        assert!(parse_mix("1:0").is_err());
        assert!(parse_mix("1:x").is_err());
        assert!(parse_mix("1:2,1:3").is_err());
    }

    #[test]
    fn model_for_is_deterministic_and_weight_proportional() {
        let traffic = vec![
            ModelTraffic {
                model_id: 1,
                weight: 3,
                images: Vec::new(),
            },
            ModelTraffic {
                model_id: 2,
                weight: 1,
                images: Vec::new(),
            },
        ];
        let picks: Vec<u32> = (0..4000).map(|id| model_for(42, id, &traffic)).collect();
        let again: Vec<u32> = (0..4000).map(|id| model_for(42, id, &traffic)).collect();
        assert_eq!(picks, again);
        let ones = picks.iter().filter(|&&m| m == 1).count() as f64 / picks.len() as f64;
        // 3:1 weights ⇒ ~75% model 1; allow generous slack for a 4k draw.
        assert!((0.70..0.80).contains(&ones), "model-1 share {ones}");
        assert!(picks.iter().all(|&m| m == 1 || m == 2));
    }

    #[test]
    fn connection_breakdown_accounts_for_every_slot() {
        use crate::protocol::InferResponse;
        let cfg = LoadGenConfig {
            requests: 10,
            connections: 3,
            ..LoadGenConfig::default()
        };
        // Ids 0..10 round-robin over 3 connections; leave ids 7 and 9
        // unanswered and make id 4 an error reply.
        let replies = (0..10u64)
            .filter(|id| *id != 7 && *id != 9)
            .map(|id| ReplyRecord {
                id,
                reply: if id == 4 {
                    InferReply::Err(crate::protocol::ErrorFrame {
                        request_id: id,
                        code: ErrorCode::Overloaded,
                        message: String::new(),
                    })
                } else {
                    InferReply::Ok(InferResponse {
                        request_id: id,
                        effective_len: 64,
                        logits: vec![0.0],
                    })
                },
                latency: Duration::from_micros(100 + id),
            })
            .collect();
        let outcome = LoadOutcome {
            replies,
            dropped: 2,
            elapsed: Duration::from_millis(10),
        };
        let per_conn = summarize_connections(&outcome, &cfg);
        assert_eq!(per_conn.len(), 3);
        // Connection 0 owns ids 0,3,6,9; id 9 dropped.
        assert_eq!(per_conn[0].offered, 4);
        assert_eq!(per_conn[0].completed, 3);
        assert_eq!(per_conn[0].dropped, 1);
        // Connection 1 owns ids 1,4,7; id 4 errored, id 7 dropped.
        assert_eq!(per_conn[1].offered, 3);
        assert_eq!(per_conn[1].completed, 1);
        assert_eq!(per_conn[1].errors, 1);
        assert_eq!(per_conn[1].dropped, 1);
        // Connection 2 owns ids 2,5,8 — all completed.
        assert_eq!(per_conn[2].offered, 3);
        assert_eq!(per_conn[2].completed, 3);
        assert_eq!(per_conn[2].dropped, 0);
        let offered: u64 = per_conn.iter().map(|c| c.offered).sum();
        assert_eq!(offered, cfg.requests);
        assert!(per_conn[2].p50_us >= 100);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let lat: Vec<Duration> = (1..=100).map(Duration::from_micros).collect();
        assert_eq!(percentile_us(&lat, 50.0), 50);
        assert_eq!(percentile_us(&lat, 95.0), 95);
        assert_eq!(percentile_us(&lat, 99.0), 99);
        assert_eq!(percentile_us(&[], 50.0), 0);
        assert_eq!(percentile_us(&[Duration::from_micros(7)], 99.0), 7);
    }
}
