//! The TCP inference server.
//!
//! One I/O path feeds one execution core (all `std::thread`, no external
//! runtime):
//!
//! ```text
//!   reactor ── non-blocking accept + per-connection state machines
//!        │     driven by acoustic-net's readiness poller
//!        │  decode + validate + admission control
//!        ▼
//!   ShardedQueue (one shard per worker group, work-stealing,
//!        │         global capacity = admission limit)
//!        │  pop + micro-batch (≤ B requests or T µs)
//!        ▼
//!   worker pool ──▶ BatchEngine::run_ready_counted ──▶ reply bytes
//!                                                     (reactor outbox)
//! ```
//!
//! The reactor needs the readiness syscall shim (Linux x86-64 / aarch64);
//! [`Server::start`] refuses to start on other hosts.
//!
//! Guarantees (test-enforced):
//!
//! * **Admission control** — the sharded queue is the only buffer; when
//!   every shard is full, requests are rejected immediately with
//!   `Overloaded`. Nothing in the server buffers an unbounded number of
//!   requests.
//! * **Deadlines** — each request's deadline (its own, or the server
//!   default) is enforced when a worker dequeues it: an expired request is
//!   answered with `DeadlineExceeded` without burning simulation time.
//! * **Determinism** — the request id doubles as the seed index, so a
//!   response is bit-identical to `BatchEngine::run` evaluating the same
//!   image at the same index, whatever the micro-batch composition,
//!   worker count, shard layout, connection or arrival order.
//! * **Graceful shutdown** — new work is refused (`ShuttingDown`), queued
//!   work is drained and answered, then threads are joined. The drain
//!   invariant `completed + rejected + expired + failed == received`
//!   holds.

use std::collections::{HashMap, HashSet};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use acoustic_net::{Poller, ShardPop, ShardPush, ShardedQueue, Waker};
use acoustic_nn::Tensor;
use acoustic_runtime::{BatchEngine, PreparedModel, ReadyRequest};

use crate::protocol::{
    ErrorCode, ErrorFrame, Frame, InferRequest, InferResponse, StatsSnapshot, DEFAULT_MAX_PAYLOAD,
};
use crate::reactor::ReactorConn;
use crate::registry::{ModelRegistry, RegistryError};
use crate::serve_error::ServeError;
use crate::stats::{QueueGauges, Stats};

/// How long queue pops and reactor ticks wait before re-checking the
/// shutdown flag.
pub(crate) const POLL: Duration = Duration::from_millis(25);

/// Hard cap on how long shutdown waits for in-flight requests to drain.
pub(crate) const DRAIN_CAP: Duration = Duration::from_secs(10);

/// Server tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Worker threads draining the queue.
    pub workers: usize,
    /// `BatchEngine` threads inside each worker (1 = each worker is a
    /// serial lane; the worker pool itself is the parallelism).
    pub engine_workers: usize,
    /// Request-queue capacity — the admission limit (global across all
    /// shards).
    pub queue_capacity: usize,
    /// Micro-batch size cap (collect up to this many requests…).
    pub batch_max: usize,
    /// …or until this much time has passed since the first one, whichever
    /// comes first.
    pub batch_wait: Duration,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline: Duration,
    /// Per-frame payload cap handed to the protocol reader.
    pub max_payload: usize,
    /// Per-model admission sub-budget: how many **queued** requests one
    /// model id may hold at once, so a hot model cannot starve the others
    /// out of the shared queue. `None` derives
    /// `max(1, 2·queue_capacity / models)` — deliberately over-subscribed
    /// (sub-budgets sum to ~2× the queue) so a lone active model can
    /// still fill the whole queue; with a single registered model it
    /// never binds (its budget 2·capacity exceeds the queue itself).
    pub model_queue_share: Option<usize>,
    /// Admission-queue shards; 0 derives one shard per worker. Clamped to
    /// `queue_capacity` so no shard ends up empty.
    pub shards: usize,
    /// Close a connection with no outstanding work, no buffered bytes and
    /// no traffic for this long. `None` keeps idle connections open
    /// indefinitely.
    pub idle_timeout: Option<Duration>,
    /// Cap on simultaneously open client connections; accepts beyond it
    /// are dropped immediately.
    pub max_connections: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            engine_workers: 1,
            queue_capacity: 64,
            batch_max: 8,
            batch_wait: Duration::from_micros(500),
            default_deadline: Duration::from_millis(250),
            max_payload: DEFAULT_MAX_PAYLOAD,
            model_queue_share: None,
            shards: 0,
            idle_timeout: None,
            max_connections: 4096,
        }
    }
}

impl ServeConfig {
    fn validate(&self) -> Result<(), ServeError> {
        if self.workers == 0 {
            return Err(ServeError::InvalidConfig("workers must be ≥ 1".into()));
        }
        if self.engine_workers == 0 {
            return Err(ServeError::InvalidConfig(
                "engine_workers must be ≥ 1".into(),
            ));
        }
        if self.queue_capacity == 0 {
            return Err(ServeError::InvalidConfig(
                "queue_capacity must be ≥ 1".into(),
            ));
        }
        if self.batch_max == 0 {
            return Err(ServeError::InvalidConfig("batch_max must be ≥ 1".into()));
        }
        if self.default_deadline.is_zero() {
            return Err(ServeError::InvalidConfig(
                "default_deadline must be positive".into(),
            ));
        }
        if self.model_queue_share == Some(0) {
            return Err(ServeError::InvalidConfig(
                "model_queue_share must be ≥ 1 when set".into(),
            ));
        }
        if self.max_connections == 0 {
            return Err(ServeError::InvalidConfig(
                "max_connections must be ≥ 1".into(),
            ));
        }
        if self.idle_timeout == Some(Duration::ZERO) {
            return Err(ServeError::InvalidConfig(
                "idle_timeout must be positive when set".into(),
            ));
        }
        Ok(())
    }

    /// The shard count this config resolves to: explicit, or one shard
    /// per worker, capped by capacity.
    pub fn effective_shards(&self) -> usize {
        let requested = if self.shards == 0 {
            self.workers
        } else {
            self.shards
        };
        requested.clamp(1, self.queue_capacity.max(1))
    }
}

/// An admitted request waiting in the queue.
pub(crate) struct Pending {
    pub(crate) id: u64,
    pub(crate) model_id: u32,
    pub(crate) model: Arc<PreparedModel>,
    pub(crate) input: Tensor,
    pub(crate) admitted: Instant,
    pub(crate) deadline: Instant,
    pub(crate) conn: Arc<ReactorConn>,
}

/// Sends a typed error frame to a connection.
pub(crate) fn send_error(
    conn: &ReactorConn,
    request_id: u64,
    code: ErrorCode,
    message: impl Into<String>,
) {
    conn.send(&Frame::Error(ErrorFrame {
        request_id,
        code,
        message: message.into(),
    }));
}

/// Everything the I/O and worker threads share.
pub(crate) struct Shared {
    pub(crate) registry: ModelRegistry,
    pub(crate) cfg: ServeConfig,
    pub(crate) queue: ShardedQueue<Pending>,
    pub(crate) stats: Stats,
    pub(crate) shutdown: AtomicBool,
    /// Queued requests per model id, bounded by `model_share` — one model
    /// cannot monopolize the shared queue. Incremented at admission,
    /// decremented at dequeue (the gate bounds queue occupancy, not
    /// in-service work, which `workers · batch_max` already caps).
    gates: HashMap<u32, AtomicUsize>,
    /// The per-model admission sub-budget every gate is checked against.
    model_share: usize,
    /// Round-robin counter assigning each new connection a home shard.
    conn_rr: AtomicUsize,
    /// Model ids with a background prepare in flight (single-flight dedup:
    /// the first cold request enqueues the compile, later ones only get
    /// the `Warming` reply).
    warming: Mutex<HashSet<u32>>,
    /// Work channel feeding the background prepare thread. Taken (set to
    /// `None`) at shutdown so the thread's `recv` disconnects and it exits.
    prepare_tx: Mutex<Option<mpsc::Sender<u32>>>,
}

impl Shared {
    /// Releases the queue slot a request's model gate held; called once
    /// per admitted request, when it leaves the queue (or bounces off a
    /// full/closed queue at admission).
    fn release_gate(&self, model_id: u32) {
        if let Some(gate) = self.gates.get(&model_id) {
            gate.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Home shard for a newly accepted connection (round-robin so the
    /// parse-order FIFO of a single connection maps to a single shard).
    pub(crate) fn next_home_shard(&self) -> usize {
        self.conn_rr.fetch_add(1, Ordering::Relaxed) % self.queue.shards()
    }

    /// A point-in-time statistics snapshot with all gauges sampled.
    pub(crate) fn snapshot(&self) -> StatsSnapshot {
        let gauges = QueueGauges {
            queue_depth_hwm: self.queue.depth_hwm(),
            shards: self.queue.shards() as u64,
            shard_depth_hwm: self.queue.shard_depth_hwm(),
            queue_steals: self.queue.steals(),
        };
        self.stats.snapshot(
            gauges,
            self.registry.cache().dedup_totals(),
            self.registry.cache().prepare_stats(),
        )
    }

    /// Schedules a background prepare for a cold model, deduplicating
    /// in-flight compiles per model id. Returns whether the model is (now)
    /// known to be warming; `false` only when the prepare thread is gone
    /// (shutdown), in which case the caller falls back to the shutdown
    /// reject path.
    fn request_prepare(&self, model_id: u32) -> bool {
        let mut warming = self.warming.lock().expect("warming set poisoned");
        if warming.contains(&model_id) {
            return true;
        }
        let tx = self.prepare_tx.lock().expect("prepare channel poisoned");
        let Some(tx) = tx.as_ref() else {
            return false;
        };
        if tx.send(model_id).is_err() {
            return false;
        }
        warming.insert(model_id);
        true
    }
}

/// Background prepare loop: compiles cold models off the request workers.
/// One job per distinct model id is in flight at a time (`Shared::warming`
/// holds the dedup set); the loop exits when the sender side is dropped at
/// shutdown. A failed compile is dropped from the warming set too, so the
/// next request for that model re-triggers it (and keeps getting `Warming`
/// rather than a misleading success).
fn prepare_loop(shared: &Shared, jobs: &mpsc::Receiver<u32>) {
    while let Ok(model_id) = jobs.recv() {
        let _ = shared.registry.resolve(model_id);
        shared
            .warming
            .lock()
            .expect("warming set poisoned")
            .remove(&model_id);
    }
}

/// The running server: bind with [`Server::start`], stop with
/// [`ServerHandle::shutdown`].
#[derive(Debug)]
pub struct Server;

impl Server {
    /// Binds `addr`, spawns the reactor and worker pool, and returns a
    /// handle. Pass port 0 to let the OS pick (see
    /// [`ServerHandle::addr`]).
    ///
    /// # Errors
    ///
    /// Config validation and socket errors; `InvalidConfig` on a host
    /// without readiness-polling support.
    pub fn start(
        addr: impl ToSocketAddrs,
        registry: ModelRegistry,
        cfg: ServeConfig,
    ) -> Result<ServerHandle, ServeError> {
        cfg.validate()?;
        if registry.is_empty() {
            return Err(ServeError::InvalidConfig(
                "cannot serve an empty model registry".into(),
            ));
        }
        if !Poller::supported() {
            return Err(ServeError::InvalidConfig(
                "serving requires readiness-polling support (Linux x86-64 or aarch64)".into(),
            ));
        }
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let waker = Arc::new(Waker::new().map_err(ServeError::Io)?);

        let model_share = cfg
            .model_queue_share
            .unwrap_or_else(|| (2 * cfg.queue_capacity / registry.len()).max(1));
        let gates = registry
            .ids()
            .into_iter()
            .map(|id| (id, AtomicUsize::new(0)))
            .collect();
        let (prepare_tx, prepare_rx) = mpsc::channel();
        let shared = Arc::new(Shared {
            registry,
            cfg,
            queue: ShardedQueue::new(cfg.queue_capacity, cfg.effective_shards()),
            stats: Stats::default(),
            shutdown: AtomicBool::new(false),
            gates,
            model_share,
            conn_rr: AtomicUsize::new(0),
            warming: Mutex::new(HashSet::new()),
            prepare_tx: Mutex::new(Some(prepare_tx)),
        });

        let preparer = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("acoustic-serve-prepare".into())
                .spawn(move || prepare_loop(&shared, &prepare_rx))
                .map_err(ServeError::Io)?
        };

        let reactor = {
            let shared = Arc::clone(&shared);
            let waker = Arc::clone(&waker);
            std::thread::Builder::new()
                .name("acoustic-serve-reactor".into())
                .spawn(move || crate::reactor::reactor_loop(listener, &shared, &waker))
                .map_err(ServeError::Io)?
        };

        let workers = (0..cfg.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("acoustic-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .map_err(ServeError::Io)
            })
            .collect::<Result<Vec<_>, _>>()?;

        Ok(ServerHandle {
            addr: local_addr,
            shared,
            reactor: Some(reactor),
            waker,
            workers,
            preparer: Some(preparer),
        })
    }
}

/// Handle to a running server.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    reactor: Option<JoinHandle<()>>,
    waker: Arc<Waker>,
    workers: Vec<JoinHandle<()>>,
    preparer: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("cfg", &self.cfg)
            .field("queue_depth", &self.queue.depth())
            .finish_non_exhaustive()
    }
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A point-in-time statistics snapshot.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.snapshot()
    }

    /// Current request-queue depth (summed across shards).
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.depth()
    }

    /// Gracefully stops the server: refuse new work, answer everything
    /// already admitted, join every thread. Returns the final statistics.
    pub fn shutdown(mut self) -> StatsSnapshot {
        self.shutdown_impl();
        self.stats()
    }

    fn shutdown_impl(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Dropping the job sender first lets the background prepare thread
        // finish its current compile (if any) and exit while the reactor
        // drains; it is joined last.
        drop(
            self.shared
                .prepare_tx
                .lock()
                .expect("prepare channel poisoned")
                .take(),
        );
        self.waker.wake();
        // The reactor keeps flushing replies (produced by still-running
        // workers) until nothing is outstanding, so it must be joined
        // before the queue closes and the workers exit.
        if let Some(reactor) = self.reactor.take() {
            let _ = reactor.join();
        }
        self.shared.queue.close();
        for w in std::mem::take(&mut self.workers) {
            let _ = w.join();
        }
        if let Some(p) = self.preparer.take() {
            let _ = p.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.reactor.is_some() || !self.workers.is_empty() || self.preparer.is_some() {
            self.shutdown_impl();
        }
    }
}

/// The request's input tensor, or why no model could ever answer it. The
/// wire still carries the retired `stream_len` and early-exit `margin`
/// fields, but every request runs at its model's one prepared stream
/// length, so a request that sets either is refused.
fn checked_input(req: InferRequest) -> Result<Tensor, String> {
    if req.stream_len.is_some() || req.margin.is_some() {
        return Err("stream_len and margin are retired; requests run at the model's length".into());
    }
    if req.values.iter().any(|v| !v.is_finite()) {
        return Err("non-finite input values".into());
    }
    let shape: Vec<usize> = req.shape.iter().map(|&d| d as usize).collect();
    Tensor::from_vec(&shape, req.values).map_err(|e| e.to_string())
}

/// Validates a decoded request and runs admission control. `home` is the
/// connection's home shard.
pub(crate) fn admit(req: InferRequest, conn: &Arc<ReactorConn>, home: usize, shared: &Shared) {
    Stats::bump(&shared.stats.received);
    let id = req.request_id;
    let model_id = req.model_id;
    let deadline_micros = req.deadline_micros;

    // Model-independent checks come first, so a request that can never
    // succeed neither queues a prepare nor takes a queue slot.
    let input = match checked_input(req) {
        Ok(t) => t,
        Err(msg) => {
            Stats::bump(&shared.stats.failed);
            send_error(conn, id, ErrorCode::BadInput, msg);
            return;
        }
    };
    let model = match shared.registry.resolve_warm(model_id) {
        Ok(Some(m)) => m,
        Ok(None) => {
            // Registered but evicted from the cache. Recompiling here
            // would stall this worker (and, behind it, the connection's
            // whole parse FIFO) for the full prepare time, so the compile
            // is handed to the background prepare thread and the client
            // told to retry.
            if shared.request_prepare(model_id) {
                Stats::bump(&shared.stats.rejected_warming);
                send_error(
                    conn,
                    id,
                    ErrorCode::Warming,
                    format!("model {model_id} is warming, retry"),
                );
            } else {
                // Prepare thread already gone: shutdown is in progress.
                Stats::bump(&shared.stats.rejected_shutdown);
                send_error(conn, id, ErrorCode::ShuttingDown, "server shutting down");
            }
            return;
        }
        Err(RegistryError::UnknownModel(_)) => {
            Stats::bump(&shared.stats.rejected_unknown_model);
            send_error(
                conn,
                id,
                ErrorCode::UnknownModel,
                format!("model {model_id}"),
            );
            return;
        }
        Err(e) => {
            // Registry faults other than "unknown id" are internal.
            Stats::bump(&shared.stats.failed);
            send_error(conn, id, ErrorCode::Internal, e.to_string());
            return;
        }
    };

    let now = Instant::now();
    let deadline = if deadline_micros == 0 {
        shared.cfg.default_deadline
    } else {
        Duration::from_micros(u64::from(deadline_micros))
    };
    let pending = Pending {
        id,
        model_id,
        model,
        input,
        admitted: now,
        deadline: now + deadline,
        conn: Arc::clone(conn),
    };

    // Per-model admission sub-budget, checked before the shared queue so
    // one model's burst is rejected while other models still get slots.
    let gate = shared
        .gates
        .get(&model_id)
        .expect("gate exists for every registered model");
    if gate.fetch_add(1, Ordering::SeqCst) >= shared.model_share {
        gate.fetch_sub(1, Ordering::SeqCst);
        Stats::bump(&shared.stats.rejected_model_budget);
        send_error(
            conn,
            id,
            ErrorCode::Overloaded,
            format!("model {model_id} admission budget exhausted"),
        );
        return;
    }

    // The reply (wherever it comes from) decrements `outstanding`, so the
    // increment must precede the push.
    conn.outstanding.fetch_add(1, Ordering::SeqCst);
    match shared.queue.try_push(pending, home) {
        Ok(()) => Stats::bump(&shared.stats.accepted),
        Err(ShardPush::Full) => {
            shared.release_gate(model_id);
            conn.outstanding.fetch_sub(1, Ordering::SeqCst);
            Stats::bump(&shared.stats.rejected_overload);
            send_error(conn, id, ErrorCode::Overloaded, "request queue full");
        }
        Err(ShardPush::Closed) => {
            shared.release_gate(model_id);
            conn.outstanding.fetch_sub(1, Ordering::SeqCst);
            Stats::bump(&shared.stats.rejected_shutdown);
            send_error(conn, id, ErrorCode::ShuttingDown, "server shutting down");
        }
    }
}

// --- workers --------------------------------------------------------------

fn worker_loop(shared: &Arc<Shared>, index: usize) {
    let engine = BatchEngine::new(shared.cfg.engine_workers).expect("config validated at startup");
    let home = index % shared.queue.shards();
    loop {
        match shared.queue.pop(home, POLL) {
            ShardPop::Drained => break,
            ShardPop::TimedOut => continue,
            ShardPop::Item(first) => {
                let batch = collect_batch(first, home, shared);
                execute_batch(batch, &engine, shared);
            }
        }
    }
}

/// Collects up to `batch_max` requests, waiting at most `batch_wait` past
/// the first one.
fn collect_batch(first: Pending, home: usize, shared: &Arc<Shared>) -> Vec<Pending> {
    let cfg = &shared.cfg;
    let mut batch = vec![first];
    if cfg.batch_max > 1 {
        let horizon = Instant::now() + cfg.batch_wait;
        while batch.len() < cfg.batch_max {
            let now = Instant::now();
            if now >= horizon {
                break;
            }
            match shared.queue.pop(home, horizon - now) {
                ShardPop::Item(r) => batch.push(r),
                ShardPop::TimedOut | ShardPop::Drained => break,
            }
        }
    }
    batch
}

fn execute_batch(batch: Vec<Pending>, engine: &BatchEngine, shared: &Arc<Shared>) {
    let dequeued = Instant::now();

    // The batch has left the queue; free its models' admission budgets.
    for p in &batch {
        shared.release_gate(p.model_id);
    }

    // Deadline enforcement happens here — an expired request is answered
    // without touching the simulator.
    let mut live: Vec<Pending> = Vec::with_capacity(batch.len());
    for p in batch {
        if dequeued > p.deadline {
            Stats::bump(&shared.stats.expired);
            send_error(
                &p.conn,
                p.id,
                ErrorCode::DeadlineExceeded,
                "deadline expired in queue",
            );
            p.conn.outstanding.fetch_sub(1, Ordering::SeqCst);
        } else {
            live.push(p);
        }
    }
    if live.is_empty() {
        return;
    }

    // A micro-batch may span models; group per prepared model.
    let mut groups: Vec<(u64, Vec<Pending>)> = Vec::new();
    for p in live {
        let key = p.model.fingerprint();
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, g)) => g.push(p),
            None => groups.push((key, vec![p])),
        }
    }

    for (_, group) in groups {
        Stats::bump(&shared.stats.batches);
        Stats::add(&shared.stats.batch_requests, group.len() as u64);
        let model = Arc::clone(&group[0].model);
        let requests: Vec<ReadyRequest<'_>> = group
            .iter()
            .map(|p| ReadyRequest::new(p.id, &p.input))
            .collect();
        let effective_len = model.config().stream_len as u32;
        let started = Instant::now();
        let outcomes = engine
            .run_ready_counted(&model, &requests)
            .map(|(outs, kernel)| {
                shared.stats.absorb_kernel(&kernel);
                outs
            });
        let service = started.elapsed();
        // Per-request service time inside a batch is not individually
        // measurable; attribute the batch mean to each request.
        let per_request_ns = (service.as_nanos() / group.len() as u128) as u64;

        match outcomes {
            Ok(outs) => {
                for (p, out) in group.iter().zip(outs) {
                    match out {
                        Ok(logits) => {
                            Stats::bump(&shared.stats.completed);
                            Stats::add(
                                &shared.stats.queue_wait_ns,
                                (dequeued - p.admitted).as_nanos() as u64,
                            );
                            Stats::add(&shared.stats.service_ns, per_request_ns);
                            p.conn.send(&Frame::InferResponse(InferResponse {
                                request_id: p.id,
                                effective_len,
                                logits: logits.as_slice().to_vec(),
                            }));
                        }
                        Err(e) => {
                            Stats::bump(&shared.stats.failed);
                            send_error(&p.conn, p.id, ErrorCode::BadInput, e.to_string());
                        }
                    }
                    p.conn.outstanding.fetch_sub(1, Ordering::SeqCst);
                }
            }
            Err(e) => {
                // Up-front validation rules out bad wire requests, so this
                // is a panicking engine job: answer every request of the
                // batch rather than hanging clients.
                let msg = e.to_string();
                for p in &group {
                    Stats::bump(&shared.stats.failed);
                    send_error(&p.conn, p.id, ErrorCode::Internal, msg.clone());
                    p.conn.outstanding.fetch_sub(1, Ordering::SeqCst);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ModelSpec;
    use acoustic_nn::layers::{AccumMode, Dense, Network};
    use acoustic_runtime::ModelCache;
    use acoustic_simfunc::SimConfig;

    /// Single-flight without a race: no prepare thread runs, so the second
    /// cold request for a warming model must find it in the warming set and
    /// enqueue nothing. `prepare_loop` then compiles the job and clears the
    /// set; with the job sender gone the caller is told to reject.
    #[test]
    fn request_prepare_is_single_flight() {
        let mut network = Network::new();
        network.push_dense(Dense::new(4, 2, AccumMode::OrApprox).unwrap());
        let cfg = SimConfig::with_stream_len(64).unwrap();
        let registry = ModelRegistry::build(
            vec![ModelSpec {
                id: 1,
                network,
                cfg,
            }],
            &Arc::new(ModelCache::new()),
        )
        .unwrap();
        registry.cache().clear();
        let (tx, jobs) = mpsc::channel();
        let serve = ServeConfig::default();
        let shared = Shared {
            registry,
            cfg: serve,
            queue: ShardedQueue::new(serve.queue_capacity, 1),
            stats: Stats::default(),
            shutdown: AtomicBool::new(false),
            gates: HashMap::new(),
            model_share: 1,
            conn_rr: AtomicUsize::new(0),
            warming: Mutex::new(HashSet::new()),
            prepare_tx: Mutex::new(Some(tx)),
        };
        assert!(shared.request_prepare(1));
        assert!(shared.request_prepare(1));
        let queued: Vec<u32> = jobs.try_iter().collect();
        assert_eq!(queued, [1], "one compile per warming model");
        // The prepare thread's loop over that job, then its shutdown.
        let tx = shared.prepare_tx.lock().unwrap().take().unwrap();
        tx.send(1).unwrap();
        drop(tx);
        prepare_loop(&shared, &jobs);
        assert!(shared.warming.lock().unwrap().is_empty());
        assert!(shared.registry.resolve_warm(1).unwrap().is_some());
        assert!(!shared.request_prepare(1), "no prepare thread to take it");
    }
}
