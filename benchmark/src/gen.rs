//! The `gen` layer: the benchmark's own load generator, on the public
//! `Client`. One connection, this thread as sender and one receiver
//! thread, fixed absolute rates only (never scaled by a capacity measured
//! in the same run). Every request keeps its due, first-send and
//! final-reply times, so latency runs from when a request was *due* — a
//! stall that delays later sends is charged to them — and the
//! generator's own lateness is reported beside it.
//!
//! `Warming` (model evicted, re-preparing in the background) and
//! `Overloaded` (admission queue full) are the replies the protocol asks
//! clients to retry, so the generator resends the same request id after a
//! short backoff, like a real client would; the request's latency runs to
//! its final answer, and the server's counters still show every bounce.

use std::collections::{HashMap, HashSet, VecDeque};
use std::net::SocketAddr;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

use acoustic_serve::{Client, ErrorCode, Frame, InferReply, InferRequest, StatsSnapshot};

/// Wait before a bounced request is sent again: about a third of a zoo
/// CNN's re-prepare after `Warming`; after `Overloaded`, about the time
/// the two workers take to drain a few micro-batches.
const WARMING_BACKOFF: Duration = Duration::from_millis(10);
const OVERLOADED_BACKOFF: Duration = Duration::from_millis(1);

/// Bounces after which a request counts as failed (a second of retrying
/// after `Warming`).
const MAX_BOUNCES: u32 = 100;

/// How long after its last send a phase waits for outstanding replies
/// before reporting them unanswered.
const GRACE: Duration = Duration::from_secs(5);

/// Interval of the in-band STATS probes of a traced run.
const PROBE_EVERY: Duration = Duration::from_millis(100);

/// Id spaces of STATS frames, apart from inference ids (which count up
/// from 0 and double as the server's per-image seed index).
const PROBE_ID: u64 = 1 << 62;
const FENCE_ID: u64 = 1 << 63;

/// How a phase issues requests.
pub enum Pacing {
    /// Open loop: request `i` is due `offsets[i]` after the phase starts,
    /// whatever the server does.
    Open(Vec<Duration>),
    /// Closed loop: keep `window` requests outstanding until `duration`
    /// has passed.
    Closed { window: usize, duration: Duration },
}

/// One request of a phase. Times are nanoseconds since the run's epoch.
pub struct Record {
    pub id: u64,
    pub due_ns: u64,
    pub sent_ns: u64,
    /// When the final reply was read; `None` if none came.
    pub replied_ns: Option<u64>,
    /// Sends of this id, retries included.
    pub attempts: u32,
    pub reply: Option<InferReply>,
}

/// Everything one phase produced.
pub struct Phase {
    pub start_ns: u64,
    /// When the phase stopped issuing new requests.
    pub issue_end_ns: u64,
    pub records: Vec<Record>,
    /// `(sent_ns, replied_ns)` of answered STATS probes.
    pub probes: Vec<(u64, u64)>,
    /// Inference frames written, retries included.
    pub frames_sent: u64,
    /// Replies for ids already answered or not issued in this phase.
    pub extra_replies: u64,
    /// Server statistics answered after every reply of the phase arrived.
    pub fence: StatsSnapshot,
}

enum Event {
    Final,
    /// Resend request `id` after the backoff.
    Retry(u64, Duration),
}

/// What the sender wrote.
#[derive(Default)]
struct SendLog {
    due_ns: Vec<u64>,
    sent_ns: Vec<u64>,
    attempts: Vec<u32>,
    probes_sent: Vec<u64>,
    frames: u64,
    issue_end_ns: u64,
}

/// What the receiver read.
#[derive(Default)]
struct Receipts {
    finals: Vec<(u64, u64, InferReply)>,
    probes: Vec<(u64, u64)>,
    extra: u64,
    fence: Option<StatsSnapshot>,
}

/// One connection to the server under test.
pub struct Gen {
    writer: Client,
    reader: Option<Client>,
    epoch: Instant,
    next_id: u64,
    fences: u64,
}

impl Gen {
    pub fn connect(addr: SocketAddr, epoch: Instant) -> Result<Gen, String> {
        let writer = Client::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
        let reader = writer.try_clone().map_err(|e| e.to_string())?;
        Ok(Gen {
            writer,
            reader: Some(reader),
            epoch,
            next_id: 0,
            fences: 0,
        })
    }

    fn next_fence(&mut self) -> u64 {
        self.fences += 1;
        FENCE_ID | self.fences
    }

    /// A synchronous STATS round trip, for use between phases only.
    pub fn stats(&mut self) -> Result<StatsSnapshot, String> {
        let id = self.next_fence();
        self.writer.stats(id).map_err(|e| e.to_string())
    }

    /// Runs one phase to completion: issues requests per `pacing` (built
    /// by `build` from their id), retries `Warming` and `Overloaded` bounces, optionally
    /// probes STATS every [`PROBE_EVERY`], then waits for every reply and
    /// fences the phase with a STATS request.
    pub fn run(
        &mut self,
        pacing: &Pacing,
        build: &dyn Fn(u64) -> InferRequest,
        probe: bool,
    ) -> Result<Phase, String> {
        let epoch = self.epoch;
        let first_id = self.next_id;
        let start_ns = ns_since(epoch);
        let fence_id = self.next_fence();
        let reader = self
            .reader
            .take()
            .ok_or("the previous phase lost its connection")?;
        let writer = &mut self.writer;
        let (tx, rx) = mpsc::channel();

        let (log, (reader, receipts)) = std::thread::scope(|scope| {
            let receiver = scope.spawn(move || receive(reader, &tx, epoch, fence_id));
            let log = drive(writer, &rx, pacing, build, probe, epoch, first_id, start_ns);
            // The fence goes out whatever happened, so the receiver ends.
            let fenced = writer.send(&Frame::StatsRequest(fence_id));
            let deadline = Instant::now() + GRACE;
            loop {
                match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
                    Ok(_) => {}
                    Err(RecvTimeoutError::Disconnected) => break,
                    Err(RecvTimeoutError::Timeout) => {
                        writer.shutdown_read();
                        break;
                    }
                }
            }
            let received = receiver.join().expect("receiver thread panicked");
            let log = fenced.map_err(|e| e.to_string()).and(log);
            (log, received)
        });
        self.reader = Some(reader);
        let log = log?;
        let fence = receipts
            .fence
            .ok_or("the server did not answer the end-of-phase STATS request")?;

        let issued = log.due_ns.len();
        let mut finals: Vec<Option<(u64, InferReply)>> = (0..issued).map(|_| None).collect();
        let mut extra_replies = receipts.extra;
        for (id, at, reply) in receipts.finals {
            match id.checked_sub(first_id).map(|i| i as usize) {
                Some(i) if i < issued => finals[i] = Some((at, reply)),
                _ => extra_replies += 1,
            }
        }
        let records = finals
            .into_iter()
            .enumerate()
            .map(|(i, fin)| {
                let (replied_ns, reply) = match fin {
                    Some((at, r)) => (Some(at), Some(r)),
                    None => (None, None),
                };
                Record {
                    id: first_id + i as u64,
                    due_ns: log.due_ns[i],
                    sent_ns: log.sent_ns[i],
                    replied_ns,
                    attempts: log.attempts[i],
                    reply,
                }
            })
            .collect();
        let probes = receipts
            .probes
            .into_iter()
            .filter_map(|(k, at)| log.probes_sent.get(k as usize).map(|&sent| (sent, at)))
            .collect();
        self.next_id += issued as u64;
        Ok(Phase {
            start_ns,
            issue_end_ns: log.issue_end_ns,
            records,
            probes,
            frames_sent: log.frames,
            extra_replies,
            fence,
        })
    }
}

fn ns_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

fn nanos(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// The sender: issues requests and probes on time and resends bounced
/// requests, until everything issued has a final reply (or the grace
/// period after the last send runs out).
#[allow(clippy::too_many_arguments)]
fn drive(
    writer: &mut Client,
    events: &Receiver<Event>,
    pacing: &Pacing,
    build: &dyn Fn(u64) -> InferRequest,
    probe: bool,
    epoch: Instant,
    first_id: u64,
    start_ns: u64,
) -> Result<SendLog, String> {
    let mut log = SendLog::default();
    let mut retries: VecDeque<(u64, u64)> = VecDeque::new();
    let mut outstanding = 0usize;
    let mut next_probe = start_ns + nanos(PROBE_EVERY);
    let mut last_send = start_ns;
    let apply = |ev: Event, outstanding: &mut usize, retries: &mut VecDeque<(u64, u64)>| match ev {
        Event::Final => *outstanding -= 1,
        Event::Retry(id, backoff) => retries.push_back((ns_since(epoch) + nanos(backoff), id)),
    };
    loop {
        while let Ok(ev) = events.try_recv() {
            apply(ev, &mut outstanding, &mut retries);
        }
        let now = ns_since(epoch);
        if let Some(&(at, id)) = retries.front() {
            if at <= now {
                retries.pop_front();
                last_send = send(writer, build(id), epoch)?;
                log.frames += 1;
                log.attempts[(id - first_id) as usize] += 1;
                continue;
            }
        }
        let issued = log.due_ns.len();
        let (issuing, next_due) = match pacing {
            Pacing::Open(offsets) => match offsets.get(issued) {
                Some(off) => (true, start_ns + nanos(*off)),
                None => (false, u64::MAX),
            },
            Pacing::Closed { window, duration } => {
                let open = now < start_ns + nanos(*duration);
                let due = if outstanding < *window {
                    now
                } else {
                    start_ns + nanos(*duration)
                };
                (open, due)
            }
        };
        if issuing && next_due <= now {
            let sent = send(writer, build(first_id + issued as u64), epoch)?;
            log.due_ns.push(next_due);
            log.sent_ns.push(sent);
            log.attempts.push(1);
            log.frames += 1;
            outstanding += 1;
            last_send = sent;
            continue;
        }
        if !issuing && log.issue_end_ns == 0 {
            log.issue_end_ns = now;
        }
        if probe && issuing && next_probe <= now {
            let k = log.probes_sent.len() as u64;
            log.probes_sent.push(ns_since(epoch));
            writer
                .send(&Frame::StatsRequest(PROBE_ID | k))
                .map_err(|e| e.to_string())?;
            next_probe += nanos(PROBE_EVERY);
            continue;
        }
        let give_up = last_send + nanos(GRACE);
        if !issuing && (outstanding == 0 || now > give_up) {
            return Ok(log);
        }
        // Sleep until the next timed send, or until an event arrives.
        let mut wake = if issuing { next_due } else { give_up };
        if let Some(&(at, _)) = retries.front() {
            wake = wake.min(at);
        }
        if probe && issuing {
            wake = wake.min(next_probe);
        }
        match events.recv_timeout(Duration::from_nanos(wake.saturating_sub(now))) {
            Ok(ev) => apply(ev, &mut outstanding, &mut retries),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => {
                return Err("the connection closed mid-phase".into());
            }
        }
    }
}

/// Writes one request; returns when it started (the reply may be read
/// before the write call returns).
fn send(writer: &mut Client, req: InferRequest, epoch: Instant) -> Result<u64, String> {
    let id = req.request_id;
    let at = ns_since(epoch);
    writer
        .send(&Frame::InferRequest(req))
        .map_err(|e| format!("sending request {id}: {e}"))?;
    Ok(at)
}

/// The receiver: reads every frame until the phase's fence reply, hands
/// bounced requests back for a resend and reports final replies.
fn receive(
    mut reader: Client,
    events: &Sender<Event>,
    epoch: Instant,
    fence_id: u64,
) -> (Client, Receipts) {
    let mut got = Receipts::default();
    let mut answered: HashSet<u64> = HashSet::new();
    let mut bounces: HashMap<u64, u32> = HashMap::new();
    while let Ok(frame) = reader.recv() {
        let now = ns_since(epoch);
        let (id, reply) = match frame {
            Frame::InferResponse(r) => (r.request_id, InferReply::Ok(r)),
            Frame::Error(e) => (e.request_id, InferReply::Err(e)),
            Frame::StatsResponse(id, snap) if id == fence_id => {
                got.fence = Some(snap);
                break;
            }
            Frame::StatsResponse(id, _) if id & (PROBE_ID | FENCE_ID) == PROBE_ID => {
                got.probes.push((id & !PROBE_ID, now));
                continue;
            }
            _ => {
                got.extra += 1;
                continue;
            }
        };
        if answered.contains(&id) {
            got.extra += 1;
            continue;
        }
        let backoff = match &reply {
            InferReply::Err(e) if e.code == ErrorCode::Warming => Some(WARMING_BACKOFF),
            InferReply::Err(e) if e.code == ErrorCode::Overloaded => Some(OVERLOADED_BACKOFF),
            _ => None,
        };
        if let Some(backoff) = backoff {
            let n = bounces.entry(id).or_insert(0);
            *n += 1;
            if *n < MAX_BOUNCES {
                let _ = events.send(Event::Retry(id, backoff));
                continue;
            }
        }
        answered.insert(id);
        got.finals.push((id, now, reply));
        let _ = events.send(Event::Final);
    }
    (reader, got)
}
