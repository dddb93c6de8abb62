//! Non-blocking connection reactor built on acoustic-net: the server's
//! one I/O path.
//!
//! One thread owns every client socket. Each poll tick it:
//!
//! 1. accepts new connections (until `WouldBlock` or the connection cap),
//! 2. reads **one bounded chunk** per readable connection into its
//!    [`FrameBuf`] and parses as many complete frames as arrived — a
//!    client dribbling a header one byte per second occupies a buffer, not
//!    a thread, and cannot stall any worker,
//! 3. moves reply bytes spooled by workers (via each connection's
//!    [`ReactorConn`] outbox) into per-connection [`WriteBuf`]s and
//!    flushes them as far as the socket allows, registering write
//!    interest only while bytes remain (backpressure without busy-poll),
//! 4. reaps connections that are finished (peer closed and every reply
//!    delivered), dead (transport error) or idle past the configured
//!    timeout.
//!
//! Workers never touch sockets: they append encoded frames to the
//! connection's outbox and ring the shared [`Waker`], which the poller
//! observes as a readable fd. The reply-visibility rule: `outstanding` is
//! decremented only *after* the frame was handed to
//! [`ReactorConn::send`], so once the reactor observes `outstanding == 0`
//! (and then finds the outbox empty), every reply byte is either flushed
//! or in its write buffer.

use std::collections::HashMap;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use acoustic_net::{FrameBuf, Interest, Poller, ReadOutcome, Waker, WriteBuf};

use crate::protocol::{
    decode_frame, encode_frame, ErrorCode, Frame, FrameHeader, WireError, HEADER_LEN,
};
use crate::server::{admit, send_error, Shared, DRAIN_CAP, POLL};
use crate::stats::Stats;

/// Reserved poller token for the listening socket.
const TOK_LISTENER: usize = 0;
/// Reserved poller token for the waker's receive side.
const TOK_WAKER: usize = 1;
/// First token handed to a client connection.
const TOK_FIRST_CONN: usize = 2;

/// The worker-facing half of a reactor connection: where replies go.
pub(crate) struct ReactorConn {
    /// Encoded frames spooled by workers, drained by the reactor.
    outbox: Mutex<Vec<u8>>,
    /// Admitted-but-unanswered requests on this connection. Every reply
    /// decrements it **after** the frame was handed to [`Self::send`].
    pub(crate) outstanding: AtomicUsize,
    /// Set when the transport died; late replies become no-ops instead of
    /// growing an outbox nobody will ever flush.
    dead: AtomicBool,
    waker: Arc<Waker>,
}

impl ReactorConn {
    /// Spools one encoded frame and wakes the reactor. A no-op once the
    /// connection is dead: the client is gone, and per-request bookkeeping
    /// still runs.
    pub(crate) fn send(&self, frame: &Frame) {
        if self.dead.load(Ordering::SeqCst) {
            return;
        }
        let bytes = encode_frame(frame);
        self.outbox
            .lock()
            .expect("reactor outbox poisoned")
            .extend_from_slice(&bytes);
        self.waker.wake();
    }
}

/// Reactor-side connection state machine.
struct Conn {
    stream: TcpStream,
    inbuf: FrameBuf,
    wbuf: WriteBuf,
    /// Reply half; admission clones it into each queued request.
    shared_conn: Arc<ReactorConn>,
    home: usize,
    last_activity: Instant,
    /// No more requests will be read (peer EOF, protocol desync, or
    /// server shutdown); the connection lingers until replies flush.
    read_closed: bool,
    /// Transport failed; reap immediately.
    dead: bool,
    /// Interest currently registered with the poller (`None` = not
    /// registered).
    registered: Option<Interest>,
}

impl Conn {
    fn desired_interest(&self) -> Option<Interest> {
        let want_read = !self.read_closed && !self.dead;
        let want_write = !self.dead && !self.wbuf.is_empty();
        match (want_read, want_write) {
            (true, true) => Some(Interest::ReadWrite),
            (true, false) => Some(Interest::Read),
            (false, true) => Some(Interest::Write),
            (false, false) => None,
        }
    }
}

/// Runs until shutdown is observed **and** every admitted request has been
/// answered and flushed (bounded by [`DRAIN_CAP`]).
pub(crate) fn reactor_loop(listener: TcpListener, shared: &Arc<Shared>, waker: &Arc<Waker>) {
    let mut poller = Poller::new();
    poller.register(TOK_LISTENER, listener.as_raw_fd(), Interest::Read);
    poller.register(TOK_WAKER, waker.fd(), Interest::Read);

    let mut conns: HashMap<usize, Conn> = HashMap::new();
    let mut events = Vec::new();
    let mut next_token = TOK_FIRST_CONN;
    let mut accepting = true;
    let mut drain_deadline: Option<Instant> = None;

    loop {
        let shutting = shared.shutdown.load(Ordering::SeqCst);
        if shutting && accepting {
            accepting = false;
            poller.deregister(TOK_LISTENER);
            drain_deadline = Some(Instant::now() + DRAIN_CAP);
            for c in conns.values_mut() {
                c.read_closed = true;
            }
        }

        if poller.wait(&mut events, Some(POLL)).is_err() {
            // Defensive: wait() only fails on unsupported hosts, where the
            // reactor is never constructed. Avoid a hot spin regardless.
            std::thread::sleep(POLL);
        }

        for ev in &events {
            match ev.token {
                TOK_LISTENER => {
                    if accepting {
                        accept_ready(
                            &listener,
                            shared,
                            waker,
                            &mut poller,
                            &mut conns,
                            &mut next_token,
                        );
                    }
                }
                TOK_WAKER => waker.drain(),
                token => {
                    if let Some(conn) = conns.get_mut(&token) {
                        if ev.readable && !conn.read_closed && !conn.dead {
                            handle_readable(conn, shared);
                        }
                        if ev.error && !ev.readable {
                            conn.dead = true;
                        }
                    }
                }
            }
        }

        // Maintenance pass: spool outboxes, flush, fix interest, reap.
        let now = Instant::now();
        let mut reap: Vec<usize> = Vec::new();
        for (&token, conn) in conns.iter_mut() {
            {
                let mut outbox = conn
                    .shared_conn
                    .outbox
                    .lock()
                    .expect("reactor outbox poisoned");
                if !outbox.is_empty() {
                    conn.wbuf.queue(&outbox);
                    outbox.clear();
                    conn.last_activity = now;
                }
            }
            if !conn.dead && !conn.wbuf.is_empty() {
                // flush_to maps WouldBlock to Ok(false); a real error means
                // the transport died under us.
                if conn.wbuf.flush_to(&mut conn.stream).is_err() {
                    conn.dead = true;
                }
            }
            if should_reap(conn, shared, shutting, now) {
                reap.push(token);
            } else {
                let want = conn.desired_interest();
                if want != conn.registered {
                    match (want, conn.registered) {
                        (Some(i), Some(_)) => poller.reregister(token, i),
                        (Some(i), None) => poller.register(token, conn.stream.as_raw_fd(), i),
                        (None, Some(_)) => poller.deregister(token),
                        (None, None) => {}
                    }
                    conn.registered = want;
                }
            }
        }
        for token in reap {
            if let Some(conn) = conns.remove(&token) {
                if conn.registered.is_some() {
                    poller.deregister(token);
                }
                conn.shared_conn.dead.store(true, Ordering::SeqCst);
                shared
                    .stats
                    .active_connections
                    .fetch_sub(1, Ordering::Relaxed);
            }
        }

        if shutting {
            let outstanding: usize = conns
                .values()
                .map(|c| c.shared_conn.outstanding.load(Ordering::SeqCst))
                .sum();
            let buffered = conns.values().any(|c| {
                !c.wbuf.is_empty()
                    || !c
                        .shared_conn
                        .outbox
                        .lock()
                        .expect("reactor outbox poisoned")
                        .is_empty()
            });
            let expired = drain_deadline.is_some_and(|d| Instant::now() >= d);
            if (outstanding == 0 && !buffered) || expired {
                break;
            }
        }
    }

    for (_, conn) in conns.drain() {
        conn.shared_conn.dead.store(true, Ordering::SeqCst);
        shared
            .stats
            .active_connections
            .fetch_sub(1, Ordering::Relaxed);
    }
}

fn accept_ready(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    waker: &Arc<Waker>,
    poller: &mut Poller,
    conns: &mut HashMap<usize, Conn>,
    next_token: &mut usize,
) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if conns.len() >= shared.cfg.max_connections {
                    // Reject by dropping: the kernel sends RST/FIN and the
                    // client sees a closed connection, not a hung one.
                    drop(stream);
                    continue;
                }
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                let token = *next_token;
                *next_token += 1;
                let shared_conn = Arc::new(ReactorConn {
                    outbox: Mutex::new(Vec::new()),
                    outstanding: AtomicUsize::new(0),
                    dead: AtomicBool::new(false),
                    waker: Arc::clone(waker),
                });
                poller.register(token, stream.as_raw_fd(), Interest::Read);
                shared.stats.connection_opened();
                conns.insert(
                    token,
                    Conn {
                        stream,
                        inbuf: FrameBuf::new(),
                        wbuf: WriteBuf::new(),
                        shared_conn,
                        home: shared.next_home_shard(),
                        last_activity: Instant::now(),
                        read_closed: false,
                        dead: false,
                        registered: Some(Interest::Read),
                    },
                );
            }
            Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(_) => break,
        }
    }
}

/// One bounded read plus a parse sweep over whatever is buffered.
fn handle_readable(conn: &mut Conn, shared: &Arc<Shared>) {
    match conn.inbuf.read_from(&mut conn.stream) {
        Ok(ReadOutcome::Data(_)) => {
            conn.last_activity = Instant::now();
            parse_frames(conn, shared);
        }
        Ok(ReadOutcome::WouldBlock) => {}
        Ok(ReadOutcome::Eof) => {
            // Keep the connection until buffered replies flush.
            conn.read_closed = true;
        }
        Err(_) => conn.dead = true,
    }
}

/// Decodes every complete frame in the input buffer. Partial frames stay
/// buffered for the next readable tick — that is the whole slow-client
/// story: no thread waits on them.
fn parse_frames(conn: &mut Conn, shared: &Arc<Shared>) {
    loop {
        let buf = conn.inbuf.bytes();
        if buf.len() < HEADER_LEN {
            return;
        }
        let mut header = [0u8; HEADER_LEN];
        header.copy_from_slice(&buf[..HEADER_LEN]);
        let parsed = crate::protocol::parse_header(&header, shared.cfg.max_payload);
        let FrameHeader {
            ty,
            request_id,
            payload_len,
        } = match parsed {
            Ok(h) => h,
            Err(WireError::Malformed {
                request_id, reason, ..
            }) => {
                // Header-level violations always desync the stream.
                Stats::bump(&shared.stats.rejected_malformed);
                send_error(&conn.shared_conn, request_id, ErrorCode::Malformed, reason);
                conn.read_closed = true;
                return;
            }
            Err(WireError::Io(_)) => unreachable!("parse_header performs no I/O"),
        };
        let total = HEADER_LEN + payload_len;
        if buf.len() < total {
            return; // partial body: wait for more bytes
        }
        let decoded = decode_frame(ty, request_id, &buf[HEADER_LEN..total]);
        conn.inbuf.consume(total);
        match decoded {
            Ok(Frame::InferRequest(req)) => admit(req, &conn.shared_conn, conn.home, shared),
            Ok(Frame::StatsRequest(id)) => {
                conn.shared_conn
                    .send(&Frame::StatsResponse(id, shared.snapshot()));
            }
            Ok(other) => {
                Stats::bump(&shared.stats.rejected_malformed);
                send_error(
                    &conn.shared_conn,
                    other.request_id(),
                    ErrorCode::Malformed,
                    "unexpected frame type from client",
                );
            }
            Err(WireError::Malformed {
                request_id,
                recoverable,
                reason,
            }) => {
                Stats::bump(&shared.stats.rejected_malformed);
                send_error(&conn.shared_conn, request_id, ErrorCode::Malformed, reason);
                if !recoverable {
                    conn.read_closed = true;
                    return;
                }
            }
            Err(WireError::Io(_)) => unreachable!("decode_frame performs no I/O"),
        }
    }
}

/// Whether a connection is finished. Evaluation order matters: observe
/// `outstanding == 0` **before** checking the outbox, so the
/// decrement-after-send discipline guarantees no reply can be lost.
fn should_reap(conn: &Conn, shared: &Arc<Shared>, shutting: bool, now: Instant) -> bool {
    if conn.dead {
        return true;
    }
    let quiescent = conn.shared_conn.outstanding.load(Ordering::SeqCst) == 0
        && conn
            .shared_conn
            .outbox
            .lock()
            .expect("reactor outbox poisoned")
            .is_empty()
        && conn.wbuf.is_empty();
    if conn.read_closed && quiescent {
        return true;
    }
    if !shutting && !conn.read_closed && quiescent && conn.inbuf.is_empty() {
        if let Some(limit) = shared.cfg.idle_timeout {
            if now.duration_since(conn.last_activity) >= limit {
                Stats::bump(&shared.stats.idle_reaped);
                return true;
            }
        }
    }
    false
}
