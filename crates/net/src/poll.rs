//! Minimal level-triggered readiness poller.
//!
//! The poller is deliberately the simplest thing that works: callers
//! register `(token, fd, interest)` triples, and every [`Poller::wait`]
//! rebuilds the kernel pollfd array from the registration table and calls
//! `ppoll(2)`. Rebuilding per tick is O(n) in registered fds, which for a
//! serving reactor is dwarfed by the per-event protocol work — and it
//! makes the poller trivially level-triggered with no stale-interest
//! bookkeeping (the perennial epoll bug class).
//!
//! Tokens are caller-chosen `usize` identifiers carried back on
//! [`Event`]s; the poller never interprets them.

use std::collections::HashMap;
use std::io;
use std::time::Duration;

use crate::sys::{self, PollFd, POLLERR, POLLHUP, POLLIN, POLLNVAL, POLLOUT};

/// What a registered descriptor should be watched for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interest {
    /// Readable only.
    Read,
    /// Writable only.
    Write,
    /// Both directions.
    ReadWrite,
}

impl Interest {
    fn events(self) -> i16 {
        match self {
            Interest::Read => POLLIN,
            Interest::Write => POLLOUT,
            Interest::ReadWrite => POLLIN | POLLOUT,
        }
    }
}

/// One readiness notification from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token supplied at registration.
    pub token: usize,
    /// Readable (or peer closed; a read will not block).
    pub readable: bool,
    /// Writable without blocking.
    pub writable: bool,
    /// Error/hangup/invalid condition; the owner should tear the
    /// descriptor down after draining what it can.
    pub error: bool,
}

/// Level-triggered poller over raw file descriptors.
///
/// Not thread-safe by design: exactly one reactor thread owns it. Other
/// threads interrupt a blocked [`Poller::wait`] via [`crate::Waker`].
#[derive(Debug, Default)]
pub struct Poller {
    // token -> (fd, interest). HashMap rather than Vec-by-token because
    // connection tokens are sparse once conns churn.
    registered: HashMap<usize, (i32, Interest)>,
    // Scratch buffers reused across ticks.
    fds: Vec<PollFd>,
    tokens: Vec<usize>,
}

impl Poller {
    /// A poller with no registrations.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether readiness polling works on this target. When `false`,
    /// [`Poller::wait`] always fails and callers must not construct a
    /// reactor.
    pub fn supported() -> bool {
        sys::SUPPORTED
    }

    /// Registers `fd` under `token`, replacing any previous registration
    /// of the same token.
    pub fn register(&mut self, token: usize, fd: i32, interest: Interest) {
        self.registered.insert(token, (fd, interest));
    }

    /// Changes the interest of an existing registration; no-op for an
    /// unknown token.
    pub fn reregister(&mut self, token: usize, interest: Interest) {
        if let Some(entry) = self.registered.get_mut(&token) {
            entry.1 = interest;
        }
    }

    /// Removes a registration; no-op for an unknown token.
    pub fn deregister(&mut self, token: usize) {
        self.registered.remove(&token);
    }

    /// Number of currently registered descriptors.
    pub fn len(&self) -> usize {
        self.registered.len()
    }

    /// Whether nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.registered.is_empty()
    }

    /// Blocks until at least one registered descriptor is ready or the
    /// timeout elapses, appending readiness notifications to `events`
    /// (which is cleared first). Returns the number of events delivered.
    ///
    /// # Errors
    ///
    /// Propagates `ppoll` failures; `ErrorKind::Unsupported` on targets
    /// without the syscall shim.
    pub fn wait(
        &mut self,
        events: &mut Vec<Event>,
        timeout: Option<Duration>,
    ) -> io::Result<usize> {
        events.clear();
        self.fds.clear();
        self.tokens.clear();
        for (&token, &(fd, interest)) in &self.registered {
            self.fds.push(PollFd {
                fd,
                events: interest.events(),
                revents: 0,
            });
            self.tokens.push(token);
        }
        let n = sys::ppoll(&mut self.fds, timeout)?;
        if n == 0 {
            return Ok(0);
        }
        for (i, pfd) in self.fds.iter().enumerate() {
            if pfd.revents == 0 {
                continue;
            }
            events.push(Event {
                token: self.tokens[i],
                readable: pfd.revents & (POLLIN | POLLHUP) != 0,
                writable: pfd.revents & POLLOUT != 0,
                error: pfd.revents & (POLLERR | POLLHUP | POLLNVAL) != 0,
            });
        }
        Ok(events.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn registration_table_bookkeeping() {
        let mut p = Poller::new();
        assert!(p.is_empty());
        p.register(7, 0, Interest::Read);
        p.register(9, 1, Interest::Write);
        assert_eq!(p.len(), 2);
        p.register(7, 2, Interest::ReadWrite); // replace, not duplicate
        assert_eq!(p.len(), 2);
        p.deregister(9);
        p.deregister(9); // double-deregister is a no-op
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn wait_sees_readable_and_writable() {
        if !Poller::supported() {
            return;
        }
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut tx = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (rx, _) = listener.accept().unwrap();

        let mut p = Poller::new();
        p.register(1, rx.as_raw_fd(), Interest::Read);
        let mut events = Vec::new();

        // Idle socket: timeout, no events.
        let n = p
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0);

        tx.write_all(b"hello").unwrap();
        let n = p
            .wait(&mut events, Some(Duration::from_millis(500)))
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token, 1);
        assert!(events[0].readable);
        assert!(!events[0].writable, "write interest was not requested");

        // Level-triggered: the unread byte keeps firing.
        let n = p
            .wait(&mut events, Some(Duration::from_millis(500)))
            .unwrap();
        assert_eq!(n, 1);

        // Widen interest: an idle TCP socket is immediately writable.
        p.reregister(1, Interest::ReadWrite);
        let n = p
            .wait(&mut events, Some(Duration::from_millis(500)))
            .unwrap();
        assert_eq!(n, 1);
        assert!(events[0].readable && events[0].writable);
    }

    #[test]
    fn peer_close_reads_as_readable() {
        if !Poller::supported() {
            return;
        }
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let tx = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (rx, _) = listener.accept().unwrap();
        drop(tx);

        let mut p = Poller::new();
        p.register(3, rx.as_raw_fd(), Interest::Read);
        let mut events = Vec::new();
        let n = p.wait(&mut events, Some(Duration::from_secs(2))).unwrap();
        assert_eq!(n, 1);
        assert!(
            events[0].readable,
            "EOF must surface as readable so the owner observes read()==0"
        );
    }
}
