//! Cross-thread wakeup for a poller blocked in `ppoll`.
//!
//! Std-only portability rules out `eventfd`/self-pipes, so the waker is a
//! connected loopback TCP pair: the reactor registers the receive side
//! with its [`crate::Poller`] under a reserved token, and any thread can
//! call [`Waker::wake`] to make that side readable. Wakeups coalesce
//! naturally — the reactor drains whatever bytes have accumulated in one
//! read and treats the batch as a single "check your inboxes" signal.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};

/// A wakeup channel between worker threads and one reactor thread.
///
/// `wake()` is callable from any thread through a shared reference
/// (`Arc<Waker>`); `drain()` must only be called by the reactor that
/// registered [`Waker::fd`].
#[derive(Debug)]
pub struct Waker {
    tx: TcpStream,
    rx: TcpStream,
    // Collapses wake bursts into at most one in-flight byte, so a worker
    // storm cannot fill the loopback send buffer.
    pending: AtomicBool,
    /// Runs between `drain`'s read and its clear, so a test can land a
    /// `wake()` exactly there.
    #[cfg(test)]
    drain_hook: std::sync::Mutex<Option<fn(&Waker)>>,
}

impl Waker {
    /// Builds the loopback pair. The listener is transient: it accepts
    /// exactly one connection and is verified against the connector's
    /// local address so an unrelated process racing to the port cannot be
    /// mistaken for our own peer.
    ///
    /// # Errors
    ///
    /// Propagates socket errors; fails if the accepted peer is not ours.
    pub fn new() -> io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let tx = TcpStream::connect(listener.local_addr()?)?;
        let (rx, peer) = listener.accept()?;
        if peer != tx.local_addr()? {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                "waker accept raced with a foreign connection",
            ));
        }
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        tx.set_nodelay(true)?;
        Ok(Self {
            tx,
            rx,
            pending: AtomicBool::new(false),
            #[cfg(test)]
            drain_hook: std::sync::Mutex::new(None),
        })
    }

    /// The fd the reactor should register for read interest.
    pub fn fd(&self) -> i32 {
        self.rx.as_raw_fd()
    }

    /// Makes [`Waker::fd`] readable. Callable from any thread; lossy
    /// coalescing (a burst of wakes may deliver one byte) and failure-
    /// tolerant (a full send buffer already implies a pending wakeup).
    pub fn wake(&self) {
        if self.pending.swap(true, Ordering::AcqRel) {
            return; // a wakeup byte is already in flight
        }
        // `impl Write for &TcpStream` — no &mut needed through the Arc.
        let _ = (&self.tx).write(&[1u8]);
    }

    /// Consumes any queued wakeup bytes. Reactor-side only, after the
    /// poller reports [`Waker::fd`] readable; the reactor must scan its
    /// inboxes after the drain.
    pub fn drain(&self) {
        // Read until the socket is empty, then clear. A wake() racing with
        // the reads or landing before the clear sees pending=true and
        // returns: the reactor's inbox scan after this drain covers it.
        // Clearing first would let a racing wake() write a byte that the
        // reads then consume, leaving pending stuck at true and every
        // later wake() a no-op.
        let mut buf = [0u8; 64];
        while let Ok(n) = (&self.rx).read(&mut buf) {
            if n == 0 {
                break;
            }
        }
        #[cfg(test)]
        {
            let hook = *self.drain_hook.lock().expect("drain hook lock");
            if let Some(hook) = hook {
                hook(self);
            }
        }
        self.pending.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poll::{Interest, Poller};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn wake_makes_fd_readable_across_threads() {
        if !Poller::supported() {
            return;
        }
        let waker = Arc::new(Waker::new().unwrap());
        let mut p = Poller::new();
        p.register(0, waker.fd(), Interest::Read);
        let mut events = Vec::new();

        // Quiet until woken.
        let n = p
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0);

        let w = Arc::clone(&waker);
        let t = std::thread::spawn(move || w.wake());
        let n = p.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        t.join().unwrap();
        assert_eq!(n, 1);
        assert!(events[0].readable);

        // Drain clears the signal; the next wait times out again.
        waker.drain();
        let n = p
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn wake_racing_a_drain_is_not_lost() {
        if !Poller::supported() {
            return;
        }
        let waker = Waker::new().unwrap();
        waker.wake();
        // Another thread's wake() lands between the drain's two steps.
        *waker.drain_hook.lock().unwrap() = Some(Waker::wake);
        waker.drain();
        *waker.drain_hook.lock().unwrap() = None;
        // Whatever that wake did, the next one must reach the poller.
        waker.wake();
        let mut p = Poller::new();
        p.register(0, waker.fd(), Interest::Read);
        let mut events = Vec::new();
        let n = p.wait(&mut events, Some(Duration::from_secs(2))).unwrap();
        assert_eq!(n, 1, "a wake after a racing drain was lost");
    }

    #[test]
    fn wake_bursts_coalesce_and_rearm() {
        if !Poller::supported() {
            return;
        }
        let waker = Waker::new().unwrap();
        for _ in 0..10_000 {
            waker.wake(); // must not block or error out on a full buffer
        }
        waker.drain();
        // Re-armed: a fresh wake after drain is still delivered.
        waker.wake();
        let mut p = Poller::new();
        p.register(0, waker.fd(), Interest::Read);
        let mut events = Vec::new();
        let n = p.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(n, 1);
    }
}
