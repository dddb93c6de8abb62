//! Sharded, bounded, *rejecting* MPMC admission queue with work-stealing.
//!
//! `ShardedQueue` splits the queue across per-worker-group shards, so
//! producers and workers do not all contend on one lock:
//!
//! * **Capacity is global and exact.** The requested capacity is divided
//!   across shards (shard `i` gets `base + (i < extra)`), so the sum of
//!   shard capacities equals the configured capacity and the total depth
//!   high-water mark can never exceed it — existing overload assertions
//!   keep holding verbatim.
//! * **Push overflows before rejecting.** A producer tries its home shard
//!   first, then wraps across the others; `Full` is returned only when
//!   every shard is at capacity, preserving "full queue == overload
//!   signal" semantics rather than inventing per-shard false rejections.
//! * **Pop steals before sleeping.** A consumer drains its own shard,
//!   then scans the others (counting each cross-shard take as a steal),
//!   and only then parks on its own shard's condvar.
//! * **Close is race-free.** The closed flag lives *inside* each shard's
//!   mutex — a push serialized after `close` can never strand an item,
//!   and `Drained` is reported only once every shard is observed closed
//!   and empty under its own lock.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPush {
    /// Every shard is at capacity — the overload signal.
    Full,
    /// The queue has been closed for shutdown.
    Closed,
}

/// Outcome of a timed pop.
#[derive(Debug)]
pub enum ShardPop<T> {
    /// An item, from the consumer's own shard or stolen from another.
    Item(T),
    /// Nothing arrived within the timeout; the queue is still live.
    TimedOut,
    /// Closed and every shard empty — consumers can exit.
    Drained,
}

#[derive(Debug)]
struct ShardInner<T> {
    items: VecDeque<T>,
    closed: bool,
    hwm: usize,
}

#[derive(Debug)]
struct Shard<T> {
    inner: Mutex<ShardInner<T>>,
    ready: Condvar,
    capacity: usize,
}

/// Bounded rejecting MPMC queue, sharded with work-stealing.
#[derive(Debug)]
pub struct ShardedQueue<T> {
    shards: Vec<Shard<T>>,
    capacity: usize,
    // Global depth gauge: incremented under the receiving shard's lock,
    // decremented under the releasing shard's lock, so it can never
    // exceed `capacity` (each increment corresponds to a held slot).
    depth: AtomicU64,
    depth_hwm: AtomicU64,
    steals: AtomicU64,
}

impl<T> ShardedQueue<T> {
    /// A queue of `capacity` total slots split across `shards` shards.
    /// Both are clamped to at least 1, and the shard count to at most
    /// `capacity` so no shard ends up with zero slots.
    pub fn new(capacity: usize, shards: usize) -> Self {
        let capacity = capacity.max(1);
        let shards = shards.clamp(1, capacity);
        let base = capacity / shards;
        let extra = capacity % shards;
        let shards = (0..shards)
            .map(|i| Shard {
                inner: Mutex::new(ShardInner {
                    items: VecDeque::new(),
                    closed: false,
                    hwm: 0,
                }),
                ready: Condvar::new(),
                capacity: base + usize::from(i < extra),
            })
            .collect();
        Self {
            shards,
            capacity,
            depth: AtomicU64::new(0),
            depth_hwm: AtomicU64::new(0),
            steals: AtomicU64::new(0),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Total configured capacity (exactly the constructor argument).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current total depth across all shards (advisory gauge).
    pub fn depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed) as usize
    }

    /// Highest total depth ever observed across all shards.
    pub fn depth_hwm(&self) -> u64 {
        self.depth_hwm.load(Ordering::Relaxed)
    }

    /// Highest single-shard depth ever observed.
    pub fn shard_depth_hwm(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.inner.lock().unwrap().hwm as u64)
            .max()
            .unwrap_or(0)
    }

    /// Cross-shard takes performed by consumers.
    pub fn steals(&self) -> u64 {
        self.steals.load(Ordering::Relaxed)
    }

    /// Non-blocking push with `home` as the preferred shard (wrapped into
    /// range). Overflows across the other shards before reporting `Full`.
    ///
    /// # Errors
    ///
    /// [`ShardPush::Full`] when every shard is at capacity,
    /// [`ShardPush::Closed`] once [`ShardedQueue::close`] has run.
    pub fn try_push(&self, item: T, home: usize) -> Result<(), ShardPush> {
        let n = self.shards.len();
        let home = home % n;
        for offset in 0..n {
            let shard = &self.shards[(home + offset) % n];
            let mut g = shard.inner.lock().unwrap();
            if g.closed {
                // close() flips every shard under its lock, so seeing one
                // closed shard means admission is over everywhere.
                return Err(ShardPush::Closed);
            }
            if g.items.len() >= shard.capacity {
                continue;
            }
            g.items.push_back(item);
            g.hwm = g.hwm.max(g.items.len());
            let d = self.depth.fetch_add(1, Ordering::Relaxed) + 1;
            self.depth_hwm.fetch_max(d, Ordering::Relaxed);
            drop(g);
            shard.ready.notify_one();
            return Ok(());
        }
        Err(ShardPush::Full)
    }

    /// Timed pop for the consumer that owns shard `home` (wrapped into
    /// range): own shard first, then a steal scan, then a park on the own
    /// shard's condvar until `timeout` elapses.
    pub fn pop(&self, home: usize, timeout: Duration) -> ShardPop<T> {
        let n = self.shards.len();
        let home = home % n;
        let deadline = Instant::now() + timeout;
        loop {
            // Scan starting at home; offset 0 is a local take, the rest
            // are steals. Also collect the drain verdict: a shard seen
            // closed+empty under its lock can never refill.
            let mut all_drained = true;
            for offset in 0..n {
                let shard = &self.shards[(home + offset) % n];
                let mut g = shard.inner.lock().unwrap();
                if let Some(item) = g.items.pop_front() {
                    self.depth.fetch_sub(1, Ordering::Relaxed);
                    if offset != 0 {
                        self.steals.fetch_add(1, Ordering::Relaxed);
                    }
                    return ShardPop::Item(item);
                }
                if !g.closed {
                    all_drained = false;
                }
            }
            if all_drained {
                return ShardPop::Drained;
            }
            // Park on the home shard. Re-check under the lock we are
            // about to sleep with, so a push between the scan above and
            // the wait below cannot be a lost wakeup.
            let shard = &self.shards[home];
            let mut g = shard.inner.lock().unwrap();
            if let Some(item) = g.items.pop_front() {
                self.depth.fetch_sub(1, Ordering::Relaxed);
                return ShardPop::Item(item);
            }
            if !g.closed {
                let now = Instant::now();
                if now >= deadline {
                    return ShardPop::TimedOut;
                }
                let (guard, _) = shard.ready.wait_timeout(g, deadline - now).unwrap();
                drop(guard);
                if Instant::now() >= deadline {
                    // One last steal scan before giving the caller back
                    // control, in case the wakeup was for another shard.
                    continue;
                }
            }
        }
    }

    /// Closes every shard for admission and wakes all parked consumers.
    /// Items already queued remain poppable until [`ShardPop::Drained`].
    pub fn close(&self) {
        for shard in &self.shards {
            shard.inner.lock().unwrap().closed = true;
            shard.ready.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    const TICK: Duration = Duration::from_millis(50);

    #[test]
    fn capacity_splits_exactly() {
        let q: ShardedQueue<u32> = ShardedQueue::new(7, 3);
        assert_eq!(q.shards(), 3);
        assert_eq!(q.capacity(), 7);
        let caps: Vec<usize> = q.shards.iter().map(|s| s.capacity).collect();
        assert_eq!(caps.iter().sum::<usize>(), 7);
        assert_eq!(caps, vec![3, 2, 2]);
        // More shards than slots: clamp so every shard holds something.
        let q: ShardedQueue<u32> = ShardedQueue::new(2, 8);
        assert_eq!(q.shards(), 2);
    }

    #[test]
    fn push_overflows_before_rejecting() {
        let q = ShardedQueue::new(4, 2);
        // All four pushes target home shard 0; two must overflow to 1.
        for i in 0..4 {
            q.try_push(i, 0).unwrap();
        }
        assert_eq!(q.try_push(99, 0), Err(ShardPush::Full));
        assert_eq!(q.depth_hwm(), 4);
        assert_eq!(q.shard_depth_hwm(), 2);
        // FIFO within the home shard; overflow items live on shard 1.
        match q.pop(0, TICK) {
            ShardPop::Item(v) => assert_eq!(v, 0),
            other => panic!("expected item, got {other:?}"),
        }
    }

    #[test]
    fn pop_steals_from_other_shards_and_counts() {
        let q = ShardedQueue::new(8, 4);
        q.try_push(42u32, 3).unwrap();
        // Consumer 0's own shard is empty; it must steal from shard 3.
        match q.pop(0, TICK) {
            ShardPop::Item(v) => assert_eq!(v, 42),
            other => panic!("expected steal, got {other:?}"),
        }
        assert_eq!(q.steals(), 1);
        // A local take does not count as a steal.
        q.try_push(7u32, 1).unwrap();
        match q.pop(1, TICK) {
            ShardPop::Item(v) => assert_eq!(v, 7),
            other => panic!("expected local item, got {other:?}"),
        }
        assert_eq!(q.steals(), 1);
    }

    #[test]
    fn timed_out_then_drained() {
        let q: ShardedQueue<u32> = ShardedQueue::new(4, 2);
        let start = Instant::now();
        assert!(matches!(
            q.pop(0, Duration::from_millis(20)),
            ShardPop::TimedOut
        ));
        assert!(start.elapsed() >= Duration::from_millis(15));
        q.close();
        assert!(matches!(q.pop(0, TICK), ShardPop::Drained));
        assert_eq!(q.try_push(1, 0), Err(ShardPush::Closed));
    }

    #[test]
    fn close_drains_remaining_items_first() {
        let q = ShardedQueue::new(4, 2);
        q.try_push(1u32, 0).unwrap();
        q.try_push(2u32, 1).unwrap();
        q.close();
        let mut got = Vec::new();
        loop {
            match q.pop(0, TICK) {
                ShardPop::Item(v) => got.push(v),
                ShardPop::Drained => break,
                ShardPop::TimedOut => panic!("closed queue must not time out"),
            }
        }
        got.sort_unstable();
        assert_eq!(got, vec![1, 2]);
    }

    #[test]
    fn close_wakes_parked_consumers() {
        let q: Arc<ShardedQueue<u32>> = Arc::new(ShardedQueue::new(4, 2));
        let q2 = Arc::clone(&q);
        let t = std::thread::spawn(move || q2.pop(1, Duration::from_secs(30)));
        std::thread::sleep(Duration::from_millis(30));
        q.close();
        let start = Instant::now();
        assert!(matches!(t.join().unwrap(), ShardPop::Drained));
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "consumer slept through close()"
        );
    }

    #[test]
    fn push_wakes_a_parked_home_consumer() {
        let q: Arc<ShardedQueue<u32>> = Arc::new(ShardedQueue::new(4, 2));
        let q2 = Arc::clone(&q);
        let t = std::thread::spawn(move || q2.pop(0, Duration::from_secs(30)));
        std::thread::sleep(Duration::from_millis(30));
        q.try_push(5, 0).unwrap();
        match t.join().unwrap() {
            ShardPop::Item(v) => assert_eq!(v, 5),
            other => panic!("expected wakeup with item, got {other:?}"),
        }
    }

    #[test]
    fn concurrent_producers_consumers_account_for_everything() {
        const PRODUCERS: usize = 4;
        const PER_PRODUCER: usize = 500;
        let q: Arc<ShardedQueue<usize>> = Arc::new(ShardedQueue::new(16, 4));
        let consumed = Arc::new(Mutex::new(Vec::new()));
        let mut consumers = Vec::new();
        for c in 0..4 {
            let q = Arc::clone(&q);
            let consumed = Arc::clone(&consumed);
            consumers.push(std::thread::spawn(move || loop {
                match q.pop(c, TICK) {
                    ShardPop::Item(v) => consumed.lock().unwrap().push(v),
                    ShardPop::TimedOut => continue,
                    ShardPop::Drained => break,
                }
            }));
        }
        let mut producers = Vec::new();
        let rejected = Arc::new(AtomicU64::new(0));
        for p in 0..PRODUCERS {
            let q = Arc::clone(&q);
            let rejected = Arc::clone(&rejected);
            producers.push(std::thread::spawn(move || {
                for i in 0..PER_PRODUCER {
                    loop {
                        match q.try_push(p * PER_PRODUCER + i, p) {
                            Ok(()) => break,
                            Err(ShardPush::Full) => std::thread::yield_now(),
                            Err(ShardPush::Closed) => {
                                rejected.fetch_add(1, Ordering::Relaxed);
                                break;
                            }
                        }
                    }
                }
            }));
        }
        for t in producers {
            t.join().unwrap();
        }
        q.close();
        for t in consumers {
            t.join().unwrap();
        }
        let mut got = consumed.lock().unwrap().clone();
        got.sort_unstable();
        let expect: Vec<usize> = (0..PRODUCERS * PER_PRODUCER).collect();
        assert_eq!(
            got, expect,
            "every accepted item must be consumed exactly once"
        );
        assert_eq!(rejected.load(Ordering::Relaxed), 0);
        assert!(
            q.depth_hwm() <= 16,
            "hwm {} exceeded capacity",
            q.depth_hwm()
        );
    }
}
