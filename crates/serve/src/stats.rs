//! Lock-free server statistics.
//!
//! Counters are plain relaxed atomics — every update site is a single
//! increment/add, and the snapshot is advisory observability data, not a
//! synchronization point. The snapshot struct itself lives in
//! [`crate::protocol`] so it can travel over the wire.

use std::sync::atomic::{AtomicU64, Ordering};

use acoustic_runtime::{DedupStats, PrepareStats};

use crate::protocol::StatsSnapshot;

/// Shared mutable statistics, updated by the reactor and worker threads.
#[derive(Debug, Default)]
pub struct Stats {
    /// Inference frames parsed.
    pub received: AtomicU64,
    /// Requests admitted to the queue.
    pub accepted: AtomicU64,
    /// Requests answered with logits.
    pub completed: AtomicU64,
    /// `Overloaded` rejections.
    pub rejected_overload: AtomicU64,
    /// `Malformed` replies.
    pub rejected_malformed: AtomicU64,
    /// `UnknownModel` replies.
    pub rejected_unknown_model: AtomicU64,
    /// Rejections because one model's admission sub-budget was exhausted
    /// (the shared queue still had room).
    pub rejected_model_budget: AtomicU64,
    /// Deadline expiries at dequeue.
    pub expired: AtomicU64,
    /// `BadInput` execution failures.
    pub failed: AtomicU64,
    /// Nanoseconds completed requests spent queued.
    pub queue_wait_ns: AtomicU64,
    /// Nanoseconds completed requests spent executing.
    pub service_ns: AtomicU64,
    /// Micro-batches executed.
    pub batches: AtomicU64,
    /// Requests executed across all micro-batches.
    pub batch_requests: AtomicU64,
    /// MAC lanes whose word work actually ran.
    pub mac_lanes: AtomicU64,
    /// OR groups that saturated before their last lane.
    pub sat_group_exits: AtomicU64,
    /// Lanes skipped because their OR group had saturated.
    pub sat_lanes_skipped: AtomicU64,
    /// Lanes skipped because the activation segment was all zero.
    pub zero_seg_skips: AtomicU64,
    /// Tiles of two or more requests (one weight walk shared).
    pub tiles: AtomicU64,
    /// Requests executed inside those tiles (the rest ran as tiles of one).
    pub tiled_requests: AtomicU64,
    /// `ShuttingDown` rejections (request arrived after the queue closed).
    pub rejected_shutdown: AtomicU64,
    /// Currently open client connections (gauge: incremented on accept,
    /// decremented on close).
    pub active_connections: AtomicU64,
    /// Highest concurrent open-connection count observed.
    pub active_connections_hwm: AtomicU64,
    /// Connections accepted since startup.
    pub conns_opened: AtomicU64,
    /// Idle connections closed by the reactor's idle timeout.
    pub idle_reaped: AtomicU64,
    /// `Warming` rejections (the model's prepare was still running on the
    /// background compile thread).
    pub rejected_warming: AtomicU64,
}

/// Queue- and I/O-layer gauges owned by the queue/reactor rather than the
/// [`Stats`] atomics, sampled by the caller at snapshot time.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueueGauges {
    /// Highest total queue depth observed.
    pub queue_depth_hwm: u64,
    /// Admission-queue shard count.
    pub shards: u64,
    /// Highest single-shard depth observed.
    pub shard_depth_hwm: u64,
    /// Cross-shard steals performed by workers.
    pub queue_steals: u64,
}

impl Stats {
    /// Adds one to `counter`.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `v` to `counter`.
    pub fn add(counter: &AtomicU64, v: u64) {
        counter.fetch_add(v, Ordering::Relaxed);
    }

    /// Records a newly accepted connection: bumps the open/total counters
    /// and advances the concurrent-connection high-water mark.
    pub fn connection_opened(&self) {
        Stats::bump(&self.conns_opened);
        let now = self.active_connections.fetch_add(1, Ordering::Relaxed) + 1;
        self.active_connections_hwm
            .fetch_max(now, Ordering::Relaxed);
    }

    /// A point-in-time copy; queue/reactor gauges are owned by the queue
    /// and `dedup`/`prepare` by the model cache (sampled by the caller at
    /// snapshot time), so they are passed in.
    pub fn snapshot(
        &self,
        gauges: QueueGauges,
        dedup: DedupStats,
        prepare: PrepareStats,
    ) -> StatsSnapshot {
        StatsSnapshot {
            received: self.received.load(Ordering::Relaxed),
            accepted: self.accepted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            rejected_overload: self.rejected_overload.load(Ordering::Relaxed),
            rejected_malformed: self.rejected_malformed.load(Ordering::Relaxed),
            rejected_unknown_model: self.rejected_unknown_model.load(Ordering::Relaxed),
            rejected_model_budget: self.rejected_model_budget.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            queue_depth_hwm: gauges.queue_depth_hwm,
            queue_wait_ns: self.queue_wait_ns.load(Ordering::Relaxed),
            service_ns: self.service_ns.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            batch_requests: self.batch_requests.load(Ordering::Relaxed),
            mac_lanes: self.mac_lanes.load(Ordering::Relaxed),
            sat_group_exits: self.sat_group_exits.load(Ordering::Relaxed),
            sat_lanes_skipped: self.sat_lanes_skipped.load(Ordering::Relaxed),
            zero_seg_skips: self.zero_seg_skips.load(Ordering::Relaxed),
            tiles: self.tiles.load(Ordering::Relaxed),
            tiled_requests: self.tiled_requests.load(Ordering::Relaxed),
            distinct_streams: dedup.distinct_streams,
            pool_bytes: dedup.pool_bytes,
            index_bytes: dedup.index_bytes,
            materialized_bytes: dedup.materialized_bytes,
            resident_bytes: dedup.resident_bytes,
            rejected_shutdown: self.rejected_shutdown.load(Ordering::Relaxed),
            shards: gauges.shards,
            shard_depth_hwm: gauges.shard_depth_hwm,
            queue_steals: gauges.queue_steals,
            active_connections: self.active_connections.load(Ordering::Relaxed),
            active_connections_hwm: self.active_connections_hwm.load(Ordering::Relaxed),
            conns_opened: self.conns_opened.load(Ordering::Relaxed),
            idle_reaped: self.idle_reaped.load(Ordering::Relaxed),
            rejected_warming: self.rejected_warming.load(Ordering::Relaxed),
            prepares_completed: prepare.prepares_completed,
            prepare_ms_total: prepare.prepare_ns_total / 1_000_000,
            prepares_in_flight: prepare.prepares_in_flight,
        }
    }

    /// Folds one micro-batch's kernel counters into the server totals.
    pub fn absorb_kernel(&self, k: &acoustic_runtime::KernelCounters) {
        Stats::add(&self.mac_lanes, k.mac_lanes);
        Stats::add(&self.sat_group_exits, k.sat_group_exits);
        Stats::add(&self.sat_lanes_skipped, k.sat_lanes_skipped);
        Stats::add(&self.zero_seg_skips, k.zero_seg_skips);
        Stats::add(&self.tiles, k.tiles);
        Stats::add(&self.tiled_requests, k.tiled_images);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_copies_counters() {
        let s = Stats::default();
        Stats::bump(&s.received);
        Stats::bump(&s.accepted);
        Stats::add(&s.queue_wait_ns, 250);
        let dedup = DedupStats {
            lanes: 10,
            distinct_streams: 4,
            pool_bytes: 512,
            index_bytes: 64,
            resident_bytes: 576,
            materialized_bytes: 2048,
        };
        Stats::bump(&s.rejected_shutdown);
        s.connection_opened();
        let gauges = QueueGauges {
            queue_depth_hwm: 5,
            shards: 2,
            shard_depth_hwm: 3,
            queue_steals: 4,
        };
        let prepare = PrepareStats {
            prepares_completed: 3,
            prepare_ns_total: 7_000_000,
            prepares_in_flight: 1,
        };
        Stats::bump(&s.rejected_warming);
        let snap = s.snapshot(gauges, dedup, prepare);
        assert_eq!(snap.received, 1);
        assert_eq!(snap.accepted, 1);
        assert_eq!(snap.queue_wait_ns, 250);
        assert_eq!(snap.queue_depth_hwm, 5);
        assert_eq!(snap.shards, 2);
        assert_eq!(snap.shard_depth_hwm, 3);
        assert_eq!(snap.queue_steals, 4);
        assert_eq!(snap.rejected_shutdown, 1);
        assert_eq!(snap.conns_opened, 1);
        assert_eq!(snap.active_connections, 1);
        assert_eq!(snap.active_connections_hwm, 1);
        assert_eq!(snap.distinct_streams, 4);
        assert_eq!(snap.pool_bytes, 512);
        assert_eq!(snap.index_bytes, 64);
        assert_eq!(snap.materialized_bytes, 2048);
        assert_eq!(snap.resident_bytes, 576);
        assert_eq!(snap.rejected_warming, 1);
        assert_eq!(snap.prepares_completed, 3);
        assert_eq!(snap.prepare_ms_total, 7);
        assert_eq!(snap.prepares_in_flight, 1);
    }

    #[test]
    fn absorb_kernel_accumulates() {
        let s = Stats::default();
        let k = acoustic_runtime::KernelCounters {
            mac_lanes: 100,
            sat_group_exits: 4,
            sat_lanes_skipped: 20,
            zero_seg_skips: 5,
            tiles: 2,
            tiled_images: 7,
        };
        s.absorb_kernel(&k);
        s.absorb_kernel(&k);
        let snap = s.snapshot(
            QueueGauges::default(),
            DedupStats::default(),
            PrepareStats::default(),
        );
        assert_eq!(snap.mac_lanes, 200);
        assert_eq!(snap.sat_group_exits, 8);
        assert_eq!(snap.sat_lanes_skipped, 40);
        assert_eq!(snap.zero_seg_skips, 10);
        assert_eq!(snap.tiles, 4);
        assert_eq!(snap.tiled_requests, 14);
        assert!((snap.skip_fraction() - 50.0 / 250.0).abs() < 1e-12);
    }
}
