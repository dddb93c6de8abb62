//! Batch evaluation reports: accuracy, confusion, throughput, per-layer
//! timing.

use std::fmt;
use std::time::Duration;

use acoustic_simfunc::{DedupStats, KernelStats, TilePlan};

/// Aggregated wall-clock cost of one layer/step across a batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerTiming {
    /// Step label (e.g. `"conv0"`, `"dense1"`).
    pub name: String,
    /// Number of executions aggregated (normally one per image).
    pub calls: u64,
    /// Total nanoseconds across all executions.
    pub nanos: u128,
}

impl LayerTiming {
    /// Mean time per execution.
    pub fn mean(&self) -> Duration {
        if self.calls == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos((self.nanos / u128::from(self.calls)) as u64)
    }
}

/// Kernel-efficiency counters of one batch or micro-batch: the MAC
/// kernels' skip-work statistics plus how much of the batch shared a
/// weight walk with other images.
///
/// Counters are observability only — they never influence results — and
/// skip attribution depends on the tile shape (a tile of one counts each
/// zero segment it meets as a skip, the lockstep walk of larger tiles
/// merges zero words and counts them as MAC lanes), so compare counter
/// values only between runs of the same shape.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct KernelCounters {
    /// Lanes whose AND/OR word work actually ran.
    pub mac_lanes: u64,
    /// OR groups that saturated (reached all-ones) before their last lane.
    pub sat_group_exits: u64,
    /// Lanes skipped because their OR group was already saturated.
    pub sat_lanes_skipped: u64,
    /// Lanes skipped because the activation segment was all zero.
    pub zero_seg_skips: u64,
    /// Tiles of two or more images (one weight walk shared across images).
    pub tiles: u64,
    /// Images executed inside those tiles (the rest ran as tiles of one).
    pub tiled_images: u64,
}

impl KernelCounters {
    /// Folds a [`KernelStats`] snapshot from the simulator into the batch
    /// aggregate.
    pub fn absorb(&mut self, stats: &KernelStats) {
        self.mac_lanes += stats.mac_lanes;
        self.sat_group_exits += stats.sat_group_exits;
        self.sat_lanes_skipped += stats.sat_lanes_skipped;
        self.zero_seg_skips += stats.zero_seg_skips;
    }

    /// Fraction of lanes whose word work was skipped (saturation + zero
    /// segments) out of all lanes presented to the kernels.
    pub fn skip_fraction(&self) -> f64 {
        let skipped = self.sat_lanes_skipped + self.zero_seg_skips;
        let total = self.mac_lanes + skipped;
        if total == 0 {
            0.0
        } else {
            skipped as f64 / total as f64
        }
    }
}

/// Result of one batch evaluation.
///
/// The *classification* fields (`correct`, `accuracy`, `confusion`,
/// `predictions`) are bit-reproducible: they depend only on the prepared
/// model, the base seed and the sample order, never on worker count. The
/// *timing* fields (`wall`, `cpu_busy`, `images_per_sec`, `layer_timings`)
/// are measurements and vary run to run.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Number of evaluated images.
    pub total: usize,
    /// Correctly classified images.
    pub correct: usize,
    /// `correct / total`.
    pub accuracy: f64,
    /// Number of classes (logit width).
    pub classes: usize,
    /// Confusion counts: `confusion[true_label][predicted]`.
    pub confusion: Vec<Vec<u64>>,
    /// Per-image predicted class, in sample order.
    pub predictions: Vec<usize>,
    /// Worker threads used.
    pub workers: usize,
    /// End-to-end wall-clock time of the batch.
    pub wall: Duration,
    /// Summed busy time across workers (≈ CPU time of the batch).
    pub cpu_busy: Duration,
    /// Throughput: `total / wall`.
    pub images_per_sec: f64,
    /// Per-layer wall-clock totals, aggregated over the batch in step
    /// order (residual inner steps are reported individually and also
    /// included in their `"residual"` entry). Each *tile* counts as one
    /// call (a tiled layer executes once for all of its images).
    pub layer_timings: Vec<LayerTiming>,
    /// Kernel skip/tile counters accumulated across the batch.
    pub kernel: KernelCounters,
    /// The `(kernel, tile)` execution plan of the model the batch ran on
    /// (see [`PreparedModel::plan`](crate::PreparedModel::plan)). A property
    /// of the prepared model, constant across batches on it.
    pub plan: TilePlan,
    /// Weight-storage accounting of the model the batch ran on: lanes,
    /// weight cycles, cycle/code/resident bytes and the
    /// materialized-layout equivalent. A property of the prepared model,
    /// not of the batch — constant across batches on the same model.
    pub dedup: DedupStats,
}

impl BatchReport {
    /// Fraction of `true_label` images predicted as `predicted`.
    pub fn confusion_rate(&self, true_label: usize, predicted: usize) -> f64 {
        let row = &self.confusion[true_label];
        let n: u64 = row.iter().sum();
        if n == 0 {
            0.0
        } else {
            row[predicted] as f64 / n as f64
        }
    }
}

impl fmt::Display for BatchReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "batch: {} images, {} workers | accuracy {:.2}% ({}/{})",
            self.total,
            self.workers,
            100.0 * self.accuracy,
            self.correct,
            self.total
        )?;
        writeln!(
            f,
            "time:  wall {:.3}s, cpu-busy {:.3}s | {:.2} images/s",
            self.wall.as_secs_f64(),
            self.cpu_busy.as_secs_f64(),
            self.images_per_sec
        )?;
        writeln!(
            f,
            "kernel: {} MAC lanes, {:.1}% skipped ({} saturated, {} zero-segment), \
             {} images tiled in {} tiles",
            self.kernel.mac_lanes,
            100.0 * self.kernel.skip_fraction(),
            self.kernel.sat_lanes_skipped,
            self.kernel.zero_seg_skips,
            self.kernel.tiled_images,
            self.kernel.tiles
        )?;
        writeln!(
            f,
            "plan:  {} kernel, tile {}",
            self.plan.kernel.name(),
            self.plan.tile
        )?;
        writeln!(
            f,
            "banks: {} lanes over {} weight cycles, {:.1} KiB resident \
             ({:.1} KiB cycles + {:.1} KiB codes), {:.1}x dedup",
            self.dedup.lanes,
            self.dedup.distinct_streams,
            self.dedup.resident_bytes as f64 / 1024.0,
            self.dedup.pool_bytes as f64 / 1024.0,
            self.dedup.index_bytes as f64 / 1024.0,
            self.dedup.dedup_ratio()
        )?;
        if !self.layer_timings.is_empty() {
            writeln!(f, "per-layer totals:")?;
            for t in &self.layer_timings {
                writeln!(
                    f,
                    "  {:<10} {:>8.3} ms total, {:>8.3} ms/image ({} calls)",
                    t.name,
                    t.nanos as f64 / 1e6,
                    t.mean().as_secs_f64() * 1e3,
                    t.calls
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confusion_rate_and_display() {
        let r = BatchReport {
            total: 4,
            correct: 3,
            accuracy: 0.75,
            classes: 2,
            confusion: vec![vec![2, 1], vec![0, 1]],
            predictions: vec![0, 0, 1, 1],
            workers: 2,
            wall: Duration::from_millis(100),
            cpu_busy: Duration::from_millis(180),
            images_per_sec: 40.0,
            layer_timings: vec![LayerTiming {
                name: "conv0".into(),
                calls: 4,
                nanos: 4_000_000,
            }],
            kernel: KernelCounters {
                mac_lanes: 60,
                sat_group_exits: 5,
                sat_lanes_skipped: 30,
                zero_seg_skips: 10,
                tiles: 1,
                tiled_images: 4,
            },
            plan: acoustic_simfunc::TilePlan {
                kernel: acoustic_simfunc::KernelKind::Avx512,
                tile: 64,
                calibration_ns: 0,
            },
            dedup: DedupStats {
                lanes: 100,
                distinct_streams: 25,
                pool_bytes: 2048,
                index_bytes: 1024,
                resident_bytes: 3072,
                materialized_bytes: 12288,
            },
        };
        assert!((r.confusion_rate(0, 0) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(r.confusion_rate(1, 1), 1.0);
        let text = r.to_string();
        assert!(text.contains("75.00%"));
        assert!(text.contains("conv0"));
        assert!(text.contains("40.0% skipped"));
        assert!(text.contains("4 images tiled in 1 tiles"));
        assert!(text.contains("avx512 kernel, tile 64"));
        assert!(text.contains("100 lanes over 25 weight cycles"));
        assert!(text.contains("4.0x dedup"));
        assert_eq!(r.layer_timings[0].mean(), Duration::from_millis(1));
    }

    #[test]
    fn kernel_counters_absorb_and_skip_fraction() {
        let mut k = KernelCounters::default();
        assert_eq!(k.skip_fraction(), 0.0);
        k.absorb(&KernelStats {
            mac_lanes: 6,
            sat_group_exits: 1,
            sat_lanes_skipped: 3,
            zero_seg_skips: 1,
        });
        assert_eq!(k.mac_lanes, 6);
        assert!((k.skip_fraction() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn zero_call_timing_has_zero_mean() {
        let t = LayerTiming {
            name: "x".into(),
            calls: 0,
            nanos: 0,
        };
        assert_eq!(t.mean(), Duration::ZERO);
    }
}
