//! The deterministic batch-inference engine.
//!
//! A [`BatchEngine`] runs a batch of images through one shared
//! [`PreparedModel`] on a fixed-size pool of `std::thread` workers. Work is
//! cut into units before dispatch — a tile of up to [`TILE`] images that
//! share one stream length — and each worker claims **one unit per**
//! `fetch_add` on an atomic cursor, so every worker gets a unit as long as
//! there are units to go round. Every per-image result depends only on
//! `(model, image_index, input)`, never on which worker computed it, and
//! results are merged back in index order. Batch output is therefore
//! bit-identical for any worker count.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use acoustic_nn::train::Sample;
use acoustic_nn::Tensor;
use acoustic_simfunc::{KernelStats, Observe, RunSpec, SimError, SimScratch, StepTiming, TILE};

use crate::{BatchReport, KernelCounters, LayerTiming, PreparedModel, RuntimeError};

/// One admitted serving request, ready for batch execution.
///
/// Unlike [`BatchEngine::run`], where image `i` draws its seed from its
/// batch position, a ready request carries its own `image_index` — a
/// serving layer passes each request's id, so the result for a request is
/// the same whether it was executed alone, inside any micro-batch, or by
/// any worker.
#[derive(Debug, Clone, Copy)]
pub struct ReadyRequest<'a> {
    /// Seed index: the result is a pure function of `(model, image_index,
    /// input, stream_len)`.
    pub image_index: u64,
    /// The image to classify.
    pub input: &'a Tensor,
    /// Run at this fixed stream-length prefix instead of the engine
    /// default (must be one of the model's supported lengths).
    pub stream_len: Option<usize>,
}

impl<'a> ReadyRequest<'a> {
    /// A request at the full prepare-time stream length.
    pub fn plain(image_index: u64, input: &'a Tensor) -> Self {
        ReadyRequest {
            image_index,
            input,
            stream_len: None,
        }
    }
}

/// The outcome of one ready request.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadyOutcome {
    /// The accepted logits.
    pub logits: Tensor,
    /// Stream length the logits were produced at (the full prepare-time
    /// length unless the request asked for a prefix).
    pub effective_len: usize,
}

/// A fixed-size worker pool executing batches against a prepared model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchEngine {
    workers: usize,
}

impl BatchEngine {
    /// Creates an engine with `workers` threads.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidConfig`] if `workers` is zero.
    pub fn new(workers: usize) -> Result<Self, RuntimeError> {
        if workers == 0 {
            return Err(RuntimeError::InvalidConfig(
                "worker count must be at least 1".into(),
            ));
        }
        Ok(BatchEngine { workers })
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs every input through the model, returning logits in input order.
    ///
    /// Image `i` always executes with the activation seed derived from
    /// `(model.config().act_seed, i)`, so the returned logits are
    /// bit-identical for any worker count and any tile size (tiles are
    /// formed from consecutive input indices before dispatch, and a tile's
    /// logits equal its images' tiles of one).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Image`] tagged with the lowest failing index.
    pub fn run(
        &self,
        model: &PreparedModel,
        inputs: &[Tensor],
    ) -> Result<Vec<Tensor>, RuntimeError> {
        Ok(self
            .run_tiles(model, inputs.iter().collect(), false)?
            .logits)
    }

    /// Executes a micro-batch of admitted serving requests, one outcome per
    /// request in request order.
    ///
    /// This is the serving entry point: requests carry their own seed index
    /// and an optional stream-length prefix, and the engine threads
    /// one [`SimScratch`] per worker exactly as [`BatchEngine::run`] does.
    /// Failures are isolated per request — a malformed input yields an
    /// `Err` in its own slot without failing the rest of the batch.
    ///
    /// Each outcome equals [`PreparedModel::logits`] of a tile of one at the
    /// request's `image_index` and [`RunSpec::stream_len`] (test-enforced);
    /// without a prefix that is bit-identical to a [`BatchEngine::run`] that
    /// saw the same index.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::WorkerPanic`] if a worker dies.
    pub fn run_ready(
        &self,
        model: &PreparedModel,
        requests: &[ReadyRequest<'_>],
    ) -> Result<Vec<Result<ReadyOutcome, SimError>>, RuntimeError> {
        Ok(self.run_ready_counted(model, requests)?.0)
    }

    /// Like [`BatchEngine::run_ready`], additionally returning the batch's
    /// kernel skip/tile counters (the serving layer's per-micro-batch
    /// observability hook).
    ///
    /// Requests are grouped by stream length and executed as tiles.
    /// Grouping happens deterministically before dispatch,
    /// so outcomes stay invariant to worker count *and* tile size. A tile
    /// whose execution fails is re-run as tiles of one, preserving
    /// per-request error isolation.
    ///
    /// # Errors
    ///
    /// See [`BatchEngine::run_ready`].
    #[allow(clippy::type_complexity)]
    pub fn run_ready_counted(
        &self,
        model: &PreparedModel,
        requests: &[ReadyRequest<'_>],
    ) -> Result<(Vec<Result<ReadyOutcome, SimError>>, KernelCounters), RuntimeError> {
        let full_len = model.max_stream_len();
        let units = ready_units(requests);
        let tally = TileTally::default();

        let (per_unit, _, stats) = self.dispatch(units.len(), |ui, scratch| {
            // Per-request isolation: errors ride in their slot, never
            // abort the batch.
            let ReadyUnit {
                stream_len,
                members,
            } = &units[ui];
            let tile = Tile {
                indices: members.iter().map(|&i| requests[i].image_index).collect(),
                inputs: members.iter().map(|&i| requests[i].input).collect(),
                stream_len: *stream_len,
            };
            let effective_len = stream_len.unwrap_or(full_len);
            let outcomes = tile
                .run(model, false, &tally, scratch)
                .0
                .into_iter()
                .map(|r| {
                    r.map(|logits| ReadyOutcome {
                        logits,
                        effective_len,
                    })
                });
            Ok(members.iter().copied().zip(outcomes).collect::<Vec<_>>())
        })?;

        let mut slots: Vec<Option<Result<ReadyOutcome, SimError>>> = Vec::new();
        slots.resize_with(requests.len(), || None);
        for unit in per_unit {
            for (i, r) in unit {
                slots[i] = Some(r);
            }
        }
        let outcomes = slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                slot.ok_or_else(|| {
                    RuntimeError::WorkerPanic(format!("request {i} was never executed"))
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok((outcomes, tally.counters(&stats)))
    }

    /// Evaluates labelled samples, returning a full [`BatchReport`].
    ///
    /// The classification side of the report (accuracy, confusion matrix,
    /// predictions) is bit-reproducible; the timing side measures this run.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidConfig`] for an empty batch or a label outside
    /// the class range; [`RuntimeError::Image`] for per-image failures.
    pub fn evaluate(
        &self,
        model: &PreparedModel,
        samples: &[Sample],
    ) -> Result<BatchReport, RuntimeError> {
        if samples.is_empty() {
            return Err(RuntimeError::InvalidConfig(
                "cannot evaluate an empty batch".into(),
            ));
        }
        let started = Instant::now();
        let run = self.run_tiles(model, samples.iter().map(|(x, _)| x).collect(), true)?;
        let wall = started.elapsed();

        let classes = run.logits[0].len();
        let mut confusion = vec![vec![0u64; classes]; classes];
        let mut predictions = Vec::with_capacity(samples.len());
        let mut correct = 0usize;
        for (i, logits) in run.logits.iter().enumerate() {
            let label = samples[i].1;
            if label >= classes {
                return Err(RuntimeError::InvalidConfig(format!(
                    "sample {i} has label {label} but the model emits {classes} classes"
                )));
            }
            let pred = logits.argmax();
            if pred == label {
                correct += 1;
            }
            confusion[label][pred] += 1;
            predictions.push(pred);
        }

        let total = samples.len();
        Ok(BatchReport {
            total,
            correct,
            accuracy: correct as f64 / total as f64,
            classes,
            confusion,
            predictions,
            workers: self.workers,
            wall,
            cpu_busy: run.cpu_busy,
            images_per_sec: total as f64 / wall.as_secs_f64().max(f64::MIN_POSITIVE),
            layer_timings: run.layer_timings,
            kernel: run.kernel,
            plan: model.plan(),
            dedup: model.dedup_stats(),
        })
    }

    /// Runs `inputs` as consecutive tiles of up to [`TILE`] images, image
    /// `i` seeded by index `i`, at the full prepare-time stream length.
    /// With `timed`, sums every executed pass's step timings.
    fn run_tiles(
        &self,
        model: &PreparedModel,
        inputs: Vec<&Tensor>,
        timed: bool,
    ) -> Result<TiledRun, RuntimeError> {
        let tiles = consecutive_tiles(inputs.len());
        let tally = TileTally::default();
        let (per_tile, cpu_busy, stats) = self.dispatch(tiles.len(), |ti, scratch| {
            let (lo, hi) = tiles[ti];
            let tile = Tile {
                indices: (lo as u64..hi as u64).collect(),
                inputs: inputs[lo..hi].to_vec(),
                stream_len: None,
            };
            Ok(tile.run(model, timed, &tally, scratch))
        })?;
        let mut logits = Vec::with_capacity(inputs.len());
        let mut layer_timings = Vec::new();
        for (ti, (outs, passes)) in per_tile.into_iter().enumerate() {
            for (off, r) in outs.into_iter().enumerate() {
                // Tiles are consecutive and in order, so the first error
                // here is the lowest failing image index.
                logits.push(r.map_err(|source| RuntimeError::Image {
                    index: tiles[ti].0 + off,
                    source,
                })?);
            }
            for pass in &passes {
                merge_timings(&mut layer_timings, pass);
            }
        }
        Ok(TiledRun {
            logits,
            cpu_busy,
            layer_timings,
            kernel: tally.counters(&stats),
        })
    }

    /// Maps `job` over `0..count`, merging results in index order.
    ///
    /// Each worker owns one [`SimScratch`] for its whole lifetime, so batch
    /// execution amortizes per-image buffer allocation to zero. Scratch
    /// reuse never affects results — every job's output is still a pure
    /// function of its index.
    ///
    /// Returns the per-index results, the summed busy time across workers,
    /// and the summed kernel skip counters of every worker scratch. On
    /// failure, reports the error of the *lowest* failing index so error
    /// reporting is as deterministic as the results. A panicking job fails
    /// the whole call with [`RuntimeError::WorkerPanic`] at every worker
    /// count, so the caller can answer the batch instead of unwinding.
    fn dispatch<T, F>(&self, count: usize, job: F) -> DispatchResult<T>
    where
        T: Send,
        F: Fn(usize, &mut SimScratch) -> Result<T, SimError> + Sync,
    {
        if count == 0 {
            return Ok((Vec::new(), Duration::ZERO, KernelStats::default()));
        }
        if self.workers == 1 {
            // Serial fast path: no threads, same index order and seeds.
            let started = Instant::now();
            let mut scratch = SimScratch::default();
            let mut out = Vec::with_capacity(count);
            for i in 0..count {
                let r = panic::catch_unwind(AssertUnwindSafe(|| job(i, &mut scratch)))
                    .map_err(|_| worker_panic())?;
                out.push(r.map_err(|source| RuntimeError::Image { index: i, source })?);
            }
            return Ok((out, started.elapsed(), scratch.take_kernel_stats()));
        }

        // One unit per claim: a unit is a whole tile, so a claim costs
        // nothing next to its job, and a batch of two tiles
        // reaches two workers.
        let cursor = AtomicUsize::new(0);
        let workers = self.workers.min(count);
        let job = &job;
        let worker_outputs = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let started = Instant::now();
                        let mut scratch = SimScratch::default();
                        let mut mine: Vec<(usize, Result<T, SimError>)> = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= count {
                                break;
                            }
                            mine.push((i, job(i, &mut scratch)));
                        }
                        (mine, started.elapsed(), scratch.take_kernel_stats())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().map_err(|_| worker_panic()))
                .collect::<Result<Vec<_>, _>>()
        })?;

        let mut cpu_busy = Duration::ZERO;
        let mut stats = KernelStats::default();
        let mut slots: Vec<Option<Result<T, SimError>>> = Vec::new();
        slots.resize_with(count, || None);
        for (items, busy, worker_stats) in worker_outputs {
            cpu_busy += busy;
            stats.merge(&worker_stats);
            for (i, r) in items {
                slots[i] = Some(r);
            }
        }
        let mut out = Vec::with_capacity(count);
        for (i, slot) in slots.into_iter().enumerate() {
            let r = slot.ok_or_else(|| {
                RuntimeError::WorkerPanic(format!("image {i} was never executed"))
            })?;
            out.push(r.map_err(|source| RuntimeError::Image { index: i, source })?);
        }
        Ok((out, cpu_busy, stats))
    }
}

type DispatchResult<T> = Result<(Vec<T>, Duration, KernelStats), RuntimeError>;

/// What [`BatchEngine::run_tiles`] hands back: per-image logits in input
/// order, the summed busy time across workers, the summed step timings
/// (empty unless timed) and the kernel counters.
struct TiledRun {
    logits: Vec<Tensor>,
    cpu_busy: Duration,
    layer_timings: Vec<LayerTiming>,
    kernel: KernelCounters,
}

fn worker_panic() -> RuntimeError {
    RuntimeError::WorkerPanic("batch worker panicked".into())
}

/// Consecutive `[lo, hi)` index ranges of width [`TILE`] covering
/// `0..count`.
///
/// Tiling composition happens *before* dispatch and depends only on the
/// batch shape, which is what keeps tiled batch results invariant to
/// worker count and scheduling.
fn consecutive_tiles(count: usize) -> Vec<(usize, usize)> {
    (0..count.div_ceil(TILE))
        .map(|t| (t * TILE, ((t + 1) * TILE).min(count)))
        .collect()
}

/// Images sharing one weight-bank walk: their seed indices, inputs and
/// stream length (`None` = the full prepare-time length).
struct Tile<'a> {
    indices: Vec<u64>,
    inputs: Vec<&'a Tensor>,
    stream_len: Option<usize>,
}

impl Tile<'_> {
    /// Runs the tile, returning one result per image and the step timings
    /// of every executed pass when `timed`. A failing tile of several
    /// images is re-run as tiles of one, so every image gets its own
    /// result or error (a tile's logits equal its images' tiles of one, so
    /// the re-run is invisible to successful images).
    fn run(
        &self,
        model: &PreparedModel,
        timed: bool,
        tally: &TileTally,
        scratch: &mut SimScratch,
    ) -> (Vec<Result<Tensor, SimError>>, Vec<Vec<StepTiming>>) {
        let spec = RunSpec {
            stream_len: self.stream_len,
            observe: Observe {
                timings: timed,
                traces: false,
            },
            ..model.spec(self.indices.iter().copied(), self.inputs.clone())
        };
        match model.logits(&spec, scratch) {
            Ok(out) => {
                tally.record(self.inputs.len());
                let passes = if timed { vec![out.timings] } else { Vec::new() };
                (out.logits.into_iter().map(Ok).collect(), passes)
            }
            Err(e) if self.inputs.len() == 1 => (vec![Err(e)], Vec::new()),
            Err(_) => {
                let mut outs = Vec::with_capacity(self.inputs.len());
                let mut passes = Vec::new();
                for (&index, &input) in self.indices.iter().zip(&self.inputs) {
                    let one = Tile {
                        indices: vec![index],
                        inputs: vec![input],
                        stream_len: self.stream_len,
                    };
                    let (out, p) = one.run(model, timed, tally, scratch);
                    outs.extend(out);
                    passes.extend(p);
                }
                (outs, passes)
            }
        }
    }
}

/// One deterministic execution unit of a ready micro-batch: a tile of
/// requests at one stream length.
struct ReadyUnit {
    /// Every member's prefix (`None` = the full prepare-time length).
    stream_len: Option<usize>,
    /// Request positions, in request order.
    members: Vec<usize>,
}

/// Groups ready requests into tiles by stream length, in request order.
///
/// A group flushes into a unit as soon as it reaches [`TILE`], and
/// leftovers flush at the end in first-appearance order. The unit list is
/// a pure function of the requests — never of worker scheduling.
fn ready_units(requests: &[ReadyRequest<'_>]) -> Vec<ReadyUnit> {
    let mut units = Vec::new();
    let mut groups: Vec<ReadyUnit> = Vec::new();
    for (i, r) in requests.iter().enumerate() {
        let key = r.stream_len;
        let g = match groups.iter().position(|g| g.stream_len == key) {
            Some(g) => g,
            None => {
                groups.push(ReadyUnit {
                    stream_len: key,
                    members: Vec::new(),
                });
                groups.len() - 1
            }
        };
        let group = &mut groups[g];
        group.members.push(i);
        if group.members.len() == TILE {
            units.push(ReadyUnit {
                stream_len: key,
                members: std::mem::take(&mut group.members),
            });
        }
    }
    units.extend(groups.into_iter().filter(|g| !g.members.is_empty()));
    units
}

/// Thread-safe tally of the tiles that shared one weight walk across two
/// or more images, shared by dispatch jobs.
#[derive(Default)]
struct TileTally {
    tiles: AtomicU64,
    images: AtomicU64,
}

impl TileTally {
    fn record(&self, images: usize) {
        if images > 1 {
            self.tiles.fetch_add(1, Ordering::Relaxed);
            self.images.fetch_add(images as u64, Ordering::Relaxed);
        }
    }

    /// Final counters: the dispatch-summed kernel stats plus this tally.
    fn counters(&self, stats: &KernelStats) -> KernelCounters {
        let mut k = KernelCounters::default();
        k.absorb(stats);
        k.tiles = self.tiles.load(Ordering::Relaxed);
        k.tiled_images = self.images.load(Ordering::Relaxed);
        k
    }
}

/// Folds one image's step timings into the batch aggregate.
///
/// Step order is identical for every image (it is a property of the
/// prepared network), so matching by position keeps the aggregate in
/// network order.
fn merge_timings(agg: &mut Vec<LayerTiming>, timings: &[StepTiming]) {
    if agg.is_empty() {
        agg.extend(timings.iter().map(|t| LayerTiming {
            name: t.name.to_string(),
            calls: 1,
            nanos: t.nanos,
        }));
        return;
    }
    for (slot, t) in agg.iter_mut().zip(timings) {
        debug_assert_eq!(slot.name.as_str(), &*t.name);
        slot.calls += 1;
        slot.nanos += t.nanos;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acoustic_nn::layers::{AccumMode, Conv2d, Dense, Network, Relu};
    use acoustic_simfunc::SimConfig;

    fn small_net() -> Network {
        let mut net = Network::new();
        net.push_conv(Conv2d::new(1, 2, 3, 1, 1, AccumMode::OrApprox).unwrap());
        net.push_relu(Relu::clamped());
        net.push_flatten();
        net.push_dense(Dense::new(2 * 4 * 4, 4, AccumMode::OrApprox).unwrap());
        net
    }

    /// Image `i` as a tile of one at `stream_len` (`None` = maximum).
    fn one(model: &PreparedModel, i: u64, x: &Tensor, stream_len: Option<usize>) -> Tensor {
        let spec = RunSpec {
            stream_len,
            ..model.spec([i], vec![x])
        };
        model
            .logits(&spec, &mut SimScratch::default())
            .unwrap()
            .logits
            .remove(0)
    }

    fn inputs(n: usize) -> Vec<Tensor> {
        (0..n)
            .map(|i| {
                let v: Vec<f32> = (0..16).map(|j| ((i * 7 + j) % 16) as f32 / 16.0).collect();
                Tensor::from_vec(&[1, 4, 4], v).unwrap()
            })
            .collect()
    }

    #[test]
    fn rejects_zero_workers() {
        assert!(BatchEngine::new(0).is_err());
    }

    #[test]
    fn a_panicking_job_is_a_worker_panic_at_every_worker_count() {
        for workers in [1, 2] {
            let engine = BatchEngine::new(workers).unwrap();
            let result = engine.dispatch(5, |i, _| {
                if i == 3 {
                    panic!("job {i} panics");
                }
                Ok(i)
            });
            assert!(
                matches!(result, Err(RuntimeError::WorkerPanic(_))),
                "workers={workers}: {result:?}"
            );
            let (out, _, _) = engine.dispatch(5, |i, _| Ok(i)).unwrap();
            assert_eq!(out, vec![0, 1, 2, 3, 4], "workers={workers} after a panic");
        }
    }

    /// Each of two units waits until both workers are inside a job, so the
    /// test passes only if the two units went to two workers. A claim of
    /// several units at once hands both to the first worker; its first job
    /// then times out instead of hanging.
    #[test]
    fn claims_reach_every_worker() {
        use std::sync::{Condvar, Mutex};
        let inside = Mutex::new(0usize);
        let arrived = Condvar::new();
        let (met, _, _) = BatchEngine::new(2)
            .unwrap()
            .dispatch(2, |_, _| {
                let mut n = inside.lock().unwrap();
                *n += 1;
                arrived.notify_all();
                let (n, _) = arrived
                    .wait_timeout_while(n, Duration::from_secs(10), |n| *n < 2)
                    .unwrap();
                Ok(*n >= 2)
            })
            .unwrap();
        assert_eq!(met, [true, true], "a worker ran both units alone");
    }

    #[test]
    fn run_matches_solo_per_image() {
        let model =
            PreparedModel::compile(SimConfig::with_stream_len(64).unwrap(), &small_net()).unwrap();
        let xs = inputs(11);
        let tiled = BatchEngine::new(1).unwrap().run(&model, &xs).unwrap();
        for (i, x) in xs.iter().enumerate() {
            assert_eq!(tiled[i], one(&model, i as u64, x, None), "image {i}");
        }
    }

    #[test]
    fn run_is_worker_count_invariant() {
        let model =
            PreparedModel::compile(SimConfig::with_stream_len(64).unwrap(), &small_net()).unwrap();
        let xs = inputs(11);
        let serial = BatchEngine::new(1).unwrap().run(&model, &xs).unwrap();
        for workers in [2, 3, 8] {
            let parallel = BatchEngine::new(workers).unwrap().run(&model, &xs).unwrap();
            assert_eq!(serial, parallel, "workers={workers}");
        }
    }

    #[test]
    fn evaluate_builds_consistent_report() {
        let model =
            PreparedModel::compile(SimConfig::with_stream_len(64).unwrap(), &small_net()).unwrap();
        let samples: Vec<Sample> = inputs(6)
            .into_iter()
            .enumerate()
            .map(|(i, x)| (x, i % 4))
            .collect();
        let report = BatchEngine::new(2)
            .unwrap()
            .evaluate(&model, &samples)
            .unwrap();
        assert_eq!(report.total, 6);
        assert_eq!(report.classes, 4);
        assert_eq!(report.predictions.len(), 6);
        let cells: u64 = report.confusion.iter().flatten().sum();
        assert_eq!(cells, 6);
        let diag: u64 = (0..4).map(|c| report.confusion[c][c]).sum();
        assert_eq!(diag, report.correct as u64);
        // Prepared net with clamped relu folded: conv, relu, flatten, dense.
        assert_eq!(report.layer_timings.len(), model.prepared().step_count());
        // Fixed-length evaluation tiles consecutive samples: one call per
        // tile of up to TILE images.
        let tiles = 6usize.div_ceil(TILE) as u64;
        assert!(report.layer_timings.iter().all(|t| t.calls == tiles));
        assert_eq!(report.kernel.tiles, tiles);
        assert_eq!(report.kernel.tiled_images, 6);
        assert!(report.kernel.mac_lanes > 0);
        assert!(report.images_per_sec > 0.0);
    }

    #[test]
    fn empty_batch_and_bad_label_are_rejected() {
        let model =
            PreparedModel::compile(SimConfig::with_stream_len(64).unwrap(), &small_net()).unwrap();
        let engine = BatchEngine::new(2).unwrap();
        assert!(matches!(
            engine.evaluate(&model, &[]),
            Err(RuntimeError::InvalidConfig(_))
        ));
        let bad = vec![(inputs(1).pop().unwrap(), 99usize)];
        assert!(matches!(
            engine.evaluate(&model, &bad),
            Err(RuntimeError::InvalidConfig(_))
        ));
    }

    #[test]
    fn run_ready_matches_direct_entry_points() {
        let model =
            PreparedModel::compile(SimConfig::with_stream_len(256).unwrap(), &small_net()).unwrap();
        let xs = inputs(5);

        // Plain requests: bit-identical to BatchEngine::run at the same
        // indices, for any worker count.
        let plain: Vec<ReadyRequest> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| ReadyRequest::plain(i as u64, x))
            .collect();
        let direct = BatchEngine::new(1).unwrap().run(&model, &xs).unwrap();
        for workers in [1, 3] {
            let engine = BatchEngine::new(workers).unwrap();
            let got = engine.run_ready(&model, &plain).unwrap();
            for (i, out) in got.iter().enumerate() {
                let out = out.as_ref().unwrap();
                assert_eq!(out.logits, direct[i], "workers={workers} i={i}");
                assert_eq!(out.effective_len, 256);
            }
        }

        // Requests carry their own seed index: shuffled order returns the
        // same per-index results.
        let swapped = [plain[3], plain[0]];
        let got = BatchEngine::new(2)
            .unwrap()
            .run_ready(&model, &swapped)
            .unwrap();
        assert_eq!(got[0].as_ref().unwrap().logits, direct[3]);
        assert_eq!(got[1].as_ref().unwrap().logits, direct[0]);

        // stream_len override == a tile of one at that prefix.
        let short = ReadyRequest {
            stream_len: Some(64),
            ..plain[2]
        };
        let got = BatchEngine::new(1)
            .unwrap()
            .run_ready(&model, &[short])
            .unwrap();
        let want = one(&model, 2, &xs[2], Some(64));
        assert_eq!(got[0].as_ref().unwrap().logits, want);
        assert_eq!(got[0].as_ref().unwrap().effective_len, 64);
    }

    /// A tile unit's stream-length override and member count.
    type TileShape = (Option<usize>, usize);

    #[test]
    fn run_ready_tiles_compatible_requests_and_counts_them() {
        let model =
            PreparedModel::compile(SimConfig::with_stream_len(128).unwrap(), &small_net()).unwrap();
        // Plain (full-length) requests mixed with prefix-override requests.
        // The second case has 2*TILE+4 plain requests, so the plain group
        // is cut into two full tiles mid-batch plus a 4-request remainder.
        // (requests, prefix-request indices, tile shapes)
        type Case = (usize, &'static [usize], &'static [TileShape]);
        let cases: [Case; 2] = [
            (7, &[2, 5], &[(None, 5), (Some(64), 2)]),
            (
                2 * TILE + 7,
                &[10, 55, 100],
                &[(None, TILE), (None, TILE), (None, 4), (Some(64), 3)],
            ),
        ];
        for (n, prefix, shapes) in cases {
            let xs = inputs(n);
            let reqs: Vec<ReadyRequest> = xs
                .iter()
                .enumerate()
                .map(|(i, x)| ReadyRequest {
                    stream_len: prefix.contains(&i).then_some(64),
                    ..ReadyRequest::plain(i as u64, x)
                })
                .collect();
            // One tile per full group or leftover group, per stream length.
            let got_shapes: Vec<TileShape> = ready_units(&reqs)
                .iter()
                .map(|u| (u.stream_len, u.members.len()))
                .collect();
            assert_eq!(got_shapes, shapes, "n={n}");
            // A micro-batch of one is a tile of one: the per-request
            // reference.
            let solo = BatchEngine::new(1).unwrap();
            let reference: Vec<ReadyOutcome> = reqs
                .iter()
                .map(|r| solo.run_ready(&model, &[*r]).unwrap().remove(0).unwrap())
                .collect();
            for workers in [1, 3] {
                let (got, counters) = BatchEngine::new(workers)
                    .unwrap()
                    .run_ready_counted(&model, &reqs)
                    .unwrap();
                for (i, out) in got.into_iter().enumerate() {
                    assert_eq!(out.unwrap(), reference[i], "n={n} workers={workers} i={i}");
                }
                assert_eq!(
                    counters.tiles,
                    shapes.len() as u64,
                    "n={n} workers={workers}"
                );
                assert_eq!(counters.tiled_images, n as u64, "n={n} workers={workers}");
                assert!(counters.mac_lanes > 0);
            }
        }
    }

    #[test]
    fn run_ready_isolates_per_request_failures() {
        let model =
            PreparedModel::compile(SimConfig::with_stream_len(64).unwrap(), &small_net()).unwrap();
        let xs = inputs(3);
        let bad = Tensor::from_vec(&[1, 2, 2], vec![0.5; 4]).unwrap();
        let reqs = [
            ReadyRequest::plain(0, &xs[0]),
            ReadyRequest::plain(1, &bad),
            ReadyRequest {
                stream_len: Some(100), // unsupported prefix
                ..ReadyRequest::plain(2, &xs[2])
            },
        ];
        let got = BatchEngine::new(2)
            .unwrap()
            .run_ready(&model, &reqs)
            .unwrap();
        assert!(got[0].is_ok());
        assert!(got[1].is_err(), "shape mismatch stays in its slot");
        assert!(got[2].is_err(), "unsupported prefix stays in its slot");
    }

    #[test]
    fn shape_error_reports_lowest_failing_index() {
        let model =
            PreparedModel::compile(SimConfig::with_stream_len(64).unwrap(), &small_net()).unwrap();
        let mut xs = inputs(9);
        xs[3] = Tensor::from_vec(&[1, 2, 2], vec![0.5; 4]).unwrap();
        xs[6] = Tensor::from_vec(&[1, 2, 2], vec![0.5; 4]).unwrap();
        for workers in [1, 4] {
            let err = BatchEngine::new(workers)
                .unwrap()
                .run(&model, &xs)
                .unwrap_err();
            match err {
                RuntimeError::Image { index, .. } => assert_eq!(index, 3),
                other => panic!("unexpected error: {other}"),
            }
        }
    }
}
