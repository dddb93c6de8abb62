//! The deterministic batch-inference engine.
//!
//! A [`BatchEngine`] runs a batch of images through one shared
//! [`PreparedModel`] on a fixed-size pool of `std::thread` workers. Work is
//! distributed by chunked index claiming over an atomic cursor, so load
//! balances dynamically — but every per-image result depends only on
//! `(model, image_index, input)`, never on which worker computed it, and
//! results are merged back in index order. Batch output is therefore
//! bit-identical for any worker count.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use acoustic_nn::train::Sample;
use acoustic_nn::Tensor;
use acoustic_simfunc::{KernelStats, SimError, SimScratch, StepTiming, TILE};

use crate::{BatchReport, ExitPolicy, KernelCounters, LayerTiming, PreparedModel, RuntimeError};

/// Default number of images a worker claims per queue access.
const DEFAULT_CHUNK: usize = 8;

/// One admitted serving request, ready for batch execution.
///
/// Unlike [`BatchEngine::run`], where image `i` draws its seed from its
/// batch position, a ready request carries its own `image_index` — a
/// serving layer passes each request's id, so the result for a request is
/// the same whether it was executed alone, inside any micro-batch, or by
/// any worker.
///
/// At most one of `stream_len` / `margin` may be set (a fixed shorter
/// prefix and an adaptive margin are competing precision policies).
#[derive(Debug, Clone, Copy)]
pub struct ReadyRequest<'a> {
    /// Seed index: the result is a pure function of `(model, image_index,
    /// input, overrides)`.
    pub image_index: u64,
    /// The image to classify.
    pub input: &'a Tensor,
    /// Run at this fixed stream-length prefix instead of the engine
    /// default (must be one of the model's supported lengths).
    pub stream_len: Option<usize>,
    /// Run adaptively with this top-1/top-2 acceptance margin, overriding
    /// (or, without an engine policy, defaulting the rest of) the engine's
    /// [`ExitPolicy`].
    pub margin: Option<f32>,
}

impl<'a> ReadyRequest<'a> {
    /// A request with no per-request overrides.
    pub fn plain(image_index: u64, input: &'a Tensor) -> Self {
        ReadyRequest {
            image_index,
            input,
            stream_len: None,
            margin: None,
        }
    }
}

/// The outcome of one ready request.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadyOutcome {
    /// The accepted logits.
    pub logits: Tensor,
    /// Stream length the logits were produced at (the full prepare-time
    /// length unless a prefix or early exit applied).
    pub effective_len: usize,
}

/// Template used for a per-request margin override when the engine has no
/// attached policy: start at the shortest supported prefix, double on
/// escalation.
const MARGIN_OVERRIDE_TEMPLATE: ExitPolicy = ExitPolicy {
    min_words: 1,
    margin: 0.0,
    escalation_factor: 2,
};

/// A fixed-size worker pool executing batches against a prepared model.
///
/// With an [`ExitPolicy`] attached (see
/// [`BatchEngine::with_exit_policy`]) the engine becomes adaptive: each
/// image starts at a short stream prefix and escalates only while its
/// logit margin stays below the policy threshold. Without one, execution
/// is exactly the fixed full-length path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchEngine {
    workers: usize,
    chunk_size: usize,
    exit_policy: Option<ExitPolicy>,
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
        Ok(BatchEngine {
            workers,
            chunk_size: DEFAULT_CHUNK,
            exit_policy: None,
        })
    }

    /// Overrides how many images a worker claims per queue access.
    ///
    /// Smaller chunks balance better across uneven images; larger chunks
    /// reduce queue contention. Chunking never affects results, only
    /// scheduling.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidConfig`] if `chunk_size` is zero.
    pub fn with_chunk_size(mut self, chunk_size: usize) -> Result<Self, RuntimeError> {
        if chunk_size == 0 {
            return Err(RuntimeError::InvalidConfig(
                "chunk size must be at least 1".into(),
            ));
        }
        self.chunk_size = chunk_size;
        Ok(self)
    }

    /// Attaches an early-exit policy; the engine runs each image at the
    /// policy's initial stream length and escalates only undecided images.
    ///
    /// Results remain bit-identical for any worker count — the policy's
    /// decisions depend only on `(model, image_index, input)` — and are
    /// identical to a model prepared directly at whatever length each image
    /// accepts at.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidConfig`] for out-of-range policy parameters.
    pub fn with_exit_policy(mut self, policy: ExitPolicy) -> Result<Self, RuntimeError> {
        policy.validate()?;
        self.exit_policy = Some(policy);
        Ok(self)
    }

    /// Removes any attached exit policy, restoring fixed full-length runs.
    pub fn without_exit_policy(mut self) -> Self {
        self.exit_policy = None;
        self
    }

    /// The attached early-exit policy, if any.
    pub fn exit_policy(&self) -> Option<&ExitPolicy> {
        self.exit_policy.as_ref()
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs every input through the model, returning logits in input order.
    ///
    /// Image `i` always executes with the activation seed derived from
    /// `(model.config().act_seed, i)`, so the returned logits are
    /// bit-identical for any worker count — and, on the fixed-length path,
    /// for any tile size (tiles are formed from consecutive input indices
    /// before dispatch, and tiled execution is bit-identical to solo).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Image`] tagged with the lowest failing index.
    pub fn run(
        &self,
        model: &PreparedModel,
        inputs: &[Tensor],
    ) -> Result<Vec<Tensor>, RuntimeError> {
        match self.exit_policy {
            Some(policy) => {
                let (pairs, _, _) = self.dispatch(model, inputs.len(), |i, scratch| {
                    model.logits_adaptive_with(&policy, i as u64, &inputs[i], scratch)
                })?;
                Ok(pairs.into_iter().map(|(logits, _)| logits).collect())
            }
            None => {
                let tiles = consecutive_tiles(inputs.len(), TILE);
                let (per_tile, _, _) = self.dispatch(model, tiles.len(), |ti, scratch| {
                    let (lo, hi) = tiles[ti];
                    Ok(run_tile_or_solo(model, inputs, lo, hi, scratch, None))
                })?;
                let mut out = Vec::with_capacity(inputs.len());
                for (ti, results) in per_tile.into_iter().enumerate() {
                    for (off, r) in results.into_iter().enumerate() {
                        // Tiles are consecutive and in order, so the first
                        // error here is the lowest failing image index.
                        out.push(r.map_err(|source| RuntimeError::Image {
                            index: tiles[ti].0 + off,
                            source,
                        })?);
                    }
                }
                Ok(out)
            }
        }
    }

    /// Executes a micro-batch of admitted serving requests, one outcome per
    /// request in request order.
    ///
    /// This is the serving entry point: requests carry their own seed index
    /// and optional per-request precision overrides, and the engine threads
    /// one [`SimScratch`] per worker exactly as [`BatchEngine::run`] does.
    /// Failures are isolated per request — a malformed input yields an
    /// `Err` in its own slot without failing the rest of the batch.
    ///
    /// Equivalences (all test-enforced):
    /// * no overrides, no engine policy → [`PreparedModel::logits_with`] at
    ///   the request's `image_index` (bit-identical to a
    ///   [`BatchEngine::run`] that saw the same index);
    /// * `stream_len` override → [`PreparedModel::logits_at_with`];
    /// * `margin` override → the adaptive path under the engine policy
    ///   with its margin replaced (or [`MARGIN_OVERRIDE_TEMPLATE`]'s shape
    ///   when no policy is attached).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidConfig`] if any request sets both overrides
    /// or a non-finite/negative margin (detected up front — nothing runs);
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
    /// Fixed-length requests (no margin override and, when an engine policy
    /// is attached, a `stream_len` override) are grouped by effective
    /// stream length and executed through the tiled MAC path; adaptive
    /// requests always run solo. Grouping happens deterministically before
    /// dispatch, so outcomes stay invariant to worker count *and* tile
    /// size. A tile whose execution fails falls back to solo per-request
    /// runs, preserving per-request error isolation.
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
        for (i, r) in requests.iter().enumerate() {
            if r.stream_len.is_some() && r.margin.is_some() {
                return Err(RuntimeError::InvalidConfig(format!(
                    "request {i}: at most one of stream_len/margin may be overridden"
                )));
            }
            if let Some(m) = r.margin {
                if !m.is_finite() || m < 0.0 {
                    return Err(RuntimeError::InvalidConfig(format!(
                        "request {i}: margin override must be finite and non-negative, got {m}"
                    )));
                }
            }
        }
        let policy = self.exit_policy;
        let full_len = model.max_stream_len();
        let units = ready_units(requests, &policy);
        let tally = TileTally::default();

        // One solo request, exactly as the pre-tiling engine ran it.
        let solo = |i: usize, scratch: &mut SimScratch| {
            let r = &requests[i];
            if let Some(margin) = r.margin {
                let p = ExitPolicy {
                    margin,
                    ..policy.unwrap_or(MARGIN_OVERRIDE_TEMPLATE)
                };
                model
                    .logits_adaptive_with(&p, r.image_index, r.input, scratch)
                    .map(|(logits, len)| ReadyOutcome {
                        logits,
                        effective_len: len,
                    })
            } else if let Some(len) = r.stream_len {
                model
                    .logits_at_with(r.image_index, r.input, len, scratch)
                    .map(|logits| ReadyOutcome {
                        logits,
                        effective_len: len,
                    })
            } else if let Some(p) = &policy {
                model
                    .logits_adaptive_with(p, r.image_index, r.input, scratch)
                    .map(|(logits, len)| ReadyOutcome {
                        logits,
                        effective_len: len,
                    })
            } else {
                model
                    .logits_with(r.image_index, r.input, scratch)
                    .map(|logits| ReadyOutcome {
                        logits,
                        effective_len: full_len,
                    })
            }
        };

        let (per_unit, _, stats) = self.dispatch(model, units.len(), |ui, scratch| {
            // Per-request isolation: errors ride in their slot, never
            // abort the batch.
            let out: Vec<(usize, Result<ReadyOutcome, SimError>)> = match &units[ui] {
                ReadyUnit::Solo(i) => vec![(*i, solo(*i, scratch))],
                ReadyUnit::Tile { len, members } => {
                    let idxs: Vec<u64> = members.iter().map(|&i| requests[i].image_index).collect();
                    let refs: Vec<&Tensor> = members.iter().map(|&i| requests[i].input).collect();
                    let tiled = match len {
                        Some(l) => model.logits_tile_at_with(&idxs, &refs, *l, scratch),
                        None => model.logits_tile_with(&idxs, &refs, scratch),
                    };
                    match tiled {
                        Ok(logits) => {
                            tally.record(members.len());
                            let effective_len = len.unwrap_or(full_len);
                            members
                                .iter()
                                .zip(logits)
                                .map(|(&i, logits)| {
                                    (
                                        i,
                                        Ok(ReadyOutcome {
                                            logits,
                                            effective_len,
                                        }),
                                    )
                                })
                                .collect()
                        }
                        // Tile-level failure: demote to solo so each
                        // request gets its own result or error.
                        Err(_) => members.iter().map(|&i| (i, solo(i, scratch))).collect(),
                    }
                }
            };
            Ok(out)
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
        let policy = self.exit_policy;
        let full_len = model.config().stream_len;
        // The adaptive path escalates per image, so it cannot tile; the
        // fixed-length path tiles consecutive samples.
        let tile = if policy.is_some() { 1 } else { TILE };
        let tiles = consecutive_tiles(samples.len(), tile);
        let tally = TileTally::default();
        let (per_tile, cpu_busy, stats) = self.dispatch(model, tiles.len(), |ti, scratch| {
            let (lo, hi) = tiles[ti];
            let mut outs: Vec<Result<(Tensor, usize), SimError>> = Vec::with_capacity(hi - lo);
            let mut passes: Vec<Vec<StepTiming>> = Vec::new();
            match &policy {
                Some(p) => {
                    // Adaptive tiles are single samples.
                    match model.logits_adaptive_timed_with(p, lo as u64, &samples[lo].0, scratch) {
                        Ok((logits, len, ps)) => {
                            outs.push(Ok((logits, len)));
                            // Every escalation pass is a real execution;
                            // count each one.
                            passes.extend(ps);
                        }
                        Err(e) => outs.push(Err(e)),
                    }
                }
                None if hi - lo > 1 => {
                    let idxs: Vec<u64> = (lo..hi).map(|i| i as u64).collect();
                    let refs: Vec<&Tensor> = samples[lo..hi].iter().map(|(x, _)| x).collect();
                    match model.logits_tile_timed_with(&idxs, &refs, scratch) {
                        Ok((logits, timings)) => {
                            tally.record(hi - lo);
                            outs.extend(logits.into_iter().map(|l| Ok((l, full_len))));
                            passes.push(timings);
                        }
                        // Tile-level failure: demote to solo so the lowest
                        // failing sample index is reported.
                        Err(_) => {
                            for (i, (x, _)) in samples.iter().enumerate().take(hi).skip(lo) {
                                match model.logits_timed_with(i as u64, x, scratch) {
                                    Ok((logits, timings)) => {
                                        outs.push(Ok((logits, full_len)));
                                        passes.push(timings);
                                    }
                                    Err(e) => outs.push(Err(e)),
                                }
                            }
                        }
                    }
                }
                None => match model.logits_timed_with(lo as u64, &samples[lo].0, scratch) {
                    Ok((logits, timings)) => {
                        outs.push(Ok((logits, full_len)));
                        passes.push(timings);
                    }
                    Err(e) => outs.push(Err(e)),
                },
            }
            Ok((outs, passes))
        })?;
        let wall = started.elapsed();

        let mut results: Vec<(Tensor, usize)> = Vec::with_capacity(samples.len());
        let mut layer_timings: Vec<LayerTiming> = Vec::new();
        for (ti, (outs, passes)) in per_tile.into_iter().enumerate() {
            for (off, r) in outs.into_iter().enumerate() {
                // Tiles are consecutive and in order, so the first error is
                // the lowest failing sample index.
                results.push(r.map_err(|source| RuntimeError::Image {
                    index: tiles[ti].0 + off,
                    source,
                })?);
            }
            for pass in &passes {
                merge_timings(&mut layer_timings, pass);
            }
        }

        let classes = results[0].0.len();
        let mut confusion = vec![vec![0u64; classes]; classes];
        let mut predictions = Vec::with_capacity(samples.len());
        let mut effective_lengths = Vec::with_capacity(samples.len());
        let mut correct = 0usize;
        for (i, (logits, effective_len)) in results.iter().enumerate() {
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
            effective_lengths.push(*effective_len);
        }

        let total = samples.len();
        let mean_effective_len = effective_lengths.iter().sum::<usize>() as f64 / total as f64;
        Ok(BatchReport {
            total,
            correct,
            accuracy: correct as f64 / total as f64,
            classes,
            confusion,
            predictions,
            workers: self.workers,
            wall,
            cpu_busy,
            images_per_sec: total as f64 / wall.as_secs_f64().max(f64::MIN_POSITIVE),
            layer_timings,
            effective_lengths,
            mean_effective_len,
            kernel: tally.counters(&stats),
            plan: model.plan(),
            dedup: model.dedup_stats(),
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
    /// reporting is as deterministic as the results.
    fn dispatch<T, F>(&self, _model: &PreparedModel, count: usize, job: F) -> DispatchResult<T>
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
                out.push(
                    job(i, &mut scratch)
                        .map_err(|source| RuntimeError::Image { index: i, source })?,
                );
            }
            return Ok((out, started.elapsed(), scratch.take_kernel_stats()));
        }

        let cursor = AtomicUsize::new(0);
        let workers = self.workers.min(count);
        let chunk = self.chunk_size;
        let job = &job;
        let worker_outputs = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let started = Instant::now();
                        let mut scratch = SimScratch::default();
                        let mut mine: Vec<(usize, Result<T, SimError>)> = Vec::new();
                        loop {
                            let lo = cursor.fetch_add(chunk, Ordering::Relaxed);
                            if lo >= count {
                                break;
                            }
                            for i in lo..(lo + chunk).min(count) {
                                mine.push((i, job(i, &mut scratch)));
                            }
                        }
                        (mine, started.elapsed(), scratch.take_kernel_stats())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .map_err(|_| RuntimeError::WorkerPanic("batch worker panicked".into()))
                })
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

/// Consecutive `[lo, hi)` index ranges of width `tile` covering `0..count`.
///
/// Tiling composition happens *before* dispatch and depends only on the
/// batch shape, which is what keeps tiled batch results invariant to
/// worker count and scheduling.
fn consecutive_tiles(count: usize, tile: usize) -> Vec<(usize, usize)> {
    (0..count.div_ceil(tile.max(1)))
        .map(|t| (t * tile, ((t + 1) * tile).min(count)))
        .collect()
}

/// Runs images `lo..hi` of `inputs` as one tile, demoting to per-image
/// solo runs when the tile fails so every image gets its own result or
/// error (solo and tiled logits are bit-identical, so the demotion is
/// invisible to successful images).
fn run_tile_or_solo(
    model: &PreparedModel,
    inputs: &[Tensor],
    lo: usize,
    hi: usize,
    scratch: &mut SimScratch,
    tally: Option<&TileTally>,
) -> Vec<Result<Tensor, SimError>> {
    if hi - lo > 1 {
        let idxs: Vec<u64> = (lo..hi).map(|i| i as u64).collect();
        let refs: Vec<&Tensor> = inputs[lo..hi].iter().collect();
        if let Ok(outs) = model.logits_tile_with(&idxs, &refs, scratch) {
            if let Some(tally) = tally {
                tally.record(hi - lo);
            }
            return outs.into_iter().map(Ok).collect();
        }
    }
    (lo..hi)
        .map(|i| model.logits_with(i as u64, &inputs[i], scratch))
        .collect()
}

/// One deterministic execution unit of a ready micro-batch.
enum ReadyUnit {
    /// Runs alone (adaptive request, or a tile group of one).
    Solo(usize),
    /// Fixed-length requests sharing one weight-bank walk at `len`
    /// (`None` = the full prepare-time length).
    Tile {
        len: Option<usize>,
        members: Vec<usize>,
    },
}

/// Groups ready requests into execution units, in request order.
///
/// Adaptive requests (margin override, or plain requests under an engine
/// policy) are always solo. Fixed-length requests group by effective
/// stream length; a group flushes into a tile as soon as it reaches
/// [`TILE`], and leftovers flush at the end in first-appearance order.
/// The unit list is a pure function of `(requests, policy)` — never of
/// worker scheduling.
fn ready_units(requests: &[ReadyRequest<'_>], policy: &Option<ExitPolicy>) -> Vec<ReadyUnit> {
    let mut units = Vec::new();
    let mut groups: Vec<(Option<usize>, Vec<usize>)> = Vec::new();
    for (i, r) in requests.iter().enumerate() {
        let adaptive = r.margin.is_some() || (r.stream_len.is_none() && policy.is_some());
        if adaptive {
            units.push(ReadyUnit::Solo(i));
            continue;
        }
        let key = r.stream_len;
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, members)) => members.push(i),
            None => groups.push((key, vec![i])),
        }
        let full = groups
            .iter_mut()
            .find(|(k, members)| *k == key && members.len() == TILE);
        if let Some((_, members)) = full {
            units.push(ReadyUnit::Tile {
                len: key,
                members: std::mem::take(members),
            });
        }
    }
    for (len, members) in groups {
        match members.len() {
            0 => {}
            1 => units.push(ReadyUnit::Solo(members[0])),
            _ => units.push(ReadyUnit::Tile { len, members }),
        }
    }
    units
}

/// Thread-safe tile-execution tally shared by dispatch jobs.
#[derive(Default)]
struct TileTally {
    tiles: AtomicU64,
    images: AtomicU64,
}

impl TileTally {
    fn record(&self, images: usize) {
        self.tiles.fetch_add(1, Ordering::Relaxed);
        self.images.fetch_add(images as u64, Ordering::Relaxed);
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

    fn inputs(n: usize) -> Vec<Tensor> {
        (0..n)
            .map(|i| {
                let v: Vec<f32> = (0..16).map(|j| ((i * 7 + j) % 16) as f32 / 16.0).collect();
                Tensor::from_vec(&[1, 4, 4], v).unwrap()
            })
            .collect()
    }

    #[test]
    fn rejects_zero_workers_and_zero_chunk() {
        assert!(BatchEngine::new(0).is_err());
        assert!(BatchEngine::new(2).unwrap().with_chunk_size(0).is_err());
    }

    #[test]
    fn run_matches_solo_per_image() {
        let model =
            PreparedModel::compile(SimConfig::with_stream_len(64).unwrap(), &small_net()).unwrap();
        let xs = inputs(11);
        let mut scratch = SimScratch::default();
        let tiled = BatchEngine::new(1).unwrap().run(&model, &xs).unwrap();
        for (i, x) in xs.iter().enumerate() {
            let solo = model.logits_with(i as u64, x, &mut scratch).unwrap();
            assert_eq!(tiled[i], solo, "image {i}");
        }
    }

    #[test]
    fn run_is_worker_count_invariant() {
        let model =
            PreparedModel::compile(SimConfig::with_stream_len(64).unwrap(), &small_net()).unwrap();
        let xs = inputs(11);
        let serial = BatchEngine::new(1).unwrap().run(&model, &xs).unwrap();
        for workers in [2, 3, 8] {
            let parallel = BatchEngine::new(workers)
                .unwrap()
                .with_chunk_size(2)
                .unwrap()
                .run(&model, &xs)
                .unwrap();
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
        let mut scratch = SimScratch::default();

        // Plain requests: bit-identical to BatchEngine::run at the same
        // indices, for any worker count.
        let plain: Vec<ReadyRequest> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| ReadyRequest::plain(i as u64, x))
            .collect();
        let direct = BatchEngine::new(1).unwrap().run(&model, &xs).unwrap();
        for workers in [1, 3] {
            let engine = BatchEngine::new(workers)
                .unwrap()
                .with_chunk_size(1)
                .unwrap();
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

        // stream_len override == logits_at_with.
        let short = ReadyRequest {
            stream_len: Some(64),
            ..plain[2]
        };
        let got = BatchEngine::new(1)
            .unwrap()
            .run_ready(&model, &[short])
            .unwrap();
        let want = model.logits_at_with(2, &xs[2], 64, &mut scratch).unwrap();
        assert_eq!(got[0].as_ref().unwrap().logits, want);
        assert_eq!(got[0].as_ref().unwrap().effective_len, 64);

        // margin override == the adaptive path with that margin.
        let adaptive = ReadyRequest {
            margin: Some(10.0),
            ..plain[1]
        };
        let got = BatchEngine::new(1)
            .unwrap()
            .run_ready(&model, &[adaptive])
            .unwrap();
        let p = ExitPolicy::new(1, 10.0, 2).unwrap();
        let (want, want_len) = model
            .logits_adaptive_with(&p, 1, &xs[1], &mut scratch)
            .unwrap();
        assert_eq!(got[0].as_ref().unwrap().logits, want);
        assert_eq!(got[0].as_ref().unwrap().effective_len, want_len);

        // With an engine policy attached, plain requests follow it.
        let policied = BatchEngine::new(1)
            .unwrap()
            .with_exit_policy(ExitPolicy::new(1, 0.05, 2).unwrap())
            .unwrap();
        let got = policied.run_ready(&model, &[plain[4]]).unwrap();
        let (want, want_len) = model
            .logits_adaptive_with(
                &ExitPolicy::new(1, 0.05, 2).unwrap(),
                4,
                &xs[4],
                &mut scratch,
            )
            .unwrap();
        assert_eq!(got[0].as_ref().unwrap().logits, want);
        assert_eq!(got[0].as_ref().unwrap().effective_len, want_len);
    }

    /// A tile unit's stream-length override and member count.
    type TileShape = (Option<usize>, usize);

    #[test]
    fn run_ready_tiles_compatible_requests_and_counts_them() {
        let model =
            PreparedModel::compile(SimConfig::with_stream_len(128).unwrap(), &small_net()).unwrap();
        // Plain (full-length) requests mixed with prefix-override requests
        // and one adaptive request that must run solo. The second case has
        // 2*TILE+3 plain requests, so the plain group is cut into two full
        // tiles mid-batch plus a 3-request remainder.
        // (requests, prefix-request indices, adaptive index, tile shapes)
        type Case = (usize, &'static [usize], usize, &'static [TileShape]);
        let cases: [Case; 2] = [
            (7, &[2, 5], 3, &[(None, 4), (Some(64), 2)]),
            (
                2 * TILE + 7,
                &[10, 55, 100],
                77,
                &[(None, TILE), (None, TILE), (None, 3), (Some(64), 3)],
            ),
        ];
        for (n, prefix, adaptive, shapes) in cases {
            let xs = inputs(n);
            let reqs: Vec<ReadyRequest> = xs
                .iter()
                .enumerate()
                .map(|(i, x)| ReadyRequest {
                    stream_len: prefix.contains(&i).then_some(64),
                    margin: (i == adaptive).then_some(10.0),
                    ..ReadyRequest::plain(i as u64, x)
                })
                .collect();
            // One tile per full group or leftover group, per stream length;
            // the adaptive request never tiles.
            let got_shapes: Vec<TileShape> = ready_units(&reqs, &None)
                .iter()
                .filter_map(|u| match u {
                    ReadyUnit::Tile { len, members } => Some((*len, members.len())),
                    ReadyUnit::Solo(_) => None,
                })
                .collect();
            assert_eq!(got_shapes, shapes, "n={n}");
            // A micro-batch of one runs solo: the per-request reference.
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
                assert_eq!(
                    counters.tiled_images,
                    n as u64 - 1,
                    "n={n} workers={workers}"
                );
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
    fn run_ready_validates_overrides_up_front() {
        let model =
            PreparedModel::compile(SimConfig::with_stream_len(64).unwrap(), &small_net()).unwrap();
        let xs = inputs(1);
        let both = ReadyRequest {
            stream_len: Some(64),
            margin: Some(0.1),
            ..ReadyRequest::plain(0, &xs[0])
        };
        assert!(matches!(
            BatchEngine::new(1).unwrap().run_ready(&model, &[both]),
            Err(RuntimeError::InvalidConfig(_))
        ));
        let bad_margin = ReadyRequest {
            margin: Some(-1.0),
            ..ReadyRequest::plain(0, &xs[0])
        };
        assert!(matches!(
            BatchEngine::new(1)
                .unwrap()
                .run_ready(&model, &[bad_margin]),
            Err(RuntimeError::InvalidConfig(_))
        ));
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
                .with_chunk_size(1)
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
