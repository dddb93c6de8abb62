//! The stochastic execution engine.
//!
//! A [`Network`] is first *prepared*: every MAC layer's weights are
//! quantized and converted to per-phase split-unipolar bitstreams once
//! (weights never change between images, exactly like the weight buffers of
//! the accelerator). Each image then only pays for activation stream
//! generation and the AND/OR datapath.

use std::sync::Arc;

use acoustic_core::bitstream::copy_bit_range;
use acoustic_core::sng::quantize_probability;
use acoustic_core::{Lfsr, LfsrOrbit, Sng, SngBank};
use acoustic_nn::fixedpoint::Quantizer;
use acoustic_nn::layers::{NetLayer, Network};
use acoustic_nn::train::Sample;
use acoustic_nn::Tensor;

use crate::banks::{
    fnv1a, ActBank, DedupStats, SimScratch, WeightCycles, LIVE_BOUND, NEG_PHASE, ZERO_CODE,
};
use crate::kernels::{self, active_kernel, KernelKind, SegGeom, TileState, TILE};
use crate::{SimConfig, SimError, QUANT_BITS};

/// Comparator width of every SNG in the datapath (16-bit LFSRs).
const SNG_WIDTH: u32 = 16;

/// Per-layer decoded outputs of a traced run.
#[derive(Debug, Clone)]
pub struct LayerTrace {
    /// Step label, e.g. `"conv0"`, `"relu"`, `"dense1"`.
    pub name: String,
    /// Decoded (binary-domain) output of the step.
    pub output: Tensor,
}

/// Full trace of one stochastic inference.
#[derive(Debug, Clone)]
pub struct RunTrace {
    /// Every executed step with its decoded output.
    pub layers: Vec<LayerTrace>,
    /// Final logits.
    pub logits: Tensor,
}

/// Wall-clock cost of one executed step (observability hook for the batch
/// runtime). Steps inside a residual block are reported individually *and*
/// included in the enclosing `"residual"` entry's time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepTiming {
    /// Step label, e.g. `"conv0"`, `"relu"`, `"dense1"`. Shared with the
    /// prepared network's cached label — cloning is a reference-count bump,
    /// so the timed path never formats or allocates a label per step.
    pub name: Arc<str>,
    /// Time spent executing the step, in nanoseconds.
    pub nanos: u128,
}

/// What a run records besides its logits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Observe {
    /// One [`StepTiming`] per executed step, covering the whole run (a step
    /// executes once for every input of the spec).
    pub timings: bool,
    /// Every step's decoded output, per input ([`LayerTrace`]).
    pub traces: bool,
}

/// One execution of a prepared network: the inputs, one activation seed
/// per input, the stream-length prefix and what to observe.
///
/// Every run is a tile: the weight banks are walked once for all inputs,
/// and input `t`'s logits are a pure function of `(network, inputs[t],
/// act_seeds[t], stream_len)` — the same whether it runs alone or next to
/// any other inputs. A single image is a tile of one.
#[derive(Debug, Clone)]
pub struct RunSpec<'a> {
    /// The images to run.
    pub inputs: Vec<&'a Tensor>,
    /// Activation seed of each input (replaces [`SimConfig::act_seed`]).
    pub act_seeds: Vec<u32>,
    /// Total stream length to run at: one of
    /// [`PreparedNetwork::supported_lengths`], or `None` for the
    /// prepare-time maximum.
    pub stream_len: Option<usize>,
    /// What to record besides logits.
    pub observe: Observe,
}

impl<'a> RunSpec<'a> {
    /// A full-length, unobserved run of `inputs` at `act_seeds`.
    pub fn new(inputs: Vec<&'a Tensor>, act_seeds: Vec<u32>) -> Self {
        RunSpec {
            inputs,
            act_seeds,
            stream_len: None,
            observe: Observe::default(),
        }
    }

    /// A full-length, unobserved run of one image (a tile of one).
    pub fn one(input: &'a Tensor, act_seed: u32) -> Self {
        RunSpec::new(vec![input], vec![act_seed])
    }
}

/// The result of one [`RunSpec`].
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// Logits of each input, in spec order.
    pub logits: Vec<Tensor>,
    /// Per-step timings (empty unless [`Observe::timings`]).
    pub timings: Vec<StepTiming>,
    /// Per-input layer traces (empty unless [`Observe::traces`]).
    pub traces: Vec<Vec<LayerTrace>>,
}

/// What every MAC step of one engine run shares: the per-phase bit budget
/// of the requested length, the MAC kernel resolved against host
/// capabilities at run start, and the model's weight cycles.
#[derive(Debug, Clone, Copy)]
struct RunLen<'a> {
    per_phase: usize,
    kernel: KernelKind,
    cycles: &'a WeightCycles,
}

#[derive(Debug, Clone)]
struct PreparedConv {
    in_c: usize,
    out_c: usize,
    k: usize,
    stride: usize,
    pad: usize,
    /// Pooling window fused into this conv (computation skipping), if any.
    pool: Option<usize>,
    /// One lane code per weight (see [`WeightCycles`]).
    codes: Vec<u32>,
    ordinal: usize,
}

impl PreparedConv {
    /// Pooling segments per stream.
    fn segments(&self) -> usize {
        self.pool.map_or(1, |k| k * k)
    }
}

#[derive(Debug, Clone)]
struct PreparedDense {
    in_n: usize,
    out_n: usize,
    /// One lane code per weight (see [`WeightCycles`]).
    codes: Vec<u32>,
    ordinal: usize,
}

/// One execution step with its display label cached at prepare time, so the
/// per-image timed path never rebuilds step names.
#[derive(Debug, Clone)]
struct Step {
    label: Arc<str>,
    op: StepOp,
}

#[derive(Debug, Clone)]
enum StepOp {
    Conv(PreparedConv),
    Dense(PreparedDense),
    /// Binary-domain average pooling (skip-pooling disabled or standalone).
    BinaryAvgPool(usize),
    /// Binary-domain max pooling (FSM-based in real SC; ACOUSTIC converts
    /// per layer so the binary result is identical).
    MaxPool(usize),
    Relu(Option<f32>),
    Flatten,
    /// A residual block: execute the inner steps, then add the block input
    /// in the binary (counter) domain — exactly how the hardware realises
    /// skip connections after per-layer conversion.
    Residual(Vec<Step>),
}

impl Step {
    fn new(label: impl Into<Arc<str>>, op: StepOp) -> Self {
        Step {
            label: label.into(),
            op,
        }
    }
}

/// A network compiled for stochastic execution.
///
/// Holds every MAC layer's quantized weights as split-unipolar bitstreams —
/// the image-independent half of a stochastic inference — in one
/// representation: the model's weight bit cycles, one per distinct weight
/// threshold, and one `u32` code per weight lane naming its cycle, orbit
/// position and phase. Prepare once (via [`ScSimulator::prepare`]) and
/// reuse across images; the structure is immutable and cheap to share
/// behind an `Arc`.
///
/// The weights are *prefix-reusable*: any length in
/// [`PreparedNetwork::supported_lengths`] (the power-of-two-halving
/// prefixes of the maximum) reads a shorter window of the same cycles,
/// selected by [`RunSpec::stream_len`], with no stream regeneration.
#[derive(Debug, Clone)]
pub struct PreparedNetwork {
    steps: Vec<Step>,
    /// Executable total stream lengths, longest (the prepare-time maximum)
    /// first.
    lengths: Vec<usize>,
    cycles: WeightCycles,
}

impl PreparedNetwork {
    /// Number of top-level execution steps.
    pub fn step_count(&self) -> usize {
        self.steps.len()
    }

    /// Labels of the top-level execution steps, in order (matches the names
    /// reported by [`RunTrace`] and [`StepTiming`], without residual
    /// inner steps).
    pub fn step_names(&self) -> Vec<String> {
        self.steps.iter().map(|s| s.label.to_string()).collect()
    }

    /// The stream length the network was prepared at (the longest
    /// executable length).
    pub fn max_stream_len(&self) -> usize {
        self.lengths[0]
    }

    /// Every executable total stream length, in descending order.
    ///
    /// The first entry is the prepare-time maximum; each following entry
    /// halves the one before it, down to the shortest prefix every MAC
    /// layer's pooling segmentation still divides.
    pub fn supported_lengths(&self) -> &[usize] {
        &self.lengths
    }

    /// Approximate resident size of the prepared weights, in bytes: the
    /// model's weight cycles plus every lane code, ignoring small fixed
    /// overheads (labels, shape metadata). Serving layers use this to
    /// enforce memory budgets on prepared-model caches.
    pub fn approx_bytes(&self) -> usize {
        self.dedup_stats().resident_bytes as usize
    }

    /// Weight-storage accounting over every MAC layer: lanes, weight
    /// cycles, cycle/code/resident bytes, and what a per-lane layout would
    /// cost for the same shapes.
    pub fn dedup_stats(&self) -> DedupStats {
        let mut layers = Vec::new();
        mac_layers(&self.steps, &mut layers);
        let lanes: usize = layers.iter().map(|(codes, _)| codes.len()).sum();
        // A per-lane layout holds, at every level, full words plus a
        // presence flag per lane in each of the two phases.
        let materialized: usize = layers
            .iter()
            .map(|&(codes, segments)| {
                self.lengths
                    .iter()
                    .map(|&len| {
                        let seg_words = (len / 2 / segments).div_ceil(64);
                        2 * codes.len() * (segments * seg_words * std::mem::size_of::<u64>() + 1)
                    })
                    .sum::<usize>()
            })
            .sum();
        let pool_bytes = self.cycles.bytes() as u64;
        let index_bytes = (lanes * std::mem::size_of::<u32>()) as u64;
        DedupStats {
            lanes: lanes as u64,
            distinct_streams: self.cycles.thresholds.len() as u64,
            pool_bytes,
            index_bytes,
            resident_bytes: pool_bytes + index_bytes,
            materialized_bytes: materialized as u64,
        }
    }

    /// A 64-bit FNV-1a digest over the complete prepared content: prefix
    /// lengths, step structure, and every MAC layer's logical weight banks
    /// — per-lane slots and presence flags, and every distinct stream's
    /// words at every prefix level, as a deduplicated stream pool would
    /// hold them (see `WeightCycles::digest_layer`).
    ///
    /// Two prepares digest equal exactly when every weight stream at every
    /// supported length is bit-identical.
    pub fn content_digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &l in &self.lengths {
            fnv1a(&mut h, l as u64);
        }
        let mut slot_of = Vec::new();
        self.digest_steps(&self.steps, &mut h, &mut slot_of);
        h
    }

    fn digest_steps(&self, steps: &[Step], h: &mut u64, slot_of: &mut Vec<u32>) {
        for s in steps {
            for &b in s.label.as_bytes() {
                fnv1a(h, u64::from(b));
            }
            match &s.op {
                StepOp::Conv(c) => {
                    fnv1a(h, 1);
                    for v in [
                        c.in_c,
                        c.out_c,
                        c.k,
                        c.stride,
                        c.pad,
                        c.pool.map_or(0, |p| p + 1),
                        c.ordinal,
                    ] {
                        fnv1a(h, v as u64);
                    }
                    self.cycles
                        .digest_layer(h, &c.codes, c.segments(), &self.lengths, slot_of);
                }
                StepOp::Dense(d) => {
                    fnv1a(h, 2);
                    for v in [d.in_n, d.out_n, d.ordinal] {
                        fnv1a(h, v as u64);
                    }
                    self.cycles
                        .digest_layer(h, &d.codes, 1, &self.lengths, slot_of);
                }
                StepOp::BinaryAvgPool(k) => {
                    fnv1a(h, 3);
                    fnv1a(h, *k as u64);
                }
                StepOp::MaxPool(k) => {
                    fnv1a(h, 4);
                    fnv1a(h, *k as u64);
                }
                StepOp::Relu(max) => {
                    fnv1a(h, 5);
                    fnv1a(h, max.map_or(0, |v| u64::from(v.to_bits()) | (1 << 32)));
                }
                StepOp::Flatten => fnv1a(h, 6),
                StepOp::Residual(inner) => {
                    fnv1a(h, 7);
                    self.digest_steps(inner, h, slot_of);
                    fnv1a(h, 8);
                }
            }
        }
    }
}

/// Every MAC layer's lane codes and pooling segments, in step order.
fn mac_layers<'a>(steps: &'a [Step], out: &mut Vec<(&'a [u32], usize)>) {
    for s in steps {
        match &s.op {
            StepOp::Conv(c) => out.push((&c.codes, c.segments())),
            StepOp::Dense(d) => out.push((&d.codes, 1)),
            StepOp::Residual(inner) => mac_layers(inner, out),
            _ => {}
        }
    }
}

/// Executable prefix lengths of a prepared network: the configured maximum,
/// then repeated halvings while the per-phase length stays a positive
/// multiple of every MAC layer's pooling segmentation.
fn supported_prefix_lengths(max_stream_len: usize, segments: &[usize]) -> Vec<usize> {
    let mut lengths = vec![max_stream_len];
    let mut per_phase = max_stream_len / 2;
    while per_phase.is_multiple_of(2) {
        let next = per_phase / 2;
        if next == 0 || segments.iter().any(|&s| !next.is_multiple_of(s)) {
            break;
        }
        lengths.push(next * 2);
        per_phase = next;
    }
    lengths
}

/// The stochastic functional simulator.
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Debug, Clone)]
pub struct ScSimulator {
    cfg: SimConfig,
}

impl ScSimulator {
    /// Creates a simulator with the given configuration.
    pub fn new(cfg: SimConfig) -> Self {
        ScSimulator { cfg }
    }

    /// The simulation configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Quantizes all weights and codes their split-unipolar streams.
    ///
    /// One serial pass over the weight lanes: each weight's quantizer code
    /// gives its phase and threshold (through [`WeightCoder`]'s lookup
    /// table), its mixed SNG seed gives its position on the LFSR orbit,
    /// and the two make its lane code. The model's cycles are then built
    /// for the thresholds the lanes use, and the orbit's position table is
    /// dropped.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnsupportedLayer`] for layer arrangements the SC
    /// datapath cannot execute.
    pub fn prepare(&self, net: &Network) -> Result<PreparedNetwork, SimError> {
        let mut segments = Vec::new();
        self.scan_segments(net.layers(), &mut segments);
        let lengths = supported_prefix_lengths(self.cfg.stream_len, &segments);
        let mut coder = WeightCoder::new(self.cfg.wgt_seed, self.cfg.per_phase_len())?;
        let mut ordinal = 0usize;
        let steps = self.prepare_layers(net.layers(), &mut ordinal, &mut coder)?;
        let cycles = coder.into_cycles();
        Ok(PreparedNetwork {
            steps,
            lengths,
            cycles,
        })
    }

    /// Collects the pooling segmentation of every MAC layer, mirroring the
    /// fusion decisions of [`ScSimulator::prepare_layers`] (a conv directly
    /// followed by an average pool fuses when skipping is on).
    fn scan_segments(&self, layers: &[NetLayer], out: &mut Vec<usize>) {
        let mut i = 0usize;
        while i < layers.len() {
            match &layers[i] {
                NetLayer::Conv(_) => {
                    let pool = match layers.get(i + 1) {
                        Some(NetLayer::AvgPool(p)) if self.cfg.skip_pooling => Some(p.window()),
                        _ => None,
                    };
                    out.push(pool.map_or(1, |k| k * k));
                    i += if pool.is_some() { 2 } else { 1 };
                }
                NetLayer::Dense(_) => {
                    out.push(1);
                    i += 1;
                }
                NetLayer::Residual(r) => {
                    self.scan_segments(r.inner().layers(), out);
                    i += 1;
                }
                _ => i += 1,
            }
        }
    }

    fn prepare_layers(
        &self,
        layers: &[NetLayer],
        ordinal: &mut usize,
        coder: &mut WeightCoder,
    ) -> Result<Vec<Step>, SimError> {
        let mut steps = Vec::new();
        let mut i = 0usize;
        while i < layers.len() {
            match &layers[i] {
                NetLayer::Conv(conv) => {
                    // Fuse a directly-following AvgPool when skipping is on.
                    let pool = match layers.get(i + 1) {
                        Some(NetLayer::AvgPool(p)) if self.cfg.skip_pooling => Some(p.window()),
                        _ => None,
                    };
                    let segments = pool.map_or(1, |k| k * k);
                    if !self.cfg.per_phase_len().is_multiple_of(segments) {
                        return Err(SimError::UnsupportedLayer(format!(
                            "pooling window {segments}-way does not divide per-phase length {}",
                            self.cfg.per_phase_len()
                        )));
                    }
                    let codes = coder.codes(conv.weights(), *ordinal)?;
                    steps.push(Step::new(
                        format!("conv{ordinal}"),
                        StepOp::Conv(PreparedConv {
                            in_c: conv.in_channels(),
                            out_c: conv.out_channels(),
                            k: conv.kernel(),
                            stride: conv.stride(),
                            pad: conv.padding(),
                            pool,
                            codes,
                            ordinal: *ordinal,
                        }),
                    ));
                    *ordinal += 1;
                    i += if pool.is_some() { 2 } else { 1 };
                }
                NetLayer::Dense(d) => {
                    let codes = coder.codes(d.weights(), *ordinal)?;
                    steps.push(Step::new(
                        format!("dense{ordinal}"),
                        StepOp::Dense(PreparedDense {
                            in_n: d.in_features(),
                            out_n: d.out_features(),
                            codes,
                            ordinal: *ordinal,
                        }),
                    ));
                    *ordinal += 1;
                    i += 1;
                }
                NetLayer::AvgPool(p) => {
                    steps.push(Step::new("avgpool", StepOp::BinaryAvgPool(p.window())));
                    i += 1;
                }
                NetLayer::MaxPool(p) => {
                    steps.push(Step::new("maxpool", StepOp::MaxPool(p.window())));
                    i += 1;
                }
                NetLayer::Relu(r) => {
                    steps.push(Step::new("relu", StepOp::Relu(r.max_value())));
                    i += 1;
                }
                NetLayer::Flatten(_) => {
                    steps.push(Step::new("flatten", StepOp::Flatten));
                    i += 1;
                }
                NetLayer::Residual(r) => {
                    let inner = self.prepare_layers(r.inner().layers(), ordinal, coder)?;
                    steps.push(Step::new("residual", StepOp::Residual(inner)));
                    i += 1;
                }
            }
        }
        Ok(steps)
    }

    /// Runs one stochastic inference at the configured activation seed,
    /// returning the logits.
    ///
    /// # Errors
    ///
    /// See [`ScSimulator::prepare`]; additionally propagates shape errors.
    pub fn run(&self, net: &Network, input: &Tensor) -> Result<Tensor, SimError> {
        let prepared = self.prepare(net)?;
        let spec = RunSpec::one(input, self.cfg.act_seed);
        let mut out = self.execute(&prepared, &spec, &mut SimScratch::default())?;
        Ok(out.logits.remove(0))
    }

    /// Runs one inference collecting per-step decoded outputs.
    ///
    /// # Errors
    ///
    /// See [`ScSimulator::run`].
    pub fn run_traced(&self, net: &Network, input: &Tensor) -> Result<RunTrace, SimError> {
        let prepared = self.prepare(net)?;
        let spec = RunSpec {
            observe: Observe {
                traces: true,
                ..Observe::default()
            },
            ..RunSpec::one(input, self.cfg.act_seed)
        };
        let mut out = self.execute(&prepared, &spec, &mut SimScratch::default())?;
        Ok(RunTrace {
            layers: out.traces.remove(0),
            logits: out.logits.remove(0),
        })
    }

    /// Executes `spec` against a prepared network — the one execution
    /// entry point.
    ///
    /// Every weight-bank word is walked once for the whole tile of inputs
    /// (the weight banks are the large, cold operand — activations are
    /// regenerated per layer and stay hot). `spec.act_seeds[t]` replaces
    /// the configured activation seed for input `t`; everything else comes
    /// from this simulator's [`SimConfig`]. A shorter `spec.stream_len` is
    /// bit-identical to preparing the network directly at that length:
    /// weight streams are length-`L` prefixes of the max-length banks
    /// (sliced at prepare time) and activation streams are generated at the
    /// short length from the same seeds. The scratch only recycles buffers
    /// between runs, so a fresh one gives bit-identical results.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] for an empty spec, mismatched
    /// `inputs`/`act_seeds` lengths or an unsupported stream length;
    /// otherwise propagates datapath and shape errors (a failure anywhere
    /// fails the whole spec).
    pub fn execute(
        &self,
        prepared: &PreparedNetwork,
        spec: &RunSpec<'_>,
        scratch: &mut SimScratch,
    ) -> Result<RunOutput, SimError> {
        if spec.inputs.is_empty() {
            return Err(SimError::InvalidConfig("empty run".into()));
        }
        if spec.inputs.len() != spec.act_seeds.len() {
            return Err(SimError::InvalidConfig(format!(
                "run has {} inputs but {} activation seeds",
                spec.inputs.len(),
                spec.act_seeds.len()
            )));
        }
        let run = self.resolve_len(prepared, spec.stream_len)?;
        let aq = Quantizer::unsigned_unit(QUANT_BITS)?;
        let xs: Vec<Tensor> = spec
            .inputs
            .iter()
            .map(|t| t.map(|v| aq.quantize_value(v.clamp(0.0, 1.0))))
            .collect();
        let mut out = RunOutput {
            logits: Vec::new(),
            timings: Vec::new(),
            traces: if spec.observe.traces {
                vec![Vec::new(); xs.len()]
            } else {
                Vec::new()
            },
        };
        out.logits = self.execute_steps(
            &prepared.steps,
            xs,
            &spec.act_seeds,
            spec.observe,
            &mut out,
            scratch,
            run,
        )?;
        Ok(out)
    }

    /// The effective OR-group width (`usize::MAX` = whole fan-in, the
    /// ACOUSTIC fabric default).
    fn or_group(&self) -> usize {
        self.cfg.or_group.unwrap_or(usize::MAX).max(1)
    }

    /// Resolves a requested stream length (`None` = the prepare-time
    /// maximum) against the supported prefixes, with the kernel resolved
    /// against the host and the configured
    /// [`KernelChoice`](crate::KernelChoice).
    fn resolve_len<'a>(
        &self,
        prepared: &'a PreparedNetwork,
        stream_len: Option<usize>,
    ) -> Result<RunLen<'a>, SimError> {
        let stream_len = stream_len.unwrap_or_else(|| prepared.max_stream_len());
        if !prepared.lengths.contains(&stream_len) {
            return Err(SimError::InvalidConfig(format!(
                "stream length {stream_len} is not an executable prefix of this \
                 prepared network (supported: {:?})",
                prepared.supported_lengths()
            )));
        }
        Ok(RunLen {
            per_phase: stream_len / 2,
            kernel: active_kernel(self.cfg.kernel),
            cycles: &prepared.cycles,
        })
    }

    /// Classification accuracy of the stochastic datapath over `samples`,
    /// every image at the configured activation seed.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for an empty sample set and
    /// propagates datapath errors.
    pub fn evaluate(&self, net: &Network, samples: &[Sample]) -> Result<f64, SimError> {
        if samples.is_empty() {
            return Err(SimError::InvalidConfig("empty evaluation set".into()));
        }
        let prepared = self.prepare(net)?;
        let mut scratch = SimScratch::default();
        let mut correct = 0usize;
        for tile in samples.chunks(TILE) {
            let spec = RunSpec::new(
                tile.iter().map(|(x, _)| x).collect(),
                vec![self.cfg.act_seed; tile.len()],
            );
            let out = self.execute(&prepared, &spec, &mut scratch)?;
            correct += out
                .logits
                .iter()
                .zip(tile)
                .filter(|(logits, (_, label))| logits.argmax() == *label)
                .count();
        }
        Ok(correct as f64 / samples.len() as f64)
    }

    /// The step walker: executes `steps` for every image of the tile,
    /// recording what `observe` asks for into `out`.
    #[allow(clippy::too_many_arguments)]
    fn execute_steps(
        &self,
        steps: &[Step],
        mut xs: Vec<Tensor>,
        act_seeds: &[u32],
        observe: Observe,
        out: &mut RunOutput,
        scratch: &mut SimScratch,
        run: RunLen<'_>,
    ) -> Result<Vec<Tensor>, SimError> {
        for step in steps {
            let started = observe.timings.then(std::time::Instant::now);
            xs = match &step.op {
                StepOp::Conv(c) => self.exec_conv(c, &xs, act_seeds, scratch, run)?,
                StepOp::Dense(d) => self.exec_dense(d, &xs, act_seeds, scratch, run)?,
                StepOp::BinaryAvgPool(k) => xs
                    .iter()
                    .map(|x| binary_avg_pool(x, *k))
                    .collect::<Result<_, _>>()?,
                StepOp::MaxPool(k) => xs
                    .iter()
                    .map(|x| binary_max_pool(x, *k))
                    .collect::<Result<_, _>>()?,
                StepOp::Relu(hi) => {
                    // The counter/ReLU unit gates the sign and the unipolar
                    // representation caps at 1.0 regardless of the layer's
                    // own clamp setting.
                    let cap = hi.unwrap_or(1.0).min(1.0);
                    xs.into_iter()
                        .map(|x| x.map(|v| v.clamp(0.0, cap)))
                        .collect()
                }
                StepOp::Flatten => xs.iter().map(|x| x.to_flat()).collect(),
                StepOp::Residual(inner) => {
                    let skips = xs.clone();
                    let mut ys =
                        self.execute_steps(inner, xs, act_seeds, observe, out, scratch, run)?;
                    for (y, skip) in ys.iter_mut().zip(&skips) {
                        if y.shape() != skip.shape() {
                            return Err(SimError::UnsupportedLayer(format!(
                                "residual inner path changed shape {:?} -> {:?}",
                                skip.shape(),
                                y.shape()
                            )));
                        }
                        // Counter-domain addition of the skip path.
                        for (o, &s) in y.as_mut_slice().iter_mut().zip(skip.as_slice()) {
                            *o += s;
                        }
                    }
                    ys
                }
            };
            if let Some(start) = started {
                out.timings.push(StepTiming {
                    name: Arc::clone(&step.label),
                    nanos: start.elapsed().as_nanos(),
                });
            }
            for (trace, x) in out.traces.iter_mut().zip(&xs) {
                trace.push(LayerTrace {
                    name: step.label.to_string(),
                    output: x.clone(),
                });
            }
        }
        Ok(xs)
    }

    /// Generates activation streams for a whole layer input into a packed
    /// activation bank (see [`ActBank`]).
    ///
    /// Stream contents and gating are bit-identical to the historical
    /// per-segment `slice` layout: segment `e` of activation `j` holds bits
    /// `[e * seg_len, (e + 1) * seg_len)` of stream `j`, at bit offset
    /// `e * stride` of the activation's words, and a lane is gated (skipped
    /// by the MAC without consuming an OR-group slot) exactly when the old
    /// path stored `None` — `v <= 0` on the per-index-seed path, an
    /// all-zero generated stream on the shared-RNG path. When the stride is
    /// the segment length (every power-of-two `seg_len`), the packed words
    /// are the stream itself and the SNG writes them into the bank.
    #[allow(clippy::too_many_arguments)]
    fn fill_activation_bank(
        &self,
        values: &[f32],
        act_seed: u32,
        ordinal: usize,
        geom: &SegGeom,
        full: &mut Vec<u64>,
        thresholds: &mut Vec<u32>,
        acts: &mut ActBank,
    ) -> Result<(), SimError> {
        // With per-layer regeneration disabled, every layer draws the same
        // random sequences (ordinal dropped from the seed mix) — the §II-C
        // correlation ablation.
        let ordinal = if self.cfg.regenerate_streams {
            ordinal
        } else {
            0
        };
        let SegGeom {
            segments,
            seg_len,
            stride,
            ..
        } = *geom;
        let m = segments * seg_len;
        let full_words = m.div_ceil(64);
        acts.reset(values.len(), geom.act_words);
        let in_place = stride == seg_len;
        if self.cfg.shared_act_rng {
            // One LFSR shared by every activation SNG (hardware sharing):
            // a single walk of `m` cycles serves every comparator.
            let seed = mix_seed(act_seed, ordinal as u32, 0, 7);
            let mut bank = SngBank::new(SNG_WIDTH, seed)?;
            thresholds.clear();
            for &v in values {
                thresholds.push(quantize_probability(
                    f64::from(v.clamp(0.0, 1.0)),
                    SNG_WIDTH,
                )?);
            }
            if in_place {
                bank.fill_quantized(thresholds, m, &mut acts.words);
            } else {
                full.clear();
                full.resize(values.len() * full_words, 0);
                bank.fill_quantized(thresholds, m, full);
                for (idx, stream) in full.chunks_exact(full_words).enumerate() {
                    pack_segments(stream, segments, seg_len, stride, acts.act_mut(idx));
                }
            }
            for idx in 0..values.len() {
                if acts.act_mut(idx).iter().all(|&w| w == 0) {
                    acts.gate(idx);
                }
            }
        } else {
            full.clear();
            full.resize(full_words, 0);
            for (idx, &v) in values.iter().enumerate() {
                if v <= 0.0 {
                    acts.gate(idx);
                    continue;
                }
                let seed = mix_seed(act_seed, ordinal as u32, idx as u32, 3);
                let mut sng = Sng::new(Lfsr::maximal(SNG_WIDTH, seed)?, SNG_WIDTH);
                let threshold = quantize_probability(f64::from(v.min(1.0)), SNG_WIDTH)?;
                if in_place {
                    sng.fill_quantized(threshold, m, acts.act_mut(idx));
                } else {
                    sng.fill_quantized(threshold, m, full);
                    pack_segments(full, segments, seg_len, stride, acts.act_mut(idx));
                }
            }
        }
        Ok(())
    }

    /// Fills one activation bank per tile image (identical layouts, the
    /// image's own seed) and sizes the tiled MAC state.
    fn fill_tile_banks(
        &self,
        xs: &[Tensor],
        act_seeds: &[u32],
        ordinal: usize,
        geom: &SegGeom,
        scratch: &mut SimScratch,
    ) -> Result<(), SimError> {
        let tile = xs.len();
        if scratch.tile_acts.len() < tile {
            scratch.tile_acts.resize_with(tile, ActBank::default);
        }
        for (t, x) in xs.iter().enumerate() {
            self.fill_activation_bank(
                x.as_slice(),
                act_seeds[t],
                ordinal,
                geom,
                &mut scratch.full,
                &mut scratch.thresholds,
                &mut scratch.tile_acts[t],
            )?;
        }
        scratch.tile_accs.clear();
        scratch.tile_accs.resize(tile * geom.seg_words, 0);
        scratch.tile_in_group.clear();
        scratch.tile_in_group.resize(tile, 0);
        scratch.tile_sat.clear();
        scratch.tile_sat.resize(tile, false);
        scratch.tile_phase.clear();
        scratch.tile_phase.resize(tile, 0);
        scratch.tile_wgt.clear();
        scratch.tile_wgt.resize(geom.seg_words, 0);
        Ok(())
    }

    fn exec_conv(
        &self,
        c: &PreparedConv,
        xs: &[Tensor],
        act_seeds: &[u32],
        scratch: &mut SimScratch,
        run: RunLen<'_>,
    ) -> Result<Vec<Tensor>, SimError> {
        let weights = run.cycles.view(&c.codes);
        let shape = xs[0].shape();
        for x in xs {
            let s = x.shape();
            if s.len() != 3 || s[0] != c.in_c || s != shape {
                return Err(SimError::Nn(acoustic_nn::NnError::ShapeMismatch {
                    expected: vec![c.in_c, 0, 0],
                    actual: s.to_vec(),
                }));
            }
        }
        let (h, w) = (shape[1], shape[2]);
        let oh = (h + 2 * c.pad - c.k) / c.stride + 1;
        let ow = (w + 2 * c.pad - c.k) / c.stride + 1;
        let segments = c.segments();
        if let Some(pk) = c.pool {
            if !oh.is_multiple_of(pk) || !ow.is_multiple_of(pk) {
                return Err(SimError::UnsupportedLayer(format!(
                    "conv output {oh}x{ow} not divisible by fused pool window {pk}"
                )));
            }
        }
        let m = run.per_phase;
        let seg_words = (m / segments).div_ceil(64);
        let tile = xs.len();
        let geom = SegGeom::new(segments, seg_words, m / segments, self.or_group());
        self.fill_tile_banks(xs, act_seeds, c.ordinal, &geom, scratch)?;
        let single = geom.single_group();
        let fan_in = c.in_c * c.k * c.k;
        let (out_h, out_w) = match c.pool {
            Some(pk) => (oh / pk, ow / pk),
            None => (oh, ow),
        };
        let mut outs: Vec<Tensor> = (0..tile)
            .map(|_| Tensor::zeros(&[c.out_c, out_h, out_w]))
            .collect();

        let pool_k = c.pool.unwrap_or(1);
        let SimScratch {
            lanes,
            tile_acts,
            tile_accs,
            tile_in_group,
            tile_sat,
            tile_phase,
            tile_counts,
            tile_wgt,
            tile_weighted,
            stats,
            ..
        } = scratch;
        let banks = &tile_acts[..tile];
        for py in 0..out_h {
            for px in 0..out_w {
                tile_counts.clear();
                tile_counts.resize(tile * c.out_c, 0);
                #[allow(clippy::needless_range_loop)]
                for e in 0..segments {
                    let (oy, ox) = if c.pool.is_some() {
                        (py * pool_k + e / pool_k, px * pool_k + e % pool_k)
                    } else {
                        (py, px)
                    };
                    let (word, shift) = geom.locate(e);
                    let window = geom.sat_mask << shift;
                    lanes.clear();
                    for ic in 0..c.in_c {
                        for ky in 0..c.k {
                            let iy = (oy * c.stride + ky) as isize - c.pad as isize;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for kx in 0..c.k {
                                let ix = (ox * c.stride + kx) as isize - c.pad as isize;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                let a_idx = (ic * h + iy as usize) * w + ix as usize;
                                let seg_word = a_idx * geom.act_words + word;
                                let (live, nonzero) =
                                    lane_liveness(banks, a_idx, seg_word, seg_words, window);
                                if live == 0 || (single && !nonzero) {
                                    stats.zero_seg_skips += live;
                                    continue;
                                }
                                let w_base = (ic * c.k + ky) * c.k + kx;
                                lanes.push((seg_word, w_base));
                            }
                        }
                    }
                    for oc in 0..c.out_c {
                        kernels::mac_segment_tile(
                            run.kernel,
                            &geom,
                            banks,
                            weights,
                            lanes,
                            oc * fan_in,
                            e,
                            &mut TileState {
                                accs: &mut tile_accs[..tile * seg_words],
                                in_group: &mut tile_in_group[..tile],
                                sat: &mut tile_sat[..tile],
                                phase: &mut tile_phase[..tile],
                                wgt: &mut tile_wgt[..seg_words],
                                weighted: tile_weighted,
                            },
                            tile_counts,
                            c.out_c,
                            oc,
                            stats,
                        );
                    }
                }
                for (t, out) in outs.iter_mut().enumerate() {
                    for oc in 0..c.out_c {
                        out.set3(oc, py, px, tile_counts[t * c.out_c + oc] as f32 / m as f32);
                    }
                }
            }
        }
        Ok(outs)
    }

    fn exec_dense(
        &self,
        d: &PreparedDense,
        xs: &[Tensor],
        act_seeds: &[u32],
        scratch: &mut SimScratch,
        run: RunLen<'_>,
    ) -> Result<Vec<Tensor>, SimError> {
        for x in xs {
            if x.len() != d.in_n {
                return Err(SimError::Nn(acoustic_nn::NnError::ShapeMismatch {
                    expected: vec![d.in_n],
                    actual: x.shape().to_vec(),
                }));
            }
        }
        let weights = run.cycles.view(&d.codes);
        let m = run.per_phase;
        let seg_words = m.div_ceil(64);
        let tile = xs.len();
        let geom = SegGeom::new(1, seg_words, m, self.or_group());
        self.fill_tile_banks(xs, act_seeds, d.ordinal, &geom, scratch)?;
        let single = geom.single_group();
        let SimScratch {
            lanes,
            tile_acts,
            tile_accs,
            tile_in_group,
            tile_sat,
            tile_phase,
            tile_counts,
            tile_wgt,
            tile_weighted,
            stats,
            ..
        } = scratch;
        let banks = &tile_acts[..tile];
        lanes.clear();
        for i in 0..d.in_n {
            let word = i * geom.act_words;
            let (live, nonzero) = lane_liveness(banks, i, word, seg_words, geom.sat_mask);
            if live == 0 || (single && !nonzero) {
                stats.zero_seg_skips += live;
                continue;
            }
            lanes.push((word, i));
        }
        tile_counts.clear();
        tile_counts.resize(tile * d.out_n, 0);
        for o in 0..d.out_n {
            kernels::mac_segment_tile(
                run.kernel,
                &geom,
                banks,
                weights,
                lanes,
                o * d.in_n,
                0,
                &mut TileState {
                    accs: &mut tile_accs[..tile * seg_words],
                    in_group: &mut tile_in_group[..tile],
                    sat: &mut tile_sat[..tile],
                    phase: &mut tile_phase[..tile],
                    wgt: &mut tile_wgt[..seg_words],
                    weighted: tile_weighted,
                },
                tile_counts,
                d.out_n,
                o,
                stats,
            );
        }
        (0..tile)
            .map(|t| {
                let row: Vec<f32> = (0..d.out_n)
                    .map(|o| tile_counts[t * d.out_n + o] as f32 / m as f32)
                    .collect();
                Ok(Tensor::from_vec(&[d.out_n], row)?)
            })
            .collect()
    }
}

/// Whether a receptive-field lane can still change a MAC of the tile: how
/// many images have activation `a_idx` ungated, and whether any of them
/// has a nonzero segment (first word `word`, bits `window` of its last
/// word). A lane gated in every image consumes no OR-group slot anywhere;
/// with a single OR group, a lane that is gated or all-zero in every image
/// is a no-op too.
fn lane_liveness(
    banks: &[ActBank],
    a_idx: usize,
    word: usize,
    seg_words: usize,
    window: u64,
) -> (u64, bool) {
    let mut live = 0u64;
    let mut nonzero = false;
    for b in banks {
        if !b.is_gated(a_idx) {
            live += 1;
            nonzero = nonzero || !b.segment_is_zero(word, seg_words, window);
        }
    }
    (live, nonzero)
}

/// Packs a full stream's consecutive `seg_len`-bit segments into one
/// activation's bank words (zeroed on entry), segment `e` at bit offset
/// `e * stride`. Only needed when the stride is not the segment length.
fn pack_segments(full: &[u64], segments: usize, seg_len: usize, stride: usize, dst: &mut [u64]) {
    let seg_words = seg_len.div_ceil(64);
    for e in 0..segments {
        let bit = e * stride;
        let (word, shift) = (bit / 64, bit % 64);
        if seg_words == 1 {
            let mut one = [0u64];
            copy_bit_range(full, e * seg_len, seg_len, &mut one);
            dst[word] |= one[0] << shift;
        } else {
            copy_bit_range(full, e * seg_len, seg_len, &mut dst[word..word + seg_words]);
        }
    }
}

/// Binary-domain average pooling (used when computation skipping is off).
fn binary_avg_pool(x: &Tensor, k: usize) -> Result<Tensor, SimError> {
    let mut pool = acoustic_nn::layers::AvgPool2d::new(k)?;
    Ok(pool.forward(x)?)
}

/// Binary-domain max pooling.
fn binary_max_pool(x: &Tensor, k: usize) -> Result<Tensor, SimError> {
    let mut pool = acoustic_nn::layers::MaxPool2d::new(k)?;
    Ok(pool.forward(x)?)
}

/// Prepare-time weight coding of one model: the LFSR orbit's position
/// table, the weight quantizer, and the model's distinct weight thresholds
/// in first-sight order. Lives for one prepare; [`WeightCoder::into_cycles`]
/// turns the thresholds into the model's cycles and drops the orbit.
struct WeightCoder {
    orbit: LfsrOrbit,
    wq: Quantizer,
    wgt_seed: u32,
    /// Longest stream a cycle serves (per phase).
    per_phase: usize,
    /// Bits per cycle ([`LfsrOrbit::cycle_words`]).
    cycle_bits: usize,
    /// Per quantizer code: the lane code of orbit position 0
    /// ([`ZERO_CODE`] for a zero weight), or `None` before first sight.
    classes: Vec<Option<u32>>,
    thresholds: Vec<u32>,
}

impl WeightCoder {
    fn new(wgt_seed: u32, per_phase: usize) -> Result<Self, SimError> {
        let wq = Quantizer::signed_unit(QUANT_BITS)?;
        let orbit = LfsrOrbit::maximal(SNG_WIDTH)?;
        Ok(WeightCoder {
            cycle_bits: orbit.cycle_words(per_phase) * 64,
            orbit,
            classes: vec![None; wq.levels() as usize],
            wq,
            wgt_seed,
            per_phase,
            thresholds: Vec::new(),
        })
    }

    /// The phase and cycle of quantizer code `q`, as the lane code of
    /// orbit position 0. The code fully determines the quantized weight
    /// (`quantize_value` = `decode ∘ encode`), hence its sign and
    /// comparator threshold, so this runs once per code, not per lane.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] when the stream length makes the
    /// cycles too long for every stream start to fit a code.
    fn class(&mut self, q: u32) -> Result<u32, SimError> {
        if let Some(c) = self.classes[q as usize] {
            return Ok(c);
        }
        let v = self.wq.decode(q);
        let c = if v == 0.0 {
            ZERO_CODE
        } else {
            let t = quantize_probability(f64::from(v.abs()), SNG_WIDTH)?;
            let k = match self.thresholds.iter().position(|&x| x == t) {
                Some(k) => k,
                None => {
                    self.thresholds.push(t);
                    self.thresholds.len() - 1
                }
            };
            let start = k * self.cycle_bits;
            if start + self.cycle_bits > LIVE_BOUND as usize {
                return Err(SimError::InvalidConfig(format!(
                    "per-phase length {} makes {} weight cycles too long for 31-bit \
                     stream codes",
                    self.per_phase,
                    k + 1
                )));
            }
            start as u32 | if v < 0.0 { NEG_PHASE } else { 0 }
        };
        self.classes[q as usize] = Some(c);
        Ok(c)
    }

    /// One code per weight of MAC layer `ordinal`. Weight `j`'s stream is
    /// the SNG stream of seed `mix_seed(wgt_seed, ordinal, j, phase)`, so
    /// its code holds that seed's orbit position.
    fn codes(&mut self, weights: &[f32], ordinal: usize) -> Result<Vec<u32>, SimError> {
        let mut codes = Vec::with_capacity(weights.len());
        for (j, &w) in weights.iter().enumerate() {
            let class = self.class(self.wq.encode(w))?;
            if class == ZERO_CODE {
                codes.push(ZERO_CODE);
                continue;
            }
            let negative = class & NEG_PHASE != 0;
            let seed = mix_seed(self.wgt_seed, ordinal as u32, j as u32, u32::from(negative));
            // The position is below the cycle's length, so the sum stays
            // inside the cycle and below the phase bit.
            codes.push(class + self.orbit.position(seed)? as u32);
        }
        Ok(codes)
    }

    /// The model's weight cycles.
    fn into_cycles(self) -> WeightCycles {
        WeightCycles {
            words: self.orbit.cycles(&self.thresholds, self.per_phase),
            thresholds: self.thresholds,
        }
    }
}

/// Mixes seed components into a non-zero 16-bit LFSR seed.
fn mix_seed(base: u32, a: u32, b: u32, c: u32) -> u32 {
    let mut s = base
        .wrapping_add(a.wrapping_mul(0x9E3779B9))
        .wrapping_add(b.wrapping_mul(0x85EBCA6B))
        .wrapping_add(c.wrapping_mul(0xC2B2AE35));
    s ^= s >> 16;
    s = s.wrapping_mul(0x45D9F3B);
    s ^= s >> 13;
    s &= 0xFFFF;
    if s == 0 {
        0x5EED
    } else {
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acoustic_nn::layers::{AccumMode, AvgPool2d, Conv2d, Dense, Network, Relu};

    fn cfg(n: usize) -> SimConfig {
        SimConfig::with_stream_len(n).unwrap()
    }

    /// One image at the simulator's seed, at `stream_len`.
    fn run_at(
        sim: &ScSimulator,
        prepared: &PreparedNetwork,
        input: &Tensor,
        stream_len: Option<usize>,
    ) -> Result<Tensor, SimError> {
        let spec = RunSpec {
            stream_len,
            ..RunSpec::one(input, sim.cfg.act_seed)
        };
        let mut out = sim.execute(prepared, &spec, &mut SimScratch::default())?;
        Ok(out.logits.remove(0))
    }

    #[test]
    fn mix_seed_is_nonzero_and_spread() {
        let mut seen = std::collections::HashSet::new();
        for a in 0..20 {
            for b in 0..20 {
                let s = mix_seed(0xACE1, a, b, 3);
                assert!(s != 0 && s <= 0xFFFF);
                seen.insert(s);
            }
        }
        assert!(seen.len() > 300, "seeds collide too much: {}", seen.len());
    }

    #[test]
    fn shared_bank_matches_old_slice_path() {
        let mut c = cfg(128);
        c.shared_act_rng = true;
        let sim = ScSimulator::new(c);
        let values: Vec<f32> = (0..25).map(|i| i as f32 / 24.0 - 0.2).collect();
        let segments = 4;
        let mut scratch = SimScratch::default();
        let mut acts = ActBank::default();
        let m = sim.cfg.per_phase_len();
        let seg_len = m / segments;
        let g = SegGeom::new(segments, seg_len.div_ceil(64), seg_len, usize::MAX);
        sim.fill_activation_bank(
            &values,
            sim.cfg.act_seed,
            2,
            &g,
            &mut scratch.full,
            &mut scratch.thresholds,
            &mut acts,
        )
        .unwrap();
        let seed = mix_seed(sim.cfg.act_seed, 2, 0, 7);
        let mut bank = SngBank::new(16, seed).unwrap();
        let vals: Vec<f64> = values
            .iter()
            .map(|&v| f64::from(v.clamp(0.0, 1.0)))
            .collect();
        let streams = bank.generate_many(&vals, m).unwrap();
        for (idx, s) in streams.iter().enumerate() {
            if s.count_ones() == 0 {
                assert!(acts.is_gated(idx), "idx {idx} should be gated");
                continue;
            }
            assert!(!acts.is_gated(idx), "idx {idx} wrongly gated");
            for e in 0..segments {
                let old = s.slice(e * seg_len, seg_len);
                let (words, _) = read_segment(&acts, &g, idx, e);
                assert_eq!(words, old.as_words(), "idx {idx} seg {e}");
            }
        }
    }

    /// Segment `e` of activation `idx` as the kernels address it — its
    /// words in the packed bank, moved down to bit 0 — and whether the
    /// kernels' zero test calls it zero.
    fn read_segment(acts: &ActBank, g: &SegGeom, idx: usize, e: usize) -> (Vec<u64>, bool) {
        assert_eq!(acts.act_words, g.act_words);
        let (word, shift) = g.locate(e);
        let first = idx * g.act_words + word;
        let mut words = acts.words[first..first + g.seg_words].to_vec();
        if g.seg_words == 1 {
            words[0] = (words[0] >> shift) & g.sat_mask;
        }
        let zero = acts.segment_is_zero(first, g.seg_words, g.sat_mask << shift);
        (words, zero)
    }

    #[test]
    fn packed_bank_segments_equal_stream_slices() {
        let mut rng = acoustic_core::DetRng::seed_from_u64(0x9AC4_ED00);
        let full_scale = (1u32 << SNG_WIDTH) - 1;
        // Values quantizing to thresholds 0, 1, full-scale − 1 and full
        // scale, one gated value, then random ones.
        let edges = [0, 1, full_scale - 1, full_scale].map(|t| t as f32 / full_scale as f32);
        // One bank and staging buffer for every case: each fill must reset
        // what the previous, differently shaped fill left behind.
        let mut acts = ActBank::default();
        let mut scratch = SimScratch::default();
        for shared_act_rng in [false, true] {
            let sim = ScSimulator::new(SimConfig {
                shared_act_rng,
                ..cfg(128)
            });
            for segments in [1usize, 4, 9] {
                // Power-of-two, non-power-of-two and multi-word lengths.
                for seg_len in [8usize, 16, 64, 12, 24, 96, 128] {
                    let m = segments * seg_len;
                    let mut values = edges.to_vec();
                    values.push(-0.25);
                    values.extend((0..24).map(|_| rng.gen_range_f32(0.0, 1.0)));
                    let act_seed = rng.next_u32();
                    let ordinal = (rng.next_u32() % 16) as usize;
                    let g = SegGeom::new(segments, seg_len.div_ceil(64), seg_len, usize::MAX);
                    sim.fill_activation_bank(
                        &values,
                        act_seed,
                        ordinal,
                        &g,
                        &mut scratch.full,
                        &mut scratch.thresholds,
                        &mut acts,
                    )
                    .unwrap();
                    // Reference: each full stream from its own SNG walk.
                    let words = m.div_ceil(64);
                    let mut full = vec![0u64; values.len() * words];
                    let thresholds: Vec<u32> = values
                        .iter()
                        .map(|&v| {
                            quantize_probability(f64::from(v.clamp(0.0, 1.0)), SNG_WIDTH).unwrap()
                        })
                        .collect();
                    if shared_act_rng {
                        let seed = mix_seed(act_seed, ordinal as u32, 0, 7);
                        SngBank::new(SNG_WIDTH, seed).unwrap().fill_quantized(
                            &thresholds,
                            m,
                            &mut full,
                        );
                    } else {
                        for (idx, stream) in full.chunks_exact_mut(words).enumerate() {
                            let seed = mix_seed(act_seed, ordinal as u32, idx as u32, 3);
                            let lfsr = Lfsr::maximal(SNG_WIDTH, seed).unwrap();
                            Sng::new(lfsr, SNG_WIDTH).fill_quantized(thresholds[idx], m, stream);
                        }
                    }
                    for (idx, stream) in full.chunks_exact(words).enumerate() {
                        let gated = if shared_act_rng {
                            stream.iter().all(|&w| w == 0)
                        } else {
                            values[idx] <= 0.0
                        };
                        let case = format!(
                            "shared={shared_act_rng} segments={segments} seg_len={seg_len} idx={idx}"
                        );
                        assert_eq!(acts.is_gated(idx), gated, "{case}");
                        for e in 0..segments {
                            let mut want = vec![0u64; g.seg_words];
                            if !gated {
                                copy_bit_range(stream, e * seg_len, seg_len, &mut want);
                            }
                            let (got, zero) = read_segment(&acts, &g, idx, e);
                            assert_eq!(got, want, "{case} segment {e}");
                            assert_eq!(zero, want.iter().all(|&w| w == 0), "{case} segment {e}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn cifar_shaped_tile_keeps_packed_banks_small() {
        // CIFAR's first conv at stream 64: 3×32×32 inputs, 32 channels of
        // 3×3 with a fused 2×2 pool, so 4 segments of 8 bits per phase.
        let mut net = Network::new();
        let mut conv = Conv2d::new(3, 32, 3, 1, 1, AccumMode::OrApprox).unwrap();
        for (i, w) in conv.weights_mut().iter_mut().enumerate() {
            *w = if i % 7 == 0 { 0.4 } else { 0.0 };
        }
        net.push_conv(conv);
        net.push_avg_pool(AvgPool2d::new(2).unwrap());
        let sim = ScSimulator::new(cfg(64));
        let prepared = sim.prepare(&net).unwrap();
        let images: Vec<Tensor> = (0..TILE)
            .map(|i| {
                let v = (0..3 * 32 * 32)
                    .map(|j| ((i + j) % 97) as f32 / 96.0)
                    .collect();
                Tensor::from_vec(&[3, 32, 32], v).unwrap()
            })
            .collect();
        let seeds = (0..TILE as u32).map(|i| 0xACE1 + i).collect();
        let spec = RunSpec::new(images.iter().collect(), seeds);
        let mut scratch = SimScratch::default();
        sim.execute(&prepared, &spec, &mut scratch).unwrap();
        // The segment-per-word layout: streams · segments · seg_words words.
        let old_banks = TILE * (3 * 32 * 32) * 4 * 8;
        let resident = scratch.resident_bytes();
        assert!(
            3 * resident <= old_banks,
            "scratch holds {resident} bytes, over a third of the old banks' {old_banks}"
        );
    }

    #[test]
    fn dense_identity_passes_value() {
        // One weight of +1.0: output ≈ input value.
        let mut net = Network::new();
        let mut fc = Dense::new(1, 1, AccumMode::Linear).unwrap();
        fc.weights_mut()[0] = 1.0;
        net.push_dense(fc);
        let sim = ScSimulator::new(cfg(2048));
        let out = sim
            .run(&net, &Tensor::from_vec(&[1], vec![0.5]).unwrap())
            .unwrap();
        assert!(
            (out.as_slice()[0] - 0.5).abs() < 0.05,
            "{}",
            out.as_slice()[0]
        );
    }

    #[test]
    fn dense_negative_weight_subtracts() {
        let mut net = Network::new();
        let mut fc = Dense::new(2, 1, AccumMode::Linear).unwrap();
        fc.weights_mut().copy_from_slice(&[0.8, -0.5]);
        net.push_dense(fc);
        let sim = ScSimulator::new(cfg(4096));
        let out = sim
            .run(&net, &Tensor::from_vec(&[2], vec![0.5, 0.6]).unwrap())
            .unwrap();
        // ideal: 0.4 - 0.3 = 0.1 (OR is exact for single products per sign)
        assert!(
            (out.as_slice()[0] - 0.1).abs() < 0.05,
            "{}",
            out.as_slice()[0]
        );
    }

    #[test]
    fn conv_matches_or_expectation() {
        let mut net = Network::new();
        let mut conv = Conv2d::new(1, 1, 2, 1, 0, AccumMode::OrExact).unwrap();
        conv.weights_mut().copy_from_slice(&[0.5, 0.5, 0.5, 0.5]);
        net.push_conv(conv.clone());
        let input = Tensor::from_vec(&[1, 2, 2], vec![0.5; 4]).unwrap();
        let sim = ScSimulator::new(cfg(4096));
        let sc_out = sim.run(&net, &input).unwrap();
        // Exact OR expectation: 1 - (1 - 0.25)^4 = 0.6836
        let expect = 1.0 - 0.75f32.powi(4);
        assert!(
            (sc_out.as_slice()[0] - expect).abs() < 0.05,
            "sc {} vs expected {expect}",
            sc_out.as_slice()[0]
        );
    }

    #[test]
    fn skip_pooling_matches_binary_pooling_in_expectation() {
        let mut net = Network::new();
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, AccumMode::Linear).unwrap();
        conv.weights_mut()[0] = 1.0;
        net.push_conv(conv);
        net.push_avg_pool(AvgPool2d::new(2).unwrap());
        let input = Tensor::from_vec(&[1, 2, 2], vec![0.8, 0.4, 0.2, 0.6]).unwrap();

        let mut skip_cfg = cfg(4096);
        skip_cfg.skip_pooling = true;
        let skip_out = ScSimulator::new(skip_cfg).run(&net, &input).unwrap();
        assert_eq!(skip_out.shape(), &[1, 1, 1]);

        let mut plain_cfg = cfg(4096);
        plain_cfg.skip_pooling = false;
        let plain_out = ScSimulator::new(plain_cfg).run(&net, &input).unwrap();

        // Both approximate mean = 0.5.
        assert!((skip_out.as_slice()[0] - 0.5).abs() < 0.05);
        assert!((plain_out.as_slice()[0] - 0.5).abs() < 0.05);
    }

    #[test]
    fn relu_clamps_negative_outputs() {
        let mut net = Network::new();
        let mut fc = Dense::new(1, 1, AccumMode::Linear).unwrap();
        fc.weights_mut()[0] = -1.0;
        net.push_dense(fc);
        net.push_relu(Relu::clamped());
        let sim = ScSimulator::new(cfg(1024));
        let out = sim
            .run(&net, &Tensor::from_vec(&[1], vec![0.9]).unwrap())
            .unwrap();
        assert_eq!(out.as_slice()[0], 0.0);
    }

    #[test]
    fn traced_run_records_steps() {
        let mut net = Network::new();
        net.push_conv(Conv2d::new(1, 2, 3, 1, 1, AccumMode::OrApprox).unwrap());
        net.push_relu(Relu::clamped());
        net.push_flatten();
        net.push_dense(Dense::new(2 * 4 * 4, 3, AccumMode::OrApprox).unwrap());
        let sim = ScSimulator::new(cfg(128));
        let trace = sim.run_traced(&net, &Tensor::zeros(&[1, 4, 4])).unwrap();
        let names: Vec<&str> = trace.layers.iter().map(|l| l.name.as_str()).collect();
        assert_eq!(names, vec!["conv0", "relu", "flatten", "dense1"]);
        assert_eq!(trace.logits.shape(), &[3]);
    }

    #[test]
    fn indivisible_pool_window_is_rejected() {
        let mut net = Network::new();
        net.push_conv(Conv2d::new(1, 1, 3, 1, 1, AccumMode::OrApprox).unwrap());
        net.push_avg_pool(AvgPool2d::new(3).unwrap()); // 9 segments
        let sim = ScSimulator::new(cfg(128)); // 64 per phase; 64 % 9 != 0
        assert!(matches!(
            sim.prepare(&net),
            Err(SimError::UnsupportedLayer(_))
        ));
    }

    #[test]
    fn longer_streams_reduce_error() {
        let mut net = Network::new();
        let mut fc = Dense::new(4, 1, AccumMode::Linear).unwrap();
        fc.weights_mut().copy_from_slice(&[0.3, 0.3, -0.2, 0.1]);
        net.push_dense(fc);
        let input = Tensor::from_vec(&[4], vec![0.5, 0.25, 0.75, 0.6]).unwrap();
        // OR with one group: expected = or(pos products) - or(neg products)
        let pos = 1.0 - (1.0 - 0.15) * (1.0 - 0.075) * (1.0 - 0.06);
        let neg = 0.15;
        let expect = (pos - neg) as f32;

        let mut errs = Vec::new();
        for n in [64usize, 256, 2048] {
            let sim = ScSimulator::new(cfg(n));
            let out = sim.run(&net, &input).unwrap();
            errs.push((out.as_slice()[0] - expect).abs());
        }
        assert!(errs[2] <= errs[0] + 0.02, "error did not shrink: {errs:?}");
        assert!(errs[2] < 0.05, "long-stream error too large: {errs:?}");
    }

    #[test]
    fn or_grouping_changes_result_for_wide_fanin() {
        // With 96-wide groups vs one global OR, wide accumulations differ.
        let mut net = Network::new();
        let mut fc = Dense::new(200, 1, AccumMode::Linear).unwrap();
        for w in fc.weights_mut() {
            *w = 0.4;
        }
        net.push_dense(fc);
        let input = Tensor::from_vec(&[200], vec![0.4; 200]).unwrap();
        let mut grouped_cfg = cfg(4096);
        grouped_cfg.or_group = Some(96);
        let grouped = ScSimulator::new(grouped_cfg).run(&net, &input).unwrap();
        let global = ScSimulator::new(cfg(4096)).run(&net, &input).unwrap();
        // Global OR saturates at <=1; grouped sums three saturating groups.
        assert!(global.as_slice()[0] <= 1.01);
        assert!(grouped.as_slice()[0] > 1.5);
    }

    #[test]
    fn shared_rng_correlates_activations() {
        let mut c = cfg(1024);
        c.shared_act_rng = true;
        let sim = ScSimulator::new(c);
        // Two activations of 0.5 with +0.5/-0.5 weights: with shared RNG the
        // streams are identical, so products cancel almost exactly.
        let mut net = Network::new();
        let mut fc = Dense::new(2, 1, AccumMode::Linear).unwrap();
        fc.weights_mut().copy_from_slice(&[0.5, -0.5]);
        net.push_dense(fc);
        let out = sim
            .run(&net, &Tensor::from_vec(&[2], vec![0.5, 0.5]).unwrap())
            .unwrap();
        assert!(out.as_slice()[0].abs() < 0.1);
    }

    #[test]
    fn evaluate_rejects_empty_set() {
        let net = Network::new();
        let sim = ScSimulator::new(cfg(128));
        assert!(sim.evaluate(&net, &[]).is_err());
    }

    fn digit_like_net() -> Network {
        let mut net = Network::new();
        net.push_conv(Conv2d::new(1, 2, 3, 1, 1, AccumMode::OrApprox).unwrap());
        net.push_avg_pool(AvgPool2d::new(2).unwrap());
        net.push_relu(Relu::clamped());
        net.push_flatten();
        net.push_dense(Dense::new(2 * 4 * 4, 3, AccumMode::OrApprox).unwrap());
        net
    }

    fn ramp_input() -> Tensor {
        let vals: Vec<f32> = (0..64).map(|i| i as f32 / 64.0).collect();
        Tensor::from_vec(&[1, 8, 8], vals).unwrap()
    }

    #[test]
    fn execute_is_bit_identical_to_run() {
        // The prepare-once path must not change a single output bit
        // relative to the prepare-per-call wrapper.
        let net = digit_like_net();
        let input = ramp_input();
        let sim = ScSimulator::new(cfg(256));
        let prepared = sim.prepare(&net).unwrap();
        let via_run = sim.run(&net, &input).unwrap();
        let via_prepared = run_at(&sim, &prepared, &input, None).unwrap();
        assert_eq!(via_run, via_prepared);
        // Reusing the same prepared network is also stable.
        assert_eq!(via_prepared, run_at(&sim, &prepared, &input, None).unwrap());
    }

    #[test]
    fn supported_lengths_halve_until_segmentation_breaks() {
        // Fused 2x2 pool -> 4 segments: halving stops when the per-phase
        // length would no longer divide by 4.
        let net = digit_like_net();
        let sim = ScSimulator::new(cfg(256));
        let prepared = sim.prepare(&net).unwrap();
        assert_eq!(prepared.max_stream_len(), 256);
        assert_eq!(prepared.supported_lengths(), &[256, 128, 64, 32, 16, 8]);

        // Dense-only network: halving continues down to 2-bit streams.
        let mut dense_net = Network::new();
        dense_net.push_dense(Dense::new(4, 2, AccumMode::OrApprox).unwrap());
        let prepared = sim.prepare(&dense_net).unwrap();
        assert_eq!(
            prepared.supported_lengths(),
            &[256, 128, 64, 32, 16, 8, 4, 2]
        );
    }

    #[test]
    fn max_length_prefix_is_bit_identical_to_full_run() {
        let net = digit_like_net();
        let input = ramp_input();
        let sim = ScSimulator::new(cfg(256));
        let prepared = sim.prepare(&net).unwrap();
        let full = run_at(&sim, &prepared, &input, None).unwrap();
        let at_max = run_at(&sim, &prepared, &input, Some(256)).unwrap();
        assert_eq!(full, at_max);
    }

    #[test]
    fn unsupported_prefix_lengths_are_rejected() {
        let net = digit_like_net();
        let input = ramp_input();
        let sim = ScSimulator::new(cfg(256));
        let prepared = sim.prepare(&net).unwrap();
        for bad in [512usize, 96, 4, 0] {
            assert!(
                matches!(
                    run_at(&sim, &prepared, &input, Some(bad)),
                    Err(SimError::InvalidConfig(_))
                ),
                "length {bad} should be rejected"
            );
        }
    }

    #[test]
    fn shorter_prefix_matches_directly_prepared_network() {
        let net = digit_like_net();
        let input = ramp_input();
        let sim = ScSimulator::new(cfg(256));
        let prepared = sim.prepare(&net).unwrap();
        for &len in prepared.supported_lengths() {
            let via_prefix = run_at(&sim, &prepared, &input, Some(len)).unwrap();
            let direct = ScSimulator::new(cfg(len)).run(&net, &input).unwrap();
            assert_eq!(via_prefix, direct, "prefix diverged at length {len}");
        }
    }

    fn three_inputs() -> (Vec<Tensor>, Vec<u32>) {
        let inputs = (0..3)
            .map(|t| {
                let vals: Vec<f32> = (0..64).map(|i| ((i + 7 * t) % 64) as f32 / 64.0).collect();
                Tensor::from_vec(&[1, 8, 8], vals).unwrap()
            })
            .collect();
        (inputs, (0..3).map(|t| 0xACE1 + 17 * t).collect())
    }

    #[test]
    fn tiled_run_matches_tiles_of_one() {
        let net = digit_like_net();
        let sim = ScSimulator::new(cfg(128));
        let prepared = sim.prepare(&net).unwrap();
        let (inputs, seeds) = three_inputs();
        let mut scratch = SimScratch::default();
        let solo: Vec<Tensor> = inputs
            .iter()
            .zip(&seeds)
            .map(|(x, &s)| {
                let mut c = cfg(128);
                c.act_seed = s;
                run_at(&ScSimulator::new(c), &prepared, x, None).unwrap()
            })
            .collect();
        let spec = RunSpec::new(inputs.iter().collect(), seeds);
        let tiled = sim.execute(&prepared, &spec, &mut scratch).unwrap();
        assert_eq!(solo, tiled.logits);
    }

    #[test]
    fn tiled_run_rejects_bad_tiles() {
        let net = digit_like_net();
        let sim = ScSimulator::new(cfg(128));
        let prepared = sim.prepare(&net).unwrap();
        let input = ramp_input();
        let mut scratch = SimScratch::default();
        assert!(matches!(
            sim.execute(&prepared, &RunSpec::new(vec![], vec![]), &mut scratch),
            Err(SimError::InvalidConfig(_))
        ));
        assert!(matches!(
            sim.execute(
                &prepared,
                &RunSpec::new(vec![&input], vec![1, 2]),
                &mut scratch
            ),
            Err(SimError::InvalidConfig(_))
        ));
    }

    #[test]
    fn observed_run_matches_unobserved_and_labels_steps() {
        let net = digit_like_net();
        let sim = ScSimulator::new(cfg(128));
        let prepared = sim.prepare(&net).unwrap();
        let (inputs, seeds) = three_inputs();
        let mut scratch = SimScratch::default();
        let plain = RunSpec::new(inputs.iter().collect(), seeds.clone());
        let observed = RunSpec {
            observe: Observe {
                timings: true,
                traces: true,
            },
            ..plain.clone()
        };
        let a = sim.execute(&prepared, &plain, &mut scratch).unwrap();
        let b = sim.execute(&prepared, &observed, &mut scratch).unwrap();
        assert_eq!(a.logits, b.logits);
        assert!(a.timings.is_empty() && a.traces.is_empty());
        let names: Vec<String> = b.timings.iter().map(|t| t.name.to_string()).collect();
        assert_eq!(names, prepared.step_names());
        assert_eq!(prepared.step_count(), 4);
        // Each input's trace is its own run's trace.
        for (t, (x, &s)) in inputs.iter().zip(&seeds).enumerate() {
            let mut c = cfg(128);
            c.act_seed = s;
            let alone = ScSimulator::new(c).run_traced(&net, x).unwrap();
            let got: Vec<(&str, &Tensor)> = b.traces[t]
                .iter()
                .map(|l| (l.name.as_str(), &l.output))
                .collect();
            let want: Vec<(&str, &Tensor)> = alone
                .layers
                .iter()
                .map(|l| (l.name.as_str(), &l.output))
                .collect();
            assert_eq!(got, want, "trace of input {t}");
        }
    }
}

#[cfg(test)]
mod residual_tests {
    use super::*;
    use crate::SimConfig;
    use acoustic_nn::layers::{AccumMode, AvgPool2d, Conv2d, Dense, Network, Relu};

    fn cfg(n: usize) -> SimConfig {
        SimConfig::with_stream_len(n).unwrap()
    }

    #[test]
    fn residual_with_dead_inner_is_identity() {
        let mut inner = Network::new();
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, AccumMode::OrApprox).unwrap();
        conv.weights_mut().iter_mut().for_each(|w| *w = 0.0);
        inner.push_conv(conv);
        let mut net = Network::new();
        net.push_residual(inner);

        let input = Tensor::from_vec(&[1, 2, 2], vec![0.25, 0.5, 0.75, 1.0]).unwrap();
        let sim = ScSimulator::new(cfg(256));
        let out = sim.run(&net, &input).unwrap();
        // Zero inner weights: the skip path alone survives, exactly, up to
        // the 8-bit input quantization the datapath always applies.
        let q = Quantizer::unsigned_unit(8).unwrap();
        for (o, &i) in out.as_slice().iter().zip(input.as_slice()) {
            let expect = q.quantize_value(i);
            assert!((o - expect).abs() < 1e-6, "{o} vs {expect}");
        }
    }

    #[test]
    fn residual_adds_inner_contribution() {
        let mut inner = Network::new();
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, AccumMode::OrApprox).unwrap();
        conv.weights_mut()[0] = 0.5;
        inner.push_conv(conv);
        let mut net = Network::new();
        net.push_residual(inner);
        net.push_relu(Relu::clamped());

        let input = Tensor::from_vec(&[1, 1, 1], vec![0.4]).unwrap();
        let sim = ScSimulator::new(cfg(4096));
        let out = sim.run(&net, &input).unwrap();
        // inner ≈ 1 - e^{-0.2} ≈ 0.181 in OR-value terms; SC decodes the
        // single product exactly as 0.2. Skip adds 0.4 → ~0.6, clamped ≤1.
        assert!(
            (out.as_slice()[0] - 0.6).abs() < 0.06,
            "{}",
            out.as_slice()[0]
        );
    }

    #[test]
    fn residual_trace_includes_inner_steps() {
        let mut inner = Network::new();
        inner.push_conv(Conv2d::new(1, 1, 3, 1, 1, AccumMode::OrApprox).unwrap());
        let mut net = Network::new();
        net.push_residual(inner);
        let sim = ScSimulator::new(cfg(128));
        let trace = sim.run_traced(&net, &Tensor::zeros(&[1, 4, 4])).unwrap();
        let names: Vec<&str> = trace.layers.iter().map(|l| l.name.as_str()).collect();
        assert_eq!(names, vec!["conv0", "residual"]);
    }

    #[test]
    fn shape_changing_residual_rejected() {
        let mut inner = Network::new();
        inner.push_conv(Conv2d::new(1, 2, 3, 1, 1, AccumMode::OrApprox).unwrap());
        let mut net = Network::new();
        net.push_residual(inner);
        let sim = ScSimulator::new(cfg(128));
        assert!(sim.run(&net, &Tensor::zeros(&[1, 4, 4])).is_err());
    }

    #[test]
    fn ordinals_are_unique_across_residual_boundaries() {
        // Two convs (one inside a residual) must draw distinct weight
        // streams — verified by distinct trace names.
        let mut inner = Network::new();
        inner.push_conv(Conv2d::new(1, 1, 3, 1, 1, AccumMode::OrApprox).unwrap());
        let mut net = Network::new();
        net.push_conv(Conv2d::new(1, 1, 3, 1, 1, AccumMode::OrApprox).unwrap());
        net.push_residual(inner);
        let sim = ScSimulator::new(cfg(128));
        let trace = sim.run_traced(&net, &Tensor::zeros(&[1, 4, 4])).unwrap();
        let names: Vec<&str> = trace.layers.iter().map(|l| l.name.as_str()).collect();
        assert_eq!(names, vec!["conv0", "conv1", "residual"]);
    }

    /// A network with thousands of weight lanes in both phases: the dense
    /// layer alone has 256 × 96 = 24 576.
    fn wide_network() -> Network {
        let mut net = Network::new();
        net.push_conv(Conv2d::new(1, 4, 3, 1, 1, AccumMode::OrApprox).unwrap());
        net.push_avg_pool(AvgPool2d::new(2).unwrap());
        net.push_relu(Relu::clamped());
        net.push_flatten();
        net.push_dense(Dense::new(4 * 8 * 8, 96, AccumMode::OrApprox).unwrap());
        net
    }

    #[test]
    fn prepare_is_deterministic_and_accounts_codes_and_cycles() {
        let net = wide_network();
        let sim = ScSimulator::new(cfg(128));
        let a = sim.prepare(&net).unwrap();
        let b = sim.prepare(&net).unwrap();
        assert_eq!(a.content_digest(), b.content_digest());
        let stats = a.dedup_stats();
        assert_eq!(stats, b.dedup_stats());
        assert_eq!(stats.lanes, 4 * 9 + 256 * 96);
        assert_eq!(stats.index_bytes, 4 * stats.lanes);
        assert_eq!(
            stats.pool_bytes,
            stats.distinct_streams * 8 * ((65_535 + 64usize).div_ceil(64) + 1) as u64
        );
        assert_eq!(stats.resident_bytes, stats.pool_bytes + stats.index_bytes);
        assert_eq!(a.approx_bytes() as u64, stats.resident_bytes);
    }

    #[test]
    fn prefix_levels_match_direct_prepare() {
        // Every prefix level must equal a direct prepare at that shorter
        // length.
        let net = wide_network();
        let sim = ScSimulator::new(cfg(256));
        let wide = sim.prepare(&net).unwrap();
        let input = Tensor::from_vec(
            &[1, 16, 16],
            (0..256).map(|i| (i % 11) as f32 / 11.0).collect(),
        )
        .unwrap();
        for &len in wide.supported_lengths() {
            let direct = ScSimulator::new(cfg(len)).run(&net, &input).unwrap();
            let spec = RunSpec {
                stream_len: Some(len),
                ..RunSpec::one(&input, sim.cfg.act_seed)
            };
            let at = sim
                .execute(&wide, &spec, &mut SimScratch::default())
                .unwrap()
                .logits
                .remove(0);
            assert_eq!(direct.as_slice(), at.as_slice(), "prefix {len} differs");
        }
    }

    #[test]
    fn content_digest_distinguishes_different_banks() {
        let net = wide_network();
        let a = ScSimulator::new(cfg(128)).prepare(&net).unwrap();
        let b = ScSimulator::new(cfg(256)).prepare(&net).unwrap();
        assert_ne!(a.content_digest(), b.content_digest());
        let mut c = cfg(128);
        c.wgt_seed ^= 1;
        let d = ScSimulator::new(c).prepare(&net).unwrap();
        assert_ne!(a.content_digest(), d.content_digest());
    }
}
