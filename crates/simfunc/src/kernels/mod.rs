//! MAC kernels: the portable scalar kernel and one AVX-512 tile block.
//!
//! Every kernel computes the same function — one split-unipolar MAC phase
//! over a pooling segment: AND each activation lane against its weight
//! stream, OR the products into group accumulators, popcount at group
//! boundaries — and every kernel is bit-identical to the portable scalar
//! reference (test-enforced by `tests/kernel_equivalence.rs`).
//!
//! Two paper-faithful skip optimizations apply to *all* kernels:
//!
//! * **OR-saturation short-circuit** — OR is idempotent and monotone, so
//!   once a group's accumulator reaches all-ones (every in-segment bit set),
//!   no further merge can change it and the group's final popcount is
//!   already known to be `seg_len`. Remaining lanes in the group skip their
//!   word work; with the whole fan-in in one group (`or_group: None`, the
//!   ACOUSTIC fabric default) the lane loop exits outright.
//! * **Zero-segment skipping** — a segment whose activation words are all
//!   zero AND-multiplies to zero against any weight, so its merge is a
//!   no-op. [`ActBank`](crate::banks::ActBank) precomputes these flags once
//!   per image; zero lanes still consume their OR-group slot (slot
//!   occupancy is part of the grouped-accumulator semantics).
//!
//! Two kernels implement that contract:
//!
//! * `scalar` — the portable golden reference; runs every shape.
//! * `avx512` — one block: the single-word, single-OR-group lockstep
//!   tile walk with 8 images per 512-bit register (x86-64 with `avx512f`
//!   only). Every other shape — solo runs, tiles under 8 images,
//!   multi-word segments and OR-grouped layers — runs scalar.
//!
//! Dispatch is one host rule ([`active_kernel`]): `avx512` when the CPU
//! reports `avx512f`, `scalar` otherwise, or `scalar` whenever the
//! configuration asks for the reference ([`KernelChoice::Scalar`]).

pub(crate) mod scalar;

#[cfg(target_arch = "x86_64")]
pub(crate) mod avx512;

use crate::banks::{ActBank, PhaseView};

/// Configured kernel preference of a simulation (see
/// [`SimConfig::kernel`](crate::SimConfig::kernel)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KernelChoice {
    /// The host rule: the AVX-512 tile block where `avx512f` is detected,
    /// the scalar kernel otherwise.
    #[default]
    Auto,
    /// Always use the portable scalar kernel (the golden reference).
    Scalar,
}

/// Resolved kernel implementation actually executing the MAC loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// Portable scalar kernel — runs everywhere, defines the semantics.
    Scalar,
    /// Scalar plus the AVX-512 tile block (x86-64 with `avx512f` only).
    Avx512,
}

impl KernelKind {
    /// Stable lowercase name (the serialized bench/stats schema).
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Scalar => "scalar",
            KernelKind::Avx512 => "avx512",
        }
    }
}

fn avx512_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::is_x86_feature_detected!("avx512f")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Resolves the configured kernel choice against the host: `Auto` is
/// [`KernelKind::Avx512`] exactly when the CPU reports `avx512f`, so the
/// result never names an instruction set the host lacks.
pub fn active_kernel(choice: KernelChoice) -> KernelKind {
    match choice {
        KernelChoice::Auto if avx512_detected() => KernelKind::Avx512,
        _ => KernelKind::Scalar,
    }
}

/// Images per weight walk on the batched paths. At every stream length
/// the zoo serves (≤ 64, one word per segment) 64 images fill eight
/// 8-image AVX-512 blocks.
pub const TILE: usize = 64;

/// The execution plan of a prepared model: which kernel its runs use and
/// how many images the batch engine tiles per weight walk. A fixed rule of
/// the host and the configured [`KernelChoice`] — see
/// [`TilePlan::for_choice`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TilePlan {
    /// Kernel every run of the model resolves to.
    pub kernel: KernelKind,
    /// Image-tile size for batched execution (always [`TILE`]).
    pub tile: usize,
    /// Nanoseconds spent choosing the plan: always 0, because the plan is
    /// a rule rather than a measurement. Kept so run records that report
    /// it stay comparable.
    pub calibration_ns: u64,
}

impl TilePlan {
    /// The plan for `choice` on this host.
    pub fn for_choice(choice: KernelChoice) -> TilePlan {
        TilePlan {
            kernel: active_kernel(choice),
            tile: TILE,
            calibration_ns: 0,
        }
    }
}

/// What the host looks like to the kernel layer: core count, the detected
/// CPU features dispatch keys on, and the kernel `Auto` resolves to.
/// Serialized into `results/BENCH_*.json` so numbers stay attributable to
/// the machine that produced them.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct HostFingerprint {
    /// Available parallelism (1 when detection fails).
    pub cores: usize,
    /// Detected CPU features the dispatch layer keys on.
    pub features: Vec<&'static str>,
    /// The kernel `KernelChoice::Auto` resolves to on this host.
    pub kernel: KernelKind,
}

impl HostFingerprint {
    /// Detects the current host.
    pub fn detect() -> HostFingerprint {
        HostFingerprint {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            features: if avx512_detected() {
                vec!["avx512f"]
            } else {
                Vec::new()
            },
            kernel: active_kernel(KernelChoice::Auto),
        }
    }

    /// JSON object for the shared `results/BENCH_*.json` schema.
    pub fn json(&self) -> String {
        let feats: Vec<String> = self.features.iter().map(|f| format!("\"{f}\"")).collect();
        format!(
            "{{\"cores\": {}, \"features\": [{}], \"kernel\": \"{}\"}}",
            self.cores,
            feats.join(", "),
            self.kernel.name()
        )
    }
}

/// Kernel skip-work counters. Purely observational: values never feed back
/// into results, and solo vs tiled execution may attribute skips
/// differently (e.g. solo prefilters zero segments out of the lane list
/// when the whole fan-in is one OR group, tiled runs skip them per image).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct KernelStats {
    /// Lanes whose AND/OR word work actually ran.
    pub mac_lanes: u64,
    /// OR groups that reached all-ones before their last lane.
    pub sat_group_exits: u64,
    /// Lanes skipped because their group was already saturated.
    pub sat_lanes_skipped: u64,
    /// Lanes skipped because the activation segment was all zero.
    pub zero_seg_skips: u64,
}

impl KernelStats {
    /// Accumulates another counter set into `self`.
    pub fn merge(&mut self, other: &KernelStats) {
        self.mac_lanes += other.mac_lanes;
        self.sat_group_exits += other.sat_group_exits;
        self.sat_lanes_skipped += other.sat_lanes_skipped;
        self.zero_seg_skips += other.zero_seg_skips;
    }
}

/// Segment geometry shared by every lane of a MAC call, hoisted out of the
/// per-lane loop: sizes, the saturation pattern, and the OR-group width.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SegGeom {
    /// Pooling segments per stream.
    pub segments: usize,
    /// Words per segment.
    pub seg_words: usize,
    /// Bits per segment at the active stream length (= popcount of a
    /// saturated group).
    pub seg_len: usize,
    /// All-ones pattern of the segment's last word (in-segment bits only;
    /// tail bits beyond `seg_len` are zero by bank invariant).
    pub sat_mask: u64,
    /// OR-group width; `usize::MAX` = whole fan-in in one group.
    pub group: usize,
}

impl SegGeom {
    pub(crate) fn new(segments: usize, seg_words: usize, seg_len: usize, group: usize) -> Self {
        let rem = seg_len % 64;
        let sat_mask = if rem == 0 { !0u64 } else { (1u64 << rem) - 1 };
        SegGeom {
            segments,
            seg_words,
            seg_len,
            sat_mask,
            group,
        }
    }

    /// Whether the whole fan-in accumulates in a single OR group.
    pub(crate) fn single_group(&self) -> bool {
        self.group == usize::MAX
    }
}

/// Borrowed operands of one solo MAC phase over one segment.
pub(crate) struct PhaseArgs<'a> {
    pub geom: &'a SegGeom,
    /// The image's activation word bank.
    pub act_words: &'a [u64],
    /// Per-segment zero flags of the activation bank (`seg_idx`-indexed).
    pub seg_zero: &'a [bool],
    /// The phase's weight word bank (pool words when `windex` is set).
    pub bank_words: &'a [u64],
    /// Whether each weight has a component in this phase.
    pub present: &'a [bool],
    /// Pooled layout's per-lane slot indices into `bank_words`; `None`
    /// for the direct layout where lane `j` owns its own word range.
    /// Only valid for `present` lanes — kernels must check `present`
    /// before resolving a slot.
    pub windex: Option<&'a [u32]>,
    /// Receptive-field lanes `(segment_index, weight_base)`, pre-filtered
    /// of gated activations.
    pub lanes: &'a [(usize, usize)],
    /// Per-output-channel weight offset added to each lane's weight base.
    pub w_off: usize,
    /// Pooling segment executed by this call.
    pub segment: usize,
}

impl PhaseArgs<'_> {
    /// Resolves lane `w_idx` to its word-bank slot (identity without a
    /// pool). Callers must have checked `present[w_idx]` first.
    #[inline(always)]
    pub(crate) fn w_slot(&self, w_idx: usize) -> usize {
        match self.windex {
            None => w_idx,
            Some(ix) => ix[w_idx] as usize,
        }
    }
}

/// Borrowed operands of one tiled MAC phase over one segment: the same
/// weight walk shared by every image of the tile.
pub(crate) struct TilePhaseArgs<'a> {
    pub geom: &'a SegGeom,
    /// Per-image activation banks (identical layout).
    pub banks: &'a [ActBank],
    /// The phase's weight word bank (pool words when `windex` is set).
    pub bank_words: &'a [u64],
    /// Whether each weight has a component in this phase.
    pub present: &'a [bool],
    /// Pooled layout's per-lane slot indices; see [`PhaseArgs::windex`].
    pub windex: Option<&'a [u32]>,
    /// Receptive-field lanes `(activation_index, weight_base)`, *not*
    /// filtered of per-image gating (gating is applied per image inside
    /// the kernel; lanes gated in every image are dropped by the caller).
    pub lanes: &'a [(usize, usize)],
    pub w_off: usize,
    pub segment: usize,
}

impl TilePhaseArgs<'_> {
    /// Resolves lane `w_idx` to its word-bank slot (identity without a
    /// pool). Callers must have checked `present[w_idx]` first.
    #[inline(always)]
    pub(crate) fn w_slot(&self, w_idx: usize) -> usize {
        match self.windex {
            None => w_idx,
            Some(ix) => ix[w_idx] as usize,
        }
    }
}

/// Mutable per-image state of a tiled MAC phase, borrowed out of
/// [`SimScratch`](crate::SimScratch).
pub(crate) struct TileState<'a> {
    /// `tile * seg_words` accumulator words.
    pub accs: &'a mut [u64],
    /// Per-image OR-group occupancy.
    pub in_group: &'a mut [u32],
    /// Per-image saturation flag of the group in flight.
    pub sat: &'a mut [bool],
    /// Per-image phase counts (output).
    pub phase: &'a mut [u64],
}

/// One solo split-unipolar MAC over a segment: both phases, OR accumulation
/// with optional grouping and saturation/zero skipping, returning the
/// signed count.
///
/// `acc` must hold `seg_words` zeroed words; kernels restore the all-zero
/// state before returning, so one layer-level zeroing suffices.
#[allow(clippy::too_many_arguments)]
pub(crate) fn mac_segment(
    geom: &SegGeom,
    act_words: &[u64],
    seg_zero: &[bool],
    pos: PhaseView<'_>,
    neg: PhaseView<'_>,
    lanes: &[(usize, usize)],
    w_off: usize,
    segment: usize,
    acc: &mut [u64],
    stats: &mut KernelStats,
) -> i64 {
    let mut count = 0i64;
    for (sign, view) in [(1i64, pos), (-1i64, neg)] {
        let args = PhaseArgs {
            geom,
            act_words,
            seg_zero,
            bank_words: view.words,
            present: view.present,
            windex: view.windex,
            lanes,
            w_off,
            segment,
        };
        count += sign * scalar::mac_phase(&args, acc, stats) as i64;
    }
    count
}

/// One tiled split-unipolar MAC over a segment: walks each weight word once
/// and merges it into every image of the tile, accumulating the signed
/// count of image `t` into `counts[t * stride + offset]`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn mac_segment_tile(
    kind: KernelKind,
    geom: &SegGeom,
    banks: &[ActBank],
    pos: PhaseView<'_>,
    neg: PhaseView<'_>,
    lanes: &[(usize, usize)],
    w_off: usize,
    segment: usize,
    state: &mut TileState<'_>,
    counts: &mut [i64],
    stride: usize,
    offset: usize,
    stats: &mut KernelStats,
) {
    for (sign, view) in [(1i64, pos), (-1i64, neg)] {
        let args = TilePhaseArgs {
            geom,
            banks,
            bank_words: view.words,
            present: view.present,
            windex: view.windex,
            lanes,
            w_off,
            segment,
        };
        mac_phase_tile(kind, &args, state, stats);
        for (t, &p) in state.phase.iter().enumerate() {
            counts[t * stride + offset] += sign * p as i64;
        }
    }
}

/// One tiled MAC phase: each weight word is loaded once and merged into
/// every image of the tile. The single-word, single-group shape takes the
/// lockstep walk (the AVX-512 block under [`KernelKind::Avx512`]); every
/// other shape takes the scalar general walk.
fn mac_phase_tile(
    kind: KernelKind,
    args: &TilePhaseArgs<'_>,
    state: &mut TileState<'_>,
    stats: &mut KernelStats,
) {
    let geom = args.geom;
    let tile = args.banks.len();
    state.phase[..tile].fill(0);
    state.in_group[..tile].fill(0);
    state.sat[..tile].fill(false);
    state.accs[..tile * geom.seg_words].fill(0);
    if !(geom.single_group() && geom.seg_words == 1) {
        scalar::mac_phase_tile_general(args, state, stats);
        return;
    }
    match kind {
        #[cfg(target_arch = "x86_64")]
        KernelKind::Avx512 => avx512::mac_phase_tile_word_single(args, state, stats),
        _ => scalar::mac_phase_tile_word_single(args, state, stats, 0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn choice_resolves_by_host_rule() {
        assert_eq!(active_kernel(KernelChoice::Scalar), KernelKind::Scalar);
        let want = if avx512_detected() {
            KernelKind::Avx512
        } else {
            KernelKind::Scalar
        };
        assert_eq!(active_kernel(KernelChoice::Auto), want);
    }

    #[test]
    fn plan_is_the_host_rule_at_the_fixed_tile() {
        let plan = TilePlan::for_choice(KernelChoice::Auto);
        assert_eq!(plan.kernel, active_kernel(KernelChoice::Auto));
        assert_eq!(plan.tile, TILE);
        assert_eq!(plan.calibration_ns, 0);
        assert_eq!(
            TilePlan::for_choice(KernelChoice::Scalar).kernel,
            KernelKind::Scalar
        );
    }

    #[test]
    fn host_fingerprint_is_stable_and_serializable() {
        let a = HostFingerprint::detect();
        assert_eq!(a, HostFingerprint::detect());
        assert!(a.cores >= 1);
        let json = a.json();
        assert!(json.contains("\"cores\""));
        assert!(json.contains(a.kernel.name()));
    }

    #[test]
    fn seg_geom_sat_mask_covers_tail() {
        assert_eq!(SegGeom::new(1, 1, 64, usize::MAX).sat_mask, !0);
        assert_eq!(SegGeom::new(4, 1, 16, usize::MAX).sat_mask, 0xFFFF);
        assert_eq!(SegGeom::new(1, 2, 96, 8).sat_mask, (1u64 << 32) - 1);
        assert!(SegGeom::new(1, 1, 64, usize::MAX).single_group());
        assert!(!SegGeom::new(1, 2, 96, 8).single_group());
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = KernelStats {
            mac_lanes: 1,
            sat_group_exits: 2,
            sat_lanes_skipped: 3,
            zero_seg_skips: 4,
        };
        a.merge(&a.clone());
        assert_eq!(a.mac_lanes, 2);
        assert_eq!(a.sat_group_exits, 4);
        assert_eq!(a.sat_lanes_skipped, 6);
        assert_eq!(a.zero_seg_skips, 8);
    }
}
