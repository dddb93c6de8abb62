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
//! * **Zero-segment skipping** — a segment whose activation bits are all
//!   zero AND-multiplies to zero against any weight, so its merge is a
//!   no-op. The test is one masked compare on the packed
//!   [`ActBank`](crate::banks::ActBank) word; zero lanes still consume
//!   their OR-group slot (slot occupancy is part of the grouped-accumulator
//!   semantics).
//!
//! Activation words are packed: several pooling segments share a word, at
//! bit offset `e * stride`. Every kernel reads the word whole and shifts the
//! **weight** word onto the segment (`acc |= a & (w << shift)`) — the
//! weight's bits outside the segment are zero, so the AND drops the
//! neighbouring segments — and compares saturation against
//! `sat_mask << shift`. The weight is one broadcast scalar per lane, so the
//! shift costs no vector op.
//!
//! Two kernels implement that contract:
//!
//! * `scalar` — the portable golden reference; runs every shape.
//! * `avx512` — one block: the single-word, single-OR-group lockstep
//!   tile walk with 8 images per 512-bit register (x86-64 with `avx512f`
//!   only). Every other shape — tiles under 8 images, multi-word segments
//!   and OR-grouped layers — runs scalar.
//!
//! Dispatch is one host rule ([`active_kernel`]): `avx512` when the CPU
//! reports `avx512f`, `scalar` otherwise, or `scalar` whenever the
//! configuration asks for the reference ([`KernelChoice::Scalar`]).

pub(crate) mod scalar;

#[cfg(target_arch = "x86_64")]
pub(crate) mod avx512;

use crate::banks::{ActBank, WeightView, NEG_PHASE};

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
/// into results, and their split depends on the tile's shape — a tile of
/// one image counts each zero segment it meets as a skip, while the
/// lockstep walk of larger single-word, single-group tiles merges zero
/// words unconditionally and counts them as MAC lanes. Compare counters
/// only between runs of the same tile shape.
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
    /// Bit distance between the starts of consecutive segments in an
    /// activation's packed words: `seg_len` rounded up to a power of two
    /// while a segment fits in one word, whole words beyond that, so a
    /// segment never crosses a word. For a power-of-two `seg_len` the
    /// stride is `seg_len` and the packed words are the stream itself.
    pub stride: usize,
    /// Packed words per activation.
    pub act_words: usize,
}

impl SegGeom {
    pub(crate) fn new(segments: usize, seg_words: usize, seg_len: usize, group: usize) -> Self {
        let rem = seg_len % 64;
        let sat_mask = if rem == 0 { !0u64 } else { (1u64 << rem) - 1 };
        let stride = if seg_len <= 64 {
            seg_len.next_power_of_two()
        } else {
            seg_words * 64
        };
        SegGeom {
            segments,
            seg_words,
            seg_len,
            sat_mask,
            group,
            stride,
            act_words: (segments * stride).div_ceil(64),
        }
    }

    /// Segment `e`'s first word within an activation's packed words, and
    /// its bit shift inside that word (0 for multi-word segments).
    pub(crate) fn locate(&self, e: usize) -> (usize, u32) {
        let bit = e * self.stride;
        (bit / 64, (bit % 64) as u32)
    }

    /// Whether the whole fan-in accumulates in a single OR group.
    pub(crate) fn single_group(&self) -> bool {
        self.group == usize::MAX
    }
}

/// Borrowed operands of one tiled MAC phase over one segment: the same
/// weight walk shared by every image of the tile.
pub(crate) struct TilePhaseArgs<'a> {
    pub geom: &'a SegGeom,
    /// Per-image activation banks (identical layout).
    pub banks: &'a [ActBank],
    /// The layer's lane codes over the model's weight cycles.
    pub weights: WeightView<'a>,
    /// The phase's lane-code bit: 0 positive, [`NEG_PHASE`] negative.
    pub phase: u32,
    /// Receptive-field lanes `(segment_word, weight_base)`, where
    /// `segment_word = activation_index * act_words + word` is the first
    /// bank word of the segment ([`SegGeom::locate`]); *not* filtered of
    /// per-image gating (gating is applied per image inside the kernel;
    /// lanes gated in every image are dropped by the caller).
    pub lanes: &'a [(usize, usize)],
    pub w_off: usize,
    /// Bit offset of the segment inside a weight stream
    /// (`segment * seg_len`).
    pub seg_off: usize,
    /// Bit shift of the segment inside its first activation word: weight
    /// words are shifted left by it before the AND.
    pub shift: u32,
    /// `sat_mask << shift`: the segment's bits in its (last) word — the
    /// zero-segment test and the saturation pattern.
    pub window: u64,
}

impl TilePhaseArgs<'_> {
    /// First cycle bit of the weight segment of lane `w_base`, or `None`
    /// when the weight has no component in this phase.
    #[inline]
    pub(crate) fn weight_bit(&self, w_base: usize) -> Option<usize> {
        self.weights
            .lane_bit(self.w_off + w_base, self.phase)
            .map(|bit| bit + self.seg_off)
    }

    /// The weight word of a single-word segment starting at cycle bit
    /// `bit`: cut to the segment's bits and shifted onto the segment's
    /// activation bits.
    #[inline]
    pub(crate) fn weight_word(&self, bit: usize) -> u64 {
        (self.weights.word_at(bit) & self.geom.sat_mask) << self.shift
    }

    /// Word `k` of a multi-word weight segment starting at cycle bit `bit`
    /// (multi-word segments start on a word boundary: no shift), its last
    /// word cut to the segment's bits.
    #[inline]
    pub(crate) fn weight_word_of(&self, bit: usize, k: usize) -> u64 {
        let word = self.weights.word_at(bit + 64 * k);
        if k + 1 == self.geom.seg_words {
            word & self.geom.sat_mask
        } else {
            word
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
    /// `seg_words` words holding the weight segment of the lane in flight
    /// (general walk).
    pub wgt: &'a mut [u64],
    /// The phase's weighted lanes (lockstep walk).
    pub weighted: &'a mut Vec<WeightedLane>,
}

/// A lane with a weight component in the phase in flight, as the lockstep
/// walk reads it: its index in the lane list, its activation word and its
/// weight word, cut from the cycles once for every image of the tile.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WeightedLane {
    pub n: usize,
    pub word: usize,
    pub w: u64,
}

/// One tiled split-unipolar MAC over a segment: walks each weight word once
/// and merges it into every image of the tile, accumulating the signed
/// count of image `t` into `counts[t * stride + offset]`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn mac_segment_tile(
    kind: KernelKind,
    geom: &SegGeom,
    banks: &[ActBank],
    weights: WeightView<'_>,
    lanes: &[(usize, usize)],
    w_off: usize,
    segment: usize,
    state: &mut TileState<'_>,
    counts: &mut [i64],
    stride: usize,
    offset: usize,
    stats: &mut KernelStats,
) {
    let (_, shift) = geom.locate(segment);
    for (sign, phase) in [(1i64, 0), (-1i64, NEG_PHASE)] {
        let args = TilePhaseArgs {
            geom,
            banks,
            weights,
            phase,
            lanes,
            w_off,
            seg_off: segment * geom.seg_len,
            shift,
            window: geom.sat_mask << shift,
        };
        mac_phase_tile(kind, &args, state, stats);
        for (t, &p) in state.phase.iter().enumerate() {
            counts[t * stride + offset] += sign * p as i64;
        }
    }
}

/// One tiled MAC phase: each weight word is loaded once and merged into
/// every image of the tile. A tile of one takes the per-lane scalar walk;
/// larger single-word, single-group tiles take the lockstep walk (the
/// AVX-512 block under [`KernelKind::Avx512`]); every other shape takes
/// the scalar general walk.
fn mac_phase_tile(
    kind: KernelKind,
    args: &TilePhaseArgs<'_>,
    state: &mut TileState<'_>,
    stats: &mut KernelStats,
) {
    let geom = args.geom;
    let tile = args.banks.len();
    if tile == 1 {
        // Chosen by input size, not a second semantics: with one image
        // the per-image state lives in registers and zero segments skip
        // their weight load, which the lockstep walk cannot do for a
        // tile (measured in EXPERIMENTS.md).
        let acc = &mut state.accs[..geom.seg_words];
        acc.fill(0);
        state.phase[0] = scalar::mac_phase(args, acc, stats);
        return;
    }
    state.phase[..tile].fill(0);
    state.in_group[..tile].fill(0);
    state.sat[..tile].fill(false);
    state.accs[..tile * geom.seg_words].fill(0);
    if !(geom.single_group() && geom.seg_words == 1) {
        scalar::mac_phase_tile_general(args, state, stats);
        return;
    }
    state.weighted.clear();
    for (n, &(word, w_base)) in args.lanes.iter().enumerate() {
        if let Some(bit) = args.weight_bit(w_base) {
            let w = args.weight_word(bit);
            state.weighted.push(WeightedLane { n, word, w });
        }
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
    fn seg_geom_packs_segments_without_crossing_words() {
        // (segments, seg_len) -> (stride, act_words)
        for (segments, seg_len, stride, act_words) in [
            (1, 64usize, 64, 1),
            (4, 8, 8, 1),
            (4, 16, 16, 1),
            (9, 12, 16, 3),
            (4, 24, 32, 2),
            (9, 96, 128, 18),
            (4, 128, 128, 8),
        ] {
            let g = SegGeom::new(segments, seg_len.div_ceil(64), seg_len, usize::MAX);
            assert_eq!((g.stride, g.act_words), (stride, act_words), "{seg_len}");
            for e in 0..segments {
                let (word, shift) = g.locate(e);
                assert!(word < act_words);
                assert!(
                    shift as usize + seg_len.min(64) <= 64,
                    "segment {e} crosses a word"
                );
            }
        }
        assert_eq!(SegGeom::new(9, 1, 12, usize::MAX).locate(5), (1, 16));
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
