//! Flat, word-aligned operand banks of the stochastic datapath.
//!
//! Weights are windows of per-model [`WeightCycles`] addressed by one
//! `u32` code per lane (prepared once per network), activations live in a
//! per-image [`ActBank`] (regenerated per layer), and every per-inference
//! buffer is owned by a reusable [`SimScratch`]. The MAC kernels in
//! [`crate::kernels`] operate on borrowed word ranges out of these banks —
//! no per-lane allocation on the hot path.

use acoustic_core::bitstream::copy_bit_range;

use crate::kernels::{KernelStats, WeightedLane};

/// One FNV-1a step over a 64-bit word — the mixing primitive behind
/// [`PreparedNetwork::content_digest`](crate::PreparedNetwork::content_digest).
pub(crate) fn fnv1a(h: &mut u64, word: u64) {
    *h = (*h ^ word).wrapping_mul(0x0000_0100_0000_01b3);
}

/// Code of a weight quantized to zero: no stream in either phase.
pub(crate) const ZERO_CODE: u32 = u32::MAX;

/// Phase bit of a lane code: set for a negative weight.
pub(crate) const NEG_PHASE: u32 = 1 << 31;

/// A lane code XOR-ed with a phase's bit is below this bound exactly when
/// the lane has a stream in that phase: a stream's start bit is below it,
/// a code of the other phase keeps bit 31, and [`ZERO_CODE`] XOR either
/// phase bit is at least the bound.
pub(crate) const LIVE_BOUND: u32 = !NEG_PHASE;

/// The weight bit cycles of one prepared model: one per distinct nonzero
/// weight threshold `T`, bit `i` being `[V[i mod P] <= T]` over the
/// 16-bit LFSR's output sequence `V` of period `P`, with the first
/// `per_phase_len` bits repeated after the period (see
/// [`LfsrOrbit::cycles`](acoustic_core::LfsrOrbit::cycles)).
///
/// A weight lane holds one `u32` code: its phase in bit 31 and, below it,
/// the bit where its stream starts in `words` — `k · cycle_bits + pos` for
/// a stream at orbit position `pos` of cycle `k`. Segment `e` of a
/// stream at per-phase length `m` is the bit range
/// `[start + e·seg_len, +seg_len)` with `seg_len = m / segments`. A
/// shorter prefix reads a shorter window at the same start, so every
/// supported length runs from the same cycles and codes.
#[derive(Debug, Clone)]
pub(crate) struct WeightCycles {
    /// Comparator threshold of each cycle, in index order.
    pub(crate) thresholds: Vec<u32>,
    /// The cycles back to back, equally long.
    pub(crate) words: Vec<u64>,
}

impl WeightCycles {
    /// Bytes of cycle words.
    pub(crate) fn bytes(&self) -> usize {
        self.words.len() * std::mem::size_of::<u64>()
    }

    /// The kernels' view of one layer's weights.
    pub(crate) fn view<'a>(&'a self, codes: &'a [u32]) -> WeightView<'a> {
        WeightView {
            cycles: &self.words,
            codes,
        }
    }

    /// Folds one layer's logical bank content into an FNV-1a digest:
    /// the slot table, presence flags and per-level words of a
    /// deduplicated stream pool — one slot per distinct stream start (a
    /// (cycle, position) pair) at first sight in a phase-major lane scan,
    /// every slot's level
    /// words cut from its cycle. This is what the stream pool this layout
    /// replaced stored, so recorded
    /// [`PreparedNetwork::content_digest`] values stay valid.
    ///
    /// `slot_of` is working memory reused across layers.
    ///
    /// [`PreparedNetwork::content_digest`]: crate::PreparedNetwork::content_digest
    pub(crate) fn digest_layer(
        &self,
        h: &mut u64,
        codes: &[u32],
        segments: usize,
        lengths: &[usize],
        slot_of: &mut Vec<u32>,
    ) {
        let present = |code: u32, phase: u32| (code ^ phase) < LIVE_BOUND;
        slot_of.clear();
        slot_of.resize(self.words.len() * 64, ZERO_CODE);
        let mut keys: Vec<u32> = Vec::new();
        for phase in [0, NEG_PHASE] {
            for &code in codes {
                let key = code ^ phase;
                if present(code, phase) && slot_of[key as usize] == ZERO_CODE {
                    slot_of[key as usize] = keys.len() as u32;
                    keys.push(key);
                }
            }
        }
        // The leading tag 12 is the stream pool's, so that recorded
        // `content_digest()` values remain valid.
        fnv1a(h, 12);
        fnv1a(h, keys.len() as u64);
        fnv1a(h, segments as u64);
        fnv1a(h, codes.len() as u64);
        for &code in codes {
            let slot = if code == ZERO_CODE {
                ZERO_CODE
            } else {
                slot_of[(code & !NEG_PHASE) as usize]
            };
            fnv1a(h, u64::from(slot));
        }
        for phase in [0, NEG_PHASE] {
            fnv1a(h, codes.len() as u64);
            for &code in codes {
                fnv1a(h, u64::from(present(code, phase)));
            }
        }
        let view = self.view(codes);
        let mut words = Vec::new();
        for &len in lengths {
            let seg_len = len / 2 / segments;
            let seg_words = seg_len.div_ceil(64);
            words.resize(seg_words, 0);
            fnv1a(h, seg_words as u64);
            fnv1a(h, (keys.len() * segments * seg_words) as u64);
            for &start in &keys {
                let start = start as usize;
                for e in 0..segments {
                    copy_bit_range(view.cycles, start + e * seg_len, seg_len, &mut words);
                    for &w in &words {
                        fnv1a(h, w);
                    }
                }
            }
        }
    }
}

/// Borrowed view of one layer's weights, as the kernels read them: the
/// model's cycles and the layer's lane codes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WeightView<'a> {
    pub(crate) cycles: &'a [u64],
    pub(crate) codes: &'a [u32],
}

impl WeightView<'_> {
    /// First cycle bit of lane `w`'s stream in phase `phase` (0 or
    /// [`NEG_PHASE`]), or `None` when the weight has no component there.
    #[inline]
    pub(crate) fn lane_bit(&self, w: usize, phase: u32) -> Option<usize> {
        let start = self.codes[w] ^ phase;
        (start < LIVE_BOUND).then_some(start as usize)
    }

    /// The 64 cycle bits starting at `bit`, first bit in bit 0.
    #[inline]
    pub(crate) fn word_at(&self, bit: usize) -> u64 {
        let (w, s) = (bit / 64, bit % 64);
        // `<< 1 << (63 - s)` is `<< (64 - s)` without overflowing at s = 0.
        (self.cycles[w] >> s) | ((self.cycles[w + 1] << 1) << (63 - s))
    }
}

/// Weight-storage accounting of one whole prepared network.
///
/// `resident_bytes` is what the weight representation actually allocates
/// (and what `ModelCache` byte budgets are charged): the model's cycles
/// plus one `u32` code per lane. `materialized_bytes` is what a per-lane
/// layout — every lane owning full stream words at every prefix level in
/// both phases — would allocate for the same shapes, computed
/// analytically (an ImageNet-scale per-lane layout cannot be allocated
/// just to weigh it).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DedupStats {
    /// Weight lanes across MAC layers (conv fan-in × out-channels + dense).
    pub lanes: u64,
    /// Weight bit cycles backing those lanes (distinct nonzero thresholds).
    pub distinct_streams: u64,
    /// Bytes of cycle words.
    pub pool_bytes: u64,
    /// Bytes of per-lane codes.
    pub index_bytes: u64,
    /// Bytes actually resident for weights.
    pub resident_bytes: u64,
    /// Bytes a per-lane layout would need for the same layers.
    pub materialized_bytes: u64,
}

impl DedupStats {
    /// Accumulates another layer's (or model's) accounting into this one.
    pub fn merge(&mut self, other: &DedupStats) {
        self.lanes += other.lanes;
        self.distinct_streams += other.distinct_streams;
        self.pool_bytes += other.pool_bytes;
        self.index_bytes += other.index_bytes;
        self.resident_bytes += other.resident_bytes;
        self.materialized_bytes += other.materialized_bytes;
    }

    /// Memory saved against a per-lane layout: materialized over resident
    /// bytes.
    pub fn dedup_ratio(&self) -> f64 {
        self.materialized_bytes as f64 / self.resident_bytes.max(1) as f64
    }
}

/// Activation streams of one layer, packed: activation `j` owns the words
/// `[j * act_words, (j + 1) * act_words)`, and its pooling segment `e` sits
/// at bit offset `e * stride` inside them, where the stride never lets a
/// segment cross a word (see [`SegGeom`](crate::kernels::SegGeom)); tail
/// bits are zero. With one segment this is one stream per activation; with
/// `k²` segments of a power-of-two length it is still the SNG's stream,
/// each window position reading its slice in place. The kernels shift the
/// weight word onto the segment's bits instead of moving activation bits.
#[derive(Debug, Default)]
pub(crate) struct ActBank {
    pub(crate) words: Vec<u64>,
    /// Words per activation.
    pub(crate) act_words: usize,
    /// Operand-gated activations (lane contributes nothing and is skipped
    /// without entering an OR group). A gated activation's words are zero.
    pub(crate) gated: Vec<bool>,
}

impl ActBank {
    /// Clears and resizes for a layer of `streams` activations of
    /// `act_words` words each, every word zero and no activation gated.
    pub(crate) fn reset(&mut self, streams: usize, act_words: usize) {
        self.act_words = act_words;
        self.words.clear();
        self.words.resize(streams * act_words, 0);
        self.gated.clear();
        self.gated.resize(streams, false);
    }

    /// The packed words of activation `idx`.
    pub(crate) fn act_mut(&mut self, idx: usize) -> &mut [u64] {
        &mut self.words[idx * self.act_words..(idx + 1) * self.act_words]
    }

    pub(crate) fn gate(&mut self, idx: usize) {
        self.gated[idx] = true;
    }

    pub(crate) fn is_gated(&self, idx: usize) -> bool {
        self.gated[idx]
    }

    /// Whether the segment whose `seg_words` words start at `word` holds no
    /// ones inside `window` (its last word's in-segment bits, at the
    /// segment's shift). A zero segment AND-multiplies to zero against any
    /// weight, so the kernels skip its merge — it still consumes its
    /// OR-group slot.
    #[inline]
    pub(crate) fn segment_is_zero(&self, word: usize, seg_words: usize, window: u64) -> bool {
        let (last, body) = self.words[word..word + seg_words]
            .split_last()
            .expect("segments hold at least one word");
        *last & window == 0 && body.iter().all(|&w| w == 0)
    }

    /// Capacity of the bank's buffers, in bytes.
    fn resident_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>() + self.gated.capacity()
    }
}

/// Reusable per-run working memory: the per-image packed activation
/// banks, MAC accumulators, lane lists, SNG staging buffers, and kernel
/// skip counters.
///
/// Construct once (it is `Default`) and thread through
/// [`ScSimulator::execute`] to amortise every per-run buffer across a
/// batch — a fresh scratch gives bit-identical results, only slower. The
/// batch runtime keeps one per worker thread.
///
/// [`ScSimulator::execute`]: crate::ScSimulator::execute
#[derive(Debug, Default)]
pub struct SimScratch {
    /// Full-length activation streams staged for packing when the segment
    /// stride differs from the segment length.
    pub(crate) full: Vec<u64>,
    /// Pre-quantized comparator thresholds (shared-RNG path).
    pub(crate) thresholds: Vec<u32>,
    /// Receptive-field lanes `(segment_word, weight_base)` of the current
    /// spatial position and pooling segment — shared by every output
    /// channel and every image of the tile.
    pub(crate) lanes: Vec<(usize, usize)>,
    /// Per-image activation banks of the tile in flight.
    pub(crate) tile_acts: Vec<ActBank>,
    /// Per-image MAC accumulators, `tile_size * seg_words` words.
    pub(crate) tile_accs: Vec<u64>,
    /// Per-image OR-group occupancy counters.
    pub(crate) tile_in_group: Vec<u32>,
    /// Per-image saturation flags of the OR group in flight.
    pub(crate) tile_sat: Vec<bool>,
    /// Per-image single-phase counts of the segment in flight.
    pub(crate) tile_phase: Vec<u64>,
    /// Per-image per-output-channel signed counters (`t * out_c + oc`).
    pub(crate) tile_counts: Vec<i64>,
    /// The weight segment of the lane in flight, `seg_words` words.
    pub(crate) tile_wgt: Vec<u64>,
    /// The weighted lanes of the phase in flight (lockstep walk).
    pub(crate) tile_weighted: Vec<WeightedLane>,
    /// Kernel skip counters accumulated by every run using this scratch.
    pub(crate) stats: KernelStats,
}

impl SimScratch {
    /// Kernel skip counters accumulated so far (saturated-group early-outs,
    /// zero-segment skips, merged lanes). Counters are observability only:
    /// they never influence results, and their exact split depends on the
    /// tile shapes that produced them (see [`KernelStats`]).
    pub fn kernel_stats(&self) -> KernelStats {
        self.stats
    }

    /// Returns and resets the accumulated kernel skip counters.
    pub fn take_kernel_stats(&mut self) -> KernelStats {
        std::mem::take(&mut self.stats)
    }

    /// Bytes this scratch holds: the summed capacity of its buffers. It
    /// only grows, so after a run it is that run's working memory (and
    /// the largest of any earlier run's).
    pub fn resident_bytes(&self) -> usize {
        fn cap<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        cap(&self.full)
            + cap(&self.thresholds)
            + cap(&self.lanes)
            + cap(&self.tile_acts)
            + self
                .tile_acts
                .iter()
                .map(ActBank::resident_bytes)
                .sum::<usize>()
            + cap(&self.tile_accs)
            + cap(&self.tile_in_group)
            + cap(&self.tile_sat)
            + cap(&self.tile_phase)
            + cap(&self.tile_counts)
            + cap(&self.tile_wgt)
            + cap(&self.tile_weighted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_stats_merge_and_ratio() {
        let mut a = DedupStats {
            lanes: 10,
            distinct_streams: 2,
            pool_bytes: 100,
            index_bytes: 50,
            resident_bytes: 150,
            materialized_bytes: 600,
        };
        let b = DedupStats {
            lanes: 5,
            distinct_streams: 1,
            pool_bytes: 20,
            index_bytes: 30,
            resident_bytes: 50,
            materialized_bytes: 200,
        };
        a.merge(&b);
        assert_eq!(a.lanes, 15);
        assert_eq!(a.distinct_streams, 3);
        assert_eq!(a.resident_bytes, 200);
        assert_eq!(a.materialized_bytes, 800);
        assert!((a.dedup_ratio() - 4.0).abs() < 1e-12);
        assert_eq!(DedupStats::default().dedup_ratio(), 0.0);
    }
}
