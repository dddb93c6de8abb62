//! Flat, word-aligned operand banks of the stochastic datapath.
//!
//! Weights live in a per-layer [`StreamPool`] (prepared once per network),
//! activations in a per-image [`ActBank`] (regenerated per layer), and every
//! per-inference buffer is owned by a reusable [`SimScratch`]. The MAC
//! kernels in [`crate::kernels`] operate on borrowed word ranges out of
//! these banks — no per-lane allocation on the hot path.

use crate::kernels::KernelStats;

/// One FNV-1a step over a 64-bit word — the mixing primitive behind every
/// content digest in the prepare path (bank digests, layer content keys).
pub(crate) fn fnv1a(h: &mut u64, word: u64) {
    *h = (*h ^ word).wrapping_mul(0x0000_0100_0000_01b3);
}

/// Lane marker for weights with no stream at all (quantized to zero).
/// Kernels never dereference it: a zero weight is absent from **both**
/// phase `present` lists, and every weight read is behind a `present`
/// check.
pub(crate) const NO_SLOT: u32 = u32::MAX;

/// One prefix level's canonical stream words, slot-major: slot `s`,
/// segment `e` occupies `words[(s * segments + e) * seg_words ..
/// +seg_words]`. Slots are phase-agnostic — a stream is a pure function
/// of its (seed, threshold), so a positive-phase lane and a
/// negative-phase lane with the same key share one slot.
#[derive(Debug, Clone)]
pub(crate) struct PoolLevel {
    pub(crate) words: Vec<u64>,
    pub(crate) seg_words: usize,
}

/// Deduplicated weight storage of one MAC layer: one canonical stream per
/// distinct (SNG seed, quantized threshold) pair, with every lane holding
/// a compact `u32` slot index into the pool instead of owning its
/// stream words.
///
/// Level `k` holds the first `max_per_phase >> k` bits of every stream:
/// an LFSR-driven SNG emits bits sequentially, so a stream of length `L`
/// is a bit-exact prefix of the length-`2L` stream from the same seed.
/// Slot ids are assigned once (first sight of a key, in a phase-major
/// lane scan so each phase pass reads a dense ascending slot range) and
/// every [`PoolLevel`] lays its words out in the same slot order, sliced
/// from one SNG walk at the maximum length — so one `index` vector serves
/// all levels and level `k` stays bit-identical to a direct prepare at
/// that length.
#[derive(Debug, Clone)]
pub(crate) struct StreamPool {
    /// Per-lane pool slot; [`NO_SLOT`] for zero weights.
    pub(crate) index: Vec<u32>,
    /// Whether lane `j` has a positive-phase component.
    pub(crate) pos_present: Vec<bool>,
    /// Whether lane `j` has a negative-phase component.
    pub(crate) neg_present: Vec<bool>,
    /// Per-level canonical words, longest level first (same order as
    /// `PreparedNetwork::supported_lengths`).
    pub(crate) levels: Vec<PoolLevel>,
    /// Number of distinct canonical streams.
    pub(crate) distinct: usize,
    /// Pooling segments per stream (layout constant shared by all levels).
    pub(crate) segments: usize,
}

impl StreamPool {
    /// Resident size of the pool plus the per-lane indices, in bytes.
    pub(crate) fn approx_bytes(&self) -> usize {
        self.pool_bytes() + self.index_bytes()
    }

    /// Bytes spent on canonical stream words (all levels).
    pub(crate) fn pool_bytes(&self) -> usize {
        self.levels
            .iter()
            .map(|l| l.words.len() * std::mem::size_of::<u64>())
            .sum()
    }

    /// Bytes spent on per-lane indices and phase presence.
    pub(crate) fn index_bytes(&self) -> usize {
        self.index.len() * std::mem::size_of::<u32>()
            + self.pos_present.len()
            + self.neg_present.len()
    }

    /// Borrowed view of prefix level `k`, as the kernels read it.
    pub(crate) fn level(&self, k: usize) -> WeightView<'_> {
        let l = &self.levels[k];
        WeightView {
            words: &l.words,
            index: &self.index,
            pos_present: &self.pos_present,
            neg_present: &self.neg_present,
            seg_words: l.seg_words,
        }
    }

    /// Folds this layer's complete bank content into an FNV-1a digest:
    /// slot indices, presence flags and every level's words. Feeds
    /// [`PreparedNetwork::content_digest`].
    ///
    /// [`PreparedNetwork::content_digest`]: crate::PreparedNetwork::content_digest
    pub(crate) fn digest(&self, h: &mut u64) {
        fn digest_flags(h: &mut u64, flags: &[bool]) {
            fnv1a(h, flags.len() as u64);
            for &f in flags {
                fnv1a(h, u64::from(f));
            }
        }
        // The leading tag 12 stays so that recorded `content_digest()`
        // values remain valid.
        fnv1a(h, 12);
        fnv1a(h, self.distinct as u64);
        fnv1a(h, self.segments as u64);
        fnv1a(h, self.index.len() as u64);
        for &slot in &self.index {
            fnv1a(h, u64::from(slot));
        }
        digest_flags(h, &self.pos_present);
        digest_flags(h, &self.neg_present);
        for l in &self.levels {
            fnv1a(h, l.seg_words as u64);
            fnv1a(h, l.words.len() as u64);
            for &w in &l.words {
                fnv1a(h, w);
            }
        }
    }

    /// Storage accounting of this layer (see [`DedupStats`]).
    pub(crate) fn dedup_stats(&self) -> DedupStats {
        let lanes = self.index.len();
        // A per-lane layout holds, at every level, full words plus a
        // presence flag per lane in each of the two phases.
        let materialized: usize = self
            .levels
            .iter()
            .map(|l| 2 * (lanes * self.segments * l.seg_words * std::mem::size_of::<u64>() + lanes))
            .sum();
        DedupStats {
            lanes: lanes as u64,
            distinct_streams: self.distinct as u64,
            pool_bytes: self.pool_bytes() as u64,
            index_bytes: self.index_bytes() as u64,
            resident_bytes: self.approx_bytes() as u64,
            materialized_bytes: materialized as u64,
        }
    }
}

/// Borrowed view of one prefix level of one layer's weights, as the
/// kernels read it: both phases share the pool words and the slot index,
/// and differ only in which lanes are present.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WeightView<'a> {
    pub(crate) words: &'a [u64],
    pub(crate) index: &'a [u32],
    pub(crate) pos_present: &'a [bool],
    pub(crate) neg_present: &'a [bool],
    pub(crate) seg_words: usize,
}

/// Weight-storage accounting of one layer or one whole prepared network.
///
/// `resident_bytes` is what the stream pool actually allocates (and what
/// `ModelCache` byte budgets are charged); `materialized_bytes` is what an
/// undeduplicated per-lane layout — every lane owning full stream words in
/// both phases — would allocate for the same shapes, computed analytically
/// (an ImageNet-scale per-lane layout cannot be allocated just to weigh
/// it).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DedupStats {
    /// Weight lanes across MAC layers (conv fan-in × out-channels + dense).
    pub lanes: u64,
    /// Distinct canonical streams backing those lanes.
    pub distinct_streams: u64,
    /// Bytes of shared canonical stream words.
    pub pool_bytes: u64,
    /// Bytes of per-lane slot indices + phase presence.
    pub index_bytes: u64,
    /// Bytes actually resident for weight banks.
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

    /// Memory saved by deduplication: materialized over resident bytes.
    pub fn dedup_ratio(&self) -> f64 {
        self.materialized_bytes as f64 / self.resident_bytes.max(1) as f64
    }
}

/// Minimal open-addressing map from packed nonzero `(seed, threshold)`
/// keys to pool slots, used only at prepare time. `mix_seed` never yields
/// seed 0, so a zero key marks an empty bucket and no tombstones are
/// needed (keys are only ever inserted). The std `HashMap`'s SipHash is a
/// measurable drag at the ~10⁸ probes an ImageNet-scale prepare performs;
/// a splitmix-style finalizer over the packed key is plenty for keys that
/// are already LFSR-mixed.
pub(crate) struct PoolMap {
    keys: Vec<u64>,
    slots: Vec<u32>,
    len: usize,
}

impl PoolMap {
    pub(crate) fn new() -> Self {
        PoolMap {
            keys: vec![0; 1024],
            slots: vec![0; 1024],
            len: 0,
        }
    }

    fn hash(key: u64) -> u64 {
        let mut h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 30;
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 27;
        h
    }

    /// Bucket holding `key`, or the empty bucket where it would go.
    fn bucket(&self, key: u64) -> usize {
        let mask = self.keys.len() - 1;
        let mut i = (Self::hash(key) as usize) & mask;
        while self.keys[i] != 0 && self.keys[i] != key {
            i = (i + 1) & mask;
        }
        i
    }

    pub(crate) fn get(&self, key: u64) -> Option<u32> {
        debug_assert_ne!(key, 0, "zero marks empty buckets");
        let i = self.bucket(key);
        (self.keys[i] == key).then(|| self.slots[i])
    }

    pub(crate) fn insert(&mut self, key: u64, slot: u32) {
        debug_assert_ne!(key, 0, "zero marks empty buckets");
        if self.len * 4 >= self.keys.len() * 3 {
            self.grow();
        }
        let i = self.bucket(key);
        if self.keys[i] != key {
            self.len += 1;
        }
        self.keys[i] = key;
        self.slots[i] = slot;
    }

    fn grow(&mut self) {
        let keys = std::mem::replace(&mut self.keys, vec![0; 0]);
        let slots = std::mem::take(&mut self.slots);
        self.keys = vec![0; keys.len() * 2];
        self.slots = vec![0; slots.len() * 2];
        for (k, s) in keys.into_iter().zip(slots) {
            if k != 0 {
                let i = self.bucket(k);
                self.keys[i] = k;
                self.slots[i] = s;
            }
        }
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_map_inserts_probes_and_grows() {
        let mut map = PoolMap::new();
        // Enough keys to force several doublings past the 1024 seed size.
        for k in 1..=10_000u64 {
            assert_eq!(map.get(k), None);
            map.insert(k, (k * 3) as u32);
        }
        for k in 1..=10_000u64 {
            assert_eq!(map.get(k), Some((k * 3) as u32), "key {k}");
        }
        assert_eq!(map.get(10_001), None);
    }

    #[test]
    fn pool_map_overwrite_keeps_len_consistent() {
        let mut map = PoolMap::new();
        map.insert(7, 1);
        map.insert(7, 2);
        assert_eq!(map.get(7), Some(2));
    }

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
