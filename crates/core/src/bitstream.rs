//! Packed stochastic bitstreams.
//!
//! A stochastic number in unipolar format is the probability of a `1`
//! appearing in a random bit sequence. We store streams packed 64 bits to a
//! `u64` word so the single-gate SC operations (AND, OR, MUX) become
//! word-parallel bitwise instructions — this is what makes software
//! simulation of million-lane SC fabrics tractable.

use crate::CoreError;

/// A fixed-length stochastic bitstream, packed 64 bits per word.
///
/// Bit `i` of the stream lives at `words[i / 64]` bit position `i % 64`
/// (little-endian within the word). Bits at positions `>= len` in the last
/// word are always kept zero, so [`Bitstream::count_ones`] is a plain
/// popcount over the words.
///
/// # Examples
///
/// ```
/// use acoustic_core::Bitstream;
///
/// let s = Bitstream::from_bits(&[true, false, true, true]);
/// assert_eq!(s.len(), 4);
/// assert_eq!(s.count_ones(), 3);
/// assert!((s.value() - 0.75).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Bitstream {
    words: Vec<u64>,
    len: usize,
}

impl Bitstream {
    /// Creates an all-zero stream of `len` bits (unipolar value 0.0).
    pub fn zeros(len: usize) -> Self {
        Bitstream {
            words: vec![0u64; len.div_ceil(64)],
            len,
        }
    }

    /// Creates an all-one stream of `len` bits (unipolar value 1.0).
    pub fn ones(len: usize) -> Self {
        let mut s = Bitstream {
            words: vec![!0u64; len.div_ceil(64)],
            len,
        };
        s.mask_tail();
        s
    }

    /// Builds a stream from individual bits, index 0 first.
    pub fn from_bits(bits: &[bool]) -> Self {
        let mut s = Bitstream::zeros(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            if b {
                s.set(i, true);
            }
        }
        s
    }

    /// Builds a stream directly from packed words.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidStreamLength`] if `words` is not exactly
    /// `len.div_ceil(64)` words long.
    pub fn from_words(words: Vec<u64>, len: usize) -> Result<Self, CoreError> {
        if words.len() != len.div_ceil(64) {
            return Err(CoreError::InvalidStreamLength {
                len,
                requirement: "word count must equal ceil(len / 64)",
            });
        }
        let mut s = Bitstream { words, len };
        s.mask_tail();
        Ok(s)
    }

    /// Number of bits in the stream.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the stream holds zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Borrow the packed words (tail bits beyond `len` are zero).
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Writes bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn set(&mut self, i: usize, v: bool) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let w = &mut self.words[i / 64];
        if v {
            *w |= 1 << (i % 64);
        } else {
            *w &= !(1 << (i % 64));
        }
    }

    /// Number of `1` bits.
    pub fn count_ones(&self) -> u64 {
        self.words.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// The unipolar value encoded by the stream: `count_ones / len`.
    ///
    /// Returns 0.0 for an empty stream.
    pub fn value(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.count_ones() as f64 / self.len as f64
        }
    }

    /// The bipolar value encoded by the stream: `2 * value - 1 ∈ [-1, 1]`.
    pub fn bipolar_value(&self) -> f64 {
        2.0 * self.value() - 1.0
    }

    /// Bitwise AND — unipolar multiplication of independent streams.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::LengthMismatch`] if the streams differ in length.
    pub fn and(&self, other: &Bitstream) -> Result<Bitstream, CoreError> {
        self.check_len(other)?;
        let words = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| a & b)
            .collect();
        Ok(Bitstream {
            words,
            len: self.len,
        })
    }

    /// Bitwise OR — saturating (scale-free) addition of unipolar streams.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::LengthMismatch`] if the streams differ in length.
    pub fn or(&self, other: &Bitstream) -> Result<Bitstream, CoreError> {
        self.check_len(other)?;
        let words = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| a | b)
            .collect();
        Ok(Bitstream {
            words,
            len: self.len,
        })
    }

    /// Bitwise XOR.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::LengthMismatch`] if the streams differ in length.
    pub fn xor(&self, other: &Bitstream) -> Result<Bitstream, CoreError> {
        self.check_len(other)?;
        let words = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| a ^ b)
            .collect();
        Ok(Bitstream {
            words,
            len: self.len,
        })
    }

    /// Bitwise NOT — computes `1 - v` in the unipolar domain.
    pub fn not(&self) -> Bitstream {
        let mut s = Bitstream {
            words: self.words.iter().map(|w| !w).collect(),
            len: self.len,
        };
        s.mask_tail();
        s
    }

    /// In-place OR (the accumulate step of a wide OR tree).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::LengthMismatch`] if the streams differ in length.
    pub fn or_assign(&mut self, other: &Bitstream) -> Result<(), CoreError> {
        self.check_len(other)?;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
        Ok(())
    }

    /// In-place AND (operand gating: ANDing with all-zeros freezes the lane).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::LengthMismatch`] if the streams differ in length.
    pub fn and_assign(&mut self, other: &Bitstream) -> Result<(), CoreError> {
        self.check_len(other)?;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
        Ok(())
    }

    /// Fused MAC step: `self |= a & b` in a single pass over the words.
    ///
    /// This is the inner loop of the OR-unipolar MAC datapath — one AND
    /// (unipolar multiply) feeding one OR (saturating accumulate) — without
    /// materialising the intermediate product stream. Equivalent to
    /// `self.or_assign(&a.and(b)?)` but allocation-free.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::LengthMismatch`] if either operand differs in
    /// length from `self`.
    pub fn or_assign_and(&mut self, a: &Bitstream, b: &Bitstream) -> Result<(), CoreError> {
        self.check_len(a)?;
        self.check_len(b)?;
        for ((acc, &x), &y) in self.words.iter_mut().zip(&a.words).zip(&b.words) {
            *acc |= x & y;
        }
        Ok(())
    }

    /// Clears every bit without touching the allocation.
    pub fn clear_bits(&mut self) {
        self.words.fill(0);
    }

    /// Concatenates two streams (used by computation-skipping pooling, §II-C:
    /// “instead of passing multiple streams through the pooling multiplexer we
    /// concatenate shorter streams”).
    pub fn concat(&self, other: &Bitstream) -> Bitstream {
        let mut bits = Vec::with_capacity(self.len + other.len);
        bits.extend(self.iter());
        bits.extend(other.iter());
        Bitstream::from_bits(&bits)
    }

    /// Returns the sub-stream `[start, start + count)`.
    ///
    /// Extracted word-parallel (shift-and-merge), not bit by bit.
    ///
    /// # Panics
    ///
    /// Panics if `start + count > self.len()`.
    pub fn slice(&self, start: usize, count: usize) -> Bitstream {
        assert!(
            start + count <= self.len,
            "slice [{start}, {}) out of range {}",
            start + count,
            self.len
        );
        let mut words = vec![0u64; count.div_ceil(64)];
        copy_bit_range(&self.words, start, count, &mut words);
        Bitstream { words, len: count }
    }

    /// Iterates over the bits, index 0 first.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            stream: self,
            idx: 0,
        }
    }

    /// Stochastic cross-correlation (SCC) between two streams.
    ///
    /// SCC is 0 for independent streams, +1 for maximally positively
    /// correlated and −1 for maximally negatively correlated streams
    /// (Alaghi & Hayes). Computation-skipping pooling produces correlated
    /// outputs; ACOUSTIC removes the correlation by converting to binary and
    /// regenerating streams each layer — this metric lets tests verify both
    /// halves of that statement.
    ///
    /// Returns 0.0 when either stream is constant (correlation undefined).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::LengthMismatch`] if the streams differ in length.
    pub fn scc(&self, other: &Bitstream) -> Result<f64, CoreError> {
        self.check_len(other)?;
        let n = self.len as f64;
        if n == 0.0 {
            return Ok(0.0);
        }
        let p1 = self.value();
        let p2 = other.value();
        let p12 = self.and(other)?.value();
        let delta = p12 - p1 * p2;
        let denom = if delta > 0.0 {
            p1.min(p2) - p1 * p2
        } else {
            p1 * p2 - (p1 + p2 - 1.0).max(0.0)
        };
        if denom.abs() < 1e-15 {
            Ok(0.0)
        } else {
            Ok(delta / denom)
        }
    }

    fn check_len(&self, other: &Bitstream) -> Result<(), CoreError> {
        if self.len != other.len {
            Err(CoreError::LengthMismatch {
                left: self.len,
                right: other.len,
            })
        } else {
            Ok(())
        }
    }

    fn mask_tail(&mut self) {
        let rem = self.len % 64;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
        if self.len == 0 {
            self.words.clear();
        }
    }
}

/// Copies the bit range `[start, start + count)` out of a packed word buffer
/// into `dst`, re-aligning so bit `start` lands at bit 0 of `dst[0]`.
///
/// Words of `dst` beyond the range and the tail bits of the last in-range
/// word are zeroed, so the result obeys the [`Bitstream`] tail invariant.
/// Reads past the end of `src` behave as if `src` were zero-extended. This is
/// the word-parallel segment-extraction primitive behind [`Bitstream::slice`]
/// and the simulator's segmented activation banks.
///
/// # Panics
///
/// Panics if `dst` holds fewer than `count.div_ceil(64)` words.
pub fn copy_bit_range(src: &[u64], start: usize, count: usize, dst: &mut [u64]) {
    let in_range = count.div_ceil(64);
    assert!(
        dst.len() >= in_range,
        "destination holds {} words, range needs {in_range}",
        dst.len()
    );
    let word0 = start / 64;
    let shift = start % 64;
    for (i, w) in dst[..in_range].iter_mut().enumerate() {
        let lo = src.get(word0 + i).copied().unwrap_or(0) >> shift;
        let hi = if shift == 0 {
            0
        } else {
            src.get(word0 + i + 1).copied().unwrap_or(0) << (64 - shift)
        };
        *w = lo | hi;
    }
    let rem = count % 64;
    if rem != 0 {
        dst[in_range - 1] &= (1u64 << rem) - 1;
    }
    for w in dst[in_range..].iter_mut() {
        *w = 0;
    }
}

/// Total popcount of a packed word buffer (the counter half of a fused MAC
/// group: OR-accumulated words in, ones count out).
pub fn count_ones_words(words: &[u64]) -> u64 {
    words.iter().map(|w| u64::from(w.count_ones())).sum()
}

/// Total popcount of a packed word buffer using the fastest implementation
/// the host supports: the AVX2 byte-lookup kernel when detected at run time,
/// the portable per-word path otherwise. Always bit-identical to
/// [`count_ones_words`].
pub fn count_ones_words_auto(words: &[u64]) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if x86::avx2_available() {
        // SAFETY: AVX2 presence was just verified via cpuid.
        return unsafe { x86::count_ones_words_avx2(words) };
    }
    count_ones_words(words)
}

/// x86-64 SIMD popcount kernel, dispatched at run time by
/// [`count_ones_words_auto`].
#[cfg(target_arch = "x86_64")]
pub mod x86 {
    use std::sync::OnceLock;

    /// Whether the AVX2 popcount is usable on this host (cpuid, cached).
    pub fn avx2_available() -> bool {
        static AVX2: OnceLock<bool> = OnceLock::new();
        *AVX2.get_or_init(|| std::is_x86_feature_detected!("avx2"))
    }

    /// Popcount of a packed word buffer via the Mula/Harley-Seal vectorized
    /// nibble lookup: each 256-bit lane is split into low/high nibbles,
    /// `vpshufb` maps every nibble to its ones count, and `vpsadbw`
    /// horizontally folds the byte counts into four 64-bit partial sums.
    /// Words beyond the last full 4-word chunk fall back to scalar popcount.
    ///
    /// # Safety
    ///
    /// The host must support AVX2 (check [`avx2_available`] first).
    #[target_feature(enable = "avx2")]
    pub unsafe fn count_ones_words_avx2(words: &[u64]) -> u64 {
        use std::arch::x86_64::*;
        #[rustfmt::skip]
        let lookup = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        );
        let low_mask = _mm256_set1_epi8(0x0f);
        let zero = _mm256_setzero_si256();
        let mut total = zero;
        let mut chunks = words.chunks_exact(4);
        for chunk in &mut chunks {
            // SAFETY: `chunk` is exactly 4 u64 = 32 bytes; unaligned load.
            let v = unsafe { _mm256_loadu_si256(chunk.as_ptr().cast()) };
            let lo = _mm256_and_si256(v, low_mask);
            let hi = _mm256_and_si256(_mm256_srli_epi32::<4>(v), low_mask);
            let counts = _mm256_add_epi8(
                _mm256_shuffle_epi8(lookup, lo),
                _mm256_shuffle_epi8(lookup, hi),
            );
            total = _mm256_add_epi64(total, _mm256_sad_epu8(counts, zero));
        }
        let mut lanes = [0u64; 4];
        // SAFETY: `lanes` is 32 bytes; unaligned store.
        unsafe { _mm256_storeu_si256(lanes.as_mut_ptr().cast(), total) };
        let mut sum = lanes[0] + lanes[1] + lanes[2] + lanes[3];
        for &w in chunks.remainder() {
            sum += u64::from(w.count_ones());
        }
        sum
    }
}

/// Iterator over the bits of a [`Bitstream`], produced by [`Bitstream::iter`].
#[derive(Debug)]
pub struct Iter<'a> {
    stream: &'a Bitstream,
    idx: usize,
}

impl Iterator for Iter<'_> {
    type Item = bool;

    fn next(&mut self) -> Option<bool> {
        if self.idx < self.stream.len() {
            let b = self.stream.get(self.idx);
            self.idx += 1;
            Some(b)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.stream.len() - self.idx;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl FromIterator<bool> for Bitstream {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let bits: Vec<bool> = iter.into_iter().collect();
        Bitstream::from_bits(&bits)
    }
}

impl std::fmt::Binary for Bitstream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for b in self.iter() {
            write!(f, "{}", if b { '1' } else { '0' })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones() {
        let z = Bitstream::zeros(100);
        assert_eq!(z.count_ones(), 0);
        assert_eq!(z.value(), 0.0);
        let o = Bitstream::ones(100);
        assert_eq!(o.count_ones(), 100);
        assert_eq!(o.value(), 1.0);
    }

    #[test]
    fn tail_bits_are_masked() {
        let o = Bitstream::ones(65);
        assert_eq!(o.as_words().len(), 2);
        assert_eq!(o.as_words()[1], 1);
        let n = o.not();
        assert_eq!(n.count_ones(), 0);
    }

    #[test]
    fn set_get_roundtrip() {
        let mut s = Bitstream::zeros(130);
        s.set(0, true);
        s.set(64, true);
        s.set(129, true);
        assert!(s.get(0) && s.get(64) && s.get(129));
        assert!(!s.get(1) && !s.get(63) && !s.get(128));
        assert_eq!(s.count_ones(), 3);
        s.set(64, false);
        assert_eq!(s.count_ones(), 2);
    }

    #[test]
    fn and_is_min_bound() {
        let a = Bitstream::from_bits(&[true, true, false, false]);
        let b = Bitstream::from_bits(&[true, false, true, false]);
        let p = a.and(&b).unwrap();
        assert_eq!(p.count_ones(), 1);
        assert!(p.count_ones() <= a.count_ones().min(b.count_ones()));
    }

    #[test]
    fn or_is_saturating() {
        let a = Bitstream::from_bits(&[true, true, false, false]);
        let b = Bitstream::from_bits(&[true, false, true, false]);
        let s = a.or(&b).unwrap();
        assert_eq!(s.count_ones(), 3);
        assert!(s.count_ones() >= a.count_ones().max(b.count_ones()));
        assert!(s.count_ones() <= a.count_ones() + b.count_ones());
    }

    #[test]
    fn not_complements() {
        let a = Bitstream::from_bits(&[true, false, true]);
        let n = a.not();
        assert_eq!(n.count_ones(), 1);
        assert!((a.value() + n.value() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn length_mismatch_is_error() {
        let a = Bitstream::zeros(8);
        let b = Bitstream::zeros(16);
        assert!(matches!(
            a.and(&b),
            Err(CoreError::LengthMismatch { left: 8, right: 16 })
        ));
    }

    #[test]
    fn concat_preserves_counts() {
        let a = Bitstream::from_bits(&[true, false]);
        let b = Bitstream::from_bits(&[true, true, true]);
        let c = a.concat(&b);
        assert_eq!(c.len(), 5);
        assert_eq!(c.count_ones(), 4);
        assert!(c.get(0) && !c.get(1) && c.get(2) && c.get(3) && c.get(4));
    }

    #[test]
    fn slice_extracts_segment() {
        let s = Bitstream::from_bits(&[true, false, true, true, false, false]);
        let mid = s.slice(2, 3);
        assert_eq!(mid.len(), 3);
        assert!(mid.get(0) && mid.get(1) && !mid.get(2));
    }

    #[test]
    fn slice_matches_bitwise_reference_across_offsets() {
        // Word-parallel slice must agree with a per-bit extraction for every
        // (start, count), including unaligned word-straddling ranges.
        let bits: Vec<bool> = (0..200).map(|i| (i * 7 + i / 13) % 3 == 0).collect();
        let s = Bitstream::from_bits(&bits);
        for start in [0usize, 1, 16, 63, 64, 65, 100, 127, 128, 130] {
            for count in [0usize, 1, 16, 17, 63, 64, 65, 70] {
                if start + count > s.len() {
                    continue;
                }
                let fast = s.slice(start, count);
                let slow: Bitstream = (start..start + count).map(|i| s.get(i)).collect();
                assert_eq!(fast, slow, "slice({start}, {count})");
            }
        }
    }

    #[test]
    fn or_assign_and_matches_two_step_form() {
        let bits = |seed: u64| -> Bitstream {
            (0..130)
                .map(|i| (seed.wrapping_mul(i as u64 + 3) >> 5) & 1 == 1)
                .collect()
        };
        let (a, b) = (bits(0x9E3779B9), bits(0x85EBCA6B));
        let mut fused = bits(0xC2B2AE35);
        let mut two_step = fused.clone();
        fused.or_assign_and(&a, &b).unwrap();
        two_step.or_assign(&a.and(&b).unwrap()).unwrap();
        assert_eq!(fused, two_step);

        let short = Bitstream::zeros(64);
        assert!(fused.or_assign_and(&short, &b).is_err());
        assert!(fused.or_assign_and(&a, &short).is_err());
    }

    #[test]
    fn clear_bits_zeroes_in_place() {
        let mut s = Bitstream::ones(130);
        s.clear_bits();
        assert_eq!(s.count_ones(), 0);
        assert_eq!(s.len(), 130);
    }

    #[test]
    fn copy_bit_range_zeroes_destination_tail() {
        let src = [!0u64; 3];
        let mut dst = [!0u64; 3];
        copy_bit_range(&src, 30, 70, &mut dst);
        // 70 bits: words 0 full, word 1 holds 6 bits, word 2 out of range.
        assert_eq!(dst[0], !0);
        assert_eq!(dst[1], (1 << 6) - 1);
        assert_eq!(dst[2], 0);
        // Reads past src's end act as zeros.
        let mut over = [!0u64; 2];
        copy_bit_range(&src, 150, 80, &mut over);
        assert_eq!(over[0], (1 << 42) - 1, "only 42 in-bounds bits remain");
        assert_eq!(over[1], 0);
    }

    #[test]
    fn count_ones_words_matches_stream_count() {
        let s = Bitstream::from_bits(&[true, false, true, true, false, true]);
        assert_eq!(count_ones_words(s.as_words()), s.count_ones());
        assert_eq!(count_ones_words(&[]), 0);
    }

    #[test]
    fn auto_popcount_matches_scalar_for_all_alignments() {
        // Deterministic xorshift fill; lengths cover empty, sub-chunk, exact
        // multi-chunk, and ragged tails around the 4-word SIMD chunk size.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for len in 0usize..=67 {
            let words: Vec<u64> = (0..len)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state
                })
                .collect();
            assert_eq!(
                count_ones_words_auto(&words),
                count_ones_words(&words),
                "len {len}"
            );
            #[cfg(target_arch = "x86_64")]
            if x86::avx2_available() {
                // SAFETY: AVX2 detected.
                let simd = unsafe { x86::count_ones_words_avx2(&words) };
                assert_eq!(simd, count_ones_words(&words), "len {len}");
            }
        }
    }

    #[test]
    fn bipolar_value_maps_range() {
        assert_eq!(Bitstream::ones(8).bipolar_value(), 1.0);
        assert_eq!(Bitstream::zeros(8).bipolar_value(), -1.0);
        let half = Bitstream::from_bits(&[true, false, true, false]);
        assert_eq!(half.bipolar_value(), 0.0);
    }

    #[test]
    fn scc_identical_streams_is_one() {
        let a = Bitstream::from_bits(&[true, false, true, false, true, false, false, false]);
        assert!((a.scc(&a).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn scc_disjoint_streams_is_negative() {
        let a = Bitstream::from_bits(&[true, true, false, false]);
        let b = Bitstream::from_bits(&[false, false, true, true]);
        assert!(a.scc(&b).unwrap() < -0.99);
    }

    #[test]
    fn scc_constant_stream_is_zero() {
        let a = Bitstream::ones(16);
        let b = Bitstream::from_bits(&[true; 16]);
        assert_eq!(a.scc(&b).unwrap(), 0.0);
    }

    #[test]
    fn from_words_validates_count() {
        assert!(Bitstream::from_words(vec![0u64; 1], 100).is_err());
        let s = Bitstream::from_words(vec![!0u64; 2], 100).unwrap();
        assert_eq!(s.count_ones(), 100);
    }

    #[test]
    fn iterator_roundtrip() {
        let bits = vec![true, false, false, true, true];
        let s: Bitstream = bits.iter().copied().collect();
        let back: Vec<bool> = s.iter().collect();
        assert_eq!(bits, back);
    }

    #[test]
    fn binary_format() {
        let s = Bitstream::from_bits(&[true, false, true]);
        assert_eq!(format!("{s:b}"), "101");
    }
}
