//! The orbit of a maximal-length LFSR.
//!
//! A maximal `w`-bit LFSR visits every nonzero state exactly once per period
//! `P = 2^w − 1`, so its seed only chooses where on that one cycle the walk
//! starts. An SNG fed by it (comparator as wide as the register) therefore
//! emits, for seed `s` and threshold `T`,
//!
//! ```text
//! stream(s, T)[t] = [V[(pos(s) + t) mod P] <= T]
//! ```
//!
//! where `V` is the register's output sequence over one period and `pos`
//! maps each state to its place in the walk. [`LfsrOrbit`] records `pos`
//! in one walk. Every stream of a threshold is then a window of one bit
//! cycle ([`LfsrOrbit::cycles`]), so a stream can be read without stepping
//! the register — bit-identical to [`Sng::fill_quantized`](crate::Sng).

use crate::{CoreError, Lfsr};

/// Widest register an orbit is tabulated for (one `u16` per state).
const MAX_ORBIT_WIDTH: u32 = 16;

/// One period of a maximal-length LFSR, walked from state 1: each state's
/// position in the walk, and the bit cycles of thresholds along it.
///
/// # Examples
///
/// ```
/// use acoustic_core::bitstream::copy_bit_range;
/// use acoustic_core::{Lfsr, LfsrOrbit, Sng};
///
/// # fn main() -> Result<(), acoustic_core::CoreError> {
/// let orbit = LfsrOrbit::maximal(16)?;
/// let (seed, threshold, n) = (0x1234, 20_000, 96);
/// let mut walked = [0u64; 2];
/// Sng::new(Lfsr::maximal(16, seed)?, 16).fill_quantized(threshold, n, &mut walked);
/// // The stream is the bit range [pos, pos + n) of the threshold's cycle.
/// let cycle = orbit.cycles(&[threshold], n);
/// let mut window = [0u64; 2];
/// copy_bit_range(&cycle, orbit.position(seed)?, n, &mut window);
/// assert_eq!(walked, window);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LfsrOrbit {
    width: u32,
    /// `position[s]`: the walk index of state `s` (entry 0 unused).
    position: Vec<u16>,
}

impl LfsrOrbit {
    /// Walks one period of the maximal `width`-bit LFSR, recording where
    /// each state sits.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnsupportedLfsrWidth`] for widths without a tap set or
    /// wider than 16 bits.
    pub fn maximal(width: u32) -> Result<Self, CoreError> {
        if width > MAX_ORBIT_WIDTH {
            return Err(CoreError::UnsupportedLfsrWidth(width));
        }
        let tap_mask = Lfsr::maximal(width, 1)?.tap_mask();
        let period = (1usize << width) - 1;
        // The register's state is its last `width` shifted-in bits, and the
        // bit shifted in is the parity of the tapped bits. The nearest tap
        // (bit `c − 1`) lags the next bit by `c` steps, so `c` feedback
        // bits come out of one history word at once: a tap at bit `b`
        // feeds them from history bits `b − (c − 1) ..= b`.
        let c = tap_mask.trailing_zeros() + 1;
        let shifts: Vec<u32> = (0..32)
            .filter(|b| tap_mask >> b & 1 == 1)
            .map(|b| b + 1 - c)
            .collect();
        let c = c as usize;
        let new_bits = (1u64 << c) - 1;
        // State 1 sits at walk index 0.
        let mut history = 1u64;
        let mut position = vec![0u16; period + 1];
        for first in (1..period).step_by(c) {
            let feedback = shifts.iter().fold(0, |x, &s| x ^ (history >> s));
            // Oldest new bit highest: the order one step at a time yields.
            history = (history << c) | (feedback & new_bits);
            for k in 0..c.min(period - first) {
                // Walk indices stay below 2^16.
                position[(history >> (c - 1 - k)) as usize & period] = (first + k) as u16;
            }
        }
        Ok(LfsrOrbit { width, position })
    }

    /// Cycle length `P = 2^width − 1`.
    pub fn period(&self) -> usize {
        (1 << self.width) - 1
    }

    /// Where the walk of a register seeded with `seed` starts: the register
    /// emits the orbit's values from this index on.
    ///
    /// # Errors
    ///
    /// [`CoreError::ZeroLfsrSeed`] if the seed's low `width` bits are zero.
    pub fn position(&self, seed: u32) -> Result<usize, CoreError> {
        let state = seed as usize & self.period();
        if state == 0 {
            return Err(CoreError::ZeroLfsrSeed);
        }
        Ok(usize::from(self.position[state]))
    }

    /// Words per cycle returned by [`LfsrOrbit::cycles`] for `extra`.
    pub fn cycle_words(&self, extra: usize) -> usize {
        (self.period() + extra).div_ceil(64) + 1
    }

    /// The bit cycle of every threshold, back to back,
    /// [`cycle_words(extra)`](LfsrOrbit::cycle_words) words each.
    ///
    /// Bit `i` of threshold `T`'s cycle is `[V[i mod P] <= T]` for
    /// `i < P + extra`, where `V[i]` is what the register emits on the
    /// step after it holds the walk's `i`-th state; the cycle ends with
    /// one zero word. So the `n`-bit stream of the register seeded at
    /// position `p` is the bit range `[p, p + n)` of the cycle — no window
    /// wraps while `n <= extra` — and a two-word read at any bit below
    /// `P + extra` stays inside the cycle.
    ///
    /// `V` visits every nonzero value once per period, so the cycle of
    /// `T` has exactly the bits at the orbit indices of the values `1..=T`.
    /// Visiting the values in ascending order, each value's bit is set only
    /// in the cycle of the smallest threshold at or above it; OR-ing the
    /// cycles together in ascending threshold order then fills in the
    /// larger thresholds.
    pub fn cycles(&self, thresholds: &[u32], extra: usize) -> Vec<u64> {
        let period = self.period();
        let stride = self.cycle_words(extra);
        let mut words = vec![0u64; thresholds.len() * stride];
        let mut order: Vec<usize> = (0..thresholds.len()).collect();
        order.sort_by_key(|&k| thresholds[k]);
        let mut next_value = 1usize;
        for &k in &order {
            let cycle = &mut words[k * stride..(k + 1) * stride];
            let last = (thresholds[k] as usize).min(period);
            for v in next_value..=last {
                // `V[i] = v` exactly when state `v` sits at walk index
                // `i + 1`; state 1 starts the walk, so it is `V[P − 1]`.
                let i = usize::from(self.position[v])
                    .checked_sub(1)
                    .unwrap_or(period - 1);
                cycle[i / 64] |= 1 << (i % 64);
            }
            next_value = next_value.max(last + 1);
        }
        for pair in order.windows(2) {
            let (smaller, larger) = (pair[0] * stride, pair[1] * stride);
            for w in 0..period.div_ceil(64) {
                words[larger + w] |= words[smaller + w];
            }
        }
        for cycle in words.chunks_exact_mut(stride) {
            for i in period..period + extra {
                let j = i - period;
                cycle[i / 64] |= (cycle[j / 64] >> (j % 64) & 1) << (i % 64);
            }
        }
        words
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitstream::copy_bit_range;
    use crate::Sng;

    #[test]
    fn walk_visits_every_state_once() {
        for width in [4u32, 8, 16] {
            let orbit = LfsrOrbit::maximal(width).unwrap();
            let period = (1usize << width) - 1;
            assert_eq!(orbit.period(), period);
            let mut seen = vec![false; period];
            for seed in 1..=period as u32 {
                let p = orbit.position(seed).unwrap();
                assert!(!seen[p], "width {width}: two states at position {p}");
                seen[p] = true;
            }
        }
        assert!(LfsrOrbit::maximal(24).is_err());
        let orbit = LfsrOrbit::maximal(16).unwrap();
        assert!(matches!(orbit.position(0), Err(CoreError::ZeroLfsrSeed)));
        // Only the low 16 bits seed the register, as in `Lfsr::maximal`.
        assert_eq!(
            orbit.position(0x1_0007).unwrap(),
            orbit.position(7).unwrap()
        );
    }

    /// Every seed of the 16-bit register, the threshold edges and interior
    /// points, at lengths covering partial, whole and multi-word streams,
    /// plus windows longer than a period: the stream's window of its
    /// threshold's cycle is the SNG's stream.
    #[test]
    fn orbit_windows_equal_sng_streams_for_every_seed() {
        let orbit = LfsrOrbit::maximal(16).unwrap();
        let thresholds = [0u32, 1, 2, 100, 9999, 32767, 40000, 65533, 65534, 65535];
        let long = orbit.period() + 300;
        let stride = orbit.cycle_words(long);
        let cycles = orbit.cycles(&thresholds, long);
        assert_eq!(cycles.len(), thresholds.len() * stride);
        let mut walked = vec![0u64; long.div_ceil(64)];
        let mut window = walked.clone();
        for seed in 1..=orbit.period() as u32 {
            let pos = orbit.position(seed).unwrap();
            for (&threshold, cycle) in thresholds.iter().zip(cycles.chunks_exact(stride)) {
                let wraps = seed % 4099 == 1;
                for n in [1usize, 8, 32, 63, 64, 96, 200, long] {
                    if n == long && !wraps {
                        continue;
                    }
                    let lfsr = Lfsr::maximal(16, seed).unwrap();
                    Sng::new(lfsr, 16).fill_quantized(threshold, n, &mut walked);
                    copy_bit_range(cycle, pos, n, &mut window);
                    let w = n.div_ceil(64);
                    assert_eq!(walked[..w], window[..w], "seed {seed} T {threshold} n {n}");
                }
            }
        }
    }
}
