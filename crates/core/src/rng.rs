//! Random sources for stochastic number generation.
//!
//! ACOUSTIC uses LFSR-based SNGs (§III-A: “our experiments using TSMC 28nm
//! library and LFSR-based SNGs”). This module provides maximal-length
//! Fibonacci LFSRs for widths 4–32 plus a counter-based *deterministic*
//! sequence useful as a low-discrepancy alternative in tests.

use crate::CoreError;

/// Maximal-length feedback tap sets (1-indexed from the output bit, as in the
/// Xilinx XAPP052 table). Each entry yields a sequence of period `2^w − 1`.
const TAPS: &[(u32, &[u32])] = &[
    (4, &[4, 3]),
    (5, &[5, 3]),
    (6, &[6, 5]),
    (7, &[7, 6]),
    (8, &[8, 6, 5, 4]),
    (9, &[9, 5]),
    (10, &[10, 7]),
    (11, &[11, 9]),
    (12, &[12, 6, 4, 1]),
    (13, &[13, 4, 3, 1]),
    (14, &[14, 5, 3, 1]),
    (15, &[15, 14]),
    (16, &[16, 15, 13, 4]),
    (17, &[17, 14]),
    (18, &[18, 11]),
    (19, &[19, 6, 2, 1]),
    (20, &[20, 17]),
    (21, &[21, 19]),
    (22, &[22, 21]),
    (23, &[23, 18]),
    (24, &[24, 23, 22, 17]),
    (32, &[32, 22, 2, 1]),
];

/// A Fibonacci linear-feedback shift register with maximal-length taps.
///
/// The register never holds the all-zero state; its output visits every value
/// in `1..2^width` exactly once per period, which makes it a uniform source
/// over that range for SNG threshold comparison.
///
/// # Examples
///
/// ```
/// use acoustic_core::Lfsr;
///
/// # fn main() -> Result<(), acoustic_core::CoreError> {
/// let mut lfsr = Lfsr::maximal(8, 0x5A)?;
/// let first = lfsr.next_value();
/// // Period of a maximal 8-bit LFSR is 255.
/// for _ in 0..254 {
///     lfsr.next_value();
/// }
/// assert_eq!(lfsr.next_value(), first);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Lfsr {
    state: u32,
    width: u32,
    tap_mask: u32,
}

impl Lfsr {
    /// Creates a maximal-length LFSR of the given bit `width`, seeded with
    /// `seed` (only the low `width` bits are used; a zero result is a
    /// lock-up state and rejected).
    ///
    /// # Errors
    ///
    /// * [`CoreError::UnsupportedLfsrWidth`] if no tap set exists for `width`.
    /// * [`CoreError::ZeroLfsrSeed`] if `seed & mask == 0`.
    pub fn maximal(width: u32, seed: u32) -> Result<Self, CoreError> {
        let taps = TAPS
            .iter()
            .find(|(w, _)| *w == width)
            .map(|(_, t)| *t)
            .ok_or(CoreError::UnsupportedLfsrWidth(width))?;
        let mask = Self::mask_for(width);
        let state = seed & mask;
        if state == 0 {
            return Err(CoreError::ZeroLfsrSeed);
        }
        let mut tap_mask = 0u32;
        for &t in taps {
            tap_mask |= 1 << (t - 1);
        }
        Ok(Lfsr {
            state,
            width,
            tap_mask,
        })
    }

    /// Register width in bits.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// The current register contents (in `1..2^width`).
    pub fn state(&self) -> u32 {
        self.state
    }

    /// The feedback tap set as a mask over the register's bits.
    pub(crate) fn tap_mask(&self) -> u32 {
        self.tap_mask
    }

    /// Exclusive upper bound of the output range, `2^width`.
    pub fn range(&self) -> u64 {
        1u64 << self.width
    }

    /// Advances one cycle and returns the new register value.
    pub fn next_value(&mut self) -> u32 {
        let fb = (self.state & self.tap_mask).count_ones() & 1;
        self.state = ((self.state << 1) | fb) & Self::mask_for(self.width);
        self.state
    }

    fn mask_for(width: u32) -> u32 {
        if width == 32 {
            !0
        } else {
            (1u32 << width) - 1
        }
    }
}

/// A deterministic ramp sequence (`1, 2, …, 2^width − 1, 1, …`).
///
/// Used as a *low-discrepancy* comparison source: with a ramp, an SNG emits
/// exactly `round(v·(2^w − 1))` ones per period with zero random error, which
/// isolates quantization error from stochastic fluctuation in experiments.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RampSequence {
    state: u32,
    width: u32,
}

impl RampSequence {
    /// Creates a ramp over `1..2^width`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnsupportedLfsrWidth`] for widths outside 1..=32.
    pub fn new(width: u32) -> Result<Self, CoreError> {
        if width == 0 || width > 32 {
            return Err(CoreError::UnsupportedLfsrWidth(width));
        }
        Ok(RampSequence { state: 0, width })
    }

    /// Register width in bits.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Advances one cycle and returns the new value (skips 0, like an LFSR).
    pub fn next_value(&mut self) -> u32 {
        let mask = if self.width == 32 {
            !0
        } else {
            (1u32 << self.width) - 1
        };
        self.state = (self.state + 1) & mask;
        if self.state == 0 {
            self.state = 1;
        }
        self.state
    }
}

/// Anything that can drive an SNG comparator: yields uniform values in
/// `1..2^width` one per cycle.
pub trait RandomSource: std::fmt::Debug {
    /// Width of the produced values in bits.
    fn width(&self) -> u32;
    /// Advances one cycle and returns the new value.
    fn next_value(&mut self) -> u32;
}

impl RandomSource for Lfsr {
    fn width(&self) -> u32 {
        self.width
    }
    fn next_value(&mut self) -> u32 {
        Lfsr::next_value(self)
    }
}

impl RandomSource for RampSequence {
    fn width(&self) -> u32 {
        self.width
    }
    fn next_value(&mut self) -> u32 {
        RampSequence::next_value(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn all_table_widths_are_maximal() {
        // Exhaustively verify period 2^w − 1 for small widths.
        for &(w, _) in TAPS.iter().filter(|(w, _)| *w <= 16) {
            let mut lfsr = Lfsr::maximal(w, 1).unwrap();
            let period = (1u64 << w) - 1;
            let mut seen = HashSet::new();
            for _ in 0..period {
                assert!(seen.insert(lfsr.next_value()), "width {w} repeated early");
            }
            assert_eq!(seen.len() as u64, period, "width {w} period wrong");
            assert!(!seen.contains(&0), "width {w} hit the zero state");
        }
    }

    #[test]
    fn zero_seed_rejected() {
        assert!(matches!(Lfsr::maximal(8, 0), Err(CoreError::ZeroLfsrSeed)));
        // Seed with only high bits masked away is also zero.
        assert!(matches!(
            Lfsr::maximal(8, 0x100),
            Err(CoreError::ZeroLfsrSeed)
        ));
    }

    #[test]
    fn unsupported_width_rejected() {
        assert!(matches!(
            Lfsr::maximal(33, 1),
            Err(CoreError::UnsupportedLfsrWidth(33))
        ));
        assert!(matches!(
            Lfsr::maximal(25, 1),
            Err(CoreError::UnsupportedLfsrWidth(25))
        ));
    }

    #[test]
    fn width_32_steps_without_panic() {
        let mut lfsr = Lfsr::maximal(32, 0xDEADBEEF).unwrap();
        let mut seen = HashSet::new();
        for _ in 0..10_000 {
            assert!(seen.insert(lfsr.next_value()));
        }
    }

    #[test]
    fn ramp_visits_all_values() {
        let mut ramp = RampSequence::new(4).unwrap();
        let vals: Vec<u32> = (0..15).map(|_| ramp.next_value()).collect();
        let expect: Vec<u32> = (1..16).collect();
        assert_eq!(vals, expect);
        assert_eq!(ramp.next_value(), 1); // wraps, skipping 0
    }

    #[test]
    fn lfsr_is_uniform_over_period() {
        let mut lfsr = Lfsr::maximal(10, 0x3FF).unwrap();
        let period = (1u32 << 10) - 1;
        let mut sum: u64 = 0;
        for _ in 0..period {
            sum += lfsr.next_value() as u64;
        }
        // Sum of 1..1023 == 1023 * 1024 / 2.
        assert_eq!(sum, 1023 * 1024 / 2);
    }
}
