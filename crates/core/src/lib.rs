//! Stochastic-computing primitives for the ACOUSTIC accelerator reproduction.
//!
//! This crate implements the algorithmic layer of *“ACOUSTIC: Accelerating
//! Convolutional Neural Networks through Or-Unipolar Skipped Stochastic
//! Computing”* (DATE 2020):
//!
//! * [`Bitstream`] — a packed (64 bits/word) stochastic bitstream with
//!   bit-parallel logic ops,
//! * [`Lfsr`] — maximal-length linear-feedback shift registers used as the
//!   shared random sources of stochastic number generators,
//! * [`Sng`] / [`SngBank`] — stochastic number generators converting
//!   fixed-point values into bitstreams,
//! * [`LfsrOrbit`] — one period of a maximal LFSR, of which every SNG
//!   stream is a window,
//! * [`gates`] — single-gate SC arithmetic (AND multiply, MUX scaled add,
//!   OR saturating add),
//! * [`accumulate`] — wide OR-based scale-free accumulation and its exact
//!   expected-value model,
//! * [`split_unipolar`] — the paper's two-phase split-unipolar representation
//!   and MAC datapath (Fig. 1),
//! * [`counter`] — up/down output counters with ReLU and pooling support,
//! * [`pooling`] — computation-skipping stochastic average pooling (§II-C),
//! * [`error`] — analytic RMS-error models for unipolar/bipolar streams and
//!   Monte-Carlo helpers (§II-A).
//!
//! # Quick example: one stochastic multiply-accumulate
//!
//! ```
//! use acoustic_core::{Sng, Lfsr, gates};
//!
//! # fn main() -> Result<(), acoustic_core::CoreError> {
//! let n = 1024;
//! let mut sng_a = Sng::new(Lfsr::maximal(16, 0xACE1)?, 16);
//! let mut sng_b = Sng::new(Lfsr::maximal(16, 0xBEEF)?, 16);
//! let a = sng_a.generate(0.5, n)?;
//! let b = sng_b.generate(0.5, n)?;
//! let prod = gates::and_mul(&a, &b)?;
//! let v = prod.value();
//! assert!((v - 0.25).abs() < 0.05);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod accumulate;
pub mod bitstream;
pub mod counter;
pub mod error;
pub mod fsm;
pub mod gates;
pub mod orbit;
pub mod pooling;
pub mod prng;
pub mod rng;
pub mod sng;
pub mod split_unipolar;

mod core_error;

pub use accumulate::{or_accumulate, or_expected, OrAccumulator};
pub use bitstream::Bitstream;
pub use core_error::CoreError;
pub use counter::UpDownCounter;
pub use orbit::LfsrOrbit;
pub use prng::DetRng;
pub use rng::Lfsr;
pub use sng::{Sng, SngBank};
pub use split_unipolar::{SplitUnipolarMac, SplitWeight};
