//! AVX-512 tile block (x86-64 with `avx512f`, runtime-dispatched).
//!
//! The one SIMD path the kernel layer keeps: the single-word,
//! single-OR-group lockstep tile walk packs **8 images per register** —
//! one image per 64-bit lane, with `vpcmpeqq`'s mask register giving the
//! all-saturated early exit in a single compare. It is the shape every
//! zoo model runs on its batched paths (stream length ≤ 64 makes every
//! segment one word). Semantics are identical to [`scalar`];
//! equivalence is test-enforced.

use super::scalar;
use super::{KernelStats, TilePhaseArgs, TileState, WeightedLane};

/// Images per 512-bit register in the lockstep tile walk.
const TILE_LANES: usize = 8;

/// The lockstep walk of a single-word, single-group tile phase (see
/// [`scalar::mac_phase_tile_word_single`]); `state` arrives reset.
pub(super) fn mac_phase_tile_word_single(
    args: &TilePhaseArgs<'_>,
    state: &mut TileState<'_>,
    stats: &mut KernelStats,
) {
    // SAFETY: dispatch resolves `KernelKind::Avx512` only on hosts where
    // cpuid reported avx512f (`active_kernel`).
    unsafe { mac_phase_tile_word_single_avx512(args, state, stats) }
}

/// Tile-vectorized lockstep walk: 8 images per 512-bit accumulator, one
/// masked compare per lane for the all-saturated early exit, scalar tail
/// for the final `tile % 8` images (the whole tile when it has fewer than
/// 8). Bit-identical to the scalar lockstep walk — AND/OR/popcount are
/// exact in any order and gated/zero lanes hold all-zero words.
///
/// # Safety
///
/// The host must support `avx512f`.
#[target_feature(enable = "avx512f")]
unsafe fn mac_phase_tile_word_single_avx512(
    args: &TilePhaseArgs<'_>,
    state: &mut TileState<'_>,
    stats: &mut KernelStats,
) {
    use std::arch::x86_64::*;
    let tile = args.banks.len();
    let lanes = args.lanes;
    // The window is a bit pattern; sign-reinterpreting is lossless.
    let maskv = _mm512_set1_epi64(args.window as i64);
    let mut base = 0usize;
    while base + TILE_LANES <= tile {
        let b: [&[u64]; TILE_LANES] =
            std::array::from_fn(|t| args.banks[base + t].words.as_slice());
        let mut acc = _mm512_setzero_si512();
        for &WeightedLane { n, word, w } in state.weighted.iter() {
            // The weight word arrives cut from its cycle and shifted onto
            // the segment; its zero bits drop the neighbouring segments.
            let wv = _mm512_set1_epi64(w as i64);
            let av = _mm512_set_epi64(
                b[7][word] as i64,
                b[6][word] as i64,
                b[5][word] as i64,
                b[4][word] as i64,
                b[3][word] as i64,
                b[2][word] as i64,
                b[1][word] as i64,
                b[0][word] as i64,
            );
            acc = _mm512_or_si512(acc, _mm512_and_si512(av, wv));
            stats.mac_lanes += TILE_LANES as u64;
            // Accumulator lanes never leave the segment's window, so
            // lane-equality with the window is exactly the
            // per-image saturation test; an all-ones mask register means
            // every image of the block saturated.
            if _mm512_cmpeq_epi64_mask(acc, maskv) == 0xFF {
                stats.sat_lanes_skipped += ((lanes.len() - n - 1) * TILE_LANES) as u64;
                break;
            }
        }
        let mut out = [0u64; TILE_LANES];
        // SAFETY: `out` is 64 bytes; unaligned store is allowed.
        _mm512_storeu_si512(out.as_mut_ptr().cast(), acc);
        for (t, &acc_w) in out.iter().enumerate() {
            state.phase[base + t] = u64::from(acc_w.count_ones());
            if acc_w == args.window {
                stats.sat_group_exits += 1;
            }
        }
        base += TILE_LANES;
    }
    scalar::mac_phase_tile_word_single(args, state, stats, base);
}
