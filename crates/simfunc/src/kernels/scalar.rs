//! Portable scalar MAC kernel — the golden reference the AVX-512 tile
//! block must match bit-for-bit, and the kernel for every other shape.
//!
//! Single-word segments (streams ≤ 64 bits per segment, the common LeNet
//! shapes) keep the OR accumulator in a register; multi-word segments merge
//! word-by-word into the caller's scratch accumulator. Both paths implement
//! OR-saturation short-circuiting and zero-segment skipping (see the
//! [module docs](crate::kernels) for why both are exact).

use acoustic_core::bitstream::count_ones_words;

use super::{KernelStats, PhaseArgs, TilePhaseArgs, TileState};

/// One MAC phase over one segment; returns the phase's ones count.
///
/// `acc` must hold `seg_words` zeroed words on entry and is returned
/// zeroed.
pub(crate) fn mac_phase(args: &PhaseArgs<'_>, acc: &mut [u64], stats: &mut KernelStats) -> u64 {
    if args.geom.seg_words == 1 {
        mac_phase_word(args, stats)
    } else {
        mac_phase_words(args, acc, stats)
    }
}

/// Single-word segments: the whole OR group lives in one register.
fn mac_phase_word(args: &PhaseArgs<'_>, stats: &mut KernelStats) -> u64 {
    let geom = args.geom;
    let single = geom.single_group();
    let mut phase = 0u64;
    let mut acc_w = 0u64;
    let mut in_group = 0usize;
    let mut saturated = false;
    for (n, &(seg_idx, w_base)) in args.lanes.iter().enumerate() {
        let w_idx = args.w_off + w_base;
        if !args.present[w_idx] {
            continue; // weight has no component in this phase
        }
        if saturated {
            stats.sat_lanes_skipped += 1;
        } else {
            let act = args.act_words[seg_idx];
            if act == 0 {
                stats.zero_seg_skips += 1;
            } else {
                stats.mac_lanes += 1;
                let slot = args.w_slot(w_idx);
                acc_w |= act & args.bank_words[slot * geom.segments + args.segment];
                if acc_w == geom.sat_mask {
                    saturated = true;
                    stats.sat_group_exits += 1;
                    if single {
                        // One group for the whole fan-in: every remaining
                        // lane ORs into an already-full accumulator, so the
                        // final count is fixed — exit the lane loop.
                        stats.sat_lanes_skipped += (args.lanes.len() - n - 1) as u64;
                        return phase + geom.seg_len as u64;
                    }
                }
            }
        }
        in_group += 1;
        if in_group == geom.group {
            phase += if saturated {
                geom.seg_len as u64
            } else {
                u64::from(acc_w.count_ones())
            };
            acc_w = 0;
            in_group = 0;
            saturated = false;
        }
    }
    if in_group > 0 {
        phase += if saturated {
            geom.seg_len as u64
        } else {
            u64::from(acc_w.count_ones())
        };
    }
    phase
}

/// Whether a multi-word accumulator has every in-segment bit set.
#[inline]
fn is_saturated(acc: &[u64], sat_mask: u64) -> bool {
    let (last, body) = acc.split_last().expect("accumulator is non-empty");
    // The last word is the cheap filter: until a group nears saturation it
    // almost never equals the mask, so the body scan rarely runs.
    *last == sat_mask && body.iter().all(|&w| w == !0)
}

/// Multi-word segments: merge word-by-word into the scratch accumulator.
fn mac_phase_words(args: &PhaseArgs<'_>, acc: &mut [u64], stats: &mut KernelStats) -> u64 {
    let geom = args.geom;
    let sw = geom.seg_words;
    debug_assert_eq!(acc.len(), sw);
    debug_assert!(
        acc.iter().all(|&w| w == 0),
        "accumulator must arrive zeroed"
    );
    let single = geom.single_group();
    let mut phase = 0u64;
    let mut in_group = 0usize;
    let mut saturated = false;
    for (n, &(seg_idx, w_base)) in args.lanes.iter().enumerate() {
        let w_idx = args.w_off + w_base;
        if !args.present[w_idx] {
            continue;
        }
        if saturated {
            stats.sat_lanes_skipped += 1;
        } else if args.seg_zero[seg_idx] {
            stats.zero_seg_skips += 1;
        } else {
            stats.mac_lanes += 1;
            let a_base = seg_idx * sw;
            let wb = (args.w_slot(w_idx) * geom.segments + args.segment) * sw;
            let act = &args.act_words[a_base..a_base + sw];
            let wgt = &args.bank_words[wb..wb + sw];
            for ((acc_w, &aw), &ww) in acc.iter_mut().zip(act).zip(wgt) {
                *acc_w |= aw & ww;
            }
            if is_saturated(acc, geom.sat_mask) {
                saturated = true;
                stats.sat_group_exits += 1;
                if single {
                    stats.sat_lanes_skipped += (args.lanes.len() - n - 1) as u64;
                    acc.fill(0);
                    return phase + geom.seg_len as u64;
                }
            }
        }
        in_group += 1;
        if in_group == geom.group {
            phase += if saturated {
                geom.seg_len as u64
            } else {
                count_ones_words(acc)
            };
            acc.fill(0);
            in_group = 0;
            saturated = false;
        }
    }
    if in_group > 0 {
        phase += if saturated {
            geom.seg_len as u64
        } else {
            count_ones_words(acc)
        };
        acc.fill(0);
    }
    phase
}

/// Lockstep walk over images `start..tile`: single-word segments, whole
/// fan-in in one OR group. Gated and all-zero lanes hold all-zero words, so
/// merging them is a no-op and slot accounting is irrelevant (one group,
/// one final popcount) — every image shares the unfiltered lane walk with
/// *no per-image branches* in the inner loop: an unconditional OR is
/// cheaper than predicting a skip, and a running AND of the accumulators
/// detects the all-saturated exit. The AVX-512 block runs this over the
/// last `tile % 8` images.
pub(super) fn mac_phase_tile_word_single(
    args: &TilePhaseArgs<'_>,
    state: &mut TileState<'_>,
    stats: &mut KernelStats,
    start: usize,
) {
    let geom = args.geom;
    let tile = args.banks.len();
    let banks = &args.banks[start..tile];
    let TileState { accs, phase, .. } = state;
    let accs = &mut accs[start..tile];
    if banks.is_empty() {
        return;
    }
    for (n, &(a_idx, w_base)) in args.lanes.iter().enumerate() {
        let w_idx = args.w_off + w_base;
        if !args.present[w_idx] {
            continue;
        }
        let w = args.bank_words[args.w_slot(w_idx) * geom.segments + args.segment];
        let seg_idx = a_idx * geom.segments + args.segment;
        // Accumulator words never exceed `sat_mask` (bank tail-bit
        // invariant), so the AND chain equals the mask exactly when every
        // image's group has saturated.
        let mut all = geom.sat_mask;
        for (acc, bank) in accs.iter_mut().zip(banks) {
            *acc |= bank.words[seg_idx] & w;
            all &= *acc;
        }
        stats.mac_lanes += banks.len() as u64;
        if all == geom.sat_mask {
            // Every image of the tile saturated: the rest of the weight
            // walk is a no-op for all of them.
            stats.sat_lanes_skipped += ((args.lanes.len() - n - 1) * banks.len()) as u64;
            break;
        }
    }
    for (t, &acc) in accs.iter().enumerate() {
        // A saturated accumulator popcounts to `seg_len` by definition, so
        // no per-image saturation flags are needed.
        phase[start + t] = u64::from(acc.count_ones());
        if acc == geom.sat_mask {
            stats.sat_group_exits += 1;
        }
    }
}

/// General tiled path: per-image gating, OR-group slot accounting, and
/// saturation tracking — group boundaries may diverge between images.
pub(super) fn mac_phase_tile_general(
    args: &TilePhaseArgs<'_>,
    state: &mut TileState<'_>,
    stats: &mut KernelStats,
) {
    let geom = args.geom;
    let sw = geom.seg_words;
    for &(a_idx, w_base) in args.lanes {
        let w_idx = args.w_off + w_base;
        if !args.present[w_idx] {
            continue;
        }
        let seg_idx = a_idx * geom.segments + args.segment;
        let a_base = seg_idx * sw;
        let wb = (args.w_slot(w_idx) * geom.segments + args.segment) * sw;
        for (t, bank) in args.banks.iter().enumerate() {
            if bank.gated[a_idx] {
                continue; // gated lanes never consume an OR-group slot
            }
            let acc = &mut state.accs[t * sw..(t + 1) * sw];
            if state.sat[t] {
                stats.sat_lanes_skipped += 1;
            } else if bank.seg_zero[seg_idx] {
                stats.zero_seg_skips += 1;
            } else {
                stats.mac_lanes += 1;
                let act = &bank.words[a_base..a_base + sw];
                let wgt = &args.bank_words[wb..wb + sw];
                for ((acc_w, &aw), &ww) in acc.iter_mut().zip(act).zip(wgt) {
                    *acc_w |= aw & ww;
                }
                if is_saturated(acc, geom.sat_mask) {
                    state.sat[t] = true;
                    stats.sat_group_exits += 1;
                }
            }
            state.in_group[t] += 1;
            if state.in_group[t] as usize == geom.group {
                state.phase[t] += if state.sat[t] {
                    geom.seg_len as u64
                } else {
                    count_ones_words(acc)
                };
                acc.fill(0);
                state.in_group[t] = 0;
                state.sat[t] = false;
            }
        }
    }
    let tile = args.banks.len();
    for t in 0..tile {
        if state.in_group[t] > 0 {
            let acc = &state.accs[t * sw..(t + 1) * sw];
            state.phase[t] += if state.sat[t] {
                geom.seg_len as u64
            } else {
                count_ones_words(acc)
            };
        }
    }
}
