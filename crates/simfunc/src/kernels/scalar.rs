//! Portable scalar MAC kernel — the golden reference the AVX-512 tile
//! block must match bit-for-bit, and the kernel for every other shape.
//!
//! A tile of one image walks its lanes one by one: single-word segments
//! (streams ≤ 64 bits per segment, the common LeNet shapes) keep the OR
//! accumulator in a register; multi-word segments merge word-by-word into
//! the caller's scratch accumulator. Larger tiles take the lockstep walk
//! (single-word, single-group) or the general walk. Every path implements
//! OR-saturation short-circuiting and zero-segment skipping (see the
//! [module docs](crate::kernels) for why both are exact).

use acoustic_core::bitstream::count_ones_words;

use super::{KernelStats, TilePhaseArgs, TileState, WeightedLane};

/// One MAC phase over one segment of a tile of one image; returns the
/// phase's ones count. The caller's lane list already dropped every lane
/// gated in all images of the tile — for a tile of one, every gated lane.
///
/// `acc` must hold `seg_words` zeroed words on entry and is returned
/// zeroed.
pub(crate) fn mac_phase(args: &TilePhaseArgs<'_>, acc: &mut [u64], stats: &mut KernelStats) -> u64 {
    if args.geom.seg_words == 1 {
        mac_phase_word(args, stats)
    } else {
        mac_phase_words(args, acc, stats)
    }
}

/// Single-word segments: the whole OR group lives in one register.
fn mac_phase_word(args: &TilePhaseArgs<'_>, stats: &mut KernelStats) -> u64 {
    let geom = args.geom;
    let act_words = args.banks[0].words.as_slice();
    let single = geom.single_group();
    let mut phase = 0u64;
    let mut acc_w = 0u64;
    let mut in_group = 0usize;
    let mut saturated = false;
    for (n, &(word, w_base)) in args.lanes.iter().enumerate() {
        let Some(bit) = args.weight_bit(w_base) else {
            continue; // weight has no component in this phase
        };
        if saturated {
            stats.sat_lanes_skipped += 1;
        } else {
            let act = act_words[word];
            if act & args.window == 0 {
                stats.zero_seg_skips += 1;
            } else {
                stats.mac_lanes += 1;
                acc_w |= act & args.weight_word(bit);
                if acc_w == args.window {
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
/// A multi-word segment starts on a word boundary, so no shift applies.
fn mac_phase_words(args: &TilePhaseArgs<'_>, acc: &mut [u64], stats: &mut KernelStats) -> u64 {
    let geom = args.geom;
    let bank = &args.banks[0];
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
    for (n, &(word, w_base)) in args.lanes.iter().enumerate() {
        let Some(bit) = args.weight_bit(w_base) else {
            continue;
        };
        if saturated {
            stats.sat_lanes_skipped += 1;
        } else if bank.segment_is_zero(word, sw, args.window) {
            stats.zero_seg_skips += 1;
        } else {
            stats.mac_lanes += 1;
            let act = &bank.words[word..word + sw];
            for (k, (acc_w, &aw)) in acc.iter_mut().zip(act).enumerate() {
                *acc_w |= aw & args.weight_word_of(bit, k);
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
    let tile = args.banks.len();
    let banks = &args.banks[start..tile];
    let TileState {
        accs,
        phase,
        weighted,
        ..
    } = state;
    let accs = &mut accs[start..tile];
    if banks.is_empty() {
        return;
    }
    for &WeightedLane { n, word, w } in weighted.iter() {
        // Accumulator words never leave the segment's window (the shifted
        // weight's tail bits are zero), so the AND chain equals the window
        // exactly when every image's group has saturated.
        let mut all = args.window;
        for (acc, bank) in accs.iter_mut().zip(banks) {
            *acc |= bank.words[word] & w;
            all &= *acc;
        }
        stats.mac_lanes += banks.len() as u64;
        if all == args.window {
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
        if acc == args.window {
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
    let wgt = &mut state.wgt[..sw];
    for &(word, w_base) in args.lanes {
        let Some(bit) = args.weight_bit(w_base) else {
            continue;
        };
        // Cut once per lane, shared by every image of the tile.
        if sw == 1 {
            wgt[0] = args.weight_word(bit);
        } else {
            for (k, w) in wgt.iter_mut().enumerate() {
                *w = args.weight_word_of(bit, k);
            }
        }
        let a_idx = word / geom.act_words;
        for (t, bank) in args.banks.iter().enumerate() {
            if bank.gated[a_idx] {
                continue; // gated lanes never consume an OR-group slot
            }
            let acc = &mut state.accs[t * sw..(t + 1) * sw];
            if state.sat[t] {
                stats.sat_lanes_skipped += 1;
            } else if bank.segment_is_zero(word, sw, args.window) {
                stats.zero_seg_skips += 1;
            } else {
                stats.mac_lanes += 1;
                let act = &bank.words[word..word + sw];
                for ((acc_w, &aw), &ww) in acc.iter_mut().zip(act).zip(wgt.iter()) {
                    *acc_w |= aw & ww;
                }
                if is_saturated(acc, args.window) {
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
