//! Percentiles, quartiles, lateness and the A/B verdict rule.

/// Sorts a copy ascending (total order, so NaN cannot panic the sort).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of ascending `sorted` data — the rule
/// `acoustic_serve::loadgen` reports latencies with. `NaN` when empty.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the middle pair for even counts). `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        len if len % 2 == 1 => v[len / 2],
        len => (v[len / 2 - 1] + v[len / 2]) / 2.0,
    }
}

/// Arithmetic mean. `NaN` when empty.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// First quartile, median and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method)
/// gives them, so spreads read the same as the acceptance check's.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    let len = v.len();
    if len < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x, x);
    }
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// How late each send ran after it was due, in milliseconds (never
/// negative: a send that ran early — impossible for the generator, which
/// sleeps until due — counts as on time).
pub fn lateness_ms(due_ns: &[u64], sent_ns: &[u64]) -> Vec<f64> {
    due_ns
        .iter()
        .zip(sent_ns)
        .map(|(&due, &sent)| sent.saturating_sub(due) as f64 / 1e6)
        .collect()
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn parse(text: &str) -> Option<Better> {
        match text {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }

    /// Whether `a` reads strictly better than `b`.
    fn beats(self, a: f64, b: f64) -> bool {
        match self {
            Better::Lower => a < b,
            Better::Higher => a > b,
        }
    }
}

/// The outcome of comparing one metric on one workload between two sides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Share of pairs `(base[i], head[i])` in which head reads strictly better;
/// ties count for neither side.
pub fn win_share(base: &[f64], head: &[f64], better: Better) -> f64 {
    let pairs = base.len().min(head.len());
    if pairs == 0 {
        return 0.0;
    }
    let wins = base
        .iter()
        .zip(head)
        .filter(|(&b, &h)| better.beats(h, b))
        .count();
    wins as f64 / pairs as f64
}

/// The A/B rule: head *improved* when it wins at least nine tenths of the
/// pairs and the medians differ by more than base's interquartile
/// distance; it is *worse* when its median is worse than base's by more
/// than `bound` (a share of base's median). When base's own spread exceeds
/// the bound the comparison is *unresolved*, unless every head run reads
/// better than every base run.
pub fn verdict(base: &[f64], head: &[f64], better: Better, bound: f64) -> Verdict {
    let (q1, base_med, q3) = quartiles(base);
    let head_med = median(head);
    let worse_by = match better {
        Better::Lower => (head_med - base_med) / base_med.abs(),
        Better::Higher => (base_med - head_med) / base_med.abs(),
    };
    let all_better = head
        .iter()
        .all(|&h| base.iter().all(|&b| better.beats(h, b)));
    let noisy = (q3 - q1) / base_med.abs() > bound;
    let clear_win = win_share(base, head, better) >= 0.9
        && (head_med - base_med).abs() > q3 - q1
        && better.beats(head_med, base_med);
    if clear_win && (!noisy || all_better) {
        Verdict::Improved
    } else if noisy && !all_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Unchanged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([4, 1, 3, 2, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0, 5.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn lateness_is_sent_minus_due_clamped_at_zero() {
        let late = lateness_ms(
            &[1_000_000, 2_000_000, 3_000_000],
            &[1_500_000, 1_900_000, 5_000_000],
        );
        assert_eq!(late, vec![0.5, 0.0, 2.0]);
    }

    #[test]
    fn verdict_follows_the_ab_rule() {
        let base = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.0, 10.1, 9.9];
        // A clear, consistent 20% latency cut.
        let faster: Vec<f64> = base.iter().map(|x| x * 0.8).collect();
        assert_eq!(
            verdict(&base, &faster, Better::Lower, 0.1),
            Verdict::Improved
        );
        assert_eq!(win_share(&base, &faster, Better::Lower), 1.0);
        // Same distribution: unchanged, never improved.
        assert_eq!(
            verdict(&base, &base, Better::Lower, 0.1),
            Verdict::Unchanged
        );
        // 20% slower with a 10% bound: worse.
        let slower: Vec<f64> = base.iter().map(|x| x * 1.2).collect();
        assert_eq!(verdict(&base, &slower, Better::Lower, 0.1), Verdict::Worse);
        // Throughput: higher is better, so the same slowdown is a win there.
        assert_eq!(
            verdict(&base, &slower, Better::Higher, 0.1),
            Verdict::Improved
        );
        // A base whose spread exceeds the bound cannot tell a 5% move apart.
        let noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0];
        let moved: Vec<f64> = noisy.iter().map(|x| x * 1.05).collect();
        assert_eq!(
            verdict(&noisy, &moved, Better::Lower, 0.1),
            Verdict::Unresolved
        );
        // ...unless every head run beats every base run.
        let far = [1.0; 10];
        assert_eq!(verdict(&noisy, &far, Better::Lower, 0.1), Verdict::Improved);
    }

    #[test]
    fn ties_count_for_neither_side() {
        assert_eq!(win_share(&[1.0, 2.0], &[1.0, 1.0], Better::Lower), 0.5);
        assert_eq!(win_share(&[], &[], Better::Lower), 0.0);
    }
}
