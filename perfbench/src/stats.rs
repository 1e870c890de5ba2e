//! Order statistics for latency samples: the median and the tail
//! rule (the highest whole percentile with at least ten samples
//! beyond it).

/// Samples that must lie strictly beyond the reported tail rank.
pub const TAIL_BEYOND: usize = 10;

/// The nearest-rank index of percentile `q` (0 < q ≤ 100) in a sorted
/// sample of `n` values.
fn rank_index(q: u32, n: usize) -> usize {
    let rank = (u64::from(q) * n as u64).div_ceil(100) as usize;
    rank.clamp(1, n) - 1
}

/// The tail percentile of a sample of `n` values: the highest whole
/// percentile in `50..=99` whose nearest-rank value has at least
/// [`TAIL_BEYOND`] values beyond it, with that value's index. `None`
/// when not even the median has ten beyond it (19 samples or fewer).
pub fn tail_rank(n: usize) -> Option<(u32, usize)> {
    (50..=99)
        .rev()
        .filter(|_| n > 0)
        .map(|q| (q, rank_index(q, n)))
        .find(|&(_, idx)| n - 1 - idx >= TAIL_BEYOND)
}

/// Median and tail of one latency sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples summarized.
    pub n: usize,
    /// Median (nearest rank).
    pub p50: f64,
    /// Tail value: at `tail_q` when the tail rule holds, else the
    /// maximum.
    pub tail: f64,
    /// The tail percentile, or `None` when too few samples left ten
    /// beyond any percentile (the tail is then the maximum).
    pub tail_q: Option<u32>,
}

/// Summarizes `values` (any order). `None` for an empty sample.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let (tail_q, tail) = match tail_rank(n) {
        Some((q, idx)) => (Some(q), sorted[idx]),
        None => (None, sorted[n - 1]),
    };
    Some(Summary {
        n,
        p50: sorted[rank_index(50, n)],
        tail,
        tail_q,
    })
}

/// Median of `values` (nearest rank); `0.0` for an empty sample, the
/// value a per-layer metric takes when its layer did no work.
pub fn median(values: &[f64]) -> f64 {
    summarize(values).map_or(0.0, |s| s.p50)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rank_leaves_ten_beyond() {
        for n in 0..5000 {
            match tail_rank(n) {
                Some((q, idx)) => {
                    assert!(n - 1 - idx >= TAIL_BEYOND, "n={n} q={q}");
                    // The next percentile up would leave fewer than ten.
                    if q < 99 {
                        assert!(n - 1 - rank_index(q + 1, n) < TAIL_BEYOND, "n={n} q={q}");
                    }
                }
                None => assert!(n == 0 || n - 1 - rank_index(50, n) < TAIL_BEYOND, "n={n}"),
            }
        }
    }

    #[test]
    fn tail_rank_small_counts() {
        // Up to 19 samples the median itself has fewer than ten beyond.
        for n in 0..=19 {
            assert_eq!(tail_rank(n), None, "n={n}");
        }
        assert_eq!(tail_rank(20), Some((50, 9)));
        assert_eq!(tail_rank(21), Some((52, 10)));
        assert_eq!(tail_rank(64), Some((84, 53)));
        assert_eq!(tail_rank(100), Some((90, 89)));
        assert_eq!(tail_rank(3000), Some((99, 2969)));
    }

    #[test]
    fn summary_of_a_small_sample_falls_back_to_the_maximum() {
        let s = summarize(&[3.0, 1.0, 2.0]).expect("non-empty");
        assert_eq!((s.n, s.p50, s.tail, s.tail_q), (3, 2.0, 3.0, None));
        assert!(summarize(&[]).is_none());
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn summary_reads_the_tail_rank() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = summarize(&values).expect("non-empty");
        assert_eq!((s.p50, s.tail, s.tail_q), (50.0, 90.0, Some(90)));
    }
}
