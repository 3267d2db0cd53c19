//! Order statistics and span arithmetic used to turn raw timings into the
//! benchmark's metrics.

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Candidate tail percentiles, in per-mille, highest first.
const TAILS_PER_MILLE: [u64; 4] = [999, 990, 900, 500];

/// The tail-reporting rule: the highest candidate percentile, not above
/// `cap_per_mille`, that leaves at least ten samples beyond it among `n`
/// samples.  `None` when even the median has fewer than ten beyond it.
pub fn tail_per_mille(n: usize, cap_per_mille: u64) -> Option<u64> {
    TAILS_PER_MILLE
        .into_iter()
        .filter(|&p| p <= cap_per_mille)
        .find(|&p| n as u64 * (1000 - p) / 1000 >= 10)
}

/// A tail figure: the percentile actually used (in per-mille) and its value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile the rule chose, in per-mille (990 = p99).
    pub per_mille: u64,
    /// The nearest-rank value at that percentile.
    pub value: f64,
}

/// The nearest-rank value at `per_mille` of `values`.
pub fn percentile(values: &[f64], per_mille: u64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (per_mille as usize * sorted.len()).div_ceil(1000).max(1);
    sorted[rank - 1]
}

/// The tail of `values` by [`tail_per_mille`], capped at `cap_per_mille`.
/// With too few samples for any candidate, falls back to the maximum and
/// reports it as p100 (1000 per-mille).
pub fn tail(values: &[f64], cap_per_mille: u64) -> Tail {
    match tail_per_mille(values.len(), cap_per_mille) {
        Some(per_mille) => Tail {
            per_mille,
            value: percentile(values, per_mille),
        },
        None => Tail {
            per_mille: 1000,
            value: values.iter().copied().fold(0.0, f64::max),
        },
    }
}

/// The duration of `parent` not covered by any of `children`, all given as
/// `(start, end)` nanosecond pairs.  Children are clipped to the parent and
/// merged first, so nested or overlapping children are subtracted once.
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (lo, hi) = parent;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(start, end)| (start.max(lo), end.min(hi)))
        .filter(|&(start, end)| start < end)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut current: Option<(u64, u64)> = None;
    for (start, end) in clipped {
        match current {
            Some((cur_start, cur_end)) if start <= cur_end => {
                current = Some((cur_start, cur_end.max(end)));
            }
            _ => {
                if let Some((cur_start, cur_end)) = current {
                    covered += cur_end - cur_start;
                }
                current = Some((start, end));
            }
        }
    }
    if let Some((cur_start, cur_end)) = current {
        covered += cur_end - cur_start;
    }
    hi.saturating_sub(lo) - covered
}

/// Per-query latencies of one multi-query engine run, derived from its
/// stage callbacks alone.
///
/// `stages` holds, per executed stage in order, the time the stage ended
/// (as seen by the `run_with` callback, relative to the same clock as
/// `start`) and how many queries picked in it.  A query that stops after
/// stage `k` is absent from stage `k + 1`, so each drop in the active count
/// is that many queries finishing at stage `k`'s end; the final stage's
/// active queries all finish when it ends.
pub fn latencies_from_active_drops(start: f64, stages: &[(f64, usize)]) -> Vec<f64> {
    let mut latencies = Vec::new();
    for (k, &(end, active)) in stages.iter().enumerate() {
        let next = stages.get(k + 1).map_or(0, |&(_, active)| active);
        let finished = active.saturating_sub(next);
        latencies.extend(std::iter::repeat_n(end - start, finished));
    }
    latencies
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_rule_picks_highest_percentile_with_ten_samples_beyond() {
        // p99.9 needs 10_000 samples, p99 1_000, p90 100, p50 20.
        assert_eq!(tail_per_mille(10_000, 999), Some(999));
        assert_eq!(tail_per_mille(9_999, 999), Some(990));
        assert_eq!(tail_per_mille(10_000, 990), Some(990));
        assert_eq!(tail_per_mille(1_000, 990), Some(990));
        assert_eq!(tail_per_mille(999, 990), Some(900));
        assert_eq!(tail_per_mille(100, 990), Some(900));
        assert_eq!(tail_per_mille(99, 990), Some(500));
        assert_eq!(tail_per_mille(20, 990), Some(500));
        assert_eq!(tail_per_mille(19, 990), None);
    }

    #[test]
    fn tail_value_leaves_ten_samples_beyond() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&values, 990);
        assert_eq!(t.per_mille, 900);
        assert_eq!(t.value, 90.0);
        assert_eq!(values.iter().filter(|&&v| v > t.value).count(), 10);
        let few = [5.0, 1.0, 3.0];
        assert_eq!(
            tail(&few, 990),
            Tail {
                per_mille: 1000,
                value: 5.0
            }
        );
    }

    #[test]
    fn self_time_subtracts_nested_and_overlapping_children_once() {
        // Parent 0..100; a commit span 10..40 with a nested fsync 20..30,
        // an overlapping pair 50..70 / 60..80, and a child sticking out of
        // the parent 90..120.
        let children = [(10, 40), (20, 30), (50, 70), (60, 80), (90, 120)];
        assert_eq!(self_time((0, 100), &children), 100 - 30 - 30 - 10);
        assert_eq!(self_time((0, 100), &[]), 100);
        assert_eq!(self_time((0, 100), &[(0, 100), (10, 20)]), 0);
        // Children outside the parent do not count.
        assert_eq!(self_time((50, 60), &[(0, 40), (70, 80)]), 10);
    }

    #[test]
    fn active_query_drops_give_per_query_latencies() {
        // Three queries: one stops after stage 0, two after stage 2.
        let stages = [(1.5, 3), (2.5, 2), (4.0, 2)];
        assert_eq!(
            latencies_from_active_drops(0.5, &stages),
            vec![1.0, 3.5, 3.5]
        );
        // Every query is accounted for exactly once.
        let stages = [(1.0, 8), (2.0, 8), (3.0, 5), (4.0, 1)];
        let latencies = latencies_from_active_drops(0.0, &stages);
        assert_eq!(latencies.len(), 8);
        assert_eq!(latencies, vec![2.0, 2.0, 2.0, 3.0, 3.0, 3.0, 3.0, 4.0]);
        assert!(latencies_from_active_drops(0.0, &[]).is_empty());
    }
}
