//! Summary statistics for the benchmark report.
//!
//! Every timing is summarized as a median plus a *tail*: the highest of
//! p90/p95/p99 that still has at least [`TAIL_MIN_BEYOND`] samples beyond it,
//! so a tail is never read off a handful of outliers.

use std::collections::BTreeMap;

/// Samples a tail percentile must have strictly beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
const TAIL_PERCENTILES: [f64; 3] = [99.0, 95.0, 90.0];

/// Median of `samples` (mean of the middle two for an even count).
/// `None` for an empty sample.
pub fn median(samples: &[f64]) -> Option<f64> {
    let s = sorted(samples);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile of an ascending sample: the value at 1-based rank
/// `ceil(p/100 · n)`, returned with the number of samples after that rank.
fn nearest_rank(sorted: &[f64], p: f64) -> Option<(f64, usize)> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    // `p · n` first: for whole-number percentiles it is exact, where `p/100`
    // would round (0.99 · 1000 > 990) and shift the rank by one.
    let rank = (p * n as f64 / 100.0).ceil().clamp(1.0, n as f64) as usize;
    Some((sorted[rank - 1], n - rank))
}

/// Pooled percentile: all samples in one population, nearest rank.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    nearest_rank(&sorted(samples), p).map(|(v, _)| v)
}

/// A tail latency together with the percentile it was read at and how many
/// samples lie beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    pub beyond: usize,
    pub samples: usize,
}

/// The highest of p99/p95/p90 with at least [`TAIL_MIN_BEYOND`] samples
/// beyond it; `None` when even p90 lacks them (fewer than 100 samples).
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let s = sorted(samples);
    TAIL_PERCENTILES.iter().find_map(|&p| {
        let (value, beyond) = nearest_rank(&s, p)?;
        (beyond >= TAIL_MIN_BEYOND).then_some(Tail {
            percentile: p,
            value,
            beyond,
            samples: s.len(),
        })
    })
}

/// Geometric mean, over the groups, of each group's median: every distinct
/// query weighs the same however long it runs and however often it ran.
/// `None` when there are no groups or a median is not positive.
pub fn geomean_of_medians(groups: &BTreeMap<String, Vec<f64>>) -> Option<f64> {
    let mut log_sum = 0.0;
    for samples in groups.values() {
        let m = median(samples)?;
        if m <= 0.0 {
            return None;
        }
        log_sum += m.ln();
    }
    (!groups.is_empty()).then(|| (log_sum / groups.len() as f64).exp())
}

/// Attempted and failed operations. A wrong answer, a typed error and a
/// rejection each count as one failure.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Outcomes {
    pub attempted: u64,
    pub failed: u64,
}

impl Outcomes {
    /// Records one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn merge(&mut self, other: Outcomes) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed ÷ attempted; 0 when nothing was attempted.
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed, so every helper has to sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn pooled_percentile_is_nearest_rank() {
        let s = ramp(200);
        assert_eq!(percentile(&s, 50.0), Some(100.0));
        assert_eq!(percentile(&s, 90.0), Some(180.0));
        assert_eq!(percentile(&s, 99.0), Some(198.0));
        assert_eq!(percentile(&s, 100.0), Some(200.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_takes_the_highest_percentile_with_ten_beyond() {
        // 1000 samples: p99 has exactly 10 beyond it.
        let t = tail(&ramp(1000)).expect("enough samples");
        assert_eq!(
            (t.percentile, t.value, t.beyond, t.samples),
            (99.0, 990.0, 10, 1000)
        );
        // 999 samples: p99 has 9 beyond, so p95 (49 beyond) is used.
        let t = tail(&ramp(999)).expect("enough samples");
        assert_eq!((t.percentile, t.beyond), (95.0, 49));
        // 200 samples: p95 has exactly 10 beyond.
        let t = tail(&ramp(200)).expect("enough samples");
        assert_eq!((t.percentile, t.value, t.beyond), (95.0, 190.0, 10));
        // 100 samples: only p90 qualifies.
        let t = tail(&ramp(100)).expect("enough samples");
        assert_eq!((t.percentile, t.value, t.beyond), (90.0, 90.0, 10));
        // 99 samples: no percentile has ten samples beyond it.
        assert_eq!(tail(&ramp(99)), None);
    }

    #[test]
    fn geomean_weighs_each_query_median_once() {
        let mut g = BTreeMap::new();
        // Median 2 from three runs, median 8 from five runs with an outlier.
        g.insert("a".to_string(), vec![1.0, 2.0, 3.0]);
        g.insert("b".to_string(), vec![8.0, 8.0, 8.0, 7.0, 1000.0]);
        let gm = geomean_of_medians(&g).expect("defined");
        assert!((gm - 4.0).abs() < 1e-12, "{gm}");
        assert_eq!(geomean_of_medians(&BTreeMap::new()), None);
        g.insert("c".to_string(), vec![]);
        assert_eq!(geomean_of_medians(&g), None);
        let mut z = BTreeMap::new();
        z.insert("z".to_string(), vec![0.0]);
        assert_eq!(geomean_of_medians(&z), None);
    }

    #[test]
    fn failed_share_counts_every_failure_against_attempts() {
        let mut o = Outcomes::default();
        assert_eq!(o.failed_share(), 0.0);
        for ok in [true, false, true, true] {
            o.record(ok);
        }
        assert_eq!(
            o,
            Outcomes {
                attempted: 4,
                failed: 1
            }
        );
        assert_eq!(o.failed_share(), 0.25);
        o.merge(Outcomes {
            attempted: 4,
            failed: 3,
        });
        assert_eq!(o.failed_share(), 0.5);
    }
}
