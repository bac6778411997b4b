//! Exact client-side statistics: nearest-rank percentiles over sorted
//! samples, and span self time.
//!
//! Percentiles come from the samples themselves, never from the
//! servers' power-of-two `LatencyHistogram` buckets, where one bucket
//! flip doubles a p99.

/// Samples that must lie strictly beyond a percentile before it is
/// reported: p99 needs at least 1,000 samples, p50 at least 20.
pub const MIN_BEYOND: usize = 10;

/// A percentile read off sorted samples, with the sample count behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    /// The value at the percentile, or `None` when fewer than
    /// [`MIN_BEYOND`] samples lie beyond it.
    pub value: Option<f64>,
    /// Samples the percentile was read from.
    pub samples: usize,
}

/// Nearest-rank `q`-quantile (`0 < q < 1`) of ascending `sorted`.
pub fn percentile(sorted: &[f64], q: f64) -> Pct {
    let n = sorted.len();
    let value = if n == 0 {
        None
    } else {
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
    };
    Pct { value, samples: n }
}

/// Sort `xs` ascending (NaN-free input).
pub fn sort(xs: &mut [f64]) {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
}

/// The median of `xs` (mean of the two middle values for even counts),
/// `None` when empty. Used for repeated whole-run measurements such as
/// set-up time, not for request latencies.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    sort(&mut v);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// A time span `[start, end)` in nanoseconds.
pub type Span = (u64, u64);

/// Self time of `parent`: its duration minus the part of it that the
/// union of `children` covers. Children may overlap each other and may
/// spill outside the parent; only their clipped union is subtracted.
pub fn self_time(parent: Span, children: &[Span]) -> u64 {
    let (ps, pe) = parent;
    if pe <= ps {
        return 0;
    }
    let mut clipped: Vec<Span> = children
        .iter()
        .map(|&(s, e)| (s.max(ps), e.min(pe)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<Span> = None;
    for (s, e) in clipped {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    (pe - ps) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_on_known_inputs() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5).value, Some(500.0));
        assert_eq!(percentile(&xs, 0.99).value, Some(990.0));
        assert_eq!(percentile(&xs, 0.99).samples, 1000);
        // 0.999 of 1,000 leaves one sample beyond: not reportable.
        assert_eq!(percentile(&xs, 0.999).value, None);
        // Exactly ten beyond is enough; nine is not.
        let ys: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&ys, 0.9).value, Some(90.0));
        assert_eq!(percentile(&ys[..99], 0.9).value, None);
        assert_eq!(percentile(&[], 0.5).value, None);
    }

    #[test]
    fn percentile_is_a_sample_not_a_bucket_bound() {
        // Every value sits in one power-of-two bucket [1024, 2048); a
        // bucketed p99 would read 2047, the exact one reads a sample.
        let mut xs: Vec<f64> = (0..2000).map(|i| 1024.0 + (i % 700) as f64).collect();
        sort(&mut xs);
        let p99 = percentile(&xs, 0.99).value.unwrap();
        assert!(xs.contains(&p99));
        assert!(p99 < 1724.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // Parent 0..100; children 10..30 and 20..50 overlap (union 10..50),
        // 60..70 is disjoint, 90..120 spills past the parent (clipped to 10).
        let children = [(10, 30), (20, 50), (60, 70), (90, 120)];
        assert_eq!(self_time((0, 100), &children), 100 - 40 - 10 - 10);
        // A child covering the whole parent leaves no self time.
        assert_eq!(self_time((5, 10), &[(0, 20)]), 0);
        // No children: all self.
        assert_eq!(self_time((0, 7), &[]), 7);
        // Nested children count once.
        assert_eq!(self_time((0, 100), &[(10, 90), (20, 30)]), 20);
    }
}
