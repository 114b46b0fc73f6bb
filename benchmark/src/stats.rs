//! Percentiles, medians and grouped-data quantiles.

/// Median of `xs` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller measures at least once.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Split `0..n` into `parts` contiguous ranges whose lengths differ by at
/// most one.
pub fn segments(n: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    (0..parts)
        .map(|i| (i * n / parts)..((i + 1) * n / parts))
        .collect()
}

/// One cell of grouped data: `count` samples in `[floor, floor + width)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Bucket {
    pub floor: u64,
    pub width: u64,
    pub count: u64,
}

/// Grouped samples, ascending by `floor`. Built either from exact
/// whole-number samples (width 1) or from an exported latency histogram.
#[derive(Clone, Debug, Default)]
pub struct Grouped {
    pub buckets: Vec<Bucket>,
    pub count: u64,
}

impl Grouped {
    pub fn from_samples(samples: &mut [u64]) -> Self {
        samples.sort_unstable();
        let mut buckets: Vec<Bucket> = Vec::new();
        for &s in samples.iter() {
            match buckets.last_mut() {
                Some(b) if b.floor == s => b.count += 1,
                _ => buckets.push(Bucket {
                    floor: s,
                    width: 1,
                    count: 1,
                }),
            }
        }
        Grouped {
            buckets,
            count: samples.len() as u64,
        }
    }

    pub fn from_buckets(buckets: Vec<Bucket>) -> Self {
        let count = buckets.iter().map(|b| b.count).sum();
        Grouped { buckets, count }
    }

    /// Quantile `q` of the grouped data, interpolated linearly inside the
    /// cell that holds it (the textbook grouped-data quantile). A value
    /// read off a bucket floor would repeat exactly from run to run; the
    /// interpolated one moves with the counts around it.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = q.clamp(0.0, 1.0) * self.count as f64;
        let mut below = 0u64;
        for b in &self.buckets {
            if (below + b.count) as f64 >= target {
                let into = (target - below as f64) / b.count as f64;
                return b.floor as f64 + into * b.width as f64;
            }
            below += b.count;
        }
        let last = self.buckets[self.buckets.len() - 1];
        (last.floor + last.width) as f64
    }

    /// Merge several groupings into one.
    pub fn merged<'a>(parts: impl IntoIterator<Item = &'a Grouped>) -> Grouped {
        let mut all: Vec<Bucket> = parts
            .into_iter()
            .flat_map(|g| g.buckets.iter().copied())
            .collect();
        all.sort_by_key(|b| b.floor);
        let mut buckets: Vec<Bucket> = Vec::new();
        for b in all {
            match buckets.last_mut() {
                Some(last) if last.floor == b.floor => last.count += b.count,
                _ => buckets.push(b),
            }
        }
        Grouped::from_buckets(buckets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn segments_cover_the_range_evenly() {
        let s = segments(17, 5);
        assert_eq!(s.len(), 5);
        assert_eq!(s[0].start, 0);
        assert_eq!(s[4].end, 17);
        for w in s.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        assert!(s.iter().all(|r| r.len() == 3 || r.len() == 4));
    }

    #[test]
    fn quantile_interpolates_inside_a_cell() {
        // 100 samples: 50 at 10, 50 at 20 (width 1).
        let mut s: Vec<u64> = (0..100).map(|i| if i < 50 { 10 } else { 20 }).collect();
        let g = Grouped::from_samples(&mut s);
        assert_eq!(g.count, 100);
        assert_eq!(g.buckets.len(), 2);
        assert_eq!(g.quantile(0.25), 10.5);
        assert_eq!(g.quantile(0.5), 11.0);
        assert_eq!(g.quantile(0.75), 20.5);
        assert_eq!(g.quantile(1.0), 21.0);
    }

    #[test]
    fn quantile_of_wide_buckets_brackets_the_true_value() {
        // 1..=1000 grouped into cells of width 100.
        let buckets = (0..10)
            .map(|i| Bucket {
                floor: 1 + i * 100,
                width: 100,
                count: 100,
            })
            .collect();
        let g = Grouped::from_buckets(buckets);
        assert!((g.quantile(0.5) - 501.0).abs() < 1e-9);
        assert!((g.quantile(0.99) - 991.0).abs() < 1e-9);
    }

    #[test]
    fn merged_adds_counts_of_equal_cells() {
        let a = Grouped::from_samples(&mut [1, 1, 5]);
        let b = Grouped::from_samples(&mut [1, 7]);
        let m = Grouped::merged([&a, &b]);
        assert_eq!(m.count, 5);
        assert_eq!(
            m.buckets[0],
            Bucket {
                floor: 1,
                width: 1,
                count: 3
            }
        );
        assert_eq!(m.buckets.len(), 3);
    }
}
