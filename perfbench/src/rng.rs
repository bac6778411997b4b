//! Seeded draws for every generated input: arrival times, URL choices,
//! session walks and author updates.
//!
//! The generator is SplitMix64, written out here rather than taken from
//! a crate so a seed means the same inputs on every platform and every
//! version of the workspace's `rand` stub.

/// SplitMix64: a tiny, seedable, statistically sound 64-bit generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated from other streams by `salt`
    /// (one salt per consumer: arrivals, URL draws, sessions, updates).
    pub fn stream(seed: u64, salt: u64) -> Rng {
        let mut r = Rng(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Exponentially distributed with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

/// Zipf(s) over ranks `0..n`: rank 0 is the most popular item.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n` items with exponent `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf over an empty set");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// One draw.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Poisson arrival instants (ns) at `rate_per_s`, in `[start, start + len)`.
pub fn poisson_arrivals(rng: &mut Rng, rate_per_s: f64, start_ns: u64, len_ns: u64) -> Vec<u64> {
    let mean_gap_ns = 1e9 / rate_per_s;
    let mut out = Vec::with_capacity((rate_per_s * len_ns as f64 / 1e9 * 1.1) as usize + 8);
    let mut t = rng.exp(mean_gap_ns);
    while (t as u64) < len_ns {
        out.push(start_ns + t as u64);
        t += rng.exp(mean_gap_ns);
    }
    out
}

/// A random permutation of `0..n` (Fisher–Yates).
pub fn shuffled(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        v.swap(i, j);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_are_identical_for_one_seed_and_differ_for_another() {
        let a = poisson_arrivals(&mut Rng::stream(7, 1), 500.0, 0, 2_000_000_000);
        let b = poisson_arrivals(&mut Rng::stream(7, 1), 500.0, 0, 2_000_000_000);
        let c = poisson_arrivals(&mut Rng::stream(8, 1), 500.0, 0, 2_000_000_000);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Roughly the offered rate, strictly increasing, inside the window.
        assert!((800..1200).contains(&a.len()), "{} arrivals", a.len());
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| t < 2_000_000_000));
    }

    #[test]
    fn url_draws_are_identical_for_one_seed_and_differ_for_another() {
        let z = Zipf::new(1000, 1.0);
        let draw = |seed| {
            let mut r = Rng::stream(seed, 2);
            (0..500).map(|_| z.sample(&mut r)).collect::<Vec<_>>()
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
        // Zipf: rank 0 is drawn far more often than rank 500.
        let d = draw(3);
        let top = d.iter().filter(|&&i| i == 0).count();
        let mid = d.iter().filter(|&&i| i == 500).count();
        assert!(top > 20 && top > mid * 5, "top {top} mid {mid}");
        assert!(d.iter().all(|&i| i < 1000));
    }

    #[test]
    fn streams_with_different_salts_differ() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::stream(5, 1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::stream(5, 2);
                move |_| r.next_u64()
            })
            .collect();
        assert_ne!(a, b);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let a = shuffled(&mut Rng::stream(3, 9), 50);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_eq!(a, shuffled(&mut Rng::stream(3, 9), 50));
        assert_ne!(a, shuffled(&mut Rng::stream(4, 9), 50));
    }
}
