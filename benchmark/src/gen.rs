//! Benchmark-owned deterministic load: every input is a pure function of
//! `--seed`. Nothing here depends on the repository's vendored `rand`
//! shims, whose streams a later change may alter.

/// SplitMix64 (Steele, Lea, Flood 2014): the whole generator is one `u64`.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)` by multiply-shift (bias below 2^-32 for the
    /// sizes used here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in the open interval (0, 1): never 0, so `ln` is finite.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }

    /// One exponential inter-arrival gap with the given mean.
    pub fn exp_gap(&mut self, mean: f64) -> f64 {
        -self.unit().ln() * mean
    }

    /// A generator for an independent sub-stream.
    pub fn fork(&mut self) -> SplitMix64 {
        SplitMix64(self.next_u64())
    }
}

/// Zipf-distributed ranks over `[0, n)` (Gray et al., "Quickly generating
/// billion-record synthetic databases", the YCSB generator). Rank 0 is the
/// most popular.
#[derive(Clone, Debug)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Self {
        let zeta = |m: u64| (1..=m).map(|i| (i as f64).powf(-theta)).sum::<f64>();
        let zetan = zeta(n);
        Zipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2) / zetan),
        }
    }

    pub fn rank(&self, rng: &mut SplitMix64) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let r = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        r.min(self.n - 1)
    }
}

/// How keys are drawn from the resident population.
#[derive(Clone, Debug)]
pub enum KeyDist {
    Uniform,
    /// Zipf ranks scattered over the key space by a fixed bijection, so
    /// that hot keys do not all hash to neighbouring ids.
    Zipf(Zipf),
}

/// Operation codes of `programs/accounts.hydro`'s `req(op, k, v)`.
pub const OP_UPSERT: u8 = 0;
pub const OP_CLOSE: u8 = 1;
pub const OP_READ: u8 = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KvOp {
    pub op: u8,
    pub key: i64,
}

/// A read/upsert/close mix over `resident` keys.
#[derive(Clone, Debug)]
pub struct KvMix {
    pub resident: u64,
    pub upsert_pct: u64,
    pub close_pct: u64,
    pub keys: KeyDist,
}

/// Multiplier of the rank→key bijection; must be coprime to `resident`.
const SCATTER: u64 = 104_729;

impl KvMix {
    pub fn draw(&self, rng: &mut SplitMix64) -> KvOp {
        let p = rng.below(100);
        let op = if p < self.upsert_pct {
            OP_UPSERT
        } else if p < self.upsert_pct + self.close_pct {
            OP_CLOSE
        } else {
            OP_READ
        };
        let key = match &self.keys {
            KeyDist::Uniform => rng.below(self.resident),
            KeyDist::Zipf(z) => (z.rank(rng) * SCATTER) % self.resident,
        };
        KvOp {
            op,
            key: key as i64,
        }
    }
}

/// Poisson arrival clock: `next()` returns the next arrival time in the
/// unit of `mean_gap`, as a whole number.
#[derive(Clone, Debug)]
pub struct Arrivals {
    rng: SplitMix64,
    mean_gap: f64,
    t: f64,
}

impl Arrivals {
    pub fn new(rng: SplitMix64, start: f64, mean_gap: f64) -> Self {
        Arrivals {
            rng,
            mean_gap,
            t: start,
        }
    }

    pub fn next(&mut self) -> u64 {
        self.t += self.rng.exp_gap(self.mean_gap);
        self.t as u64
    }
}

/// Order-sensitive hash of a stream of words (FNV-1a over the bytes):
/// the tests pin "same seed, same stream" with it.
#[cfg(test)]
#[derive(Clone, Copy, Debug)]
pub struct StreamHash(u64);

#[cfg(test)]
impl Default for StreamHash {
    fn default() -> Self {
        StreamHash(0xCBF2_9CE4_8422_2325)
    }
}

#[cfg(test)]
impl StreamHash {
    pub fn push(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_reference_vector() {
        // First outputs for seed 1234567, from the reference C code.
        let mut g = SplitMix64::new(1_234_567);
        assert_eq!(g.next_u64(), 6_457_827_717_110_365_317);
        assert_eq!(g.next_u64(), 3_203_168_211_198_807_973);
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(1000, 0.99);
        let mut g = SplitMix64::new(7);
        let mut hits = vec![0u32; 1000];
        for _ in 0..100_000 {
            hits[z.rank(&mut g) as usize] += 1;
        }
        assert!(hits[0] > hits[10] && hits[10] > hits[500]);
        // Rank 0 carries about 1/zeta(1000, 0.99) = 13% of the mass.
        assert!((10_000..17_000).contains(&hits[0]), "{}", hits[0]);
    }

    #[test]
    fn scatter_is_a_bijection_on_the_resident_sizes_used() {
        for n in [200_000u64, 1000] {
            let mut seen = vec![false; n as usize];
            for r in 0..n {
                let k = ((r * SCATTER) % n) as usize;
                assert!(!seen[k]);
                seen[k] = true;
            }
        }
    }

    #[test]
    fn exponential_gaps_have_the_requested_mean() {
        let mut a = Arrivals::new(SplitMix64::new(3), 0.0, 25_000.0);
        let n = 200_000;
        let mut last = 0;
        for _ in 0..n {
            let t = a.next();
            assert!(t >= last);
            last = t;
        }
        let mean = last as f64 / n as f64;
        assert!((mean - 25_000.0).abs() < 250.0, "{mean}");
    }
}
