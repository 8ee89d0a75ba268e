//! Zipfian key-popularity generator (Gray et al., SIGMOD'94 — the same
//! construction YCSB uses), rejection-free and O(1) per sample.
//!
//! The paper's macro-benchmarks use "the zipfian distribution with the
//! default zipfian parameter (0.99)" (§VI-C).

/// A Zipfian distribution over `0..n` with skew `theta`.
#[derive(Clone, Debug)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipfian {
    /// Build for `n` items with skew `theta` (YCSB default 0.99).
    /// Computing ζ(n) is O(n), done once.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0);
        assert!(theta > 0.0 && theta < 1.0, "theta must be in (0,1)");
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Self {
            n,
            theta,
            alpha,
            zetan,
            eta,
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    }

    /// Sample a rank in `0..n` (0 = most popular) from a uniform `u` in
    /// `[0,1)`.
    pub fn rank(&self, u: f64) -> u64 {
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

    /// The probability of rank `r` (0-based) — used by the oracle hotspot
    /// detector.
    pub fn probability(&self, r: u64) -> f64 {
        1.0 / ((r + 1) as f64).powf(self.theta) / self.zetan
    }

    /// Number of items.
    pub fn n(&self) -> u64 {
        self.n
    }
}

/// The shared deterministic generator (defined next to the index API so
/// tests and the crash-point sweep use the same one).
pub use spash_index_api::Rng64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_rank_zero_dominates() {
        let z = Zipfian::new(10_000, 0.99);
        let mut rng = Rng64::new(7);
        let mut hits0 = 0;
        let samples = 100_000;
        for _ in 0..samples {
            if z.rank(rng.next_f64()) == 0 {
                hits0 += 1;
            }
        }
        let p0 = z.probability(0);
        let observed = hits0 as f64 / samples as f64;
        assert!(
            (observed - p0).abs() < 0.02,
            "rank0: observed {observed:.4}, expected {p0:.4}"
        );
        // With theta=0.99 and 10k items, the top item gets several percent
        // of the traffic.
        assert!(p0 > 0.05);
    }

    #[test]
    fn zipf_ranks_in_range_and_skewed() {
        let z = Zipfian::new(1000, 0.99);
        let mut rng = Rng64::new(3);
        let mut top10 = 0;
        let samples = 50_000;
        for _ in 0..samples {
            let r = z.rank(rng.next_f64());
            assert!(r < 1000);
            if r < 10 {
                top10 += 1;
            }
        }
        // Top 1% of keys should draw a large minority of accesses.
        assert!(
            top10 as f64 / samples as f64 > 0.3,
            "top-10 got {}",
            top10
        );
    }

    #[test]
    fn probability_sums_to_one() {
        let z = Zipfian::new(500, 0.99);
        let sum: f64 = (0..500).map(|r| z.probability(r)).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    /// χ² of `samples` draws against the generator's own probability
    /// model over `n` ranks.
    fn chi_square(theta: f64, n: u64, samples: u64, seed: u64) -> f64 {
        let z = Zipfian::new(n, theta);
        let mut rng = Rng64::new(seed);
        let mut obs = vec![0u64; n as usize];
        for _ in 0..samples {
            obs[z.rank(rng.next_f64()) as usize] += 1;
        }
        (0..n)
            .map(|r| {
                let e = samples as f64 * z.probability(r);
                let d = obs[r as usize] as f64 - e;
                d * d / e
            })
            .sum()
    }

    /// Goodness-of-fit at both skews the experiments use. With n = 100
    /// ranks (df = 99) the α = 0.001 critical value is ≈ 149; the
    /// generator is YCSB's *approximate* construction whose systematic
    /// bias grows with sample count (at 200k samples, θ=0.99 scores
    /// ≈ 670), so the sample size and bound are chosen to leave headroom
    /// for that bias while staying far below what any wrong distribution
    /// produces (see the discrimination check).
    #[test]
    fn chi_square_matches_model_at_both_thetas() {
        for theta in [0.5, 0.99] {
            let x2 = chi_square(theta, 100, 50_000, 0x5eed);
            assert!(
                x2 < 400.0,
                "theta={theta}: chi-square {x2:.1} too far from the model"
            );
        }
        // Discrimination: uniform draws scored against the zipf(0.99)
        // model must fail spectacularly, or the bound above is vacuous.
        let z = Zipfian::new(100, 0.99);
        let mut rng = Rng64::new(0x5eed);
        let mut obs = vec![0u64; 100];
        for _ in 0..50_000 {
            obs[rng.below(100) as usize] += 1;
        }
        let x2: f64 = (0..100u64)
            .map(|r| {
                let e = 50_000.0 * z.probability(r);
                let d = obs[r as usize] as f64 - e;
                d * d / e
            })
            .sum();
        assert!(x2 > 2_000.0, "uniform-vs-zipf chi-square only {x2:.1}");
    }

    /// Pins the exact rank sequence for a fixed seed: the perf gate's
    /// exact-equality compare relies on workload generation being
    /// bit-stable across code changes. If this fails, zipfian workloads
    /// changed under every committed baseline — regenerate
    /// `bench/baseline.json` and say so in the changelog.
    #[test]
    fn golden_sequence_is_pinned() {
        let z = Zipfian::new(100, 0.99);
        let mut rng = Rng64::new(0x5eed);
        let got: Vec<u64> = (0..24).map(|_| z.rank(rng.next_f64())).collect();
        let expected = [
            6u64, 12, 0, 2, 0, 1, 2, 1, 5, 15, 0, 2, 3, 1, 5, 27, 42, 94, 0, 1, 0, 1, 1, 18,
        ];
        assert_eq!(got, expected);
    }

    #[test]
    fn rng_is_deterministic_and_uniformish() {
        let mut a = Rng64::new(42);
        let mut b = Rng64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut buckets = [0u32; 10];
        let mut r = Rng64::new(1);
        for _ in 0..100_000 {
            buckets[r.below(10) as usize] += 1;
        }
        for &c in &buckets {
            assert!((8_000..12_000).contains(&c), "bucket count {c}");
        }
    }
}
