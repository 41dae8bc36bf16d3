//! A Zipf(θ) sampler over ranks `0..n`, after Gray et al. (SIGMOD '94).
//!
//! Graph workloads (graph500, pagerank, connected component) touch
//! vertices with power-law frequency; this sampler reproduces that skew
//! deterministically from a seeded RNG.

use rand::Rng;
use std::sync::{Mutex, PoisonError};

/// Zipfian rank sampler with exponent `theta ∈ (0, 1)`.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    theta: f64,
}

impl Zipf {
    /// Builds a sampler over `0..n` with skew `theta` (0 = uniform-ish,
    /// → 1 = heavily skewed).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta` is outside `(0, 1)`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "population must be positive");
        assert!((0.0..1.0).contains(&theta) && theta > 0.0, "theta in (0,1)");
        let zetan = Self::zeta_memo(n, theta);
        let zeta2 = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Self {
            n,
            alpha,
            zetan,
            eta,
            theta,
        }
    }

    /// [`Zipf::zeta`], computed once per distinct `(n, θ)` in the
    /// process: every graph generator of a config (one per core and
    /// context) shares the same population and skew, and each direct
    /// sum costs up to 100K `powf` calls. The memo holds the bits of the
    /// very value the sum returns, so samplers built from it are
    /// bit-identical to ones that sum afresh.
    fn zeta_memo(n: u64, theta: f64) -> f64 {
        static MEMO: Mutex<Vec<(u64, u64, f64)>> = Mutex::new(Vec::new());
        let key = (n, theta.to_bits());
        let mut memo = MEMO.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(&(_, _, z)) = memo.iter().find(|&&(m, t, _)| (m, t) == key) {
            return z;
        }
        let z = Self::zeta(n, theta);
        memo.push((n, key.1, z));
        z
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Direct sum for small n; Euler–Maclaurin tail for large n keeps
        // construction O(1e5) regardless of population size.
        const DIRECT: u64 = 100_000;
        if n <= DIRECT {
            (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
        } else {
            let head: f64 = (1..=DIRECT).map(|i| 1.0 / (i as f64).powf(theta)).sum();
            // ∫_{DIRECT}^{n} x^-θ dx
            let a = DIRECT as f64;
            let b = n as f64;
            head + (b.powf(1.0 - theta) - a.powf(1.0 - theta)) / (1.0 - theta)
        }
    }

    /// Population size.
    pub fn population(&self) -> u64 {
        self.n
    }

    /// Draws one rank in `0..n`; rank 0 is the most popular.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn samples_stay_in_range() {
        let z = Zipf::new(1000, 0.8);
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 1000);
        }
    }

    #[test]
    fn low_ranks_dominate() {
        let z = Zipf::new(10_000, 0.9);
        let mut rng = SmallRng::seed_from_u64(42);
        let mut head = 0;
        const N: usize = 50_000;
        for _ in 0..N {
            if z.sample(&mut rng) < 100 {
                head += 1;
            }
        }
        // With θ=0.9, the top 1% of ranks should absorb well over a
        // third of the draws.
        assert!(f64::from(head) / N as f64 > 0.35, "head share {head}/{N}");
    }

    #[test]
    fn mild_skew_spreads_out() {
        let z = Zipf::new(10_000, 0.2);
        let mut rng = SmallRng::seed_from_u64(42);
        let mut head = 0;
        const N: usize = 50_000;
        for _ in 0..N {
            if z.sample(&mut rng) < 100 {
                head += 1;
            }
        }
        assert!(
            (f64::from(head) / N as f64) < 0.2,
            "θ=0.2 head share too big: {head}/{N}"
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let z = Zipf::new(5000, 0.7);
        let a: Vec<u64> = {
            let mut rng = SmallRng::seed_from_u64(1);
            (0..100).map(|_| z.sample(&mut rng)).collect()
        };
        let b: Vec<u64> = {
            let mut rng = SmallRng::seed_from_u64(1);
            (0..100).map(|_| z.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn memoised_zeta_is_bit_identical() {
        for (n, theta) in [(1000, 0.8), (250_000, 0.8), (1000, 0.9)] {
            let first = Zipf::zeta_memo(n, theta);
            assert_eq!(first.to_bits(), Zipf::zeta(n, theta).to_bits());
            assert_eq!(Zipf::zeta_memo(n, theta).to_bits(), first.to_bits());
        }
    }

    #[test]
    fn large_population_constructs_quickly() {
        let z = Zipf::new(100_000_000, 0.75);
        let mut rng = SmallRng::seed_from_u64(3);
        let s = z.sample(&mut rng);
        assert!(s < 100_000_000);
        assert_eq!(z.population(), 100_000_000);
    }

    #[test]
    #[should_panic(expected = "theta in (0,1)")]
    fn theta_one_rejected() {
        Zipf::new(10, 1.0);
    }
}
