//! Summary statistics and the block timer the solo replays use.

use std::time::{Duration, Instant};

/// Median of `values` (mean of the two middle values for an even
/// count). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => {
            let hi = v.swap_remove(n / 2);
            Some((v[n / 2 - 1] + hi) / 2.0)
        }
    }
}

/// First and third quartile, computed like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method), so the spreads printed here match the ones the benchmark
/// contract computes. A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        1 => Some((v[0], v[0])),
        _ => {
            let m = n + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 / 4.0 - j as f64;
                v[j - 1] + (v[j] - v[j - 1]) * delta
            };
            Some((q(1), q(3)))
        }
    }
}

/// Geometric mean of strictly positive values. `None` when empty or
/// when any value is not a positive finite number.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| !(v.is_finite() && *v > 0.0)) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Calls `f(index, item)` on every item in order and times whole blocks
/// of `block_len` consecutive calls, so the clock is read once per block
/// rather than once per call. Returns one duration per block (the last
/// block may be shorter).
///
/// # Panics
///
/// Panics if `block_len` is 0.
pub fn time_blocks<T>(
    items: &[T],
    block_len: usize,
    mut f: impl FnMut(usize, &T),
) -> Vec<Duration> {
    assert!(block_len > 0, "blocks need at least one call");
    let mut out = Vec::with_capacity(items.len().div_ceil(block_len));
    for (b, block) in items.chunks(block_len).enumerate() {
        let base = b * block_len;
        let t = Instant::now();
        for (i, item) in block.iter().enumerate() {
            f(base + i, item);
        }
        out.push(t.elapsed());
    }
    out
}

/// Total nanoseconds of a list of block durations.
pub fn total_ns(blocks: &[Duration]) -> f64 {
    blocks.iter().map(|d| d.as_secs_f64() * 1e9).sum()
}

/// Least-squares fit of `y ≈ a·x1 + b·x2` (no intercept) over the
/// samples `(x1, x2, y)`. `None` when the system is singular, e.g. when
/// one regressor is always zero.
pub fn fit_two(samples: &[(f64, f64, f64)]) -> Option<(f64, f64)> {
    let (mut s11, mut s12, mut s22, mut s1y, mut s2y) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for &(x1, x2, y) in samples {
        s11 += x1 * x1;
        s12 += x1 * x2;
        s22 += x2 * x2;
        s1y += x1 * y;
        s2y += x2 * y;
    }
    let det = s11 * s22 - s12 * s12;
    if !det.is_finite() || det.abs() <= 1e-12 * s11 * s22 {
        return None;
    }
    Some(((s1y * s22 - s2y * s12) / det, (s2y * s11 - s1y * s12) / det))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));

        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), Some((1.0, 5.0)));
        assert_eq!(quartiles(&[7.0]), Some((7.0, 7.0)));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn geomean_rejects_non_positive_values() {
        let g = geomean(&[1.0, 4.0, 16.0]).expect("positive values");
        assert!((g - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, f64::NAN]), None);
    }

    #[test]
    fn block_timer_visits_every_item_once_in_order() {
        let stream: Vec<u64> = (0..10_000).collect();
        let mut seen = Vec::new();
        let t = Instant::now();
        let blocks = time_blocks(&stream, 4096, |i, &x| {
            assert_eq!(i as u64, x, "index and item agree");
            seen.push(std::hint::black_box(x));
        });
        let elapsed = t.elapsed();
        assert_eq!(seen, stream);
        assert_eq!(blocks.len(), 3, "4096 + 4096 + 1808");
        let sum: Duration = blocks.iter().sum();
        assert!(sum <= elapsed, "blocks cannot outlast the whole replay");
        assert!(total_ns(&blocks) > 0.0);
        assert!(time_blocks(&[] as &[u8], 8, |_, _| {}).is_empty());
    }

    #[test]
    fn fit_two_recovers_known_costs() {
        // 3 ns per hit and 40 ns per walk, blocks of varying mix.
        let samples: Vec<(f64, f64, f64)> = (0..20)
            .map(|i| {
                let walks = f64::from(i % 7);
                let hits = 100.0 - walks;
                (hits, walks, 3.0 * hits + 40.0 * walks)
            })
            .collect();
        let (hit, walk) = fit_two(&samples).expect("well-conditioned");
        assert!((hit - 3.0).abs() < 1e-9 && (walk - 40.0).abs() < 1e-9);
        assert_eq!(fit_two(&[(1.0, 0.0, 2.0), (2.0, 0.0, 4.0)]), None);
    }
}
