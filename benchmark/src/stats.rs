//! Order statistics over timing samples.

/// The `q`-quantile (nearest rank) of an ascending slice; 0 when empty.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a handful of per-repetition values; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// p50 and p99 of one repetition's samples, with the count behind them.
#[derive(Debug, Clone, Copy, Default)]
pub struct Percentiles {
    pub p50: u64,
    pub p99: u64,
    pub count: usize,
}

/// Sorts `samples` in place and reads its percentiles.
pub fn percentiles(samples: &mut [u64]) -> Percentiles {
    samples.sort_unstable();
    Percentiles {
        p50: quantile_sorted(samples, 0.50),
        p99: quantile_sorted(samples, 0.99),
        count: samples.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_sorted(&v, 0.50), 50);
        assert_eq!(quantile_sorted(&v, 0.99), 99);
        assert_eq!(quantile_sorted(&v, 1.0), 100);
        assert_eq!(quantile_sorted(&[7], 0.5), 7);
        assert_eq!(quantile_sorted(&[], 0.5), 0);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
