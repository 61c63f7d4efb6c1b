//! Order statistics over timing samples.

/// Linear-interpolation quantile, `q` in `[0, 1]`; 0 for no samples.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    qdn_sim::stats::quantile(values, q)
}

/// The median; 0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The arithmetic mean; 0 for no samples.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Samples a reported tail percentile must leave beyond it.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles in per-mille, highest first.
const TAIL_PER_MILLE: [usize; 5] = [999, 990, 950, 900, 500];

/// Samples beyond the `per_mille` percentile of `n` samples.
pub fn beyond(n: usize, per_mille: usize) -> usize {
    n * (1000 - per_mille) / 1000
}

/// The highest of p99.9, p99, p95, p90 and p50 (in per-mille) that
/// leaves at least [`MIN_BEYOND`] of `n` samples beyond it, or `None`
/// when not even the median does.
pub fn tail_per_mille(n: usize) -> Option<usize> {
    TAIL_PER_MILLE
        .iter()
        .copied()
        .find(|&pm| beyond(n, pm) >= MIN_BEYOND)
}
