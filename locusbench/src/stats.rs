//! Exact order statistics and process measurements.

/// The `q`-quantile of `samples` as an exact order statistic (nearest
/// rank: the smallest sample with at least a `q` share of the samples at
/// or below it). Sorts `samples` in place; 0 for an empty slice.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// The median of `samples` (nearest rank); 0 for an empty slice.
pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The smallest sample count at which p99 leaves ten samples beyond it.
pub const MIN_P99_SAMPLES: usize = 1000;

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_samples_never_interpolated() {
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), 5.0);
        assert_eq!(quantile(&mut v, 0.99), 10.0);
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        let mut skew = vec![1.0, 1.0, 1.0, 2.0, 4096.0];
        assert_eq!(median(&mut skew), 1.0);
        assert!(quantile(&mut skew, 0.99) <= 4096.0);
        assert_eq!(median(&mut []), 0.0);
    }
}
