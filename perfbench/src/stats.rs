//! Order statistics over latency samples.

/// The `q`-quantile (`0.0..=1.0`) of `samples` by nearest rank. Sorts in
/// place; `NaN` for an empty slice.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.sort_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Median (nearest rank, lower middle for even counts).
pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

/// How many samples lie strictly above the `q`-quantile: the support a
/// tail percentile has in this sample.
pub fn beyond(samples: &mut [f64], q: f64) -> usize {
    let cut = quantile(samples, q);
    samples.iter().filter(|&&s| s > cut).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut s, 0.5), 50.0);
        assert_eq!(quantile(&mut s, 0.99), 99.0);
        assert_eq!(quantile(&mut s, 1.0), 100.0);
        assert_eq!(beyond(&mut s, 0.99), 1);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
    }
}
