//! Order statistics over timing samples.

/// The `q`-quantile (`0 <= q <= 1`) of `samples` by nearest rank on the
/// sorted values. `None` when there are no samples.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// The arithmetic mean; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// The median (the lower middle value for an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// The tail latency: the highest percentile that still has at least ten
/// samples beyond it, as `(percentile, value)`. With fewer than forty
/// samples there is no tail worth the name and the result is `None`.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n < 40 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    // Index n - 11 leaves exactly ten samples (n - 10 .. n) beyond it.
    let idx = n - 11;
    Some((100.0 * (idx + 1) as f64 / n as f64, sorted[idx]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles_by_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(quantile(&[5.0], 0.99), Some(5.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        assert_eq!(tail(&(0..39).map(f64::from).collect::<Vec<_>>()), None);
        for n in [40usize, 41, 100, 1000, 1234] {
            let samples: Vec<f64> = (0..n).rev().map(|i| i as f64).collect();
            let (pct, value) = tail(&samples).unwrap();
            let beyond = samples.iter().filter(|&&s| s > value).count();
            assert_eq!(beyond, 10, "n = {n}");
            assert!((75.0..100.0).contains(&pct), "n = {n}: {pct}");
        }
        let (pct, _) = tail(&vec![1.0; 1000]).unwrap();
        assert!((pct - 99.0).abs() < 1e-9);
    }
}
