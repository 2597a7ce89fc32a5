//! Percentiles over latency samples.

/// Nearest-rank percentile of an ascending slice (`NaN` when empty).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// Samples of one operation, sorted, with their percentiles.
pub struct Latency {
    sorted_ms: Vec<f64>,
}

impl Latency {
    pub fn new(mut ms: Vec<f64>) -> Latency {
        ms.sort_by(f64::total_cmp);
        Latency { sorted_ms: ms }
    }

    pub fn count(&self) -> usize {
        self.sorted_ms.len()
    }

    pub fn p50(&self) -> f64 {
        percentile(&self.sorted_ms, 0.50)
    }

    pub fn p99(&self) -> f64 {
        percentile(&self.sorted_ms, 0.99)
    }

    /// Samples strictly above the p99.
    pub fn beyond_p99(&self) -> usize {
        let p = self.p99();
        self.sorted_ms.iter().filter(|&&v| v > p).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v[..1], 0.99), 1.0);
        assert!(percentile(&[], 0.5).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
