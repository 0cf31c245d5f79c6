//! Order statistics and the metric record the benchmark prints.

/// The `p`-quantile (`0.0..=1.0`) of `samples` by linear interpolation
/// between closest ranks; `NaN` for an empty sample.
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Samples each group needs for its p99 to have ten samples beyond it.
pub const TAIL_GROUP: usize = 1000;

/// The p99 of `samples` (in time order) as the median of the p99s of
/// consecutive groups of at least [`TAIL_GROUP`] samples each (one group
/// when there are fewer than two groups' worth). On a shared host a single
/// scheduling stall can own a window's whole tail; the median over groups
/// keeps one stall from deciding the run.
pub fn tail_p99(samples: &[f64]) -> f64 {
    let groups = (samples.len() / TAIL_GROUP).max(1);
    let size = samples.len() / groups;
    let p99s: Vec<f64> = (0..groups)
        .map(|g| {
            let end = if g + 1 == groups {
                samples.len()
            } else {
                (g + 1) * size
            };
            quantile(&samples[g * size..end], 0.99)
        })
        .collect();
    median(&p99s)
}

/// One printed measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured (or computed, where the docs say so).
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Builds a [`Metric`].
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Formats a number for JSON with every digit Rust's shortest round-trip
/// formatting keeps; non-finite values (which JSON cannot carry) print as
/// `null` so a broken measurement is visible rather than silently zero.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn tail_p99_is_the_median_group_tail() {
        let mut xs: Vec<f64> = (0..3000).map(|i| (i % 1000) as f64).collect();
        assert_eq!(tail_p99(&xs[..500]), quantile(&xs[..500], 0.99));
        // One stall in the first group moves its p99, not the median.
        for x in &mut xs[..20] {
            *x = 1e6;
        }
        assert_eq!(tail_p99(&xs), quantile(&xs[1000..2000], 0.99));
    }
}
