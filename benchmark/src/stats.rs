//! The estimators every ledger number goes through.
//!
//! Medians rather than means: on a 2-core host a neighbour's burst lands
//! in one or two rounds, and a median over interleaved rounds drops it.

/// Median of a sample; the mean of the two middle values for even sizes.
/// `NaN` for an empty sample, so a missing measurement cannot pass as 0.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Geometric mean. Any non-positive or non-finite input makes the result
/// `NaN`: a dead queue must not be averaged away.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() || xs.iter().any(|x| !x.is_finite() || *x <= 0.0) {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Coefficient of variation (population sd / mean) of a count series;
/// 0 for fewer than two samples or an all-zero series.
pub fn cv(xs: &[u64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<u64>() as f64 / n;
    if mean == 0.0 {
        return 0.0;
    }
    let var = xs.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / n;
    var.sqrt() / mean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn median_ignores_one_outlier_round() {
        // The reason medians are used: one neighbour-noise round of seven.
        assert_eq!(median(&[5.0, 5.1, 4.9, 5.0, 0.3, 5.05, 4.95]), 5.0);
    }

    #[test]
    fn geomean_known_values_and_dead_queue() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!(geomean(&[3.0, 0.0]).is_nan());
        assert!(geomean(&[3.0, f64::NAN]).is_nan());
        assert!(geomean(&[]).is_nan());
    }

    #[test]
    fn cv_of_steady_and_swinging_series() {
        assert_eq!(cv(&[10, 10, 10, 10]), 0.0);
        // mean 10, population sd 10 → cv 1.
        assert!((cv(&[0, 20, 0, 20]) - 1.0).abs() < 1e-12);
        assert_eq!(cv(&[5]), 0.0);
        assert_eq!(cv(&[0, 0, 0]), 0.0);
    }
}
