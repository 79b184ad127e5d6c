//! The benchmark's own arithmetic: order statistics and the geometric mean.

/// The `q`-quantile (`0 <= q <= 1`) of `values` by linear interpolation
/// between the two nearest ranks. `None` for an empty slice.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// The median of `values`; `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 0.5)
}

/// The geometric mean of strictly positive `values`; `None` when the slice
/// is empty or holds a value that is not positive.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&x| x <= 0.0 || !x.is_finite()) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|x| x.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 1.0), Some(4.0));
        assert_eq!(percentile(&v, 0.5), Some(2.5));
        assert_eq!(percentile(&v, 0.25), Some(1.75));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_odd_and_single_samples() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[7.5]), Some(7.5));
    }

    #[test]
    fn geomean_matches_closed_form() {
        let g = geomean(&[1.0, 4.0, 16.0]).expect("positive values");
        assert!((g - 4.0).abs() < 1e-12, "{g}");
        assert_eq!(geomean(&[2.0]), Some(2.0));
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, -2.0]), None);
    }
}
