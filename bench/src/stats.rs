//! The estimators. Exact figures (virtual time, counts) need none; host
//! times are summarised over repetitions.

/// Sorted copy of `values`.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The value a tenth of the way up the sorted sample (nearest rank): the
/// repetitions the host disturbed least, without trusting the single
/// luckiest one. `None` for an empty sample.
pub fn lower_decile(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let rank = (v.len() as f64 * 0.1).ceil() as usize;
    v.get(rank.saturating_sub(1)).copied()
}

/// The median, the mean of the middle pair for an even count. `None` for an
/// empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let mid = v.len() / 2;
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[mid]),
        _ => Some((v[mid - 1] + v[mid]) / 2.0),
    }
}

/// Distance between the largest and the smallest value as a share of the
/// median: the spread printed beside ungated diagnostics.
pub fn range_frac(values: &[f64]) -> Option<f64> {
    let m = median(values)?;
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    (m != 0.0).then(|| (max - min) / m)
}

/// The percentile rule of the metrics guide: the highest of 99.9, 99, 95 and
/// 90 that leaves at least ten of `samples` beyond it, with that count.
/// `None` when even the 90th leaves fewer.
pub fn tail_percentile(samples: usize) -> Option<(f64, usize)> {
    [(99.9, 1000), (99.0, 100), (95.0, 20), (90.0, 10)]
        .into_iter()
        .map(|(p, one_in)| (p, samples / one_in))
        .find(|(_, beyond)| *beyond >= 10)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lower_decile_is_nearest_rank() {
        let twenty: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(lower_decile(&twenty), Some(2.0));
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(lower_decile(&ten), Some(1.0));
        assert_eq!(lower_decile(&[7.0, 3.0]), Some(3.0));
        assert_eq!(lower_decile(&[]), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(10_000), Some((99.9, 10)));
        assert_eq!(tail_percentile(9_999), Some((99.0, 99)));
        assert_eq!(tail_percentile(1_000), Some((99.0, 10)));
        assert_eq!(tail_percentile(999), Some((95.0, 49)));
        assert_eq!(tail_percentile(100), Some((90.0, 10)));
        assert_eq!(tail_percentile(99), None);
    }

    #[test]
    fn range_as_share_of_median() {
        assert_eq!(range_frac(&[9.0, 10.0, 12.0]), Some(0.3));
        assert_eq!(range_frac(&[0.0, 0.0]), None);
    }
}
