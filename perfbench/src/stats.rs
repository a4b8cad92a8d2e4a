//! Small numeric helpers: order statistics and the FNV-1a fingerprint.

/// Type-7 (linear interpolation between closest ranks) quantile of
/// `values` at `q` in `[0, 1]`; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let h = (v.len() - 1) as f64 * q.clamp(0.0, 1.0);
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    v[lo] + (h - lo as f64) * (v[hi] - v[lo])
}

/// Median (type-7 quantile at 0.5).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Element-wise median of sample vectors, as long as the shortest; empty
/// when there are none.
pub fn per_index_median(vectors: &[Vec<f64>]) -> Vec<f64> {
    let len = vectors.iter().map(Vec::len).min().unwrap_or(0);
    (0..len)
        .map(|i| median(&vectors.iter().map(|v| v[i]).collect::<Vec<_>>()))
        .collect()
}

/// FNV-1a 64 over a byte stream, continuing from `h` (start from
/// [`FNV_OFFSET`]).
pub fn fnv1a(mut h: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// FNV-1a 64 offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&v, 0.25) - 1.75).abs() < 1e-12);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn per_index_median_drops_one_stretched_sample() {
        let units = [
            vec![1.0, 2.0, 9.0],
            vec![1.0, 50.0, 9.0],
            vec![3.0, 2.0, 8.0, 4.0],
        ];
        assert_eq!(per_index_median(&units), [1.0, 2.0, 9.0]);
        assert!(per_index_median(&[]).is_empty());
    }

    #[test]
    fn fnv_is_order_sensitive() {
        let a = fnv1a(FNV_OFFSET, [1u8, 2]);
        let b = fnv1a(FNV_OFFSET, [2u8, 1]);
        assert_ne!(a, b);
        assert_eq!(a, fnv1a(fnv1a(FNV_OFFSET, [1u8]), [2u8]));
    }
}
