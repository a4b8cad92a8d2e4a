//! Feature standardisation (zero mean, unit variance), matching
//! scikit-learn's `StandardScaler`, which the paper's feature-based
//! classifiers (DT/RF/CUMUL) rely on.

/// Per-feature standardiser fitted on a training set.
#[derive(Debug, Clone)]
pub struct StandardScaler {
    mean: Vec<f32>,
    std: Vec<f32>,
}

impl StandardScaler {
    /// Fits means and standard deviations per feature column.
    ///
    /// # Panics
    /// Panics on empty input or ragged rows.
    pub fn fit(x: &[Vec<f32>]) -> Self {
        assert!(!x.is_empty(), "StandardScaler::fit: empty dataset");
        let d = x[0].len();
        assert!(
            x.iter().all(|r| r.len() == d),
            "StandardScaler::fit: ragged rows"
        );
        let n = x.len() as f32;
        let mut mean = vec![0.0f32; d];
        for row in x {
            for (m, &v) in mean.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        let mut var = vec![0.0f32; d];
        for row in x {
            for ((v, &m), &xv) in var.iter_mut().zip(&mean).zip(row) {
                let c = xv - m;
                *v += c * c;
            }
        }
        let std = var
            .into_iter()
            .map(|v| {
                let s = (v / n).sqrt();
                if s < 1e-8 {
                    1.0 // constant feature: leave centred values at 0
                } else {
                    s
                }
            })
            .collect();
        Self { mean, std }
    }

    /// Standardises one feature row.
    pub fn transform_row(&self, row: &[f32]) -> Vec<f32> {
        let mut out = row.to_vec();
        self.transform_row_in_place(&mut out);
        out
    }

    /// Standardises one feature row in the caller's buffer.
    ///
    /// # Panics
    /// Panics when the row is not as wide as the fitted features.
    pub fn transform_row_in_place(&self, row: &mut [f32]) {
        assert_eq!(row.len(), self.mean.len(), "transform: width mismatch");
        for (v, (&m, &s)) in row.iter_mut().zip(self.mean.iter().zip(&self.std)) {
            *v = (*v - m) / s;
        }
    }

    /// Standardises a whole dataset.
    pub fn transform(&self, x: &[Vec<f32>]) -> Vec<Vec<f32>> {
        x.iter().map(|r| self.transform_row(r)).collect()
    }

    /// Convenience: fit then transform.
    pub fn fit_transform(x: &[Vec<f32>]) -> (Self, Vec<Vec<f32>>) {
        let scaler = Self::fit(x);
        let t = scaler.transform(x);
        (scaler, t)
    }

    /// Feature dimensionality.
    pub fn n_features(&self) -> usize {
        self.mean.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standardises_to_zero_mean_unit_var() {
        let x = vec![
            vec![1.0, 100.0],
            vec![2.0, 200.0],
            vec![3.0, 300.0],
            vec![4.0, 400.0],
        ];
        let (_, t) = StandardScaler::fit_transform(&x);
        for col in 0..2 {
            let mean: f32 = t.iter().map(|r| r[col]).sum::<f32>() / 4.0;
            let var: f32 = t.iter().map(|r| (r[col] - mean).powi(2)).sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-5, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-4, "var {var}");
        }
    }

    #[test]
    fn constant_features_map_to_zero() {
        let x = vec![vec![5.0], vec![5.0], vec![5.0]];
        let (scaler, t) = StandardScaler::fit_transform(&x);
        assert!(t.iter().all(|r| r[0] == 0.0));
        assert_eq!(scaler.transform_row(&[5.0]), vec![0.0]);
    }

    #[test]
    fn transform_is_affine() {
        let x = vec![vec![0.0], vec![10.0]];
        let scaler = StandardScaler::fit(&x);
        let a = scaler.transform_row(&[2.0])[0];
        let b = scaler.transform_row(&[4.0])[0];
        let c = scaler.transform_row(&[6.0])[0];
        assert!(((b - a) - (c - b)).abs() < 1e-6);
    }
}
