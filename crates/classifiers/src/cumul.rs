//! CUMUL censor [Panchenko et al., NDSS'16]: RBF-kernel SVM over the
//! cumulative-trace representation, with feature standardisation.

use amoeba_ml::{StandardScaler, Svm};
use amoeba_nn::{Forward, Matrix};
use amoeba_traffic::{cumul_features, Flow};

use crate::censor::{Censor, CensorKind};

/// CUMUL censor: scaler + SVM over interpolated cumulative traces.
#[derive(Debug, Clone)]
pub struct CumulCensor {
    /// Fitted SVM.
    pub svm: Svm,
    /// Standardiser fitted on the training features.
    pub scaler: StandardScaler,
    /// Number of interpolation points used at fit time.
    pub n_points: usize,
}

impl CumulCensor {
    /// Raw (unscaled) feature vector for a flow.
    pub fn features(&self, flow: &Flow) -> Vec<f32> {
        cumul_features(flow, self.n_points)
    }
}

impl Forward for CumulCensor {
    /// Each row of `x` is one raw cumulative-trace feature vector; the
    /// standardiser and the SVM run inside the forward, returning `(B, 1)`
    /// logistic-squashed margins.
    fn forward(&self, x: &Matrix) -> Matrix {
        let probs = (0..x.rows())
            .map(|r| {
                let scaled = self.scaler.transform_row(x.row(r));
                self.svm.predict_proba(&scaled)
            })
            .collect();
        Matrix::col_vector(probs)
    }
}

impl Censor for CumulCensor {
    fn score(&self, flow: &Flow) -> f32 {
        let mut x = self.features(flow);
        self.scaler.transform_row_in_place(&mut x);
        self.svm.predict_proba(&x)
    }

    fn kind(&self) -> CensorKind {
        CensorKind::Cumul
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoeba_ml::{Kernel, SvmConfig};
    use amoeba_traffic::{build_dataset, DatasetKind, Label};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn cumul_censor_separates_v2ray_from_https() {
        let mut rng = StdRng::seed_from_u64(1);
        let ds = build_dataset(DatasetKind::V2Ray, 60, None, 3);
        let n_points = 40;
        let feats: Vec<Vec<f32>> = ds
            .flows
            .iter()
            .map(|f| cumul_features(f, n_points))
            .collect();
        let (scaler, scaled) = StandardScaler::fit_transform(&feats);
        let svm = Svm::fit(
            &scaled,
            &ds.labels_u8(),
            SvmConfig {
                kernel: Kernel::Rbf { gamma: 0.02 },
                c: 2.0,
                ..Default::default()
            },
            &mut rng,
        );
        let censor = CumulCensor {
            svm,
            scaler,
            n_points,
        };
        let mut correct = 0;
        for (f, &l) in ds.flows.iter().zip(&ds.labels) {
            if censor.blocks(f) == (l == Label::Sensitive) {
                correct += 1;
            }
        }
        assert!(
            correct as f32 / ds.len() as f32 > 0.9,
            "train acc {correct}/{}",
            ds.len()
        );
        assert_eq!(censor.kind(), CensorKind::Cumul);
    }
}
