//! Tree-based censors (DT and RF) over the 166-feature representation
//! [Barradas et al., USENIX Security'18].

use amoeba_ml::{DecisionTree, RandomForest};
use amoeba_nn::{Forward, Matrix};
use amoeba_traffic::{extract_features, Flow, Layer};

use crate::censor::{Censor, CensorKind};

/// Decision-tree censor.
#[derive(Debug, Clone)]
pub struct TreeCensor {
    /// The fitted tree.
    pub tree: DecisionTree,
    /// Observation layer (sets the feature extractor's size normaliser).
    pub layer: Layer,
}

impl Forward for TreeCensor {
    /// Each row of `x` is one 166-feature vector; returns `(B, 1)`
    /// P(sensitive) leaf probabilities.
    fn forward(&self, x: &Matrix) -> Matrix {
        let probs = (0..x.rows())
            .map(|r| self.tree.predict_proba(x.row(r)))
            .collect();
        Matrix::col_vector(probs)
    }
}

impl Censor for TreeCensor {
    fn score(&self, flow: &Flow) -> f32 {
        self.tree.predict_proba(&extract_features(flow, self.layer))
    }

    fn kind(&self) -> CensorKind {
        CensorKind::Dt
    }
}

/// Random-forest censor.
#[derive(Debug, Clone)]
pub struct ForestCensor {
    /// The fitted forest.
    pub forest: RandomForest,
    /// Observation layer.
    pub layer: Layer,
}

impl Forward for ForestCensor {
    /// Each row of `x` is one 166-feature vector; returns `(B, 1)`
    /// ensemble-averaged P(sensitive).
    fn forward(&self, x: &Matrix) -> Matrix {
        let probs = (0..x.rows())
            .map(|r| self.forest.predict_proba(x.row(r)))
            .collect();
        Matrix::col_vector(probs)
    }
}

impl Censor for ForestCensor {
    fn score(&self, flow: &Flow) -> f32 {
        self.forest
            .predict_proba(&extract_features(flow, self.layer))
    }

    fn kind(&self) -> CensorKind {
        CensorKind::Rf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoeba_ml::{ForestConfig, TreeConfig};
    use amoeba_traffic::{build_dataset, DatasetKind, Label};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn tree_censor_separates_tor_from_https() {
        let mut rng = StdRng::seed_from_u64(1);
        let ds = build_dataset(DatasetKind::Tor, 60, None, 5);
        let x: Vec<Vec<f32>> = ds
            .flows
            .iter()
            .map(|f| extract_features(f, Layer::Tcp))
            .collect();
        let y = ds.labels_u8();
        let tree = DecisionTree::fit(&x, &y, TreeConfig::default(), &mut rng);
        let censor = TreeCensor {
            tree,
            layer: Layer::Tcp,
        };
        let mut correct = 0;
        for (f, &l) in ds.flows.iter().zip(&ds.labels) {
            if censor.blocks(f) == (l == Label::Sensitive) {
                correct += 1;
            }
        }
        assert!(
            correct as f32 / ds.len() as f32 > 0.95,
            "train acc {correct}/{}",
            ds.len()
        );
        assert_eq!(censor.kind(), CensorKind::Dt);
    }

    #[test]
    fn forest_censor_scores_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(2);
        let ds = build_dataset(DatasetKind::Tor, 30, None, 6);
        let x: Vec<Vec<f32>> = ds
            .flows
            .iter()
            .map(|f| extract_features(f, Layer::Tcp))
            .collect();
        let forest = RandomForest::fit(
            &x,
            &ds.labels_u8(),
            ForestConfig {
                n_trees: 10,
                ..Default::default()
            },
            &mut rng,
        );
        let censor = ForestCensor {
            forest,
            layer: Layer::Tcp,
        };
        for f in &ds.flows {
            let s = censor.score(f);
            assert!((0.0..=1.0).contains(&s));
        }
        assert_eq!(censor.kind(), CensorKind::Rf);
    }
}
