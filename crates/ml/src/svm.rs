//! Support vector machine with an RBF kernel, trained by simplified SMO
//! (Platt's sequential minimal optimisation, simplified variant).
//!
//! This is the backbone of the CUMUL censoring classifier [Panchenko et
//! al., NDSS'16], which the paper describes as "SVM with a radial basis
//! function kernel".

use rand::Rng;

/// Kernel selection for [`Svm`].
#[derive(Debug, Clone, Copy)]
pub enum Kernel {
    /// Linear kernel `<x, y>`.
    Linear,
    /// RBF kernel `exp(-gamma * ||x - y||^2)`.
    Rbf {
        /// Width parameter.
        gamma: f32,
    },
}

impl Kernel {
    fn eval(&self, a: &[f32], b: &[f32]) -> f32 {
        match self {
            Kernel::Linear => a.iter().zip(b).map(|(x, y)| x * y).sum(),
            Kernel::Rbf { gamma } => {
                let d2: f32 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
                (-gamma * d2).exp()
            }
        }
    }
}

/// Hyperparameters for SMO training.
#[derive(Debug, Clone, Copy)]
pub struct SvmConfig {
    /// Soft-margin penalty.
    pub c: f32,
    /// KKT violation tolerance.
    pub tol: f32,
    /// Number of full passes without a change before stopping.
    pub max_passes: usize,
    /// Hard cap on optimisation sweeps.
    pub max_iters: usize,
    /// Kernel.
    pub kernel: Kernel,
}

impl Default for SvmConfig {
    fn default() -> Self {
        Self {
            c: 1.0,
            tol: 1e-3,
            max_passes: 5,
            max_iters: 200,
            kernel: Kernel::Rbf { gamma: 0.5 },
        }
    }
}

/// Support vectors per block of [`Svm`]'s layout, one lane each.
const LANES: usize = 16;

/// Per lane of one block, the sum of `term(sv_f, x_f)` over the features
/// in ascending order, from the `-0.0` that `Iterator::sum` starts at.
/// Kept out of line so the lanes vectorise.
#[inline(never)]
fn lane_sums(
    columns: &[[f32; LANES]],
    features: &[f32],
    term: impl Fn(f32, f32) -> f32,
) -> [f32; LANES] {
    let mut acc = [-0.0f32; LANES];
    for (column, &xf) in columns.iter().zip(features) {
        for (a, &v) in acc.iter_mut().zip(column) {
            *a += term(v, xf);
        }
    }
    acc
}

/// Trained SVM model (support vectors + multipliers).
///
/// **Layout.** The support vectors are stored once, in blocks of
/// `LANES` (16), feature-major within a block: feature `f` of support vector
/// `b * LANES + l` sits at `blocks[(b * dim + f) * LANES + l]`, and the
/// last block is zero-padded. [`Svm::decision_function`] then streams one
/// block per pass and keeps `LANES` independent kernel sums in flight,
/// instead of one serial sum per support vector.
///
/// **Exactness.** It is bit-identical to summing `coef_i · K(sv_i, x)`
/// over the support vectors in order with [`Kernel`]'s per-pair formula:
/// each lane adds its `(sv − x)²` (or `sv · x`) terms over the features in
/// ascending order from the same `-0.0` start as `Iterator::sum`, with no
/// fused multiply-add, and the `exp` and the `s += coef · k` accumulation
/// stay scalar, in support-vector order.
#[derive(Debug, Clone)]
pub struct Svm {
    /// The support vectors, in the blocked layout above.
    blocks: Vec<f32>,
    /// Feature width of the support vectors.
    dim: usize,
    /// `alpha_i * y_i` for each support vector (y in {-1, +1}).
    coef: Vec<f32>,
    bias: f32,
    kernel: Kernel,
}

impl Svm {
    /// Trains with simplified SMO on binary labels 0/1.
    ///
    /// # Panics
    /// Panics on empty input, ragged rows or labels other than 0/1.
    pub fn fit<R: Rng + ?Sized>(x: &[Vec<f32>], y: &[u8], config: SvmConfig, rng: &mut R) -> Self {
        assert!(!x.is_empty(), "Svm::fit: empty dataset");
        assert_eq!(x.len(), y.len(), "Svm::fit: x/y length mismatch");
        assert!(y.iter().all(|&l| l <= 1), "Svm::fit: labels must be 0/1");
        let dim = x[0].len();
        assert!(x.iter().all(|r| r.len() == dim), "Svm::fit: ragged rows");
        let n = x.len();
        let ys: Vec<f32> = y.iter().map(|&l| if l == 1 { 1.0 } else { -1.0 }).collect();

        // Precompute the kernel matrix (datasets here are at most a few
        // thousand samples, so O(n^2) memory is acceptable).
        let mut k = vec![0.0f32; n * n];
        for i in 0..n {
            for j in i..n {
                let v = config.kernel.eval(&x[i], &x[j]);
                k[i * n + j] = v;
                k[j * n + i] = v;
            }
        }

        let mut alpha = vec![0.0f32; n];
        let mut b = 0.0f32;
        let f = |alpha: &[f32], b: f32, i: usize, k: &[f32], ys: &[f32]| -> f32 {
            let mut s = b;
            for j in 0..n {
                if alpha[j] != 0.0 {
                    s += alpha[j] * ys[j] * k[j * n + i];
                }
            }
            s
        };

        let mut passes = 0usize;
        let mut iters = 0usize;
        while passes < config.max_passes && iters < config.max_iters {
            iters += 1;
            let mut changed = 0usize;
            for i in 0..n {
                let ei = f(&alpha, b, i, &k, &ys) - ys[i];
                let violates = (ys[i] * ei < -config.tol && alpha[i] < config.c)
                    || (ys[i] * ei > config.tol && alpha[i] > 0.0);
                if !violates {
                    continue;
                }
                // Pick a random j != i.
                let mut j = rng.gen_range(0..n - 1);
                if j >= i {
                    j += 1;
                }
                let ej = f(&alpha, b, j, &k, &ys) - ys[j];
                let (ai_old, aj_old) = (alpha[i], alpha[j]);
                let (lo, hi) = if (ys[i] - ys[j]).abs() > f32::EPSILON {
                    (
                        (alpha[j] - alpha[i]).max(0.0),
                        (config.c + alpha[j] - alpha[i]).min(config.c),
                    )
                } else {
                    (
                        (alpha[i] + alpha[j] - config.c).max(0.0),
                        (alpha[i] + alpha[j]).min(config.c),
                    )
                };
                if hi - lo < 1e-8 {
                    continue; // degenerate box (float noise can make hi < lo)
                }
                let eta = 2.0 * k[i * n + j] - k[i * n + i] - k[j * n + j];
                if eta >= 0.0 {
                    continue;
                }
                let mut aj = aj_old - ys[j] * (ei - ej) / eta;
                aj = aj.min(hi).max(lo);
                if (aj - aj_old).abs() < 1e-5 {
                    continue;
                }
                let ai = ai_old + ys[i] * ys[j] * (aj_old - aj);
                alpha[i] = ai;
                alpha[j] = aj;

                let b1 = b
                    - ei
                    - ys[i] * (ai - ai_old) * k[i * n + i]
                    - ys[j] * (aj - aj_old) * k[i * n + j];
                let b2 = b
                    - ej
                    - ys[i] * (ai - ai_old) * k[i * n + j]
                    - ys[j] * (aj - aj_old) * k[j * n + j];
                b = if ai > 0.0 && ai < config.c {
                    b1
                } else if aj > 0.0 && aj < config.c {
                    b2
                } else {
                    0.5 * (b1 + b2)
                };
                changed += 1;
            }
            if changed == 0 {
                passes += 1;
            } else {
                passes = 0;
            }
        }

        let support: Vec<usize> = (0..n).filter(|&i| alpha[i] > 1e-7).collect();
        let coef = support.iter().map(|&i| alpha[i] * ys[i]).collect();
        let mut blocks = vec![0.0f32; support.len().div_ceil(LANES) * dim * LANES];
        for (j, &i) in support.iter().enumerate() {
            let block = j / LANES * dim * LANES;
            for (f, &v) in x[i].iter().enumerate() {
                blocks[block + f * LANES + j % LANES] = v;
            }
        }
        Self {
            blocks,
            dim,
            coef,
            bias: b,
            kernel: config.kernel,
        }
    }

    /// Signed decision value (`> 0` ⇒ class 1); `bias` when there are no
    /// support vectors.
    ///
    /// # Panics
    /// Panics when `features` is not as wide as the support vectors.
    pub fn decision_function(&self, features: &[f32]) -> f32 {
        let mut s = self.bias;
        if self.coef.is_empty() {
            return s;
        }
        assert_eq!(
            features.len(),
            self.dim,
            "Svm::decision_function: width mismatch"
        );
        let width = self.dim * LANES;
        for (b, coef) in self.coef.chunks(LANES).enumerate() {
            let (columns, _) = self.blocks[b * width..(b + 1) * width].as_chunks::<LANES>();
            match self.kernel {
                Kernel::Linear => {
                    let dots = lane_sums(columns, features, |v, xf| v * xf);
                    for (&c, &k) in coef.iter().zip(&dots) {
                        s += c * k;
                    }
                }
                Kernel::Rbf { gamma } => {
                    let d2 = lane_sums(columns, features, |v, xf| (v - xf) * (v - xf));
                    for (&c, &d2) in coef.iter().zip(&d2) {
                        s += c * (-gamma * d2).exp();
                    }
                }
            }
        }
        s
    }

    /// Hard 0/1 prediction.
    pub fn predict(&self, features: &[f32]) -> u8 {
        u8::from(self.decision_function(features) > 0.0)
    }

    /// Pseudo-probability via a logistic squash of the decision value
    /// (Platt scaling without calibration; adequate for score ECDFs).
    pub fn predict_proba(&self, features: &[f32]) -> f32 {
        1.0 / (1.0 + (-self.decision_function(features)).exp())
    }

    /// Number of support vectors retained.
    pub fn n_support_vectors(&self) -> usize {
        self.coef.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ring_dataset(n: usize, rng: &mut StdRng) -> (Vec<Vec<f32>>, Vec<u8>) {
        // class 1 inside a disc, class 0 in a surrounding ring:
        // not linearly separable, solvable with RBF.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let inner = rng.gen_bool(0.5);
            let r = if inner {
                rng.gen_range(0.0..0.8)
            } else {
                rng.gen_range(1.4..2.2)
            };
            let theta = rng.gen_range(0.0..std::f32::consts::TAU);
            x.push(vec![r * theta.cos(), r * theta.sin()]);
            y.push(u8::from(inner));
        }
        (x, y)
    }

    #[test]
    fn rbf_solves_nonlinear_ring() {
        let mut rng = StdRng::seed_from_u64(1);
        let (x, y) = ring_dataset(200, &mut rng);
        let svm = Svm::fit(&x, &y, SvmConfig::default(), &mut rng);
        let correct = x
            .iter()
            .zip(&y)
            .filter(|(xi, &yi)| svm.predict(xi) == yi)
            .count();
        assert!(correct as f32 / 200.0 > 0.95, "accuracy {correct}/200");
    }

    #[test]
    fn linear_kernel_solves_linear_problem() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..120 {
            let a: f32 = rng.gen_range(-1.0..1.0);
            let b: f32 = rng.gen_range(-1.0..1.0);
            x.push(vec![a, b]);
            y.push(u8::from(a + b > 0.3));
        }
        let cfg = SvmConfig {
            kernel: Kernel::Linear,
            c: 5.0,
            ..Default::default()
        };
        let svm = Svm::fit(&x, &y, cfg, &mut rng);
        let correct = x
            .iter()
            .zip(&y)
            .filter(|(xi, &yi)| svm.predict(xi) == yi)
            .count();
        assert!(correct as f32 / 120.0 > 0.92, "accuracy {correct}/120");
    }

    #[test]
    fn proba_is_monotone_in_decision_value() {
        let mut rng = StdRng::seed_from_u64(3);
        let (x, y) = ring_dataset(100, &mut rng);
        let svm = Svm::fit(&x, &y, SvmConfig::default(), &mut rng);
        let inside = svm.predict_proba(&[0.0, 0.0]);
        let outside = svm.predict_proba(&[2.0, 0.0]);
        assert!(inside > outside, "inside {inside} outside {outside}");
    }

    #[test]
    fn keeps_a_subset_as_support_vectors() {
        let mut rng = StdRng::seed_from_u64(4);
        let (x, y) = ring_dataset(150, &mut rng);
        let svm = Svm::fit(&x, &y, SvmConfig::default(), &mut rng);
        assert!(svm.n_support_vectors() > 0);
        assert!(svm.n_support_vectors() <= 150);
    }

    /// Support vector `j`, read back out of the blocked layout.
    fn support_vector(svm: &Svm, j: usize) -> Vec<f32> {
        let block = j / LANES * svm.dim * LANES;
        (0..svm.dim)
            .map(|f| svm.blocks[block + f * LANES + j % LANES])
            .collect()
    }

    /// The serial per-support-vector sum the blocked layout replaced.
    fn reference_decision(svm: &Svm, x: &[f32]) -> f32 {
        let mut s = svm.bias;
        for (j, &c) in svm.coef.iter().enumerate() {
            s += c * svm.kernel.eval(&support_vector(svm, j), x);
        }
        s
    }

    #[test]
    fn blocked_decision_is_bit_exact() {
        let mut rng = StdRng::seed_from_u64(6);
        let dim = 9;
        let mut sv_counts = Vec::new();
        for (n, kernel) in [
            (40, Kernel::Rbf { gamma: 0.05 }),
            (120, Kernel::Rbf { gamma: 0.5 }),
            (300, Kernel::Rbf { gamma: 0.02 }),
            (120, Kernel::Linear),
        ] {
            let x: Vec<Vec<f32>> = (0..n)
                .map(|_| (0..dim).map(|_| rng.gen_range(-2.0..2.0)).collect())
                .collect();
            let y: Vec<u8> = x.iter().map(|r| u8::from(r[0] * r[1] > 0.1)).collect();
            let cfg = SvmConfig {
                kernel,
                ..Default::default()
            };
            let svm = Svm::fit(&x, &y, cfg, &mut rng);
            sv_counts.push(svm.n_support_vectors());
            let mut queries = x.clone();
            queries.push(vec![0.0; dim]);
            queries.push(vec![-0.0; dim]);
            queries.push(
                (0..dim)
                    .map(|f| [f32::INFINITY, -0.0, 1e30, f32::NAN][f % 4])
                    .collect(),
            );
            queries.push(
                (0..dim)
                    .map(|f| if f % 2 == 0 { -1e-38 } else { 0.0 })
                    .collect(),
            );
            for q in &queries {
                let (got, want) = (svm.decision_function(q), reference_decision(&svm, q));
                assert_eq!(got.to_bits(), want.to_bits(), "{kernel:?}: {got} vs {want}");
            }
        }
        assert!(sv_counts.iter().any(|&c| c % LANES != 0), "{sv_counts:?}");
        assert!(sv_counts.iter().any(|&c| c > 2 * LANES), "{sv_counts:?}");
    }

    #[test]
    fn no_support_vectors_return_the_bias() {
        let svm = Svm {
            blocks: Vec::new(),
            dim: 3,
            coef: Vec::new(),
            bias: -0.25,
            kernel: Kernel::Rbf { gamma: 0.5 },
        };
        assert_eq!(svm.decision_function(&[1.0, 2.0, 3.0]), -0.25);
        assert_eq!(svm.predict(&[]), 0);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn rejects_a_feature_width_mismatch() {
        let mut rng = StdRng::seed_from_u64(7);
        let (x, y) = ring_dataset(60, &mut rng);
        let svm = Svm::fit(&x, &y, SvmConfig::default(), &mut rng);
        let _ = svm.decision_function(&[0.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "labels must be 0/1")]
    fn rejects_bad_labels() {
        let mut rng = StdRng::seed_from_u64(5);
        let _ = Svm::fit(&[vec![0.0]], &[3], SvmConfig::default(), &mut rng);
    }
}
