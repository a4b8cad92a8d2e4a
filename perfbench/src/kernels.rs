//! Isolated microbenchmarks of the tier-A matmul kernels at the largest
//! shape a serving workload issues: the ceiling `backend.gmac_per_s`
//! is measured against.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use amoeba_nn::matrix::Matrix;
use amoeba_nn::simd::{matmul_packed_into, pack_rhs, MatmulKernel, SimdLevel};

use crate::stats::median;

/// Samples per kernel; the median is reported.
const SAMPLES: usize = 5;
/// Minimum wall time of one sample.
const SAMPLE_NS: u128 = 10_000_000;

/// Achieved GMAC/s of `kernel` (`cpu` = blocked scalar, `simd` = the
/// dispatched micro-panel, `packed` = pre-packed weights) on an
/// `(m, k) × (k, n)` product of random matrices.
pub fn gmac_per_s(kernel: &str, (m, k, n): (usize, usize, usize), seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let lhs = Matrix::randn(m, k, 1.0, &mut rng);
    let rhs = Matrix::randn(k, n, 1.0, &mut rng);
    let level = SimdLevel::detect();
    let packed = pack_rhs(rhs.as_slice(), k, n);
    let mut out = vec![0f32; m * n];
    let mut call = || match kernel {
        "cpu" => drop(std::hint::black_box(lhs.matmul(&rhs))),
        "simd" => drop(std::hint::black_box(
            lhs.matmul_with(&rhs, MatmulKernel::Simd),
        )),
        "packed" => {
            out.fill(0.0);
            matmul_packed_into(level, lhs.as_slice(), &packed, &mut out, m, k, n);
            std::hint::black_box(&out);
        }
        other => panic!("unknown kernel {other}"),
    };
    call(); // warm caches and the dispatch
    let macs = (m * k * n) as f64;
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            let mut calls = 0u32;
            while calls == 0 || t.elapsed().as_nanos() < SAMPLE_NS {
                call();
                calls += 1;
            }
            macs * f64::from(calls) / t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kernel_reports_a_rate() {
        for k in crate::report::KERNELS {
            let g = gmac_per_s(k, (4, 16, 8), 1);
            assert!(g.is_finite() && g > 0.0, "{k}: {g}");
        }
    }
}
