//! Bit-exactness of the dispatched matmul tile on the paper preset's
//! serving path:
//! * `Matrix::matmul` equals `Matrix::matmul_naive` bit for bit at every
//!   matmul shape one 64-session batch of the paper preset issues;
//! * a batched `EncoderSnapshot::push_batch` over 64 flows equals 64
//!   per-flow `EncoderState::push` calls, so batching cannot move a bit.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use amoeba::core::{AmoebaConfig, EncoderState, StateEncoder};
use amoeba::nn::matrix::Matrix;
use amoeba::traffic::Layer;

/// Sessions per serving batch.
const BATCH: usize = 64;

/// `(m, k, n)` of every matmul in one paper-preset batch: the GRU's
/// input (`2 → 3H`) and hidden (`H → 3H`) gate products at `H = 512`,
/// then the actor MLP `2H → 256 → 64 → 32 → 4` (action mean and log-std).
const PAPER_SHAPES: [(usize, usize, usize); 6] = [
    (BATCH, 2, 1536),
    (BATCH, 512, 1536),
    (BATCH, 1024, 256),
    (BATCH, 256, 64),
    (BATCH, 64, 32),
    (BATCH, 32, 4),
];

#[test]
fn matmul_is_bit_exact_at_paper_serving_shapes() {
    let mut rng = StdRng::seed_from_u64(7);
    for (m, k, n) in PAPER_SHAPES {
        let mut a = Matrix::randn(m, k, 1.0, &mut rng);
        // Exact zeros of both signs exercise the zero skip.
        for v in a.as_mut_slice().iter_mut() {
            if *v < -0.5 {
                *v = if *v < -1.0 { -0.0 } else { 0.0 };
            }
        }
        let b = Matrix::randn(k, n, 1.0, &mut rng);
        let fast = a.matmul(&b);
        let naive = a.matmul_naive(&b);
        assert_eq!(fast.shape(), naive.shape());
        for (idx, (x, y)) in fast.as_slice().iter().zip(naive.as_slice()).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{m}x{k}x{n} at ({}, {})",
                idx / n,
                idx % n
            );
        }
    }
}

#[test]
fn paper_encoder_push_batch_equals_per_flow_pushes() {
    let cfg = AmoebaConfig::paper(Layer::Tcp);
    let mut rng = StdRng::seed_from_u64(11);
    let enc = StateEncoder::new(cfg.encoder_hidden, cfg.encoder_layers, &mut rng).snapshot();
    let mut batched: Vec<EncoderState> = (0..BATCH).map(|_| enc.begin()).collect();
    let mut per_flow = batched.clone();
    let indices: Vec<usize> = (0..BATCH).collect();
    for step in 0..3 {
        // (size, delay) steps; every fourth flow sends a zero delay.
        let obs: Vec<[f32; 2]> = (0..BATCH)
            .map(|i| {
                let delay = if i % 4 == step % 4 {
                    0.0
                } else {
                    rng.gen_range(0.0f32..1.0)
                };
                [rng.gen_range(-1.0f32..1.0), delay]
            })
            .collect();
        let steps = Matrix::from_vec(BATCH, 2, obs.iter().flatten().copied().collect());
        enc.push_batch(&mut batched, &indices, &steps);
        for (state, o) in per_flow.iter_mut().zip(&obs) {
            state.push(&enc, *o);
        }
        for (i, (b, p)) in batched.iter().zip(&per_flow).enumerate() {
            assert_eq!(b.hidden_size(), cfg.encoder_hidden);
            for (j, (x, y)) in b
                .representation()
                .iter()
                .zip(p.representation())
                .enumerate()
            {
                assert_eq!(x.to_bits(), y.to_bits(), "step {step}, flow {i}, unit {j}");
            }
        }
    }
}
