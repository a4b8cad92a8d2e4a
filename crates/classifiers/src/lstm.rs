//! LSTM censor [Rimmer et al., NDSS'18]: a multi-layer recurrent network
//! that consumes flows of *arbitrary length* — the paper highlights this
//! as its advantage for interpreting consecutive packets as time series.
//!
//! Unlike DF/SDAE, the LSTM censor does not pad flows to a fixed length at
//! inference: it runs the recurrence over however many packets the (prefix
//! of the) flow contains.

use rand::Rng;

use amoeba_nn::forward::{Forward, Pipeline};
use amoeba_nn::layers::{Activation, Linear};
use amoeba_nn::matrix::Matrix;
use amoeba_nn::rnn::Lstm;
use amoeba_nn::tensor::Tensor;
use amoeba_traffic::{Flow, FlowRepr};

use crate::censor::{Censor, CensorKind};

/// Architecture for [`LstmModel`].
#[derive(Debug, Clone, Copy)]
pub struct LstmConfig {
    /// Hidden width per layer.
    pub hidden: usize,
    /// Number of stacked layers.
    pub layers: usize,
}

impl Default for LstmConfig {
    fn default() -> Self {
        Self {
            hidden: 32,
            layers: 2,
        }
    }
}

/// Trainable LSTM classifier.
pub struct LstmModel {
    lstm: Lstm,
    head: Linear,
    repr: FlowRepr,
}

impl LstmModel {
    /// Builds an untrained LSTM classifier.
    pub fn new<R: Rng + ?Sized>(repr: FlowRepr, config: LstmConfig, rng: &mut R) -> Self {
        let lstm = Lstm::new(FlowRepr::CHANNELS, config.hidden, config.layers, rng);
        let head = Linear::new(config.hidden, 1, rng);
        Self { lstm, head, repr }
    }

    /// Flow representation (used for normalisation constants only; the
    /// sequence length is not fixed).
    pub fn repr(&self) -> FlowRepr {
        self.repr
    }

    /// Autograd forward over one flow (variable length); returns a `(1,1)`
    /// logit.
    pub fn forward_flow(&self, flow: &Flow) -> Tensor {
        let steps = self.repr.to_steps(flow);
        if steps.is_empty() {
            // An empty flow carries no evidence; forward a single zero step.
            let x = vec![Tensor::constant(Matrix::zeros(1, 2))];
            return self.head.forward(&self.lstm.forward_sequence(&x));
        }
        let xs: Vec<Tensor> = steps
            .iter()
            .map(|s| Tensor::constant(Matrix::from_vec(1, 2, s.to_vec())))
            .collect();
        self.head.forward(&self.lstm.forward_sequence(&xs))
    }

    /// Autograd forward over a fixed-length position-major batch
    /// `(B, max_len * 2)` — the interface used by the white-box attacks,
    /// which operate on padded representations.
    pub fn forward_graph(&self, x: &Tensor) -> Tensor {
        let (_, width) = x.shape();
        let steps = width / FlowRepr::CHANNELS;
        let xs: Vec<Tensor> = (0..steps).map(|t| x.slice_cols(t * 2, t * 2 + 2)).collect();
        self.head.forward(&self.lstm.forward_sequence(&xs))
    }

    /// Trainable parameters.
    pub fn params(&self) -> Vec<Tensor> {
        let mut p = self.lstm.params();
        p.extend(self.head.params());
        p
    }

    /// Freezes current weights into a thread-safe censor: the recurrence,
    /// the dense head and the sigmoid squash become one [`Pipeline`].
    pub fn censor(&self) -> LstmCensor {
        LstmCensor {
            net: Pipeline::new()
                .then(self.lstm.snapshot())
                .then(self.head.snapshot())
                .then(Activation::Sigmoid),
            repr: self.repr,
        }
    }
}

/// Inference-only LSTM censor (`Send + Sync`).
#[derive(Clone, Debug)]
pub struct LstmCensor {
    net: Pipeline,
    repr: FlowRepr,
}

impl Censor for LstmCensor {
    fn score(&self, flow: &Flow) -> f32 {
        // One timestep per row, per the recurrent Forward convention; an
        // empty flow contributes a single zero step (no evidence).
        let mut x = Matrix::zeros(flow.len().max(1), FlowRepr::CHANNELS);
        for (step, p) in x
            .as_mut_slice()
            .chunks_exact_mut(FlowRepr::CHANNELS)
            .zip(&flow.packets)
        {
            step[0] = self.repr.norm_size(p.size);
            step[1] = self.repr.norm_delay(p.delay_ms);
        }
        self.net.forward(&x)[(0, 0)]
    }

    fn kind(&self) -> CensorKind {
        CensorKind::Lstm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn handles_arbitrary_lengths() {
        let mut rng = StdRng::seed_from_u64(1);
        let model = LstmModel::new(FlowRepr::tcp(), LstmConfig::default(), &mut rng);
        let censor = model.censor();
        for len in [1usize, 3, 20, 150] {
            let pairs: Vec<(i32, f32)> = (0..len)
                .map(|i| (536 * (1 - 2 * (i as i32 % 2)), 1.0))
                .collect();
            let flow = Flow::from_pairs(&pairs);
            let s = censor.score(&flow);
            assert!((0.0..=1.0).contains(&s), "len {len} score {s}");
        }
    }

    #[test]
    fn censor_matches_graph_forward() {
        let mut rng = StdRng::seed_from_u64(2);
        let model = LstmModel::new(FlowRepr::tcp(), LstmConfig::default(), &mut rng);
        let censor = model.censor();
        let flow = Flow::from_pairs(&[(536, 0.0), (-536, 5.0), (-1072, 0.5)]);
        let logit = model.forward_flow(&flow).value()[(0, 0)];
        let expect = 1.0 / (1.0 + (-logit).exp());
        assert!((censor.score(&flow) - expect).abs() < 1e-5);
    }

    #[test]
    fn fixed_length_graph_equals_flow_forward_on_padded_flow() {
        let mut rng = StdRng::seed_from_u64(3);
        let repr = FlowRepr {
            max_len: 4,
            max_size: 1460.0,
            max_delay_ms: 500.0,
        };
        let model = LstmModel::new(repr, LstmConfig::default(), &mut rng);
        // A flow of exactly max_len packets: both paths see identical input.
        let flow = Flow::from_pairs(&[(100, 0.0), (-200, 1.0), (300, 2.0), (-400, 3.0)]);
        let via_flow = model.forward_flow(&flow).value()[(0, 0)];
        let row = repr.to_position_major(&flow);
        let via_graph = model
            .forward_graph(&Tensor::constant(Matrix::from_vec(1, row.len(), row)))
            .value()[(0, 0)];
        assert!((via_flow - via_graph).abs() < 1e-5);
    }

    #[test]
    fn empty_flow_scores_without_panicking() {
        let mut rng = StdRng::seed_from_u64(4);
        let model = LstmModel::new(FlowRepr::tcp(), LstmConfig::default(), &mut rng);
        let s = model.censor().score(&Flow::new());
        assert!((0.0..=1.0).contains(&s));
    }

    #[test]
    fn gradients_reach_all_params() {
        let mut rng = StdRng::seed_from_u64(5);
        let model = LstmModel::new(
            FlowRepr::tcp(),
            LstmConfig {
                hidden: 8,
                layers: 2,
            },
            &mut rng,
        );
        let flow = Flow::from_pairs(&[(536, 0.0), (-536, 1.0)]);
        let target = Matrix::from_vec(1, 1, vec![1.0]);
        let loss = model.forward_flow(&flow).bce_with_logits_loss(&target);
        loss.backward();
        let with_grad = model
            .params()
            .iter()
            .filter(|p| p.grad().norm() > 0.0)
            .count();
        // All head params and first-layer LSTM params must receive gradient.
        assert!(
            with_grad >= model.params().len() - 1,
            "{with_grad} params with gradient"
        );
    }
}
