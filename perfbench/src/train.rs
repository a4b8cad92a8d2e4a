//! The training workload: Algorithm 2 then Algorithm 1 against DT.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use amoeba_bench::{Context, Scale};
use amoeba_classifiers::{Censor, CensorKind, CensorProgramFactory, ClassifierProgramFactory};
use amoeba_core::{
    collect_rollouts_threaded, pretrain_encoder, train_amoeba_with_encoder, ActorSnapshot,
    AmoebaConfig, Batch, EncoderSnapshot, EnvConfig, PolicySnapshots, PpoLearner, Trajectory,
    Worker,
};
use amoeba_nn::matrix::Matrix;
use amoeba_traffic::{DatasetKind, Flow};

use crate::layers::{SpanTotals, TimedCensorFactory};
use crate::stats::{fnv1a, FNV_OFFSET};

/// Flows the StateEncoder is pretrained on (Algorithm 2).
pub const ENCODER_FLOWS: usize = 128;
/// Encoder pretraining epochs.
pub const ENCODER_EPOCHS: usize = 5;
/// PPO environment steps (Algorithm 1).
pub const PPO_STEPS: usize = 16_384;
/// OS threads running the PPO rollout workers.
const ROLLOUT_THREADS: usize = 1;

/// Inputs of the training workload, built once per run.
pub struct TrainSetup {
    /// Training config (`Scale::small()` Tor budgets, cut down).
    pub cfg: AmoebaConfig,
    /// The DT censor trained on the Tor classifier split.
    pub censor: Arc<dyn Censor>,
    /// Sensitive flows of the attack-train split.
    pub flows: Vec<Flow>,
    /// Sensitive flows of the test split.
    pub eval: Vec<Flow>,
}

/// Builds the dataset and trains the DT censor.
pub fn setup(seed: u64) -> TrainSetup {
    let scale = Scale {
        seed,
        ..Scale::small()
    };
    // One rollout thread: trajectories are bit-identical for any thread
    // count, and a fixed count keeps the workload the same on every
    // machine. [`drive_pass`] runs the workers one by one to the same end.
    let mut cfg = scale
        .amoeba_config(DatasetKind::Tor)
        .with_timesteps(PPO_STEPS)
        .with_rollout_threads(ROLLOUT_THREADS);
    cfg.encoder_train_flows = ENCODER_FLOWS;
    cfg.encoder_epochs = ENCODER_EPOCHS;
    let mut ctx = Context::new(scale);
    TrainSetup {
        censor: ctx.censor(DatasetKind::Tor, CensorKind::Dt),
        flows: ctx.attack_flows(DatasetKind::Tor),
        eval: ctx.eval_flows(DatasetKind::Tor),
        cfg,
    }
}

/// Fingerprint of a frozen policy: the bits of the encoder states and
/// actor heads on a fixed probe sequence. Equal fingerprints mean the
/// two policies compute bit-identical outputs on the probe, which any
/// differing weight would almost surely change.
pub fn policy_fingerprint(encoder: &EncoderSnapshot, actor: &ActorSnapshot) -> u64 {
    const STEPS: usize = 16;
    let mut x = encoder.begin();
    let mut a = encoder.begin();
    let mut rows = Vec::with_capacity(STEPS * 2 * encoder.hidden_size());
    for t in 0..STEPS {
        let s = t as f32;
        x.push(encoder, [(0.37 * s).sin(), (0.11 * s).cos()]);
        a.push(encoder, [(0.23 * s).cos(), (0.71 * s).sin()]);
        rows.extend_from_slice(x.representation());
        rows.extend_from_slice(a.representation());
    }
    let states = Matrix::from_vec(STEPS, 2 * encoder.hidden_size(), rows);
    let (means, logstds) = actor.head_batch(&states);
    [&states, &means, &logstds]
        .into_iter()
        .flat_map(|m| m.as_slice().iter())
        .fold(FNV_OFFSET, |h, v| fnv1a(h, v.to_bits().to_le_bytes()))
}

/// One untraced training pass through the crates' own entry points.
pub struct TrainPass {
    /// Algorithm 2 wall time.
    pub pretrain: Duration,
    /// Algorithm 1 (PPO) wall time.
    pub ppo: Duration,
    /// PPO environment steps taken.
    pub steps: usize,
    /// Gym evaluation of the trained agent: attack success rate.
    pub asr: f64,
    /// Gym evaluation: mean data overhead (§5.3).
    pub data_overhead: f64,
    /// Gym evaluation wall time.
    pub eval: Duration,
    /// [`policy_fingerprint`] of the trained agent.
    pub policy_fp: u64,
}

/// Pretrains the encoder, trains the agent with
/// `train_amoeba_with_encoder`, and evaluates it.
pub fn run_pass(setup: &TrainSetup) -> TrainPass {
    let layer = DatasetKind::Tor.layer();
    let t0 = Instant::now();
    let (encoder, loss) = pretrain_encoder(&setup.cfg);
    let t1 = Instant::now();
    let (agent, report) = train_amoeba_with_encoder(
        Arc::clone(&setup.censor),
        &setup.flows,
        layer,
        &setup.cfg,
        encoder,
        loss,
        None,
    );
    let t2 = Instant::now();
    let eval = agent.evaluate(&setup.censor, &setup.eval);
    TrainPass {
        pretrain: t1 - t0,
        ppo: t2 - t1,
        steps: report.total_timesteps(),
        asr: f64::from(eval.asr()),
        data_overhead: f64::from(eval.data_overhead()),
        eval: t2.elapsed(),
        policy_fp: policy_fingerprint(agent.encoder(), agent.actor()),
    }
}

/// Phase times of one pass of [`drive_pass`].
pub struct TrainTrace {
    /// Algorithm 2.
    pub pretrain: Duration,
    /// `collect_rollouts_threaded`, summed over iterations.
    pub rollout: Duration,
    /// `Batch::from_trajectories` (GAE and advantage normalisation).
    pub batch_gae: Duration,
    /// `PpoLearner::update`.
    pub update: Duration,
    /// Wall time of the whole pass (Algorithm 2 + Algorithm 1).
    pub total: Duration,
    /// PPO iterations run.
    pub iterations: usize,
    /// Environment steps taken.
    pub steps: usize,
    /// Training episodes (flows) completed.
    pub episodes: usize,
    /// Per-step latency of each worker's rollout window, in µs: the
    /// window's wall time over the steps the worker took, in iteration
    /// then worker order.
    pub step_latency_us: Vec<f64>,
    /// Censor queries, timed inside the rollouts (zero when untimed).
    pub censor: SpanTotals,
    /// [`policy_fingerprint`] of the trained policy.
    pub policy_fp: u64,
}

impl TrainTrace {
    /// Algorithm 1 wall time: the pass minus Algorithm 2.
    pub fn ppo(&self) -> Duration {
        self.total - self.pretrain
    }

    /// `total` minus every timed phase (snapshotting and loop overhead).
    pub fn unattributed(&self) -> f64 {
        self.total.as_secs_f64()
            - (self.pretrain + self.rollout + self.batch_gae + self.update).as_secs_f64()
    }
}

/// Algorithm 1 driven step by step through the public rollout, batch and
/// update functions, timing each phase; with `time_censor` the censor is
/// also wrapped in a timing factory. Follows `train_amoeba_with_encoder`
/// call for call, so the trained weights are bit-identical to
/// [`run_pass`]'s.
pub fn drive_pass(setup: &TrainSetup, time_censor: bool) -> TrainTrace {
    let cfg = &setup.cfg;
    let plain: Arc<dyn CensorProgramFactory> =
        Arc::new(ClassifierProgramFactory::new(Arc::clone(&setup.censor)));
    let timed = time_censor.then(|| Arc::new(TimedCensorFactory::new(Arc::clone(&plain))));
    let factory = match &timed {
        Some(t) => Arc::clone(t) as Arc<dyn CensorProgramFactory>,
        None => plain,
    };
    let start = Instant::now();
    let (encoder, _) = pretrain_encoder(cfg);
    let pretrain = start.elapsed();

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut learner = PpoLearner::new(cfg, &mut rng);
    let mut workers: Vec<Worker> = (0..cfg.n_envs.max(1))
        .map(|i| {
            Worker::with_program(
                Arc::clone(&factory),
                DatasetKind::Tor.layer(),
                EnvConfig::from(cfg),
                &encoder,
                cfg.seed.wrapping_add(i as u64 + 1),
            )
        })
        .collect();
    let flows = Arc::new(setup.flows.clone());
    let encoder = Arc::new(encoder);
    let iterations = cfg
        .total_timesteps
        .div_ceil(cfg.n_envs.max(1) * cfg.rollout_len)
        .max(1);
    let (mut rollout, mut batch_gae, mut update) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let (mut steps, mut episodes) = (0, 0);
    let mut step_latency_us = Vec::with_capacity(iterations * workers.len());
    for _ in 0..iterations {
        let policy = PolicySnapshots::from_shared(
            Arc::clone(&encoder),
            Arc::new(learner.actor.snapshot()),
            Arc::new(learner.critic.snapshot()),
        );
        // Worker by worker on this thread, as `collect_rollouts_threaded`
        // runs them at ROLLOUT_THREADS = 1, so each window is timed alone.
        let mut trajs = Vec::with_capacity(workers.len());
        for worker in &mut workers {
            let t = Instant::now();
            let traj = collect_rollouts_threaded(
                std::slice::from_mut(worker),
                cfg.rollout_len,
                &policy,
                &flows,
                ROLLOUT_THREADS,
            );
            let took = t.elapsed();
            rollout += took;
            let taken: usize = traj.iter().map(Trajectory::len).sum();
            step_latency_us.push(took.as_secs_f64() * 1e6 / taken.max(1) as f64);
            trajs.extend(traj);
        }
        steps += trajs.iter().map(Trajectory::len).sum::<usize>();
        episodes += trajs.iter().map(|t| t.episodes.len()).sum::<usize>();
        let t = Instant::now();
        let batch = Batch::from_trajectories(&trajs, cfg);
        batch_gae += t.elapsed();
        let t = Instant::now();
        learner.update(&batch, &mut rng);
        update += t.elapsed();
    }
    let total = start.elapsed();
    TrainTrace {
        pretrain,
        rollout,
        batch_gae,
        update,
        total,
        iterations,
        steps,
        episodes,
        step_latency_us,
        censor: timed.map(|t| t.observe.totals()).unwrap_or_default(),
        policy_fp: policy_fingerprint(&encoder, &learner.actor.snapshot()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoeba_classifiers::ConstantCensor;

    fn tiny_setup(seed: u64) -> TrainSetup {
        let cfg = AmoebaConfig {
            encoder_hidden: 8,
            encoder_train_flows: 8,
            encoder_epochs: 1,
            actor_hidden: vec![16],
            n_envs: 2,
            rollout_len: 16,
            minibatches: 2,
            update_epochs: 1,
            total_timesteps: 64,
            ..AmoebaConfig::fast()
        }
        .with_seed(seed);
        let flows = vec![
            Flow::from_pairs(&[(600, 0.0), (-1200, 3.0), (500, 1.0)]),
            Flow::from_pairs(&[(300, 0.0), (-800, 2.0)]),
        ];
        TrainSetup {
            cfg,
            censor: Arc::new(ConstantCensor {
                fixed_score: 0.3,
                as_kind: CensorKind::Dt,
            }),
            eval: flows.clone(),
            flows,
        }
    }

    #[test]
    fn traced_loop_matches_the_crate_trainer_bit_for_bit() {
        let setup = tiny_setup(5);
        let pass = run_pass(&setup);
        for time_censor in [false, true] {
            let trace = drive_pass(&setup, time_censor);
            assert_eq!(pass.policy_fp, trace.policy_fp);
            assert_eq!(pass.steps, trace.steps);
            assert_eq!(trace.censor.calls > 0, time_censor);
            assert_eq!(
                trace.step_latency_us.len(),
                trace.iterations * setup.cfg.n_envs
            );
            assert!(trace.unattributed() >= 0.0);
        }
    }

    #[test]
    fn seed_reproduces_and_changes_the_weights() {
        let a = drive_pass(&tiny_setup(5), false).policy_fp;
        assert_eq!(a, drive_pass(&tiny_setup(5), false).policy_fp);
        assert_ne!(a, drive_pass(&tiny_setup(6), false).policy_fp);
    }
}
