//! The two serving workloads: their inputs, one engine pass, and the
//! metrics and per-layer accounting read off a pass.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use amoeba_bench::{filter_sensitive, Context, Scale};
use amoeba_classifiers::{
    CensorKind, CensorProgramFactory, ClassifierProgramFactory, HardLabelFactory,
    StatefulProgramFactory,
};
use amoeba_core::{Actor, AmoebaConfig, StateEncoder};
use amoeba_serve::{
    FrozenPolicy, InferenceBackend, ServeConfig, ServeEngine, ServeReport, SessionStatus,
    VerdictPolicy,
};
use amoeba_traffic::{build_dataset, DatasetKind, Flow, NetEm};

use crate::layers::{SpanTotals, TimedBackend, TimedCensorFactory};

/// Offered flows of `serve_paper` are cut to this many packets: a pass
/// then takes ~4.5 s, so a 30 s run has ~6 passes for its medians.
pub const PAPER_PREFIX: usize = 10;
/// Offered flows of `serve_tenants` are cut to this many packets.
pub const TENANT_PREFIX: usize = 20;
/// Sessions of one `serve_paper` pass: one full batch per tick.
pub const PAPER_SESSIONS: usize = 64;
/// Sessions of one `serve_tenants` pass.
pub const TENANT_SESSIONS: usize = 1024;
/// Inference batch cap of every serving workload.
pub const BATCH: usize = 64;
/// Shards of every serving workload. One: with a busy shard on each of
/// the 2 cores the README's numbers were taken on, anything else the host
/// ran stalled a shard, and ten-seed sets of runs spread 15-30% on
/// throughput. One shard leaves a core for the rest; pipelining is off.
pub const SHARDS: usize = 1;

/// Scheduler quantum (virtual ms) of every serving workload: longer than
/// any session lasts, so every tick takes every live session. That makes
/// the load a closed loop: all sessions are admitted at t=0 and each
/// session's next frame is due as soon as its previous decision is out,
/// so the session count is the concurrency. The wire does not depend on
/// the quantum.
pub const CLOSED_LOOP_TICK_MS: f32 = 1e9;

/// Seed of the system under test: the random-init serving policies and
/// the data the censors are trained on. They are fixed, not inputs: a
/// random policy's behaviour (pad everything or nothing, delay or not)
/// and a censor's verdicts on it flip with their seeds, and with them how
/// many frames each session sends and how many censor probes it costs,
/// so drawing them from `--seed` would make every seed a different
/// workload. `--seed` draws the traffic: the offered flows and the
/// session payloads.
pub const SYSTEM_SEED: u64 = 42;

/// The experiment context the censors are trained in.
fn system() -> Context {
    Context::new(Scale {
        seed: SYSTEM_SEED,
        ..Scale::small()
    })
}

/// Everything one serving pass needs, built once per run.
pub struct ServeSetup {
    /// Engine configuration.
    pub cfg: ServeConfig,
    /// The (shared-shape) policies of the tenants.
    pub policies: Vec<FrozenPolicy>,
    /// Policy config the policies were built from (for MAC counts).
    pub policy_cfg: AmoebaConfig,
    /// Censor programs of the tenants.
    pub censors: Vec<Arc<dyn CensorProgramFactory>>,
    /// Offered flow and `(policy, censor)` indices of each session.
    pub sessions: Vec<(Flow, usize, usize)>,
}

/// A random-init frozen policy: throughput does not depend on training,
/// and this skips the encoder pretrain a trained agent would cost.
pub fn random_policy(cfg: &AmoebaConfig, seed: u64) -> FrozenPolicy {
    let mut rng = StdRng::seed_from_u64(seed);
    let encoder = StateEncoder::new(cfg.encoder_hidden, cfg.encoder_layers, &mut rng).snapshot();
    let actor = Actor::new(cfg, &mut rng).snapshot();
    FrozenPolicy::new(encoder, actor)
}

/// `n` sessions cycling the sensitive flows of the Tor dataset drawn
/// from `seed` (the flows `Context` would split, all of them), each cut to
/// `prefix` packets.
pub fn offered(seed: u64, n: usize, prefix: usize) -> Vec<Flow> {
    let tor = build_dataset(
        DatasetKind::Tor,
        Scale::small().n_per_class,
        Some(NetEm::default()),
        seed,
    );
    let base = filter_sensitive(&tor, usize::MAX);
    (0..n)
        .map(|i| base[i % base.len()].prefix(prefix))
        .collect()
}

/// The serving engine settings every serving workload shares.
pub fn engine_config(policy_cfg: &AmoebaConfig, seed: u64) -> amoeba_serve::ServeConfigBuilder {
    ServeConfig::builder_from_amoeba(policy_cfg, DatasetKind::Tor.layer())
        .batch(BATCH)
        .shards(SHARDS)
        .pipeline(false)
        .tick_ms(CLOSED_LOOP_TICK_MS)
        .exact_frame_stats(true)
        .seed(seed)
}

/// Paper preset, one DT tenant checked every 8 frames: inference-bound.
pub fn setup_paper(seed: u64) -> ServeSetup {
    let dt = system().censor(DatasetKind::Tor, CensorKind::Dt);
    let policy_cfg = AmoebaConfig::paper(DatasetKind::Tor.layer());
    let policy = random_policy(&policy_cfg, SYSTEM_SEED);
    let cfg = engine_config(&policy_cfg, seed)
        .verdicts(VerdictPolicy::Every(8))
        .build();
    ServeSetup {
        cfg,
        policies: vec![policy],
        policy_cfg,
        censors: vec![Arc::new(ClassifierProgramFactory::new(dt))],
        sessions: offered(seed, PAPER_SESSIONS, PAPER_PREFIX)
            .into_iter()
            .map(|f| (f, 0, 0))
            .collect(),
    }
}

/// `fast()` preset, 2 policies × 4 censor programs checked on every
/// frame through NetEm: the cross-censor sweep in one run.
pub fn setup_tenants(seed: u64) -> ServeSetup {
    let mut system = system();
    let tor = DatasetKind::Tor;
    let dt = system.censor(tor, CensorKind::Dt);
    let cumul = system.censor(tor, CensorKind::Cumul);
    let lstm = system.censor(tor, CensorKind::Lstm);
    let rf = system.censor(tor, CensorKind::Rf);
    let censors: Vec<Arc<dyn CensorProgramFactory>> = vec![
        Arc::new(ClassifierProgramFactory::new(dt)),
        Arc::new(ClassifierProgramFactory::new(cumul)),
        Arc::new(HardLabelFactory::over_censor(lstm)),
        Arc::new(StatefulProgramFactory::new(rf, 0, 2, 0.5).with_teardown(true)),
    ];
    let policy_cfg = AmoebaConfig::fast();
    let policies = vec![
        random_policy(&policy_cfg, SYSTEM_SEED),
        random_policy(&policy_cfg, SYSTEM_SEED + 1),
    ];
    let cfg = engine_config(&policy_cfg, seed)
        .verdicts(VerdictPolicy::EveryFrame)
        .netem(Some(NetEm::default()))
        .build();
    let tenants = policies.len() * censors.len();
    // Round-robin over tenants: each policy's batches carry sessions of
    // all four censors.
    let sessions = offered(seed, TENANT_SESSIONS, TENANT_PREFIX)
        .into_iter()
        .enumerate()
        .map(|(i, f)| {
            let t = i % tenants;
            (f, t / censors.len(), t % censors.len())
        })
        .collect();
    ServeSetup {
        cfg,
        policies,
        policy_cfg,
        censors,
        sessions,
    }
}

/// The timing wrappers of one traced pass.
pub struct Probes {
    /// Wraps the backend the config selects.
    pub backend: Arc<TimedBackend>,
    /// Wraps each censor program factory, in setup order.
    pub censors: Vec<Arc<TimedCensorFactory>>,
}

impl Probes {
    /// Fresh wrappers around `setup`'s backend and censors.
    pub fn new(setup: &ServeSetup) -> Self {
        Self {
            backend: Arc::new(TimedBackend::new(setup.cfg.backend.instantiate())),
            censors: setup
                .censors
                .iter()
                .map(|c| Arc::new(TimedCensorFactory::new(Arc::clone(c))))
                .collect(),
        }
    }
}

/// One engine pass over every session; traced when `probes` is given.
/// Returns the report and the name of the backend the engine ran.
pub fn run_pass(setup: &ServeSetup, probes: Option<&Probes>) -> (ServeReport, &'static str) {
    let mut engine = ServeEngine::new(setup.cfg.clone());
    if let Some(p) = probes {
        engine = engine.with_backend(Arc::clone(&p.backend) as Arc<dyn InferenceBackend>);
    }
    let backend = engine.backend_name();
    let pids: Vec<_> = setup
        .policies
        .iter()
        .map(|p| engine.register_policy(p.clone()))
        .collect();
    let factories: Vec<Arc<dyn CensorProgramFactory>> = match probes {
        Some(p) => p
            .censors
            .iter()
            .map(|c| Arc::clone(c) as Arc<dyn CensorProgramFactory>)
            .collect(),
        None => setup.censors.clone(),
    };
    let cids: Vec<_> = factories
        .into_iter()
        .map(|f| engine.register_censor_program(f))
        .collect();
    for (i, (flow, p, c)) in setup.sessions.iter().enumerate() {
        engine
            .admit(flow)
            .id(i)
            .policy(pids[*p])
            .censor(cids[*c])
            .submit();
    }
    (engine.run(), backend)
}

/// Sessions whose streams did not reassemble. A session the censor tore
/// down never sent the rest of its stream, so it is not a failure.
pub fn failed_sessions(report: &ServeReport) -> u64 {
    report
        .outcomes
        .iter()
        .filter(|o| !o.stream_ok && o.status != SessionStatus::Torn)
        .count() as u64
}

/// Multiply-accumulates per batch row of one `push_batch` (a GRU step
/// over every layer) and one `head_batch` (the actor MLP), from the
/// policy shapes.
pub fn macs_per_row(cfg: &AmoebaConfig) -> (u64, u64) {
    let (h, step) = (cfg.encoder_hidden as u64, 2u64);
    let push: u64 = (0..cfg.encoder_layers as u64)
        .map(|l| if l == 0 { step } else { h })
        .map(|input| (input + h) * 3 * h)
        .sum();
    (
        push,
        mlp_dims(cfg).windows(2).map(|w| (w[0] * w[1]) as u64).sum(),
    )
}

fn mlp_dims(cfg: &AmoebaConfig) -> Vec<usize> {
    let mut dims = vec![cfg.state_dim()];
    dims.extend(&cfg.actor_hidden);
    dims.push(2 * amoeba_core::ACTION_DIM);
    dims
}

/// The largest `(m, k, n)` matmul a pass under `cfg` issues: a full
/// batch times the largest GRU or actor weight matrix.
pub fn largest_matmul(cfg: &AmoebaConfig) -> (usize, usize, usize) {
    let h = cfg.encoder_hidden;
    let gru = [(2, 3 * h), (h, 3 * h)];
    let dims = mlp_dims(cfg);
    let (k, n) = gru
        .into_iter()
        .chain(dims.windows(2).map(|w| (w[0], w[1])))
        .max_by_key(|&(k, n)| k * n)
        .expect("non-empty");
    (BATCH, k, n)
}

/// Per-layer busy time of one traced pass, in nanoseconds summed over
/// shards, and the identity that splits `shards × wall` between them.
#[derive(Debug, Clone, Copy)]
pub struct Accounting {
    /// `shards × wall`.
    pub capacity_ns: f64,
    /// Inside `push_batch` and `head_batch`.
    pub backend_ns: f64,
    /// Inside censor programs' `observe`.
    pub censor_ns: f64,
    /// Framing stage minus the censor time nested in it.
    pub framing_ns: f64,
    /// Inference stage minus the backend time nested in it (gather,
    /// scatter, sampling); part of `unattributed_ns`.
    pub infer_rest_ns: f64,
    /// Everything else: scheduler, queues, stealing, merge.
    pub unattributed_ns: f64,
}

impl Accounting {
    /// Splits a traced pass. `push` / `head` / `observe` are the wrapper
    /// totals recorded during exactly this pass.
    pub fn of(
        report: &ServeReport,
        shards: usize,
        push: SpanTotals,
        head: SpanTotals,
        observe: SpanTotals,
    ) -> Self {
        let capacity_ns = shards as f64 * report.wall_seconds * 1e9;
        let backend_ns = (push.ns + head.ns) as f64;
        let censor_ns = observe.ns as f64;
        let framing_ns = report.framing_stage_us * 1e3 - censor_ns;
        let infer_rest_ns = report.infer_stage_us * 1e3 - backend_ns;
        Self {
            capacity_ns,
            backend_ns,
            censor_ns,
            framing_ns,
            infer_rest_ns,
            unattributed_ns: capacity_ns - backend_ns - censor_ns - framing_ns,
        }
    }

    /// Checks the identity: no term negative beyond `tolerance_ns`
    /// (stage clocks are f32 microseconds per batch), and the terms sum
    /// back to `shards × wall`.
    pub fn check(&self, tolerance_ns: f64) -> Result<(), String> {
        let terms = [
            ("backend", self.backend_ns),
            ("censor", self.censor_ns),
            ("framing", self.framing_ns),
            ("inference remainder", self.infer_rest_ns),
            ("unattributed", self.unattributed_ns),
        ];
        for (name, v) in terms {
            if v < -tolerance_ns {
                return Err(format!(
                    "accounting: {name} term is {v:.0} ns (tolerance {tolerance_ns:.0} ns); \
                     a wrapper double-counted"
                ));
            }
        }
        let sum = self.backend_ns + self.censor_ns + self.framing_ns + self.unattributed_ns;
        if (sum - self.capacity_ns).abs() > 1e-6 * self.capacity_ns.max(1.0) {
            return Err(format!(
                "accounting: layers sum to {sum:.0} ns, shards × wall is {:.0} ns",
                self.capacity_ns
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoeba_classifiers::ConstantCensor;

    fn tiny_setup(seed: u64) -> ServeSetup {
        let policy_cfg = AmoebaConfig {
            encoder_hidden: 8,
            actor_hidden: vec![16],
            ..AmoebaConfig::fast()
        };
        let flows: Vec<Flow> = (0..12)
            .map(|i| {
                Flow::from_pairs(&[
                    (300 + 40 * i, 0.0),
                    (-900, 2.0),
                    (500, 1.0 + i as f32),
                    (-1200, 0.5),
                ])
            })
            .collect();
        let censors: Vec<Arc<dyn CensorProgramFactory>> = vec![
            Arc::new(ClassifierProgramFactory::new(Arc::new(ConstantCensor {
                fixed_score: 0.2,
                as_kind: CensorKind::Dt,
            }))),
            Arc::new(
                StatefulProgramFactory::new(
                    Arc::new(ConstantCensor {
                        fixed_score: 0.9,
                        as_kind: CensorKind::Rf,
                    }),
                    0,
                    2,
                    0.5,
                )
                .with_teardown(true),
            ),
        ];
        ServeSetup {
            cfg: engine_config(&policy_cfg, seed)
                .verdicts(VerdictPolicy::EveryFrame)
                .netem(Some(NetEm::default()))
                .build(),
            policies: vec![random_policy(&policy_cfg, seed)],
            policy_cfg,
            censors,
            sessions: flows
                .into_iter()
                .enumerate()
                .map(|(i, f)| (f, 0, i % 2))
                .collect(),
        }
    }

    #[test]
    fn wrappers_leave_the_wire_unchanged() {
        let setup = tiny_setup(7);
        let (plain, _) = run_pass(&setup, None);
        let probes = Probes::new(&setup);
        let (traced, _) = run_pass(&setup, Some(&probes));
        assert_eq!(plain.wire_bits(), traced.wire_bits());
        assert_eq!(plain.wire_fingerprint(), traced.wire_fingerprint());
        assert!(probes.backend.push.totals().calls > 0);
        assert!(probes.censors.iter().all(|c| c.observe.totals().calls > 0));
        assert_eq!(failed_sessions(&traced), 0);
        assert!(
            traced.torn_sessions() > 0,
            "the teardown tenant tears sessions"
        );
    }

    #[test]
    fn accounting_identity_holds_on_a_traced_pass() {
        let setup = tiny_setup(3);
        let probes = Probes::new(&setup);
        let (report, _) = run_pass(&setup, Some(&probes));
        let observe = probes.censors.iter().map(|c| c.observe.totals()).fold(
            SpanTotals::default(),
            |a, b| SpanTotals {
                calls: a.calls + b.calls,
                rows: a.rows + b.rows,
                ns: a.ns + b.ns,
            },
        );
        let acct = Accounting::of(
            &report,
            setup.cfg.n_shards,
            probes.backend.push.totals(),
            probes.backend.head.totals(),
            observe,
        );
        acct.check(1e3 * report.inference_batches as f64).unwrap();
    }

    #[test]
    fn accounting_rejects_a_double_count() {
        let acct = Accounting {
            capacity_ns: 100.0,
            backend_ns: 80.0,
            censor_ns: 30.0,
            framing_ns: -10.0,
            infer_rest_ns: 0.0,
            unattributed_ns: 0.0,
        };
        assert!(acct.check(1.0).is_err());
    }

    #[test]
    fn seed_reproduces_and_changes_the_wire() {
        let a = run_pass(&tiny_setup(11), None).0.wire_fingerprint();
        let b = run_pass(&tiny_setup(11), None).0.wire_fingerprint();
        let c = run_pass(&tiny_setup(12), None).0.wire_fingerprint();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn mac_counts_follow_the_shapes() {
        let cfg = AmoebaConfig::paper(DatasetKind::Tor.layer());
        let (push, head) = macs_per_row(&cfg);
        assert_eq!(push, (2 + 512) * 1536 + (512 + 512) * 1536);
        assert_eq!(head, 1024 * 256 + 256 * 64 + 64 * 32 + 32 * 4);
        assert_eq!(largest_matmul(&cfg), (BATCH, 512, 1536));
        assert_eq!(largest_matmul(&AmoebaConfig::fast()), (BATCH, 128, 128));
    }
}
