//! # amoeba-perfbench
//!
//! The repository benchmark: three workloads driven through the crates'
//! public APIs, each run either untraced (end-to-end metrics) or traced
//! (per-layer metrics from timing wrappers around each layer's public
//! seam). See `README.md` beside this crate for what each workload and
//! metric is for.

pub mod kernels;
pub mod layers;
pub mod report;
pub mod serve;
pub mod stats;
pub mod train;

use std::collections::BTreeMap;
use std::time::Instant;

use amoeba_classifiers::CensorKind;
use amoeba_core::AmoebaConfig;
use amoeba_serve::ServeReport;
use amoeba_traffic::DatasetKind;

use layers::SpanTotals;
use report::{Descriptor, Outcome};
use serve::{Accounting, Probes, ServeSetup};
use stats::{median, per_index_median, quantile};
use train::TrainSetup;

/// The seed the fingerprints are pinned at.
pub const DEFAULT_SEED: u64 = 42;
/// Set-ups per untraced run: at least [`SETUP_MIN_REPS`], and more while
/// they have taken under [`SETUP_MIN_S`] in total, up to
/// [`SETUP_MAX_REPS`]. `setup_s` is their median.
pub const SETUP_MIN_REPS: usize = 3;
/// See [`SETUP_MIN_REPS`].
pub const SETUP_MIN_S: f64 = 2.0;
/// See [`SETUP_MIN_REPS`].
pub const SETUP_MAX_REPS: usize = 200;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper-preset policy, one DT tenant: inference-bound.
    ServePaper,
    /// `fast()` policies × four censor programs: censor- and framing-heavy.
    ServeTenants,
    /// Algorithm 2 + Algorithm 1 against DT.
    Train,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::ServePaper,
        Workload::ServeTenants,
        Workload::Train,
    ];

    /// CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServePaper => "serve_paper",
            Workload::ServeTenants => "serve_tenants",
            Workload::Train => "train",
        }
    }

    /// Parses a CLI name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The fingerprint a run at [`DEFAULT_SEED`] must reproduce: the wire
    /// of every session for the serving workloads, the trained policy for
    /// `train`. A change that moves these bits on purpose re-pins them
    /// here.
    pub fn pinned_fingerprint(self) -> u64 {
        match self {
            Workload::ServePaper => 0xf674_d51e_1e8d_eac8,
            Workload::ServeTenants => 0x7da7_bece_03d6_2be1,
            Workload::Train => 0x6b4c_92a8_d343_3f22,
        }
    }
}

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget in seconds (set-up excluded).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
}

/// Parses `--workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]`.
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

enum Setup {
    Serve(ServeSetup),
    Train(TrainSetup),
}

fn build_setup(workload: Workload, seed: u64) -> Setup {
    match workload {
        Workload::ServePaper => Setup::Serve(serve::setup_paper(seed)),
        Workload::ServeTenants => Setup::Serve(serve::setup_tenants(seed)),
        Workload::Train => Setup::Train(train::setup(seed)),
    }
}

/// The end-to-end figures of one measured unit of work.
struct Unit {
    work_s: f64,
    frames_per_s: f64,
    /// Per-frame latencies in the engine's frame order (serving), or the
    /// per-step latency of each rollout window (training), in µs.
    latency_us: Vec<f64>,
    fingerprint: u64,
    attempted: u64,
    failed: u64,
    /// Figures reported beside the metrics, see [`Run::extra`].
    extra: Vec<(&'static str, f64)>,
    /// The serving engine's backend (`none` for training).
    backend: &'static str,
}

fn serve_unit(setup: &ServeSetup) -> Unit {
    let (report, backend) = serve::run_pass(setup, None);
    Unit {
        work_s: report.wall_seconds,
        frames_per_s: report.frames_per_sec(),
        latency_us: report
            .frame_latency_us()
            .into_iter()
            .map(f64::from)
            .collect(),
        fingerprint: report.wire_fingerprint(),
        attempted: report.outcomes.len() as u64,
        failed: serve::failed_sessions(&report),
        extra: vec![
            ("flows_per_s", report.flows_per_sec()),
            ("evasion_rate", f64::from(report.evasion_rate())),
            ("data_overhead", f64::from(report.data_overhead())),
        ],
        backend,
    }
}

fn train_unit(setup: &TrainSetup) -> Unit {
    let t = train::drive_pass(setup, false);
    let ppo_s = t.ppo().as_secs_f64();
    Unit {
        work_s: t.total.as_secs_f64(),
        frames_per_s: t.steps as f64 / ppo_s,
        latency_us: t.step_latency_us,
        fingerprint: t.policy_fp,
        attempted: t.episodes as u64,
        failed: 0,
        extra: vec![("episodes_per_s", t.episodes as f64 / ppo_s)],
        backend: "none",
    }
}

fn run_unit(setup: &Setup) -> Unit {
    match setup {
        Setup::Serve(s) => serve_unit(s),
        Setup::Train(s) => train_unit(s),
    }
}

/// What a run prints besides its result line.
pub struct Run {
    /// Machine and build.
    pub descriptor: Descriptor,
    /// Units of work measured (untraced units, for a traced run).
    pub units: usize,
    /// The fingerprint every unit reproduced.
    pub fingerprint: u64,
    /// Samples behind the latency percentiles, each a median over units:
    /// one per frame of a pass (serving) or per rollout window (training).
    pub latency_samples: u64,
    /// Figures reported beside the metrics but not gated: quality figures
    /// (exact functions of the fingerprinted output, which the pin already
    /// checks), flows per second (frames per second over the seed's fixed
    /// frames per flow, or training episodes, whose count varies with what
    /// the agent learns), and the p99 latency.
    pub extra: Vec<(&'static str, f64)>,
    /// The result.
    pub outcome: Outcome,
}

/// Checks shared by both modes: one fingerprint across units, the pin at
/// the default seed, and no failed sessions.
fn check_common(outcome: &mut Outcome, args: &Args, fingerprints: &[u64]) {
    let first = fingerprints[0];
    if fingerprints.iter().any(|&f| f != first) {
        outcome.fail(format!(
            "fingerprint differs between units: {fingerprints:x?}"
        ));
    }
    if args.seed == DEFAULT_SEED && first != args.workload.pinned_fingerprint() {
        outcome.fail(format!(
            "fingerprint {first:#018x} != pinned {:#018x} at seed {DEFAULT_SEED}",
            args.workload.pinned_fingerprint()
        ));
    }
    if outcome.failed > 0 {
        outcome.fail(format!(
            "{} of {} sessions failed stream reassembly",
            outcome.failed, outcome.attempted
        ));
    }
}

/// Untraced run: set up several times, then measure units of work until
/// the budget is spent, and report the medians.
pub fn run_untraced(args: &Args) -> Run {
    let mut setup_s: Vec<f64> = Vec::new();
    let mut setup = None;
    while setup_s.len() < SETUP_MIN_REPS
        || (setup_s.iter().sum::<f64>() < SETUP_MIN_S && setup_s.len() < SETUP_MAX_REPS)
    {
        drop(setup.take()); // free the previous set-up before timing the next
        let t = Instant::now();
        setup = Some(build_setup(args.workload, args.seed));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let setup = setup.expect("at least one set-up");

    let start = Instant::now();
    let mut units = Vec::new();
    let mut samples: Vec<Vec<f64>> = Vec::new();
    loop {
        let t = Instant::now();
        let mut unit = run_unit(&setup);
        samples.push(std::mem::take(&mut unit.latency_us));
        units.push(unit);
        if start.elapsed().as_secs_f64() + t.elapsed().as_secs_f64() > args.seconds {
            break;
        }
    }

    let mut outcome = Outcome {
        correct: true,
        attempted: units.iter().map(|u| u.attempted).sum(),
        failed: units.iter().map(|u| u.failed).sum(),
        ..Outcome::default()
    };
    let fingerprints: Vec<u64> = units.iter().map(|u| u.fingerprint).collect();
    check_common(&mut outcome, args, &fingerprints);
    if samples.iter().any(|v| v.len() != samples[0].len()) {
        outcome.fail("latency sample count differs between units".to_string());
    }
    // Every unit computes the same frames (or rollout windows) in the same
    // order, so each sample's latency is its median over units: a burst of
    // preemption that stretches some batches of one unit does not set the
    // tail.
    let latency = per_index_median(&samples);
    let med = |f: fn(&Unit) -> f64| median(&units.iter().map(f).collect::<Vec<_>>());
    outcome.set("setup_s", median(&setup_s));
    outcome.set("work_s", med(|u| u.work_s));
    outcome.set("frames_per_s", med(|u| u.frames_per_s));
    // The gated tail is p95: on a shared 2-core host p99 is set by bursts
    // of preemption, so it is reported ungated.
    outcome.set("frame_latency_p50_us", quantile(&latency, 0.5));
    outcome.set("frame_latency_p95_us", quantile(&latency, 0.95));
    outcome.set("peak_rss_mb", report::peak_rss_mb());
    let first = &units[0];
    Run {
        descriptor: Descriptor::detect(first.backend),
        units: units.len(),
        fingerprint: first.fingerprint,
        latency_samples: latency.len() as u64,
        extra: first
            .extra
            .iter()
            .copied()
            .chain([("frame_latency_p99_us", quantile(&latency, 0.99))])
            .collect(),
        outcome,
    }
}

/// Per-layer totals accumulated over the traced serving passes of a run.
#[derive(Default)]
struct ServeLayers {
    passes: usize,
    frames: f64,
    push: SpanTotals,
    head: SpanTotals,
    observe: SpanTotals,
    observe_by_kind: BTreeMap<&'static str, SpanTotals>,
    macs: f64,
    framing_ns: f64,
    unattributed_ns: f64,
    batches: f64,
    stolen: f64,
    max_queue_depth: f64,
    queue_p50_us: Vec<f64>,
}

fn kind_key(kind: CensorKind) -> &'static str {
    match kind {
        CensorKind::Dt => "dt",
        CensorKind::Cumul => "cumul",
        CensorKind::Lstm => "lstm",
        CensorKind::Rf => "rf",
        CensorKind::Df => "df",
        CensorKind::Sdae => "sdae",
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl ServeLayers {
    /// Folds in one traced pass, after checking its accounting identity.
    fn absorb(
        &mut self,
        setup: &ServeSetup,
        report: &ServeReport,
        probes: &Probes,
    ) -> Result<(), String> {
        let push = probes.backend.push.totals();
        let head = probes.backend.head.totals();
        let mut observe = SpanTotals::default();
        for (factory, timed) in setup.censors.iter().zip(&probes.censors) {
            let t = timed.observe.totals();
            observe = observe + t;
            let slot = self
                .observe_by_kind
                .entry(kind_key(factory.kind()))
                .or_default();
            *slot = *slot + t;
        }
        let shards = setup.cfg.n_shards.min(setup.sessions.len());
        let acct = Accounting::of(report, shards, push, head, observe);
        acct.check(1e3 * report.inference_batches as f64)?;
        let (push_macs, head_macs) = serve::macs_per_row(&setup.policy_cfg);
        self.passes += 1;
        self.frames += report.frames as f64;
        self.push = self.push + push;
        self.head = self.head + head;
        self.observe = self.observe + observe;
        self.macs += (push.rows * push_macs + head.rows * head_macs) as f64;
        self.framing_ns += acct.framing_ns;
        self.unattributed_ns += acct.unattributed_ns;
        self.batches += report.inference_batches as f64;
        self.stolen += report.stolen_batches as f64;
        self.max_queue_depth = self.max_queue_depth.max(report.max_queue_depth as f64);
        self.queue_p50_us
            .push(f64::from(report.queue_percentiles_us(&[0.5])[0]));
        Ok(())
    }

    fn report(&self, o: &mut Outcome) {
        let passes = self.passes.max(1) as f64;
        let backend_ns = (self.push.ns + self.head.ns) as f64;
        let per_frame = |ns: f64| ratio(ns, self.frames);
        o.set("backend.push_batch.calls", self.push.calls as f64 / passes);
        o.set(
            "backend.push_batch.rows_per_call",
            ratio(self.push.rows as f64, self.push.calls as f64),
        );
        o.set(
            "backend.push_batch.ns_per_row",
            ratio(self.push.ns as f64, self.push.rows as f64),
        );
        o.set(
            "backend.head_batch.ns_per_row",
            ratio(self.head.ns as f64, self.head.rows as f64),
        );
        o.set("backend.ns_per_frame", per_frame(backend_ns));
        o.set("backend.mmac_per_frame", per_frame(self.macs) / 1e6);
        o.set("backend.gmac_per_s", ratio(self.macs, backend_ns));
        o.set(
            "censor.observe.calls_per_frame",
            per_frame(self.observe.calls as f64),
        );
        o.set("censor.ns_per_frame", per_frame(self.observe.ns as f64));
        for kind in ["dt", "cumul", "lstm", "rf"] {
            let t = self.observe_by_kind.get(kind).copied().unwrap_or_default();
            o.set(
                &format!("censor.{kind}.ns_per_call"),
                ratio(t.ns as f64, t.calls as f64),
            );
        }
        o.set("framing.ns_per_frame", per_frame(self.framing_ns));
        o.set("sched.batches", self.batches / passes);
        o.set("sched.stolen_batches", self.stolen / passes);
        o.set("sched.max_queue_depth", self.max_queue_depth);
        o.set("sched.queue_wait_p50_us", median(&self.queue_p50_us));
        o.set("unattributed.ns_per_frame", per_frame(self.unattributed_ns));
    }
}

/// Training-phase totals accumulated over the traced training passes.
#[derive(Default)]
struct TrainLayers {
    traces: Vec<train::TrainTrace>,
    eval_ms: Vec<f64>,
}

impl TrainLayers {
    fn report(&self, o: &mut Outcome) {
        let sum = |f: fn(&train::TrainTrace) -> f64| self.traces.iter().map(f).sum::<f64>();
        let steps = sum(|t| t.steps as f64);
        let censor = self
            .traces
            .iter()
            .fold(SpanTotals::default(), |a, t| a + t.censor);
        let epochs = (self.traces.len() * train::ENCODER_EPOCHS) as f64;
        o.set(
            "train.censor.ns_per_query",
            ratio(censor.ns as f64, censor.calls as f64),
        );
        o.set(
            "train.pretrain.ms_per_epoch",
            ratio(sum(|t| t.pretrain.as_secs_f64() * 1e3), epochs),
        );
        o.set(
            "train.rollout.ns_per_step",
            ratio(sum(|t| t.rollout.as_secs_f64() * 1e9), steps),
        );
        o.set(
            "train.batch_gae.ns_per_step",
            ratio(sum(|t| t.batch_gae.as_secs_f64() * 1e9), steps),
        );
        o.set(
            "train.update.ms_per_iter",
            ratio(
                sum(|t| t.update.as_secs_f64() * 1e3),
                sum(|t| t.iterations as f64),
            ),
        );
        o.set("train.eval.ms", median(&self.eval_ms));
        o.set(
            "train.unattributed_ms",
            median(
                &self
                    .traces
                    .iter()
                    .map(|t| t.unattributed() * 1e3)
                    .collect::<Vec<_>>(),
            ),
        );
    }
}

/// One traced serving pass folded into `layers`; returns its wire
/// fingerprint and frames per second.
fn traced_serve_pass(
    s: &ServeSetup,
    outcome: &mut Outcome,
    layers: &mut ServeLayers,
) -> (u64, f64) {
    let probes = Probes::new(s);
    let (report, _) = serve::run_pass(s, Some(&probes));
    if let Err(e) = layers.absorb(s, &report, &probes) {
        outcome.fail(e);
    }
    outcome.attempted += report.outcomes.len() as u64;
    outcome.failed += serve::failed_sessions(&report);
    (report.wire_fingerprint(), report.frames_per_sec())
}

/// Traced run: set up once, then alternate an untraced and a traced unit
/// until the budget is spent. Every traced unit must reproduce the
/// untraced fingerprint and satisfy its accounting identity.
pub fn run_traced(args: &Args) -> Run {
    let setup = build_setup(args.workload, args.seed);
    let mut outcome = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let mut fingerprints = Vec::new();
    let mut serve_layers = ServeLayers::default();
    let mut train_layers = TrainLayers::default();
    // Rate of work untraced and traced: frames served per second, or
    // training passes per second.
    let (mut plain_rate, mut traced_rate) = (Vec::new(), Vec::new());
    let (mut backend, mut extra);
    let start = Instant::now();
    loop {
        let t = Instant::now();
        match &setup {
            Setup::Serve(s) => {
                let unit = serve_unit(s);
                backend = unit.backend;
                outcome.attempted += unit.attempted;
                outcome.failed += unit.failed;
                fingerprints.push(unit.fingerprint);
                plain_rate.push(unit.frames_per_s);
                extra = unit.extra;
                let (fp, rate) = traced_serve_pass(s, &mut outcome, &mut serve_layers);
                fingerprints.push(fp);
                traced_rate.push(rate);
            }
            Setup::Train(s) => {
                // The reference: the crates' own trainer, untimed inside.
                let pass = train::run_pass(s);
                backend = "none";
                fingerprints.push(pass.policy_fp);
                plain_rate.push(1.0 / (pass.pretrain + pass.ppo).as_secs_f64());
                train_layers.eval_ms.push(pass.eval.as_secs_f64() * 1e3);
                extra = vec![
                    ("train_asr", pass.asr),
                    ("data_overhead", pass.data_overhead),
                ];

                let trace = train::drive_pass(s, true);
                outcome.attempted += trace.episodes as u64;
                fingerprints.push(trace.policy_fp);
                traced_rate.push(1.0 / trace.total.as_secs_f64());
                if trace.unattributed() < 0.0 {
                    outcome.fail(format!(
                        "training accounting: timed phases exceed the {:?} pass",
                        trace.total
                    ));
                }
                train_layers.traces.push(trace);
            }
        }
        if start.elapsed().as_secs_f64() + t.elapsed().as_secs_f64() > args.seconds {
            break;
        }
    }
    check_common(&mut outcome, args, &fingerprints);
    serve_layers.report(&mut outcome);
    train_layers.report(&mut outcome);
    let presets = [
        (
            Workload::ServePaper,
            AmoebaConfig::paper(DatasetKind::Tor.layer()),
        ),
        (Workload::ServeTenants, AmoebaConfig::fast()),
    ];
    for (w, cfg) in presets {
        let shape = serve::largest_matmul(&cfg);
        for k in report::KERNELS {
            outcome.set(
                &report::kernel_metric(k, w.name()),
                kernels::gmac_per_s(k, shape, args.seed),
            );
        }
    }
    outcome.set(
        "trace.overhead_pct",
        (median(&plain_rate) / median(&traced_rate) - 1.0) * 100.0,
    );
    Run {
        descriptor: Descriptor::detect(backend),
        units: plain_rate.len(),
        fingerprint: fingerprints[0],
        latency_samples: 0,
        extra,
        outcome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_args(&strings(&[
            "--workload",
            "serve_tenants",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: Workload::ServeTenants,
                seed: 7,
                seconds: 20.0,
                trace: true
            }
        );
        let d = parse_args(&strings(&["--workload", "train"])).unwrap();
        assert_eq!((d.seed, d.trace), (DEFAULT_SEED, false));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "1"],
            &["--workload", "train", "--trace", "2"],
            &["--workload", "train", "--seconds", "0"],
            &["--workload"],
            &["--workload", "train", "--extra", "1"],
        ] {
            assert!(parse_args(&strings(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
    }
}
