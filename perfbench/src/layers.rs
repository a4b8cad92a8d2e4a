//! Timing wrappers around the public seams of each layer.
//!
//! Nothing here reaches inside a crate: every wrapper implements the same
//! public trait as the object it wraps, forwards every call unchanged and
//! adds a call count, a row count and the wall-clock time spent inside
//! the call. Counters are relaxed atomics because shard and rollout
//! threads call the wrappers concurrently; they are read only after the
//! run has joined every thread.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use amoeba_classifiers::{CensorDecision, CensorKind, CensorProgram, CensorProgramFactory};
use amoeba_core::encoder::EncoderState;
use amoeba_nn::matrix::Matrix;
use amoeba_serve::{FrozenPolicy, InferenceBackend};
use amoeba_traffic::Flow;

/// Calls, rows and busy nanoseconds recorded at one seam.
#[derive(Debug, Default)]
pub struct Span {
    calls: AtomicU64,
    rows: AtomicU64,
    ns: AtomicU64,
}

/// A point-in-time copy of a [`Span`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Calls made through the seam.
    pub calls: u64,
    /// Rows (batch members) those calls carried.
    pub rows: u64,
    /// Wall-clock nanoseconds spent inside the calls, summed over threads.
    pub ns: u64,
}

impl std::ops::Add for SpanTotals {
    type Output = Self;

    fn add(self, other: Self) -> Self {
        Self {
            calls: self.calls + other.calls,
            rows: self.rows + other.rows,
            ns: self.ns + other.ns,
        }
    }
}

impl Span {
    /// Times `f` and charges it as one call carrying `rows` rows.
    pub fn time<T>(&self, rows: usize, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        let ns = t0.elapsed().as_nanos() as u64;
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.rows.fetch_add(rows as u64, Ordering::Relaxed);
        self.ns.fetch_add(ns, Ordering::Relaxed);
        out
    }

    /// The totals recorded so far.
    pub fn totals(&self) -> SpanTotals {
        SpanTotals {
            calls: self.calls.load(Ordering::Relaxed),
            rows: self.rows.load(Ordering::Relaxed),
            ns: self.ns.load(Ordering::Relaxed),
        }
    }
}

/// An [`InferenceBackend`] that forwards to another one and times each
/// fused `push_batch` / `head_batch` call.
pub struct TimedBackend {
    inner: Arc<dyn InferenceBackend>,
    /// The GRU `E(x)` / `E(a)` pushes.
    pub push: Span,
    /// The actor heads.
    pub head: Span,
}

impl TimedBackend {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn InferenceBackend>) -> Self {
        Self {
            inner,
            push: Span::default(),
            head: Span::default(),
        }
    }
}

impl InferenceBackend for TimedBackend {
    fn push_batch(
        &self,
        policy: &FrozenPolicy,
        states: &mut [EncoderState],
        indices: &[usize],
        obs: &Matrix,
    ) {
        self.push.time(indices.len(), || {
            self.inner.push_batch(policy, states, indices, obs)
        });
    }

    fn head_batch(&self, policy: &FrozenPolicy, states: &Matrix) -> (Matrix, Matrix) {
        self.head
            .time(states.rows(), || self.inner.head_batch(policy, states))
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// A [`CensorProgramFactory`] whose programs time every `observe`.
pub struct TimedCensorFactory {
    inner: Arc<dyn CensorProgramFactory>,
    /// Every `observe` of every program this factory spawned.
    pub observe: Arc<Span>,
}

impl TimedCensorFactory {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn CensorProgramFactory>) -> Self {
        Self {
            inner,
            observe: Arc::new(Span::default()),
        }
    }
}

struct TimedProgram {
    inner: Box<dyn CensorProgram>,
    observe: Arc<Span>,
}

impl CensorProgram for TimedProgram {
    fn observe(&mut self, wire: &Flow, last: bool) -> CensorDecision {
        let inner = &mut self.inner;
        self.observe.time(1, || inner.observe(wire, last))
    }
}

impl CensorProgramFactory for TimedCensorFactory {
    fn spawn(&self) -> Box<dyn CensorProgram> {
        Box::new(TimedProgram {
            inner: self.inner.spawn(),
            observe: Arc::clone(&self.observe),
        })
    }

    fn kind(&self) -> CensorKind {
        self.inner.kind()
    }
}
