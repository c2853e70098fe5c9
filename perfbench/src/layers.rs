//! Pass-through wrappers that time the calls the kernel makes into each
//! layer during a traced repetition. Each forwards every call unchanged,
//! so a traced run schedules exactly what an untraced one does (the
//! `transparency` test pins this); they only add clock reads and counts.

use dtm_graph::Network;
use dtm_model::{Schedule, Time, Transaction, TxnId};
use dtm_offline::{BatchContext, BatchScheduler};
use dtm_sim::{Phase, SchedulingPolicy, StepEffects, StepObserver, SystemView};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Work and busy time per layer, summed over one traced repetition.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Layers {
    /// Kernel phase time in nanoseconds, indexed by [`Phase::index`].
    pub phase_ns: [u128; 5],
    /// Steps completed.
    pub steps: u64,
    /// Steps whose effects were empty.
    pub quiescent: u64,
    /// Objects that completed an edge traversal.
    pub deliveries: u64,
    /// Objects that started an edge traversal.
    pub departures: u64,
    /// Transactions committed.
    pub commits: u64,
    /// Time inside `SchedulingPolicy::step`.
    pub policy_ns: u128,
    /// Calls to `SchedulingPolicy::step`.
    pub policy_calls: u64,
    /// Calls that returned a non-empty schedule fragment.
    pub policy_useful: u64,
    /// Time inside `BatchScheduler::schedule` and `::makespan`.
    pub batch_ns: u128,
    /// Calls to `BatchScheduler::schedule` and `::makespan`.
    pub batch_calls: u64,
    /// Transactions handed to those calls.
    pub batch_txns: u64,
}

/// Shared handle the wrappers of one repetition write into.
pub type LayerHandle = Rc<RefCell<Layers>>;

/// Times every `step` of the wrapped policy.
pub struct TimedPolicy<P> {
    inner: P,
    layers: LayerHandle,
}

impl<P> TimedPolicy<P> {
    /// Wrap `inner`, recording into `layers`.
    pub fn new(inner: P, layers: LayerHandle) -> Self {
        TimedPolicy { inner, layers }
    }
}

impl<P: SchedulingPolicy> SchedulingPolicy for TimedPolicy<P> {
    fn step(&mut self, view: &SystemView<'_>, arrivals: &[TxnId]) -> Schedule {
        let start = Instant::now();
        let fragment = self.inner.step(view, arrivals);
        let ns = start.elapsed().as_nanos();
        let mut l = self.layers.borrow_mut();
        l.policy_ns += ns;
        l.policy_calls += 1;
        l.policy_useful += u64::from(!fragment.is_empty());
        fragment
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

/// Times every call into the wrapped offline batch scheduler.
pub struct TimedBatch<A> {
    inner: A,
    layers: LayerHandle,
}

impl<A> TimedBatch<A> {
    /// Wrap `inner`, recording into `layers`.
    pub fn new(inner: A, layers: LayerHandle) -> Self {
        TimedBatch { inner, layers }
    }

    fn record(&self, start: Instant, pending: &[Transaction]) {
        let ns = start.elapsed().as_nanos();
        let mut l = self.layers.borrow_mut();
        l.batch_ns += ns;
        l.batch_calls += 1;
        l.batch_txns += pending.len() as u64;
    }
}

impl<A: BatchScheduler> BatchScheduler for TimedBatch<A> {
    fn schedule(
        &mut self,
        network: &Network,
        pending: &[Transaction],
        ctx: &BatchContext,
    ) -> Schedule {
        let start = Instant::now();
        let s = self.inner.schedule(network, pending, ctx);
        self.record(start, pending);
        s
    }

    fn makespan(&mut self, network: &Network, pending: &[Transaction], ctx: &BatchContext) -> Time {
        let start = Instant::now();
        let f = self.inner.makespan(network, pending, ctx);
        self.record(start, pending);
        f
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

/// Collects the kernel's phase timings and per-step effect counts
/// through the public [`StepObserver`] callbacks.
pub struct PhaseClock {
    layers: LayerHandle,
}

impl PhaseClock {
    /// Record into `layers`.
    pub fn new(layers: LayerHandle) -> Self {
        PhaseClock { layers }
    }
}

impl StepObserver for PhaseClock {
    fn on_phase(&mut self, _t: Time, phase: Phase, _items: usize, elapsed: Duration) {
        self.layers.borrow_mut().phase_ns[phase.index()] += elapsed.as_nanos();
    }

    fn on_step_end(&mut self, fx: &StepEffects) {
        let mut l = self.layers.borrow_mut();
        l.steps += 1;
        l.quiescent += u64::from(fx.is_empty());
        l.deliveries += fx.delivered.len() as u64;
        l.departures += fx.departed.len() as u64;
        l.commits += fx.committed.len() as u64;
    }
}
