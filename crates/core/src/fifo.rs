//! Online baseline policies: FIFO earliest-feasible scheduling and the
//! TSP-tour heuristic of Zhang et al. \[30\].
//!
//! Both schedule each step's arrivals immediately using an offline batch
//! scheduler on the current snapshot — they are the "natural" schedulers a
//! practitioner would write without the paper's machinery, and experiment
//! E12 compares them against Algorithms 1 and 2.

use crate::viewctx::{batch_context_from_view, FixedCache};
use dtm_model::{Schedule, Time, TxnId};
use dtm_offline::{BatchScheduler, ListScheduler, TspScheduler};
use dtm_sim::{SchedulingPolicy, SystemView};
use dtm_telemetry::{Decision, DecisionKind, DecisionTraceHandle};

/// FIFO baseline: each arriving transaction is scheduled at the earliest
/// feasible time given every earlier decision, in arrival order.
///
/// **Boundedness (open-system audit).** The only state is the
/// [`FixedCache`] of live scheduled transactions (committed entries are
/// pruned via step effects), so the policy is O(live set) and safe for
/// indefinite streaming runs.
#[derive(Clone, Debug, Default)]
pub struct FifoPolicy {
    inner: Option<ListScheduler>,
    cache: FixedCache,
    decisions: Option<DecisionTraceHandle>,
}

impl FifoPolicy {
    /// Create the baseline.
    pub fn new() -> Self {
        FifoPolicy {
            inner: Some(ListScheduler::fifo()),
            cache: FixedCache::default(),
            decisions: None,
        }
    }

    /// Record one [`DecisionKind::FifoQueue`] per scheduled transaction
    /// into `trace` (the caller keeps the other `Arc` end).
    pub fn with_decision_trace(mut self, trace: DecisionTraceHandle) -> Self {
        self.decisions = Some(trace);
        self
    }
}

impl SchedulingPolicy for FifoPolicy {
    fn step(&mut self, view: &SystemView<'_>, arrivals: &[TxnId]) -> Schedule {
        // Fold this step's delta in *before* the early return, or quiet
        // steps would silently drop schedule/commit changes.
        self.cache.refresh(view);
        if arrivals.is_empty() {
            return Schedule::new();
        }
        let ctx = self.cache.context(view);
        let mut ids: Vec<TxnId> = arrivals.to_vec();
        ids.sort_unstable();
        let pending: Vec<_> = ids
            .iter()
            .map(|id| view.live(*id).expect("arrival is live").txn.clone()) // dtm-lint: allow(C1) -- engine contract: every id in `arrivals` is live this step
            .collect();
        let fragment = self.inner.get_or_insert_with(ListScheduler::fifo).schedule(
            view.network,
            &pending,
            ctx,
        );
        if let Some(trace) = &self.decisions {
            let mut trace = trace.lock();
            for (queue_position, &txn) in ids.iter().enumerate() {
                trace.push(Decision {
                    t: view.now,
                    txn,
                    exec_at: fragment.get(txn),
                    kind: DecisionKind::FifoQueue { queue_position },
                });
            }
        }
        fragment
    }

    fn name(&self) -> String {
        "fifo".into()
    }
}

/// TSP-tour baseline (reference \[30\]): arrivals are scheduled each step
/// via per-object nearest-neighbor tours.
///
/// **Boundedness (open-system audit).** Stateless between steps (the
/// decision handle is an optional shared sink): trivially safe for
/// indefinite streaming runs.
#[derive(Clone, Debug, Default)]
pub struct TspPolicy {
    decisions: Option<DecisionTraceHandle>,
}

impl TspPolicy {
    /// Create the baseline.
    pub fn new() -> Self {
        TspPolicy::default()
    }

    /// Record one [`DecisionKind::TspTour`] per scheduled transaction
    /// into `trace` (the caller keeps the other `Arc` end).
    pub fn with_decision_trace(mut self, trace: DecisionTraceHandle) -> Self {
        self.decisions = Some(trace);
        self
    }
}

impl SchedulingPolicy for TspPolicy {
    fn step(&mut self, view: &SystemView<'_>, arrivals: &[TxnId]) -> Schedule {
        if arrivals.is_empty() {
            return Schedule::new();
        }
        let ctx = batch_context_from_view(view);
        let mut ids: Vec<TxnId> = arrivals.to_vec();
        ids.sort_unstable();
        let pending: Vec<_> = ids
            .iter()
            .map(|id| view.live(*id).expect("arrival is live").txn.clone()) // dtm-lint: allow(C1) -- engine contract: every id in `arrivals` is live this step
            .collect();
        let fragment = TspScheduler.schedule(view.network, &pending, &ctx);
        if let Some(trace) = &self.decisions {
            // Tour visit order is the execution-time order of the batch.
            let mut order: Vec<(Time, TxnId)> = fragment.iter().map(|(id, t)| (t, id)).collect();
            order.sort_unstable();
            let mut trace = trace.lock();
            for (tour_position, &(exec_at, txn)) in order.iter().enumerate() {
                trace.push(Decision {
                    t: view.now,
                    txn,
                    exec_at: Some(exec_at),
                    kind: DecisionKind::TspTour { tour_position },
                });
            }
        }
        fragment
    }

    fn name(&self) -> String {
        "tsp".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtm_graph::topology;
    use dtm_model::{
        ClosedLoopSource, FiniteArrivals, ObjectChoice, TraceSource, WorkloadGenerator,
        WorkloadSpec,
    };
    use dtm_sim::{run_policy, validate_events, EngineConfig, ValidationConfig};

    fn spec(rate: f64) -> WorkloadSpec {
        WorkloadSpec {
            num_objects: 6,
            k: 2,
            object_choice: ObjectChoice::Uniform,
            arrival: FiniteArrivals::Bernoulli { rate, horizon: 12 },
        }
    }

    #[test]
    fn fifo_runs_clean_online() {
        let net = topology::grid(&[3, 3]);
        let inst = WorkloadGenerator::new(spec(0.3), 1).generate(&net);
        let n = inst.num_txns();
        let res = run_policy(
            &net,
            TraceSource::new(inst),
            FifoPolicy::new(),
            EngineConfig::default(),
        );
        res.expect_ok();
        validate_events(&net, &res, &ValidationConfig::default()).unwrap();
        assert_eq!(res.metrics.committed, n);
    }

    #[test]
    fn tsp_runs_clean_online() {
        let net = topology::grid(&[3, 3]);
        let inst = WorkloadGenerator::new(spec(0.3), 2).generate(&net);
        let n = inst.num_txns();
        let res = run_policy(
            &net,
            TraceSource::new(inst),
            TspPolicy::new(),
            EngineConfig::default(),
        );
        res.expect_ok();
        validate_events(&net, &res, &ValidationConfig::default()).unwrap();
        assert_eq!(res.metrics.committed, n);
    }

    #[test]
    fn fifo_closed_loop() {
        let net = topology::line(6);
        let src = ClosedLoopSource::new(net.clone(), WorkloadSpec::batch_uniform(4, 2), 2, 5);
        let res = run_policy(&net, src, FifoPolicy::new(), EngineConfig::default());
        res.expect_ok();
        validate_events(&net, &res, &ValidationConfig::default()).unwrap();
        assert_eq!(res.metrics.committed, 12);
    }
}
