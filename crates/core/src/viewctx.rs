//! Bridge from the simulator's [`SystemView`] to the offline schedulers'
//! [`BatchContext`]: current object positions become availability points,
//! and scheduled live transactions become the fixed context (the paper's
//! `T_t^s`, which new schedules must work around — basic modification 1 of
//! Section IV-A).

use dtm_model::{ObjectId, Time};
use dtm_offline::{BatchContext, FixedSet};
use dtm_sim::SystemView;
use std::collections::BTreeMap;

/// Snapshot the view into a batch-scheduling context at `view.now`.
pub fn batch_context_from_view(view: &SystemView<'_>) -> BatchContext {
    BatchContext {
        now: view.now,
        object_avail: object_avail(view),
        fixed: scheduled_live(view),
    }
}

/// Current object positions projected to availability points.
fn object_avail(view: &SystemView<'_>) -> BTreeMap<ObjectId, (dtm_graph::NodeId, Time)> {
    view.objects()
        .map(|st| (st.info.id, st.position(view.now)))
        .collect()
}

/// The scheduled live transactions `T_t^s`, from a full scan of the view.
fn scheduled_live(view: &SystemView<'_>) -> FixedSet {
    view.live_txns()
        .filter_map(|lt| lt.scheduled.map(|t| (&lt.txn, t)))
        .collect()
}

/// Incrementally-maintained batch context: the scheduled live
/// transactions `T_t^s` as per-object timelines, which new schedules
/// must work around (basic modification 1 of Section IV-A), plus the
/// current object positions.
///
/// When the view is arena-backed, [`FixedCache::refresh`] folds the
/// [`dtm_sim::StepEffects`] accumulated since the previous policy call
/// into the cached [`FixedSet`] instead of rescanning the whole live
/// set; with a map-backed view (no effects) it falls back to a full
/// rebuild, so the cache is safe to use with either backing. A policy
/// may also insert its own decisions as it makes them (the next
/// refresh re-inserts them, which is a no-op). `Clone` captures the
/// cache for [`dtm_sim::SchedulingPolicy::fork`] checkpoints.
///
/// **Boundedness (open-system audit).** Fixed entries leave via
/// `fx.removed()` as their transactions commit or abort, so the set
/// holds only *live* scheduled transactions — O(live set) no matter how
/// many transactions stream through; `object_avail` holds one entry per
/// object.
#[derive(Clone, Debug, Default)]
pub struct FixedCache {
    ctx: BatchContext,
    init: bool,
    /// Refresh counter driving the sampled debug divergence check.
    refreshes: u64,
}

/// How often a debug build compares the cache against a full rescan.
/// Every refresh under this crate's own tests; sampled otherwise, since
/// the rescan is O(live) and made debug-mode streaming runs pay more for
/// the check than for the work.
#[cfg(any(test, debug_assertions))]
const CHECK_PERIOD: u64 = if cfg!(test) {
    1
} else {
    crate::conflict::DIVERGENCE_SAMPLE_PERIOD
};

impl FixedCache {
    /// Bring the cached fixed set up to date with `view`. Must be called
    /// once per policy step, *before* the early-returns a policy may take
    /// (otherwise a step's effects are silently dropped).
    // dtm-lint: hot-path
    pub fn refresh(&mut self, view: &SystemView<'_>) {
        match view.step_effects() {
            Some(fx) if self.init => {
                for &(id, t) in &fx.scheduled {
                    // Scheduled and committed within the same inter-policy
                    // window: no longer live, never enters the fixed set.
                    if let Some(lt) = view.live(id) {
                        self.ctx.fixed.insert(&lt.txn, t);
                    }
                }
                for id in fx.removed() {
                    self.ctx.fixed.remove(id);
                }
            }
            _ => {
                self.ctx.fixed = scheduled_live(view);
                self.init = true;
            }
        }
        self.refreshes = self.refreshes.wrapping_add(1);
        #[cfg(any(test, debug_assertions))]
        if self.refreshes.is_multiple_of(CHECK_PERIOD) {
            assert_eq!(
                self.ctx.fixed,
                scheduled_live(view),
                "incremental fixed context diverged"
            );
            #[cfg(test)]
            tests::CHECKS.with(|c| c.set(c.get() + 1));
        }
    }

    /// This step's [`BatchContext`], lent for the step: `now` and every
    /// object position are re-projected in place, the fixed set comes
    /// from the cache. A policy may fix its own decisions into it
    /// (`ctx.fixed.insert`) and may change `now` or `object_avail` for a
    /// probe as long as it restores them.
    // dtm-lint: hot-path
    pub fn context(&mut self, view: &SystemView<'_>) -> &mut BatchContext {
        let now = view.now;
        self.ctx.now = now;
        // The view lists objects in id order, as the map holds them: walk
        // both together and overwrite each position. Only when the object
        // population changed (a new object appeared) is the map rebuilt.
        let avail = &mut self.ctx.object_avail;
        let mut slots = avail.iter_mut();
        let same_objects = view.objects().all(|st| match slots.next() {
            Some((&id, slot)) if id == st.info.id => {
                *slot = st.position(now);
                true
            }
            _ => false,
        }) && slots.next().is_none();
        if !same_objects {
            *avail = object_avail(view);
        }
        #[cfg(any(test, debug_assertions))]
        if self.refreshes.is_multiple_of(CHECK_PERIOD) {
            assert_eq!(
                self.ctx,
                batch_context_from_view(view),
                "incremental batch context diverged"
            );
        }
        &mut self.ctx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtm_graph::{topology, NodeId};
    use dtm_model::{ObjectId, ObjectInfo, Transaction, TxnId};
    use dtm_sim::{LiveTxn, ObjectPlace, ObjectState};
    use std::cell::Cell;
    use std::collections::BTreeMap;

    thread_local! {
        /// Full-rescan comparisons made by [`FixedCache::refresh`] on this
        /// thread (one per refresh under test builds).
        pub(super) static CHECKS: Cell<u64> = const { Cell::new(0) };
    }

    /// `(txn, exec)` of object 0's fixed users, in execution order.
    fn users_of_0(fixed: &FixedSet) -> Vec<(TxnId, Time)> {
        fixed
            .users(ObjectId(0))
            .iter()
            .map(|u| (u.txn, u.exec))
            .collect()
    }

    #[test]
    fn snapshot_carries_positions_and_fixed() {
        let net = topology::line(8);
        let mut live = BTreeMap::new();
        live.insert(
            TxnId(0),
            LiveTxn {
                txn: Transaction::new(TxnId(0), NodeId(3), [ObjectId(0)], 0),
                scheduled: Some(9),
            },
        );
        live.insert(
            TxnId(1),
            LiveTxn {
                txn: Transaction::new(TxnId(1), NodeId(4), [ObjectId(0)], 2),
                scheduled: None,
            },
        );
        let mut objects = BTreeMap::new();
        objects.insert(
            ObjectId(0),
            ObjectState {
                info: ObjectInfo {
                    id: ObjectId(0),
                    origin: NodeId(0),
                    created_at: 0,
                },
                place: ObjectPlace::Hop {
                    from: NodeId(1),
                    next: NodeId(2),
                    arrive: 7,
                },
                last_holder: None,
            },
        );
        let view = SystemView::new(5, &net, &live, &objects);
        let ctx = batch_context_from_view(&view);
        assert_eq!(ctx.now, 5);
        assert_eq!(ctx.object_avail[&ObjectId(0)], (NodeId(2), 7));
        assert_eq!(ctx.fixed.len(), 1);
        assert_eq!(users_of_0(&ctx.fixed), vec![(TxnId(0), 9)]);
    }

    /// The incremental cache tracks schedule/commit deltas on an
    /// arena-backed view and matches a from-scratch snapshot at each step.
    #[test]
    fn fixed_cache_follows_deltas() {
        let net = topology::line(8);
        let mut state = dtm_sim::RuntimeState::new();
        let mk = |id: u64, home: u32| Transaction::new(TxnId(id), NodeId(home), [ObjectId(0)], 0);
        for id in 0..4 {
            state.insert_txn(LiveTxn {
                txn: mk(id, id as u32),
                scheduled: None,
            });
        }
        let mut cache = FixedCache::default();
        // Step 0: nothing scheduled yet.
        cache.refresh(&SystemView::from_state(0, &net, &state));
        assert!(cache
            .context(&SystemView::from_state(0, &net, &state))
            .fixed
            .is_empty());

        // Schedule 1 and 3 (as the engine would: mutate + record effects).
        state.effects_mut().clear();
        for (id, t) in [(TxnId(1), 5), (TxnId(3), 9)] {
            state.txn_mut(id).unwrap().scheduled = Some(t);
            state.effects_mut().scheduled.push((id, t));
        }
        let view = SystemView::from_state(1, &net, &state);
        cache.refresh(&view);
        let fixed = cache.context(&view).fixed.clone();
        assert_eq!(users_of_0(&fixed), vec![(TxnId(1), 5), (TxnId(3), 9)]);
        assert_eq!(fixed, batch_context_from_view(&view).fixed);

        // Commit 1; schedule 0.
        state.effects_mut().clear();
        state.remove_txn(TxnId(1));
        state.effects_mut().committed.push(TxnId(1));
        state.txn_mut(TxnId(0)).unwrap().scheduled = Some(7);
        state.effects_mut().scheduled.push((TxnId(0), 7));
        let view = SystemView::from_state(2, &net, &state);
        cache.refresh(&view);
        let fixed = cache.context(&view).fixed.clone();
        assert_eq!(users_of_0(&fixed), vec![(TxnId(0), 7), (TxnId(3), 9)]);
        assert_eq!(fixed, batch_context_from_view(&view).fixed);

        // Scheduled-then-committed inside one window never enters.
        state.effects_mut().clear();
        state.txn_mut(TxnId(2)).unwrap().scheduled = Some(3);
        state.effects_mut().scheduled.push((TxnId(2), 3));
        state.remove_txn(TxnId(2));
        state.effects_mut().committed.push(TxnId(2));
        let view = SystemView::from_state(3, &net, &state);
        cache.refresh(&view);
        let fixed = cache.context(&view).fixed.clone();
        assert_eq!(fixed, batch_context_from_view(&view).fixed);
        assert!(!users_of_0(&fixed).iter().any(|&(id, _)| id == TxnId(2)));
    }

    /// Run `policy` over a random online workload on a random small
    /// graph; the cache inside it compares itself against a full rescan
    /// at every refresh (see [`CHECK_PERIOD`]). Returns how many
    /// comparisons ran, which must be at least one per step.
    fn run_checked<P: dtm_sim::SchedulingPolicy>(
        net: &dtm_graph::Network,
        seed: u64,
        policy: P,
        config: dtm_sim::EngineConfig,
    ) -> (u64, u64) {
        use dtm_model::{
            FiniteArrivals, ObjectChoice, TraceSource, WorkloadGenerator, WorkloadSpec,
        };
        let spec = WorkloadSpec {
            num_objects: 6,
            k: 2,
            object_choice: ObjectChoice::Uniform,
            arrival: FiniteArrivals::Bernoulli {
                rate: 0.08,
                horizon: 30,
            },
        };
        let inst = WorkloadGenerator::new(spec, seed).generate(net);
        let before = CHECKS.with(Cell::get);
        let res = dtm_sim::run_policy(net, TraceSource::new(inst), policy, config);
        res.expect_ok();
        (CHECKS.with(Cell::get) - before, res.metrics.makespan)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Bucket and distributed runs (stale knowledge on and off) keep
        /// a context equal to `batch_context_from_view` at every step,
        /// through their own early inserts at activation.
        #[test]
        fn kept_context_equals_view_snapshot_every_step(seed in 0u64..1_000, n in 6u32..14) {
            use crate::{BucketPolicy, DistributedBucketPolicy};
            use dtm_offline::ListScheduler;
            let net = topology::random(n, 3, 3, seed);
            let (checks, steps) = run_checked(
                &net,
                seed,
                BucketPolicy::new(ListScheduler::fifo()),
                dtm_sim::EngineConfig::default(),
            );
            proptest::prop_assert!(checks > steps, "{checks} checks over {steps} steps");
            let dist_config = DistributedBucketPolicy::<ListScheduler>::engine_config();
            for stale in [false, true] {
                let mut policy = DistributedBucketPolicy::new(&net, ListScheduler::fifo(), seed);
                if stale {
                    policy = policy.with_stale_knowledge();
                }
                let (checks, steps) = run_checked(&net, seed, policy, dist_config.clone());
                proptest::prop_assert!(checks > steps, "{checks} checks over {steps} steps");
            }
        }
    }
}
