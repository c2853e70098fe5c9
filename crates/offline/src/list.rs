//! Generic earliest-feasible list scheduling.
//!
//! The workhorse: given any processing order, each transaction is assigned
//! the earliest time at which all its objects can have reached its home,
//! folding object positions forward. Always feasible on arbitrary graphs;
//! quality depends on the order, which the per-topology schedulers tune.

use crate::traits::{handoff_gap, BatchContext, BatchScheduler};
use dtm_graph::{Network, NodeId};
use dtm_model::{ObjectId, Schedule, Time, Transaction, TxnId};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;

/// Processing order for [`ListScheduler`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ListOrder {
    /// By `(generated_at, id)` — FIFO; this makes the list scheduler the
    /// natural online baseline.
    Arrival,
    /// Seeded random permutation.
    Random {
        /// RNG seed.
        seed: u64,
    },
    /// By home node id (the line sweep uses this).
    ByHome,
}

/// Earliest-feasible list scheduler over a configurable order.
#[derive(Clone, Debug)]
pub struct ListScheduler {
    /// Processing order.
    pub order: ListOrder,
}

impl ListScheduler {
    /// FIFO list scheduler.
    pub fn fifo() -> Self {
        ListScheduler {
            order: ListOrder::Arrival,
        }
    }

    /// `pending` in this scheduler's processing order.
    fn ordered<'p>(&self, pending: &'p [Transaction]) -> Vec<&'p Transaction> {
        let mut order: Vec<&Transaction> = pending.iter().collect();
        match &self.order {
            ListOrder::Arrival => order.sort_by_key(|t| (t.generated_at, t.id)),
            ListOrder::ByHome => order.sort_by_key(|t| (t.home, t.id)),
            ListOrder::Random { seed } => {
                order.sort_by_key(|t| t.id);
                let mut rng = ChaCha8Rng::seed_from_u64(*seed);
                order.shuffle(&mut rng);
            }
        }
        order
    }
}

/// Object availability as one scheduling call sees it: each object's
/// release after the fixed timeline ([`BatchContext::release`]),
/// overridden by the transactions this call has placed. Only the objects
/// the call touches are ever folded.
#[derive(Clone, Debug)]
pub(crate) struct Overlay<'c> {
    ctx: &'c BatchContext,
    placed: BTreeMap<ObjectId, (NodeId, Time)>,
}

impl<'c> Overlay<'c> {
    pub(crate) fn new(ctx: &'c BatchContext) -> Self {
        Overlay {
            ctx,
            placed: BTreeMap::new(),
        }
    }

    /// Place `order`ed transactions at their earliest feasible times,
    /// reporting each `(txn, exec)` to `emit`.
    ///
    /// # Panics
    /// Panics if a transaction requests an object that is neither in
    /// `ctx.object_avail` nor used by the fixed set.
    pub(crate) fn place(
        &mut self,
        network: &Network,
        order: &[&Transaction],
        mut emit: impl FnMut(TxnId, Time),
    ) {
        for t in order {
            let mut exec: Time = self.ctx.now.max(t.generated_at);
            for o in t.objects() {
                // A placed object, or one with a fixed user, pays the >= 1
                // serialization gap even at distance 0.
                let (node, ready, used) = match self.placed.get(&o) {
                    Some(&(node, ready)) => (node, ready, true),
                    None => {
                        let (node, ready) = self
                            .ctx
                            .release(network, o)
                            .unwrap_or_else(|| panic!("{} requests unknown object {o}", t.id));
                        (node, ready, self.ctx.has_fixed_user(o))
                    }
                };
                let gap = if used {
                    handoff_gap(network, node, t.home)
                } else {
                    network.distance(node, t.home)
                };
                exec = exec.max(ready + gap);
            }
            emit(t.id, exec);
            for o in t.objects() {
                self.placed.insert(o, (t.home, exec));
            }
        }
    }

    /// [`Overlay::place`] collected into a [`Schedule`].
    pub(crate) fn schedule(&mut self, network: &Network, order: &[&Transaction]) -> Schedule {
        let mut schedule = Schedule::new();
        self.place(network, order, |id, exec| {
            schedule.set(id, exec);
        });
        schedule
    }
}

/// Schedule `order`ed transactions at their earliest feasible times given
/// `ctx`. The core primitive shared by all list-type schedulers.
///
/// # Panics
/// Panics if a transaction requests an object that is neither in
/// `ctx.object_avail` nor used by `ctx.fixed`.
pub fn list_schedule_in_order(
    network: &Network,
    order: &[&Transaction],
    ctx: &BatchContext,
) -> Schedule {
    Overlay::new(ctx).schedule(network, order)
}

impl BatchScheduler for ListScheduler {
    fn schedule(
        &mut self,
        network: &Network,
        pending: &[Transaction],
        ctx: &BatchContext,
    ) -> Schedule {
        list_schedule_in_order(network, &self.ordered(pending), ctx)
    }

    /// The end of the list schedule, without building the [`Schedule`]:
    /// the bucket policies' insertion probe only needs this number.
    fn makespan(&mut self, network: &Network, pending: &[Transaction], ctx: &BatchContext) -> Time {
        let mut end: Option<Time> = None;
        Overlay::new(ctx).place(network, &self.ordered(pending), |_, exec| {
            end = end.max(Some(exec));
        });
        end.map_or(0, |end| end - ctx.now)
    }

    fn name(&self) -> String {
        match &self.order {
            ListOrder::Arrival => "list(fifo)".into(),
            ListOrder::ByHome => "list(by-home)".into(),
            ListOrder::Random { seed } => format!("list(random,seed={seed})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::validate_batch_schedule;
    use dtm_graph::{topology, NodeId};
    use dtm_model::TxnId;
    use proptest::prelude::*;

    fn txn(id: u64, home: u32, objs: &[u32]) -> Transaction {
        Transaction::new(
            TxnId(id),
            NodeId(home),
            objs.iter().map(|&o| ObjectId(o)),
            0,
        )
    }

    #[test]
    fn fifo_schedules_chain() {
        let net = topology::line(6);
        let ctx = BatchContext::fresh([(ObjectId(0), NodeId(0))]);
        let pending = vec![txn(0, 2, &[0]), txn(1, 5, &[0]), txn(2, 0, &[0])];
        let sched = ListScheduler::fifo().schedule(&net, &pending, &ctx);
        validate_batch_schedule(&net, &pending, &ctx, &sched).unwrap();
        // FIFO: T0 at 2 (distance 2), T1 at 2+3=5, T2 at 5+5=10.
        assert_eq!(sched.get(TxnId(0)), Some(2));
        assert_eq!(sched.get(TxnId(1)), Some(5));
        assert_eq!(sched.get(TxnId(2)), Some(10));
    }

    #[test]
    fn multi_object_waits_for_slowest() {
        let net = topology::line(8);
        let ctx = BatchContext::fresh([(ObjectId(0), NodeId(0)), (ObjectId(1), NodeId(7))]);
        let pending = vec![txn(0, 4, &[0, 1])];
        let sched = ListScheduler::fifo().schedule(&net, &pending, &ctx);
        validate_batch_schedule(&net, &pending, &ctx, &sched).unwrap();
        assert_eq!(sched.get(TxnId(0)), Some(4)); // max(4, 3) from the two
    }

    #[test]
    fn respects_fixed_context() {
        let net = topology::line(8);
        let mut ctx = BatchContext::fresh([(ObjectId(0), NodeId(0))]);
        ctx.now = 10;
        ctx.fixed.insert(&txn(99, 4, &[0]), 14);
        let pending = vec![txn(0, 6, &[0])];
        let sched = ListScheduler::fifo().schedule(&net, &pending, &ctx);
        validate_batch_schedule(&net, &pending, &ctx, &sched).unwrap();
        // Object free at n4 from 14; distance 2 -> 16.
        assert_eq!(sched.get(TxnId(0)), Some(16));
    }

    #[test]
    fn same_home_chain_serializes() {
        let net = topology::clique(4);
        let ctx = BatchContext::fresh([(ObjectId(0), NodeId(1))]);
        let pending = vec![txn(0, 1, &[0]), txn(1, 1, &[0]), txn(2, 1, &[0])];
        let sched = ListScheduler::fifo().schedule(&net, &pending, &ctx);
        validate_batch_schedule(&net, &pending, &ctx, &sched).unwrap();
        assert_eq!(sched.get(TxnId(0)), Some(0));
        assert_eq!(sched.get(TxnId(1)), Some(1));
        assert_eq!(sched.get(TxnId(2)), Some(2));
    }

    #[test]
    fn makespan_probe_matches_schedule() {
        let net = topology::line(6);
        let ctx = BatchContext::fresh([(ObjectId(0), NodeId(0))]);
        let pending = vec![txn(0, 2, &[0]), txn(1, 5, &[0])];
        let mut s = ListScheduler::fifo();
        let m = s.makespan(&net, &pending, &ctx);
        assert_eq!(m, 5);
    }

    proptest! {
        /// Any order over any random workload yields a feasible schedule.
        #[test]
        fn always_feasible(
            seed in 0u64..200,
            n_txns in 1usize..24,
            n_objs in 1u32..8,
            k in 1usize..4,
            order_seed in 0u64..3,
        ) {
            use rand::Rng;
            let net = topology::grid(&[4, 4]);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let objs: Vec<(ObjectId, NodeId)> = (0..n_objs)
                .map(|i| (ObjectId(i), NodeId(rng.gen_range(0..16))))
                .collect();
            let ctx = BatchContext::fresh(objs.clone());
            let pending: Vec<Transaction> = (0..n_txns)
                .map(|i| {
                    let mut set: Vec<ObjectId> = Vec::new();
                    for _ in 0..k {
                        set.push(ObjectId(rng.gen_range(0..n_objs)));
                    }
                    Transaction::new(
                        TxnId(i as u64),
                        NodeId(rng.gen_range(0..16)),
                        set,
                        0,
                    )
                })
                .collect();
            let mut s = ListScheduler { order: ListOrder::Random { seed: order_seed } };
            let sched = s.schedule(&net, &pending, &ctx);
            prop_assert!(validate_batch_schedule(&net, &pending, &ctx, &sched).is_ok());
        }
    }
}
