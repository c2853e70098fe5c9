//! TSP-tour baseline scheduler (the approach of Zhang, Ravindran and
//! Palmieri, SIROCCO 2014 — reference \[30\] of the paper).
//!
//! Per object, a nearest-neighbor traveling-salesman tour over the homes of
//! its requesters fixes a service order; transactions are then prioritized
//! by their average tour position and list-scheduled. The paper cites the
//! SPAA'17 lower bound to argue this can be far from optimal on general
//! graphs — experiment E12 measures exactly that gap.

use crate::list::list_schedule_in_order;
use crate::traits::{BatchContext, BatchScheduler};
use dtm_graph::{Network, NodeId};
use dtm_model::{ObjectId, Schedule, Transaction, TxnId};
use std::collections::BTreeMap;

/// Nearest-neighbor TSP-tour baseline.
#[derive(Clone, Debug, Default)]
pub struct TspScheduler;

/// Nearest-neighbor tour over `stops` starting from `start`; returns visit
/// ranks. Deterministic (ties by node id, then txn id).
fn nn_tour(network: &Network, start: NodeId, stops: &[(TxnId, NodeId)]) -> BTreeMap<TxnId, usize> {
    let mut remaining: Vec<(TxnId, NodeId)> = stops.to_vec();
    remaining.sort_by_key(|&(id, _)| id);
    let mut at = start;
    let mut rank = BTreeMap::new();
    let mut next_rank = 0usize;
    while !remaining.is_empty() {
        let (pos, _) = remaining
            .iter()
            .enumerate()
            .min_by_key(|(_, &(id, node))| (network.distance(at, node), node, id))
            .expect("nonempty"); // dtm-lint: allow(C1) -- guarded by !remaining.is_empty()
        let (id, node) = remaining.remove(pos);
        rank.insert(id, next_rank);
        next_rank += 1;
        at = node;
    }
    rank
}

impl BatchScheduler for TspScheduler {
    fn schedule(
        &mut self,
        network: &Network,
        pending: &[Transaction],
        ctx: &BatchContext,
    ) -> Schedule {
        // Per object: NN tour over requesters from the object's position.
        let mut requesters: BTreeMap<ObjectId, Vec<(TxnId, NodeId)>> = BTreeMap::new();
        for t in pending {
            for o in t.objects() {
                requesters.entry(o).or_default().push((t.id, t.home));
            }
        }
        let mut tour_rank: BTreeMap<(ObjectId, TxnId), usize> = BTreeMap::new();
        for (o, stops) in &requesters {
            let start = ctx.release(network, *o).map_or(stops[0].1, |(v, _)| v);
            for (txn, r) in nn_tour(network, start, stops) {
                tour_rank.insert((*o, txn), r);
            }
        }
        // Priority: average tour position (scaled sum to stay integral).
        let mut order: Vec<&Transaction> = pending.iter().collect();
        order.sort_by_key(|t| {
            let (sum, cnt) = t.objects().fold((0usize, 0usize), |(s, c), o| {
                (s + tour_rank.get(&(o, t.id)).copied().unwrap_or(0), c + 1)
            });
            let avg_scaled = (sum * 1000).checked_div(cnt).unwrap_or(0);
            (avg_scaled, t.id)
        });
        list_schedule_in_order(network, &order, ctx)
    }

    fn name(&self) -> String {
        "tsp-tour".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::validate_batch_schedule;
    use dtm_graph::topology;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn txn(id: u64, home: u32, objs: &[u32]) -> Transaction {
        Transaction::new(
            TxnId(id),
            NodeId(home),
            objs.iter().map(|&o| ObjectId(o)),
            0,
        )
    }

    #[test]
    fn nn_tour_visits_nearest_first() {
        let net = topology::line(16);
        let stops = vec![
            (TxnId(0), NodeId(10)),
            (TxnId(1), NodeId(2)),
            (TxnId(2), NodeId(5)),
        ];
        let rank = nn_tour(&net, NodeId(0), &stops);
        assert_eq!(rank[&TxnId(1)], 0); // node 2 nearest to 0
        assert_eq!(rank[&TxnId(2)], 1); // then 5
        assert_eq!(rank[&TxnId(0)], 2); // then 10
    }

    #[test]
    fn single_object_follows_tour() {
        let net = topology::line(16);
        let ctx = BatchContext::fresh([(ObjectId(0), NodeId(0))]);
        let pending = vec![txn(0, 10, &[0]), txn(1, 2, &[0]), txn(2, 5, &[0])];
        let sched = TspScheduler.schedule(&net, &pending, &ctx);
        validate_batch_schedule(&net, &pending, &ctx, &sched).unwrap();
        // Tour order 2, 5, 10 -> monotone sweep, makespan 10.
        assert_eq!(sched.makespan_end(), Some(10));
        assert!(sched.get(TxnId(1)) < sched.get(TxnId(2)));
        assert!(sched.get(TxnId(2)) < sched.get(TxnId(0)));
    }

    proptest! {
        #[test]
        fn always_feasible(
            seed in 0u64..150,
            n in 4u32..30,
            w in 1u32..6,
            k in 1usize..4,
        ) {
            let net = topology::random(n, 3, 3, seed);
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xabcd);
            let objs: Vec<(ObjectId, NodeId)> = (0..w)
                .map(|i| (ObjectId(i), NodeId(rng.gen_range(0..n))))
                .collect();
            let ctx = BatchContext::fresh(objs);
            let pending: Vec<Transaction> = (0..n.min(14))
                .map(|i| {
                    let set: Vec<ObjectId> =
                        (0..k).map(|_| ObjectId(rng.gen_range(0..w))).collect();
                    Transaction::new(TxnId(i as u64), NodeId(rng.gen_range(0..n)), set, 0)
                })
                .collect();
            let sched = TspScheduler.schedule(&net, &pending, &ctx);
            prop_assert!(validate_batch_schedule(&net, &pending, &ctx, &sched).is_ok());
        }
    }
}
