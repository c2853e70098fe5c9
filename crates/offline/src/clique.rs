//! Coloring-based batch scheduler for cliques.
//!
//! On a complete unit-weight graph every pairwise distance is 1, so a valid
//! conflict-graph coloring with colors `1, 2, 3, ...` translates directly
//! into execution times `base + color`: consecutive users of an object are
//! at least one step apart, which is exactly the transfer time. The number
//! of colors is at most one more than the maximum conflict degree
//! `<= k * l_max`, giving the `O(k * l_max)` makespan that underlies the
//! paper's Theorem 3 analysis.

use crate::traits::{BatchContext, BatchScheduler};
use dtm_graph::Network;
use dtm_model::{Schedule, Time, Transaction};
use std::collections::{BTreeMap, BTreeSet};

/// Conflict-graph-coloring scheduler for diameter-1 networks.
#[derive(Clone, Debug, Default)]
pub struct CliqueScheduler;

impl BatchScheduler for CliqueScheduler {
    fn schedule(
        &mut self,
        network: &Network,
        pending: &[Transaction],
        ctx: &BatchContext,
    ) -> Schedule {
        assert!(
            network.diameter() <= 1,
            "CliqueScheduler requires a diameter-1 network, got {} (diameter {})",
            network.name(),
            network.diameter()
        );
        if pending.is_empty() {
            return Schedule::new();
        }
        // Base time: all relevant objects must be released before the
        // color ladder starts. (On a clique the release node is irrelevant:
        // every node is one hop away and colors start at 1.)
        let mut base: Time = ctx.now;
        for t in pending {
            base = base.max(t.generated_at);
            for o in t.objects() {
                if let Some((_, ready)) = ctx.release(network, o) {
                    base = base.max(ready);
                }
            }
        }

        // Build the conflict graph among pending transactions.
        let mut users: BTreeMap<_, Vec<usize>> = BTreeMap::new();
        for (i, t) in pending.iter().enumerate() {
            for o in t.objects() {
                users.entry(o).or_default().push(i);
            }
        }
        let mut adj: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); pending.len()];
        for idxs in users.values() {
            for (a, &i) in idxs.iter().enumerate() {
                for &j in &idxs[a + 1..] {
                    if pending[i].shares_objects(&pending[j]) {
                        adj[i].insert(j);
                        adj[j].insert(i);
                    }
                }
            }
        }

        // Greedy coloring, highest conflict degree first (ties by id).
        let mut order: Vec<usize> = (0..pending.len()).collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(adj[i].len()), pending[i].id));
        let mut color: BTreeMap<usize, Time> = BTreeMap::new();
        for &i in &order {
            let taken: BTreeSet<Time> = adj[i]
                .iter()
                .filter_map(|j| color.get(j).copied())
                .collect();
            let mut c: Time = 1;
            while taken.contains(&c) {
                c += 1;
            }
            color.insert(i, c);
        }

        pending
            .iter()
            .enumerate()
            .map(|(i, t)| (t.id, base + color[&i]))
            .collect()
    }

    fn name(&self) -> String {
        "clique-coloring".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::validate_batch_schedule;
    use dtm_graph::{topology, NodeId};
    use dtm_model::{ObjectId, TxnId};
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
    fn non_conflicting_txns_share_steps() {
        let net = topology::clique(6);
        let ctx = BatchContext::fresh([
            (ObjectId(0), NodeId(0)),
            (ObjectId(1), NodeId(1)),
            (ObjectId(2), NodeId(2)),
        ]);
        let pending = vec![txn(0, 3, &[0]), txn(1, 4, &[1]), txn(2, 5, &[2])];
        let sched = CliqueScheduler.schedule(&net, &pending, &ctx);
        validate_batch_schedule(&net, &pending, &ctx, &sched).unwrap();
        // All independent: everyone gets color 1 -> time 1.
        assert_eq!(sched.makespan_end(), Some(1));
    }

    #[test]
    fn hot_object_serializes() {
        let net = topology::clique(6);
        let ctx = BatchContext::fresh([(ObjectId(0), NodeId(0))]);
        let pending: Vec<Transaction> = (0..5).map(|i| txn(i, i as u32 + 1, &[0])).collect();
        let sched = CliqueScheduler.schedule(&net, &pending, &ctx);
        validate_batch_schedule(&net, &pending, &ctx, &sched).unwrap();
        // l_max = 5 -> exactly colors 1..=5.
        assert_eq!(sched.makespan_end(), Some(5));
    }

    #[test]
    fn makespan_bounded_by_k_lmax() {
        let net = topology::clique(16);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let objs: Vec<(ObjectId, NodeId)> = (0..8)
            .map(|i| (ObjectId(i), NodeId(rng.gen_range(0..16))))
            .collect();
        let ctx = BatchContext::fresh(objs);
        let k = 3;
        let pending: Vec<Transaction> = (0..16)
            .map(|i| {
                let set: Vec<ObjectId> = (0..k).map(|_| ObjectId(rng.gen_range(0..8))).collect();
                Transaction::new(TxnId(i), NodeId(i as u32), set, 0)
            })
            .collect();
        let mut users: std::collections::BTreeMap<ObjectId, usize> = Default::default();
        for t in &pending {
            for o in t.objects() {
                *users.entry(o).or_insert(0) += 1;
            }
        }
        let l_max = *users.values().max().unwrap() as Time;
        let k_max = pending.iter().map(|t| t.k()).max().unwrap() as Time;
        let sched = CliqueScheduler.schedule(&net, &pending, &ctx);
        validate_batch_schedule(&net, &pending, &ctx, &sched).unwrap();
        assert!(sched.makespan_end().unwrap() <= k_max * l_max + 1);
    }

    #[test]
    #[should_panic(expected = "diameter-1")]
    fn rejects_non_clique() {
        let net = topology::line(4);
        let ctx = BatchContext::fresh([(ObjectId(0), NodeId(0))]);
        let _ = CliqueScheduler.schedule(&net, &[txn(0, 1, &[0])], &ctx);
    }

    #[test]
    fn respects_release_times() {
        let net = topology::clique(4);
        let mut ctx = BatchContext::fresh([(ObjectId(0), NodeId(0))]);
        ctx.now = 5;
        ctx.fixed.insert(&txn(9, 2, &[0]), 9);
        let pending = vec![txn(0, 1, &[0])];
        let sched = CliqueScheduler.schedule(&net, &pending, &ctx);
        validate_batch_schedule(&net, &pending, &ctx, &sched).unwrap();
        assert_eq!(sched.get(TxnId(0)), Some(10)); // release 9 + color 1
    }

    proptest! {
        #[test]
        fn always_feasible_on_cliques(
            seed in 0u64..200,
            n in 2u32..12,
            w in 1u32..6,
            k in 1usize..4,
        ) {
            let net = topology::clique(n);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let objs: Vec<(ObjectId, NodeId)> = (0..w)
                .map(|i| (ObjectId(i), NodeId(rng.gen_range(0..n))))
                .collect();
            let ctx = BatchContext::fresh(objs);
            let pending: Vec<Transaction> = (0..n)
                .map(|i| {
                    let set: Vec<ObjectId> =
                        (0..k).map(|_| ObjectId(rng.gen_range(0..w))).collect();
                    Transaction::new(TxnId(i as u64), NodeId(i), set, 0)
                })
                .collect();
            let sched = CliqueScheduler.schedule(&net, &pending, &ctx);
            prop_assert!(validate_batch_schedule(&net, &pending, &ctx, &sched).is_ok());
        }
    }
}
