//! The [`BatchScheduler`] abstraction, scheduling context, and the
//! independent feasibility validator for batch schedules.

use dtm_graph::{Network, NodeId, Weight};
use dtm_model::{ObjectId, Schedule, Time, Transaction, TxnId};
use std::collections::BTreeMap;

/// One fixed user of an object: a transaction of `T_t^s` that accesses
/// the object, with its fixed execution time and its home.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct FixedUser {
    /// Fixed execution time.
    pub exec: Time,
    /// The transaction.
    pub txn: TxnId,
    /// Where it executes (and so where it leaves the object).
    pub home: NodeId,
}

/// The fixed schedule `T_t^s`, held as one timeline per object: for each
/// object, its fixed users sorted by `(exec, txn)`. A probe that places
/// a few transactions reads only their objects' timelines, so its cost
/// does not grow with the size of the fixed set.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FixedSet {
    /// Per object: fixed users in `(exec, txn)` order; never empty.
    by_object: BTreeMap<ObjectId, Vec<FixedUser>>,
    /// Per transaction: its execution time and objects, for `remove`.
    by_txn: BTreeMap<TxnId, (Time, Vec<ObjectId>)>,
}

impl FixedSet {
    /// Fix `txn` at `exec`. A transaction already in the set is left as
    /// it is, so inserting the same decision twice is a no-op.
    pub fn insert(&mut self, txn: &Transaction, exec: Time) {
        if let Some(&(fixed_at, _)) = self.by_txn.get(&txn.id) {
            debug_assert_eq!(fixed_at, exec, "{} fixed at two times", txn.id);
            return;
        }
        let user = FixedUser {
            exec,
            txn: txn.id,
            home: txn.home,
        };
        for o in txn.objects() {
            let users = self.by_object.entry(o).or_default();
            if let Err(pos) = users.binary_search(&user) {
                users.insert(pos, user);
            }
        }
        self.by_txn.insert(txn.id, (exec, txn.objects().collect()));
    }

    /// Drop transaction `id` (committed or aborted); absent ids are
    /// ignored.
    pub fn remove(&mut self, id: TxnId) {
        let Some((exec, objects)) = self.by_txn.remove(&id) else {
            return;
        };
        for o in objects {
            if let Some(users) = self.by_object.get_mut(&o) {
                if let Ok(pos) = users.binary_search_by_key(&(exec, id), |u| (u.exec, u.txn)) {
                    users.remove(pos);
                }
                if users.is_empty() {
                    self.by_object.remove(&o);
                }
            }
        }
    }

    /// Keep only the transactions for which `keep` holds.
    pub fn retain(&mut self, mut keep: impl FnMut(TxnId) -> bool) {
        let gone: Vec<TxnId> = self
            .by_txn
            .keys()
            .copied()
            .filter(|&id| !keep(id))
            .collect();
        for id in gone {
            self.remove(id);
        }
    }

    /// The fixed users of object `o`, in `(exec, txn)` order.
    pub fn users(&self, o: ObjectId) -> &[FixedUser] {
        self.by_object.get(&o).map_or(&[], Vec::as_slice)
    }

    /// Every object with at least one fixed user, with its users, in
    /// object order.
    pub fn timelines(&self) -> impl Iterator<Item = (ObjectId, &[FixedUser])> {
        self.by_object
            .iter()
            .map(|(&o, users)| (o, users.as_slice()))
    }

    /// Number of fixed transactions.
    pub fn len(&self) -> usize {
        self.by_txn.len()
    }

    /// True when nothing is fixed.
    pub fn is_empty(&self) -> bool {
        self.by_txn.is_empty()
    }
}

impl<'a> FromIterator<(&'a Transaction, Time)> for FixedSet {
    fn from_iter<I: IntoIterator<Item = (&'a Transaction, Time)>>(iter: I) -> Self {
        let mut set = FixedSet::default();
        for (txn, exec) in iter {
            set.insert(txn, exec);
        }
        set
    }
}

/// Everything a batch scheduler may assume about the world at `now`:
/// where each object is (or will be) available, and which transactions
/// already have immutable execution times (the paper's `T_t^s`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchContext {
    /// Current time.
    pub now: Time,
    /// For each object: `(node, ready_time)` — the earliest time and place
    /// from which it can start moving (in-transit objects project to their
    /// next hop at its arrival time, matching `H'_t`).
    pub object_avail: BTreeMap<ObjectId, (NodeId, Time)>,
    /// Already-scheduled, uncommitted transactions with their fixed
    /// execution times. New schedules must not disturb these.
    pub fixed: FixedSet,
}

impl BatchContext {
    /// A fresh context at time 0 with objects at their given positions and
    /// no fixed transactions.
    pub fn fresh(object_positions: impl IntoIterator<Item = (ObjectId, NodeId)>) -> Self {
        BatchContext {
            now: 0,
            object_avail: object_positions
                .into_iter()
                .map(|(o, v)| (o, (v, 0)))
                .collect(),
            fixed: FixedSet::default(),
        }
    }

    /// Where and when object `o` is free *after* its fixed users execute
    /// (the paper's first basic modification: new transactions are
    /// appended after the already scheduled ones). Folds `o`'s users in
    /// `(exec, txn)` order from `object_avail[o]`; an object missing from
    /// `object_avail` starts at its first fixed user. `None` when the
    /// object is neither available nor used.
    ///
    /// Each object's fold reads only its own users, so folding one object
    /// gives the same answer as folding the whole fixed set in
    /// `(exec, txn)` order and reading that object's entry.
    pub fn release(&self, network: &Network, o: ObjectId) -> Option<(NodeId, Time)> {
        let users = self.fixed.users(o);
        let mut at = match self.object_avail.get(&o) {
            Some(&avail) => avail,
            None => users.first().map(|u| (u.home, u.exec))?,
        };
        for u in users {
            let travel = network.distance(at.0, u.home);
            // If the fixed schedule is feasible, exec >= ready + travel;
            // take max defensively so release projections never go back in
            // time.
            at = (u.home, (at.1 + travel).max(u.exec));
        }
        Some(at)
    }

    /// Whether object `o` has a fixed user (a handoff from it then pays
    /// the >= 1 serialization gap even at distance 0).
    pub fn has_fixed_user(&self, o: ObjectId) -> bool {
        !self.fixed.users(o).is_empty()
    }
}

/// An offline batch scheduling algorithm `𝒜`.
///
/// Contract: the returned schedule must
/// * cover exactly the `pending` transactions,
/// * assign times `>= ctx.now`,
/// * be *feasible* together with `ctx.fixed` under the data-flow model
///   ([`validate_batch_schedule`] is the oracle), and
/// * leave `ctx.fixed` untouched (times are simply not part of the output).
pub trait BatchScheduler {
    /// Compute execution times for `pending`.
    fn schedule(
        &mut self,
        network: &Network,
        pending: &[Transaction],
        ctx: &BatchContext,
    ) -> Schedule;

    /// `F_𝒜(X)`: the time to execute all of `pending` (relative to
    /// `ctx.now`) under this scheduler, given the fixed context. Used by
    /// the bucket algorithm's insertion probe.
    fn makespan(&mut self, network: &Network, pending: &[Transaction], ctx: &BatchContext) -> Time {
        let s = self.schedule(network, pending, ctx);
        s.makespan_end().map_or(0, |end| end - ctx.now)
    }

    /// Scheduler name for reports.
    fn name(&self) -> String;
}

/// The minimum time gap between two consecutive users of an object.
///
/// Distinct homes pay the shortest-path distance; a handoff between two
/// transactions at the *same* node still needs one step of serialization
/// (exclusive access, enforced by the execution engine).
pub fn handoff_gap(network: &Network, from: NodeId, to: NodeId) -> Weight {
    network.distance(from, to).max(1)
}

/// Independently verify that `schedule` (for `pending`) is feasible given
/// `ctx`: every object can physically reach each of its users in time,
/// in ascending execution order, starting from its availability point.
///
/// Returns the per-object order of users on success.
pub fn validate_batch_schedule(
    network: &Network,
    pending: &[Transaction],
    ctx: &BatchContext,
    schedule: &Schedule,
) -> Result<BTreeMap<ObjectId, Vec<TxnId>>, String> {
    // Coverage.
    for t in pending {
        let Some(time) = schedule.get(t.id) else {
            return Err(format!("{} not scheduled", t.id));
        };
        if time < ctx.now {
            return Err(format!("{} scheduled at {time} < now {}", t.id, ctx.now));
        }
        if time < t.generated_at {
            return Err(format!("{} scheduled before generation", t.id));
        }
    }
    if schedule.len() != pending.len() {
        return Err(format!(
            "schedule covers {} txns, expected {}",
            schedule.len(),
            pending.len()
        ));
    }

    // Combined timeline per object: its fixed users, then the pending
    // ones, sorted by execution time.
    struct User {
        txn: TxnId,
        home: NodeId,
        exec: Time,
    }
    let mut per_object: BTreeMap<ObjectId, Vec<User>> = ctx
        .fixed
        .timelines()
        .map(|(o, users)| {
            let users = users.iter().map(|u| User {
                txn: u.txn,
                home: u.home,
                exec: u.exec,
            });
            (o, users.collect())
        })
        .collect();
    for t in pending {
        // dtm-lint: allow(C1) -- coverage of every pending transaction is checked above
        let exec = schedule.get(t.id).unwrap();
        for o in t.objects() {
            per_object.entry(o).or_default().push(User {
                txn: t.id,
                home: t.home,
                exec,
            });
        }
    }

    let mut orders = BTreeMap::new();
    for (o, mut users) in per_object {
        users.sort_by_key(|u| (u.exec, u.txn));
        // Consecutive users at the same time sharing an object: invalid.
        for pair in users.windows(2) {
            if pair[0].exec == pair[1].exec {
                return Err(format!(
                    "{} and {} both execute at {} sharing {o}",
                    pair[0].txn, pair[1].txn, pair[0].exec
                ));
            }
        }
        let (mut node, mut ready) = ctx
            .object_avail
            .get(&o)
            .copied()
            .ok_or_else(|| format!("object {o} has no availability info"))?;
        let mut first = true;
        for u in &users {
            let gap = if first {
                network.distance(node, u.home)
            } else {
                handoff_gap(network, node, u.home)
            };
            if u.exec < ready + gap {
                return Err(format!(
                    "{} at {} cannot receive {o} from {node} (ready {ready}, \
                     distance {gap})",
                    u.txn, u.exec
                ));
            }
            node = u.home;
            ready = u.exec;
            first = false;
        }
        orders.insert(o, users.iter().map(|u| u.txn).collect());
    }
    Ok(orders)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtm_graph::topology;

    fn txn(id: u64, home: u32, objs: &[u32]) -> Transaction {
        Transaction::new(
            TxnId(id),
            NodeId(home),
            objs.iter().map(|&o| ObjectId(o)),
            0,
        )
    }

    #[test]
    fn release_folds_fixed() {
        let net = topology::line(6);
        let mut ctx = BatchContext::fresh([(ObjectId(0), NodeId(0))]);
        ctx.fixed = [(&txn(0, 3, &[0]), 3), (&txn(1, 5, &[0]), 5)]
            .into_iter()
            .collect();
        // After T0 at n3 (t=3), the hop to n5 needs 2 steps but T1 is fixed
        // at 5: release is (n5, 5).
        assert_eq!(ctx.release(&net, ObjectId(0)), Some((NodeId(5), 5)));
    }

    #[test]
    fn release_defensive_max() {
        let net = topology::line(6);
        let mut ctx = BatchContext::fresh([(ObjectId(0), NodeId(0))]);
        // Infeasible fixed time (1 < distance 3): projection must not go
        // backwards.
        ctx.fixed.insert(&txn(0, 3, &[0]), 1);
        assert_eq!(ctx.release(&net, ObjectId(0)), Some((NodeId(3), 3)));
    }

    #[test]
    fn release_of_unknown_object_starts_at_first_user() {
        let net = topology::line(6);
        let mut ctx = BatchContext::fresh([]);
        assert_eq!(ctx.release(&net, ObjectId(7)), None);
        ctx.fixed.insert(&txn(0, 2, &[7]), 4);
        ctx.fixed.insert(&txn(1, 5, &[7]), 6);
        // First user's (home, exec) seeds the fold; the hop n2 -> n5 takes
        // 3 steps, so release is (n5, 7).
        assert_eq!(ctx.release(&net, ObjectId(7)), Some((NodeId(5), 7)));
        assert!(ctx.has_fixed_user(ObjectId(7)));
        assert!(!ctx.has_fixed_user(ObjectId(0)));
    }

    #[test]
    fn fixed_set_insert_is_idempotent_and_remove_prunes() {
        let mut fixed = FixedSet::default();
        let a = txn(0, 1, &[0, 1]);
        let b = txn(1, 2, &[1]);
        fixed.insert(&b, 3);
        fixed.insert(&a, 5);
        fixed.insert(&a, 5);
        assert_eq!(fixed.len(), 2);
        let order: Vec<TxnId> = fixed.users(ObjectId(1)).iter().map(|u| u.txn).collect();
        assert_eq!(order, vec![TxnId(1), TxnId(0)]);
        fixed.remove(TxnId(0));
        assert!(fixed.users(ObjectId(0)).is_empty());
        assert_eq!(fixed.timelines().count(), 1);
        fixed.retain(|_| false);
        assert!(fixed.is_empty());
        assert_eq!(fixed, FixedSet::default());
    }

    #[test]
    fn validator_accepts_feasible() {
        let net = topology::line(4);
        let ctx = BatchContext::fresh([(ObjectId(0), NodeId(0))]);
        let pending = vec![txn(0, 2, &[0]), txn(1, 3, &[0])];
        let sched: Schedule = [(TxnId(0), 2), (TxnId(1), 3)].into_iter().collect();
        let orders = validate_batch_schedule(&net, &pending, &ctx, &sched).unwrap();
        assert_eq!(orders[&ObjectId(0)], vec![TxnId(0), TxnId(1)]);
    }

    #[test]
    fn validator_rejects_too_tight() {
        let net = topology::line(4);
        let ctx = BatchContext::fresh([(ObjectId(0), NodeId(0))]);
        let pending = vec![txn(0, 2, &[0]), txn(1, 3, &[0])];
        // T1 at node 3 cannot get the object one step after T0 at node 2...
        let sched: Schedule = [(TxnId(0), 2), (TxnId(1), 2)].into_iter().collect();
        assert!(validate_batch_schedule(&net, &pending, &ctx, &sched).is_err());
    }

    #[test]
    fn validator_rejects_same_time_same_object() {
        let net = topology::line(4);
        let ctx = BatchContext::fresh([(ObjectId(0), NodeId(1))]);
        // Same home, same object, same step: exclusivity violated.
        let pending = vec![txn(0, 1, &[0]), txn(1, 1, &[0])];
        let sched: Schedule = [(TxnId(0), 0), (TxnId(1), 0)].into_iter().collect();
        let err = validate_batch_schedule(&net, &pending, &ctx, &sched).unwrap_err();
        assert!(err.contains("sharing"));
    }

    #[test]
    fn validator_enforces_same_home_serialization_gap() {
        let net = topology::line(4);
        let ctx = BatchContext::fresh([(ObjectId(0), NodeId(1))]);
        let pending = vec![txn(0, 1, &[0]), txn(1, 1, &[0])];
        // One step apart at the same home: fine.
        let sched: Schedule = [(TxnId(0), 0), (TxnId(1), 1)].into_iter().collect();
        validate_batch_schedule(&net, &pending, &ctx, &sched).unwrap();
    }

    #[test]
    fn validator_rejects_missing_txn() {
        let net = topology::line(4);
        let ctx = BatchContext::fresh([(ObjectId(0), NodeId(0))]);
        let pending = vec![txn(0, 2, &[0])];
        let sched = Schedule::new();
        assert!(validate_batch_schedule(&net, &pending, &ctx, &sched).is_err());
    }

    #[test]
    fn validator_respects_fixed_context() {
        let net = topology::line(8);
        let mut ctx = BatchContext::fresh([(ObjectId(0), NodeId(0))]);
        // Fixed txn holds the object at node 5 until t=5.
        ctx.fixed.insert(&txn(9, 5, &[0]), 5);
        let pending = vec![txn(0, 7, &[0])];
        // From n5 at t=5, distance 2: earliest feasible is 7.
        let bad: Schedule = [(TxnId(0), 6)].into_iter().collect();
        assert!(validate_batch_schedule(&net, &pending, &ctx, &bad).is_err());
        let good: Schedule = [(TxnId(0), 7)].into_iter().collect();
        validate_batch_schedule(&net, &pending, &ctx, &good).unwrap();
    }
}
