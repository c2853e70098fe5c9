//! Differential test of the per-object fixed timeline.
//!
//! [`BatchContext::release`] folds one object's fixed users; the
//! schedulers read availability through it. This file keeps a reference
//! copy of the whole-map formulation it replaced — every fixed
//! transaction folded in `(exec, txn)` order into a copy of the object
//! map, a `used` set of every object with a fixed user, and the list loop
//! and schedulers on top of them — and checks on random graphs, random
//! object positions and random fixed sets (infeasible execution times
//! and objects missing from `object_avail` included) that both give the
//! same release for every object and the same schedule and makespan for
//! every scheduler.

use dtm_graph::{topology, Network, NodeId, Structured};
use dtm_model::{ObjectId, Schedule, Time, Transaction, TxnId};
use dtm_offline::list::list_schedule_in_order;
use dtm_offline::{
    BatchContext, BatchScheduler, CliqueScheduler, ClusterScheduler, ExactScheduler, LineScheduler,
    ListOrder, ListScheduler, StarScheduler, TspScheduler,
};
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, BTreeSet};

/// The context as the whole-map formulation held it.
#[derive(Clone)]
struct RefCtx {
    now: Time,
    object_avail: BTreeMap<ObjectId, (NodeId, Time)>,
    fixed: Vec<(Transaction, Time)>,
}

impl RefCtx {
    fn to_batch(&self) -> BatchContext {
        BatchContext {
            now: self.now,
            object_avail: self.object_avail.clone(),
            fixed: self.fixed.iter().map(|(t, e)| (t, *e)).collect(),
        }
    }
}

/// Reference: fold every fixed transaction into a copy of the map.
fn ref_release(network: &Network, ctx: &RefCtx) -> BTreeMap<ObjectId, (NodeId, Time)> {
    let mut avail = ctx.object_avail.clone();
    let mut fixed: Vec<&(Transaction, Time)> = ctx.fixed.iter().collect();
    fixed.sort_by_key(|(t, time)| (*time, t.id));
    for (txn, exec) in fixed {
        for o in txn.objects() {
            let entry = avail.entry(o).or_insert((txn.home, *exec));
            let travel = network.distance(entry.0, txn.home);
            let ready = (entry.1 + travel).max(*exec);
            *entry = (txn.home, ready);
        }
    }
    avail
}

/// Reference: the list loop over the whole-map release.
fn ref_list(network: &Network, order: &[&Transaction], ctx: &RefCtx) -> Schedule {
    let mut avail = ref_release(network, ctx);
    let mut used: BTreeSet<ObjectId> = ctx.fixed.iter().flat_map(|(t, _)| t.objects()).collect();
    let mut schedule = Schedule::new();
    for t in order {
        let mut exec: Time = ctx.now.max(t.generated_at);
        for o in t.objects() {
            let (node, ready) = avail[&o];
            let gap = if used.contains(&o) {
                network.distance(node, t.home).max(1)
            } else {
                network.distance(node, t.home)
            };
            exec = exec.max(ready + gap);
        }
        schedule.set(t.id, exec);
        for o in t.objects() {
            avail.insert(o, (t.home, exec));
            used.insert(o);
        }
    }
    schedule
}

fn end_of(s: &Schedule, now: Time) -> Time {
    s.makespan_end().unwrap_or(now)
}

fn ref_fifo(network: &Network, pending: &[Transaction], ctx: &RefCtx) -> Schedule {
    let mut order: Vec<&Transaction> = pending.iter().collect();
    order.sort_by_key(|t| (t.generated_at, t.id));
    ref_list(network, &order, ctx)
}

fn ref_random_list(
    network: &Network,
    pending: &[Transaction],
    ctx: &RefCtx,
    seed: u64,
) -> Schedule {
    let mut order: Vec<&Transaction> = pending.iter().collect();
    order.sort_by_key(|t| t.id);
    order.shuffle(&mut ChaCha8Rng::seed_from_u64(seed));
    ref_list(network, &order, ctx)
}

fn ref_clique(network: &Network, pending: &[Transaction], ctx: &RefCtx) -> Schedule {
    if pending.is_empty() {
        return Schedule::new();
    }
    let releases = ref_release(network, ctx);
    let mut base: Time = ctx.now;
    for t in pending {
        base = base.max(t.generated_at);
        for o in t.objects() {
            if let Some(&(_, ready)) = releases.get(&o) {
                base = base.max(ready);
            }
        }
    }
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

fn ref_cluster(
    network: &Network,
    pending: &[Transaction],
    ctx: &RefCtx,
    restarts: u32,
    seed: u64,
) -> Schedule {
    let Some(Structured::Cluster { clique_size, .. }) = network.structured() else {
        unreachable!("cluster topology");
    };
    let clique_of = |v: NodeId| v.0 / clique_size;
    let releases = ref_release(network, ctx);
    let mut local: BTreeMap<u32, Vec<&Transaction>> = BTreeMap::new();
    let mut cross: Vec<&Transaction> = Vec::new();
    for t in pending {
        let home_clique = clique_of(t.home);
        let is_local = t.objects().all(|o| {
            releases
                .get(&o)
                .is_some_and(|&(node, _)| clique_of(node) == home_clique)
        });
        if is_local {
            local.entry(home_clique).or_default().push(t);
        } else {
            cross.push(t);
        }
    }
    let mut phase1 = Schedule::new();
    for txns in local.values() {
        let mut order = txns.clone();
        order.sort_by_key(|t| (std::cmp::Reverse(t.k()), t.id));
        phase1.merge(&ref_list(network, &order, ctx));
    }
    if cross.is_empty() {
        return phase1;
    }
    let mut ctx2 = ctx.clone();
    for txns in local.values() {
        for t in txns {
            let Some(exec) = phase1.get(t.id) else {
                panic!("phase 1 left {} unscheduled", t.id);
            };
            ctx2.fixed.push(((**t).clone(), exec));
        }
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut order = cross.clone();
    order.sort_by_key(|t| (t.generated_at, t.id));
    let mut best = ref_list(network, &order, &ctx2);
    let mut best_end = end_of(&best, ctx.now);
    for _ in 0..restarts.max(1) {
        let mut cliques: Vec<u32> = cross
            .iter()
            .map(|t| clique_of(t.home))
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        cliques.shuffle(&mut rng);
        let rank: BTreeMap<u32, usize> = cliques.iter().enumerate().map(|(i, &c)| (c, i)).collect();
        let mut order = cross.clone();
        order.shuffle(&mut rng);
        order.sort_by_key(|t| rank[&clique_of(t.home)]);
        let s = ref_list(network, &order, &ctx2);
        let end = end_of(&s, ctx.now);
        if end < best_end {
            best_end = end;
            best = s;
        }
    }
    phase1.merge(&best);
    phase1
}

fn ref_tsp(network: &Network, pending: &[Transaction], ctx: &RefCtx) -> Schedule {
    let releases = ref_release(network, ctx);
    let mut requesters: BTreeMap<ObjectId, Vec<(TxnId, NodeId)>> = BTreeMap::new();
    for t in pending {
        for o in t.objects() {
            requesters.entry(o).or_default().push((t.id, t.home));
        }
    }
    let mut tour_rank: BTreeMap<(ObjectId, TxnId), usize> = BTreeMap::new();
    for (o, stops) in &requesters {
        let mut at = releases.get(o).map(|&(v, _)| v).unwrap_or(stops[0].1);
        let mut remaining = stops.clone();
        remaining.sort_by_key(|&(id, _)| id);
        let mut next_rank = 0;
        while let Some((pos, _)) = remaining
            .iter()
            .enumerate()
            .min_by_key(|(_, &(id, node))| (network.distance(at, node), node, id))
        {
            let (id, node) = remaining.remove(pos);
            tour_rank.insert((*o, id), next_rank);
            next_rank += 1;
            at = node;
        }
    }
    let mut order: Vec<&Transaction> = pending.iter().collect();
    order.sort_by_key(|t| {
        let (sum, cnt) = t.objects().fold((0usize, 0usize), |(s, c), o| {
            (s + tour_rank.get(&(o, t.id)).copied().unwrap_or(0), c + 1)
        });
        ((sum * 1000).checked_div(cnt).unwrap_or(0), t.id)
    });
    ref_list(network, &order, ctx)
}

fn ref_star(
    network: &Network,
    pending: &[Transaction],
    ctx: &RefCtx,
    restarts: u32,
    seed: u64,
) -> Schedule {
    let Some(Structured::Star { ray_len, .. }) = network.structured() else {
        unreachable!("star topology");
    };
    let ray_of = |v: NodeId| {
        if v.0 == 0 {
            u32::MAX
        } else {
            (v.0 - 1) / ray_len
        }
    };
    if pending.is_empty() {
        return Schedule::new();
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut best = ref_fifo(network, pending, ctx);
    let mut best_end = end_of(&best, ctx.now);
    for _ in 0..restarts.max(1) {
        let mut rays: Vec<u32> = pending
            .iter()
            .map(|t| ray_of(t.home))
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        rays.shuffle(&mut rng);
        let rank: BTreeMap<u32, usize> = rays.iter().enumerate().map(|(i, &r)| (r, i)).collect();
        let mut order: Vec<&Transaction> = pending.iter().collect();
        order.shuffle(&mut rng);
        order.sort_by_key(|t| (rank[&ray_of(t.home)], t.home));
        let s = ref_list(network, &order, ctx);
        let end = end_of(&s, ctx.now);
        if end < best_end {
            best_end = end;
            best = s;
        }
    }
    best
}

fn ref_line(network: &Network, pending: &[Transaction], ctx: &RefCtx) -> Schedule {
    let mut asc: Vec<&Transaction> = pending.iter().collect();
    asc.sort_by_key(|t| (t.home, t.id));
    let mut desc: Vec<&Transaction> = pending.iter().collect();
    desc.sort_by_key(|t| (std::cmp::Reverse(t.home), t.id));
    // The first candidate with the smallest end wins.
    let mut best = ref_list(network, &asc, ctx);
    for s in [
        ref_list(network, &desc, ctx),
        ref_fifo(network, pending, ctx),
    ] {
        if end_of(&s, ctx.now) < end_of(&best, ctx.now) {
            best = s;
        }
    }
    best
}

/// Reference exact optimum: the first best list schedule over every
/// order, enumerated by Heap's algorithm as the library does.
fn ref_exact(network: &Network, pending: &[Transaction], ctx: &RefCtx) -> Schedule {
    if pending.is_empty() {
        return Schedule::new();
    }
    let n = pending.len();
    let mut best: Option<Schedule> = None;
    let mut best_end = Time::MAX;
    let mut consider = |idx: &[usize]| {
        let order: Vec<&Transaction> = idx.iter().map(|&i| &pending[i]).collect();
        let s = ref_list(network, &order, ctx);
        let end = end_of(&s, ctx.now);
        if end < best_end {
            best_end = end;
            best = Some(s);
        }
    };
    let mut idx: Vec<usize> = (0..n).collect();
    let mut c = vec![0usize; n];
    consider(&idx);
    let mut i = 0;
    while i < n {
        if c[i] < i {
            if i % 2 == 0 {
                idx.swap(0, i);
            } else {
                idx.swap(c[i], i);
            }
            consider(&idx);
            c[i] += 1;
            i = 0;
        } else {
            c[i] = 0;
            i += 1;
        }
    }
    best.unwrap_or_default()
}

/// A random instance on `net`: objects `0..w`, of which some have no
/// `object_avail` entry but a fixed user; fixed transactions at random
/// (possibly infeasible) times; pending transactions touching only
/// objects the context knows.
fn instance(
    net: &Network,
    seed: u64,
    fixed_n: usize,
    pending_n: usize,
) -> (RefCtx, Vec<Transaction>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n = net.n() as u32;
    let w = rng.gen_range(1..8u32);
    let now = rng.gen_range(0..6);
    let mut object_avail = BTreeMap::new();
    for o in 0..w {
        // About one object in four is missing from the map.
        if rng.gen_range(0..4) > 0 {
            object_avail.insert(
                ObjectId(o),
                (NodeId(rng.gen_range(0..n)), rng.gen_range(0..8)),
            );
        }
    }
    let pick = |rng: &mut ChaCha8Rng| -> Vec<ObjectId> {
        let k = rng.gen_range(1..=3.min(w));
        (0..k).map(|_| ObjectId(rng.gen_range(0..w))).collect()
    };
    let fixed: Vec<(Transaction, Time)> = (0..fixed_n)
        .map(|i| {
            let t = Transaction::new(
                TxnId(1000 + i as u64),
                NodeId(rng.gen_range(0..n)),
                pick(&mut rng),
                0,
            );
            // Random times: many violate travel distance (defensive max),
            // and equal times exercise the txn-id tie-break.
            (t, rng.gen_range(0..25))
        })
        .collect();
    let known: BTreeSet<ObjectId> = object_avail
        .keys()
        .copied()
        .chain(fixed.iter().flat_map(|(t, _)| t.objects()))
        .collect();
    let known: Vec<ObjectId> = known.into_iter().collect();
    let pending = if known.is_empty() {
        Vec::new()
    } else {
        (0..pending_n)
            .map(|i| {
                let k = rng.gen_range(1..=3.min(known.len()));
                let set: Vec<ObjectId> = (0..k)
                    .map(|_| known[rng.gen_range(0..known.len())])
                    .collect();
                Transaction::new(
                    TxnId(i as u64),
                    NodeId(rng.gen_range(0..n)),
                    set,
                    rng.gen_range(0..4),
                )
            })
            .collect()
    };
    let ctx = RefCtx {
        now,
        object_avail,
        fixed,
    };
    (ctx, pending)
}

/// `scheduler` agrees with `reference` on schedule and makespan.
fn agree(
    net: &Network,
    ctx: &RefCtx,
    pending: &[Transaction],
    mut scheduler: impl BatchScheduler,
    reference: Schedule,
) {
    let batch = ctx.to_batch();
    let s = scheduler.schedule(net, pending, &batch);
    prop_assert_eq!(&s, &reference, "{} schedule", scheduler.name());
    let want = reference.makespan_end().map_or(0, |end| end - ctx.now);
    prop_assert_eq!(
        scheduler.makespan(net, pending, &batch),
        want,
        "{} makespan",
        scheduler.name()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn release_equals_whole_map_fold(seed in 0u64..10_000, n in 2u32..12, fixed_n in 0usize..12) {
        let net = topology::random(n, 3, 4, seed);
        let (ctx, _) = instance(&net, seed, fixed_n, 0);
        let batch = ctx.to_batch();
        let whole = ref_release(&net, &ctx);
        for o in (0..8).map(ObjectId) {
            prop_assert_eq!(batch.release(&net, o), whole.get(&o).copied(), "object {}", o);
            let used = ctx.fixed.iter().any(|(t, _)| t.objects().any(|x| x == o));
            prop_assert_eq!(batch.has_fixed_user(o), used);
        }
    }

    #[test]
    fn list_family_matches_reference(seed in 0u64..10_000, n in 2u32..12, fixed_n in 0usize..10, pending_n in 0usize..10) {
        let net = topology::random(n, 3, 4, seed);
        let (ctx, pending) = instance(&net, seed, fixed_n, pending_n);
        let order: Vec<&Transaction> = pending.iter().rev().collect();
        prop_assert_eq!(list_schedule_in_order(&net, &order, &ctx.to_batch()), ref_list(&net, &order, &ctx));
        agree(&net, &ctx, &pending, ListScheduler::fifo(), ref_fifo(&net, &pending, &ctx));
        let random = ListScheduler { order: ListOrder::Random { seed } };
        agree(&net, &ctx, &pending, random, ref_random_list(&net, &pending, &ctx, seed));
        agree(&net, &ctx, &pending, TspScheduler, ref_tsp(&net, &pending, &ctx));
    }

    #[test]
    fn exact_matches_reference(seed in 0u64..10_000, n in 2u32..10, fixed_n in 0usize..8, pending_n in 0usize..5) {
        let net = topology::random(n, 3, 4, seed);
        let (ctx, pending) = instance(&net, seed, fixed_n, pending_n);
        agree(&net, &ctx, &pending, ExactScheduler, ref_exact(&net, &pending, &ctx));
    }

    #[test]
    fn structured_schedulers_match_reference(seed in 0u64..10_000, fixed_n in 0usize..10, pending_n in 0usize..10) {
        let clique = topology::clique(6);
        let (ctx, pending) = instance(&clique, seed, fixed_n, pending_n);
        agree(&clique, &ctx, &pending, CliqueScheduler, ref_clique(&clique, &pending, &ctx));

        let line = topology::line(9);
        let (ctx, pending) = instance(&line, seed, fixed_n, pending_n);
        agree(&line, &ctx, &pending, LineScheduler, ref_line(&line, &pending, &ctx));

        let star = topology::star(3, 3);
        let (ctx, pending) = instance(&star, seed, fixed_n, pending_n);
        let sched = StarScheduler { restarts: 3, seed };
        agree(&star, &ctx, &pending, sched, ref_star(&star, &pending, &ctx, 3, seed));

        let cluster = topology::cluster(3, 3, 4);
        let (ctx, pending) = instance(&cluster, seed, fixed_n, pending_n);
        let sched = ClusterScheduler { restarts: 3, seed };
        agree(&cluster, &ctx, &pending, sched, ref_cluster(&cluster, &pending, &ctx, 3, seed));
    }
}
