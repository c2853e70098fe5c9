//! The benchmark's seeded open-loop transaction generator.
//!
//! Arrivals follow a Poisson process of rate ρ per step: inter-arrival
//! gaps are exponential, and a transaction is due at the step its arrival
//! time falls in. The kernel asks for every step in order and the source
//! emits each transaction at its due step, whatever the backlog, so the
//! loop is open. A step costs one comparison plus O(arrivals) work; no
//! draw is made per node, so the generator's cost does not grow with the
//! network and does not change when the simulator does.
//!
//! The generator keeps its own record of due steps and commit steps, so
//! sojourn percentiles are exact and independent of the kernel's own
//! bookkeeping.

use dtm_graph::{Network, NodeId, Weight};
use dtm_model::{ObjectId, ObjectInfo, Time, Transaction, TxnId, WorkloadSource};
use std::cell::RefCell;
use std::collections::BinaryHeap;
use std::rc::Rc;

/// SplitMix64: a small, fast, seedable generator that no crate of the
/// repository provides, so the stream never changes with the code under
/// test.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`), by multiply-shift.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponentially distributed with rate `rate`.
    pub fn exp(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }
}

/// How a transaction's home and objects are drawn.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Locality {
    /// Home and `k` distinct objects uniform at random.
    Uniform,
    /// The first object is uniform; the home is the end of a random walk
    /// from that object's origin whose total edge weight stays within
    /// `radius`; further objects are drawn from the objects whose origin
    /// lies within `radius` of the first one's.
    Near {
        /// Locality radius in edge weight.
        radius: Weight,
    },
}

/// What one workload's stream is made of.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StreamSpec {
    /// Expected arrivals per step, system-wide (ρ).
    pub rate: f64,
    /// Number of shared objects.
    pub objects: u32,
    /// Objects per transaction.
    pub k: usize,
    /// Home and object choice.
    pub locality: Locality,
}

/// Longest random walk taken to place a home near an object.
const MAX_WALK_HOPS: u64 = 32;
/// Seed of the object placement. Where the shared data lives is part of
/// a workload's definition, like its topology; the stream seed varies
/// only which transactions arrive when. A placement drawn per stream seed
/// moved the bucket workload's simulated metrics by up to 50% between
/// seeds, far more than any scheduling change should be judged against.
const PLACEMENT_SEED: u64 = 0x0b1e_c75e_ed00_0001;

/// The immutable part of a workload's stream: object placement and the
/// adjacency the home walks follow. Every source a plan makes replays the
/// same stream.
pub struct Plan {
    spec: StreamSpec,
    seed: u64,
    objects: Vec<ObjectInfo>,
    /// Compressed adjacency: neighbours of `v` are `adj[off[v]..off[v + 1]]`.
    off: Vec<u32>,
    adj: Vec<(u32, Weight)>,
    /// Per object, the other objects whose origin lies within the radius
    /// of its own (filled only for `Locality::Near` with `k > 1`).
    near: Vec<Vec<u32>>,
}

impl Plan {
    /// Place the objects on `network` and index what the draws need for
    /// the stream seeded with `seed`. The network's routing oracle is
    /// never queried: locality is computed from the graph's edges, so the
    /// generator leaves no warm caches behind for the run.
    pub fn new(network: &Network, spec: StreamSpec, seed: u64) -> Self {
        let n = network.n();
        let mut rng = Rng::new(PLACEMENT_SEED);
        let objects = (0..spec.objects)
            .map(|i| ObjectInfo {
                id: ObjectId(i),
                origin: NodeId(rng.below(n as u64) as u32),
                created_at: 0,
            })
            .collect::<Vec<_>>();
        let graph = network.graph();
        let mut off = Vec::with_capacity(n + 1);
        let mut adj = Vec::new();
        off.push(0u32);
        for v in graph.nodes() {
            adj.extend(graph.neighbors(v).iter().map(|&(u, w)| (u.0, w)));
            off.push(adj.len() as u32);
        }
        let mut plan = Plan {
            spec,
            seed,
            objects,
            off,
            adj,
            near: Vec::new(),
        };
        if let Locality::Near { radius } = spec.locality {
            if spec.k > 1 {
                plan.near = plan.near_objects(radius);
            }
        }
        plan
    }

    /// For every object, the other objects within `radius` of its origin
    /// (bounded Dijkstra over the plan's own adjacency).
    fn near_objects(&self, radius: Weight) -> Vec<Vec<u32>> {
        let n = self.off.len() - 1;
        let mut at: Vec<Vec<u32>> = vec![Vec::new(); n];
        for o in &self.objects {
            at[o.origin.index()].push(o.id.0);
        }
        let mut dist = vec![Weight::MAX; n];
        let mut touched = Vec::new();
        let mut heap = BinaryHeap::new();
        let mut out = Vec::with_capacity(self.objects.len());
        for o in &self.objects {
            let mut list = Vec::new();
            let s = o.origin.index();
            dist[s] = 0;
            touched.push(s);
            heap.push(std::cmp::Reverse((0, s as u32)));
            while let Some(std::cmp::Reverse((d, v))) = heap.pop() {
                let v = v as usize;
                if d > dist[v] {
                    continue;
                }
                list.extend(at[v].iter().copied().filter(|&id| id != o.id.0));
                for &(u, w) in &self.adj[self.off[v] as usize..self.off[v + 1] as usize] {
                    let nd = d + w;
                    if nd <= radius && nd < dist[u as usize] {
                        if dist[u as usize] == Weight::MAX {
                            touched.push(u as usize);
                        }
                        dist[u as usize] = nd;
                        heap.push(std::cmp::Reverse((nd, u)));
                    }
                }
            }
            for v in touched.drain(..) {
                dist[v] = Weight::MAX;
            }
            list.sort_unstable();
            out.push(list);
        }
        out
    }

    /// The placed objects.
    pub fn objects(&self) -> &[ObjectInfo] {
        &self.objects
    }

    /// A fresh source replaying this plan's stream from step 0 with
    /// arrivals due before `horizon`, and the record it fills as
    /// transactions are due and commit.
    pub fn source(self: &Rc<Self>, horizon: Time) -> (OpenLoop, Rc<RefCell<Record>>) {
        let record = Rc::new(RefCell::new(Record::default()));
        let mut rng = Rng::new(self.seed);
        let first = rng.exp(self.spec.rate);
        let src = OpenLoop {
            plan: Rc::clone(self),
            rng,
            next_arrival: first,
            next_t: 0,
            horizon,
            record: Rc::clone(&record),
        };
        (src, record)
    }

    fn walk(&self, rng: &mut Rng, start: NodeId, radius: Weight) -> NodeId {
        let mut v = start.0 as usize;
        let mut budget = radius;
        for _ in 0..rng.below(MAX_WALK_HOPS + 1) {
            let nb = &self.adj[self.off[v] as usize..self.off[v + 1] as usize];
            let (u, w) = nb[rng.below(nb.len() as u64) as usize];
            if w > budget {
                break;
            }
            budget -= w;
            v = u as usize;
        }
        NodeId(v as u32)
    }

    fn draw(&self, rng: &mut Rng, id: TxnId, t: Time) -> Transaction {
        let m = self.objects.len() as u64;
        let k = self.spec.k.min(m as usize);
        let mut objs: Vec<ObjectId> = Vec::with_capacity(k);
        let home = match self.spec.locality {
            Locality::Uniform => NodeId(rng.below(self.off.len() as u64 - 1) as u32),
            Locality::Near { radius } => {
                let first = self.objects[rng.below(m) as usize];
                objs.push(first.id);
                if let Some(near) = self.near.get(first.id.index()) {
                    // Bounded tries keep the draw O(k) even on a short list;
                    // the uniform fill below completes the set.
                    for _ in 0..4 * k {
                        if objs.len() == k || near.is_empty() {
                            break;
                        }
                        let o = ObjectId(near[rng.below(near.len() as u64) as usize]);
                        if !objs.contains(&o) {
                            objs.push(o);
                        }
                    }
                }
                self.walk(rng, first.origin, radius)
            }
        };
        while objs.len() < k {
            let o = ObjectId(rng.below(m) as u32);
            if !objs.contains(&o) {
                objs.push(o);
            }
        }
        Transaction::new(id, home, objs, t)
    }
}

/// What a source saw: one due step per transaction (indexed by id) and
/// one sojourn per commit notification, in commit order.
#[derive(Clone, Debug, Default)]
pub struct Record {
    /// Due step of transaction `i` at index `i`.
    pub due: Vec<Time>,
    /// Commit step − due step, per commit notification.
    pub sojourn: Vec<Time>,
}

/// A [`WorkloadSource`] replaying a [`Plan`]'s stream.
pub struct OpenLoop {
    plan: Rc<Plan>,
    rng: Rng,
    /// Continuous arrival time of the next transaction.
    next_arrival: f64,
    /// The first step not yet asked for.
    next_t: Time,
    /// Arrivals are due at steps `0..horizon`.
    horizon: Time,
    record: Rc<RefCell<Record>>,
}

impl WorkloadSource for OpenLoop {
    fn arrivals_into(&mut self, t: Time, out: &mut Vec<Transaction>) {
        self.next_t = t + 1;
        if t >= self.horizon {
            return;
        }
        let end = (t + 1) as f64;
        if self.next_arrival >= end {
            return;
        }
        let mut record = self.record.borrow_mut();
        while self.next_arrival < end {
            let id = TxnId(record.due.len() as u64);
            record.due.push(t);
            out.push(self.plan.draw(&mut self.rng, id, t));
            self.next_arrival += self.rng.exp(self.plan.spec.rate);
        }
    }

    fn on_commit(&mut self, txn: &Transaction, t: Time) {
        let mut record = self.record.borrow_mut();
        let due = record.due[txn.id.0 as usize];
        record.sojourn.push(t - due);
    }

    fn exhausted(&self) -> bool {
        self.next_t >= self.horizon
    }

    fn objects(&self) -> &[ObjectInfo] {
        &self.plan.objects
    }
}
