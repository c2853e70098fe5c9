//! The workloads and one repetition of each: set-up, the timed run,
//! and the correctness checks that follow it.

use crate::gen::{Locality, OpenLoop, Plan, Record, StreamSpec};
use crate::host;
use crate::layers::{LayerHandle, Layers, PhaseClock, TimedBatch, TimedPolicy};
use dtm_core::{DistributedBucketPolicy, GreedyPolicy};
use dtm_graph::{topology, Network, NodeId};
use dtm_model::Time;
use dtm_offline::ListScheduler;
use dtm_sim::{
    validate_events, Engine, EngineConfig, Retention, RunResult, RunStatus, SchedulingPolicy,
    StepKernel, ValidationConfig,
};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Seed of the sparse cover built by the distributed bucket policy (and
/// by the separate `graph.cover_build_s` probe).
pub const COVER_SEED: u64 = 11;
/// Seed of the fixed geometric networks. The topology is part of a
/// workload's definition; `--seed` varies only the transaction stream.
const NET_SEED: u64 = 18;
/// A repetition repeats its set-up until this much time has passed (or
/// [`SETUP_MAX_REPEATS`] set-ups ran), so set-ups far shorter than the
/// machine's noise are still timed as the median of many.
const SETUP_MIN_S: f64 = 0.05;
const SETUP_MAX_REPEATS: usize = 200;

/// Which online scheduler a workload runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyKind {
    /// Algorithm 1, `GreedyPolicy`.
    Greedy,
    /// Algorithm 3, `DistributedBucketPolicy` over `ListScheduler::fifo`.
    DistBucket,
}

/// One named workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// The scheduler under test.
    pub policy: PolicyKind,
    /// Full retention with the event log (validated and used for the
    /// competitive ratio) instead of streaming retention.
    pub full_history: bool,
    /// Arrival horizon of the timed stream, in steps.
    pub horizon: Time,
    /// Arrival horizon of the separate full-history run that yields the
    /// competitive ratio (its cost is quadratic in trace length).
    pub ratio_horizon: Time,
    topo: Topo,
    rate: f64,
    objects: u32,
    k: usize,
    locality: Locality,
}

#[derive(Clone, Copy, Debug)]
enum Topo {
    Hypercube(u32),
    Geometric(u32),
    Cluster(u32, u32, u64),
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "greedy-hypercube",
        policy: PolicyKind::Greedy,
        full_history: false,
        horizon: 25_000,
        ratio_horizon: 2_000,
        topo: Topo::Hypercube(8),
        rate: 6.0,
        objects: 128,
        k: 2,
        locality: Locality::Uniform,
    },
    Workload {
        name: "distbucket-geometric",
        policy: PolicyKind::DistBucket,
        full_history: true,
        horizon: 80_000,
        ratio_horizon: 80_000,
        topo: Topo::Geometric(1024),
        rate: 0.25,
        objects: 128,
        k: 2,
        locality: Locality::Near { radius: 16 },
    },
    Workload {
        name: "sparse-cluster",
        policy: PolicyKind::Greedy,
        full_history: false,
        horizon: 5_000_000,
        ratio_horizon: 2_500_000,
        topo: Topo::Cluster(8, 8, 16),
        rate: 0.002,
        objects: 16,
        k: 2,
        locality: Locality::Uniform,
    },
];

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Build the workload's network (timed as `graph.build_s`).
    pub fn network(&self) -> Network {
        match self.topo {
            Topo::Hypercube(d) => topology::hypercube(d),
            Topo::Geometric(n) => topology::geometric(n, 4, NET_SEED),
            Topo::Cluster(a, b, g) => topology::cluster(a, b, g),
        }
    }

    /// The stream parameters.
    pub fn stream(&self) -> StreamSpec {
        StreamSpec {
            rate: self.rate,
            objects: self.objects,
            k: self.k,
            locality: self.locality,
        }
    }

    /// Engine configuration: half-speed objects for the distributed
    /// bucket policy, full or streaming retention, and a step limit far
    /// past the drain of a stable run.
    pub fn engine_config(&self, horizon: Time, full_history: bool) -> EngineConfig {
        let base = match self.policy {
            PolicyKind::Greedy => EngineConfig::default(),
            PolicyKind::DistBucket => DistributedBucketPolicy::<ListScheduler>::engine_config(),
        };
        EngineConfig {
            max_steps: horizon.saturating_mul(2) + 1_000_000,
            record_events: full_history,
            retention: if full_history {
                Retention::Full
            } else {
                Retention::Streaming { warmup: 0 }
            },
            ..base
        }
    }
}

/// Force the network's lazily built routing oracles (the dense table or
/// the landmark oracle) with one query, so their cost lands in set-up.
pub fn force_oracle(network: &Network) {
    let last = NodeId::from_index(network.n() - 1);
    std::hint::black_box(network.distance(NodeId(0), last));
}

/// Durations, in seconds, of one set-up's parts.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// Network build.
    pub build: f64,
    /// Forcing the routing oracle.
    pub oracle: f64,
    /// Policy construction (the sparse cover for the bucket policy).
    pub policy: f64,
    /// Source and kernel construction.
    pub kernel: f64,
}

impl SetupTimes {
    /// The whole set-up.
    pub fn total(&self) -> f64 {
        self.build + self.oracle + self.policy + self.kernel
    }
}

/// Simulated outcomes of one run. Equal for equal seeds, traced or not.
#[derive(Clone, Debug, PartialEq)]
pub struct Sim {
    /// Transactions the source generated.
    pub generated: u64,
    /// Transactions committed.
    pub committed: u64,
    /// Transactions aborted on a missed execution.
    pub aborted: u64,
    /// Kernel violations, rendered.
    pub violations: Vec<String>,
    /// The run drained (source exhausted, live set empty).
    pub drained: bool,
    /// `validate_events` outcome on full-history runs.
    pub validation: Option<Result<usize, String>>,
    /// Sorted exact sojourns (commit step − due step).
    pub sojourn: Vec<Time>,
    /// Step of the last commit.
    pub makespan: Time,
    /// Total weighted distance objects travelled.
    pub comm_cost: u64,
    /// Steps simulated.
    pub steps: u64,
    /// Arrivals + deliveries + departures + commits.
    pub events: u64,
}

impl Sim {
    /// Transactions aborted or never committed.
    pub fn failed(&self) -> u64 {
        self.aborted + self.generated.saturating_sub(self.committed)
    }

    /// Whether every check held.
    pub fn ok(&self) -> bool {
        self.failed() == 0
            && self.violations.is_empty()
            && self.drained
            && self.generated > 0
            && self.validation.as_ref().is_none_or(|v| v.is_ok())
    }

    /// Nearest-rank percentile of the exact sojourns.
    pub fn sojourn_pct(&self, p: f64) -> Time {
        if self.sojourn.is_empty() {
            return 0;
        }
        let rank = (p * self.sojourn.len() as f64).ceil() as usize;
        self.sojourn[rank.clamp(1, self.sojourn.len()) - 1]
    }

    /// Mean weighted distance travelled per commit.
    pub fn comm_cost_per_txn(&self) -> f64 {
        self.comm_cost as f64 / self.committed.max(1) as f64
    }
}

/// Everything one repetition measured.
pub struct Rep {
    /// Each set-up performed (the last one fed the run).
    pub setups: Vec<SetupTimes>,
    /// Host seconds of the timed run: the thread's CPU time where the
    /// platform reports it, wall time otherwise.
    pub run_s: f64,
    /// Wall seconds of the timed run.
    pub wall_s: f64,
    /// Fraction of the timed run spent waiting for a CPU.
    pub sched_wait_frac: f64,
    /// Simulated outcomes.
    pub sim: Sim,
    /// Per-layer totals (traced repetitions only).
    pub layers: Option<Layers>,
    /// The full result (full-history repetitions only).
    pub result: Option<RunResult>,
    /// The run's network, its caches warm.
    pub network: Network,
}

/// How a repetition runs.
#[derive(Clone, Copy, Debug)]
pub struct RepMode {
    /// Arrival horizon (shorter than the workload's for the ratio run).
    pub horizon: Time,
    /// Full retention with the event log, validated after the run.
    pub full_history: bool,
    /// Attach the layer wrappers and the phase observer.
    pub traced: bool,
}

impl RepMode {
    /// The workload's own timed repetition.
    pub fn timed(w: &Workload, traced: bool) -> Self {
        RepMode {
            horizon: w.horizon,
            full_history: w.full_history,
            traced,
        }
    }
}

/// Set up and run one repetition. `plan` is built from the first set-up's
/// network and reused after.
pub fn run_rep(w: &Workload, seed: u64, plan: &mut Option<Rc<Plan>>, mode: RepMode) -> Rep {
    match (w.policy, mode.traced) {
        (PolicyKind::Greedy, false) => rep(w, seed, plan, mode, |_, _| GreedyPolicy::new()),
        (PolicyKind::Greedy, true) => rep(w, seed, plan, mode, |_, h| {
            TimedPolicy::new(GreedyPolicy::new(), h.clone())
        }),
        (PolicyKind::DistBucket, false) => rep(w, seed, plan, mode, |net, _| {
            DistributedBucketPolicy::new(net, ListScheduler::fifo(), COVER_SEED)
        }),
        (PolicyKind::DistBucket, true) => rep(w, seed, plan, mode, |net, h| {
            let batch = TimedBatch::new(ListScheduler::fifo(), h.clone());
            TimedPolicy::new(
                DistributedBucketPolicy::new(net, batch, COVER_SEED),
                h.clone(),
            )
        }),
    }
}

type Kernel<P> = StepKernel<P, OpenLoop>;

fn rep<P: SchedulingPolicy>(
    w: &Workload,
    seed: u64,
    plan: &mut Option<Rc<Plan>>,
    mode: RepMode,
    make_policy: impl Fn(&Network, &LayerHandle) -> P,
) -> Rep {
    let config = w.engine_config(mode.horizon, mode.full_history);
    let mut setups = Vec::new();
    let setup_start = Instant::now();
    let (mut kernel, record, layers, network) = loop {
        let t0 = Instant::now();
        let network = w.network();
        let t1 = Instant::now();
        force_oracle(&network);
        let t2 = Instant::now();
        let layers: LayerHandle = Rc::new(RefCell::new(Layers::default()));
        let policy = make_policy(&network, &layers);
        let t3 = Instant::now();
        let plan = plan.get_or_insert_with(|| Rc::new(Plan::new(&network, w.stream(), seed)));
        let t4 = Instant::now();
        let (source, record) = plan.source(mode.horizon);
        let engine = Engine::new(network.clone(), policy, config.clone());
        let mut kernel: Kernel<P> = engine.into_kernel(source);
        if mode.traced {
            kernel = kernel.with_observer(PhaseClock::new(Rc::clone(&layers)));
        }
        let t5 = Instant::now();
        setups.push(SetupTimes {
            build: (t1 - t0).as_secs_f64(),
            oracle: (t2 - t1).as_secs_f64(),
            policy: (t3 - t2).as_secs_f64(),
            kernel: (t5 - t4).as_secs_f64(),
        });
        let elapsed = setup_start.elapsed().as_secs_f64();
        if elapsed >= SETUP_MIN_S || setups.len() >= SETUP_MAX_REPEATS {
            break (kernel, record, layers, network);
        }
    };

    let wait_before = host::run_queue_wait_ns();
    let cpu_before = host::thread_cpu_s();
    let start = Instant::now();
    let mut steps = 0u64;
    let mut events = 0u64;
    let mut aborted = 0u64;
    while let Some(fx) = kernel.tick() {
        steps += 1;
        events +=
            (fx.arrived.len() + fx.delivered.len() + fx.departed.len() + fx.committed.len()) as u64;
        aborted += fx.aborted.len() as u64;
    }
    let run = start.elapsed();
    let run_s = match (cpu_before, host::thread_cpu_s()) {
        (Some(a), Some(b)) => b - a,
        _ => run.as_secs_f64(),
    };
    let sched_wait_frac = match (wait_before, host::run_queue_wait_ns()) {
        (Some(a), Some(b)) => b.saturating_sub(a) as f64 / run.as_nanos().max(1) as f64,
        _ => 0.0,
    };

    let violations: Vec<String> = kernel.violations().iter().map(|v| v.to_string()).collect();
    let drained = kernel.status() == RunStatus::Drained;
    let committed = kernel.commit_count();
    let makespan = kernel.last_commit_at();
    let result = kernel.finish();
    let validation = mode.full_history.then(|| {
        let cfg = ValidationConfig {
            speed_divisor: config.speed_divisor,
            ..ValidationConfig::default()
        };
        validate_events(&network, &result, &cfg).map_err(|e| e.to_string())
    });
    let record: Record = record.take();
    let mut sojourn = record.sojourn;
    sojourn.sort_unstable();
    let sim = Sim {
        generated: record.due.len() as u64,
        committed,
        aborted,
        violations,
        drained,
        validation,
        sojourn,
        makespan,
        comm_cost: result.metrics.comm_cost,
        steps,
        events,
    };
    let layers = mode.traced.then(|| layers.borrow().clone());
    Rep {
        setups,
        run_s,
        wall_s: run.as_secs_f64(),
        sched_wait_frac,
        sim,
        layers,
        result: mode.full_history.then_some(result),
        network,
    }
}
