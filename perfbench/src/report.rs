//! One benchmark invocation: repetitions until the time budget is spent,
//! the checks across them, and the metrics they yield.

use crate::gen::Plan;
use crate::host::{self, median, minimum};
use crate::layers::Layers;
use crate::workload::{run_rep, PolicyKind, Rep, RepMode, SetupTimes, Sim, Workload, COVER_SEED};
use dtm_graph::{Network, NodeId, SparseCover};
use dtm_model::WorkloadSource;
use dtm_offline::competitive_ratio;
use dtm_sim::Phase;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Home × object-origin pairs sampled for the routing-query probe.
const PROBE_PAIRS: usize = 4096;
/// The routing-query probe repeats its pass until this much time passed.
const PROBE_MIN: Duration = Duration::from_millis(20);

/// A named measurement with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Result of one invocation.
#[derive(Debug)]
pub struct Outcome {
    /// Every check held.
    pub correct: bool,
    /// Transactions generated in the first timed repetition.
    pub attempted: u64,
    /// Of those, aborted or never committed.
    pub failed: u64,
    /// The metrics of the requested mode.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The result as one JSON object (the benchmark's last output line).
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

struct Checks {
    ok: bool,
    notes: Vec<String>,
}

impl Checks {
    fn require(&mut self, cond: bool, what: impl FnOnce() -> String) {
        if !cond {
            self.ok = false;
            self.notes.push(format!("CHECK FAILED: {}", what()));
        }
    }

    /// A repetition's own checks, and equality with the reference run.
    fn sim(&mut self, label: &str, sim: &Sim, reference: &Sim) {
        self.require(sim.ok(), || {
            format!(
                "{label}: generated={} committed={} aborted={} drained={} violations={:?} validation={:?}",
                sim.generated, sim.committed, sim.aborted, sim.drained, sim.violations, sim.validation
            )
        });
        self.require(sim == reference, || {
            format!("{label}: simulated outcome differs from the first repetition")
        });
    }
}

/// What the report keeps of a repetition once its checks ran; the
/// simulated outcome, network and result are dropped so that memory does
/// not grow with the number of repetitions.
struct Kept {
    setups: Vec<SetupTimes>,
    run_s: f64,
    wall_s: f64,
    sched_wait_frac: f64,
    steps: u64,
    events: u64,
    committed: u64,
    layers: Option<Layers>,
}

impl Kept {
    fn note(&self, label: &str) -> String {
        let setup = median(&self.setups.iter().map(|s| s.total()).collect::<Vec<_>>());
        format!(
            "{label}: setups={} setup_median_s={:.6} run_s={:.4} wall_s={:.4} steps={} events={} commits={} sched_wait_frac={:.5}",
            self.setups.len(),
            setup,
            self.run_s,
            self.wall_s,
            self.steps,
            self.events,
            self.committed,
            self.sched_wait_frac
        )
    }
}

/// Check `rep` against the first repetition's outcome (which it becomes
/// when there is none yet) and keep its timings.
fn absorb(rep: Rep, label: &str, reference: &mut Option<Sim>, checks: &mut Checks) -> Kept {
    let reference = reference.get_or_insert_with(|| rep.sim.clone());
    checks.sim(label, &rep.sim, reference);
    let kept = Kept {
        setups: rep.setups,
        run_s: rep.run_s,
        wall_s: rep.wall_s,
        sched_wait_frac: rep.sched_wait_frac,
        steps: rep.sim.steps,
        events: rep.sim.events,
        committed: rep.sim.committed,
        layers: rep.layers,
    };
    checks.notes.push(kept.note(label));
    kept
}

/// Run `w` with stream seed `seed` for about `seconds` of repetitions.
/// Untraced, the metrics are the end-to-end ones; traced, untraced and
/// traced repetitions alternate and the metrics are the per-layer ones.
pub fn run(w: &Workload, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut checks = Checks {
        ok: true,
        notes: Vec::new(),
    };
    let mut plan: Option<Rc<Plan>> = None;
    let mut reference: Option<Sim> = None;
    // The last traced repetition's warm network feeds the routing probe.
    let mut traced_network: Option<Network> = None;
    let mut plain: Vec<Kept> = Vec::new();
    let mut traced: Vec<Kept> = Vec::new();
    let mut peak_rss = None;
    let start = Instant::now();
    while plain.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let rep = run_rep(w, seed, &mut plan, RepMode::timed(w, false));
        // The peak of one repetition is what a single run of the workload
        // needs; later repetitions only add the allocator's fragmentation,
        // which varied the full-history workload's peak by 16%.
        if peak_rss.is_none() {
            peak_rss = host::peak_rss_mib();
        }
        let label = format!("rep {}", plain.len());
        plain.push(absorb(rep, &label, &mut reference, &mut checks));
        if trace {
            let rep = run_rep(w, seed, &mut plan, RepMode::timed(w, true));
            traced_network = Some(rep.network.clone());
            let label = format!("traced rep {}", traced.len());
            traced.push(absorb(rep, &label, &mut reference, &mut checks));
        }
    }
    let reference = reference.expect("at least one repetition ran");
    let attempted = reference.generated;
    let failed = reference.failed();
    checks.notes.push(format!(
        "{}: seed={seed} reps={} generated={attempted} committed={} txns_failed_frac={} sojourn_samples={}",
        w.name,
        plain.len(),
        reference.committed,
        failed as f64 / attempted.max(1) as f64,
        reference.sojourn.len()
    ));

    let metrics = match traced_network {
        Some(network) => {
            let plan = plan.as_ref().expect("the first repetition built the plan");
            layer_metrics(w, &plain, &traced, &network, plan)
        }
        None => {
            let ratio = ratio_mean(w, seed, &mut plan, &reference, &mut checks);
            end_to_end(&plain, &reference, ratio, peak_rss, &mut checks)
        }
    };
    for m in &metrics {
        checks.require(m.value.is_finite(), || format!("{} is not finite", m.name));
    }
    Outcome {
        correct: checks.ok,
        attempted,
        failed,
        metrics: metrics
            .into_iter()
            .map(|m| Metric {
                value: if m.value.is_finite() { m.value } else { 0.0 },
                ..m
            })
            .collect(),
        notes: checks.notes,
    }
}

/// The mean of r_S(t) over the steps `dtm_offline::competitive_ratio`
/// samples, on a full-history run of the stream up to `ratio_horizon`,
/// computed after the clock stopped.
///
/// The paper's competitive ratio is the supremum of r_S(t). As a single
/// extreme value its spread across stream seeds was 4-19% on these
/// workloads, against 0-11% for the mean, so the mean is what the
/// benchmark gates on; the supremum is printed beside it.
fn ratio_mean(
    w: &Workload,
    seed: u64,
    plan: &mut Option<Rc<Plan>>,
    reference: &Sim,
    checks: &mut Checks,
) -> f64 {
    let mode = RepMode {
        horizon: w.ratio_horizon,
        full_history: true,
        traced: false,
    };
    let rep = run_rep(w, seed, plan, mode);
    if w.full_history && w.ratio_horizon == w.horizon {
        checks.sim("ratio run", &rep.sim, reference);
    } else {
        checks.require(rep.sim.ok(), || {
            format!(
                "ratio run: generated={} committed={} violations={:?} validation={:?}",
                rep.sim.generated, rep.sim.committed, rep.sim.violations, rep.sim.validation
            )
        });
    }
    let result = match rep.result {
        Some(r) if r.ok() => r,
        _ => return f64::NAN,
    };
    let report = competitive_ratio(&rep.network, &result);
    let n = report.samples.len();
    let mean = report.samples.iter().map(|s| s.1).sum::<f64>() / n as f64;
    checks.notes.push(format!(
        "ratio run: horizon={} generated={} samples={n} sup={} mean={mean}",
        w.ratio_horizon, rep.sim.generated, report.max_ratio
    ));
    mean
}

fn end_to_end(
    plain: &[Kept],
    sim: &Sim,
    ratio: f64,
    peak_rss: Option<f64>,
    checks: &mut Checks,
) -> Vec<Metric> {
    // Steps, events and commits repeat exactly in every repetition, so
    // the three host rates share one summary run time.
    let run_s = minimum(&plain.iter().map(|r| r.run_s).collect::<Vec<_>>());
    let first = &plain[0];
    let setups: Vec<f64> = plain
        .iter()
        .flat_map(|r| r.setups.iter().map(|s| s.total()))
        .collect();
    checks.require(peak_rss.is_some(), || "VmHWM unavailable".into());
    checks.notes.push(format!("setup samples={}", setups.len()));
    vec![
        metric("txns_per_s", first.committed as f64 / run_s, "txn/s"),
        metric("steps_per_s", first.steps as f64 / run_s, "step/s"),
        metric(
            "ns_per_event",
            run_s * 1e9 / first.events.max(1) as f64,
            "ns",
        ),
        metric("setup_s", median(&setups), "s"),
        metric("peak_rss_mb", peak_rss.unwrap_or(f64::NAN), "MiB"),
        metric("sojourn_p50_steps", sim.sojourn_pct(0.50) as f64, "step"),
        metric("sojourn_p99_steps", sim.sojourn_pct(0.99) as f64, "step"),
        metric("makespan_steps", sim.makespan as f64, "step"),
        metric("comm_cost_per_txn", sim.comm_cost_per_txn(), "weight"),
        metric("competitive_ratio_mean", ratio, "ratio"),
    ]
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn layer_metrics(
    w: &Workload,
    plain: &[Kept],
    traced: &[Kept],
    network: &Network,
    plan: &Rc<Plan>,
) -> Vec<Metric> {
    let layers: Vec<&Layers> = traced.iter().filter_map(|r| r.layers.as_ref()).collect();
    let med = |f: &dyn Fn(&Layers) -> f64| median(&layers.iter().map(|l| f(l)).collect::<Vec<_>>());
    let setup_part = |f: &dyn Fn(&SetupTimes) -> f64| {
        median(
            &plain
                .iter()
                .flat_map(|r| r.setups.iter().map(f))
                .collect::<Vec<_>>(),
        )
    };
    let phase = |p: Phase| med(&|l| l.phase_ns[p.index()] as f64);
    let run_plain = minimum(&plain.iter().map(|r| r.run_s).collect::<Vec<_>>());
    let run_traced = minimum(&traced.iter().map(|r| r.run_s).collect::<Vec<_>>());
    let sched_wait = plain
        .iter()
        .chain(traced)
        .map(|r| r.sched_wait_frac)
        .fold(0.0, f64::max);
    // Only the bucket workload builds a cover; elsewhere the layer is
    // idle and reads 0, like the offline scheduler's counters.
    let cover_s = if w.policy == PolicyKind::DistBucket {
        let start = Instant::now();
        std::hint::black_box(SparseCover::build(network, COVER_SEED));
        start.elapsed().as_secs_f64()
    } else {
        0.0
    };
    let (next_hop_ns, distance_ns) = routing_probe(network, plan, w);
    // Counts repeat exactly in every traced repetition (checked through
    // the simulated outcome), so the first one speaks for all.
    let first = layers[0];
    vec![
        metric("sim.receive_ns", phase(Phase::Receive), "ns"),
        metric("sim.generate_ns", phase(Phase::Generate), "ns"),
        metric("sim.schedule_ns", phase(Phase::Schedule), "ns"),
        metric("sim.execute_ns", phase(Phase::Execute), "ns"),
        metric("sim.forward_ns", phase(Phase::Forward), "ns"),
        metric(
            "sim.schedule_self_ns",
            med(&|l| l.phase_ns[Phase::Schedule.index()] as f64 - l.policy_ns as f64),
            "ns",
        ),
        metric("sim.deliveries", first.deliveries as f64, "count"),
        metric("sim.departures", first.departures as f64, "count"),
        metric("sim.commits", first.commits as f64, "count"),
        metric(
            "sim.quiescent_frac",
            first.quiescent as f64 / first.steps.max(1) as f64,
            "ratio",
        ),
        metric("core.policy_ns", med(&|l| l.policy_ns as f64), "ns"),
        metric(
            "core.policy_self_ns",
            med(&|l| l.policy_ns as f64 - l.batch_ns as f64),
            "ns",
        ),
        metric("core.policy_calls", first.policy_calls as f64, "count"),
        metric(
            "core.policy_useful_frac",
            first.policy_useful as f64 / first.policy_calls.max(1) as f64,
            "ratio",
        ),
        metric("core.policy_new_s", setup_part(&|s| s.policy), "s"),
        metric("offline.batch_calls", first.batch_calls as f64, "count"),
        metric("offline.batch_ns", med(&|l| l.batch_ns as f64), "ns"),
        metric("offline.batch_txns", first.batch_txns as f64, "count"),
        metric("graph.build_s", setup_part(&|s| s.build), "s"),
        metric("graph.oracle_init_s", setup_part(&|s| s.oracle), "s"),
        metric("graph.cover_build_s", cover_s, "s"),
        metric("graph.next_hop_ns", next_hop_ns, "ns"),
        metric("graph.distance_ns", distance_ns, "ns"),
        metric(
            "host.trace_overhead_frac",
            run_traced / run_plain - 1.0,
            "ratio",
        ),
        metric("host.sched_wait_frac", sched_wait, "ratio"),
    ]
}

/// Per-query time of `next_hop` and `distance` over a seeded sample of
/// home × object-origin pairs from the workload's own stream, on the
/// run's network after one warm-up pass.
fn routing_probe(network: &Network, plan: &Rc<Plan>, w: &Workload) -> (f64, f64) {
    let (mut source, _) = plan.source(w.horizon);
    let mut txns = Vec::new();
    let mut t = 0;
    while txns.len() < PROBE_PAIRS && !source.exhausted() {
        source.arrivals_into(t, &mut txns);
        t += 1;
    }
    let origins = plan.objects();
    let pairs: Vec<(NodeId, NodeId)> = txns
        .iter()
        .filter_map(|x| {
            let o = x.objects().next()?;
            let origin = origins[o.index()].origin;
            (origin != x.home).then_some((origin, x.home))
        })
        .collect();
    let hop_pass = || {
        for &(from, to) in &pairs {
            std::hint::black_box(network.next_hop(from, to));
        }
    };
    let dist_pass = || {
        for &(from, to) in &pairs {
            std::hint::black_box(network.distance(from, to));
        }
    };
    hop_pass();
    dist_pass();
    let timed = |pass: &dyn Fn()| {
        let start = Instant::now();
        let mut passes = 0u64;
        while passes == 0 || start.elapsed() < PROBE_MIN {
            pass();
            passes += 1;
        }
        start.elapsed().as_nanos() as f64 / (passes * pairs.len().max(1) as u64) as f64
    };
    (timed(&hop_pass), timed(&dist_pass))
}
