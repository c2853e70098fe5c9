//! The open-loop generator: determinism, rate and locality.

use dtm_graph::topology;
use dtm_model::{Transaction, WorkloadSource};
use dtm_perfbench::gen::{Locality, Plan, StreamSpec};
use std::rc::Rc;

fn stream(plan: &Rc<Plan>, horizon: u64) -> Vec<Transaction> {
    let (mut source, _) = plan.source(horizon);
    let mut out = Vec::new();
    let mut t = 0;
    while !source.exhausted() {
        source.arrivals_into(t, &mut out);
        t += 1;
    }
    out
}

fn spec(rate: f64, locality: Locality) -> StreamSpec {
    StreamSpec {
        rate,
        objects: 64,
        k: 2,
        locality,
    }
}

#[test]
fn same_seed_gives_identical_arrival_stream() {
    let net = topology::geometric(512, 4, 3);
    let s = spec(0.7, Locality::Near { radius: 12 });
    let a = Rc::new(Plan::new(&net, s, 42));
    let b = Rc::new(Plan::new(&net, s, 42));
    let c = Rc::new(Plan::new(&net, s, 43));
    let (sa, sb, sc) = (stream(&a, 5_000), stream(&b, 5_000), stream(&c, 5_000));
    assert!(!sa.is_empty());
    assert_eq!(sa, sb);
    assert_ne!(sa, sc);
    // A second source of the same plan replays the stream from step 0.
    assert_eq!(sa, stream(&a, 5_000));
}

#[test]
fn long_run_rate_matches_rho() {
    let net = topology::hypercube(6);
    for rate in [0.02, 0.5, 6.0] {
        let horizon = (100_000.0 / rate) as u64;
        let plan = Rc::new(Plan::new(&net, spec(rate, Locality::Uniform), 7));
        let n = stream(&plan, horizon).len() as f64;
        // 100k expected arrivals: a Poisson count's relative deviation is
        // about 0.32%, so 2% is far outside chance.
        let observed = n / horizon as f64;
        assert!(
            (observed / rate - 1.0).abs() < 0.02,
            "rate {rate}: observed {observed}"
        );
    }
}

#[test]
fn arrivals_are_due_at_their_step_and_never_past_the_horizon() {
    let net = topology::hypercube(4);
    let plan = Rc::new(Plan::new(&net, spec(3.0, Locality::Uniform), 1));
    let (mut source, record) = plan.source(100);
    for t in 0..150 {
        let mut out = Vec::new();
        source.arrivals_into(t, &mut out);
        assert!(out.iter().all(|x| x.generated_at == t && x.k() == 2));
        assert!(t < 100 || out.is_empty());
    }
    assert!(source.exhausted());
    let record = record.borrow();
    assert!(record.due.windows(2).all(|w| w[0] <= w[1]));
}

#[test]
fn near_locality_keeps_homes_within_radius_of_the_first_object() {
    let net = topology::geometric(512, 4, 3);
    let radius = 12;
    let plan = Rc::new(Plan::new(&net, spec(1.0, Locality::Near { radius }), 9));
    let origins = plan.objects();
    let txns = stream(&plan, 2_000);
    // Objects are sorted in a transaction, so check that some object of
    // each transaction lies within the radius of its home.
    for x in &txns {
        assert!(
            x.objects()
                .any(|o| net.distance(origins[o.index()].origin, x.home) <= radius),
            "{x:?}"
        );
    }
}
