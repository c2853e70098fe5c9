//! The traced run's wrappers are pass-through: on every workload a traced
//! repetition simulates exactly what an untraced one does.

use dtm_perfbench::workload::{run_rep, RepMode, WORKLOADS};

#[test]
fn traced_and_untraced_runs_give_identical_simulated_metrics() {
    for w in &WORKLOADS {
        // A shortened stream keeps the test quick in debug builds.
        let horizon = w.horizon / 100;
        let mode = |traced| RepMode {
            horizon,
            full_history: w.full_history,
            traced,
        };
        let mut plan = None;
        let plain = run_rep(w, 5, &mut plan, mode(false));
        let traced = run_rep(w, 5, &mut plan, mode(true));
        assert!(plain.sim.ok(), "{}: {:?}", w.name, plain.sim.violations);
        assert!(plain.sim.generated > 0, "{}", w.name);
        assert_eq!(plain.sim, traced.sim, "{}", w.name);
        let layers = traced.layers.expect("traced repetition records layers");
        assert_eq!(layers.commits, plain.sim.committed, "{}", w.name);
        assert_eq!(layers.steps, plain.sim.steps, "{}", w.name);
        assert!(plain.layers.is_none());
    }
}
