//! The experiment suite (see EXPERIMENTS.md for the claim ↔ experiment
//! mapping and recorded results).
//!
//! Every experiment exposes `run(quick: bool) -> Vec<Table>`; `quick`
//! shrinks parameter grids for smoke tests and CI.

pub mod ablations;
pub mod e10_star;
pub mod e11_distributed;
pub mod e12_shootout;
pub mod e13_batch_quality;
pub mod e14_variance;
pub mod e15_applications;
pub mod e16_message_level;
pub mod e17_stability;
pub mod e18_substrate_scale;
pub mod e1_greedy_bound;
pub mod e3_clique;
pub mod e4_small_diameter;
pub mod e6_bucket_lemmas;
pub mod e8_line;
pub mod e9_cluster;

use crate::Table;

/// One experiment of the suite, as the `exp` binary dispatches it.
pub struct Experiment {
    /// The id `exp <id>` selects (lowercase, e.g. `e3`).
    pub id: &'static str,
    /// The claims the experiment's tables cover.
    pub title: &'static str,
    /// Produces the experiment's tables; the flag selects the quick grids.
    pub run: fn(bool) -> Vec<Table>,
}

/// Every experiment, in suite order (the order [`run_all`] prints).
pub const REGISTRY: &[Experiment] = &[
    Experiment {
        id: "e1",
        title: "E1/E2 greedy theorem bounds",
        run: e1_greedy_bound::run,
    },
    Experiment {
        id: "e3",
        title: "E3 clique O(k)",
        run: e3_clique::run,
    },
    Experiment {
        id: "e4",
        title: "E4/E5 hypercube, butterfly, grid",
        run: e4_small_diameter::run,
    },
    Experiment {
        id: "e6",
        title: "E6/E7 bucket lemmas",
        run: e6_bucket_lemmas::run,
    },
    Experiment {
        id: "e8",
        title: "E8 line polylog",
        run: e8_line::run,
    },
    Experiment {
        id: "e9",
        title: "E9 cluster",
        run: e9_cluster::run,
    },
    Experiment {
        id: "e10",
        title: "E10 star",
        run: e10_star::run,
    },
    Experiment {
        id: "e11",
        title: "E11 distributed overhead",
        run: e11_distributed::run,
    },
    Experiment {
        id: "e12",
        title: "E12 shootout and load sweep",
        run: e12_shootout::run,
    },
    Experiment {
        id: "e13",
        title: "E13 batch approximation ratios vs exact OPT",
        run: e13_batch_quality::run,
    },
    Experiment {
        id: "e14",
        title: "E14 seed-variance robustness",
        run: e14_variance::run,
    },
    Experiment {
        id: "e15",
        title: "E15 application benchmarks",
        run: e15_applications::run,
    },
    Experiment {
        id: "e16",
        title: "E16 idealized vs message-level Algorithm 3",
        run: e16_message_level::run,
    },
    Experiment {
        id: "e17",
        title: "E17 open-system stability",
        run: e17_stability::run,
    },
    Experiment {
        id: "e18",
        title: "E18 substrate scale-decade sweep",
        run: e18_substrate_scale::run,
    },
    Experiment {
        id: "a1",
        title: "A1-A5 ablations",
        run: ablations::run,
    },
];

/// The registry entry with this id.
pub fn find(id: &str) -> Option<&'static Experiment> {
    REGISTRY.iter().find(|e| e.id == id)
}

/// Run every experiment in registry order (`exp all`).
pub fn run_all(quick: bool) -> Vec<Table> {
    REGISTRY.iter().flat_map(|e| (e.run)(quick)).collect()
}
