//! Runs one experiment of the suite, or all of them in suite order:
//!
//! ```text
//! exp <id>|all [--quick] [--jobs N]
//! ```
//!
//! `<id>` is a registry id (`e1`, `e3`, … `e18`, `a1`; run `exp` alone to
//! list them). `--quick` selects the reduced grids used in CI; `--jobs N`
//! (or `-j N`) fans grid cells across N worker threads. Tables are
//! byte-identical for every N — see EXPERIMENTS.md "Parallel execution".

use dtm_bench::experiments::{find, run_all, REGISTRY};

fn usage() -> ! {
    eprintln!("usage: exp <id>|all [--quick] [--jobs N]\n\nexperiments:");
    for e in REGISTRY {
        eprintln!("  {:<4} {}", e.id, e.title);
    }
    eprintln!("  all  every experiment above, in this order");
    std::process::exit(2);
}

fn main() {
    let id = std::env::args().nth(1).unwrap_or_default();
    let run: fn(bool) -> Vec<dtm_bench::Table> = match id.as_str() {
        "all" => run_all,
        _ => match find(&id) {
            Some(e) => e.run,
            None => usage(),
        },
    };
    dtm_bench::init_jobs();
    let quick = dtm_bench::quick_flag();
    if id == "all" {
        eprintln!(
            "running full experiment suite (quick = {quick}, jobs = {})...",
            rayon::current_num_threads()
        );
    }
    for table in run(quick) {
        table.print();
    }
}
