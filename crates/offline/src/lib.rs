//! # dtm-offline
//!
//! Offline *batch* scheduling substrate for distributed transactional
//! memory, playing the role of the algorithms of Busch et al., *"Fast
//! scheduling in distributed transactional memory"* (SPAA 2017) — cited as
//! \[4\] by the IPDPS 2020 paper this workspace reproduces — plus the
//! baselines the paper discusses (TSP-tour scheduling \[30\], generic list
//! scheduling) and certified makespan **lower bounds** used to report
//! conservative competitive-ratio estimates.
//!
//! The online bucket scheduler (Algorithm 2 of the paper) is *parametric*
//! in an offline batch scheduler `𝒜` with approximation ratio `b_𝒜`; any
//! implementor of [`BatchScheduler`] can be plugged in. The paper's two
//! "basic modifications" (Section IV-A) are honored structurally:
//!
//! 1. *scheduling around already-scheduled transactions*: every scheduler
//!    receives a [`BatchContext`] carrying the fixed schedule as one
//!    timeline per object ([`FixedSet`]) and projects each object's
//!    availability after its fixed users ([`BatchContext::release`]),
//!    folding only the objects the call touches;
//! 2. *the suffix property*: all schedulers here are earliest-feasible
//!    list-type schedules, whose suffixes are themselves feasible
//!    earliest-feasible schedules from the suffix's object positions.
//!
//! Schedulers:
//! * [`ListScheduler`] — generic earliest-feasible list scheduling for
//!   arbitrary graphs (also the FIFO online baseline's engine);
//! * [`CliqueScheduler`] — conflict-graph coloring for cliques / uniform
//!   small-diameter graphs (O(k·l_max) makespan);
//! * [`LineScheduler`] — coordinate sweep for line graphs;
//! * [`ClusterScheduler`] — two-phase intra-clique coloring + cross-clique
//!   randomized list scheduling for cluster graphs;
//! * [`StarScheduler`] — randomized-restart ray-grouped scheduling for
//!   star graphs;
//! * [`TspScheduler`] — the Zhang-et-al.-style per-object nearest-neighbor
//!   tour baseline;
//! * [`ExactScheduler`] — exhaustive optimum for small instances, used to
//!   measure the true `b_𝒜` of every heuristic (experiment E13).
//!
//! # Example
//!
//! ```
//! use dtm_graph::{topology, NodeId};
//! use dtm_model::{ObjectId, Transaction, TxnId};
//! use dtm_offline::{validate_batch_schedule, BatchContext, BatchScheduler, LineScheduler};
//!
//! let net = topology::line(16);
//! let ctx = BatchContext::fresh([(ObjectId(0), NodeId(0))]);
//! let pending = vec![
//!     Transaction::new(TxnId(0), NodeId(12), [ObjectId(0)], 0),
//!     Transaction::new(TxnId(1), NodeId(3), [ObjectId(0)], 0),
//! ];
//! let schedule = LineScheduler.schedule(&net, &pending, &ctx);
//! // The sweep serves node 3 first, then node 12.
//! assert!(schedule.get(TxnId(1)) < schedule.get(TxnId(0)));
//! validate_batch_schedule(&net, &pending, &ctx, &schedule).unwrap();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod clique;
pub mod cluster;
pub mod exact;
pub mod line;
pub mod list;
pub mod lower_bound;
pub mod ratio;
pub mod star;
pub mod traits;
pub mod tsp;

pub use clique::CliqueScheduler;
pub use cluster::ClusterScheduler;
pub use exact::ExactScheduler;
pub use line::LineScheduler;
pub use list::{ListOrder, ListScheduler};
pub use lower_bound::{batch_lower_bound, object_lower_bound, LowerBoundParts};
pub use ratio::{competitive_ratio, RatioReport};
pub use star::StarScheduler;
pub use traits::{validate_batch_schedule, BatchContext, BatchScheduler, FixedSet, FixedUser};
pub use tsp::TspScheduler;
