//! APPLE — the paper's primary contribution: an SDN-based NFV orchestration
//! framework enforcing policy chains with **interference freedom** (flow
//! paths are never changed) and **VM isolation** (every VNF instance is its
//! own VM).
//!
//! The crate mirrors the architecture of Fig. 1:
//!
//! * [`policy`] — NF policy chains and the synthetic policy workload of
//!   §IX-A,
//! * [`classes`] — traffic aggregation into equivalence classes (same
//!   forwarding path + same policy chain, §IV-A),
//! * [`engine`] — the Optimization Engine: the ILP of Eq. (1)–(8), solved
//!   by LP relaxation + rounding (the tests solve its integer model,
//!   `OptimizationEngine::ilp_model`, by branch-and-bound as the exact
//!   oracle); every relaxation substitutes the q variables out,
//!   splits into independent per-class blocks and solves them through a
//!   warm cache (DESIGN.md §8),
//! * [`subclass`] — sub-class construction (§V-A): monotone coupling of the
//!   per-stage spatial distributions into concrete VNF-instance sequences,
//!   realised by source-prefix splitting,
//! * [`orchestrator`] — the Resource Orchestrator: APPLE hosts, resource
//!   accounting, instance lifecycle,
//! * [`rules`] — the Rule Generator: Table III TCAM programs + vSwitch
//!   rules implementing the flow-tagging scheme of §V-B, plus the
//!   no-tagging baseline used by Fig. 10,
//! * [`failover`] — the Dynamic Handler: fast failover for small
//!   time-scale traffic dynamics (§VI), plus [`failover::Replanner`], the
//!   large time-scale re-optimisation loop with a warm-started decomposed
//!   solve,
//! * [`online`] — the online arrival/departure path: the
//!   [`online::OrchestrationLoop`] streaming flow timelines through
//!   incremental class maintenance, DP placement against a live
//!   residual-capacity ledger, and periodic warm-started re-solves
//!   (DESIGN.md §9),
//! * [`policy_spec`] — the operator-facing policy grammar parsed into
//!   weighted chains,
//! * [`recovery`] — crash-consistent write-ahead journaling of the online
//!   loop, deterministic redo recovery, and data-plane reconciliation
//!   (DESIGN.md §11),
//! * [`transition`] — make-before-break reconfiguration between two
//!   placements,
//! * [`verify`] — the runtime invariant checkers (interference freedom,
//!   traffic accounting) used by the chaos and equivalence suites,
//! * [`baselines`] — the `ingress` strawman of Fig. 11 and a traffic-
//!   steering model used to demonstrate interference (Table I),
//! * [`controller`] — the end-to-end facade tying all components together.
//!
//! # Example
//!
//! ```
//! use apple_core::controller::Apple;
//! use apple_topology::zoo;
//! use apple_traffic::{SeriesConfig, TmSeries};
//!
//! let topo = zoo::internet2();
//! let series = TmSeries::generate(&topo, &SeriesConfig::small(7));
//! let apple = Apple::plan(&topo, &series.mean(), &Default::default())?;
//! assert!(apple.placement().total_instances() > 0);
//! # Ok::<(), apple_core::engine::EngineError>(())
//! ```

#![warn(missing_docs)]

pub mod baselines;
pub mod classes;
pub mod controller;
pub mod engine;
pub mod failover;
pub mod online;
pub mod orchestrator;
pub mod policy;
pub mod policy_spec;
pub mod recovery;
pub mod rules;
pub mod subclass;
pub mod transition;
pub mod verify;

pub use classes::{ClassId, ClassSet, EquivalenceClass};
pub use controller::Apple;
pub use engine::{EngineConfig, OptimizationEngine, Placement};
pub use policy::PolicyChain;
pub use subclass::{SplitStrategy, SubclassPlan};
