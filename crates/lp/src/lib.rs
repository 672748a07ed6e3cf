//! Linear-programming substrate for the APPLE reproduction.
//!
//! The paper formulates VNF placement as an Integer Linear Program (Eq. 1–8)
//! and solves its **LP relaxation** with CPLEX. CPLEX is proprietary and no
//! LP crate is available offline, so this crate implements the required
//! machinery from scratch:
//!
//! * a modelling layer ([`Model`], [`Var`], [`LinExpr`]) for building
//!   minimisation/maximisation problems with `≤ / ≥ / =` constraints and
//!   variable bounds,
//! * a dense **two-phase primal simplex** solver with Dantzig pricing and a
//!   Bland's-rule anti-cycling fallback ([`simplex`]),
//! * a depth-first **branch-and-bound** MILP solver for integer-marked
//!   variables ([`branch`]). It is a test oracle, not an engine mode: the
//!   tests solve the integer placement model (the same model `apple
//!   export-lp` prints through [`export`]) for its exact optimum on small
//!   instances, to check the LP-relax-and-round pipeline the paper uses at
//!   scale,
//! * a **decomposed solve** ([`decompose`]): forced-slack rows are
//!   stripped, the model splits into connected components of the
//!   variable-incidence graph, blocks solve one by one and merge in block
//!   order; a content-addressed [`WarmCache`] lets re-solves skip untouched
//!   blocks entirely (DESIGN.md §8).
//!
//! # Example
//!
//! ```
//! use apple_lp::{Model, Cmp, Sense};
//!
//! // min x + 2y  s.t.  x + y >= 3, y <= 1.5, x,y >= 0
//! let mut m = Model::new(Sense::Min);
//! let x = m.add_var("x", 0.0, f64::INFINITY, 1.0);
//! let y = m.add_var("y", 0.0, 1.5, 2.0);
//! m.add_constraint([(x, 1.0), (y, 1.0)], Cmp::Ge, 3.0)?;
//! let sol = m.solve_lp()?;
//! assert!((sol.objective() - 3.0).abs() < 1e-7); // x=3, y=0
//! # Ok::<(), apple_lp::LpError>(())
//! ```

#![warn(missing_docs)]

pub mod branch;
pub mod decompose;
pub mod export;
pub mod model;
pub mod simplex;
pub mod solution;
pub mod stats;

pub use branch::{BranchConfig, MilpStats};
pub use decompose::{solve_decomposed, DecomposedStats, WarmCache};
pub use model::{Cmp, LinExpr, Model, Sense, Var};
pub use simplex::SimplexOptions;
pub use solution::{LpError, Solution, SolveStats};
