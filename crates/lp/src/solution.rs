//! Solver results and error types.

use std::fmt;
use std::time::Duration;

/// Errors produced by the LP / MILP solvers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LpError {
    /// A constraint referenced a variable index outside the model.
    UnknownVar(usize),
    /// A coefficient or right-hand side was NaN / infinite.
    BadCoefficient,
    /// The constraint set admits no feasible point.
    Infeasible,
    /// The objective is unbounded in the optimisation direction.
    Unbounded,
    /// The pivot limit was exhausted before reaching optimality.
    IterationLimit,
    /// Branch-and-bound exhausted its node budget without proving
    /// optimality and no incumbent was found.
    NodeLimit,
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::UnknownVar(i) => write!(f, "constraint references unknown variable #{i}"),
            LpError::BadCoefficient => write!(f, "non-finite coefficient or right-hand side"),
            LpError::Infeasible => write!(f, "problem is infeasible"),
            LpError::Unbounded => write!(f, "objective is unbounded"),
            LpError::IterationLimit => write!(f, "simplex iteration limit reached"),
            LpError::NodeLimit => write!(f, "branch-and-bound node limit reached"),
        }
    }
}

impl std::error::Error for LpError {}

/// Statistics of a single simplex run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SolveStats {
    /// Total pivots across both phases.
    pub pivots: usize,
    /// Pivots spent in phase 1 (finding a feasible basis).
    pub phase1_pivots: usize,
    /// Wall-clock time of the solve.
    pub elapsed: Duration,
    /// Wall-clock time spent building the standard-form tableau, the
    /// phase-1 pricing included.
    pub build_elapsed: Duration,
    /// Wall-clock time spent in phase 1, from its first pivot through the
    /// drive-out of the artificials (zero when the initial basis was
    /// already feasible).
    pub phase1_elapsed: Duration,
}

impl SolveStats {
    /// Records this run's pivots and per-phase timings under `prefix`
    /// (conventionally `"lp"`): counters `<prefix>.pivots`,
    /// `<prefix>.phase1_pivots` and `<prefix>.solves`, plus millisecond
    /// histograms `<prefix>.build_ms`, `<prefix>.phase1_ms` and
    /// `<prefix>.phase2_ms` (the rest of `elapsed`).
    pub fn record(&self, rec: &dyn apple_telemetry::Recorder, prefix: &str) {
        if !rec.enabled() {
            return;
        }
        rec.counter(&format!("{prefix}.pivots"), self.pivots as u64);
        rec.counter(
            &format!("{prefix}.phase1_pivots"),
            self.phase1_pivots as u64,
        );
        rec.counter(&format!("{prefix}.solves"), 1);
        rec.observe_duration(&format!("{prefix}.build_ms"), self.build_elapsed);
        rec.observe_duration(&format!("{prefix}.phase1_ms"), self.phase1_elapsed);
        rec.observe_duration(
            &format!("{prefix}.phase2_ms"),
            self.elapsed
                .saturating_sub(self.build_elapsed)
                .saturating_sub(self.phase1_elapsed),
        );
    }
}

/// An optimal (or incumbent) solution.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    values: Vec<f64>,
    objective: f64,
    stats: SolveStats,
    duals: Option<Vec<f64>>,
}

impl Solution {
    pub(crate) fn new(values: Vec<f64>, objective: f64, stats: SolveStats) -> Self {
        Solution {
            values,
            objective,
            stats,
            duals: None,
        }
    }

    pub(crate) fn set_duals(&mut self, duals: Vec<f64>) {
        self.duals = Some(duals);
    }

    /// Builds a solution from parts assembled outside the simplex — used by
    /// [`decompose`](crate::decompose) to merge block optima and by callers
    /// that lift reduced-space solutions back to an original model.
    ///
    /// The caller is responsible for `objective` matching `values` under the
    /// intended model (use [`Model::objective_of`](crate::Model::objective_of)).
    pub fn assemble(values: Vec<f64>, objective: f64, stats: SolveStats) -> Self {
        Solution::new(values, objective, stats)
    }

    /// Attaches dual values (one per constraint of the intended model), in
    /// builder style. See [`Solution::duals`] for the sign convention.
    #[must_use]
    pub fn with_duals(mut self, duals: Vec<f64>) -> Self {
        self.duals = Some(duals);
        self
    }

    /// Dual values (Lagrange multipliers), one per model constraint in
    /// insertion order, reported for the **min-oriented** problem (negate
    /// for `Sense::Max` models). `None` for solutions that did not come
    /// from a direct simplex solve (e.g. branch-and-bound incumbents).
    ///
    /// Sign convention: at optimality, tightening a `Ge` constraint's
    /// right-hand side by `ε` increases the optimum by `y·ε` with `y ≥ 0`;
    /// `Le` constraints have `y ≤ 0`.
    pub fn duals(&self) -> Option<&[f64]> {
        self.duals.as_deref()
    }

    /// Value assigned to variable `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` does not belong to the solved model.
    pub fn value(&self, v: crate::model::Var) -> f64 {
        self.values[v.index()]
    }

    /// Dense assignment vector indexed by variable index.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Objective value at this assignment (in the model's original sense).
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// Solver statistics.
    pub fn stats(&self) -> SolveStats {
        self.stats
    }

    pub(crate) fn stats_mut(&mut self) -> &mut SolveStats {
        &mut self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Var;

    #[test]
    fn accessors() {
        let s = Solution::new(vec![1.0, 2.0], 5.0, SolveStats::default());
        assert_eq!(s.value(Var(1)), 2.0);
        assert_eq!(s.values(), &[1.0, 2.0]);
        assert_eq!(s.objective(), 5.0);
        assert_eq!(s.stats().pivots, 0);
    }

    #[test]
    fn error_messages_are_informative() {
        assert!(LpError::Infeasible.to_string().contains("infeasible"));
        assert!(LpError::Unbounded.to_string().contains("unbounded"));
        assert!(LpError::UnknownVar(7).to_string().contains("#7"));
    }
}
