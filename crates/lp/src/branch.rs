//! Depth-first branch-and-bound MILP solver.
//!
//! APPLE's paper solves the LP relaxation only; this exact solver is a test
//! oracle: it produces ground-truth optima of the integer placement model
//! on small instances so tests can measure the rounding gap. No placement
//! path runs it.

use crate::model::{Model, Sense, Var};
use crate::simplex::SimplexOptions;
use crate::solution::{LpError, Solution};
use std::time::Instant;

/// Budget and tolerance knobs for branch-and-bound.
#[derive(Debug, Clone, Copy)]
pub struct BranchConfig {
    /// Maximum number of LP relaxations to solve before giving up.
    pub max_nodes: usize,
    /// Tolerance below which a value counts as integral.
    pub int_tolerance: f64,
    /// Options forwarded to the simplex solver at each node.
    pub simplex: SimplexOptions,
}

impl Default for BranchConfig {
    fn default() -> Self {
        BranchConfig {
            max_nodes: 50_000,
            int_tolerance: 1e-6,
            simplex: SimplexOptions::default(),
        }
    }
}

/// Statistics of a branch-and-bound run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MilpStats {
    /// LP relaxations solved.
    pub nodes: usize,
    /// Nodes pruned by bound.
    pub pruned: usize,
    /// Wall-clock time.
    pub elapsed: std::time::Duration,
}

impl Model {
    /// Solves the model exactly, enforcing integrality on variables added
    /// via [`Model::add_int_var`], using depth-first branch-and-bound with
    /// best-bound pruning.
    ///
    /// # Errors
    ///
    /// [`LpError::Infeasible`] when no integral point exists,
    /// [`LpError::Unbounded`] when the relaxation is unbounded, and
    /// [`LpError::NodeLimit`] when the node budget runs out with no
    /// incumbent.
    pub fn solve_ilp(&self, config: BranchConfig) -> Result<(Solution, MilpStats), LpError> {
        let start = Instant::now();
        let int_vars = self.integer_vars();
        let mut stats = MilpStats::default();
        if int_vars.is_empty() {
            let sol = self.solve_lp_with(config.simplex)?;
            stats.nodes = 1;
            stats.elapsed = start.elapsed();
            return Ok((sol, stats));
        }

        // A node is a set of extra bound constraints (var, lower, upper).
        struct NodeBounds {
            bounds: Vec<(Var, f64, f64)>,
        }
        let mut stack = vec![NodeBounds { bounds: Vec::new() }];
        let mut incumbent: Option<Solution> = None;
        let better = |a: f64, b: f64| match self.sense {
            Sense::Min => a < b - 1e-9,
            Sense::Max => a > b + 1e-9,
        };

        while let Some(node) = stack.pop() {
            if stats.nodes >= config.max_nodes {
                break;
            }
            stats.nodes += 1;
            let mut sub = self.clone();
            for &(v, lo, hi) in &node.bounds {
                if lo > sub.vars[v.index()].lower {
                    sub.vars[v.index()].lower = lo;
                }
                if hi < sub.vars[v.index()].upper {
                    sub.vars[v.index()].upper = hi;
                }
                if sub.vars[v.index()].lower > sub.vars[v.index()].upper {
                    // Empty domain: prune.
                    continue;
                }
            }
            if node
                .bounds
                .iter()
                .any(|&(v, _, _)| sub.vars[v.index()].lower > sub.vars[v.index()].upper)
            {
                stats.pruned += 1;
                continue;
            }
            let relax = match sub.solve_lp_with(config.simplex) {
                Ok(s) => s,
                Err(LpError::Infeasible) => {
                    stats.pruned += 1;
                    continue;
                }
                Err(LpError::Unbounded) if node.bounds.is_empty() => {
                    return Err(LpError::Unbounded)
                }
                Err(LpError::Unbounded) => {
                    stats.pruned += 1;
                    continue;
                }
                Err(e) => return Err(e),
            };
            // Bound pruning.
            if let Some(inc) = &incumbent {
                if !better(relax.objective(), inc.objective()) {
                    stats.pruned += 1;
                    continue;
                }
            }
            // Find most fractional integer variable.
            let mut branch_var: Option<(Var, f64, f64)> = None; // (var, value, frac-dist)
            for &v in &int_vars {
                let val = relax.value(v);
                let frac = (val - val.round()).abs();
                if frac > config.int_tolerance {
                    let dist = (val.fract() - 0.5).abs();
                    match branch_var {
                        Some((_, _, best)) if dist >= best => {}
                        _ => branch_var = Some((v, val, dist)),
                    }
                }
            }
            match branch_var {
                None => {
                    // Integral: candidate incumbent.
                    let is_better = incumbent
                        .as_ref()
                        .is_none_or(|inc| better(relax.objective(), inc.objective()));
                    if is_better {
                        incumbent = Some(relax);
                    }
                }
                Some((v, val, _)) => {
                    let floor = val.floor();
                    // Explore the "round down" child last (popped first) for
                    // minimisation — tends to find incumbents early.
                    let mut up = node.bounds.clone();
                    up.push((v, floor + 1.0, f64::INFINITY));
                    let mut down = node.bounds.clone();
                    down.push((v, f64::NEG_INFINITY, floor));
                    stack.push(NodeBounds { bounds: up });
                    stack.push(NodeBounds { bounds: down });
                }
            }
        }
        stats.elapsed = start.elapsed();
        match incumbent {
            Some(mut sol) => {
                sol.stats_mut().elapsed = stats.elapsed;
                Ok((sol, stats))
            }
            None if stats.nodes >= config.max_nodes => Err(LpError::NodeLimit),
            None => Err(LpError::Infeasible),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Cmp, Model, Sense};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn pure_lp_passthrough() {
        let mut m = Model::new(Sense::Min);
        let x = m.add_var("x", 1.0, 5.0, 1.0);
        let (s, stats) = m.solve_ilp(BranchConfig::default()).unwrap();
        assert_close(s.value(x), 1.0);
        assert_eq!(stats.nodes, 1);
    }

    #[test]
    fn knapsack_style() {
        // max 5a + 4b s.t. 6a + 5b <= 10, a,b integer in [0,3]
        // LP relax: a=10/6; ILP optimum: a=1, b=0 → 5? or a=0,b=2 → 8.
        let mut m = Model::new(Sense::Max);
        let a = m.add_int_var("a", 0.0, 3.0, 5.0);
        let b = m.add_int_var("b", 0.0, 3.0, 4.0);
        m.add_constraint([(a, 6.0), (b, 5.0)], Cmp::Le, 10.0)
            .unwrap();
        let (s, _) = m.solve_ilp(BranchConfig::default()).unwrap();
        assert_close(s.objective(), 8.0);
        assert_close(s.value(a), 0.0);
        assert_close(s.value(b), 2.0);
    }

    #[test]
    fn covering_problem_rounds_up() {
        // min q s.t. 3q >= 7, q integer → q = 3 (LP gives 2.33).
        let mut m = Model::new(Sense::Min);
        let q = m.add_int_var("q", 0.0, 100.0, 1.0);
        m.add_constraint([(q, 3.0)], Cmp::Ge, 7.0).unwrap();
        let (s, stats) = m.solve_ilp(BranchConfig::default()).unwrap();
        assert_close(s.value(q), 3.0);
        assert!(stats.nodes >= 2);
    }

    #[test]
    fn mixed_integer() {
        // min q + 0.1d s.t. d >= 2.5, q >= d/2, q integer.
        let mut m = Model::new(Sense::Min);
        let q = m.add_int_var("q", 0.0, 10.0, 1.0);
        let d = m.add_var("d", 0.0, 10.0, 0.1);
        m.add_constraint([(d, 1.0)], Cmp::Ge, 2.5).unwrap();
        m.add_constraint([(q, 1.0), (d, -0.5)], Cmp::Ge, 0.0)
            .unwrap();
        let (s, _) = m.solve_ilp(BranchConfig::default()).unwrap();
        assert_close(s.value(q), 2.0);
        assert_close(s.value(d), 2.5);
    }

    #[test]
    fn infeasible_integrality() {
        // 2q == 3 has no integer solution.
        let mut m = Model::new(Sense::Min);
        let q = m.add_int_var("q", 0.0, 10.0, 1.0);
        m.add_constraint([(q, 2.0)], Cmp::Eq, 3.0).unwrap();
        assert_eq!(
            m.solve_ilp(BranchConfig::default()),
            Err(LpError::Infeasible)
        );
    }

    #[test]
    fn node_limit_respected() {
        let mut m = Model::new(Sense::Min);
        let q = m.add_int_var("q", 0.0, 1000.0, 1.0);
        m.add_constraint([(q, 3.0)], Cmp::Ge, 7.0).unwrap();
        let cfg = BranchConfig {
            max_nodes: 1,
            ..BranchConfig::default()
        };
        // One node solves the relaxation (fractional), finds no incumbent.
        assert_eq!(m.solve_ilp(cfg), Err(LpError::NodeLimit));
    }

    #[test]
    fn ilp_never_beats_lp_bound() {
        // Gap direction sanity: for minimisation ILP optimum >= LP optimum.
        let mut m = Model::new(Sense::Min);
        let q1 = m.add_int_var("q1", 0.0, 50.0, 1.0);
        let q2 = m.add_int_var("q2", 0.0, 50.0, 1.0);
        m.add_constraint([(q1, 2.0), (q2, 1.0)], Cmp::Ge, 5.5)
            .unwrap();
        m.add_constraint([(q1, 1.0), (q2, 3.0)], Cmp::Ge, 7.3)
            .unwrap();
        let lp = m.solve_lp().unwrap();
        let (ilp, _) = m.solve_ilp(BranchConfig::default()).unwrap();
        assert!(ilp.objective() >= lp.objective() - 1e-9);
        for v in m.integer_vars() {
            let x = ilp.value(v);
            assert!((x - x.round()).abs() < 1e-6);
        }
    }
}
