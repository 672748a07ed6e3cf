//! Two-phase primal simplex on a dense tableau.
//!
//! The tableau is stored dense and row-major, but the kernel touches only
//! nonzeros: a pivot gathers the nonzeros of the pivot column once (the
//! ratio test and the elimination share that gather) and the nonzeros of
//! the scaled pivot row, then updates only those columns of the rows with a
//! nonzero factor, and of the cost row. One pivot costs
//! O(nnz(pivot row) × nnz(pivot column)) plus O(rows + cols) scans: the
//! column gather, the pivot row and Dantzig pricing over the cost row. The
//! engine's blocks stay sparse under fill-in (DESIGN.md §8), so this is far
//! below the O(rows × cols) of a dense sweep, and it makes exactly the
//! floating-point operations a dense sweep makes on nonzeros, so the pivot
//! sequence is the dense kernel's. Anti-cycling falls back to Bland's rule
//! once the pivot count passes a degeneracy threshold.
//!
//! Standard-form conversion:
//!
//! * variables are shifted by their lower bound so every variable is `≥ 0`;
//! * finite upper bounds become explicit `≤` rows;
//! * `≤` rows gain a slack, `≥` rows a surplus, and any row without a ready
//!   basic column gains a phase-1 artificial variable.

use crate::model::{Cmp, Model, Sense};
use crate::solution::{LpError, Solution, SolveStats};
use std::time::{Duration, Instant};

/// Tuning knobs for the simplex solver.
#[derive(Debug, Clone, Copy)]
pub struct SimplexOptions {
    /// Hard pivot limit across both phases; `0` means automatic
    /// (`200 · (rows + cols) + 10_000`).
    pub max_pivots: usize,
    /// Feasibility / optimality tolerance.
    pub tolerance: f64,
    /// Pivot count after which pricing switches from Dantzig to Bland's
    /// rule; `0` means automatic (`20 · rows + 200`).
    pub bland_after: usize,
}

impl Default for SimplexOptions {
    fn default() -> Self {
        SimplexOptions {
            max_pivots: 0,
            tolerance: 1e-9,
            bland_after: 0,
        }
    }
}

/// Internal dense tableau.
struct Tableau {
    /// rows × (cols + 1); last column is the RHS.
    a: Vec<f64>,
    rows: usize,
    cols: usize,
    /// basis[row] = column currently basic in that row.
    basis: Vec<usize>,
    /// cost row (reduced costs), length cols + 1; last entry is -objective.
    cost: Vec<f64>,
}

impl Tableau {
    #[inline]
    fn at(&self, r: usize, c: usize) -> f64 {
        self.a[r * (self.cols + 1) + c]
    }

    #[inline]
    fn rhs(&self, r: usize) -> f64 {
        self.at(r, self.cols)
    }

    /// Chooses the entering column: Dantzig (most negative reduced cost)
    /// or Bland (first negative) depending on `bland`.
    fn entering(&self, tol: f64, bland: bool, allowed: usize) -> Option<usize> {
        if bland {
            (0..allowed).find(|&c| self.cost[c] < -tol)
        } else {
            let mut best = None;
            let mut best_val = -tol;
            for c in 0..allowed {
                if self.cost[c] < best_val {
                    best_val = self.cost[c];
                    best = Some(c);
                }
            }
            best
        }
    }
}

/// The two tableau operations of a simplex iteration. The solver runs
/// [`Sparse`]; the tests run the dense reference kernel beside it and
/// compare the two after every pivot.
trait Kernel {
    /// Ratio test on entering column `col`: the row minimising
    /// rhs / a[r][col] over entries above `tol`, ties broken by smallest
    /// basis column (lexicographic, for Bland compatibility); `None` when
    /// no entry is above `tol` (unbounded).
    fn leaving(&mut self, t: &Tableau, col: usize, tol: f64) -> Option<usize>;

    /// Pivots on (row, col): the row is scaled so the pivot becomes 1,
    /// then `col` is eliminated from every other row and the cost row.
    fn pivot(&mut self, t: &mut Tableau, prow: usize, pcol: usize);
}

/// The solver's kernel: it visits only the nonzeros of the pivot row and
/// the pivot column. Skipping a zero skips `x -= f · 0`, which leaves `x`
/// unchanged up to the sign of a zero, so the reduced costs, the right-hand
/// sides and the pivot sequence are those of a dense sweep.
#[derive(Default)]
struct Sparse {
    /// `(row, value)` of each nonzero of column `column_of`, in row order.
    /// Gathered once by the ratio test and reused by the elimination.
    column: Vec<(usize, f64)>,
    column_of: Option<usize>,
    /// `(col, value)` of each nonzero of the scaled pivot row.
    row: Vec<(usize, f64)>,
}

impl Sparse {
    fn gather(&mut self, t: &Tableau, col: usize) {
        self.column.clear();
        let w = t.cols + 1;
        for (r, &v) in t.a[col..].iter().step_by(w).enumerate() {
            if v != 0.0 {
                self.column.push((r, v));
            }
        }
        self.column_of = Some(col);
    }
}

impl Kernel for Sparse {
    fn leaving(&mut self, t: &Tableau, col: usize, tol: f64) -> Option<usize> {
        self.gather(t, col);
        let mut best: Option<(usize, f64)> = None;
        for &(r, a) in &self.column {
            if a > tol {
                let ratio = t.rhs(r) / a;
                match best {
                    None => best = Some((r, ratio)),
                    Some((br, bratio)) => {
                        if ratio < bratio - tol
                            || ((ratio - bratio).abs() <= tol && t.basis[r] < t.basis[br])
                        {
                            best = Some((r, ratio));
                        }
                    }
                }
            }
        }
        best.map(|(r, _)| r)
    }

    fn pivot(&mut self, t: &mut Tableau, prow: usize, pcol: usize) {
        if self.column_of != Some(pcol) {
            self.gather(t, pcol);
        }
        self.column_of = None;
        let w = t.cols + 1;
        let pval = t.at(prow, pcol);
        debug_assert!(pval.abs() > 1e-12, "pivot on (near-)zero element");
        let inv = 1.0 / pval;
        self.row.clear();
        for (c, x) in t.a[prow * w..(prow + 1) * w].iter_mut().enumerate() {
            if *x != 0.0 {
                *x *= inv;
                self.row.push((c, *x));
            }
        }
        for &(r, factor) in &self.column {
            if r == prow {
                continue;
            }
            let row = &mut t.a[r * w..(r + 1) * w];
            for &(c, p) in &self.row {
                row[c] -= factor * p;
            }
            row[pcol] = 0.0; // kill residual rounding noise
        }
        let cfac = t.cost[pcol];
        if cfac != 0.0 {
            for &(c, p) in &self.row {
                t.cost[c] -= cfac * p;
            }
            t.cost[pcol] = 0.0;
        }
        t.basis[prow] = pcol;
    }
}

/// Result of standard-form conversion: mapping info to reconstruct original
/// variable values.
struct StandardForm {
    tableau: Tableau,
    /// Number of structural (shifted original) columns.
    n_struct: usize,
    /// Lower bound shift per original variable.
    shifts: Vec<f64>,
    /// Original objective coefficients per structural column (in Min sense).
    obj: Vec<f64>,
    /// Sign flip applied to the objective (for Max problems).
    obj_flip: f64,
    /// First artificial column index (artificials occupy the tail).
    art_start: usize,
    /// Per model-constraint row: the column whose final reduced cost
    /// reveals the row's dual, and the multiplier converting it
    /// (`y_i = mult · cost[col]`). Only the first `constraints.len()` rows
    /// (bound rows appended afterwards are excluded).
    dual_probe: Vec<(usize, f64)>,
}

fn build_standard_form(model: &Model) -> StandardForm {
    let n_struct = model.vars.len();
    let shifts: Vec<f64> = model.vars.iter().map(|v| v.lower).collect();
    let obj_flip = match model.sense {
        Sense::Min => 1.0,
        Sense::Max => -1.0,
    };
    let obj: Vec<f64> = model.vars.iter().map(|v| v.obj * obj_flip).collect();

    // Gather rows: model constraints plus finite upper bounds.
    // Each row: (terms over structural cols, cmp, rhs) with rhs already
    // adjusted for shifts and expression constants.
    struct Row {
        terms: Vec<(usize, f64)>,
        cmp: Cmp,
        rhs: f64,
    }
    let mut rows: Vec<Row> = Vec::with_capacity(model.constraints.len());
    for c in &model.constraints {
        let norm = c.expr.normalized();
        let mut rhs = c.rhs - norm.constant_value();
        let mut terms = Vec::with_capacity(norm.terms().len());
        for &(v, coeff) in norm.terms() {
            rhs -= coeff * shifts[v.index()];
            terms.push((v.index(), coeff));
        }
        rows.push(Row {
            terms,
            cmp: c.cmp,
            rhs,
        });
    }
    for (i, v) in model.vars.iter().enumerate() {
        if v.upper.is_finite() && v.upper > v.lower {
            rows.push(Row {
                terms: vec![(i, 1.0)],
                cmp: Cmp::Le,
                rhs: v.upper - v.lower,
            });
        } else if v.upper == v.lower {
            rows.push(Row {
                terms: vec![(i, 1.0)],
                cmp: Cmp::Eq,
                rhs: 0.0,
            });
        }
    }

    let m = rows.len();
    // Count slack columns.
    let n_slack = rows
        .iter()
        .filter(|r| matches!(r.cmp, Cmp::Le | Cmp::Ge))
        .count();

    // Column layout: [structural | slacks | artificials]; artificials are
    // allocated lazily below.
    let mut slack_col = n_struct;
    let mut need_artificial = Vec::with_capacity(m);
    let cols_noart = n_struct + n_slack;

    // First pass to learn per-row slack column & whether artificial needed.
    struct RowMeta {
        slack: Option<(usize, f64)>, // (col, sign)
        negate: bool,
    }
    let mut metas = Vec::with_capacity(m);
    for r in &rows {
        let negate = r.rhs < 0.0;
        // After optional negation the cmp flips for Le/Ge.
        let eff_cmp = match (r.cmp, negate) {
            (Cmp::Le, true) => Cmp::Ge,
            (Cmp::Ge, true) => Cmp::Le,
            (c, _) => c,
        };
        let slack = match r.cmp {
            Cmp::Le | Cmp::Ge => {
                let col = slack_col;
                slack_col += 1;
                // Slack sign in the *original* row orientation.
                let sign = if r.cmp == Cmp::Le { 1.0 } else { -1.0 };
                Some((col, sign))
            }
            Cmp::Eq => None,
        };
        // A row provides its own basic column only when, after negation,
        // the slack coefficient is +1 (i.e. an effective Le row).
        let self_basic = matches!(eff_cmp, Cmp::Le) && slack.is_some();
        need_artificial.push(!self_basic);
        metas.push(RowMeta { slack, negate });
    }
    let n_art = need_artificial.iter().filter(|&&b| b).count();
    let cols = cols_noart + n_art;

    let w = cols + 1;
    let mut a = vec![0.0; m * w];
    // Phase-1 reduced costs: each artificial costs 1, and pricing out the
    // rows basic in an artificial subtracts them. Those rows are still as
    // built, so their nonzeros are known here; subtracting only those, in
    // row order, gives the dense sweep's values.
    let mut cost = vec![0.0; w];
    cost[cols_noart..cols].fill(1.0);
    let mut basis = vec![usize::MAX; m];
    let mut art_next = cols_noart;
    let n_model_rows = model.constraints.len();
    let mut dual_probe = Vec::with_capacity(n_model_rows);
    for (ri, (row, meta)) in rows.iter().zip(&metas).enumerate() {
        let sgn = if meta.negate { -1.0 } else { 1.0 };
        for &(ci, coeff) in &row.terms {
            a[ri * w + ci] += sgn * coeff;
        }
        if let Some((col, ssign)) = meta.slack {
            a[ri * w + col] = sgn * ssign;
        }
        a[ri * w + cols] = sgn * row.rhs;
        debug_assert!(a[ri * w + cols] >= -1e-12);
        let mut art_col = None;
        if need_artificial[ri] {
            a[ri * w + art_next] = 1.0;
            basis[ri] = art_next;
            art_col = Some(art_next);
            let built = row.terms.iter().map(|&(ci, _)| ci);
            for c in built
                .chain(meta.slack.map(|(col, _)| col))
                .chain([art_next, cols])
            {
                cost[c] -= a[ri * w + c];
            }
            art_next += 1;
        } else {
            let (col, _) = meta.slack.expect("self-basic rows have slacks");
            basis[ri] = col;
        }
        // Dual probe for model rows: the reduced cost of a column with a
        // single non-zero in this row reveals the dual. Slack columns have
        // tableau coefficient sgn·ssign; artificials have +1.
        if ri < n_model_rows {
            match (meta.slack, art_col) {
                (Some((col, ssign)), _) => dual_probe.push((col, -1.0 / ssign)),
                (None, Some(col)) => dual_probe.push((col, -sgn)),
                (None, None) => unreachable!("every row has a slack or an artificial"),
            }
        }
    }

    let tableau = Tableau {
        a,
        rows: m,
        cols,
        basis,
        cost,
    };
    StandardForm {
        tableau,
        n_struct,
        shifts,
        obj,
        obj_flip,
        art_start: cols_noart,
        dual_probe,
    }
}

impl Model {
    /// Solves the LP relaxation (integrality flags ignored) with default
    /// options.
    ///
    /// # Errors
    ///
    /// [`LpError::Infeasible`], [`LpError::Unbounded`] or
    /// [`LpError::IterationLimit`].
    pub fn solve_lp(&self) -> Result<Solution, LpError> {
        self.solve_lp_with(SimplexOptions::default())
    }

    /// Solves the LP relaxation with explicit solver options.
    ///
    /// # Errors
    ///
    /// [`LpError::Infeasible`], [`LpError::Unbounded`] or
    /// [`LpError::IterationLimit`].
    pub fn solve_lp_with(&self, opts: SimplexOptions) -> Result<Solution, LpError> {
        self.solve_with(opts, &mut Sparse::default())
    }

    fn solve_with(
        &self,
        opts: SimplexOptions,
        kernel: &mut impl Kernel,
    ) -> Result<Solution, LpError> {
        let start = Instant::now();
        let mut sf = build_standard_form(self);
        let build_elapsed = start.elapsed();
        let t = &mut sf.tableau;
        let tol = opts.tolerance;
        let max_pivots = if opts.max_pivots == 0 {
            200 * (t.rows + t.cols) + 10_000
        } else {
            opts.max_pivots
        };
        let bland_after = if opts.bland_after == 0 {
            20 * t.rows + 200
        } else {
            opts.bland_after
        };
        let mut pivots = 0usize;

        // ---- Phase 1: minimise the sum of artificials. ----
        let has_artificials = t.cols > sf.art_start;
        let mut phase1_pivots = 0usize;
        let mut phase1_elapsed = Duration::ZERO;
        if has_artificials {
            let phase1_start = Instant::now();
            // The build left the phase-1 reduced costs in `t.cost`.
            run_phase(t, kernel, tol, max_pivots, bland_after, &mut pivots, t.cols)?;
            phase1_pivots = pivots;
            let phase1_obj = -t.cost[t.cols];
            if phase1_obj > 1e-7 {
                return Err(LpError::Infeasible);
            }
            // Drive artificials out of the basis where possible.
            for r in 0..t.rows {
                if t.basis[r] >= sf.art_start {
                    let piv = (0..sf.art_start).find(|&c| t.at(r, c).abs() > 1e-7);
                    if let Some(c) = piv {
                        kernel.pivot(t, r, c);
                        pivots += 1;
                    }
                    // Rows still basic in an artificial are redundant
                    // (zero row); leaving them is harmless because the
                    // artificial stays at value ~0 and phase 2 restricts
                    // entering columns to non-artificials.
                }
            }
            phase1_elapsed = phase1_start.elapsed();
        }

        // ---- Phase 2: original objective. ----
        let w = t.cols + 1;
        let mut cost = vec![0.0; w];
        cost[..sf.n_struct].copy_from_slice(&sf.obj);
        // Price out the current basis.
        for r in 0..t.rows {
            let b = t.basis[r];
            let cb = if b < sf.n_struct { sf.obj[b] } else { 0.0 };
            if cb != 0.0 {
                #[allow(clippy::needless_range_loop)] // cost[c] -= c_B * A[r][c]
                for c in 0..w {
                    cost[c] -= cb * t.at(r, c);
                }
            }
        }
        t.cost = cost;
        run_phase(
            t,
            kernel,
            tol,
            max_pivots,
            bland_after,
            &mut pivots,
            sf.art_start,
        )?;

        // Extract solution.
        let mut x = sf.shifts.clone();
        for r in 0..t.rows {
            let b = t.basis[r];
            if b < sf.n_struct {
                x[b] += t.rhs(r);
            }
        }
        let objective = self.objective_of(&x);
        let _ = sf.obj_flip; // direction already folded into sf.obj
                             // Dual extraction: each model row's multiplier from the final
                             // reduced cost of its probe column (see StandardForm::dual_probe).
                             // Duals are reported for the min-oriented problem; for Max models
                             // callers negate.
        let duals: Vec<f64> = sf
            .dual_probe
            .iter()
            .map(|&(col, mult)| mult * t.cost[col])
            .collect();
        let stats = SolveStats {
            pivots,
            phase1_pivots,
            elapsed: start.elapsed(),
            build_elapsed,
            phase1_elapsed,
        };
        let mut sol = Solution::new(x, objective, stats);
        sol.set_duals(duals);
        Ok(sol)
    }
}

/// Runs simplex iterations until optimality, unboundedness or limits.
/// `allowed` restricts entering columns to indices `< allowed` (used to
/// forbid artificials in phase 2).
fn run_phase(
    t: &mut Tableau,
    kernel: &mut impl Kernel,
    tol: f64,
    max_pivots: usize,
    bland_after: usize,
    pivots: &mut usize,
    allowed: usize,
) -> Result<(), LpError> {
    loop {
        if *pivots >= max_pivots {
            return Err(LpError::IterationLimit);
        }
        let bland = *pivots >= bland_after;
        let Some(col) = t.entering(tol, bland, allowed) else {
            return Ok(()); // optimal
        };
        let Some(row) = kernel.leaving(t, col, tol) else {
            return Err(LpError::Unbounded);
        };
        kernel.pivot(t, row, col);
        *pivots += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Cmp, Model, Sense, Var};
    use apple_rng::{Rng, SeedableRng, StdRng};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn trivial_min_at_bounds() {
        // min x, 0 <= x <= 5: optimum 0 without any constraint rows.
        let mut m = Model::new(Sense::Min);
        let _x = m.add_var("x", 0.0, 5.0, 1.0);
        let s = m.solve_lp().unwrap();
        assert_close(s.objective(), 0.0);
    }

    #[test]
    fn basic_max_problem() {
        // max 3x + 2y s.t. x + y <= 4, x + 3y <= 6, x,y >= 0 → (4,0), obj 12.
        let mut m = Model::new(Sense::Max);
        let x = m.add_var("x", 0.0, f64::INFINITY, 3.0);
        let y = m.add_var("y", 0.0, f64::INFINITY, 2.0);
        m.add_constraint([(x, 1.0), (y, 1.0)], Cmp::Le, 4.0)
            .unwrap();
        m.add_constraint([(x, 1.0), (y, 3.0)], Cmp::Le, 6.0)
            .unwrap();
        let s = m.solve_lp().unwrap();
        assert_close(s.objective(), 12.0);
        assert_close(s.value(x), 4.0);
        assert_close(s.value(y), 0.0);
    }

    #[test]
    fn ge_constraints_need_phase1() {
        // min 2x + 3y s.t. x + y >= 10, x >= 2 → x=10? obj: min 2x+3y with
        // y=0, x=10 → 20.
        let mut m = Model::new(Sense::Min);
        let x = m.add_var("x", 2.0, f64::INFINITY, 2.0);
        let y = m.add_var("y", 0.0, f64::INFINITY, 3.0);
        m.add_constraint([(x, 1.0), (y, 1.0)], Cmp::Ge, 10.0)
            .unwrap();
        let s = m.solve_lp().unwrap();
        assert_close(s.objective(), 20.0);
        assert_close(s.value(x), 10.0);
    }

    #[test]
    fn build_and_phase1_are_timed_apart() {
        let s = engine_shaped(0x5a11_0001, 12).solve_lp().unwrap();
        let st = s.stats();
        assert!(st.phase1_pivots > 0, "coverage rows need artificials");
        assert!(st.build_elapsed > Duration::ZERO);
        assert!(st.phase1_elapsed > Duration::ZERO);
        assert!(st.build_elapsed + st.phase1_elapsed <= st.elapsed);
    }

    #[test]
    fn equality_constraints() {
        // min x + y s.t. x + 2y == 4, x - y == 1 → y=1, x=2, obj 3.
        let mut m = Model::new(Sense::Min);
        let x = m.add_var("x", 0.0, f64::INFINITY, 1.0);
        let y = m.add_var("y", 0.0, f64::INFINITY, 1.0);
        m.add_constraint([(x, 1.0), (y, 2.0)], Cmp::Eq, 4.0)
            .unwrap();
        m.add_constraint([(x, 1.0), (y, -1.0)], Cmp::Eq, 1.0)
            .unwrap();
        let s = m.solve_lp().unwrap();
        assert_close(s.value(x), 2.0);
        assert_close(s.value(y), 1.0);
        assert_close(s.objective(), 3.0);
    }

    #[test]
    fn infeasible_detected() {
        let mut m = Model::new(Sense::Min);
        let x = m.add_var("x", 0.0, 1.0, 1.0);
        m.add_constraint([(x, 1.0)], Cmp::Ge, 5.0).unwrap();
        assert_eq!(m.solve_lp(), Err(LpError::Infeasible));
    }

    #[test]
    fn unbounded_detected() {
        let mut m = Model::new(Sense::Max);
        let x = m.add_var("x", 0.0, f64::INFINITY, 1.0);
        m.add_constraint([(x, 1.0)], Cmp::Ge, 1.0).unwrap();
        assert_eq!(m.solve_lp(), Err(LpError::Unbounded));
    }

    #[test]
    fn negative_rhs_handled() {
        // x - y <= -2 with min x, y <= 3 → x >= y - ... : feasible needs
        // y >= x + 2; min x = 0 with y in [2,3].
        let mut m = Model::new(Sense::Min);
        let x = m.add_var("x", 0.0, f64::INFINITY, 1.0);
        let y = m.add_var("y", 0.0, 3.0, 0.0);
        m.add_constraint([(x, 1.0), (y, -1.0)], Cmp::Le, -2.0)
            .unwrap();
        let s = m.solve_lp().unwrap();
        assert_close(s.value(x), 0.0);
        assert!(s.value(y) >= 2.0 - 1e-7);
    }

    #[test]
    fn shifted_lower_bounds() {
        // min x + y with x >= 3, y >= 4, x + y >= 10 → obj 10.
        let mut m = Model::new(Sense::Min);
        let x = m.add_var("x", 3.0, f64::INFINITY, 1.0);
        let y = m.add_var("y", 4.0, f64::INFINITY, 1.0);
        m.add_constraint([(x, 1.0), (y, 1.0)], Cmp::Ge, 10.0)
            .unwrap();
        let s = m.solve_lp().unwrap();
        assert_close(s.objective(), 10.0);
        assert!(m.max_violation(s.values()) < 1e-7);
    }

    #[test]
    fn fixed_variable() {
        let mut m = Model::new(Sense::Min);
        let x = m.add_var("x", 2.5, 2.5, 1.0);
        let y = m.add_var("y", 0.0, f64::INFINITY, 1.0);
        m.add_constraint([(x, 1.0), (y, 1.0)], Cmp::Ge, 4.0)
            .unwrap();
        let s = m.solve_lp().unwrap();
        assert_close(s.value(x), 2.5);
        assert_close(s.value(y), 1.5);
    }

    /// Beale's cycling example: degenerate at the origin, so Dantzig
    /// pricing alone cycles and the Bland fallback must end it.
    fn beale() -> Model {
        let mut m = Model::new(Sense::Min);
        let x1 = m.add_var("x1", 0.0, f64::INFINITY, -0.75);
        let x2 = m.add_var("x2", 0.0, f64::INFINITY, 150.0);
        let x3 = m.add_var("x3", 0.0, f64::INFINITY, -0.02);
        let x4 = m.add_var("x4", 0.0, f64::INFINITY, 6.0);
        m.add_constraint(
            [(x1, 0.25), (x2, -60.0), (x3, -0.04), (x4, 9.0)],
            Cmp::Le,
            0.0,
        )
        .unwrap();
        m.add_constraint(
            [(x1, 0.5), (x2, -90.0), (x3, -0.02), (x4, 3.0)],
            Cmp::Le,
            0.0,
        )
        .unwrap();
        m.add_constraint([(x3, 1.0)], Cmp::Le, 1.0).unwrap();
        m
    }

    /// `x + y == 2` stated twice: one artificial stays basic in a zero row.
    fn redundant_equalities() -> Model {
        let mut m = Model::new(Sense::Min);
        let x = m.add_var("x", 0.0, f64::INFINITY, 1.0);
        let y = m.add_var("y", 0.0, f64::INFINITY, 2.0);
        m.add_constraint([(x, 1.0), (y, 1.0)], Cmp::Eq, 2.0)
            .unwrap();
        m.add_constraint([(x, 1.0), (y, 1.0)], Cmp::Eq, 2.0)
            .unwrap();
        m
    }

    #[test]
    fn degenerate_problem_terminates() {
        let s = beale().solve_lp().unwrap();
        assert_close(s.objective(), -0.05);
    }

    #[test]
    fn redundant_equalities_ok() {
        // The redundant row must not break phase 1.
        let s = redundant_equalities().solve_lp().unwrap();
        assert_close(s.objective(), 2.0);
        assert_close(s.values()[0], 2.0);
    }

    #[test]
    fn duals_satisfy_strong_duality_on_covering_lp() {
        // min x + 2y s.t. x + y >= 3 → x=3, y=0, dual y1 = 1 (binding),
        // objective = y·b = 3.
        let mut m = Model::new(Sense::Min);
        let x = m.add_var("x", 0.0, f64::INFINITY, 1.0);
        let y = m.add_var("y", 0.0, f64::INFINITY, 2.0);
        m.add_constraint([(x, 1.0), (y, 1.0)], Cmp::Ge, 3.0)
            .unwrap();
        let s = m.solve_lp().unwrap();
        let duals = s.duals().expect("simplex solutions carry duals");
        assert_eq!(duals.len(), 1);
        assert_close(duals[0], 1.0);
        assert_close(duals[0] * 3.0, s.objective());
    }

    #[test]
    fn duals_zero_for_slack_constraints() {
        // min x s.t. x >= 1 (binding), x + 0y <= 100 (slack).
        let mut m = Model::new(Sense::Min);
        let x = m.add_var("x", 0.0, f64::INFINITY, 1.0);
        m.add_constraint([(x, 1.0)], Cmp::Ge, 1.0).unwrap();
        m.add_constraint([(x, 1.0)], Cmp::Le, 100.0).unwrap();
        let s = m.solve_lp().unwrap();
        let duals = s.duals().unwrap();
        assert_close(duals[0], 1.0);
        assert_close(duals[1], 0.0); // complementary slackness
    }

    #[test]
    fn duals_for_equality_rows() {
        // min x + y s.t. x + y == 2 → binding equality with dual 1.
        let mut m = Model::new(Sense::Min);
        let x = m.add_var("x", 0.0, f64::INFINITY, 1.0);
        let y = m.add_var("y", 0.0, f64::INFINITY, 1.0);
        m.add_constraint([(x, 1.0), (y, 1.0)], Cmp::Eq, 2.0)
            .unwrap();
        let s = m.solve_lp().unwrap();
        let duals = s.duals().unwrap();
        assert_close(duals[0] * 2.0, s.objective());
    }

    #[test]
    fn duals_predict_objective_sensitivity() {
        // Perturb a binding RHS by eps; the objective must move by y·eps.
        let build = |rhs: f64| {
            let mut m = Model::new(Sense::Min);
            let x = m.add_var("x", 0.0, f64::INFINITY, 2.0);
            let y = m.add_var("y", 0.0, f64::INFINITY, 3.0);
            m.add_constraint([(x, 1.0), (y, 1.0)], Cmp::Ge, rhs)
                .unwrap();
            m.add_constraint([(x, 1.0), (y, 2.0)], Cmp::Ge, 6.0)
                .unwrap();
            m
        };
        let base = build(5.0).solve_lp().unwrap();
        let dual = base.duals().unwrap()[0];
        let bumped = build(5.5).solve_lp().unwrap();
        assert_close(bumped.objective() - base.objective(), dual * 0.5);
    }

    #[test]
    fn solution_is_feasible_property() {
        // Deterministic pseudo-random LPs: whatever comes back must satisfy
        // all constraints to tolerance.
        let mut state = 42u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64 / 2.0)
        };
        for trial in 0..20 {
            let mut m = Model::new(Sense::Min);
            let n = 3 + (trial % 4);
            let vars: Vec<_> = (0..n)
                .map(|i| m.add_var(format!("x{i}"), 0.0, 10.0, next()))
                .collect();
            for _ in 0..n {
                let terms: Vec<_> = vars.iter().map(|&v| (v, next())).collect();
                m.add_constraint(terms, Cmp::Ge, next() * 3.0).unwrap();
            }
            match m.solve_lp() {
                Ok(s) => assert!(
                    m.max_violation(s.values()) < 1e-6,
                    "trial {trial}: violation {}",
                    m.max_violation(s.values())
                ),
                Err(LpError::Infeasible) => {}
                Err(e) => panic!("trial {trial}: unexpected {e}"),
            }
        }
    }

    /// The dense kernel the solver ran before [`Sparse`]: every pivot
    /// sweeps every column of every row with a nonzero factor, and the
    /// ratio test scans every row. Kept as the reference [`Sparse`] must
    /// match bit for bit.
    struct Dense;

    impl Kernel for Dense {
        fn leaving(&mut self, t: &Tableau, col: usize, tol: f64) -> Option<usize> {
            let mut best: Option<(usize, f64)> = None;
            for r in 0..t.rows {
                let a = t.at(r, col);
                if a > tol {
                    let ratio = t.rhs(r) / a;
                    match best {
                        None => best = Some((r, ratio)),
                        Some((br, bratio)) => {
                            if ratio < bratio - tol
                                || ((ratio - bratio).abs() <= tol && t.basis[r] < t.basis[br])
                            {
                                best = Some((r, ratio));
                            }
                        }
                    }
                }
            }
            best.map(|(r, _)| r)
        }

        fn pivot(&mut self, t: &mut Tableau, prow: usize, pcol: usize) {
            let w = t.cols + 1;
            let pval = t.at(prow, pcol);
            let inv = 1.0 / pval;
            for x in &mut t.a[prow * w..(prow + 1) * w] {
                *x *= inv;
            }
            let prow_copy: Vec<f64> = t.a[prow * w..(prow + 1) * w].to_vec();
            for r in 0..t.rows {
                if r == prow {
                    continue;
                }
                let factor = t.at(r, pcol);
                if factor != 0.0 {
                    let row = &mut t.a[r * w..(r + 1) * w];
                    for (x, p) in row.iter_mut().zip(&prow_copy) {
                        *x -= factor * p;
                    }
                    row[pcol] = 0.0;
                }
            }
            let cfac = t.cost[pcol];
            if cfac != 0.0 {
                for (x, p) in t.cost.iter_mut().zip(&prow_copy) {
                    *x -= cfac * p;
                }
                t.cost[pcol] = 0.0;
            }
            t.basis[prow] = pcol;
        }
    }

    /// The bits of `x`, with both zeros mapped to one value: skipping
    /// `x -= f · 0` may keep a zero whose sign the dense sweep flips.
    fn bits(x: f64) -> u64 {
        if x == 0.0 {
            0
        } else {
            x.to_bits()
        }
    }

    /// The basis, the cost row and the RHS column after one pivot.
    #[derive(Debug, PartialEq)]
    struct Snapshot {
        basis: Vec<usize>,
        cost: Vec<u64>,
        rhs: Vec<u64>,
    }

    /// Runs `K` and snapshots the tableau after every pivot.
    struct Traced<K> {
        kernel: K,
        after: Vec<Snapshot>,
    }

    impl<K: Kernel> Kernel for Traced<K> {
        fn leaving(&mut self, t: &Tableau, col: usize, tol: f64) -> Option<usize> {
            self.kernel.leaving(t, col, tol)
        }

        fn pivot(&mut self, t: &mut Tableau, prow: usize, pcol: usize) {
            self.kernel.pivot(t, prow, pcol);
            self.after.push(Snapshot {
                basis: t.basis.clone(),
                cost: t.cost.iter().map(|&x| bits(x)).collect(),
                rhs: (0..t.rows).map(|r| bits(t.rhs(r))).collect(),
            });
        }
    }

    /// Solves `model` with [`Sparse`] and with [`Dense`] and asserts that
    /// every pivot leaves the same basis, cost row and RHS column, and that
    /// both end with the same values, duals and pivot counts.
    fn assert_kernels_agree(model: &Model, opts: SimplexOptions) {
        let mut sparse = Traced {
            kernel: Sparse::default(),
            after: Vec::new(),
        };
        let mut dense = Traced {
            kernel: Dense,
            after: Vec::new(),
        };
        let got = model.solve_with(opts, &mut sparse);
        let want = model.solve_with(opts, &mut dense);
        for (i, (g, w)) in sparse.after.iter().zip(&dense.after).enumerate() {
            assert_eq!(g.basis, w.basis, "basis after pivot {i}");
            assert!(g.cost == w.cost, "cost row after pivot {i}");
            assert!(g.rhs == w.rhs, "RHS column after pivot {i}");
        }
        assert_eq!(sparse.after.len(), dense.after.len(), "pivots made");
        let (got, want) = match (got, want) {
            (Ok(g), Ok(w)) => (g, w),
            (g, w) => {
                assert_eq!(g.err(), w.err());
                return;
            }
        };
        let all_bits = |v: &[f64]| v.iter().map(|&x| bits(x)).collect::<Vec<_>>();
        assert_eq!(all_bits(got.values()), all_bits(want.values()), "x");
        assert_eq!(
            all_bits(got.duals().unwrap()),
            all_bits(want.duals().unwrap()),
            "duals"
        );
        assert_eq!(got.stats().pivots, want.stats().pivots);
        assert_eq!(got.stats().phase1_pivots, want.stats().phase1_pivots);
    }

    /// A placement LP shaped like one of the engine's blocks (Eq. (3)-(5)
    /// and (8) with the instance counts fixed): per class a path of
    /// switches and a chain of NFs, `d ∈ [0, 1]` priced by switch, NF and
    /// rate, chain-order prefix rows `≥ 0`, coverage equalities `= 1` and
    /// one capacity row `≤` per (switch, NF).
    fn engine_shaped(seed: u64, classes: usize) -> Model {
        const SWITCHES: usize = 12;
        const NFS: usize = 4;
        let mut rng = StdRng::seed_from_u64(seed);
        let price: Vec<f64> = (0..SWITCHES * NFS)
            .map(|_| rng.gen_range(1.0..3.0))
            .collect();
        let mut m = Model::new(Sense::Min);
        let mut load: Vec<Vec<(Var, f64)>> = vec![Vec::new(); SWITCHES * NFS];
        for h in 0..classes {
            let first = rng.gen_range(0..SWITCHES);
            let path: Vec<usize> = (0..rng.gen_range(3usize..7))
                .map(|i| (first + i) % SWITCHES)
                .collect();
            let head = rng.gen_range(0..NFS);
            let chain: Vec<usize> = (0..rng.gen_range(2usize..4))
                .map(|j| (head + j) % NFS)
                .collect();
            let rate = rng.gen_range(50.0..400.0);
            let d: Vec<Vec<Var>> = path
                .iter()
                .enumerate()
                .map(|(i, &v)| {
                    chain
                        .iter()
                        .enumerate()
                        .map(|(j, &n)| {
                            let cost = price[v * NFS + n] * rate;
                            let var = m.add_var(format!("d_{h}_{i}_{j}"), 0.0, 1.0, cost);
                            load[v * NFS + n].push((var, rate));
                            var
                        })
                        .collect()
                })
                .collect();
            for j in 1..chain.len() {
                for i in 0..path.len() {
                    let prefix: Vec<_> = (0..=i)
                        .flat_map(|i2| [(d[i2][j - 1], 1.0), (d[i2][j], -1.0)])
                        .collect();
                    m.add_constraint(prefix, Cmp::Ge, 0.0).unwrap();
                }
            }
            for j in 0..chain.len() {
                let cover: Vec<_> = d.iter().map(|row| (row[j], 1.0)).collect();
                m.add_constraint(cover, Cmp::Eq, 1.0).unwrap();
            }
        }
        for terms in load.into_iter().filter(|t| !t.is_empty()) {
            let cap = rng.gen_range(600.0..1200.0);
            m.add_constraint(terms, Cmp::Le, cap).unwrap();
        }
        m
    }

    #[test]
    fn build_prices_phase1_like_a_dense_sweep() {
        for model in [redundant_equalities(), engine_shaped(0x5a11_0001, 36)] {
            let sf = build_standard_form(&model);
            let t = &sf.tableau;
            let mut cost = vec![0.0; t.cols + 1];
            cost[sf.art_start..t.cols].fill(1.0);
            for r in (0..t.rows).filter(|&r| t.basis[r] >= sf.art_start) {
                for (c, x) in cost.iter_mut().enumerate() {
                    *x -= t.at(r, c);
                }
            }
            let all_bits = |v: &[f64]| v.iter().map(|&x| bits(x)).collect::<Vec<_>>();
            assert_eq!(all_bits(&t.cost), all_bits(&cost));
        }
    }

    #[test]
    fn sparse_kernel_matches_dense_reference_bit_for_bit() {
        let exact = SimplexOptions::default();
        // A coarse tolerance turns close ratios into ties that the ratio
        // test settles in the order it visits the rows, so this run also
        // pins that order.
        let coarse = SimplexOptions {
            tolerance: 1e-2,
            ..exact
        };
        for model in [beale(), redundant_equalities()] {
            assert_kernels_agree(&model, exact);
        }
        for seed in [0x5a11_0001, 0x5a11_0002] {
            let model = engine_shaped(seed, 36);
            assert!(model.stats().rows >= 300, "an engine-sized block");
            assert_kernels_agree(&model, exact);
        }
        assert_kernels_agree(&engine_shaped(0x5a11_0002, 36), coarse);
    }
}
