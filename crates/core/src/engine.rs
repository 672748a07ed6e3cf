//! The Optimization Engine (§IV): traffic-aware VNF placement.
//!
//! Builds the ILP of Eq. (1)–(8) over equivalence classes:
//!
//! * decision variable `d[h][i][j]` — portion of class `h` processed at the
//!   `i`-th switch of its path for the `j`-th NF of its chain,
//! * decision variable `q[v][n]` — number of instances of NF `n` attached
//!   to switch `v`,
//! * objective: minimise `Σ q` (total instances ≈ hardware/power),
//! * Eq. (2)/(3): the cumulative portion `σ` of stage `j−1` dominates stage
//!   `j` at every path position — chain order is preserved,
//! * Eq. (4): every stage processes 100 % of the class by the end of the
//!   path,
//! * Eq. (5): per-(switch, NF) capacity: offered rate ≤ `Cap_n · q[v][n]`,
//! * Eq. (6): per-host resources: `Σ R_n · q[v][n] ≤ A_v`.
//!
//! Like the paper we solve the **LP relaxation** and round; the rounding
//! (ceil of `q`, with a resource-repair re-solve) is validated by the test
//! suite against the branch-and-bound optimum of the integer model
//! ([`OptimizationEngine::ilp_model`]) on small instances.

use crate::classes::{ClassSet, EquivalenceClass};
use crate::orchestrator::ResourceOrchestrator;
use apple_lp::decompose::DecomposedStats;
use apple_lp::{
    solve_decomposed, Cmp, LpError, Model, Sense, SimplexOptions, Solution, Var, WarmCache,
};
use apple_nf::{NfType, VnfSpec};
use apple_telemetry::{Recorder, RecorderExt, NOOP};
use apple_topology::NodeId;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::time::{Duration, Instant};

/// Errors produced by the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// There were no classes to place for — nothing to optimise.
    NoClasses,
    /// The placement problem is infeasible (not enough host resources or
    /// VNF capacity for the offered load).
    Infeasible,
    /// The LP solver failed for another reason.
    Solver(LpError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::NoClasses => write!(f, "no traffic classes to place VNFs for"),
            EngineError::Infeasible => {
                write!(
                    f,
                    "placement infeasible: insufficient host resources or capacity"
                )
            }
            EngineError::Solver(e) => write!(f, "LP solver error: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<LpError> for EngineError {
    fn from(e: LpError) -> Self {
        match e {
            LpError::Infeasible => EngineError::Infeasible,
            other => EngineError::Solver(other),
        }
    }
}

/// Engine configuration. It has no settable values: the engine always
/// solves the LP relaxation and rounds it (DESIGN.md §8), and the exact
/// integer optimum is a test oracle over [`OptimizationEngine::ilp_model`].
/// The type stays because `AppleConfig::engine`, [`OptimizationEngine::new`]
/// and `Replanner::new` take it (ROADMAP item 9(a)).
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {}

/// Rounding-repair re-solves [`OptimizationEngine::place`] tries when the
/// ceiled counts overshoot a host, before it reports
/// [`EngineError::Infeasible`].
const MAX_REPAIR_ROUNDS: usize = 32;

/// Result of a placement run.
#[derive(Debug, Clone)]
pub struct Placement {
    /// `q[v][n]`: instance counts per (switch, NF).
    q: BTreeMap<(usize, NfType), u32>,
    /// `d[h][i][j]`: fraction of class `h` processed at path position `i`
    /// for chain stage `j`. Keys are `(class, i, j)`; zero entries omitted.
    d: BTreeMap<(usize, usize, usize), f64>,
    /// Objective value (total instances) after rounding.
    total_instances: u32,
    /// LP-relaxation objective (lower bound before rounding).
    lp_objective: f64,
    /// Wall-clock solve time (LP builds + solves + rounding).
    solve_time: Duration,
    /// Simplex pivots in the main solve.
    pivots: usize,
}

impl Placement {
    /// Instance count for (switch, NF).
    pub fn q(&self, v: NodeId, n: NfType) -> u32 {
        self.q.get(&(v.0, n)).copied().unwrap_or(0)
    }

    /// All non-zero (switch, NF) → count entries.
    pub fn q_entries(&self) -> impl Iterator<Item = (NodeId, NfType, u32)> + '_ {
        self.q
            .iter()
            .filter(|(_, &c)| c > 0)
            .map(|(&(v, n), &c)| (NodeId(v), n, c))
    }

    /// Fraction of class `h` processed at path position `i`, chain stage
    /// `j`.
    pub fn d(&self, class: usize, i: usize, j: usize) -> f64 {
        self.d.get(&(class, i, j)).copied().unwrap_or(0.0)
    }

    /// Total VNF instances placed — the paper's objective (Eq. 1).
    pub fn total_instances(&self) -> u32 {
        self.total_instances
    }

    /// The LP-relaxation lower bound.
    pub fn lp_objective(&self) -> f64 {
        self.lp_objective
    }

    /// Rounding gap: `total_instances − lp_objective` (≥ 0).
    pub fn rounding_gap(&self) -> f64 {
        f64::from(self.total_instances) - self.lp_objective
    }

    /// Wall-clock solve time — the Table V metric.
    pub fn solve_time(&self) -> Duration {
        self.solve_time
    }

    /// Simplex pivots of the main solve.
    pub fn pivots(&self) -> usize {
        self.pivots
    }

    /// Total CPU cores the placement consumes (Fig. 11 metric).
    pub fn total_cores(&self) -> u32 {
        self.q
            .iter()
            .map(|(&(_, n), &c)| VnfSpec::of(n).cores * c)
            .sum()
    }
}

/// The Optimization Engine.
///
/// # Example
///
/// ```
/// use apple_core::classes::{ClassConfig, ClassSet};
/// use apple_core::engine::{EngineConfig, OptimizationEngine};
/// use apple_core::orchestrator::ResourceOrchestrator;
/// use apple_topology::zoo;
/// use apple_traffic::GravityModel;
///
/// let topo = zoo::internet2();
/// let tm = GravityModel::new(2_000.0, 0).base_matrix(&topo);
/// let classes = ClassSet::build(&topo, &tm, &ClassConfig { max_classes: 12, ..Default::default() });
/// let orch = ResourceOrchestrator::with_uniform_hosts(&topo, 64);
/// let engine = OptimizationEngine::new(EngineConfig::default());
/// let placement = engine.place(&classes, &orch)?;
/// assert!(placement.total_instances() > 0);
/// # Ok::<(), apple_core::engine::EngineError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct OptimizationEngine {}

/// Index bookkeeping between the class set and the LP model.
struct VarMap {
    /// d_vars[h] is a `|P_h| × |C_h|` row-major grid of variables.
    d_vars: Vec<Vec<Var>>,
    /// q_vars[(v, nf index)] — only for NFs actually used by some class
    /// whose path crosses v. Empty when q is fixed data.
    q_vars: BTreeMap<(usize, usize), Var>,
}

/// The q-eliminated pure-`d` placement model plus the bookkeeping needed to
/// lift its solutions back into the full (q + d) variable layout.
///
/// Every `q[v][n]` has a strictly positive objective coefficient and
/// appears only in its own Eq. (5) row (which bounds it from below by
/// `load/Cap`) and in `≤` rows with positive coefficients (Eq. 6, its own
/// upper bound) — so at *every* LP optimum `q* = Σ_h T_h·d / Cap` exactly.
/// Substituting that identity eliminates q: the instance price folds into
/// the d objective, Eq. (6) and the q upper bounds become pure-d rows, and
/// the model falls apart into per-class blocks once the never-binding rows
/// are stripped (see DESIGN.md §8 for the full argument).
struct ReducedPlacement {
    /// The pure-d model: Eq. (3)/(4) rows plus the q-substituted capacity
    /// and host-resource rows.
    model: Model,
    /// Variable map in the full layout (indices into [`Self::layout`]).
    vmap: VarMap,
    /// Constraint-free twin of the full Eq. (1)–(8) model — same variables,
    /// same bounds, same objective coefficients — used to index and price
    /// full-layout value vectors.
    layout: Model,
    /// Number of q variables (full indices `0..n_q`).
    n_q: usize,
    /// Per q variable, in full index order: the reduced-model d terms
    /// `(reduced var index, T_h / Cap_n)` whose sum is the optimal q.
    q_terms: Vec<Vec<(usize, f64)>>,
}

impl ReducedPlacement {
    /// Lifts a reduced (d-only) solution into the full q + d layout,
    /// recovering each `q* = Σ T_h·d / Cap` exactly.
    fn lift(&self, dsol: &Solution) -> Solution {
        let mut values = vec![0.0; self.layout.var_count()];
        for (r, &v) in dsol.values().iter().enumerate() {
            values[self.n_q + r] = v;
        }
        for (k, terms) in self.q_terms.iter().enumerate() {
            values[k] = terms.iter().map(|&(r, c)| c * dsol.values()[r]).sum();
        }
        let objective = self.layout.objective_of(&values);
        Solution::assemble(values, objective, dsol.stats())
    }
}

/// Instance counts `q` (or caps on them) by `(switch, NF index)`.
type Counts = BTreeMap<(usize, usize), u32>;

/// Whether instance counts are decision variables or fixed data.
enum QMode<'a> {
    /// q are integer decision variables, optionally with extra upper
    /// bounds from the rounding-repair loop ([`OptimizationEngine::ilp_model`]
    /// sets none; the reduced-vs-full relaxation test replays each repair
    /// round's caps).
    Variables(&'a Counts),
    /// q are constants; the model is a pure d-feasibility LP (used by the
    /// consolidation descent).
    Fixed(&'a Counts),
}

impl OptimizationEngine {
    /// Creates an engine.
    pub fn new(_config: EngineConfig) -> Self {
        OptimizationEngine {}
    }

    /// Computes a placement for the classes, given host resources from the
    /// orchestrator.
    ///
    /// # Errors
    ///
    /// [`EngineError::NoClasses`] on an empty class set,
    /// [`EngineError::Infeasible`] when no feasible placement exists, and
    /// [`EngineError::Solver`] on solver failures.
    pub fn place(
        &self,
        classes: &ClassSet,
        orch: &ResourceOrchestrator,
    ) -> Result<Placement, EngineError> {
        self.place_recorded(classes, orch, &NOOP)
    }

    /// [`OptimizationEngine::place`] with telemetry: wraps the run in an
    /// `engine.place` span with `engine.build` / `engine.solve` /
    /// `engine.round` / `engine.consolidate` child phases, records every
    /// simplex run's pivots and per-phase timings under the `lp` prefix,
    /// counts repair rounds, and gauges the final `engine.rounding_gap`,
    /// `engine.lp_objective` and `engine.total_instances`.
    ///
    /// # Errors
    ///
    /// Same as [`OptimizationEngine::place`].
    pub fn place_recorded(
        &self,
        classes: &ClassSet,
        orch: &ResourceOrchestrator,
        rec: &dyn Recorder,
    ) -> Result<Placement, EngineError> {
        let mut cache = WarmCache::default();
        self.place_cached(classes, orch, rec, &mut cache)
    }

    /// [`OptimizationEngine::place_recorded`] with a caller-owned
    /// [`WarmCache`] that persists across calls.
    ///
    /// Every LP relaxation is solved block by block
    /// ([`apple_lp::decompose`]) and consults the cache; the Dynamic
    /// Handler keeps one alive across re-plans so that after a crash or
    /// overload event only the blocks the event actually touched are
    /// re-pivoted — every other block is answered from the cache.
    ///
    /// # Errors
    ///
    /// Same as [`OptimizationEngine::place`].
    pub fn place_cached(
        &self,
        classes: &ClassSet,
        orch: &ResourceOrchestrator,
        rec: &dyn Recorder,
        cache: &mut WarmCache,
    ) -> Result<Placement, EngineError> {
        let _total = rec.span("engine.place");
        if classes.is_empty() {
            return Err(EngineError::NoClasses);
        }
        let start = Instant::now();
        let (q_ceil, sol, vmap) = self.relax_and_round(classes, orch, rec, cache)?;
        let (q, d) = {
            let _s = rec.span("engine.consolidate");
            let d = d_grid(&vmap, sol.values());
            self.consolidate(classes, orch, q_ceil, d, rec, cache)
        };
        let placement = assemble(classes, &q, &d, sol.objective(), start, sol.stats().pivots);
        rec.gauge("engine.rounding_gap", placement.rounding_gap());
        rec.gauge("engine.lp_objective", placement.lp_objective());
        rec.gauge(
            "engine.total_instances",
            f64::from(placement.total_instances()),
        );
        Ok(placement)
    }

    /// LP relaxation + ceiling + resource repair: solves the q-eliminated
    /// relaxation and ceils its `q`; while that overshoots a live host,
    /// caps the offending `q` ([`tighten_caps`]) and solves again. Returns
    /// the ceiled counts with the lifted relaxation they came from.
    fn relax_and_round(
        &self,
        classes: &ClassSet,
        orch: &ResourceOrchestrator,
        rec: &dyn Recorder,
        cache: &mut WarmCache,
    ) -> Result<(Counts, Solution, VarMap), EngineError> {
        let mut extra_caps: Counts = BTreeMap::new();
        for _round in 0..=MAX_REPAIR_ROUNDS {
            let reduced = {
                let _s = rec.span("engine.build");
                self.build_reduced(classes, orch, &extra_caps)
            };
            let sol = {
                let _s = rec.span("engine.solve");
                reduced.lift(&self.solve_blocks(&reduced.model, cache, rec)?)
            };
            let _s = rec.span("engine.round");
            let q_ceil = ceil_q(&sol, &reduced.vmap);
            let violations = violated_hosts(orch, &q_ceil);
            if violations.is_empty() {
                return Ok((q_ceil, sol, reduced.vmap));
            }
            rec.counter("engine.repair_rounds", 1);
            tighten_caps(
                orch,
                &violations,
                &q_ceil,
                &sol,
                &reduced.vmap,
                &mut extra_caps,
            )?;
        }
        // Repair budget exhausted.
        Err(EngineError::Infeasible)
    }

    /// Consolidation descent, run to its fixed point: repeatedly try to
    /// remove one instance from the least-utilised (switch, NF) and keep
    /// the removal whenever the fixed-`q` model still has a `d`
    /// (DESIGN.md §8, *Consolidation certificates*). Each candidate is
    /// decided by the max-flow reject certificate ([`certify_reject`]),
    /// else by the re-routing accept certificate ([`certify_accept`]),
    /// else by the fixed-`q` LP under an `engine.consolidate.lp` span. A
    /// key whose candidate fails is never tried again: removals only shrink
    /// `q`, so that candidate stays infeasible. Returns the final counts
    /// and a `d` feasible for them.
    fn consolidate(
        &self,
        classes: &ClassSet,
        orch: &ResourceOrchestrator,
        mut q: Counts,
        mut d: Vec<Vec<f64>>,
        rec: &dyn Recorder,
        cache: &mut WarmCache,
    ) -> (Counts, Vec<Vec<f64>>) {
        let mut failed = BTreeSet::new();
        'descent: loop {
            let load = loads(classes, &d);
            // Candidates: q > 0, sorted by utilisation ascending.
            // Only instances with visible slack are worth a decision; a
            // nearly-full instance cannot be removed.
            // Utilisation is quantised to 1e-6 before filtering/sorting so
            // that sub-tolerance float noise cannot reorder candidates (the
            // sort is stable, so quantised ties keep deterministic BTreeMap
            // key order).
            let mut cands: Vec<((usize, usize), f64)> = q
                .iter()
                .filter(|&(key, &c)| c > 0 && !failed.contains(key))
                .filter_map(|(&key, &c)| {
                    let cap = VnfSpec::of(NfType::from_index(key.1)).capacity_mbps * f64::from(c);
                    let util =
                        (load.get(&key).copied().unwrap_or(0.0) / cap.max(1e-9) * 1e6).round();
                    (util < 0.75 * 1e6).then_some((key, util))
                })
                .collect();
            cands.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));

            for (key, _) in cands {
                let mut q_try = q.clone();
                *q_try.get_mut(&key).expect("candidate exists") -= 1;
                let rejected = certify_reject(classes, &q_try, key.1);
                let accepted = (!rejected)
                    .then(|| certify_accept(classes, &q_try, &d, &load, key))
                    .flatten();
                #[cfg(test)]
                self.oracle_check(classes, orch, &q_try, rejected, accepted.as_deref());
                let next = match (rejected, accepted) {
                    (true, _) => {
                        rec.counter("engine.consolidation_certified", 1);
                        None
                    }
                    (false, Some(d)) => {
                        rec.counter("engine.consolidation_accepted", 1);
                        Some(d)
                    }
                    (false, None) => {
                        rec.counter("engine.consolidation_solves", 1);
                        let _s = rec.span("engine.consolidate.lp");
                        let (model, vm) = self.build_model(classes, orch, QMode::Fixed(&q_try));
                        let solved = self.solve_blocks(&model, cache, rec);
                        solved.ok().map(|sol| d_grid(&vm, sol.values()))
                    }
                };
                let Some(next) = next else {
                    failed.insert(key);
                    continue;
                };
                rec.counter("engine.consolidation_removed", 1);
                q = q_try;
                d = next;
                continue 'descent;
            }
            return (q, d);
        }
    }

    /// The Eq. (1)–(8) integer model for this input: integer `q` and
    /// continuous `d` over the same columns and prices the relaxation
    /// solves. `apple export-lp` prints it in CPLEX LP format (see
    /// [`apple_lp::export`]); the tests solve it with branch-and-bound
    /// ([`Model::solve_ilp`]) for the exact optimum at small sizes.
    pub fn ilp_model(&self, classes: &ClassSet, orch: &ResourceOrchestrator) -> Model {
        self.build_model(classes, orch, QMode::Variables(&BTreeMap::new()))
            .0
    }

    /// Builds the Eq. (1)–(8) model. In [`QMode::Variables`] the q are
    /// integer decision variables (with optional repair caps); in
    /// [`QMode::Fixed`] they are constants and the model is a pure
    /// d-feasibility LP.
    fn build_model(
        &self,
        classes: &ClassSet,
        orch: &ResourceOrchestrator,
        qmode: QMode<'_>,
    ) -> (Model, VarMap) {
        let mut model = Model::new(Sense::Min);

        // q variables (Eq. 7: integral, >= 0). In fixed mode no q variables
        // exist and only the columns' keys are used.
        let no_caps = BTreeMap::new();
        let columns = q_columns(
            classes,
            orch,
            match &qmode {
                QMode::Variables(extra_caps) => extra_caps,
                QMode::Fixed(_) => &no_caps,
            },
        );
        let mut q_vars = BTreeMap::new();
        if matches!(qmode, QMode::Variables(_)) {
            for (&key, col) in &columns {
                q_vars.insert(key, model.add_int_var(q_name(key), 0.0, col.ub, col.price));
            }
        }

        // d variables (Eq. 8: 0 <= d <= 1; the upper bound is implied by
        // Eq. (4) + non-negativity, so we use [0, 1] only as a bound box).
        let mut d_vars = Vec::with_capacity(classes.len());
        for c in classes {
            let plen = c.path.len();
            let clen = c.chain.len();
            let mut grid = Vec::with_capacity(plen * clen);
            for i in 0..plen {
                for j in 0..clen {
                    grid.push(model.add_var(format!("d_c{}_{i}_{j}", c.id.0), 0.0, 1.0, 0.0));
                }
            }
            d_vars.push(grid);
        }
        let dv = |h: usize, i: usize, j: usize, clen: usize| d_vars[h][i * clen + j];
        add_chain_rows(&mut model, classes, &d_vars);

        // Eq. (5): capacity per (v, n): sum_h T_h d <= Cap_n q.
        for &(v, nf_idx) in columns.keys() {
            let nf = NfType::from_index(nf_idx);
            let cap = VnfSpec::of(nf).capacity_mbps;
            let mut terms = Vec::new();
            for (h, c) in classes.iter().enumerate() {
                let clen = c.chain.len();
                if let (Some(i), Some(j)) = (c.path.index_of(NodeId(v)), c.chain.position(nf)) {
                    terms.push((dv(h, i, j, clen), c.rate_mbps));
                }
            }
            if terms.is_empty() {
                continue;
            }
            match &qmode {
                QMode::Variables(_) => {
                    let qvar = q_vars[&(v, nf_idx)];
                    terms.push((qvar, -cap));
                    model
                        .add_constraint(terms, Cmp::Le, 0.0)
                        .expect("capacity constraint is finite");
                }
                QMode::Fixed(q) => {
                    let count = q.get(&(v, nf_idx)).copied().unwrap_or(0);
                    model
                        .add_constraint(terms, Cmp::Le, cap * f64::from(count))
                        .expect("capacity constraint is finite");
                }
            }
        }

        // Eq. (6): host resources: sum_n R_n q <= A_v (cores and memory).
        // Only meaningful when q are variables; in fixed mode the counts
        // were validated against resources when they were chosen.
        if matches!(qmode, QMode::Variables(_)) {
            for (&v, host) in orch.hosts().iter().filter(|(_, h)| h.up) {
                let mut core_terms = Vec::new();
                let mut mem_terms = Vec::new();
                for (&(qv, nf_idx), &qvar) in &q_vars {
                    if qv == v {
                        let r = VnfSpec::of(NfType::from_index(nf_idx)).resources();
                        core_terms.push((qvar, f64::from(r.cores)));
                        mem_terms.push((qvar, f64::from(r.memory_mib)));
                    }
                }
                if core_terms.is_empty() {
                    continue;
                }
                model
                    .add_constraint(core_terms, Cmp::Le, f64::from(host.capacity.cores))
                    .expect("core constraint is finite");
                model
                    .add_constraint(mem_terms, Cmp::Le, f64::from(host.capacity.memory_mib))
                    .expect("memory constraint is finite");
            }
        }

        (model, VarMap { d_vars, q_vars })
    }

    /// Builds the q-eliminated pure-d model every relaxation solves.
    ///
    /// Mirrors [`OptimizationEngine::build_model`] in
    /// [`QMode::Variables`] — same [`q_columns`], same variable order, same
    /// Eq. (3)/(4) rows — but substitutes `q = Σ T_h·d / Cap` everywhere q
    /// appears, which is exact at every LP optimum (see
    /// [`ReducedPlacement`]).
    fn build_reduced(
        &self,
        classes: &ClassSet,
        orch: &ResourceOrchestrator,
        extra_caps: &Counts,
    ) -> ReducedPlacement {
        // Full-layout twin: q then d, identical to `build_model` but
        // without constraint rows — it prices and indexes lifted vectors.
        let columns = q_columns(classes, orch, extra_caps);
        let mut layout = Model::new(Sense::Min);
        let mut q_vars = BTreeMap::new();
        for (&key, col) in &columns {
            q_vars.insert(key, layout.add_int_var(q_name(key), 0.0, col.ub, col.price));
        }
        let n_q = q_vars.len();

        // d variables. Each d_{h,i,j} feeds exactly one (switch, NF) pair,
        // so eliminating q folds the instance price (1+surcharge)·T_h/Cap
        // into its objective coefficient.
        let mut model = Model::new(Sense::Min);
        let mut d_vars = Vec::with_capacity(classes.len());
        let mut layout_d = Vec::with_capacity(classes.len());
        for c in classes {
            let plen = c.path.len();
            let clen = c.chain.len();
            let mut grid = Vec::with_capacity(plen * clen);
            let mut lgrid = Vec::with_capacity(plen * clen);
            for (i, node) in c.path.iter().enumerate() {
                for (j, nf) in c.chain.nfs().iter().enumerate() {
                    let cap = VnfSpec::of(*nf).capacity_mbps;
                    let obj = columns[&(node.0, nf.index())].price * c.rate_mbps / cap;
                    let name = format!("d_c{}_{i}_{j}", c.id.0);
                    grid.push(model.add_var(name.clone(), 0.0, 1.0, obj));
                    lgrid.push(layout.add_var(name, 0.0, 1.0, 0.0));
                }
            }
            d_vars.push(grid);
            layout_d.push(lgrid);
        }
        let dv = |h: usize, i: usize, j: usize, clen: usize| d_vars[h][i * clen + j];
        add_chain_rows(&mut model, classes, &d_vars);

        // Eq. (5) + q upper bound, q eliminated: Σ_h T_h·d ≤ Cap·ub. Also
        // collects the recovery terms q* = Σ T_h·d / Cap.
        let mut q_terms: Vec<Vec<(usize, f64)>> = Vec::with_capacity(n_q);
        for (&(v, nf_idx), col) in &columns {
            let nf = NfType::from_index(nf_idx);
            let cap = VnfSpec::of(nf).capacity_mbps;
            let mut terms = Vec::new();
            let mut recover = Vec::new();
            for (h, c) in classes.iter().enumerate() {
                let clen = c.chain.len();
                if let (Some(i), Some(j)) = (c.path.index_of(NodeId(v)), c.chain.position(nf)) {
                    let var = dv(h, i, j, clen);
                    terms.push((var, c.rate_mbps));
                    recover.push((var.index(), c.rate_mbps / cap));
                }
            }
            q_terms.push(recover);
            if terms.is_empty() {
                continue;
            }
            if col.ub.is_finite() {
                model
                    .add_constraint(terms, Cmp::Le, cap * col.ub)
                    .expect("capacity constraint is finite");
            }
        }

        // Eq. (6), q eliminated: Σ_n R_n/Cap_n · Σ_h T_h·d ≤ A_v. Down
        // hosts are excluded — their q upper bound is already zero.
        for (&v, host) in orch.hosts() {
            if !host.up {
                continue;
            }
            let mut core_terms = Vec::new();
            let mut mem_terms = Vec::new();
            for (h, c) in classes.iter().enumerate() {
                let clen = c.chain.len();
                let Some(i) = c.path.index_of(NodeId(v)) else {
                    continue;
                };
                for (j, nf) in c.chain.nfs().iter().enumerate() {
                    let spec = VnfSpec::of(*nf);
                    let per = c.rate_mbps / spec.capacity_mbps;
                    let r = spec.resources();
                    let var = dv(h, i, j, clen);
                    core_terms.push((var, f64::from(r.cores) * per));
                    mem_terms.push((var, f64::from(r.memory_mib) * per));
                }
            }
            if core_terms.is_empty() {
                continue;
            }
            model
                .add_constraint(core_terms, Cmp::Le, f64::from(host.capacity.cores))
                .expect("core constraint is finite");
            model
                .add_constraint(mem_terms, Cmp::Le, f64::from(host.capacity.memory_mib))
                .expect("memory constraint is finite");
        }

        ReducedPlacement {
            model,
            vmap: VarMap {
                d_vars: layout_d,
                q_vars,
            },
            layout,
            n_q,
            q_terms,
        }
    }

    /// Solves a pure-d model block by block through the warm cache,
    /// recording decomposition and simplex stats. Both the q-eliminated
    /// relaxation and the consolidation descent's fixed-q feasibility
    /// models go through here.
    fn solve_blocks(
        &self,
        model: &Model,
        cache: &mut WarmCache,
        rec: &dyn Recorder,
    ) -> Result<Solution, LpError> {
        let (sol, dstats) = solve_decomposed(model, &SimplexOptions::default(), Some(cache))?;
        record_decompose(rec, &dstats);
        sol.stats().record(rec, "lp");
        Ok(sol)
    }
}

/// One `q[v][n]` column of Eq. (1)–(8).
struct QColumn {
    /// Upper bound from host resources (cores / per-instance cores) —
    /// tightens the LP — lowered further by any repair cap. A down host
    /// contributes no capacity: its q stay pinned at zero so no placement
    /// can land there.
    ub: f64,
    /// Objective coefficient `1 + surcharge`.
    price: f64,
}

/// The q columns by `(switch, NF index)`: n at v iff some class's path
/// crosses v and its chain uses n.
fn q_columns(
    classes: &ClassSet,
    orch: &ResourceOrchestrator,
    extra_caps: &Counts,
) -> BTreeMap<(usize, usize), QColumn> {
    // Switch popularity (number of classes crossing each switch). The pure
    // Σq objective is heavily degenerate — any spatial spread of d is
    // LP-optimal — so rounding a scattered solution pays a ceil at every
    // touched (v, n). A tiny popularity-decreasing surcharge on q breaks
    // the ties toward concentrating load at shared switches, which is
    // exactly the multiplexing that beats the ingress strawman; the
    // surcharge (≤ 1e-3 per instance) is far too small to distort the
    // instance count itself. Popularity counts classes, not their rates:
    // a traffic change then re-prices no block, and a re-solve answers
    // every class whose rate held from the warm cache.
    let mut popularity: BTreeMap<usize, usize> = BTreeMap::new();
    for c in classes {
        for node in c.path.iter() {
            *popularity.entry(node.0).or_insert(0) += 1;
        }
    }
    let max_pop = popularity.values().copied().max().unwrap_or(1) as f64;

    let mut columns = BTreeMap::new();
    for c in classes {
        for node in c.path.iter() {
            for nf in c.chain.nfs() {
                let v = node.0;
                columns.entry((v, nf.index())).or_insert_with(|| {
                    let host_cap = orch
                        .hosts()
                        .get(&v)
                        .filter(|h| h.up)
                        .map(|h| h.capacity)
                        .unwrap_or_else(apple_nf::ResourceVector::zero);
                    let mut ub = host_cap
                        .cores
                        .checked_div(VnfSpec::of(*nf).cores)
                        .map_or(f64::INFINITY, f64::from);
                    if let Some(&cap) = extra_caps.get(&(v, nf.index())) {
                        ub = ub.min(f64::from(cap));
                    }
                    let surcharge =
                        1e-3 * (1.0 - popularity[&v] as f64 / max_pop) + 1e-6 * (v as f64);
                    QColumn {
                        ub,
                        price: 1.0 + surcharge,
                    }
                });
            }
        }
    }
    columns
}

fn q_name((v, nf_idx): (usize, usize)) -> String {
    format!("q_v{v}_{}", NfType::from_index(nf_idx).name())
}

/// Adds, for every class over its `|P_h| × |C_h|` d grid, Eq. (3) — chain
/// order, `σ_{j−1}^i ≥ σ_j^i` at every position `i` and stage `j ≥ 1`,
/// with `σ_j^i = Σ_{i' ≤ i} d^{i'}_j` — and Eq. (4) — coverage,
/// `σ_j^{|P|} = 1` for every stage.
fn add_chain_rows(model: &mut Model, classes: &ClassSet, d_vars: &[Vec<Var>]) {
    for (c, grid) in classes.iter().zip(d_vars) {
        let plen = c.path.len();
        let clen = c.chain.len();
        for j in 1..clen {
            for i in 0..plen {
                let mut terms = Vec::with_capacity(2 * (i + 1));
                for i2 in 0..=i {
                    terms.push((grid[i2 * clen + j - 1], 1.0));
                    terms.push((grid[i2 * clen + j], -1.0));
                }
                model
                    .add_constraint(terms, Cmp::Ge, 0.0)
                    .expect("order constraint is finite");
            }
        }
        for j in 0..clen {
            let terms: Vec<_> = (0..plen).map(|i| (grid[i * clen + j], 1.0)).collect();
            model
                .add_constraint(terms, Cmp::Eq, 1.0)
                .expect("coverage constraint is finite");
        }
    }
}

/// Ceils the q variables of a relaxation. `snap` first: q is recovered as
/// a float sum of d terms, and a q sitting exactly on an integer must not
/// ceil differently because one pivot sequence landed at 3−1e−12 and
/// another at 3+1e−12.
fn ceil_q(sol: &Solution, vmap: &VarMap) -> Counts {
    vmap.q_vars
        .iter()
        .map(|(&key, &var)| {
            let val = snap(sol.value(var));
            (key, (val - 1e-9).ceil().max(0.0) as u32)
        })
        .collect()
}

/// The `d` values of a solution as per-class `|P_h| × |C_h|` row-major
/// grids, `d[h][i·|C_h| + j]`.
fn d_grid(vmap: &VarMap, values: &[f64]) -> Vec<Vec<f64>> {
    vmap.d_vars
        .iter()
        .map(|grid| grid.iter().map(|var| values[var.index()]).collect())
        .collect()
}

/// Packs final counts and `d` grids into a [`Placement`].
fn assemble(
    classes: &ClassSet,
    q: &Counts,
    d: &[Vec<f64>],
    lp_objective: f64,
    start: Instant,
    pivots: usize,
) -> Placement {
    let q: BTreeMap<(usize, NfType), u32> = q
        .iter()
        .filter(|(_, &c)| c > 0)
        .map(|(&(v, nf_idx), &c)| ((v, NfType::from_index(nf_idx)), c))
        .collect();
    let mut d_map = BTreeMap::new();
    for (h, (c, grid)) in classes.iter().zip(d).enumerate() {
        let clen = c.chain.len();
        for (k, &val) in grid.iter().enumerate() {
            if val > 1e-9 {
                d_map.insert((h, k / clen, k % clen), val.min(1.0));
            }
        }
    }
    Placement {
        total_instances: q.values().sum(),
        q,
        d: d_map,
        lp_objective,
        solve_time: start.elapsed(),
        pivots,
    }
}

/// The `(switch, NF index)` that entry `k = i·|C_h| + j` of class `c`'s
/// `d` grid loads.
fn grid_key(c: &EquivalenceClass, k: usize) -> (usize, usize) {
    let clen = c.chain.len();
    (c.path.nodes()[k / clen].0, c.chain.nfs()[k % clen].index())
}

/// Offered load `Σ_h T_h·d[h][i][j]` per `(switch, NF index)` under `d`.
fn loads(classes: &ClassSet, d: &[Vec<f64>]) -> BTreeMap<(usize, usize), f64> {
    let mut load = BTreeMap::new();
    for (c, grid) in classes.iter().zip(d) {
        for (k, &share) in grid.iter().enumerate() {
            if share > 0.0 {
                *load.entry(grid_key(c, k)).or_insert(0.0) += c.rate_mbps * share;
            }
        }
    }
    load
}

/// Live hosts whose resources the ceiled counts exceed. Down hosts carry
/// no instances (their q upper bound is zero), so only live hosts can be
/// violated.
fn violated_hosts(orch: &ResourceOrchestrator, q_ceil: &Counts) -> Vec<usize> {
    let mut violations = Vec::new();
    for (&v, host) in orch.hosts().iter().filter(|(_, h)| h.up) {
        let mut used = apple_nf::ResourceVector::zero();
        for (&(qv, nf_idx), &count) in q_ceil {
            if qv == v {
                used += VnfSpec::of(NfType::from_index(nf_idx))
                    .resources()
                    .times(count);
            }
        }
        if !used.fits_in(&host.capacity) {
            violations.push(v);
        }
    }
    violations
}

/// Repair: at each violating host, cap fractional q at their LP floors
/// (largest fractional part first) until the projected core overshoot is
/// covered, forcing the next solve to shift load elsewhere.
///
/// # Errors
///
/// [`EngineError::Infeasible`] when a violating host has no fractional q
/// left to tighten.
fn tighten_caps(
    orch: &ResourceOrchestrator,
    violations: &[usize],
    q_ceil: &Counts,
    sol: &Solution,
    vmap: &VarMap,
    extra_caps: &mut Counts,
) -> Result<(), EngineError> {
    for &v in violations {
        let host_caps = orch.hosts().get(&v).map(|h| h.capacity.cores).unwrap_or(0);
        let mut used: u32 = q_ceil
            .iter()
            .filter(|(&(qv, _), _)| qv == v)
            .map(|(&(_, nf_idx), &c)| VnfSpec::of(NfType::from_index(nf_idx)).cores * c)
            .sum();
        let mut fracs: Vec<((usize, usize), f64)> = vmap
            .q_vars
            .iter()
            .filter(|(&(qv, _), _)| qv == v)
            .filter_map(|(&key, &var)| {
                let val = snap(sol.value(var));
                let frac = val - val.floor();
                // Re-tightening an already-capped variable is fine: its
                // cap strictly decreases, so the loop terminates.
                let tighter = extra_caps
                    .get(&key)
                    .is_none_or(|&cap| (val.floor() as u32) < cap);
                if frac > 1e-6 && tighter {
                    Some((key, frac))
                } else {
                    None
                }
            })
            .collect();
        if fracs.is_empty() {
            return Err(EngineError::Infeasible);
        }
        // Quantised (1e-6 grid) like the consolidation sort: sub-tolerance
        // float noise must not reorder the caps.
        for f in &mut fracs {
            f.1 = (f.1 * 1e6).round();
        }
        fracs.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        for (key, _) in fracs {
            if used <= host_caps {
                break;
            }
            let var = vmap.q_vars[&key];
            let floor = snap(sol.value(var)).floor().max(0.0) as u32;
            let cap = extra_caps.get(&key).map_or(floor, |&old| old.min(floor));
            extra_caps.insert(key, cap);
            used = used.saturating_sub(VnfSpec::of(NfType::from_index(key.1)).cores);
        }
    }
    Ok(())
}

/// Reject certificate for one consolidation candidate (DESIGN.md §8,
/// *Consolidation certificates*): `true` proves the fixed-`q` feasibility
/// LP for `q` infeasible; `false` decides nothing.
///
/// It checks one necessary condition for NF `nf` alone, as a
/// transportation max-flow: every class using `nf` ships its rate `T_h`
/// to the switches inside its chain-order window ([`stage_window`]) that
/// host `nf`, and switch `v` absorbs at most `Cap_n · q[v][n]`. Every
/// LP-feasible `d` is such a flow, so a deficit proves infeasibility. The
/// margin (1e-6 of the demand) is far looser than the simplex's phase-1
/// tolerance, so a borderline candidate falls through to the LP instead
/// of becoming a wrong reject.
fn certify_reject(classes: &ClassSet, q: &Counts, nf: usize) -> bool {
    let nf = NfType::from_index(nf);
    let count = |v: NodeId, n: NfType| q.get(&(v.0, n.index())).copied().unwrap_or(0);
    let cap = VnfSpec::of(nf).capacity_mbps;
    let mut sink_of: BTreeMap<NodeId, usize> = BTreeMap::new();
    let mut sink_caps = Vec::new();
    let mut demands = Vec::new();
    for c in classes {
        let Some(j) = c.chain.position(nf) else {
            continue;
        };
        if c.rate_mbps <= 0.0 {
            continue;
        }
        let sinks = stage_window(c, j, count)
            .map(|i| c.path.nodes()[i])
            .filter(|&v| count(v, nf) > 0)
            .map(|v| {
                *sink_of.entry(v).or_insert_with(|| {
                    sink_caps.push(cap * f64::from(count(v, nf)));
                    sink_caps.len() - 1
                })
            })
            .collect();
        demands.push((c.rate_mbps, sinks));
    }
    let demand: f64 = demands.iter().map(|(t, _)| t).sum();
    demand - transport_flow(&demands, &sink_caps) > 1e-6 * demand.max(1.0)
}

/// Path positions `[lo, hi]` at which class `c` can process its stage `j`
/// when the instance counts are fixed (`count(v, n)`).
///
/// `lo` is the latest first position at which an earlier stage has an
/// instance: before it that stage's cumulative share `σ_k` is 0, and
/// Eq. (3) (`σ_k ≥ σ_j` for `k < j`) pins `σ_j` to 0 too. `hi` is the
/// earliest last position at which a later stage has an instance: there
/// that stage is complete (`σ_k = 1`), so `σ_j ≥ σ_k` is complete as well.
/// The range is empty when some other stage has no instance on the path.
fn stage_window(
    c: &EquivalenceClass,
    j: usize,
    count: impl Fn(NodeId, NfType) -> u32,
) -> std::ops::RangeInclusive<usize> {
    let nodes = c.path.nodes();
    let (mut lo, mut hi) = (0, nodes.len() - 1);
    for (k, &n) in c.chain.nfs().iter().enumerate() {
        if k == j {
            continue;
        }
        let mut hosted = (0..nodes.len()).filter(|&i| count(nodes[i], n) > 0);
        let bound = if k < j {
            hosted.next()
        } else {
            hosted.next_back()
        };
        let Some(i) = bound else {
            lo = nodes.len();
            break;
        };
        if k < j {
            lo = lo.max(i);
        } else {
            hi = hi.min(i);
        }
    }
    lo..=hi
}

/// Accept certificate for one consolidation candidate (DESIGN.md §8,
/// *Consolidation certificates*): `Some(d')` is a `d` that satisfies the
/// fixed-`q` model for `q`, which proves the candidate feasible; `None`
/// decides nothing.
///
/// `q` has one instance fewer at `key` than the counts `d` is feasible for
/// (`load` is `d`'s [`loads`]). Holding every other class fixed, it moves
/// the classes that use `key` off it one at a time, the largest load at
/// `key` first, each by a max-flow over that class's layered chain graph
/// ([`reroute`]), and accepts as soon as `key` fits `Cap_n · q[key]`.
/// Zero-rate classes load nothing and are not moved.
fn certify_accept(
    classes: &ClassSet,
    q: &Counts,
    d: &[Vec<f64>],
    load: &BTreeMap<(usize, usize), f64>,
    key: (usize, usize),
) -> Option<Vec<Vec<f64>>> {
    let limit = |k: &(usize, usize)| {
        let count = q.get(k).copied().unwrap_or(0);
        VnfSpec::of(NfType::from_index(k.1)).capacity_mbps * f64::from(count)
    };
    let fits = |load: &BTreeMap<(usize, usize), f64>| {
        load.get(&key).copied().unwrap_or(0.0) <= limit(&key) + 1e-9
    };
    let nf = NfType::from_index(key.1);
    let mut users: Vec<(usize, f64)> = classes
        .iter()
        .enumerate()
        .filter_map(|(h, c)| {
            let i = c.path.index_of(NodeId(key.0))?;
            let j = c.chain.position(nf)?;
            let share = c.rate_mbps * d[h][i * c.chain.len() + j];
            (share > 0.0).then_some((h, share))
        })
        .collect();
    users.sort_by(|a, b| b.1.total_cmp(&a.1));

    let mut load = load.clone();
    let mut d = d.to_vec();
    for (h, _) in users {
        if fits(&load) {
            break;
        }
        let c = &classes.classes()[h];
        let Some(grid) = reroute(c, &d[h], &load, limit) else {
            continue;
        };
        for (k, (&old, &new)) in d[h].iter().zip(&grid).enumerate() {
            *load.entry(grid_key(c, k)).or_insert(0.0) += c.rate_mbps * (new - old);
        }
        d[h] = grid;
    }
    fits(&load).then_some(d)
}

/// Re-routes class `c`, whose current `d` grid is `grid`, through its
/// layered chain graph, with every other class's load held fixed. Node
/// `(j, i)` is stage `j` at path position `i`; its capacity is the residual
/// of `(path_i, chain_j)` under `limit`, after the class's own load is
/// released, divided by `T_h`. Edges run source → `(0, i)`, `(j, i)` →
/// `(j+1, i')` for every `i' ≥ i`, and `(last, i)` → sink. A unit flow
/// splits into monotone paths, so the flow through each node is a grid
/// that satisfies Eq. (3)/(4), and the node capacities keep Eq. (5).
/// `None` when less than the whole class fits.
fn reroute(
    c: &EquivalenceClass,
    grid: &[f64],
    load: &BTreeMap<(usize, usize), f64>,
    limit: impl Fn(&(usize, usize)) -> f64,
) -> Option<Vec<f64>> {
    let (plen, clen) = (c.path.len(), c.chain.len());
    // Nodes: 0 source, 1 unit gate, 2 sink; stage node k = i·clen + j is
    // split into `inn(k)` → `out(k)`, and that edge is edge `1 + k`.
    let inn = |k: usize| 3 + 2 * k;
    let out = |k: usize| 4 + 2 * k;
    let mut edges = vec![(0, 1, 1.0)];
    for (k, &share) in grid.iter().enumerate() {
        let key = grid_key(c, k);
        let others = load.get(&key).copied().unwrap_or(0.0) - c.rate_mbps * share;
        let room = (limit(&key) - others) / c.rate_mbps;
        edges.push((inn(k), out(k), room.max(0.0)));
    }
    for i in 0..plen {
        edges.push((1, inn(i * clen), f64::INFINITY));
        edges.push((out(i * clen + clen - 1), 2, f64::INFINITY));
        for j in 0..clen - 1 {
            for i2 in i..plen {
                edges.push((out(i * clen + j), inn(i2 * clen + j + 1), f64::INFINITY));
            }
        }
    }
    let (total, flow) = max_flow(3 + 2 * plen * clen, &edges, 0, 2);
    (total >= 1.0 - 1e-9).then(|| flow[1..=plen * clen].to_vec())
}

/// Maximum flow of a bipartite transportation network: source → demand
/// `k` (capacity `demands[k].0`) → each sink in `demands[k].1` (unbounded)
/// → target (capacity `sink_caps[s]`).
fn transport_flow(demands: &[(f64, Vec<usize>)], sink_caps: &[f64]) -> f64 {
    let n = demands.len() + sink_caps.len() + 2;
    let sink = |s: usize| 1 + demands.len() + s;
    let mut edges = Vec::new();
    for (k, (rate, sinks)) in demands.iter().enumerate() {
        edges.push((0, 1 + k, *rate));
        edges.extend(sinks.iter().map(|&s| (1 + k, sink(s), f64::INFINITY)));
    }
    for (s, &cap) in sink_caps.iter().enumerate() {
        edges.push((sink(s), n - 1, cap));
    }
    max_flow(n, &edges, 0, n - 1).0
}

/// Maximum flow from `source` to `target` over the directed edges
/// `(from, to, capacity)` on nodes `0..n`: Edmonds–Karp on a residual edge
/// list. Returns the flow value and the flow on each edge. Residuals
/// within 1e-12 of the finite capacity leaving the source count as
/// saturated.
fn max_flow(
    n: usize,
    edges: &[(usize, usize, f64)],
    source: usize,
    target: usize,
) -> (f64, Vec<f64>) {
    // Residual capacities; edge `e ^ 1` is the reverse of edge `e`, and the
    // reverse residual of input edge `e` is the flow on it.
    let mut to = Vec::with_capacity(2 * edges.len());
    let mut residual = Vec::with_capacity(2 * edges.len());
    let mut adj = vec![Vec::new(); n];
    for &(a, b, cap) in edges {
        adj[a].push(to.len());
        to.push(b);
        residual.push(cap);
        adj[b].push(to.len());
        to.push(a);
        residual.push(0.0);
    }
    let out_of_source: f64 = edges
        .iter()
        .filter(|e| e.0 == source && e.2.is_finite())
        .map(|e| e.2)
        .sum();
    let eps = 1e-12 * out_of_source.max(1.0);
    let mut flow = 0.0;
    loop {
        // Shortest augmenting path by BFS; `via[b]` is the edge into `b`.
        let mut via = vec![usize::MAX; n];
        let mut queue = std::collections::VecDeque::from([source]);
        while let Some(a) = queue.pop_front() {
            for &e in &adj[a] {
                let b = to[e];
                if b != source && via[b] == usize::MAX && residual[e] > eps {
                    via[b] = e;
                    queue.push_back(b);
                }
            }
        }
        if via[target] == usize::MAX {
            let per_edge = (0..edges.len()).map(|e| residual[2 * e + 1]).collect();
            return (flow, per_edge);
        }
        let mut push = f64::INFINITY;
        let mut b = target;
        while b != source {
            push = push.min(residual[via[b]]);
            b = to[via[b] ^ 1];
        }
        let mut b = target;
        while b != source {
            residual[via[b]] -= push;
            residual[via[b] ^ 1] += push;
            b = to[via[b] ^ 1];
        }
        flow += push;
    }
}

/// One consolidation candidate as the test-only oracle saw it.
#[cfg(test)]
#[derive(Debug)]
struct OracleVerdict {
    /// [`certify_reject`] proved the candidate infeasible.
    rejected: bool,
    /// When [`certify_accept`] accepted it: the largest violation of the
    /// fixed-`q` model by the patched `d`.
    accept_violation: Option<f64>,
    /// The fixed-`q` LP found a `d`.
    lp_feasible: bool,
}

#[cfg(test)]
thread_local! {
    /// Test-only oracle for both certificates: while armed on the current
    /// thread, every consolidation candidate's fixed-`q` LP is solved as
    /// well (cache-free, so the descent's warm cache is untouched) and its
    /// [`OracleVerdict`] is logged. The certificates stay in charge of the
    /// descent.
    static ORACLE: std::cell::RefCell<Option<Vec<OracleVerdict>>> =
        const { std::cell::RefCell::new(None) };
}

#[cfg(test)]
impl OptimizationEngine {
    fn oracle_check(
        &self,
        classes: &ClassSet,
        orch: &ResourceOrchestrator,
        q_try: &Counts,
        rejected: bool,
        accepted: Option<&[Vec<f64>]>,
    ) {
        ORACLE.with(|log| {
            if let Some(log) = log.borrow_mut().as_mut() {
                let (model, _) = self.build_model(classes, orch, QMode::Fixed(q_try));
                let lp_feasible =
                    solve_decomposed(&model, &SimplexOptions::default(), None).is_ok();
                let accept_violation =
                    accepted.map(|d| self.fixed_q_violation(classes, orch, q_try, d));
                log.push(OracleVerdict {
                    rejected,
                    accept_violation,
                    lp_feasible,
                });
            }
        });
    }

    /// Largest violation of the fixed-`q` model for `q` by the `d` grids.
    fn fixed_q_violation(
        &self,
        classes: &ClassSet,
        orch: &ResourceOrchestrator,
        q: &Counts,
        d: &[Vec<f64>],
    ) -> f64 {
        let (model, vm) = self.build_model(classes, orch, QMode::Fixed(q));
        let mut x = vec![0.0; model.var_count()];
        for (vars, grid) in vm.d_vars.iter().zip(d) {
            for (var, &val) in vars.iter().zip(grid) {
                x[var.index()] = val;
            }
        }
        model.max_violation(&x)
    }
}

/// Snaps a float to the nearest integer when within 1e-6 of it.
///
/// Equivalent pivot sequences (the reduced model's, or the full
/// Eq. (1)–(8) relaxation the tests use as oracle) reach the same optimum
/// only to roughly solver tolerance; snapping before any floor/ceil keeps
/// the discrete rounding decisions identical.
fn snap(v: f64) -> f64 {
    if (v - v.round()).abs() < 1e-6 {
        v.round()
    } else {
        v
    }
}

/// Emits decomposition statistics under the `engine.decompose` prefix:
/// counters `solves`, `warm_hits`, `warm_misses`, `dropped_rows` and
/// `pivots`, plus gauges `blocks` and `largest_block_vars`.
fn record_decompose(rec: &dyn Recorder, s: &DecomposedStats) {
    if !rec.enabled() {
        return;
    }
    rec.counter("engine.decompose.solves", 1);
    rec.counter("engine.decompose.warm_hits", s.warm_hits as u64);
    rec.counter("engine.decompose.warm_misses", s.warm_misses as u64);
    rec.counter("engine.decompose.dropped_rows", s.dropped_rows as u64);
    rec.counter("engine.decompose.pivots", s.pivots as u64);
    rec.gauge("engine.decompose.blocks", s.blocks as f64);
    rec.gauge(
        "engine.decompose.largest_block_vars",
        s.largest_block_vars as f64,
    );
    for &p in &s.block_pivots {
        rec.observe("engine.decompose.block_pivots", p as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::{ClassConfig, ClassId, EquivalenceClass};
    use crate::policy::PolicyChain;
    use apple_topology::{zoo, Path};
    use apple_traffic::{Flow, GravityModel};
    use NfType::{Firewall as Fw, Ids};

    /// One class on a 3-switch line with chain FW -> IDS, 100 Mbps.
    fn tiny() -> (apple_topology::Topology, ClassSet, ResourceOrchestrator) {
        let topo = zoo::line(3);
        let path = Path::new(vec![NodeId(0), NodeId(1), NodeId(2)]).unwrap();
        let chain = PolicyChain::new(vec![NfType::Firewall, NfType::Ids]).unwrap();
        let class = EquivalenceClass {
            id: ClassId(0),
            path,
            chain,
            rate_mbps: 100.0,
            src_prefix: (Flow::prefix_of(NodeId(0)), 24),
            dst_prefix: (Flow::prefix_of(NodeId(2)), 24),
            proto: None,
            dst_ports: Vec::new(),
        };
        let classes = ClassSet::from_classes(vec![class]);
        let orch = ResourceOrchestrator::with_uniform_hosts(&topo, 64);
        (topo, classes, orch)
    }

    #[test]
    fn tiny_class_needs_one_instance_per_stage() {
        let (_t, classes, orch) = tiny();
        let engine = OptimizationEngine::new(EngineConfig::default());
        let p = engine.place(&classes, &orch).unwrap();
        assert_eq!(p.total_instances(), 2);
        // Coverage: each stage fully placed somewhere on the path.
        for j in 0..2 {
            let total: f64 = (0..3).map(|i| p.d(0, i, j)).sum();
            assert!((total - 1.0).abs() < 1e-6, "stage {j} covers {total}");
        }
    }

    #[test]
    fn chain_order_is_respected_in_d() {
        let (_t, classes, orch) = tiny();
        let engine = OptimizationEngine::new(EngineConfig::default());
        let p = engine.place(&classes, &orch).unwrap();
        // Cumulative portion of stage 0 dominates stage 1 at every i.
        let mut cum0 = 0.0;
        let mut cum1 = 0.0;
        for i in 0..3 {
            cum0 += p.d(0, i, 0);
            cum1 += p.d(0, i, 1);
            assert!(cum0 >= cum1 - 1e-6, "order violated at position {i}");
        }
    }

    #[test]
    fn jumbo_class_splits_across_instances() {
        // 2000 Mbps with 900 Mbps firewalls needs ceil(2000/900) = 3
        // instances for the FW stage.
        let (topo, mut classes, orch) = tiny();
        let mut c = classes.classes()[0].clone();
        c.rate_mbps = 2_000.0;
        c.chain = PolicyChain::new(vec![NfType::Firewall]).unwrap();
        classes = ClassSet::from_classes(vec![c]);
        let _ = topo;
        let engine = OptimizationEngine::new(EngineConfig::default());
        let p = engine.place(&classes, &orch).unwrap();
        assert_eq!(p.total_instances(), 3);
    }

    #[test]
    fn capacity_respected_after_rounding() {
        let (_t, classes, orch) = tiny();
        let engine = OptimizationEngine::new(EngineConfig::default());
        let p = engine.place(&classes, &orch).unwrap();
        // For every (v, nf): offered <= cap * q.
        for v in 0..3usize {
            for nf in NfType::all() {
                let mut offered = 0.0;
                for (h, c) in classes.iter().enumerate() {
                    if let (Some(i), Some(j)) = (c.path.index_of(NodeId(v)), c.chain.position(nf)) {
                        offered += c.rate_mbps * p.d(h, i, j);
                    }
                }
                let cap = VnfSpec::of(nf).capacity_mbps * f64::from(p.q(NodeId(v), nf));
                assert!(offered <= cap + 1e-6, "{nf} at v{v}: {offered} > {cap}");
            }
        }
    }

    /// The exact integer optimum `Σ q` of the Eq. (1)–(8) model, by
    /// branch-and-bound over [`OptimizationEngine::ilp_model`].
    fn ilp_optimum(classes: &ClassSet, orch: &ResourceOrchestrator) -> u32 {
        let model = OptimizationEngine::default().ilp_model(classes, orch);
        let (sol, _) = model
            .solve_ilp(apple_lp::BranchConfig::default())
            .expect("integer feasible");
        model
            .integer_vars()
            .into_iter()
            .map(|q| (sol.value(q) - 1e-9).ceil().max(0.0) as u32)
            .sum()
    }

    #[test]
    fn exact_matches_rounded_on_small_instance() {
        let (_t, classes, orch) = tiny();
        let rounded = OptimizationEngine::new(EngineConfig::default())
            .place(&classes, &orch)
            .unwrap();
        let opt = ilp_optimum(&classes, &orch);
        assert!(rounded.total_instances() >= opt);
        assert_eq!(opt, 2);
        // LP bound is below both.
        assert!(rounded.lp_objective() <= f64::from(opt) + 1e-6);
    }

    #[test]
    fn empty_class_set_rejected() {
        let topo = zoo::line(2);
        let orch = ResourceOrchestrator::with_uniform_hosts(&topo, 64);
        let engine = OptimizationEngine::new(EngineConfig::default());
        assert!(matches!(
            engine.place(&ClassSet::default(), &orch),
            Err(EngineError::NoClasses)
        ));
    }

    #[test]
    fn infeasible_when_hosts_too_small() {
        // Hosts with 2 cores cannot run a firewall (4 cores).
        let topo = zoo::line(3);
        let orch = ResourceOrchestrator::with_uniform_hosts(&topo, 2);
        let (_t, classes, _) = tiny();
        let engine = OptimizationEngine::new(EngineConfig::default());
        assert!(matches!(
            engine.place(&classes, &orch),
            Err(EngineError::Infeasible)
        ));
    }

    fn gravity_classes(
        topo: &apple_topology::Topology,
        load: f64,
        seed: u64,
        max_classes: usize,
    ) -> ClassSet {
        let tm = GravityModel::new(load, seed).base_matrix(topo);
        let cfg = ClassConfig {
            max_classes,
            ..Default::default()
        };
        ClassSet::build(topo, &tm, &cfg)
    }

    /// The LP-level oracle behind DESIGN.md §8: at every repair round the
    /// full Eq. (1)–(8) relaxation (q and d variables, one plain simplex)
    /// and the lifted q-eliminated block solve agree on the objective and
    /// on every ceiled q. Returns the number of repair rounds it walked.
    fn assert_reduced_matches_full(classes: &ClassSet, orch: &ResourceOrchestrator) -> usize {
        let engine = OptimizationEngine::default();
        let simplex = SimplexOptions::default();
        let mut extra_caps = BTreeMap::new();
        for round in 0..=MAX_REPAIR_ROUNDS {
            let (full, full_map) = engine.build_model(classes, orch, QMode::Variables(&extra_caps));
            let full_sol = full.solve_lp_with(simplex).expect("full relaxation");
            let reduced = engine.build_reduced(classes, orch, &extra_caps);
            let (dsol, _) =
                solve_decomposed(&reduced.model, &simplex, None).expect("reduced relaxation");
            let lifted = reduced.lift(&dsol);
            assert!(
                (full_sol.objective() - lifted.objective()).abs() < 1e-9,
                "round {round}: LP objective {} vs {}",
                full_sol.objective(),
                lifted.objective()
            );
            for (key, &var) in &full_map.q_vars {
                let (f, r) = (full_sol.value(var), lifted.value(reduced.vmap.q_vars[key]));
                assert!(
                    (snap(f) - snap(r)).abs() < 1e-6,
                    "round {round}: q{key:?} {f} vs {r}"
                );
            }
            let q_ceil = ceil_q(&lifted, &reduced.vmap);
            assert_eq!(ceil_q(&full_sol, &full_map), q_ceil, "round {round}");
            let violations = violated_hosts(orch, &q_ceil);
            if violations.is_empty() {
                return round;
            }
            tighten_caps(
                orch,
                &violations,
                &q_ceil,
                &lifted,
                &reduced.vmap,
                &mut extra_caps,
            )
            .expect("repairable");
        }
        panic!("repair budget exhausted");
    }

    #[test]
    fn reduced_model_matches_full_relaxation() {
        let internet2 = zoo::internet2();
        let orch = ResourceOrchestrator::with_uniform_hosts(&internet2, 64);
        for seed in [0, 7, 23, 5] {
            assert_reduced_matches_full(&gravity_classes(&internet2, 3_000.0, seed, 10), &orch);
        }
        let line = zoo::line(4);
        let orch = ResourceOrchestrator::with_uniform_hosts(&line, 64);
        for seed in [0, 1, 2] {
            assert_reduced_matches_full(&gravity_classes(&line, 1_000.0, seed, 8), &orch);
        }
        // Elephant regime: per-class rates exceed instance capacity, so
        // ceiling overshoots a host and the repair rounds (extra_caps) run.
        let univ1 = zoo::univ1();
        let orch = ResourceOrchestrator::with_uniform_hosts(&univ1, 64);
        let rounds = assert_reduced_matches_full(&gravity_classes(&univ1, 9_000.0, 0, 8), &orch);
        assert!(rounds > 0, "UNIV1 at 9 Gbps no longer needs a repair round");
        // Busiest host down: its q upper bounds drop to zero in both models.
        let classes = gravity_classes(&internet2, 3_000.0, 11, 8);
        let mut orch = ResourceOrchestrator::with_uniform_hosts(&internet2, 64);
        let probe = OptimizationEngine::default()
            .place(&classes, &orch)
            .unwrap();
        let busy = probe.q_entries().next().expect("nonempty plan").0;
        orch.fail_host(busy).expect("host up");
        assert_reduced_matches_full(&classes, &orch);
    }

    /// Classes over the whole 3-switch line, one per `(rate, chain)`.
    fn line_classes(specs: &[(f64, &[NfType])]) -> (ClassSet, ResourceOrchestrator) {
        let (_topo, base, orch) = tiny();
        let classes = specs
            .iter()
            .enumerate()
            .map(|(h, (rate, chain))| EquivalenceClass {
                id: ClassId(h),
                rate_mbps: *rate,
                chain: PolicyChain::new(chain.to_vec()).unwrap(),
                ..base.classes()[0].clone()
            })
            .collect();
        (ClassSet::from_classes(classes), orch)
    }

    /// Fixed counts from `(switch, NF, count)` triples.
    fn counts(entries: &[(usize, NfType, u32)]) -> Counts {
        entries
            .iter()
            .map(|&(v, nf, c)| ((v, nf.index()), c))
            .collect()
    }

    fn lp_feasible(classes: &ClassSet, orch: &ResourceOrchestrator, q: &Counts) -> bool {
        let engine = OptimizationEngine::default();
        let (model, _) = engine.build_model(classes, orch, QMode::Fixed(q));
        solve_decomposed(&model, &SimplexOptions::default(), None).is_ok()
    }

    #[test]
    fn certificate_rejects_a_pure_capacity_deficit() {
        // 2 Gbps through firewalls at two switches: 1.8 Gbps of capacity.
        let (classes, orch) = line_classes(&[(2_000.0, &[Fw])]);
        let q = counts(&[(0, Fw, 1), (1, Fw, 1)]);
        assert!(certify_reject(&classes, &q, Fw.index()));
        assert!(!lp_feasible(&classes, &orch, &q));
        // One more instance covers it, and the certificate steps aside.
        let q = counts(&[(0, Fw, 2), (1, Fw, 1)]);
        assert!(!certify_reject(&classes, &q, Fw.index()));
        assert!(lp_feasible(&classes, &orch, &q));
    }

    #[test]
    fn chain_order_windows_catch_an_order_only_deficit() {
        // FW → IDS, but the only IDS sits upstream of the only FW: each NF
        // alone has room for the class, its chain order has none.
        let (classes, orch) = line_classes(&[(100.0, &[Fw, Ids])]);
        let q = counts(&[(2, Fw, 1), (0, Ids, 1)]);
        // Without windows each NF alone ships the whole class to its one
        // instance.
        for nf in [Fw, Ids] {
            let cap = VnfSpec::of(nf).capacity_mbps;
            assert_eq!(transport_flow(&[(100.0, vec![0])], &[cap]), 100.0);
        }
        // With them, IDS may only sit at or after the first FW (switch 2),
        // and FW at or before the last IDS (switch 0).
        let count = |v: NodeId, n: NfType| q.get(&(v.0, n.index())).copied().unwrap_or(0);
        let class = &classes.classes()[0];
        assert_eq!(stage_window(class, 1, count), 2..=2);
        assert_eq!(stage_window(class, 0, count), 0..=0);
        assert!(certify_reject(&classes, &q, Fw.index()));
        assert!(certify_reject(&classes, &q, Ids.index()));
        assert!(!lp_feasible(&classes, &orch, &q));
    }

    #[test]
    fn certificate_leaves_a_feasible_candidate_undecided() {
        let (classes, orch) = line_classes(&[(500.0, &[Fw, Ids]), (300.0, &[Ids])]);
        let q = counts(&[(0, Fw, 1), (1, Ids, 1), (2, Ids, 1)]);
        assert!(!certify_reject(&classes, &q, Fw.index()));
        assert!(!certify_reject(&classes, &q, Ids.index()));
        assert!(lp_feasible(&classes, &orch, &q));
    }

    #[test]
    fn zero_rate_class_needs_no_capacity() {
        // The idle class's FW stage has no instance anywhere; Eq. (5) with
        // T_h = 0 still holds, and the certificate must not object.
        let (classes, orch) = line_classes(&[(0.0, &[Fw, Ids]), (400.0, &[Ids])]);
        let q = counts(&[(1, Ids, 1)]);
        assert!(!certify_reject(&classes, &q, Fw.index()));
        assert!(!certify_reject(&classes, &q, Ids.index()));
        assert!(lp_feasible(&classes, &orch, &q));
    }

    #[test]
    fn stage_without_capacity_on_the_path_empties_the_window() {
        // FW has room, but no IDS exists on the path: the FW stage's window
        // is empty and the candidate is rejected for FW's sake as well.
        let (classes, orch) = line_classes(&[(100.0, &[Fw, Ids])]);
        let q = counts(&[(0, Fw, 1), (1, Fw, 1)]);
        let count = |v: NodeId, n: NfType| q.get(&(v.0, n.index())).copied().unwrap_or(0);
        assert!(stage_window(&classes.classes()[0], 0, count).is_empty());
        assert!(certify_reject(&classes, &q, Fw.index()));
        assert!(!lp_feasible(&classes, &orch, &q));
    }

    #[test]
    fn transport_flow_is_the_bipartite_max_flow() {
        // Two demands sharing one sink: min cut is the shared sink plus the
        // second demand's private one.
        let flow = transport_flow(&[(5.0, vec![0]), (4.0, vec![0, 1])], &[6.0, 1.5]);
        assert!((flow - 7.5).abs() < 1e-12, "{flow}");
        // Augmenting through a reverse edge: greedy would strand demand 1.
        let flow = transport_flow(&[(3.0, vec![0, 1]), (3.0, vec![0])], &[3.0, 3.0]);
        assert!((flow - 6.0).abs() < 1e-12, "{flow}");
        assert_eq!(transport_flow(&[(2.0, vec![])], &[]), 0.0);
    }

    /// Runs `work` with the certificate oracle armed and returns every
    /// consolidation candidate's verdicts.
    fn oracle_verdicts(work: impl FnOnce()) -> Vec<OracleVerdict> {
        ORACLE.with(|log| *log.borrow_mut() = Some(Vec::new()));
        work();
        ORACLE.with(|log| log.borrow_mut().take()).expect("armed")
    }

    /// The online loop's periodic re-solves over the `online-resolve`
    /// regime (Internet2, 40 heaviest pairs, 5 Mbps flows, a re-solve every
    /// 50 events), 12 virtual seconds of it: many small classes, which is
    /// where the order-driven rejects the windows exist for occur.
    fn online_resolves() {
        use crate::online::{OnlineConfig, OrchestrationLoop};
        use apple_traffic::arrivals::{ArrivalConfig, EventTimeline};
        let topo = zoo::internet2();
        let mut pairs = GravityModel::new(1.0, 0).ranked_pairs(&topo);
        pairs.truncate(40);
        let arrivals = ArrivalConfig {
            arrival_rate: 0.6,
            mean_duration_secs: 5.0,
            mean_rate_mbps: 5.0,
            seed: 1,
        };
        let cfg = OnlineConfig {
            resolve_every: 50,
            max_churn: 64,
            ..Default::default()
        };
        let orch = ResourceOrchestrator::with_uniform_hosts(&topo, 64);
        let mut looper = OrchestrationLoop::new(&topo, orch, cfg);
        for e in EventTimeline::generate(&pairs, &arrivals, 12.0).events() {
            looper.step(e, &NOOP);
        }
        assert!(looper.resolves() > 0);
    }

    /// Neither certificate ever disagrees with the LP it replaces: no
    /// certified reject is LP-feasible, and every certified accept's
    /// patched `d` satisfies the fixed-`q` model to within 1e-6, on every
    /// scenario family the relaxation oracle uses plus GEANT and AS-3679.
    /// Every final placement passes [`verify_placement`]. On Internet2 the
    /// reject certificate must also catch most of the LP's rejects, or it
    /// saves nothing, and the accept certificate must decide some accepts.
    #[test]
    fn consolidation_certificates_agree_with_the_lp() {
        use crate::verify::verify_placement;
        let internet2 = zoo::internet2();
        let orch = ResourceOrchestrator::with_uniform_hosts(&internet2, 64);
        let mut scenarios = Vec::new();
        let mut family = |name: &str, topo: &apple_topology::Topology, load, seeds, size| {
            for seed in seeds {
                scenarios.push((
                    format!("{name} seed {seed}"),
                    gravity_classes(topo, load, seed, size),
                    ResourceOrchestrator::with_uniform_hosts(topo, 64),
                ));
            }
        };
        family("internet2", &internet2, 7_000.0, 0..8, 30);
        family("univ1 9 Gbps", &zoo::univ1(), 9_000.0, 0..4, 8);
        family("geant", &zoo::geant(), 12_000.0, 0..2, 30);
        family("as3679", &zoo::as3679(), 6_000.0, 0..2, 24);
        let classes = gravity_classes(&internet2, 3_000.0, 11, 8);
        let mut down = orch.clone();
        let busy = OptimizationEngine::default()
            .place(&classes, &down)
            .unwrap()
            .q_entries()
            .next()
            .expect("nonempty plan")
            .0;
        down.fail_host(busy).expect("host up");
        scenarios.push(("internet2 host down".into(), classes, down));

        let (mut rejects, mut caught, mut accepts) = (0, 0, 0);
        let mut check = |name: &str, verdicts: Vec<OracleVerdict>| {
            for v in &verdicts {
                assert!(
                    !(v.rejected && v.lp_feasible),
                    "{name}: certified a feasible candidate infeasible: {v:?}"
                );
                if let Some(violation) = v.accept_violation {
                    assert!(
                        violation <= 1e-6 && v.lp_feasible,
                        "{name}: wrong accept: {v:?}"
                    );
                }
            }
            if name.starts_with("internet2") {
                rejects += verdicts.iter().filter(|v| !v.lp_feasible).count();
                caught += verdicts.iter().filter(|v| v.rejected).count();
                accepts += verdicts
                    .iter()
                    .filter(|v| v.accept_violation.is_some())
                    .count();
            }
        };
        for (name, classes, orch) in &scenarios {
            let mut placement = None;
            let verdicts = oracle_verdicts(|| {
                placement = Some(
                    OptimizationEngine::default()
                        .place(classes, orch)
                        .expect("placement"),
                );
            });
            check(name, verdicts);
            let violations = verify_placement(classes, &placement.unwrap(), orch, 1e-6);
            assert!(violations.is_empty(), "{name}: {violations:?}");
        }
        check(
            "internet2 online re-solves",
            oracle_verdicts(online_resolves),
        );
        assert!(rejects > 0, "no Internet2 reject to certify");
        assert!(
            caught as f64 >= 0.85 * rejects as f64,
            "Internet2: caught {caught} of {rejects} LP rejects"
        );
        assert!(accepts > 0, "no Internet2 accept certified");
    }

    /// Classes with their own paths, one per `(path, rate, chain)`.
    fn path_classes(specs: &[(&[usize], f64, &[NfType])]) -> ClassSet {
        let (_topo, base, _orch) = tiny();
        let classes = specs
            .iter()
            .enumerate()
            .map(|(h, (path, rate, chain))| EquivalenceClass {
                id: ClassId(h),
                path: Path::new(path.iter().map(|&v| NodeId(v)).collect()).unwrap(),
                rate_mbps: *rate,
                chain: PolicyChain::new(chain.to_vec()).unwrap(),
                ..base.classes()[0].clone()
            })
            .collect();
        ClassSet::from_classes(classes)
    }

    /// Runs the accept certificate for removing one instance at `key`
    /// from `q` under `d`, and checks any patched `d` against the
    /// fixed-`q` model of the reduced counts.
    fn accept(
        classes: &ClassSet,
        q: &Counts,
        d: &[Vec<f64>],
        key: (usize, NfType),
    ) -> Option<Vec<Vec<f64>>> {
        let key = (key.0, key.1.index());
        let mut q_try = q.clone();
        *q_try.get_mut(&key).expect("candidate exists") -= 1;
        let patched = certify_accept(classes, &q_try, d, &loads(classes, d), key)?;
        let violation =
            OptimizationEngine::default().fixed_q_violation(classes, &tiny().2, &q_try, &patched);
        assert!(violation <= 1e-9, "patched d: {patched:?}");
        Some(patched)
    }

    #[test]
    fn accept_moves_a_whole_chain_to_another_switch() {
        // FW → IDS, both at switch 1; switch 2 hosts both as well. With the
        // FW at switch 1 gone, the IDS cannot stay upstream of its FW, so
        // the whole chain moves to switch 2.
        let (classes, _orch) = line_classes(&[(100.0, &[Fw, Ids])]);
        let q = counts(&[(1, Fw, 1), (1, Ids, 1), (2, Fw, 1), (2, Ids, 1)]);
        let d = vec![vec![0.0, 0.0, 1.0, 1.0, 0.0, 0.0]];
        let patched = accept(&classes, &q, &d, (1, Fw)).expect("certified");
        assert_eq!(patched, vec![vec![0.0, 0.0, 0.0, 0.0, 1.0, 1.0]]);
    }

    #[test]
    fn accept_moves_only_the_overflow() {
        // 1.2 Gbps through two firewalls at switch 0; one of them goes, and
        // the 300 Mbps that no longer fit spill to switch 1.
        let (classes, _orch) = line_classes(&[(1_200.0, &[Fw])]);
        let q = counts(&[(0, Fw, 2), (1, Fw, 1)]);
        let patched = accept(&classes, &q, &[vec![1.0, 0.0, 0.0]], (0, Fw)).expect("certified");
        assert!((patched[0][0] - 0.75).abs() < 1e-12, "{patched:?}");
        assert!((patched[0][1] - 0.25).abs() < 1e-12, "{patched:?}");
    }

    #[test]
    fn accept_leaves_a_zero_rate_class_in_place() {
        // The idle class sits on the removed firewall; it loads nothing
        // there, so only the 500 Mbps class moves.
        let (classes, _orch) = line_classes(&[(0.0, &[Fw]), (500.0, &[Fw])]);
        let q = counts(&[(0, Fw, 1), (1, Fw, 1)]);
        let d = vec![vec![1.0, 0.0, 0.0], vec![1.0, 0.0, 0.0]];
        let patched = accept(&classes, &q, &d, (0, Fw)).expect("certified");
        assert_eq!(patched, vec![vec![1.0, 0.0, 0.0], vec![0.0, 1.0, 0.0]]);
    }

    #[test]
    fn accept_leaves_a_swap_to_the_lp() {
        // A (switches 0-1) must leave switch 0 for switch 1, where B
        // (switches 1-2) leaves too little room. The candidate is feasible
        // once B moves on to switch 2, but the certificate moves only the
        // classes on the removed instance, so it decides nothing.
        let classes = path_classes(&[(&[0, 1], 600.0, &[Fw]), (&[1, 2], 600.0, &[Fw])]);
        let orch = tiny().2;
        let q = counts(&[(0, Fw, 1), (1, Fw, 1), (2, Fw, 1)]);
        let d = vec![vec![1.0, 0.0], vec![1.0, 0.0]];
        assert!(accept(&classes, &q, &d, (0, Fw)).is_none());
        let q_try = counts(&[(1, Fw, 1), (2, Fw, 1)]);
        assert!(!certify_reject(&classes, &q_try, Fw.index()));
        assert!(lp_feasible(&classes, &orch, &q_try));
    }

    /// Consolidation is an optimisation, not a correctness fix: the raw
    /// ceiling of the (repaired) relaxation already satisfies the whole
    /// formulation.
    #[test]
    fn raw_ceiling_is_a_valid_placement() {
        use crate::verify::verify_placement;
        let topo = zoo::geant();
        let classes = gravity_classes(&topo, 2_500.0, 10, 20);
        let orch = ResourceOrchestrator::with_uniform_hosts(&topo, 64);
        let engine = OptimizationEngine::default();
        let mut cache = WarmCache::default();
        let (q, sol, vmap) = engine
            .relax_and_round(&classes, &orch, &NOOP, &mut cache)
            .expect("relaxation");
        let d = d_grid(&vmap, sol.values());
        let raw = assemble(&classes, &q, &d, sol.objective(), Instant::now(), 0);
        let violations = verify_placement(&classes, &raw, &orch, 1e-6);
        assert!(violations.is_empty(), "{violations:?}");
        let consolidated = engine.place(&classes, &orch).expect("placement");
        assert!(consolidated.total_instances() <= raw.total_instances());
    }

    #[test]
    fn internet2_end_to_end_placement() {
        let topo = zoo::internet2();
        let classes = gravity_classes(&topo, 3_000.0, 5, 20);
        let orch = ResourceOrchestrator::with_uniform_hosts(&topo, 64);
        let engine = OptimizationEngine::new(EngineConfig::default());
        let p = engine.place(&classes, &orch).unwrap();
        assert!(p.total_instances() > 0);
        assert!(p.rounding_gap() >= -1e-6);
        assert!(p.total_cores() > 0);
        assert!(p.solve_time().as_nanos() > 0);
        // Multiplexing: fewer instances than sum of per-class lower bounds
        // placed independently (instances are shared across classes).
        let naive: u32 = classes.iter().map(|c| c.chain.len() as u32).sum();
        assert!(
            p.total_instances() < naive,
            "no multiplexing: {} vs naive {}",
            p.total_instances(),
            naive
        );
    }
}
