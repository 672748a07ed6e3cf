//! Connected-component decomposition and block-by-block solve.
//!
//! The placement LPs APPLE generates are *nearly* block-diagonal: the
//! per-class chain-order and coverage rows (Eq. 2–4) never couple classes,
//! and most of the coupling rows (host resources, capacity caps) are
//! provably slack at every feasible point. This module turns that structure
//! into wall-clock wins in three exact steps:
//!
//! 1. [`strip_forced_slack_rows`] drops every inequality row whose
//!    left-hand side, maximised (resp. minimised) over the variable bound
//!    box, cannot reach the right-hand side — such a row is satisfied by
//!    *every* point in the box, so removing it changes neither the feasible
//!    set nor the optimum (its dual is 0).
//! 2. [`Decomposition::of`] runs a union–find pass over the
//!    variable/constraint incidence graph: variables sharing a row join one
//!    component, each component becomes an independent sub-[`Model`]
//!    (*block*), and variables appearing in no row are *pinned* analytically
//!    to the bound their objective coefficient favours.
//! 3. [`Decomposition::solve`] solves the blocks one after another and
//!    merges the block optima back into the original variable space.
//!    Independence makes the merge exact: the union of block optima is an
//!    optimum of the whole model, and the merged duals (block duals where
//!    kept, 0 for stripped rows) certify it. There is no worker pool: the
//!    placement LPs either shatter into blocks of a fraction of a
//!    millisecond each or stay one coupled block (DESIGN.md §8).
//!
//! A [`WarmCache`] keyed by a structural fingerprint of each block lets
//! re-solves skip every block the caller did not touch — the Dynamic
//! Handler's post-crash re-solves and the engine's consolidation descent
//! re-solve models that differ from the previous call in a handful of rows,
//! so most blocks hit.
//!
//! [`solve_decomposed`] bundles the three steps (strip → split → solve) and
//! is the entry point the Optimization Engine uses.
//!
//! # Example
//!
//! ```
//! use apple_lp::{Cmp, Model, Sense};
//! use apple_lp::decompose::{solve_decomposed, WarmCache};
//! use apple_lp::SimplexOptions;
//!
//! // Two independent sub-problems in one model.
//! let mut m = Model::new(Sense::Min);
//! let x = m.add_var("x", 0.0, 10.0, 1.0);
//! let y = m.add_var("y", 0.0, 10.0, 2.0);
//! m.add_constraint([(x, 1.0)], Cmp::Ge, 3.0)?;
//! m.add_constraint([(y, 1.0)], Cmp::Ge, 4.0)?;
//! let mut cache = WarmCache::default();
//! let (sol, stats) = solve_decomposed(&m, &SimplexOptions::default(), Some(&mut cache))?;
//! assert_eq!(stats.blocks, 2);
//! assert!((sol.objective() - 11.0).abs() < 1e-9);
//! // A second solve of the same model hits the cache for every block.
//! let (_, stats2) = solve_decomposed(&m, &SimplexOptions::default(), Some(&mut cache))?;
//! assert_eq!(stats2.warm_hits, 2);
//! # Ok::<(), apple_lp::LpError>(())
//! ```

use crate::model::{Cmp, Model, Sense, Var};
use crate::simplex::SimplexOptions;
use crate::solution::{LpError, Solution, SolveStats};
use std::collections::HashMap;
use std::time::Instant;

/// Outcome statistics of one decomposed solve.
#[derive(Debug, Clone, Default)]
pub struct DecomposedStats {
    /// Number of independent blocks (after stripping).
    pub blocks: usize,
    /// Variables in the largest block.
    pub largest_block_vars: usize,
    /// Inequality rows dropped by [`strip_forced_slack_rows`].
    pub dropped_rows: usize,
    /// Variables pinned analytically (no row references them).
    pub pinned_vars: usize,
    /// Blocks answered from the [`WarmCache`].
    pub warm_hits: usize,
    /// Blocks actually solved this call.
    pub warm_misses: usize,
    /// Simplex pivots summed over solved blocks.
    pub pivots: usize,
    /// Simplex pivots per block in block order (warm hits report the
    /// pivot count of the cached solve).
    pub block_pivots: Vec<usize>,
}

/// A model with its forced-slack inequality rows removed.
///
/// `kept_rows[i]` is the original row index of the stripped model's row
/// `i`; dropped rows have dual 0 in any optimal basis of the stripped
/// model lifted back to the original.
#[derive(Debug, Clone)]
pub struct StrippedModel {
    /// The smaller model (same variables, fewer rows).
    pub model: Model,
    /// Original constraint index per surviving row.
    pub kept_rows: Vec<usize>,
    /// Number of rows dropped.
    pub dropped: usize,
}

/// Drops every inequality row that no point of the variable bound box can
/// violate.
///
/// For a `≤` row the left-hand side is maximised over the bounds
/// (positive coefficients at upper bounds, negative at lower); if even
/// that maximum stays `≤ rhs`, the row is implied by the bounds and can be
/// removed without changing the feasible set. `≥` rows are handled
/// symmetrically; `=` rows are never dropped. Rows with an infinite bound
/// in the relevant direction are conservatively kept.
pub fn strip_forced_slack_rows(model: &Model) -> StrippedModel {
    let mut out = Model::new(model.sense);
    for def in &model.vars {
        if def.integer {
            out.add_int_var(def.name.clone(), def.lower, def.upper, def.obj);
        } else {
            out.add_var(def.name.clone(), def.lower, def.upper, def.obj);
        }
    }
    let mut kept_rows = Vec::with_capacity(model.constraints.len());
    let mut dropped = 0usize;
    for (ri, c) in model.constraints.iter().enumerate() {
        let norm = c.expr.normalized();
        let rhs = c.rhs - norm.constant_value();
        let removable = match c.cmp {
            Cmp::Eq => false,
            Cmp::Le => {
                let max_lhs: f64 = norm
                    .terms()
                    .iter()
                    .map(|&(v, coeff)| {
                        let d = &model.vars[v.index()];
                        coeff * if coeff > 0.0 { d.upper } else { d.lower }
                    })
                    .sum();
                max_lhs.is_finite() && max_lhs <= rhs + 1e-9
            }
            Cmp::Ge => {
                let min_lhs: f64 = norm
                    .terms()
                    .iter()
                    .map(|&(v, coeff)| {
                        let d = &model.vars[v.index()];
                        coeff * if coeff > 0.0 { d.lower } else { d.upper }
                    })
                    .sum();
                min_lhs.is_finite() && min_lhs >= rhs - 1e-9
            }
        };
        if removable {
            dropped += 1;
        } else {
            out.add_constraint(c.expr.clone(), c.cmp, c.rhs)
                .expect("row was valid in the source model");
            kept_rows.push(ri);
        }
    }
    StrippedModel {
        model: out,
        kept_rows,
        dropped,
    }
}

/// One independent block of a decomposed model.
#[derive(Debug, Clone)]
pub struct Block {
    /// The self-contained sub-model.
    pub model: Model,
    /// Global variable index per block-local variable.
    pub vars: Vec<usize>,
    /// Global constraint index per block-local row.
    pub rows: Vec<usize>,
}

/// How an isolated variable (referenced by no row) is resolved.
#[derive(Debug, Clone, Copy)]
enum Pin {
    Value(f64),
    Unbounded,
}

/// A partition of a model into independent blocks.
///
/// Build with [`Decomposition::of`]; solve with [`Decomposition::solve`].
#[derive(Debug, Clone)]
pub struct Decomposition {
    blocks: Vec<Block>,
    /// `(global var index, pinned value)` for variables in no constraint.
    pinned: Vec<(usize, Pin)>,
    n_vars: usize,
    n_rows: usize,
}

fn find(parent: &mut [usize], x: usize) -> usize {
    let mut root = x;
    while parent[root] != root {
        root = parent[root];
    }
    let mut cur = x;
    while parent[cur] != root {
        let next = parent[cur];
        parent[cur] = root;
        cur = next;
    }
    root
}

fn union(parent: &mut [usize], a: usize, b: usize) {
    let (ra, rb) = (find(parent, a), find(parent, b));
    if ra != rb {
        parent[ra.max(rb)] = ra.min(rb);
    }
}

impl Decomposition {
    /// Splits `model` into connected components of its variable/constraint
    /// incidence graph.
    ///
    /// Zero coefficients do not couple (rows are normalised first).
    /// Variables referenced by no row become *pinned*: the objective
    /// direction chooses the bound they sit at, exactly as a simplex solve
    /// of the full model would leave them.
    pub fn of(model: &Model) -> Decomposition {
        let n = model.vars.len();
        let mut parent: Vec<usize> = (0..n).collect();
        let normalized: Vec<_> = model
            .constraints
            .iter()
            .map(|c| c.expr.normalized())
            .collect();
        for norm in &normalized {
            let mut it = norm.terms().iter();
            if let Some(&(first, _)) = it.next() {
                for &(v, _) in it {
                    union(&mut parent, first.index(), v.index());
                }
            }
        }
        // Map components (by root) to dense block ids in ascending order of
        // their smallest variable — deterministic.
        let mut in_row = vec![false; n];
        for norm in &normalized {
            for &(v, _) in norm.terms() {
                in_row[v.index()] = true;
            }
        }
        let mut block_of_root: HashMap<usize, usize> = HashMap::new();
        let mut blocks_vars: Vec<Vec<usize>> = Vec::new();
        let mut pinned = Vec::new();
        for (i, &used) in in_row.iter().enumerate() {
            if !used {
                pinned.push((i, Self::pin(model, i)));
                continue;
            }
            let root = find(&mut parent, i);
            let bid = *block_of_root.entry(root).or_insert_with(|| {
                blocks_vars.push(Vec::new());
                blocks_vars.len() - 1
            });
            blocks_vars[bid].push(i);
        }
        // Assemble sub-models.
        let mut local_of = vec![usize::MAX; n];
        let mut blocks: Vec<Block> = blocks_vars
            .into_iter()
            .map(|vars| {
                let mut sub = Model::new(model.sense);
                for (local, &g) in vars.iter().enumerate() {
                    local_of[g] = local;
                    let d = &model.vars[g];
                    if d.integer {
                        sub.add_int_var(d.name.clone(), d.lower, d.upper, d.obj);
                    } else {
                        sub.add_var(d.name.clone(), d.lower, d.upper, d.obj);
                    }
                }
                Block {
                    model: sub,
                    vars,
                    rows: Vec::new(),
                }
            })
            .collect();
        for (ri, norm) in normalized.iter().enumerate() {
            let Some(&(first, _)) = norm.terms().first() else {
                // Empty row: constant-only, belongs to no block. It is
                // feasibility-checked by `Model::solve_lp` and by
                // `Model::max_violation`; the engine never emits one, so we
                // simply skip it here (a violated empty row would make the
                // whole model infeasible — callers with such models must
                // use `Model::solve_lp`).
                continue;
            };
            let bid = block_of_root[&find(&mut parent, first.index())];
            let block = &mut blocks[bid];
            let terms: Vec<(Var, f64)> = norm
                .terms()
                .iter()
                .map(|&(v, coeff)| (Var(local_of[v.index()]), coeff))
                .collect();
            let c = &model.constraints[ri];
            block
                .model
                .add_constraint(terms, c.cmp, c.rhs - norm.constant_value())
                .expect("row was valid in the source model");
            block.rows.push(ri);
        }
        Decomposition {
            blocks,
            pinned,
            n_vars: n,
            n_rows: model.constraints.len(),
        }
    }

    fn pin(model: &Model, i: usize) -> Pin {
        let d = &model.vars[i];
        let improving_down = match model.sense {
            Sense::Min => d.obj >= 0.0,
            Sense::Max => d.obj <= 0.0,
        };
        let target = if improving_down { d.lower } else { d.upper };
        if target.is_finite() {
            Pin::Value(target)
        } else if d.obj == 0.0 {
            // Indifferent: any finite point works.
            let fallback = if d.lower.is_finite() {
                d.lower
            } else if d.upper.is_finite() {
                d.upper
            } else {
                0.0
            };
            Pin::Value(fallback)
        } else {
            Pin::Unbounded
        }
    }

    /// The independent blocks, in deterministic order.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Variables pinned analytically (in no constraint row).
    pub fn pinned_count(&self) -> usize {
        self.pinned.len()
    }

    /// Solves all blocks and merges the optima into a [`Solution`] in the
    /// original variable space of `model` (which must be the model this
    /// decomposition was built from, or the stripped twin sharing its
    /// variable layout).
    ///
    /// Blocks are solved in block order with `simplex` options; with a
    /// `cache`, blocks whose structural fingerprint matches a previous
    /// solve are answered without pivoting.
    ///
    /// # Errors
    ///
    /// The error of the lowest-indexed failing block
    /// ([`LpError::Infeasible`], [`LpError::Unbounded`] or
    /// [`LpError::IterationLimit`]), or [`LpError::Unbounded`] when a
    /// pinned variable improves toward an infinite bound.
    pub fn solve(
        &self,
        model: &Model,
        simplex: &SimplexOptions,
        mut cache: Option<&mut WarmCache>,
    ) -> Result<(Solution, DecomposedStats), LpError> {
        assert_eq!(
            model.vars.len(),
            self.n_vars,
            "model/decomposition mismatch"
        );
        let start = Instant::now();
        let mut stats = DecomposedStats {
            blocks: self.blocks.len(),
            pinned_vars: self.pinned.len(),
            ..DecomposedStats::default()
        };
        for b in &self.blocks {
            stats.largest_block_vars = stats.largest_block_vars.max(b.model.var_count());
        }

        // Answer each block from the cache, or solve and remember it.
        let mut results: Vec<Result<BlockResult, LpError>> = Vec::with_capacity(self.blocks.len());
        for b in &self.blocks {
            let fp = fingerprint(&b.model);
            if let Some(hit) = cache.as_ref().and_then(|c| c.entries.get(&fp)) {
                stats.warm_hits += 1;
                results.push(hit.clone());
                continue;
            }
            stats.warm_misses += 1;
            let r = solve_block(b, simplex);
            if let Some(c) = cache.as_mut() {
                c.insert(fp, &r);
            }
            results.push(r);
        }
        if let Some(c) = cache.as_mut() {
            c.hits += stats.warm_hits as u64;
            c.misses += stats.warm_misses as u64;
        }

        // Merge in block order, reporting the lowest-indexed error.
        let mut values = vec![0.0; self.n_vars];
        for &(g, pin) in &self.pinned {
            match pin {
                Pin::Value(v) => values[g] = v,
                Pin::Unbounded => return Err(LpError::Unbounded),
            }
        }
        let mut duals = vec![0.0; self.n_rows];
        let mut agg = SolveStats::default();
        for (b, r) in self.blocks.iter().zip(results) {
            let r = r?;
            for (local, &g) in b.vars.iter().enumerate() {
                values[g] = r.values[local];
            }
            if let Some(block_duals) = &r.duals {
                for (local, &ri) in b.rows.iter().enumerate() {
                    duals[ri] = block_duals[local];
                }
            }
            agg.pivots += r.stats.pivots;
            agg.phase1_pivots += r.stats.phase1_pivots;
            agg.build_elapsed += r.stats.build_elapsed;
            agg.phase1_elapsed += r.stats.phase1_elapsed;
            stats.block_pivots.push(r.stats.pivots);
        }
        stats.pivots = agg.pivots;
        agg.elapsed = start.elapsed();
        let objective = model.objective_of(&values);
        let sol = Solution::assemble(values, objective, agg).with_duals(duals);
        Ok((sol, stats))
    }
}

/// One solved block, in block-local variable space.
#[derive(Debug, Clone)]
struct BlockResult {
    values: Vec<f64>,
    duals: Option<Vec<f64>>,
    stats: SolveStats,
}

fn solve_block(block: &Block, simplex: &SimplexOptions) -> Result<BlockResult, LpError> {
    let sol = block.model.solve_lp_with(*simplex)?;
    Ok(BlockResult {
        values: sol.values().to_vec(),
        duals: sol.duals().map(<[f64]>::to_vec),
        stats: sol.stats(),
    })
}

/// Content-addressed cache of solved blocks.
///
/// Keys are structural fingerprints ([`fingerprint`]) covering sense,
/// bounds, objective coefficients and every row — two blocks collide only
/// if they describe the *same* LP, in which case reusing the solution is
/// exact. Failed solves (infeasible / unbounded blocks) are cached too, so
/// repeated feasibility probes of an unchanged block cost nothing.
#[derive(Debug, Default)]
pub struct WarmCache {
    entries: HashMap<u128, Result<BlockResult, LpError>>,
    /// Lifetime block-level cache hits.
    pub hits: u64,
    /// Lifetime block-level cache misses.
    pub misses: u64,
}

impl WarmCache {
    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops all cached blocks (the hit/miss counters survive).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    fn insert(&mut self, fp: u128, r: &Result<BlockResult, LpError>) {
        // Unbounded caps memory growth on pathological churn.
        if self.entries.len() >= 65_536 {
            self.entries.clear();
        }
        self.entries.insert(fp, r.clone());
    }
}

/// Structural fingerprint of a model: two independent 64-bit FNV-1a streams
/// over sense, variable definitions (bounds, objective, integrality) and
/// normalised rows. Variable names are excluded — reproducibly rebuilt
/// blocks hash identically even if display names change.
pub fn fingerprint(model: &Model) -> u128 {
    let mut a = Fnv::new(0xcbf2_9ce4_8422_2325);
    let mut b = Fnv::new(0x9ae1_6a3b_2f90_404f);
    let mut word = |w: u64| {
        a.write(w);
        b.write(w ^ 0xa5a5_a5a5_a5a5_a5a5);
    };
    word(match model.sense {
        Sense::Min => 1,
        Sense::Max => 2,
    });
    word(model.vars.len() as u64);
    for d in &model.vars {
        word(d.lower.to_bits());
        word(d.upper.to_bits());
        word(d.obj.to_bits());
        word(u64::from(d.integer));
    }
    word(model.constraints.len() as u64);
    for c in &model.constraints {
        word(match c.cmp {
            Cmp::Le => 3,
            Cmp::Ge => 4,
            Cmp::Eq => 5,
        });
        word(c.rhs.to_bits());
        let norm = c.expr.normalized();
        word(norm.constant_value().to_bits());
        for &(v, coeff) in norm.terms() {
            word(v.index() as u64);
            word(coeff.to_bits());
        }
    }
    (u128::from(a.0) << 64) | u128::from(b.0)
}

struct Fnv(u64);

impl Fnv {
    fn new(seed: u64) -> Fnv {
        Fnv(seed)
    }

    fn write(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Strip → split → solve, the bundled entry point.
///
/// Equivalent to [`strip_forced_slack_rows`] + [`Decomposition::of`] +
/// [`Decomposition::solve`], with duals lifted back to the *original* row
/// indexing (stripped rows report dual 0, which is exact — they are slack
/// at every feasible point).
///
/// # Errors
///
/// Same as [`Decomposition::solve`].
pub fn solve_decomposed(
    model: &Model,
    simplex: &SimplexOptions,
    cache: Option<&mut WarmCache>,
) -> Result<(Solution, DecomposedStats), LpError> {
    let stripped = strip_forced_slack_rows(model);
    let decomp = Decomposition::of(&stripped.model);
    let (sol, mut stats) = decomp.solve(&stripped.model, simplex, cache)?;
    stats.dropped_rows = stripped.dropped;
    // Lift duals from stripped to original rows; recompute the objective in
    // the original model's term order so it agrees bit-for-bit with
    // `Model::solve_lp` on identical value vectors.
    let mut duals = vec![0.0; model.constraint_count()];
    if let Some(stripped_duals) = sol.duals() {
        for (si, &ri) in stripped.kept_rows.iter().enumerate() {
            duals[ri] = stripped_duals[si];
        }
    }
    let objective = model.objective_of(sol.values());
    let lifted =
        Solution::assemble(sol.values().to_vec(), objective, sol.stats()).with_duals(duals);
    Ok((lifted, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Cmp, Model, Sense};

    fn close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-7, "{a} != {b}");
    }

    /// Deterministic LCG for random separable models.
    fn rng(state: &mut u64) -> f64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*state >> 33) as f64) / f64::from(u32::MAX)
    }

    #[test]
    fn two_independent_blocks_found_and_solved() {
        let mut m = Model::new(Sense::Min);
        let x = m.add_var("x", 0.0, 10.0, 1.0);
        let y = m.add_var("y", 0.0, 10.0, 2.0);
        let z = m.add_var("z", 0.0, 10.0, 3.0);
        m.add_constraint([(x, 1.0)], Cmp::Ge, 3.0).unwrap();
        m.add_constraint([(y, 1.0), (z, 1.0)], Cmp::Ge, 4.0)
            .unwrap();
        let d = Decomposition::of(&m);
        assert_eq!(d.blocks().len(), 2);
        let (sol, stats) = d.solve(&m, &SimplexOptions::default(), None).unwrap();
        close(sol.objective(), 3.0 + 2.0 * 4.0);
        assert_eq!(stats.blocks, 2);
        assert_eq!(stats.warm_misses, 2);
        close(sol.value(x), 3.0);
        close(sol.value(y), 4.0);
        close(sol.value(z), 0.0);
    }

    #[test]
    fn matches_monolithic_on_random_separable_models() {
        let mut state = 7u64;
        for trial in 0..15 {
            let mut m = Model::new(Sense::Min);
            let groups = 2 + trial % 4;
            let mut vars = Vec::new();
            for _ in 0..groups {
                let a = m.add_var("a", 0.0, 5.0, 0.5 + rng(&mut state));
                let b = m.add_var("b", 0.0, 5.0, 0.5 + rng(&mut state));
                m.add_constraint([(a, 1.0), (b, 1.0)], Cmp::Ge, 1.0 + 3.0 * rng(&mut state))
                    .unwrap();
                m.add_constraint([(a, 1.0), (b, 0.5)], Cmp::Le, 9.0)
                    .unwrap();
                vars.push((a, b));
            }
            let mono = m.solve_lp().unwrap();
            let (dec, stats) = solve_decomposed(&m, &SimplexOptions::default(), None).unwrap();
            close(mono.objective(), dec.objective());
            assert!(m.max_violation(dec.values()) < 1e-7, "trial {trial}");
            assert_eq!(stats.blocks, groups);
        }
    }

    #[test]
    fn strip_drops_only_unbindable_rows() {
        let mut m = Model::new(Sense::Min);
        let x = m.add_var("x", 0.0, 1.0, 1.0);
        let y = m.add_var("y", 0.0, 1.0, 1.0);
        m.add_constraint([(x, 1.0), (y, 1.0)], Cmp::Le, 5.0)
            .unwrap(); // max LHS 2 <= 5
        m.add_constraint([(x, 1.0), (y, 1.0)], Cmp::Ge, 1.0)
            .unwrap(); // can bind
        m.add_constraint([(x, 1.0), (y, -1.0)], Cmp::Ge, -2.0)
            .unwrap(); // min LHS -1 >= -2
        let s = strip_forced_slack_rows(&m);
        assert_eq!(s.dropped, 2);
        assert_eq!(s.kept_rows, vec![1]);
        let (sol, _) = solve_decomposed(&m, &SimplexOptions::default(), None).unwrap();
        close(sol.objective(), 1.0);
        // Dropped rows report zero duals at the original indices.
        let duals = sol.duals().unwrap();
        assert_eq!(duals.len(), 3);
        close(duals[0], 0.0);
        close(duals[2], 0.0);
    }

    #[test]
    fn equality_rows_never_stripped() {
        let mut m = Model::new(Sense::Min);
        let x = m.add_var("x", 0.0, 1.0, 1.0);
        m.add_constraint([(x, 1.0)], Cmp::Eq, 0.5).unwrap();
        assert_eq!(strip_forced_slack_rows(&m).dropped, 0);
    }

    #[test]
    fn pinned_variables_follow_objective_direction() {
        let mut m = Model::new(Sense::Min);
        let lo = m.add_var("lo", 1.0, 7.0, 2.0); // wants lower
        let hi = m.add_var("hi", 1.0, 7.0, -2.0); // wants upper
        let free = m.add_var("free", 3.0, 9.0, 0.0); // indifferent → lower
        let x = m.add_var("x", 0.0, 10.0, 1.0);
        m.add_constraint([(x, 1.0)], Cmp::Ge, 2.0).unwrap();
        let (sol, stats) = solve_decomposed(&m, &SimplexOptions::default(), None).unwrap();
        assert_eq!(stats.pinned_vars, 3);
        close(sol.value(lo), 1.0);
        close(sol.value(hi), 7.0);
        close(sol.value(free), 3.0);
        close(sol.value(x), 2.0);
    }

    #[test]
    fn pinned_variable_unbounded_detected() {
        let mut m = Model::new(Sense::Min);
        let _bad = m.add_var("bad", f64::NEG_INFINITY, 5.0, 1.0);
        let x = m.add_var("x", 0.0, 1.0, 1.0);
        m.add_constraint([(x, 1.0)], Cmp::Ge, 0.5).unwrap();
        assert_eq!(
            solve_decomposed(&m, &SimplexOptions::default(), None).map(|_| ()),
            Err(LpError::Unbounded)
        );
    }

    #[test]
    fn infeasible_block_reported() {
        let mut m = Model::new(Sense::Min);
        let x = m.add_var("x", 0.0, 1.0, 1.0);
        let y = m.add_var("y", 0.0, 10.0, 1.0);
        m.add_constraint([(x, 1.0)], Cmp::Ge, 5.0).unwrap(); // infeasible block
        m.add_constraint([(y, 1.0)], Cmp::Ge, 1.0).unwrap(); // fine
        assert_eq!(
            solve_decomposed(&m, &SimplexOptions::default(), None).map(|_| ()),
            Err(LpError::Infeasible)
        );
    }

    #[test]
    fn warm_cache_skips_unchanged_blocks() {
        let mut m = Model::new(Sense::Min);
        let x = m.add_var("x", 0.0, 10.0, 1.0);
        let y = m.add_var("y", 0.0, 10.0, 1.0);
        m.add_constraint([(x, 1.0)], Cmp::Ge, 2.0).unwrap();
        m.add_constraint([(y, 1.0)], Cmp::Ge, 3.0).unwrap();
        let mut cache = WarmCache::default();
        let (s1, st1) = solve_decomposed(&m, &SimplexOptions::default(), Some(&mut cache)).unwrap();
        assert_eq!((st1.warm_hits, st1.warm_misses), (0, 2));
        // Touch only y's block.
        let mut m2 = Model::new(Sense::Min);
        let x2 = m2.add_var("x", 0.0, 10.0, 1.0);
        let y2 = m2.add_var("y", 0.0, 10.0, 1.0);
        m2.add_constraint([(x2, 1.0)], Cmp::Ge, 2.0).unwrap();
        m2.add_constraint([(y2, 1.0)], Cmp::Ge, 4.0).unwrap();
        let (s2, st2) =
            solve_decomposed(&m2, &SimplexOptions::default(), Some(&mut cache)).unwrap();
        assert_eq!((st2.warm_hits, st2.warm_misses), (1, 1));
        close(s1.value(x), s2.value(x2));
        close(s2.value(y2), 4.0);
        assert_eq!(cache.hits, 1);
        assert_eq!(cache.misses, 3);
    }

    #[test]
    fn infeasible_results_are_cached_too() {
        let mut m = Model::new(Sense::Min);
        let x = m.add_var("x", 0.0, 1.0, 1.0);
        m.add_constraint([(x, 1.0)], Cmp::Ge, 5.0).unwrap();
        let mut cache = WarmCache::default();
        for _ in 0..2 {
            assert_eq!(
                solve_decomposed(&m, &SimplexOptions::default(), Some(&mut cache)).map(|_| ()),
                Err(LpError::Infeasible)
            );
        }
        assert_eq!((cache.hits, cache.misses), (1, 1));
    }

    #[test]
    fn fingerprint_distinguishes_rhs_and_bounds() {
        let build = |rhs: f64, ub: f64| {
            let mut m = Model::new(Sense::Min);
            let x = m.add_var("x", 0.0, ub, 1.0);
            m.add_constraint([(x, 1.0)], Cmp::Ge, rhs).unwrap();
            m
        };
        let base = fingerprint(&build(1.0, 5.0));
        assert_eq!(base, fingerprint(&build(1.0, 5.0)));
        assert_ne!(base, fingerprint(&build(2.0, 5.0)));
        assert_ne!(base, fingerprint(&build(1.0, 6.0)));
    }

    #[test]
    fn constraint_free_model_fully_pinned() {
        let mut m = Model::new(Sense::Min);
        let x = m.add_var("x", 2.0, 9.0, 1.0);
        let (sol, stats) = solve_decomposed(&m, &SimplexOptions::default(), None).unwrap();
        assert_eq!(stats.blocks, 0);
        assert_eq!(stats.pinned_vars, 1);
        close(sol.value(x), 2.0);
        close(sol.objective(), 2.0);
    }
}
