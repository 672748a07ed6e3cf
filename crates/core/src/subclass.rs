//! Sub-classes (§V-A): realising the Optimization Engine's fractional
//! spatial distribution as concrete per-flow assignments.
//!
//! Policy enforcement is per-flow even though the engine reasons per class,
//! so each class is partitioned into **sub-classes** — the aggregation of
//! flows that traverse the *same sequence of VNF locations*. Construction
//! proceeds in two steps:
//!
//! 1. **Monotone coupling.** Eq. (3) guarantees that the cumulative
//!    distribution of stage `j−1` over path positions dominates stage `j`'s
//!    at every prefix, so the inverse-CDF coupling over a shared uniform
//!    `u ∈ [0,1)` yields, at every breakpoint, a *non-decreasing* sequence
//!    of locations per stage — a valid sub-class whose fraction is the
//!    interval length.
//! 2. **Flow mapping.** A fraction interval becomes a set of source IP
//!    prefixes (`[0.5, 1.0)` of `10.1.1.0/24` is `10.1.1.128/25`), the
//!    method the paper uses because switches cannot hash. Prefix splitting
//!    may need several rules per sub-class — the TCAM cost Fig. 10's
//!    tagging scheme avoids re-paying at every hop.

use crate::classes::{ClassId, ClassSet, EquivalenceClass};
use crate::engine::Placement;
use std::fmt;

/// How sub-class membership is expressed in the data plane. Prefix
/// splitting is the only strategy; the enum stays because
/// [`SubclassPlan::derive`] takes it and callers outside this workspace
/// name its variant (ROADMAP item 9(a)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SplitStrategy {
    /// Dyadic source-prefix splitting — supported by every TCAM, at the
    /// cost of multiple rules per sub-class and fraction quantisation.
    #[default]
    PrefixSplit,
}

/// One sub-class: an interval of the class's flow space assigned to a fixed
/// sequence of VNF locations.
#[derive(Debug, Clone, PartialEq)]
pub struct Subclass {
    /// Owning class.
    pub class: ClassId,
    /// Sub-class id, local to the class (multiplexed across classes).
    pub id: u16,
    /// Half-open interval of the class's flow space in `[0,1)`.
    pub range: (f64, f64),
    /// For each chain stage `j`, the index `i` into the class's path where
    /// that stage is processed. Non-decreasing.
    pub stage_positions: Vec<usize>,
    /// Source-prefix cover of the interval: `(address, prefix_len)` pairs
    /// inside the class's /24.
    pub prefixes: Vec<(u32, u8)>,
}

impl Subclass {
    /// Fraction of the class's traffic this sub-class carries.
    pub fn fraction(&self) -> f64 {
        self.range.1 - self.range.0
    }

    /// The distinct path positions this sub-class is processed at, in
    /// order (deduplicated consecutive stages at the same host).
    pub fn host_positions(&self) -> Vec<usize> {
        let mut out: Vec<usize> = Vec::new();
        for &p in &self.stage_positions {
            if out.last() != Some(&p) {
                out.push(p);
            }
        }
        out
    }

    /// Chain stages processed at path position `i`, in chain order.
    pub fn stages_at(&self, i: usize) -> Vec<usize> {
        self.stage_positions
            .iter()
            .enumerate()
            .filter(|(_, &p)| p == i)
            .map(|(j, _)| j)
            .collect()
    }
}

impl fmt::Display for Subclass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/s{} [{:.3},{:.3}) @{:?}",
            self.class, self.id, self.range.0, self.range.1, self.stage_positions
        )
    }
}

/// The full sub-class plan for a class set + placement.
#[derive(Debug, Clone, Default)]
pub struct SubclassPlan {
    subclasses: Vec<Subclass>,
}

impl SubclassPlan {
    /// Derives sub-classes from the engine's fractional distribution via
    /// the inverse-CDF monotone coupling, then covers each interval with
    /// source prefixes.
    ///
    /// Fractions smaller than `1/256` are merged into their neighbour —
    /// the prefix splitter cannot express them and they carry negligible
    /// traffic.
    pub fn derive(classes: &ClassSet, placement: &Placement, _strategy: SplitStrategy) -> Self {
        let mut subclasses = Vec::new();
        for (h, class) in classes.iter().enumerate() {
            subclasses.extend(Self::derive_class(h, class, placement));
        }
        SubclassPlan { subclasses }
    }

    fn derive_class(h: usize, class: &EquivalenceClass, placement: &Placement) -> Vec<Subclass> {
        let plen = class.path.len();
        let clen = class.chain.len();
        // Per-stage CDF over path positions.
        let mut cdfs: Vec<Vec<f64>> = Vec::with_capacity(clen);
        for j in 0..clen {
            let mut cum = 0.0;
            let mut cdf = Vec::with_capacity(plen);
            for i in 0..plen {
                cum += placement.d(h, i, j);
                cdf.push(cum);
            }
            // Normalise tiny LP residue so the last value is exactly 1.
            if let Some(last) = cdf.last().copied() {
                if last > 1e-9 {
                    for v in &mut cdf {
                        *v /= last;
                    }
                }
            }
            cdfs.push(cdf);
        }
        // Breakpoints: union of all CDF values (plus 0), quantised to
        // 1/256 to stay expressible as prefixes.
        let mut breaks: Vec<f64> = vec![0.0, 1.0];
        for cdf in &cdfs {
            for &v in cdf {
                breaks.push(quantize(v));
            }
        }
        breaks.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        breaks.dedup_by(|a, b| (*a - *b).abs() < 1e-12);

        let mut out = Vec::new();
        let mut sid = 0u16;
        for w in breaks.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            if hi - lo < 1.0 / 256.0 - 1e-12 {
                continue; // merged into neighbour by quantisation
            }
            let mid = (lo + hi) / 2.0;
            // Inverse CDF per stage at the interval's midpoint.
            let positions: Vec<usize> = cdfs
                .iter()
                .map(|cdf| {
                    cdf.iter()
                        .position(|&c| c > mid - 1e-12)
                        .unwrap_or(plen - 1)
                })
                .collect();
            debug_assert!(
                positions.windows(2).all(|p| p[0] <= p[1]),
                "coupling not monotone for class {h}: {positions:?}"
            );
            out.push(Subclass {
                class: ClassId(h),
                id: sid,
                range: (lo, hi),
                stage_positions: positions,
                prefixes: dyadic_cover(lo, hi, class.src_prefix.0, class.src_prefix.1),
            });
            sid += 1;
        }
        // Guard: if quantisation swallowed everything (shouldn't happen),
        // emit one whole-class sub-class at the dominant position.
        if out.is_empty() {
            let positions: Vec<usize> = cdfs
                .iter()
                .map(|cdf| cdf.iter().position(|&c| c > 0.5).unwrap_or(plen - 1))
                .collect();
            out.push(Subclass {
                class: ClassId(h),
                id: 0,
                range: (0.0, 1.0),
                stage_positions: positions,
                prefixes: vec![class.src_prefix],
            });
        }
        out
    }

    /// All sub-classes, grouped by class (ascending), then id.
    pub fn subclasses(&self) -> &[Subclass] {
        &self.subclasses
    }

    /// Sub-classes of one class.
    pub fn of_class(&self, class: ClassId) -> Vec<&Subclass> {
        self.subclasses
            .iter()
            .filter(|s| s.class == class)
            .collect()
    }

    /// Total number of sub-classes.
    pub fn len(&self) -> usize {
        self.subclasses.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.subclasses.is_empty()
    }
}

/// Quantises a fraction to a multiple of 1/256 (8 extra prefix bits).
fn quantize(v: f64) -> f64 {
    (v * 256.0).round() / 256.0
}

/// Covers the quantised interval `[lo, hi)` of a `/len` prefix's host space
/// with dyadic sub-prefixes, e.g. `[0.5, 1.0)` of `10.1.1.0/24` →
/// `10.1.1.128/25`.
fn dyadic_cover(lo: f64, hi: f64, base_addr: u32, base_len: u8) -> Vec<(u32, u8)> {
    let units_total: u32 = 256;
    let mut start = (quantize(lo) * f64::from(units_total)).round() as u32;
    let end = (quantize(hi) * f64::from(units_total)).round() as u32;
    let host_bits = 32 - u32::from(base_len); // bits inside the base prefix
    let mut out = Vec::new();
    while start < end {
        // Largest power-of-two block aligned at `start` and fitting.
        let align = if start == 0 {
            units_total
        } else {
            start & start.wrapping_neg()
        };
        let mut block = align.min(end - start);
        // Round block down to a power of two.
        while block & (block - 1) != 0 {
            block &= block - 1;
        }
        // A block of `block` units out of 256 is `8 - log2(block)` extra
        // prefix bits.
        let extra_bits = 8 - block.trailing_zeros() as u8;
        let len = base_len + extra_bits;
        // Offset within the prefix: start units, each unit = 2^(host_bits-8)
        // addresses.
        let addr = base_addr | (start << (host_bits - 8));
        out.push((addr, len));
        start += block;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::ClassConfig;
    use crate::engine::{EngineConfig, OptimizationEngine};
    use crate::orchestrator::ResourceOrchestrator;
    use apple_topology::zoo;
    use apple_traffic::GravityModel;

    fn plan_for_internet2() -> (ClassSet, Placement, SubclassPlan) {
        let topo = zoo::internet2();
        let tm = GravityModel::new(3_000.0, 11).base_matrix(&topo);
        let classes = ClassSet::build(
            &topo,
            &tm,
            &ClassConfig {
                max_classes: 15,
                ..Default::default()
            },
        );
        let orch = ResourceOrchestrator::with_uniform_hosts(&topo, 64);
        let placement = OptimizationEngine::new(EngineConfig::default())
            .place(&classes, &orch)
            .unwrap();
        let plan = SubclassPlan::derive(&classes, &placement, SplitStrategy::PrefixSplit);
        (classes, placement, plan)
    }

    #[test]
    fn fractions_sum_to_one_per_class() {
        let (classes, _, plan) = plan_for_internet2();
        for c in &classes {
            let total: f64 = plan.of_class(c.id).iter().map(|s| s.fraction()).sum();
            assert!((total - 1.0).abs() < 1e-9, "class {} covers {total}", c.id);
        }
    }

    #[test]
    fn stage_positions_monotone() {
        let (_, _, plan) = plan_for_internet2();
        for s in plan.subclasses() {
            for w in s.stage_positions.windows(2) {
                assert!(w[0] <= w[1], "non-monotone stages in {s}");
            }
        }
    }

    #[test]
    fn subclass_marginals_match_placement() {
        // Summing sub-class fractions per (stage, position) must recover
        // the engine's d (up to 1/256 quantisation).
        let (classes, placement, plan) = plan_for_internet2();
        for (h, c) in classes.iter().enumerate() {
            for j in 0..c.chain.len() {
                for i in 0..c.path.len() {
                    let from_subclasses: f64 = plan
                        .of_class(c.id)
                        .iter()
                        .filter(|s| s.stage_positions[j] == i)
                        .map(|s| s.fraction())
                        .sum();
                    let from_placement = placement.d(h, i, j);
                    assert!(
                        (from_subclasses - from_placement).abs() < 3.0 / 256.0 + 1e-9,
                        "class {h} stage {j} pos {i}: {from_subclasses} vs {from_placement}"
                    );
                }
            }
        }
    }

    #[test]
    fn prefix_split_covers_interval() {
        let (_, _, plan) = plan_for_internet2();
        for s in plan.subclasses() {
            assert!(!s.prefixes.is_empty(), "no prefixes for {s}");
            // Total address share of the prefixes equals the fraction.
            let share: f64 = s
                .prefixes
                .iter()
                .map(|&(_, len)| 2f64.powi(-(i32::from(len) - 24)))
                .sum();
            assert!(
                (share - s.fraction()).abs() < 1e-9,
                "prefix share {share} != fraction {} for {s}",
                s.fraction()
            );
        }
    }

    #[test]
    fn prefixes_disjoint_within_class() {
        let (classes, _, plan) = plan_for_internet2();
        for c in &classes {
            let mut covered = vec![false; 256];
            for s in plan.of_class(c.id) {
                for &(addr, len) in &s.prefixes {
                    let start = (addr & 0xff) as usize; // units within /24
                    let count = 1usize << (32 - len);
                    for u in (start..start + count).step_by(1) {
                        assert!(!covered[u], "overlap at unit {u} in class {}", c.id);
                        covered[u] = true;
                    }
                }
            }
            assert!(
                covered.iter().all(|&b| b),
                "class {} not fully covered",
                c.id
            );
        }
    }

    #[test]
    fn dyadic_cover_halves() {
        // [0.5, 1.0) of 10.1.1.0/24 = 10.1.1.128/25 (paper's example).
        let cover = dyadic_cover(0.5, 1.0, 0x0a010100, 24);
        assert_eq!(cover, vec![(0x0a010180, 25)]);
        // [0, 0.5) = 10.1.1.0/25.
        let cover = dyadic_cover(0.0, 0.5, 0x0a010100, 24);
        assert_eq!(cover, vec![(0x0a010100, 25)]);
    }

    #[test]
    fn dyadic_cover_irregular_interval_uses_multiple_rules() {
        // [0.25, 0.875) needs multiple prefixes: [0.25,0.5) + [0.5,0.75) +
        // [0.75,0.875).
        let cover = dyadic_cover(0.25, 0.875, 0x0a010100, 24);
        assert!(cover.len() >= 3, "{cover:?}");
        let share: f64 = cover
            .iter()
            .map(|&(_, len)| 2f64.powi(-(i32::from(len) - 24)))
            .sum();
        assert!((share - 0.625).abs() < 1e-9);
    }

    #[test]
    fn host_positions_deduplicate() {
        let s = Subclass {
            class: ClassId(0),
            id: 0,
            range: (0.0, 1.0),
            stage_positions: vec![0, 0, 2],
            prefixes: vec![],
        };
        assert_eq!(s.host_positions(), vec![0, 2]);
        assert_eq!(s.stages_at(0), vec![0, 1]);
        assert_eq!(s.stages_at(2), vec![2]);
    }
}
