//! Placement validation: mechanical checks that a [`Placement`] satisfies
//! the paper's formulation, Eq. (2)–(8).
//!
//! Tests, benches and the transition planner all need "is this placement
//! actually legal?" as a primitive; this module is the single source of
//! truth for it. Each violated condition is reported with enough context to
//! debug the engine.

use crate::classes::{ClassId, ClassSet};
use crate::engine::Placement;
use crate::failover::DynamicHandler;
use crate::orchestrator::ResourceOrchestrator;
use apple_nf::{InstanceId, NfType, ResourceVector, VnfSpec};
use apple_topology::NodeId;
use std::collections::BTreeMap;
use std::fmt;

/// One violated formulation condition.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// Eq. (3): stage `j` overtakes stage `j−1` at path position `i`.
    OrderViolated {
        /// Class index.
        class: usize,
        /// Path position.
        position: usize,
        /// Chain stage that overtook its predecessor.
        stage: usize,
        /// Cumulative portion of the predecessor.
        sigma_prev: f64,
        /// Cumulative portion of the stage.
        sigma: f64,
    },
    /// Eq. (4): a stage does not process 100 % of the class.
    CoverageShort {
        /// Class index.
        class: usize,
        /// Chain stage.
        stage: usize,
        /// Total fraction placed.
        total: f64,
    },
    /// Eq. (5): offered load exceeds `Cap_n · q[v][n]`.
    CapacityExceeded {
        /// Switch index.
        switch: usize,
        /// NF type.
        nf: NfType,
        /// Offered load in Mbps.
        offered: f64,
        /// Available capacity in Mbps.
        capacity: f64,
    },
    /// Eq. (6): a host's committed resources exceed its capacity.
    ResourcesExceeded {
        /// Switch index.
        switch: usize,
        /// What the placement needs there.
        needed: ResourceVector,
        /// What the host has.
        capacity: ResourceVector,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::OrderViolated {
                class,
                position,
                stage,
                sigma_prev,
                sigma,
            } => write!(
                f,
                "class {class}: stage {stage} overtakes its predecessor at position {position} ({sigma:.4} > {sigma_prev:.4})"
            ),
            Violation::CoverageShort { class, stage, total } => write!(
                f,
                "class {class}: stage {stage} covers only {total:.4} of the traffic"
            ),
            Violation::CapacityExceeded {
                switch,
                nf,
                offered,
                capacity,
            } => write!(
                f,
                "switch {switch}: {nf} offered {offered:.1} Mbps > capacity {capacity:.1}"
            ),
            Violation::ResourcesExceeded {
                switch,
                needed,
                capacity,
            } => write!(f, "switch {switch}: placement needs {needed} > host {capacity}"),
        }
    }
}

/// Checks a placement against Eq. (2)–(8) and the hosts' resources.
/// Returns every violation found (empty = valid). `tol` is the numeric
/// slack for the fractional conditions (1e-6 is appropriate for LP
/// output).
pub fn verify_placement(
    classes: &ClassSet,
    placement: &Placement,
    orch: &ResourceOrchestrator,
    tol: f64,
) -> Vec<Violation> {
    let mut out = Vec::new();

    for (h, c) in classes.iter().enumerate() {
        let plen = c.path.len();
        let clen = c.chain.len();
        // Eq. (3): cumulative dominance, and Eq. (4): full coverage.
        let mut sigma = vec![0.0f64; clen];
        for i in 0..plen {
            #[allow(clippy::needless_range_loop)] // sigma[j] += d(h, i, j)
            for j in 0..clen {
                sigma[j] += placement.d(h, i, j);
            }
            for j in 1..clen {
                if sigma[j] > sigma[j - 1] + tol {
                    out.push(Violation::OrderViolated {
                        class: h,
                        position: i,
                        stage: j,
                        sigma_prev: sigma[j - 1],
                        sigma: sigma[j],
                    });
                }
            }
        }
        for (j, &total) in sigma.iter().enumerate() {
            if (total - 1.0).abs() > tol.max(1e-6) {
                out.push(Violation::CoverageShort {
                    class: h,
                    stage: j,
                    total,
                });
            }
        }
    }

    // Eq. (5): capacity per (switch, NF).
    for (&v, host) in orch.hosts() {
        let mut needed = ResourceVector::zero();
        for nf in NfType::all() {
            let mut offered = 0.0;
            for (h, c) in classes.iter().enumerate() {
                if let (Some(i), Some(j)) = (c.path.index_of(NodeId(v)), c.chain.position(nf)) {
                    offered += c.rate_mbps * placement.d(h, i, j);
                }
            }
            let q = placement.q(NodeId(v), nf);
            let capacity = VnfSpec::of(nf).capacity_mbps * f64::from(q);
            if offered > capacity + tol * c_scale(offered) {
                out.push(Violation::CapacityExceeded {
                    switch: v,
                    nf,
                    offered,
                    capacity,
                });
            }
            needed += VnfSpec::of(nf).resources().times(q);
        }
        // Eq. (6): host resources.
        if !needed.fits_in(&host.capacity) {
            out.push(Violation::ResourcesExceeded {
                switch: v,
                needed,
                capacity: host.capacity,
            });
        }
    }
    out
}

fn c_scale(offered: f64) -> f64 {
    offered.abs().max(1.0)
}

/// One violated invariant of the *live* sub-class state (the Dynamic
/// Handler's view after overloads, crashes and repairs) — the runtime
/// counterpart of [`Violation`], checked by the chaos suite after every
/// injected fault.
#[derive(Debug, Clone, PartialEq)]
pub enum ShareViolation {
    /// A share names a class the class set does not contain.
    UnknownClass {
        /// The dangling class id.
        class: ClassId,
    },
    /// A share's stage list length disagrees with its class's chain.
    StageCountMismatch {
        /// Owning class.
        class: ClassId,
        /// Sub-class id.
        sub: u16,
        /// Stages the share has.
        got: usize,
        /// Stages the chain requires.
        want: usize,
    },
    /// A share is routed through an instance the orchestrator no longer
    /// knows (crashed and never re-homed).
    MissingInstance {
        /// Owning class.
        class: ClassId,
        /// Sub-class id.
        sub: u16,
        /// Chain stage.
        stage: usize,
        /// The ghost instance.
        instance: InstanceId,
    },
    /// A stage is served by an instance of the wrong NF type.
    WrongNf {
        /// Owning class.
        class: ClassId,
        /// Sub-class id.
        sub: u16,
        /// Chain stage.
        stage: usize,
        /// NF the instance actually runs.
        got: NfType,
        /// NF the chain requires.
        want: NfType,
    },
    /// A stage's instance sits on a switch outside the class's path —
    /// serving it would change the forwarding path (interference).
    OffPath {
        /// Owning class.
        class: ClassId,
        /// Sub-class id.
        sub: u16,
        /// Chain stage.
        stage: usize,
        /// The off-path switch.
        switch: usize,
    },
    /// Chain order violated: a later stage is served strictly earlier on
    /// the path than its predecessor.
    OrderViolated {
        /// Owning class.
        class: ClassId,
        /// Sub-class id.
        sub: u16,
        /// The stage that jumped ahead.
        stage: usize,
        /// Path position of the predecessor stage.
        prev_pos: usize,
        /// Path position of this stage.
        pos: usize,
    },
    /// A share carries a negative traffic fraction.
    NegativeFraction {
        /// Owning class.
        class: ClassId,
        /// Sub-class id.
        sub: u16,
        /// The offending fraction.
        fraction: f64,
    },
    /// Live coverage plus recorded shed does not account for 100 % of a
    /// class's traffic.
    CoverageShort {
        /// The class.
        class: ClassId,
        /// Fraction covered by live shares.
        covered: f64,
        /// Fraction explicitly shed (degraded mode).
        shed: f64,
    },
}

impl fmt::Display for ShareViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShareViolation::UnknownClass { class } => {
                write!(f, "share refers to unknown class {}", class.0)
            }
            ShareViolation::StageCountMismatch {
                class,
                sub,
                got,
                want,
            } => write!(
                f,
                "share {}/{sub}: {got} stages but the chain has {want}",
                class.0
            ),
            ShareViolation::MissingInstance {
                class,
                sub,
                stage,
                instance,
            } => write!(
                f,
                "share {}/{sub} stage {stage}: instance {instance} does not exist",
                class.0
            ),
            ShareViolation::WrongNf {
                class,
                sub,
                stage,
                got,
                want,
            } => write!(
                f,
                "share {}/{sub} stage {stage}: instance runs {got}, chain needs {want}",
                class.0
            ),
            ShareViolation::OffPath {
                class,
                sub,
                stage,
                switch,
            } => write!(
                f,
                "share {}/{sub} stage {stage}: switch {switch} is off the class path",
                class.0
            ),
            ShareViolation::OrderViolated {
                class,
                sub,
                stage,
                prev_pos,
                pos,
            } => write!(
                f,
                "share {}/{sub}: stage {stage} at path position {pos} precedes stage {} at {prev_pos}",
                class.0,
                stage - 1
            ),
            ShareViolation::NegativeFraction {
                class,
                sub,
                fraction,
            } => write!(f, "share {}/{sub}: negative fraction {fraction}", class.0),
            ShareViolation::CoverageShort {
                class,
                covered,
                shed,
            } => write!(
                f,
                "class {}: covered {covered:.4} + shed {shed:.4} ≠ 1",
                class.0
            ),
        }
    }
}

/// Checks the Dynamic Handler's live sub-class state against the runtime
/// invariants: every stage served by an existing, correctly-typed instance
/// on the class's own path in chain order (interference freedom), and every
/// class's traffic fully accounted for by live shares plus the explicit
/// shed ledger. Returns every violation found (empty = valid).
pub fn verify_shares(
    classes: &ClassSet,
    handler: &DynamicHandler,
    orch: &ResourceOrchestrator,
    tol: f64,
) -> Vec<ShareViolation> {
    let mut out = Vec::new();
    let mut covered: BTreeMap<ClassId, f64> = BTreeMap::new();

    for s in handler.shares() {
        let Some(class) = classes.class(s.class) else {
            out.push(ShareViolation::UnknownClass { class: s.class });
            continue;
        };
        if s.fraction < -tol {
            out.push(ShareViolation::NegativeFraction {
                class: s.class,
                sub: s.sub,
                fraction: s.fraction,
            });
        }
        *covered.entry(s.class).or_insert(0.0) += s.fraction;
        if s.instances.len() != class.chain.len() {
            out.push(ShareViolation::StageCountMismatch {
                class: s.class,
                sub: s.sub,
                got: s.instances.len(),
                want: class.chain.len(),
            });
            continue;
        }
        let mut prev_pos: Option<usize> = None;
        for (stage, &iid) in s.instances.iter().enumerate() {
            let Some(inst) = orch.instance(iid) else {
                out.push(ShareViolation::MissingInstance {
                    class: s.class,
                    sub: s.sub,
                    stage,
                    instance: iid,
                });
                prev_pos = None;
                continue;
            };
            let want = class.chain.nfs()[stage];
            if inst.nf() != want {
                out.push(ShareViolation::WrongNf {
                    class: s.class,
                    sub: s.sub,
                    stage,
                    got: inst.nf(),
                    want,
                });
            }
            match class.path.index_of(NodeId(inst.host_switch())) {
                Some(pos) => {
                    if let Some(pp) = prev_pos {
                        if pos < pp {
                            out.push(ShareViolation::OrderViolated {
                                class: s.class,
                                sub: s.sub,
                                stage,
                                prev_pos: pp,
                                pos,
                            });
                        }
                    }
                    prev_pos = Some(pos);
                }
                None => {
                    out.push(ShareViolation::OffPath {
                        class: s.class,
                        sub: s.sub,
                        stage,
                        switch: inst.host_switch(),
                    });
                    prev_pos = None;
                }
            }
        }
    }

    // Coverage: live shares + shed must account for every class's traffic.
    for c in classes.iter() {
        let live = covered.get(&c.id).copied().unwrap_or(0.0);
        let shed = handler.shed().get(&c.id).copied().unwrap_or(0.0);
        if (live + shed - 1.0).abs() > tol.max(1e-6) {
            out.push(ShareViolation::CoverageShort {
                class: c.id,
                covered: live,
                shed,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::{ClassConfig, ClassSet};
    use crate::engine::{EngineConfig, OptimizationEngine};
    use apple_topology::zoo;
    use apple_traffic::GravityModel;

    fn solved() -> (ClassSet, Placement, ResourceOrchestrator) {
        let topo = zoo::internet2();
        let tm = GravityModel::new(2_500.0, 71).base_matrix(&topo);
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
        (classes, placement, orch)
    }

    #[test]
    fn engine_output_is_valid() {
        let (classes, placement, orch) = solved();
        let violations = verify_placement(&classes, &placement, &orch, 1e-6);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn tampered_q_reports_capacity() {
        let (classes, placement, orch) = solved();
        // Rebuild a placement-like report by zeroing all q: every (v, nf)
        // with load must now violate capacity. We simulate by checking with
        // a fresh orchestrator and an empty placement via the engine's
        // structure — simplest route: verify against a different (smaller)
        // class set rate.
        let doubled = {
            let mut cs = Vec::new();
            for c in &classes {
                let mut c2 = c.clone();
                c2.rate_mbps *= 50.0;
                cs.push(c2);
            }
            ClassSet::from_classes(cs)
        };
        let violations = verify_placement(&doubled, &placement, &orch, 1e-6);
        assert!(
            violations
                .iter()
                .any(|v| matches!(v, Violation::CapacityExceeded { .. })),
            "expected capacity violations, got {violations:?}"
        );
    }

    #[test]
    fn violation_messages_are_informative() {
        let v = Violation::CoverageShort {
            class: 3,
            stage: 1,
            total: 0.5,
        };
        assert!(v.to_string().contains("class 3"));
        let v2 = Violation::CapacityExceeded {
            switch: 4,
            nf: NfType::Ids,
            offered: 700.0,
            capacity: 600.0,
        };
        assert!(v2.to_string().contains("IDS"));
    }
}
