//! Shared experiment harness: each function regenerates the data behind one
//! table or figure of the paper. The `src/bin/*` binaries print the rows.
//!
//! Experiment ↔ module map (see DESIGN.md §4 and EXPERIMENTS.md):
//!
//! | Paper artifact | Harness entry point |
//! |---|---|
//! | Table I   | [`table1_properties`] |
//! | Table V   | [`table5_row`] |
//! | Fig. 6    | [`fig6_loss_curve`] |
//! | Fig. 7    | `apple_sim::failover_lab::naive_failover_throughput` |
//! | Fig. 8    | [`fig8_cdfs`] |
//! | Fig. 9    | `apple_sim::failover_lab::detection_timeline(cfg, &NOOP)` |
//! | Fig. 10   | [`fig10_tcam_reduction`] |
//! | Fig. 11   | [`fig11_core_usage`] |
//! | Fig. 12   | [`fig12_loss_series`] |
//!
//! Whole-stack performance (throughput, latency, recovery, memory) is
//! measured by the stand-alone `benchmark/` package, not here; see
//! `benchmark/README.md`.

use apple_core::baselines::{
    ingress_per_class, steering_consolidation, SteeringPlan, TrafficSteering,
};
use apple_core::classes::{ClassConfig, ClassSet};
use apple_core::controller::{Apple, AppleConfig};
use apple_core::engine::{EngineConfig, EngineError, OptimizationEngine};
use apple_core::orchestrator::ResourceOrchestrator;
use apple_dataplane::packet::{HostTag, Packet};
use apple_nf::OverloadModel;
use apple_sim::failover_lab::{transfer_times, TransferStrategy};
use apple_sim::metrics::{cdf, Summary};
use apple_sim::replay::{replay, ReplayConfig, ReplayError, ReplayOutcome};
use apple_telemetry::NOOP;
use apple_topology::{Topology, TopologyKind};
use apple_traffic::{GravityModel, SeriesConfig, TmSeries, TrafficMatrix};
use std::time::Duration;

/// Class-count budget per topology, sized so the LP stays within the
/// solve-time envelope the paper reports in Table V while covering all of
/// the offered traffic (truncation preserves total rate).
pub fn class_budget(kind: TopologyKind) -> usize {
    match kind {
        TopologyKind::Internet2 => 40,
        TopologyKind::Geant => 80,
        TopologyKind::Univ1 => 30,
        TopologyKind::As3679 => 180,
        TopologyKind::Synthetic => 20,
    }
}

/// The default planning configuration for a topology.
pub fn apple_config(kind: TopologyKind) -> AppleConfig {
    AppleConfig {
        classes: ClassConfig {
            max_classes: class_budget(kind),
            ..Default::default()
        },
        engine: EngineConfig::default(),
        host_cores: 64,
    }
}

/// Total offered load per topology (Mbps); scaled with network size.
///
/// Loads sit in the regime the paper evaluates: each class is well below a
/// single instance's capacity, so instance counts are dominated by the
/// "at least one instance per (switch, NF)" integrality — the regime where
/// APPLE's cross-class multiplexing wins big over ingress consolidation.
pub fn offered_load(kind: TopologyKind) -> f64 {
    match kind {
        TopologyKind::Internet2 => 7_000.0,
        TopologyKind::Geant => 22_000.0,
        // Elephant-flow regime: per-class rates exceed instance capacity,
        // and the two core-switch hosts saturate (Eq. 6), forcing APPLE
        // toward ingress placement — the paper's stated reason the UNIV1
        // gap is small.
        TopologyKind::Univ1 => 18_000.0,
        TopologyKind::As3679 => 6_000.0,
        TopologyKind::Synthetic => 1_000.0,
    }
}

// --------------------------------------------------------------------
// Table I
// --------------------------------------------------------------------

/// Verdicts for the three desired properties of Table I, checked
/// mechanically on a planned deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct PropertyCheck {
    /// Every class's packets traverse exactly its chain, in order.
    pub policy_enforcement: bool,
    /// No packet's switch trajectory deviates from the routing path.
    pub interference_free: bool,
    /// Every VNF instance is its own VM (disjoint resource accounting).
    pub isolation: bool,
    /// For contrast: fraction of classes a StEERING/SIMPLE-style steering
    /// deployment would re-route (interference).
    pub steering_path_change_frac: f64,
}

/// Runs the Table I property checks on Internet2.
///
/// # Errors
///
/// Propagates planning failures.
pub fn table1_properties(seed: u64) -> Result<PropertyCheck, EngineError> {
    let topo = apple_topology::zoo::internet2();
    let tm = GravityModel::new(offered_load(topo.kind), seed).base_matrix(&topo);
    let apple = Apple::plan(&topo, &tm, &apple_config(topo.kind))?;

    let mut policy_enforcement = true;
    let mut interference_free = true;
    let walker = apple.program().rules.walker();
    for class in apple.classes() {
        let p = Packet::new(class.src_prefix.0 | 3, class.dst_prefix.0 | 3, 4_000, 80, 6);
        match walker.walk(p, &class.path) {
            Ok(rec) => {
                let nfs: Vec<_> = rec
                    .instances
                    .iter()
                    .filter_map(|&id| apple.orchestrator().instance(id).map(|i| i.nf()))
                    .collect();
                if nfs != class.chain.nfs() {
                    policy_enforcement = false;
                }
                if rec.packet.host_tag != HostTag::Fin {
                    policy_enforcement = false;
                }
                let expect: Vec<usize> = class.path.iter().map(|n| n.0).collect();
                if rec.switches != expect {
                    interference_free = false;
                }
            }
            Err(_) => policy_enforcement = false,
        }
    }
    // Isolation: committed resources equal the sum of per-instance
    // requirement vectors — no sharing between instances.
    let committed: u32 = apple
        .orchestrator()
        .hosts()
        .values()
        .map(|h| h.used.cores)
        .sum();
    let per_instance: u32 = apple
        .orchestrator()
        .instances()
        .map(|i| i.spec().cores)
        .sum();
    let isolation = committed == per_instance;

    let steering = TrafficSteering::with_central_sites(&topo);
    let (frac, _) = steering.interference(&topo, apple.classes());
    Ok(PropertyCheck {
        policy_enforcement,
        interference_free,
        isolation,
        steering_path_change_frac: frac,
    })
}

/// The quantified Table I trade-off on Internet2: APPLE's cores vs a
/// steering rack's cores + interference. Returns `None` on planning
/// failure.
pub fn table1_tradeoff(seed: u64) -> Option<(u32, SteeringPlan)> {
    let topo = apple_topology::zoo::internet2();
    let tm = GravityModel::new(offered_load(topo.kind), seed).base_matrix(&topo);
    let classes = ClassSet::build(
        &topo,
        &tm,
        &ClassConfig {
            max_classes: class_budget(topo.kind),
            ..Default::default()
        },
    );
    let orch = ResourceOrchestrator::with_uniform_hosts(&topo, 64);
    let placement = OptimizationEngine::new(apple_config(topo.kind).engine)
        .place(&classes, &orch)
        .ok()?;
    Some((
        placement.total_cores(),
        steering_consolidation(&topo, &classes),
    ))
}

// --------------------------------------------------------------------
// Table V
// --------------------------------------------------------------------

/// One Table V row: topology stats + mean optimisation time.
#[derive(Debug, Clone)]
pub struct SolveRow {
    /// Which topology.
    pub kind: TopologyKind,
    /// Switch count.
    pub nodes: usize,
    /// Link count (directed for GEANT, matching the data set's convention).
    pub links: usize,
    /// Classes in the optimisation input.
    pub classes: usize,
    /// Mean solve time over the trials.
    pub mean_time: Duration,
    /// Total instances placed in the last trial.
    pub instances: u32,
}

/// Solves the placement for one topology `trials` times (different traffic
/// seeds) and reports the mean time — a Table V row.
///
/// # Errors
///
/// Propagates engine failures.
pub fn table5_row(kind: TopologyKind, trials: usize) -> Result<SolveRow, EngineError> {
    let topo = kind.build();
    let mut total = Duration::ZERO;
    let mut instances = 0;
    let mut classes_n = 0;
    for t in 0..trials.max(1) {
        let tm = GravityModel::new(offered_load(kind), t as u64).base_matrix(&topo);
        let classes = ClassSet::build(
            &topo,
            &tm,
            &ClassConfig {
                max_classes: class_budget(kind),
                ..Default::default()
            },
        );
        classes_n = classes.len();
        let orch = ResourceOrchestrator::with_uniform_hosts(&topo, 64);
        let placement =
            OptimizationEngine::new(apple_config(kind).engine).place(&classes, &orch)?;
        total += placement.solve_time();
        instances = placement.total_instances();
    }
    let links = if kind == TopologyKind::Geant {
        topo.graph.directed_link_count()
    } else {
        topo.graph.undirected_link_count()
    };
    Ok(SolveRow {
        kind,
        nodes: topo.graph.node_count(),
        links,
        classes: classes_n,
        mean_time: total / trials.max(1) as u32,
        instances,
    })
}

// --------------------------------------------------------------------
// Fig. 6
// --------------------------------------------------------------------

/// Fig. 6: `(rx Kpps, loss rate)` sweep for the ClickOS passive monitor.
pub fn fig6_loss_curve() -> Vec<(f64, f64)> {
    let model = OverloadModel::passive_monitor();
    (0..=28)
        .map(|i| {
            let kpps = f64::from(i) * 0.5;
            (kpps, model.loss_rate(kpps * 1_000.0))
        })
        .collect()
}

// --------------------------------------------------------------------
// Fig. 8
// --------------------------------------------------------------------

/// Fig. 8: per-strategy CDFs of the 20 MB transfer time (10 runs each).
pub fn fig8_cdfs(seed: u64) -> Vec<(TransferStrategy, Vec<(f64, f64)>)> {
    TransferStrategy::all()
        .into_iter()
        .map(|s| {
            let times = transfer_times(s, 20.0, 100.0, 10, seed);
            (s, cdf(&times))
        })
        .collect()
}

// --------------------------------------------------------------------
// Fig. 10
// --------------------------------------------------------------------

/// Fig. 10 data: reduction-ratio samples for one topology across traffic
/// matrices, summarised boxplot-style.
#[derive(Debug, Clone)]
pub struct TcamRow {
    /// Which topology.
    pub kind: TopologyKind,
    /// Per-TM reduction ratios (untagged / tagged).
    pub ratios: Vec<f64>,
    /// Boxplot summary of the ratios.
    pub summary: Summary,
}

/// Computes TCAM reduction ratios for `trials` traffic matrices on one
/// topology.
///
/// # Errors
///
/// Propagates planning failures.
pub fn fig10_tcam_reduction(kind: TopologyKind, trials: usize) -> Result<TcamRow, EngineError> {
    let topo = kind.build();
    let mut ratios = Vec::with_capacity(trials);
    for t in 0..trials {
        let tm = GravityModel::new(offered_load(kind), 1_000 + t as u64).base_matrix(&topo);
        let apple = Apple::plan(&topo, &tm, &apple_config(kind))?;
        ratios.push(apple.program().tcam.reduction_ratio());
    }
    let summary = Summary::of(&ratios);
    Ok(TcamRow {
        kind,
        ratios,
        summary,
    })
}

/// §V-B cross-product fallback accounting for one topology: returns
/// `(name, pipelined entries, cross-product entries, penalty factor)`.
///
/// # Errors
///
/// Propagates planning failures.
pub fn fig10_crossproduct(
    kind: TopologyKind,
) -> Result<(&'static str, usize, usize, f64), EngineError> {
    let topo = kind.build();
    let tm = GravityModel::new(offered_load(kind), 1_000).base_matrix(&topo);
    let apple = Apple::plan(&topo, &tm, &apple_config(kind))?;
    let t = &apple.program().tcam;
    Ok((
        kind.name(),
        t.tagged_total,
        t.cross_product_total,
        t.cross_product_penalty(),
    ))
}

/// TCAM power estimate per topology at 12 mW/entry:
/// `(name, tagged watts, untagged watts)`.
///
/// # Errors
///
/// Propagates planning failures.
pub fn fig10_power(kind: TopologyKind) -> Result<(&'static str, f64, f64), EngineError> {
    let topo = kind.build();
    let tm = GravityModel::new(offered_load(kind), 1_000).base_matrix(&topo);
    let apple = Apple::plan(&topo, &tm, &apple_config(kind))?;
    let t = &apple.program().tcam;
    Ok((
        kind.name(),
        t.power_watts(12.0),
        t.untagged_power_watts(12.0),
    ))
}

// --------------------------------------------------------------------
// Fig. 11
// --------------------------------------------------------------------

/// Fig. 11 data: average CPU cores for APPLE vs the ingress strawman.
#[derive(Debug, Clone)]
pub struct CoreRow {
    /// Which topology.
    pub kind: TopologyKind,
    /// Mean cores used by APPLE's placement.
    pub apple_cores: f64,
    /// Mean cores used by ingress consolidation.
    pub ingress_cores: f64,
}

impl CoreRow {
    /// ingress / APPLE — the Fig. 11 reduction factor.
    pub fn reduction(&self) -> f64 {
        if self.apple_cores == 0.0 {
            0.0
        } else {
            self.ingress_cores / self.apple_cores
        }
    }
}

/// Computes mean core usage for APPLE and the ingress strawman over
/// `trials` traffic matrices.
///
/// # Errors
///
/// Propagates planning failures.
pub fn fig11_core_usage(kind: TopologyKind, trials: usize) -> Result<CoreRow, EngineError> {
    let topo = kind.build();
    let mut apple_total = 0.0;
    let mut ingress_total = 0.0;
    for t in 0..trials.max(1) {
        let tm = GravityModel::new(offered_load(kind), 2_000 + t as u64).base_matrix(&topo);
        let classes = ClassSet::build(
            &topo,
            &tm,
            &ClassConfig {
                max_classes: class_budget(kind),
                ..Default::default()
            },
        );
        let orch = ResourceOrchestrator::with_uniform_hosts(&topo, 64);
        let placement =
            OptimizationEngine::new(apple_config(kind).engine).place(&classes, &orch)?;
        apple_total += f64::from(placement.total_cores());
        ingress_total += f64::from(ingress_per_class(&classes).total_cores());
    }
    Ok(CoreRow {
        kind,
        apple_cores: apple_total / trials.max(1) as f64,
        ingress_cores: ingress_total / trials.max(1) as f64,
    })
}

// --------------------------------------------------------------------
// Fig. 12
// --------------------------------------------------------------------

/// Fig. 12 data: loss-over-time with and without fast failover.
#[derive(Debug, Clone)]
pub struct LossRow {
    /// Which topology.
    pub kind: TopologyKind,
    /// Replay with the Dynamic Handler active.
    pub with_failover: ReplayOutcome,
    /// Replay with it disabled.
    pub without_failover: ReplayOutcome,
}

/// Replays a bursty series on one topology, with and without fast
/// failover.
///
/// # Errors
///
/// Propagates planning failures.
pub fn fig12_loss_series(
    kind: TopologyKind,
    snapshots: usize,
    seed: u64,
) -> Result<LossRow, ReplayError> {
    let topo = kind.build();
    let series = TmSeries::generate(
        &topo,
        &SeriesConfig {
            snapshots,
            total_mbps: offered_load(kind),
            burst_pairs: 3,
            burst_scale: 6.0,
            ..SeriesConfig::paper(seed)
        },
    );
    let base_cfg = ReplayConfig {
        apple: apple_config(kind),
        fast_failover: true,
        ..Default::default()
    };
    let with_failover = replay(&topo, &series, &base_cfg, &NOOP)?;
    let without_failover = replay(
        &topo,
        &series,
        &ReplayConfig {
            fast_failover: false,
            ..base_cfg
        },
        &NOOP,
    )?;
    Ok(LossRow {
        kind,
        with_failover,
        without_failover,
    })
}

// --------------------------------------------------------------------
// shared printing helpers
// --------------------------------------------------------------------

/// Prints a horizontal rule sized for the standard table width.
pub fn hr() {
    println!("{}", "-".repeat(72));
}

/// Formats a Duration in adaptive units, like the paper's Table V.
pub fn fmt_duration(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s < 1.0 {
        format!("{:.3} second", s)
    } else {
        format!("{:.3} seconds", s)
    }
}

/// Builds `(topology, mean TM)` for quick experiments.
pub fn mean_tm(kind: TopologyKind, seed: u64) -> (Topology, TrafficMatrix) {
    let topo = kind.build();
    let tm = GravityModel::new(offered_load(kind), seed).base_matrix(&topo);
    (topo, tm)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_all_properties_hold() {
        let check = table1_properties(3).unwrap();
        assert!(check.policy_enforcement);
        assert!(check.interference_free);
        assert!(check.isolation);
        assert!(check.steering_path_change_frac > 0.5);
    }

    #[test]
    fn fig6_curve_shape() {
        let curve = fig6_loss_curve();
        assert_eq!(curve.len(), 29);
        // Flat near zero, rising past 10 Kpps.
        assert_eq!(curve[4].1, 0.0); // 2 Kpps
        assert!(curve.last().unwrap().1 > 0.2); // 14 Kpps
    }

    #[test]
    fn fig8_cdfs_cover_three_strategies() {
        let cdfs = fig8_cdfs(1);
        assert_eq!(cdfs.len(), 3);
        for (_, c) in &cdfs {
            assert_eq!(c.len(), 10);
            assert!((c.last().unwrap().1 - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn table5_small_topology_fast() {
        let row = table5_row(TopologyKind::Internet2, 1).unwrap();
        assert_eq!(row.nodes, 12);
        assert_eq!(row.links, 15);
        assert!(row.instances > 0);
    }

    #[test]
    fn fmt_duration_units() {
        assert!(fmt_duration(Duration::from_millis(29)).starts_with("0.029"));
        assert!(fmt_duration(Duration::from_secs(3)).contains("seconds"));
    }
}
