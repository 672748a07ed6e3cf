//! The paper's evaluation (§VIII–IX): one experiment per table or figure,
//! registered once in [`EXPERIMENTS`] and run by `apple paper <NAME>`.
//!
//! Each experiment prints its deterministic lines on stdout; `./ci` diffs
//! them against the committed `results/<NAME>.txt`. Wall-clock numbers
//! (Table V's solve times, the only ones today) go to stderr. Seeds, trial
//! counts and loads are constants of each experiment, so a name always
//! prints the same answer.
//!
//! | Name | Paper artifact | Built on |
//! |---|---|---|
//! | `table1` | Table I | `Apple::plan`, `baselines::steering_consolidation` |
//! | `table5` | Tables IV and V | `OptimizationEngine::place` |
//! | `fig6`   | Fig. 6 | `apple_nf::OverloadModel` |
//! | `fig7`   | Fig. 7 | [`naive_failover_throughput`] |
//! | `fig8`   | Fig. 8 | [`transfer_times`] |
//! | `fig9`   | Fig. 9 | [`detection_timeline`] |
//! | `fig10`  | Fig. 10 | `Apple::plan`'s TCAM report |
//! | `fig11`  | Fig. 11 | `OptimizationEngine::place`, `baselines::ingress_per_class` |
//! | `fig12`  | Fig. 12 | [`replay()`] with and without fast failover |
//!
//! Whole-stack performance (throughput, latency, recovery, memory) is
//! measured by the stand-alone `benchmark/` package, not here.

use crate::failover_lab::{
    detection_timeline, naive_failover_throughput, transfer_times, DetectorConfig, TransferStrategy,
};
use crate::metrics::{cdf, Summary};
use crate::replay::{replay, ReplayConfig, ReplayError, ReplayOutcome};
use apple_core::baselines::{ingress_per_class, steering_consolidation};
use apple_core::classes::{ClassConfig, ClassSet};
use apple_core::controller::{Apple, AppleConfig};
use apple_core::engine::{EngineConfig, EngineError, OptimizationEngine, Placement};
use apple_core::orchestrator::ResourceOrchestrator;
use apple_core::rules::TcamReport;
use apple_dataplane::packet::{HostTag, Packet};
use apple_nf::{OverloadModel, TimingModel, VnfSpec};
use apple_telemetry::NOOP;
use apple_topology::{Topology, TopologyKind};
use apple_traffic::{GravityModel, SeriesConfig, TmSeries};
use std::time::Duration;

/// Every paper artifact by name, in the order the paper presents them.
pub const EXPERIMENTS: &[(&str, fn())] = &[
    ("table1", table1),
    ("table5", table5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
];

/// The planning configuration per topology. The class budget keeps the LP
/// within the solve-time envelope the paper reports in Table V while
/// covering all of the offered traffic (truncation preserves total rate).
fn apple_config(kind: TopologyKind) -> AppleConfig {
    let max_classes = match kind {
        TopologyKind::Internet2 => 40,
        TopologyKind::Geant => 80,
        TopologyKind::Univ1 => 30,
        TopologyKind::As3679 => 180,
        TopologyKind::Synthetic => 20,
    };
    AppleConfig {
        classes: ClassConfig {
            max_classes,
            ..Default::default()
        },
        engine: EngineConfig::default(),
    }
}

/// Total offered load per topology (Mbps); scaled with network size.
///
/// Loads sit in the regime the paper evaluates: each class is well below a
/// single instance's capacity, so instance counts are dominated by the
/// "at least one instance per (switch, NF)" integrality — the regime where
/// APPLE's cross-class multiplexing wins big over ingress consolidation.
fn offered_load(kind: TopologyKind) -> f64 {
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

/// Plans a full deployment (classes, placement, rules) under the gravity
/// traffic matrix of `seed`.
fn plan(topo: &Topology, seed: u64) -> Result<Apple, EngineError> {
    let tm = GravityModel::new(offered_load(topo.kind), seed).base_matrix(topo);
    Apple::plan(topo, &tm, &apple_config(topo.kind))
}

/// Builds the classes of the gravity traffic matrix of `seed` and places
/// them, without generating rules.
fn place(topo: &Topology, seed: u64) -> Result<(ClassSet, Placement), EngineError> {
    let tm = GravityModel::new(offered_load(topo.kind), seed).base_matrix(topo);
    let classes = ClassSet::build(topo, &tm, &apple_config(topo.kind).classes);
    let orch = ResourceOrchestrator::with_uniform_hosts(topo, 64);
    let placement = OptimizationEngine::default().place(&classes, &orch)?;
    Ok((classes, placement))
}

/// Prints a horizontal rule sized for the standard table width.
fn hr() {
    println!("{}", "-".repeat(72));
}

// --------------------------------------------------------------------
// Table I
// --------------------------------------------------------------------

/// Verdicts for the three desired properties of Table I.
#[derive(Debug)]
struct PropertyCheck {
    /// Every class's packets traverse exactly its chain, in order.
    policy_enforcement: bool,
    /// No packet's switch trajectory deviates from the routing path.
    interference_free: bool,
    /// Every VNF instance is its own VM (disjoint resource accounting).
    isolation: bool,
}

/// Checks Table I's properties mechanically on a planned deployment: one
/// packet per class walked through its rule program.
fn table1_properties(apple: &Apple) -> PropertyCheck {
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
                if nfs != class.chain.nfs() || rec.packet.host_tag != HostTag::Fin {
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
    PropertyCheck {
        policy_enforcement,
        interference_free,
        isolation: committed == per_instance,
    }
}

/// Table I as a mechanical check on Internet2, contrasted with a
/// StEERING/SIMPLE-style steering deployment of the same classes.
fn table1() {
    println!("Table I — desired properties, checked mechanically on Internet2");
    hr();
    let topo = apple_topology::zoo::internet2();
    let apple = match plan(&topo, 7) {
        Ok(apple) => apple,
        Err(e) => return println!("FAILED: {e}"),
    };
    let check = table1_properties(&apple);
    let steer = steering_consolidation(&topo, apple.classes());
    for (property, holds) in [
        ("Policy enforcement", check.policy_enforcement),
        ("Interference freedom", check.interference_free),
        ("Isolation (VM per VNF)", check.isolation),
    ] {
        println!("{property:<28}{:>12}", if holds { "yes" } else { "NO" });
    }
    hr();
    println!(
        "steering baseline (StEERING/SIMPLE style): {:.0}% of classes re-routed",
        steer.path_change_frac * 100.0
    );
    println!("APPLE re-routes 0% — placement follows paths, not the other way around.");
    println!();
    println!("quantified trade-off (Internet2): steering consolidates to the fewest");
    println!("instances possible, but pays for it in interference:");
    println!(
        "  APPLE    : {:>4} cores, 0% re-routed, +0.0 hops",
        apple.placement().total_cores()
    );
    println!(
        "  steering : {:>4} cores, {:.0}% re-routed, +{:.1} hops avg",
        steer.total_cores(),
        steer.path_change_frac * 100.0,
        steer.mean_extra_hops
    );
}

// --------------------------------------------------------------------
// Table V
// --------------------------------------------------------------------

/// One Table V row.
#[derive(Debug)]
struct SolveRow {
    /// Switch count.
    nodes: usize,
    /// Link count (directed for GEANT, matching the data set's convention).
    links: usize,
    /// Classes in the optimisation input of the last trial.
    classes: usize,
    /// Total instances placed in the last trial.
    instances: u32,
    /// Mean solve time over the trials.
    mean_time: Duration,
}

/// Places one topology's classes for `trials` traffic matrices (gravity
/// seeds 0, 1, …) and reports the mean solve time.
fn table5_row(kind: TopologyKind, trials: u32) -> Result<SolveRow, EngineError> {
    let topo = kind.build();
    let mut total = Duration::ZERO;
    let mut last = (0, 0);
    for t in 0..trials {
        let (classes, placement) = place(&topo, u64::from(t))?;
        total += placement.solve_time();
        last = (classes.len(), placement.total_instances());
    }
    let links = if kind == TopologyKind::Geant {
        topo.graph.directed_link_count()
    } else {
        topo.graph.undirected_link_count()
    };
    Ok(SolveRow {
        nodes: topo.graph.node_count(),
        links,
        classes: last.0,
        instances: last.1,
        mean_time: total / trials,
    })
}

/// Formats a Duration in adaptive units, like the paper's Table V.
fn fmt_duration(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s < 1.0 {
        format!("{:.3} second", s)
    } else {
        format!("{:.3} seconds", s)
    }
}

/// Table IV (the VNF data sheets, an input) and Table V (the Optimization
/// Engine's mean computation time on the four topologies). The times are
/// wall clock, so they go to stderr.
fn table5() {
    println!("Table IV — VNF data sheets (input)");
    hr();
    println!(
        "{:<18}{:>14}{:>12}{:>10}",
        "Network Function", "Core Required", "Capacity", "ClickOS"
    );
    for spec in VnfSpec::catalog() {
        println!(
            "{:<18}{:>14}{:>9}Mbps{:>10}",
            spec.nf.name(),
            spec.cores,
            spec.capacity_mbps,
            if spec.clickos { "yes" } else { "no" }
        );
    }
    println!();
    println!("Table V — average computation time of different topologies");
    hr();
    println!(
        "{:<12}{:>7}{:>7}{:>9}{:>11}",
        "Topology", "Nodes", "Links", "Classes", "Instances"
    );
    let trials = 3;
    eprintln!("Table V time (wall clock, mean of {trials} traffic matrices)");
    for kind in TopologyKind::all() {
        match table5_row(kind, trials) {
            Ok(row) => {
                println!(
                    "{:<12}{:>7}{:>7}{:>9}{:>11}",
                    kind.name(),
                    row.nodes,
                    row.links,
                    row.classes,
                    row.instances
                );
                eprintln!("{:<12}{:>18}", kind.name(), fmt_duration(row.mean_time));
            }
            Err(e) => println!("{:<12} FAILED: {e}", kind.name()),
        }
    }
    hr();
    println!("paper reference: Internet2 0.029 s / GEANT 0.1 s / UNIV1 0.235 s / AS-3679 3.013 s");
    println!(
        "(absolute numbers differ — our simplex is not CPLEX — the scaling shape is the result)"
    );
}

// --------------------------------------------------------------------
// Figs. 6–9: the prototype micro-experiments
// --------------------------------------------------------------------

/// Fig. 6's `(rx Kpps, loss rate)` sweep for the ClickOS passive monitor.
fn fig6_loss_curve() -> Vec<(f64, f64)> {
    let model = OverloadModel::passive_monitor();
    (0..=28)
        .map(|i| {
            let kpps = f64::from(i) * 0.5;
            (kpps, model.loss_rate(kpps * 1_000.0))
        })
        .collect()
}

/// Fig. 6: loss rate vs packet receiving rate for a ClickOS passive
/// monitor (1500 B UDP packets).
fn fig6() {
    println!("Fig. 6 — loss rate vs packet receiving rate (ClickOS passive monitor)");
    hr();
    println!("{:>10}{:>14}", "rx (Kpps)", "loss rate");
    for (kpps, loss) in fig6_loss_curve() {
        let bar = "#".repeat((loss * 40.0).round() as usize);
        println!("{kpps:>10.1}{loss:>14.4}  {bar}");
    }
    hr();
    println!("shape: ~0 below the knee, soaring once the rate passes capacity (~10 Kpps);");
    println!("the 8.5 Kpps overload threshold of §VIII-E sits just below the knee.");
}

/// Fig. 7: throughput collapse during a naive failover — rules switched at
/// VM-creation time, so traffic blackholes for one OpenStack ClickOS boot
/// (3.9–4.6 s, §VIII-B).
fn fig7() {
    let timing = TimingModel::paper(0);
    println!(
        "micro-measurements (§VIII): rule install {} ms, ClickOS reconfigure {} ms,",
        timing.rule_install(),
        timing.reconfigure()
    );
    println!(
        "OpenStack ClickOS boot 3.9–4.6 s (mean {} ms)",
        timing.mean_openstack_boot()
    );
    println!();
    println!("Fig. 7 — UDP throughput during naive failover (10 Kpps offered)");
    hr();
    // 10 repetitions, like the paper's experiment.
    let outages: Vec<f64> = (0..10)
        .map(|run| {
            let tl = naive_failover_throughput(10_000.0, 8_000, 50, run);
            let outage_ms = tl.iter().filter(|p| p.delivered_pps == 0.0).count() * 50;
            outage_ms as f64 / 1000.0
        })
        .collect();
    println!("approximate booting time per run (s): {outages:.1?}");
    let mean = outages.iter().sum::<f64>() / outages.len() as f64;
    println!(
        "range {:.1}–{:.1} s, average {:.1} s (paper: 3.9–4.6 s, avg 4.2 s)",
        outages.iter().cloned().fold(f64::INFINITY, f64::min),
        outages.iter().cloned().fold(0.0, f64::max),
        mean
    );
    println!();
    println!("one run's timeline (50 ms bins, '#' = 2 Kpps delivered):");
    for p in naive_failover_throughput(10_000.0, 6_500, 250, 0) {
        let bar = "#".repeat((p.delivered_pps / 2_000.0).round() as usize);
        println!("{:>6} ms {:>8.0} pps  {bar}", p.t_ms, p.delivered_pps);
    }
}

/// Fig. 8's per-strategy CDFs of the 20 MB transfer time (10 runs each).
fn fig8_cdfs(seed: u64) -> Vec<(TransferStrategy, Vec<(f64, f64)>)> {
    TransferStrategy::all()
        .into_iter()
        .map(|s| {
            let times = transfer_times(s, 20.0, 100.0, 10, seed);
            (s, cdf(&times))
        })
        .collect()
}

/// Fig. 8: CDF of the time to transmit a 20 MB file with and without
/// failover (wait-5-s and reconfigure strategies, §VIII-C/D).
fn fig8() {
    println!("Fig. 8 — CDF of 20 MB file TX time (10 runs per strategy)");
    hr();
    for (strategy, cdf) in fig8_cdfs(11) {
        println!("strategy: {}", strategy.label());
        for (secs, frac) in &cdf {
            println!("  {secs:>7.3} s  -> {frac:>5.2}");
        }
    }
    hr();
    println!("all three distributions coincide up to statistical fluctuation —");
    println!("correct failover adds no transfer-time overhead (UDP loss is 0% as well).");
}

/// Fig. 9: the overload-detection timeline — source rate 1 → 10 → 1 Kpps,
/// detection at 8.5 Kpps by polling the rate, a second ClickOS monitor
/// reconfigured within tens of milliseconds, and roll-back below 4 Kpps
/// (§VIII-E).
fn fig9() {
    println!("Fig. 9 — overloading detection timeline");
    hr();
    println!(
        "{:>8}{:>12}{:>12}{:>9}{:>10}",
        "t (ms)", "send (pps)", "overloaded", "helper", "loss"
    );
    let cfg = DetectorConfig::paper();
    let tl = detection_timeline(&cfg, &NOOP);
    for p in tl.iter().step_by(5) {
        println!(
            "{:>8}{:>12.0}{:>12}{:>9}{:>10.4}",
            p.t_ms,
            p.send_pps,
            if p.overloaded { "yes" } else { "-" },
            if p.helper_active { "yes" } else { "-" },
            p.loss_rate
        );
    }
    hr();
    let detect = tl.iter().find(|p| p.overloaded).map(|p| p.t_ms);
    let helper = tl.iter().find(|p| p.helper_active).map(|p| p.t_ms);
    let lossy = tl.iter().filter(|p| p.loss_rate > 0.0).count();
    println!(
        "burst at {} ms; detected at {:?} ms; helper live at {:?} ms; lossy samples: {}",
        cfg.burst_start_ms, detect, helper, lossy
    );
    println!("paper: overload detected immediately, packet loss 0% throughout");
}

// --------------------------------------------------------------------
// Figs. 10–12: the simulation experiments
// --------------------------------------------------------------------

/// Plans `trials` traffic matrices (gravity seeds 1000, 1001, …) on one
/// topology and returns each plan's TCAM accounting.
fn fig10_tcam(kind: TopologyKind, trials: u64) -> Result<Vec<TcamReport>, EngineError> {
    let topo = kind.build();
    (0..trials)
        .map(|t| Ok(plan(&topo, 1_000 + t)?.program().tcam.clone()))
        .collect()
}

/// Fig. 10: boxplot of the TCAM usage reduction ratio (tagging scheme vs
/// per-hop classification) under eight traffic matrices per topology, then
/// the first matrix's §V-B cross-product and power figures.
fn fig10() {
    println!("Fig. 10 — TCAM usage reduction ratio (untagged / tagged)");
    hr();
    println!(
        "{:<12}{:>8}{:>8}{:>8}{:>8}{:>8}{:>8}",
        "Topology", "min", "p25", "median", "p75", "max", "mean"
    );
    let rows = TopologyKind::evaluation_trio().map(|kind| (kind, fig10_tcam(kind, 8)));
    for (kind, row) in &rows {
        match row {
            Ok(tcams) => {
                let ratios: Vec<f64> = tcams.iter().map(TcamReport::reduction_ratio).collect();
                let s = Summary::of(&ratios);
                println!(
                    "{:<12}{:>8.2}{:>8.2}{:>8.2}{:>8.2}{:>8.2}{:>8.2}",
                    kind.name(),
                    s.min,
                    s.p25,
                    s.p50,
                    s.p75,
                    s.max,
                    s.mean
                );
            }
            Err(e) => println!("{:<12} FAILED: {e}", kind.name()),
        }
    }
    hr();
    println!("paper: at least 4x reduction on all three; UNIV1 largest because DC traffic");
    println!("exploits multi-paths and untagged classification replicates across them.");
    // The first traffic matrix's plan of every topology that planned.
    let first: Vec<_> = rows
        .iter()
        .filter_map(|(kind, row)| Some((kind.name(), &row.as_ref().ok()?[0])))
        .collect();
    println!();
    println!("§V-B fallback: on switches without pipelining the APPLE table must be");
    println!("cross-producted with the routing table, multiplying TCAM use:");
    for (name, t) in &first {
        println!(
            "  {:<12} pipelined {:>5} entries, cross-product {:>6} ({:.0}x penalty)",
            name,
            t.tagged_total,
            t.cross_product_total,
            t.cross_product_penalty()
        );
    }
    println!();
    println!("power (§III motivation, at ~12 mW per searched TCAM entry):");
    for (name, t) in &first {
        println!(
            "  {:<12} tagged {:>7.2} W vs untagged {:>7.2} W",
            name,
            t.power_watts(12.0),
            t.untagged_power_watts(12.0)
        );
    }
}

/// Mean cores of APPLE's placement and of the `ingress` strawman over
/// `trials` traffic matrices (gravity seeds 2000, 2001, …).
fn fig11_core_usage(kind: TopologyKind, trials: u32) -> Result<(f64, f64), EngineError> {
    let topo = kind.build();
    let (mut apple, mut ingress) = (0.0, 0.0);
    for t in 0..trials {
        let (classes, placement) = place(&topo, 2_000 + u64::from(t))?;
        apple += f64::from(placement.total_cores());
        ingress += f64::from(ingress_per_class(&classes).total_cores());
    }
    Ok((apple / f64::from(trials), ingress / f64::from(trials)))
}

/// Fig. 11: average CPU core usage of APPLE vs the `ingress` strawman (each
/// class's chain consolidated at its ingress switch, nothing shared).
fn fig11() {
    println!("Fig. 11 — average CPU core usage: APPLE vs ingress consolidation");
    hr();
    println!(
        "{:<12}{:>14}{:>16}{:>12}",
        "Topology", "APPLE cores", "ingress cores", "reduction"
    );
    for kind in TopologyKind::evaluation_trio() {
        match fig11_core_usage(kind, 5) {
            Ok((apple, ingress)) => println!(
                "{:<12}{:>14.1}{:>16.1}{:>11.2}x",
                kind.name(),
                apple,
                ingress,
                ingress / apple
            ),
            Err(e) => println!("{:<12} FAILED: {e}", kind.name()),
        }
    }
    hr();
    println!("paper: ~4x reduction on Internet2, ~2.5x on GEANT, small gap on UNIV1");
    println!("(only two core switches limit where APPLE can multiplex).");
}

/// Replays a bursty series on one topology with fast failover, then
/// without it.
fn fig12_loss_series(
    kind: TopologyKind,
    snapshots: usize,
    seed: u64,
) -> Result<(ReplayOutcome, ReplayOutcome), ReplayError> {
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
    let with_cfg = ReplayConfig {
        apple: apple_config(kind),
        fast_failover: true,
        ..Default::default()
    };
    let with = replay(&topo, &series, &with_cfg, &NOOP)?;
    let without_cfg = ReplayConfig {
        fast_failover: false,
        ..with_cfg
    };
    Ok((with, replay(&topo, &series, &without_cfg, &NOOP)?))
}

/// Fig. 12: packet loss rate over time with and without fast failover on
/// the three evaluation topologies, and the §IX-E failover core budget.
fn fig12() {
    println!("Fig. 12 — packet loss over time, with vs without fast failover");
    for kind in TopologyKind::evaluation_trio() {
        hr();
        println!("topology: {}", kind.name());
        let (with, without) = match fig12_loss_series(kind, 120, 21) {
            Ok(pair) => pair,
            Err(e) => {
                println!("FAILED: {e}");
                continue;
            }
        };
        println!(
            "{:>6}{:>14}{:>14}{:>14}",
            "tick", "loss w/ FF", "loss w/o FF", "helper cores"
        );
        let w = with.loss.samples();
        let wo = without.loss.samples();
        let hc = with.helper_cores.samples();
        for i in (0..w.len()).step_by(6) {
            println!("{:>6}{:>14.4}{:>14.4}{:>14.0}", i, w[i].1, wo[i].1, hc[i].1);
        }
        println!(
            "mean loss: {:.4} (with) vs {:.4} (without); peak loss {:.4} vs {:.4}",
            with.loss.mean(),
            without.loss.mean(),
            with.loss.max(),
            without.loss.max()
        );
        println!(
            "failover: {} notifications, {} helpers, peak {} extra cores (avg over run {:.1}) — paper claims < 17",
            with.notifications,
            with.helpers_spawned,
            with.peak_helper_cores,
            with.helper_cores.mean()
        );
    }
    hr();
    println!("shape: the no-failover curve spikes during bursts; fast failover absorbs them.");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_all_properties_hold() {
        let topo = apple_topology::zoo::internet2();
        let apple = plan(&topo, 3).unwrap();
        let check = table1_properties(&apple);
        assert!(check.policy_enforcement);
        assert!(check.interference_free);
        assert!(check.isolation);
        assert!(steering_consolidation(&topo, apple.classes()).path_change_frac > 0.5);
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
