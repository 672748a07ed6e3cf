//! Online-loop driver: run a generated arrival/departure timeline through
//! the [`OrchestrationLoop`] and summarise what happened.
//!
//! The `apple online` CLI command and the whole-stack benchmark
//! (`benchmark/`) need the same scaffolding — build a merged
//! [`EventTimeline`] over a topology's edge pairs, feed it event by event
//! into the loop — so it lives here once.

use apple_core::online::{OnlineConfig, OrchestrationLoop, StepReport};
use apple_core::orchestrator::ResourceOrchestrator;
use apple_telemetry::Recorder;
use apple_topology::{NodeId, Topology};
use apple_traffic::arrivals::{ArrivalConfig, EventTimeline};

/// Configuration of one online run.
#[derive(Debug, Clone)]
pub struct OnlineRunConfig {
    /// Arrival process per OD pair.
    pub arrivals: ArrivalConfig,
    /// Arrival-generation horizon in seconds (departures extend past it so
    /// the timeline always drains).
    pub horizon_secs: f64,
    /// Host cores per switch.
    pub host_cores: u32,
    /// Loop configuration (re-solve period, churn bound, engine).
    pub online: OnlineConfig,
}

impl Default for OnlineRunConfig {
    fn default() -> Self {
        OnlineRunConfig {
            arrivals: ArrivalConfig::default(),
            horizon_secs: 120.0,
            host_cores: 64,
            online: OnlineConfig::default(),
        }
    }
}

/// Summary of one timeline run through the loop.
#[derive(Debug, Clone, Default)]
pub struct OnlineRunReport {
    /// Events processed.
    pub events: u64,
    /// Classes placed or re-placed through the DP.
    pub placements: u64,
    /// Instances launched.
    pub launches: u64,
    /// Instances retired.
    pub retirements: u64,
    /// Shed events (placement failures).
    pub shed_events: u64,
    /// Global re-solves whose make-before-break transition applied.
    pub resolves_applied: u64,
    /// Global re-solves deferred by the churn bound.
    pub resolves_deferred: u64,
    /// Global re-solves that fell back to the in-place re-pack after
    /// their transition rolled back.
    pub resolves_repacked: u64,
    /// Peak concurrent instance count.
    pub peak_instances: usize,
    /// Peak concurrent served classes.
    pub peak_live_classes: usize,
    /// Instances still running when the timeline drained (0 for a clean
    /// drain).
    pub final_instances: usize,
    /// Classes still shed when the timeline drained.
    pub final_shed: usize,
}

/// All ordered edge-to-edge OD pairs of a topology — the workload the
/// arrival process runs over.
pub fn edge_pairs(topo: &Topology) -> Vec<(NodeId, NodeId)> {
    let nodes: Vec<NodeId> = if topo.edge_nodes.is_empty() {
        (0..topo.graph.node_count()).map(NodeId).collect()
    } else {
        topo.edge_nodes.clone()
    };
    let mut pairs = Vec::new();
    for &s in &nodes {
        for &d in &nodes {
            if s != d {
                pairs.push((s, d));
            }
        }
    }
    pairs
}

/// Generates the merged timeline for a run configuration.
pub fn build_timeline(topo: &Topology, cfg: &OnlineRunConfig) -> EventTimeline {
    EventTimeline::generate(&edge_pairs(topo), &cfg.arrivals, cfg.horizon_secs)
}

/// Runs `timeline` through a fresh [`OrchestrationLoop`], stepping the
/// supplied callback after every event (the benchmark uses it to time
/// steps; pass `|_, _| {}` when uninterested).
pub fn run_timeline<F>(
    topo: &Topology,
    timeline: &EventTimeline,
    cfg: &OnlineRunConfig,
    rec: &dyn Recorder,
    mut after_step: F,
) -> (OrchestrationLoop, OnlineRunReport)
where
    F: FnMut(usize, &StepReport),
{
    let orch = ResourceOrchestrator::with_uniform_hosts(topo, cfg.host_cores);
    let mut looper = OrchestrationLoop::new(topo, orch, cfg.online.clone());
    let mut report = OnlineRunReport::default();
    for (n, event) in timeline.events().iter().enumerate() {
        let step = looper.step(event, rec);
        report.events += 1;
        report.placements += u64::from(step.placed);
        report.launches += u64::from(step.launched);
        report.retirements += u64::from(step.retired);
        report.shed_events += u64::from(step.shed);
        report.resolves_applied += u64::from(step.resolved && !step.resolve_repacked);
        report.resolves_deferred += u64::from(step.resolve_deferred);
        report.resolves_repacked += u64::from(step.resolve_repacked);
        report.peak_instances = report.peak_instances.max(looper.instance_count());
        report.peak_live_classes = report.peak_live_classes.max(looper.live_count());
        after_step(n, &step);
    }
    report.final_instances = looper.instance_count();
    report.final_shed = looper.shed_count();
    (looper, report)
}
