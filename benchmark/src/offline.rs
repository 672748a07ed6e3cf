//! Workload `offline-plan`: the Optimization Engine and the LP under it,
//! with the online loop, the data plane and the journal idle.
//!
//! One round plans every fixture of [`POOL`] once: `Apple::plan` cold on a
//! freshly jittered traffic matrix, then — on a fresh orchestrator, as
//! `crates/bench/src/trajectory.rs` does — `Replanner::replan` cold, fail
//! the busiest host, `replan` again. Each of the three calls is one
//! operation; the host-down re-plan is the workload's recovery operation.

use crate::harness::{
    fill_round_layers, setup_median, slow_tenth_us, Outcome, Recorded, RoundTimes, RunCfg, Tracing,
};
use crate::inputs::{base_matrix, jittered, sub_seed};
use crate::trace::Tracer;
use apple_core::classes::{ClassConfig, ClassSet};
use apple_core::controller::{Apple, AppleConfig};
use apple_core::failover::Replanner;
use apple_core::orchestrator::ResourceOrchestrator;
use apple_core::verify::verify_placement;
use apple_core::Placement;
use apple_telemetry::Recorder;
use apple_topology::{NodeId, Topology, TopologyKind};
use apple_traffic::TrafficMatrix;
use std::collections::BTreeMap;

/// `(topology, class budget, offered load in Mbps)` of each fixture. Only
/// the Internet2 row is the `BENCH_plan.json` size. GEANT and AS-3679 run at
/// smaller class budgets than there (80 / 180): at those sizes one plan
/// takes 1–8 s and varies 2× between two matrices that differ by 0.1 %, so a
/// run could not hold enough of them for a steady total. UNIV1 and GEANT run
/// at lower loads than there (18 / 22 Gbps): at those loads the re-plan
/// after the busiest host fails is infeasible for 2–5 % of the jittered
/// matrices, and a workload's operations must not fail (README, "Recorded
/// limits").
const POOL: [(TopologyKind, usize, f64); 4] = [
    (TopologyKind::Internet2, 40, 7_000.0),
    (TopologyKind::Univ1, 30, 6_000.0),
    (TopologyKind::Geant, 40, 12_000.0),
    (TopologyKind::As3679, 40, 6_000.0),
];

/// Tolerance of the placement verifier on the fractional conditions.
const VERIFY_TOL: f64 = 1e-6;

struct Fixture {
    kind: TopologyKind,
    topo: Topology,
    base: TrafficMatrix,
    cfg: AppleConfig,
}

impl Fixture {
    /// Round `index`'s inputs for fixture number `k`: the jittered matrix
    /// and the class set the re-planner is given.
    fn inputs(&self, cfg: &RunCfg, k: usize, index: u64) -> (TrafficMatrix, ClassSet) {
        let tm = jittered(&self.base, sub_seed(cfg.seed, k as u64, index));
        let classes = ClassSet::build(&self.topo, &tm, &self.cfg.classes);
        (tm, classes)
    }
}

/// Builds every topology, its pinned base matrix and the first round's
/// inputs: everything that exists before the first timed call.
fn fixtures(cfg: &RunCfg) -> Vec<Fixture> {
    let pool: &[(TopologyKind, usize, f64)] = if cfg.smoke { &POOL[..1] } else { &POOL };
    pool.iter()
        .enumerate()
        .map(|(k, &(kind, budget, load))| {
            let topo = kind.build();
            let fx = Fixture {
                kind,
                base: base_matrix(&topo, load),
                topo,
                cfg: AppleConfig {
                    classes: ClassConfig {
                        max_classes: budget,
                        ..Default::default()
                    },
                    ..Default::default()
                },
            };
            std::hint::black_box(fx.inputs(cfg, k, 0));
            fx
        })
        .collect()
}

/// Timings of one round, in seconds.
#[derive(Default)]
struct Round {
    plan: Vec<f64>,
    cold: Vec<f64>,
    /// `(fixture, seconds)` of each host-down re-plan that was attempted.
    down: Vec<(usize, f64)>,
    instances: u32,
}

impl Round {
    fn ops(&self) -> impl Iterator<Item = f64> + '_ {
        self.plan
            .iter()
            .chain(&self.cold)
            .copied()
            .chain(self.down.iter().map(|d| d.1))
    }

    fn times(&self, fixtures: usize) -> RoundTimes {
        let ops: Vec<f64> = self.ops().collect();
        RoundTimes {
            ops: ops.len(),
            wall_s: ops.iter().sum(),
            slow_us: slow_tenth_us(&ops),
            // Σ over the topologies, when each one's re-plan was reached.
            recover_s: (self.down.len() == fixtures).then(|| self.down.iter().map(|d| d.1).sum()),
        }
    }
}

/// The host running the most instances of `p` (lowest id on ties).
fn busiest_host(p: &Placement) -> Option<NodeId> {
    let mut per_host: BTreeMap<NodeId, u32> = BTreeMap::new();
    for (v, _, q) in p.q_entries() {
        *per_host.entry(v).or_insert(0) += q;
    }
    per_host
        .iter()
        .max_by_key(|&(v, q)| (*q, std::cmp::Reverse(*v)))
        .map(|(&v, _)| v)
}

fn verified(
    out: &mut Outcome,
    what: &str,
    kind: TopologyKind,
    classes: &ClassSet,
    placement: &Placement,
    orch: &ResourceOrchestrator,
) {
    let violations = verify_placement(classes, placement, orch, VERIFY_TOL);
    out.check(violations.is_empty(), || {
        format!(
            "{what} on {}: {} violations, first {:?}",
            kind.name(),
            violations.len(),
            violations[0]
        )
    });
}

fn round(
    index: u64,
    cfg: &RunCfg,
    fixtures: &[Fixture],
    rec: &dyn Recorder,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Round {
    let mut r = Round::default();
    for (k, fx) in fixtures.iter().enumerate() {
        let ((tm, classes), _) = tr.time("classes.build", || fx.inputs(cfg, k, index));

        let (plan, secs) = tr.time("apple.plan", || {
            Apple::plan_recorded(&fx.topo, &tm, &fx.cfg, rec)
        });
        r.plan.push(secs);
        match &plan {
            Ok(p) => {
                out.check(true, String::new);
                r.instances += p.placement().total_instances();
                let id = tr.begin("verify.placement");
                verified(
                    out,
                    "plan",
                    fx.kind,
                    p.classes(),
                    p.placement(),
                    p.orchestrator(),
                );
                tr.end(id);
            }
            Err(e) => {
                out.check(false, || format!("plan on {}: {e}", fx.kind.name()));
            }
        }

        let mut orch = ResourceOrchestrator::with_uniform_hosts(&fx.topo, 64);
        let mut replanner = Replanner::new(fx.cfg.engine.clone());
        let (cold, secs) = tr.time("failover.replan_cold", || {
            replanner.replan_recorded(&classes, &orch, rec)
        });
        r.cold.push(secs);
        let cold = match cold {
            Ok(report) => {
                out.check(true, String::new);
                report
            }
            Err(e) => {
                out.check(false, || format!("cold replan on {}: {e}", fx.kind.name()));
                continue;
            }
        };
        let id = tr.begin("verify.placement");
        verified(
            out,
            "cold replan",
            fx.kind,
            &classes,
            &cold.placement,
            &orch,
        );
        tr.end(id);

        let Some(dead) = busiest_host(&cold.placement) else {
            out.check(false, || {
                format!("cold replan on {} placed nothing", fx.kind.name())
            });
            continue;
        };
        let (failed, _) = tr.time("orchestrator.fail_host", || orch.fail_host(dead));
        if let Err(e) = failed {
            out.check(false, || {
                format!("fail_host({dead:?}) on {}: {e}", fx.kind.name())
            });
            continue;
        }
        let (down, secs) = tr.time("failover.replan_host_down", || {
            replanner.replan_recorded(&classes, &orch, rec)
        });
        r.down.push((k, secs));
        match down {
            Ok(report) => {
                out.check(true, String::new);
                let id = tr.begin("verify.placement");
                verified(
                    out,
                    "host-down replan",
                    fx.kind,
                    &classes,
                    &report.placement,
                    &orch,
                );
                let on_dead: u32 = report
                    .placement
                    .q_entries()
                    .filter(|&(v, _, _)| v == dead)
                    .map(|(_, _, q)| q)
                    .sum();
                out.check(on_dead == 0, || {
                    format!(
                        "host-down replan on {} left {on_dead} instances on the failed host",
                        fx.kind.name()
                    )
                });
                tr.end(id);
            }
            Err(e) => {
                out.check(false, || {
                    format!("host-down replan on {}: {e}", fx.kind.name())
                });
            }
        }
    }
    r
}

/// Runs the workload.
pub fn run(cfg: &RunCfg) -> (Outcome, Tracing) {
    let mut out = Outcome::default();
    let (fixtures, setup_s, setup_reps) = setup_median(|| fixtures(cfg));
    out.e2e.setup_s = setup_s;
    out.note("setup_reps", setup_reps);
    out.note("fixtures", fixtures.len());

    let mut tracing = Tracing::new(cfg);
    let rounds = tracing.play(cfg, &mut out, |index, rec, tr, out| {
        round(index, cfg, &fixtures, rec, tr, out)
    });
    let times: Vec<RoundTimes> = rounds
        .measured
        .iter()
        .map(|r| r.times(fixtures.len()))
        .collect();
    out.set_round_times(&times);
    let n = times.len() as f64;
    out.e2e.fleet_instances = rounds
        .measured
        .iter()
        .map(|r| f64::from(r.instances))
        .sum::<f64>()
        / n;

    if let (Some(memory), Some(untraced)) = (&tracing.memory, &rounds.untraced_round0) {
        let snap = memory.snapshot();
        Recorded::new(&snap, times.len()).fill_solver_layers(&mut out.layers);
        fill_round_layers(&mut out.layers, &times, &untraced.times(fixtures.len()));
        // `Apple::plan` builds its classes under the program's own span;
        // the re-planner's class set is built by the harness (with the
        // matrix jitter, which is noise next to the path computation).
        let ms = tracing.span_ms_per_round(times.len());
        let ms = |name: &str| ms.get(name).copied().unwrap_or(0.0);
        let l = &mut out.layers;
        *l.entry("classes.build_ms").or_insert(0.0) += ms("classes.build");
        l.insert("failover.replan_cold_ms", ms("failover.replan_cold"));
        l.insert(
            "failover.replan_host_down_ms",
            ms("failover.replan_host_down"),
        );
    }
    (out, tracing)
}
