//! Workload `walk-replay`: the read side of the compiled fast path and the
//! packet replay, on the largest rule table, with the LP and the online
//! loop idle in the timed region.
//!
//! Set-up plans AS-3679 once from the pinned matrix, densifies the
//! snapshot's prefix covers and compiles it uncompressed. A round then
//! sweeps the whole probe battery through `walk_batch` single-threaded until
//! a million packets have walked, walks the same million in one
//! two-threaded `walk_batch` call, and applies four single-sub-class churn
//! steps, each `compile → diff → patch per barrier → differential
//! conformance` — the workload's recovery operation. The seed orders the
//! packets and picks the sub-classes that churn.

use crate::harness::{
    fill_round_layers, mean, ratio, setup_median, slow_tenth_us, Layers, Outcome, Recorded,
    RoundTimes, RunCfg, Tracing,
};
use crate::inputs::{base_matrix, sub_seed};
use crate::stats;
use crate::trace::Tracer;
use apple_core::classes::{ClassConfig, ClassSet};
use apple_core::orchestrator::ResourceOrchestrator;
use apple_core::rules::{generate_with, snapshot_of, RuleGenConfig};
use apple_core::{OptimizationEngine, SplitStrategy, SubclassPlan};
use apple_dataplane::compiler::{compile_recorded, CompilerSnapshot};
use apple_dataplane::diff::{apply_batch_unchecked, diff_recorded};
use apple_dataplane::{compile, CompiledProgram, Packet, RuleProgram, WalkEngine};
use apple_nf::InstanceId;
use apple_rng::rngs::StdRng;
use apple_rng::{Rng, SeedableRng};
use apple_sim::packet_replay::{
    conformance_probes, differential_conformance_with, walk_batch, ConformanceProbe,
    WalkEngineConfig,
};
use apple_telemetry::Recorder;
use apple_topology::{Path, TopologyKind};
use std::time::Instant;

/// Class budget and offered load of the AS-3679 plan. `BENCH_walk.json`
/// plans 180 classes; that solve takes 3.5–8 s, too long to repeat for a
/// set-up median, so the plan is smaller and the cover is split further
/// ([`DENSIFY_LEVELS`]) to reach a table of the same order (≈ 31 k rules).
const CLASS_BUDGET: usize = 60;
const LOAD_MBPS: f64 = 6_000.0;
/// Dyadic levels every sub-class prefix is split further before compiling.
const DENSIFY_LEVELS: u8 = 9;
/// Packets walked per engine configuration per round.
const WALKS_PER_ROUND: usize = 1_000_000;
/// Churn-and-verify steps per round.
const CHURN_STEPS: usize = 4;

/// The fixture a run walks against.
struct Fixture {
    snapshot: CompilerSnapshot,
    program: RuleProgram,
    mirror: CompiledProgram,
    probes: Vec<ConformanceProbe>,
    instances: u32,
    fastpath_build_ms: f64,
}

/// Splits every sub-class prefix `levels` dyadic levels further and turns
/// classification compression off, as `apple_bench::walk::densify` does:
/// the same source space in subscriber-granularity prefixes.
fn densify(snap: &CompilerSnapshot, levels: u8) -> CompilerSnapshot {
    let mut dense = snap.clone();
    dense.compress = false;
    for s in &mut dense.subclasses {
        let mut cover = Vec::with_capacity(s.prefixes.len() << levels);
        for &(addr, len) in &s.prefixes {
            let k = levels.min(32 - len);
            let width = 32 - (len + k);
            for i in 0..(1u32 << k) {
                cover.push((addr | (i << width), len + k));
            }
        }
        s.prefixes = cover;
    }
    dense
}

/// Plans, lowers, densifies and compiles the fixture. Fails with a message
/// when the pinned plan does not solve — a correctness failure of the run.
fn fixture(cfg: &RunCfg) -> Result<Fixture, String> {
    let (kind, budget, levels) = if cfg.smoke {
        (TopologyKind::Internet2, 40, 4)
    } else {
        (TopologyKind::As3679, CLASS_BUDGET, DENSIFY_LEVELS)
    };
    let topo = kind.build();
    let tm = base_matrix(&topo, if cfg.smoke { 7_000.0 } else { LOAD_MBPS });
    let classes = ClassSet::build(
        &topo,
        &tm,
        &ClassConfig {
            max_classes: budget,
            ..Default::default()
        },
    );
    let mut orch = ResourceOrchestrator::with_uniform_hosts(&topo, 64);
    let placement = OptimizationEngine::new(Default::default())
        .place(&classes, &orch)
        .map_err(|e| format!("fixture plan: {e}"))?;
    let plan = SubclassPlan::derive(&classes, &placement, SplitStrategy::PrefixSplit);
    let rules = RuleGenConfig::default();
    let generated = generate_with(&topo, &classes, &plan, &placement, &mut orch, &rules)
        .map_err(|e| format!("fixture rule generation: {e}"))?;
    let snapshot = snapshot_of(&topo, &classes, &plan, &generated.assignment, &orch, &rules)
        .map_err(|e| format!("fixture snapshot: {e}"))?;
    let snapshot = densify(&snapshot, levels);
    let program = compile(&snapshot);
    let probes = conformance_probes(&snapshot, &snapshot);
    let t0 = Instant::now();
    let mirror = CompiledProgram::new(&program);
    let fastpath_build_ms = t0.elapsed().as_secs_f64() * 1e3;
    Ok(Fixture {
        snapshot,
        program,
        mirror,
        probes,
        instances: placement.total_instances(),
        fastpath_build_ms,
    })
}

/// What one round measured.
#[derive(Default)]
struct Round {
    sweeps_s: Vec<f64>,
    walks: usize,
    par_walks: usize,
    churn_s: Vec<f64>,
    patch_us: Vec<f64>,
    plans: u64,
    rule_ops: u64,
    conformance_ms: Vec<f64>,
    conformance_walks: u64,
}

/// Walks `jobs` and counts every packet as an attempt, every `WalkError` as
/// a failure.
fn walk_checked<E: WalkEngine + Sync>(
    engine: &E,
    jobs: &[(Packet, &Path)],
    threads: usize,
    out: &mut Outcome,
) {
    let errors = walk_batch(engine, jobs, threads)
        .iter()
        .filter(|r| r.is_err())
        .count();
    out.attempted += jobs.len() as u64;
    if errors > 0 {
        out.failed += errors as u64;
        out.problems.push(format!(
            "{errors} of {} walks returned a WalkError",
            jobs.len()
        ));
    }
}

fn round(
    index: u64,
    cfg: &RunCfg,
    fx: &mut Fixture,
    rec: &dyn Recorder,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Round {
    let mut r = Round::default();
    let mut rng = StdRng::seed_from_u64(sub_seed(cfg.seed, 0, index));
    let target = if cfg.smoke {
        WALKS_PER_ROUND / 10
    } else {
        WALKS_PER_ROUND
    };

    // The battery in this round's packet order.
    let mut order: Vec<usize> = (0..fx.probes.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    let sweep: Vec<(Packet, &Path)> = order
        .iter()
        .map(|&i| (fx.probes[i].packet, &fx.probes[i].path))
        .collect();

    while r.walks < target {
        let ((), secs) = tr.time("replay.sweep", || walk_checked(&fx.mirror, &sweep, 1, out));
        r.sweeps_s.push(secs);
        r.walks += sweep.len();
    }

    let batch: Vec<(Packet, &Path)> = sweep.iter().cycle().take(r.walks).copied().collect();
    tr.time("replay.walk_batch_par", || {
        walk_checked(&fx.mirror, &batch, cfg.threads, out)
    });
    r.par_walks = batch.len();
    drop((batch, sweep));

    let mut fresh = fx
        .snapshot
        .subclasses
        .iter()
        .flat_map(|s| s.instances.iter())
        .map(|i| i.0)
        .max()
        .unwrap_or(0);
    for _ in 0..CHURN_STEPS {
        let mut next = fx.snapshot.clone();
        let victim = rng.gen_range(0..next.subclasses.len());
        fresh += 1;
        next.subclasses[victim].instances[0] = InstanceId(fresh);

        let step = tr.begin("churn_verify");
        let t0 = Instant::now();
        let (target, _) = tr.time("compiler.compile", || compile_recorded(&next, rec));
        let (plan, _) = tr.time("diff.diff", || diff_recorded(&fx.program, &target, rec));
        for b in plan.batches() {
            apply_batch_unchecked(&mut fx.program, b);
            let ((), secs) = tr.time("fastpath.rebuild_delta", || fx.mirror.rebuild_delta(b));
            r.patch_us.push(secs * 1e6);
        }
        r.plans += 1;
        r.rule_ops += plan.stats().total() as u64;
        let (report, secs) = tr.time("replay.conformance", || {
            differential_conformance_with(&fx.snapshot, &next, &WalkEngineConfig::default())
        });
        r.conformance_ms.push(secs * 1e3);
        r.churn_s.push(t0.elapsed().as_secs_f64());
        tr.end(step);

        match report {
            Ok(report) => {
                out.check(true, String::new);
                r.conformance_walks += report.walks as u64;
            }
            Err(e) => {
                out.check(false, || format!("round {index}: conformance: {e}"));
            }
        }
        out.check(fx.program == target, || {
            format!("round {index}: patched program differs from the full compile")
        });
        fx.snapshot = next;
    }
    r
}

/// One pass of the whole battery through the linear reference walker and
/// the compiled mirror; every record must be equal. Returns the linear
/// walker's packets per second.
fn oracle_pass(fx: &Fixture, tr: &mut Tracer, out: &mut Outcome) -> f64 {
    let linear = fx.program.walker();
    let jobs: Vec<(Packet, &Path)> = fx.probes.iter().map(|p| (p.packet, &p.path)).collect();
    let (reference, secs) = tr.time("walk.linear", || walk_batch(&linear, &jobs, 1));
    let compiled = walk_batch(&fx.mirror, &jobs, 1);
    let differing = reference
        .iter()
        .zip(&compiled)
        .filter(|(a, b)| a != b)
        .count();
    out.check(differing == 0, || {
        format!(
            "{differing} of {} probes walk differently through the linear and the compiled engine",
            jobs.len()
        )
    });
    jobs.len() as f64 / secs.max(1e-12)
}

impl Round {
    fn times(&self, probes: usize) -> RoundTimes {
        let per_walk: Vec<f64> = self.sweeps_s.iter().map(|s| s / probes as f64).collect();
        RoundTimes {
            ops: self.walks,
            wall_s: self.sweeps_s.iter().sum(),
            slow_us: slow_tenth_us(&per_walk),
            recover_s: (!self.churn_s.is_empty()).then(|| mean(&self.churn_s)),
        }
    }
}

/// Runs the workload.
pub fn run(cfg: &RunCfg) -> (Outcome, Tracing) {
    let mut out = Outcome::default();
    let mut tracing = Tracing::new(cfg);

    let (built, setup_s, setup_reps) = setup_median(|| fixture(cfg));
    out.e2e.setup_s = setup_s;
    out.note("setup_reps", setup_reps);
    let mut fx = match built {
        Ok(fx) => fx,
        Err(e) => {
            out.check(false, || e);
            return (out, tracing);
        }
    };
    out.e2e.fleet_instances = f64::from(fx.instances);
    out.note("rules", fx.program.rule_count());
    out.note("probes", fx.probes.len());
    out.note("threads_par", cfg.threads);

    // (On a traced run, the untraced round 0 played first moves the fixture
    // on by its churn steps; the probes stay valid, because churn re-homes a
    // stage to a fresh instance and leaves prefixes alone.)
    let rounds = tracing.play(cfg, &mut out, |index, rec, tr, out| {
        round(index, cfg, &mut fx, rec, tr, out)
    });
    let linear_walks_per_s = oracle_pass(&fx, &mut tracing.tracer, &mut out);
    let probes = fx.probes.len();
    let times: Vec<RoundTimes> = rounds.measured.iter().map(|r| r.times(probes)).collect();
    out.set_round_times(&times);
    let sweeps: usize = rounds.measured.iter().map(|r| r.sweeps_s.len()).sum();
    out.note("sweeps", sweeps);

    if let (Some(memory), Some(untraced)) = (&tracing.memory, &rounds.untraced_round0) {
        let n = times.len() as f64;
        let snap = memory.snapshot();
        let recd = Recorded::new(&snap, times.len());
        fill_round_layers(&mut out.layers, &times, &untraced.times(probes));
        let ms = tracing.span_ms_per_round(times.len());
        let ms = |name: &str| ms.get(name).copied().unwrap_or(0.0);
        let per_round =
            |of: fn(&Round) -> u64| rounds.measured.iter().map(of).sum::<u64>() as f64 / n;
        let pooled = |of: fn(&Round) -> &Vec<f64>| -> Vec<f64> {
            rounds
                .measured
                .iter()
                .flat_map(|r| of(r).iter().copied())
                .collect()
        };
        let par_s = ms("replay.walk_batch_par") / 1e3;
        let walks_per_s_par = per_round(|r| r.par_walks as u64) / par_s.max(1e-12);
        let patches = pooled(|r| &r.patch_us);
        let l: &mut Layers = &mut out.layers;
        l.insert("compiler.compile_ms", ms("compiler.compile"));
        l.insert(
            "compiler.rules_compiled",
            recd.counter("dataplane.rules_compiled"),
        );
        l.insert("diff.diff_ms", ms("diff.diff"));
        l.insert("diff.plans", per_round(|r| r.plans));
        l.insert("diff.rule_ops", per_round(|r| r.rule_ops));
        l.insert(
            "compiler.rules_per_op",
            ratio(l["compiler.rules_compiled"], l["diff.rule_ops"]),
        );
        l.insert("fastpath.build_ms", fx.fastpath_build_ms);
        l.insert("fastpath.rebuild_delta_us", mean(&patches));
        l.insert("fastpath.rebuild_delta_calls", patches.len() as f64 / n);
        l.insert("fastpath.walk_ns", 1e9 / out.e2e.ops_per_s.max(1e-12));
        l.insert("replay.walk_batch_ms", par_s * 1e3);
        l.insert("replay.walks_per_s_par", walks_per_s_par);
        l.insert(
            "replay.par_speedup",
            walks_per_s_par / out.e2e.ops_per_s.max(1e-12),
        );
        l.insert(
            "replay.conformance_p50_ms",
            stats::median(&mut pooled(|r| &r.conformance_ms)),
        );
        l.insert(
            "replay.conformance_walks",
            per_round(|r| r.conformance_walks),
        );
        l.insert("walk.linear_walks_per_s", linear_walks_per_s);
    }
    (out, tracing)
}
