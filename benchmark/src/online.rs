//! Workloads `online-churn` and `online-resolve`: the full online stack —
//! `JournaledLoop` over an in-memory journal, incremental rule compiler,
//! fast-path mirror and asynchronous southbound channel — fed one seeded
//! arrival/departure timeline per round by a single caller that issues the
//! next event when the previous `step` returns.
//!
//! The two workloads run the same code on two regimes ([`CHURN`],
//! [`RESOLVE`]); after each round the run's journal is recovered with every
//! snapshot withheld, which is the workload's recovery operation.

use crate::harness::{
    fill_round_layers, mean, percentile_us, ratio, setup_median, slow_tenth_us, Layers, Outcome,
    Recorded, RoundTimes, RunCfg, Tracing,
};
use crate::inputs::{sub_seed, BASE_GRAVITY_SEED};
use crate::stats;
use crate::trace::Tracer;
use apple_core::classes::IncrementalClasses;
use apple_core::online::OnlineConfig;
use apple_core::recovery::{
    encode_state, recover, state_digest, JournaledLoop, RecoveryConfig, RecoverySetup, SharedFabric,
};
use apple_core::verify::verify_shares;
use apple_dataplane::compiler::CompilerSnapshot;
use apple_dataplane::southbound::{apply_plan_async, SouthboundConfig};
use apple_dataplane::{compile, diff, CompiledProgram};
use apple_faults::CrashPoint;
use apple_journal::{Journal, MemStore, SharedMemStore};
use apple_sim::online::{build_timeline, OnlineRunConfig};
use apple_telemetry::{Recorder, NOOP};
use apple_topology::TopologyKind;
use apple_traffic::arrivals::{ArrivalConfig, EventTimeline, FlowEventKind};
use apple_traffic::GravityModel;
use std::time::Instant;

/// What distinguishes the two online workloads.
#[derive(Debug, Clone, Copy)]
pub struct Regime {
    /// Topology the timeline runs over.
    pub kind: TopologyKind,
    /// Flow arrivals per second per ordered edge pair.
    pub arrival_rate: f64,
    /// Mean flow lifetime (s).
    pub mean_duration_secs: f64,
    /// Arrival horizon of one round (virtual seconds).
    pub horizon_secs: f64,
    /// Events between global re-solves (0 = never).
    pub resolve_every: u64,
    /// Restrict arrivals to this many of the heaviest ordered pairs of the
    /// pinned gravity model (`None` = every edge pair).
    pub heaviest_pairs: Option<usize>,
}

/// `online-churn`: GEANT, short flows, no re-solve. Classes are born and
/// die on most events, so compile → diff → southbound → mirror patch and
/// the journal do the work and the LP does none.
pub const CHURN: Regime = Regime {
    kind: TopologyKind::Geant,
    arrival_rate: 0.5,
    mean_duration_secs: 2.0,
    horizon_secs: 10.0,
    resolve_every: 0,
    heaviest_pairs: None,
};

/// `online-resolve`: Internet2 with a global re-solve every 50 events, which
/// is nine tenths of the loop's wall. Flows arrive on the 40 heaviest pairs
/// only, three alive per pair on average, so the class set the re-solve sees
/// keeps its structure (the `BENCH_plan.json` Internet2 size) and only the
/// rates move: with every pair arriving and dying, one re-solve varies 2–4×
/// from one class set to the next and 300 of them still spread the run's
/// totals by 9–15 % (README, "Recorded limits").
pub const RESOLVE: Regime = Regime {
    kind: TopologyKind::Internet2,
    arrival_rate: 0.6,
    mean_duration_secs: 5.0,
    horizon_secs: 50.0,
    resolve_every: 50,
    heaviest_pairs: Some(40),
};

/// Mean rate of one flow (Mbps).
const FLOW_MBPS: f64 = 5.0;
/// Events between two runs of the correctness gate (outside the timed wall);
/// a smoke round is shorter than that and checks every [`CHECK_EVERY_SMOKE`].
const CHECK_EVERY: usize = 1_000;
const CHECK_EVERY_SMOKE: usize = 50;
/// Traced run: events between two captured (before, after) snapshot pairs.
const SAMPLE_EVERY: usize = 64;

/// One round's inputs and a fresh controller over an empty journal.
struct Stage {
    setup: RecoverySetup,
    timeline: EventTimeline,
    store: SharedMemStore,
    controller: JournaledLoop<SharedMemStore>,
}

impl Regime {
    fn scaled(self, cfg: &RunCfg) -> Regime {
        if cfg.smoke {
            Regime {
                kind: TopologyKind::Internet2,
                horizon_secs: self.horizon_secs / 10.0,
                ..self
            }
        } else {
            self
        }
    }

    /// Everything before the first timed `step` of round `index`.
    fn stage(self, cfg: &RunCfg, index: u64) -> Stage {
        let seed = sub_seed(cfg.seed, 0, index);
        let topo = self.kind.build();
        let run = OnlineRunConfig {
            arrivals: ArrivalConfig {
                arrival_rate: self.arrival_rate,
                mean_duration_secs: self.mean_duration_secs,
                mean_rate_mbps: FLOW_MBPS,
                seed,
            },
            horizon_secs: self.horizon_secs,
            online: OnlineConfig {
                resolve_every: self.resolve_every,
                max_churn: 64,
                seed,
                compile_rules: true,
                southbound: Some(SouthboundConfig::paper(seed)),
                ..Default::default()
            },
            ..Default::default()
        };
        let timeline = match self.heaviest_pairs {
            Some(k) => {
                let mut pairs = GravityModel::new(1.0, BASE_GRAVITY_SEED).ranked_pairs(&topo);
                pairs.truncate(k);
                EventTimeline::generate(&pairs, &run.arrivals, run.horizon_secs)
            }
            None => build_timeline(&topo, &run),
        };
        let setup = RecoverySetup {
            topo,
            cfg: run.online,
            recovery: RecoveryConfig::default(),
            host_cores: run.host_cores,
        };
        let store = SharedMemStore::new();
        let controller = JournaledLoop::new(
            &setup,
            store.clone(),
            SharedFabric::new(),
            CrashPoint::never(),
        );
        Stage {
            setup,
            timeline,
            store,
            controller,
        }
    }
}

/// True wall clock of the step loop, pausable around the correctness gate.
struct Clock {
    wall_s: f64,
    segment: Instant,
}

impl Clock {
    fn start() -> Clock {
        Clock {
            wall_s: 0.0,
            segment: Instant::now(),
        }
    }

    fn pause<T>(&mut self, f: impl FnOnce() -> T) -> T {
        self.wall_s += self.segment.elapsed().as_secs_f64();
        let out = f();
        self.segment = Instant::now();
        out
    }

    fn stop(self) -> f64 {
        self.wall_s + self.segment.elapsed().as_secs_f64()
    }
}

/// What one round measured.
#[derive(Default)]
struct Round {
    wall_s: f64,
    steps_s: Vec<f64>,
    stalls_s: Vec<f64>,
    instance_sum: u64,
    recover_s: Option<f64>,
    resolves: Resolves,
    // Traced run only.
    pairs: Vec<(CompilerSnapshot, CompilerSnapshot)>,
    snapshot_us: Vec<f64>,
    encode_ms: Vec<f64>,
    snapshot_bytes: Vec<f64>,
    fastpath_build_ms: Vec<f64>,
    records_replayed: u64,
}

#[derive(Default, Clone, Copy)]
struct Resolves {
    triggered: u64,
    applied: u64,
    repacked: u64,
    deferred: u64,
}

/// The gate run every [`CHECK_EVERY`] events: ledger, shares, and the
/// installed fabric against a full compile of the controller's intent.
fn gate(controller: &JournaledLoop<SharedMemStore>, at: usize, out: &mut Outcome) {
    let inner = controller.inner();
    let ledger = inner.check_ledger();
    out.check(ledger.is_ok(), || {
        format!("event {at}: ledger: {}", ledger.unwrap_err())
    });
    let (classes, handler) = inner.snapshot();
    let violations = verify_shares(&classes, &handler, inner.orchestrator(), 1e-6);
    out.check(violations.is_empty(), || {
        format!(
            "event {at}: {} share violations, first {:?}",
            violations.len(),
            violations[0]
        )
    });
    let intended = inner.dataplane_snapshot().map(|s| compile(&s));
    out.check(
        intended.as_ref() == Some(&controller.fabric().program()),
        || format!("event {at}: installed fabric differs from compile(dataplane_snapshot())"),
    );
}

fn round(
    regime: Regime,
    index: u64,
    cfg: &RunCfg,
    rec: &dyn Recorder,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> (Round, Stage) {
    let (mut stage, _) = tr.time("traffic.timeline_build", || regime.stage(cfg, index));
    let mut r = Round::default();
    let events = stage.timeline.events();
    r.steps_s.reserve(events.len());

    let check_every = if cfg.smoke {
        CHECK_EVERY_SMOKE
    } else {
        CHECK_EVERY
    };
    let loop_span = tr.begin("step_loop");
    let mut clock = Clock::start();
    for (n, event) in events.iter().enumerate() {
        let sampled = tr.on() && n.is_multiple_of(SAMPLE_EVERY);
        let before = if sampled {
            clock.pause(|| {
                let (snapshot, secs) = tr.time("dataplane.snapshot", || {
                    stage.controller.inner().dataplane_snapshot()
                });
                r.snapshot_us.push(secs * 1e6);
                snapshot
            })
        } else {
            None
        };
        let (step, secs) = tr.time("recovery.journaled_step", || {
            stage.controller.step(event, rec)
        });
        let step = match step {
            Ok(step) => step,
            Err(e) => {
                out.check(false, || format!("event {n}: step: {e}"));
                break;
            }
        };
        r.steps_s.push(secs);
        out.check(step.shed == 0, || {
            format!("event {n}: shed {} classes", step.shed)
        });
        r.instance_sum += stage.controller.inner().instance_count() as u64;
        if regime.resolve_every > 0 && (n as u64 + 1).is_multiple_of(regime.resolve_every) {
            r.resolves.triggered += 1;
        }
        if step.resolved || step.resolve_deferred {
            r.stalls_s.push(secs);
            r.resolves.applied += u64::from(step.resolved && !step.resolve_repacked);
            r.resolves.repacked += u64::from(step.resolve_repacked);
            r.resolves.deferred += u64::from(step.resolve_deferred);
        }
        if let (Some(before), true) = (before, step.dataplane_ops > 0) {
            if let Some(after) = clock.pause(|| stage.controller.inner().dataplane_snapshot()) {
                r.pairs.push((before, after));
            }
        }
        if (n + 1).is_multiple_of(check_every) {
            clock.pause(|| {
                let id = tr.begin("verify.gate");
                gate(&stage.controller, n + 1, out);
                tr.end(id);
                if tr.on() {
                    let (bytes, secs) = tr.time("recovery.encode_state", || {
                        encode_state(stage.controller.inner())
                    });
                    r.encode_ms.push(secs * 1e3);
                    r.snapshot_bytes.push(bytes.len() as f64);
                    let program = stage.controller.fabric().program();
                    let (_, secs) = tr.time("fastpath.build", || CompiledProgram::new(&program));
                    r.fastpath_build_ms.push(secs * 1e3);
                }
            });
        }
    }
    r.wall_s = clock.stop();
    tr.end(loop_span);

    let inner = stage.controller.inner();
    let (left, shed) = (inner.instance_count(), inner.shed_count());
    out.check(left == 0 && shed == 0, || {
        format!("round {index}: timeline drained to {left} instances, {shed} shed classes")
    });

    // Redo recovery from the bare journal: no snapshot to start from.
    let live = state_digest(inner);
    let mut journal_only = MemStore::new();
    journal_only.set_journal_bytes(stage.store.inner().journal_bytes().to_vec());
    let (recovered, secs) = tr.time("recovery.recover", || {
        recover(&stage.setup, journal_only, SharedFabric::new(), &NOOP)
    });
    match recovered {
        Ok((twin, report)) => {
            r.recover_s = Some(secs);
            r.records_replayed = report.records_replayed;
            out.check(state_digest(twin.inner()) == live, || {
                format!("round {index}: journal-only recovery diverged from the live controller")
            });
        }
        Err(e) => {
            out.check(false, || format!("round {index}: recover: {e}"));
        }
    }
    (r, stage)
}

/// Replays the inputs the traced round captured through single layers, each
/// on its own, and files the timings under the layer's name.
fn isolated_replays(
    round: &Round,
    stage: &Stage,
    tr: &mut Tracer,
    out: &mut Outcome,
    acc: &mut Isolated,
) {
    let events = stage.timeline.events();
    let (_, secs) = tr.time("classes.apply", || {
        let mut inc = IncrementalClasses::new(&stage.setup.topo, &stage.setup.cfg.class_cfg);
        for e in events {
            std::hint::black_box(match e.kind {
                FlowEventKind::Arrival => inc.apply_arrival(e.flow_id, &e.flow),
                FlowEventKind::Departure => inc.apply_departure(e.flow_id, &e.flow),
            });
        }
    });
    acc.classes_apply_ms += secs * 1e3;

    let mut copy = stage.store.inner();
    let (scanned, secs) = tr.time("journal.scan", || Journal::recover(&mut copy));
    acc.journal_scan_ms += secs * 1e3;
    if let Ok(scanned) = scanned {
        let mut fresh = Journal::new(MemStore::new());
        let (appended, secs) = tr.time("journal.append", || {
            scanned.records.iter().try_for_each(|p| fresh.append(p))
        });
        acc.journal_append_ms += secs * 1e3;
        out.check(appended.is_ok(), || {
            format!("journal re-append: {:?}", appended.err())
        });
    } else {
        out.check(false, || format!("journal scan: {:?}", scanned.err()));
    }

    let live = state_digest(stage.controller.inner());
    let (latest, secs) = tr.time("recovery.recover_latest", || {
        recover(
            &stage.setup,
            stage.store.inner(),
            SharedFabric::new(),
            &NOOP,
        )
    });
    acc.recover_latest_ms += secs * 1e3;
    out.check(
        latest
            .as_ref()
            .is_ok_and(|(twin, _)| state_digest(twin.inner()) == live),
        || "latest-snapshot recovery diverged from the live controller".to_string(),
    );

    let southbound = stage
        .setup
        .cfg
        .southbound
        .unwrap_or(SouthboundConfig::paper(0));
    for (before, after) in &round.pairs {
        let old = compile(before);
        let plan = diff(&old, &compile(after));
        if plan.is_empty() {
            continue;
        }
        let mut mirror = CompiledProgram::new(&old);
        let (_, secs) = tr.time("fastpath.rebuild_delta", || {
            for batch in plan.batches() {
                mirror.rebuild_delta(batch);
            }
        });
        acc.rebuild_delta_us
            .push(secs * 1e6 / plan.batches().len() as f64);
        let mut fabric = old;
        let (applied, secs) = tr.time("southbound.apply", || {
            apply_plan_async(&mut fabric, &plan, southbound)
        });
        acc.southbound_apply_us.push(secs * 1e6);
        out.check(applied.is_ok(), || {
            format!("isolated southbound apply: {:?}", applied.err())
        });
    }
}

/// Sums of the isolated replays over the traced rounds.
#[derive(Default)]
struct Isolated {
    classes_apply_ms: f64,
    journal_scan_ms: f64,
    journal_append_ms: f64,
    recover_latest_ms: f64,
    rebuild_delta_us: Vec<f64>,
    southbound_apply_us: Vec<f64>,
}

impl Round {
    fn times(&self) -> RoundTimes {
        RoundTimes {
            ops: self.steps_s.len(),
            wall_s: self.wall_s,
            slow_us: slow_tenth_us(&self.steps_s),
            recover_s: self.recover_s,
        }
    }
}

/// Runs one of the two online workloads.
pub fn run(regime: Regime, cfg: &RunCfg) -> (Outcome, Tracing) {
    let regime = regime.scaled(cfg);
    let mut out = Outcome::default();
    let (_, setup_s, setup_reps) = setup_median(|| regime.stage(cfg, 0));
    out.e2e.setup_s = setup_s;
    out.note("setup_reps", setup_reps);

    let mut tracing = Tracing::new(cfg);
    let mut isolated = Isolated::default();
    let rounds = tracing.play(cfg, &mut out, |index, rec, tr, out| {
        let (r, stage) = round(regime, index, cfg, rec, tr, out);
        if tr.on() {
            isolated_replays(&r, &stage, tr, out, &mut isolated);
        }
        r
    });
    let rounds_played = &rounds.measured;
    let times: Vec<RoundTimes> = rounds_played.iter().map(Round::times).collect();
    out.set_round_times(&times);
    // Samples of one kind pooled over the rounds.
    let pooled = |of: fn(&Round) -> &Vec<f64>| -> Vec<f64> {
        rounds_played
            .iter()
            .flat_map(|r| of(r).iter().copied())
            .collect()
    };
    let mut steps = pooled(|r| &r.steps_s);
    let events = steps.len() as f64;
    out.e2e.fleet_instances =
        rounds_played.iter().map(|r| r.instance_sum).sum::<u64>() as f64 / events.max(1.0);
    let resolves = rounds_played
        .iter()
        .fold(Resolves::default(), |a, r| Resolves {
            triggered: a.triggered + r.resolves.triggered,
            applied: a.applied + r.resolves.applied,
            repacked: a.repacked + r.resolves.repacked,
            deferred: a.deferred + r.resolves.deferred,
        });
    out.note("resolves", resolves.triggered);

    if let (Some(memory), Some(untraced)) = (&tracing.memory, &rounds.untraced_round0) {
        let n = times.len() as f64;
        let snap = memory.snapshot();
        let recd = Recorded::new(&snap, times.len());
        recd.fill_solver_layers(&mut out.layers);
        fill_round_layers(&mut out.layers, &times, &untraced.times());
        let l: &mut Layers = &mut out.layers;

        let harness_ms = tracing.span_ms_per_round(times.len());
        l.insert(
            "traffic.timeline_build_ms",
            harness_ms
                .get("traffic.timeline_build")
                .copied()
                .unwrap_or(0.0),
        );
        l.insert("classes.apply_ms", isolated.classes_apply_ms / n);

        let (step, sync, replan) = (
            recd.span_ms("online.step"),
            recd.span_ms("dataplane.sync"),
            recd.span_ms("failover.replan"),
        );
        let (compile_ms, diff_ms) = (
            recd.span_ms("dataplane.compile"),
            recd.span_ms("dataplane.diff"),
        );
        let steps_ms = steps.iter().sum::<f64>() * 1e3 / n;
        let mut stalls = pooled(|r| &r.stalls_s);
        let stall_ms = stalls.iter().sum::<f64>() * 1e3 / n;
        stats::sort(&mut steps);
        l.insert("online.step_self_ms", step - sync - replan);
        l.insert("online.step_p50_us", stats::percentile(&steps, 0.5) * 1e6);
        l.insert("online.step_p99_us", percentile_us(&steps, 0.99));
        l.insert("online.step_p999_us", percentile_us(&steps, 0.999));
        l.insert(
            "online.step_max_ms",
            steps.last().copied().unwrap_or(0.0) * 1e3,
        );
        for (metric, counter) in [
            ("online.placements", "online.placements"),
            ("online.launches", "online.launches"),
            ("online.retired", "online.retired"),
            ("online.shed_events", "online.shed_events"),
            ("online.overload", "online.overload"),
            ("compiler.rules_compiled", "dataplane.rules_compiled"),
            ("diff.plans", "dataplane.plans"),
            ("diff.rule_ops", "dataplane.rule_ops"),
            ("southbound.barriers", "southbound.barriers"),
            ("southbound.retries", "southbound.retries"),
            ("journal.records", "journal.records"),
            ("journal.bytes", "journal.bytes"),
            ("journal.snapshots", "journal.snapshots"),
        ] {
            l.insert(metric, recd.counter(counter));
        }
        let failed = resolves.triggered - resolves.applied - resolves.repacked - resolves.deferred;
        l.insert("online.resolves_applied", resolves.applied as f64 / n);
        l.insert("online.resolves_repacked", resolves.repacked as f64 / n);
        l.insert("online.resolves_deferred", resolves.deferred as f64 / n);
        l.insert("online.resolves_failed", failed as f64 / n);
        l.insert(
            "online.resolve_applied_ratio",
            ratio(resolves.applied as f64, resolves.triggered as f64),
        );
        l.insert(
            "online.resolve_stall_p50_ms",
            stats::median(&mut stalls) * 1e3,
        );
        l.insert(
            "online.resolve_stall_max_ms",
            stalls.last().copied().unwrap_or(0.0) * 1e3,
        );
        l.insert("online.resolve_other_ms", (stall_ms - replan).max(0.0));
        let (p50, _, max) = recd.hist_quantiles("orchestrator.launch_latency_ms");
        l.insert("orchestrator.launch_latency_vms_p50", p50);
        l.insert("orchestrator.launch_latency_vms_max", max);
        l.insert("compiler.compile_ms", compile_ms);
        l.insert(
            "compiler.rules_per_op",
            ratio(l["compiler.rules_compiled"], l["diff.rule_ops"]),
        );
        l.insert("diff.diff_ms", diff_ms);
        l.insert("dataplane.sync_self_ms", sync - compile_ms - diff_ms);
        let (p50, p99, _) = recd.hist_quantiles("southbound.barrier_wait_ms");
        l.insert("southbound.wait_vms_p50", p50);
        l.insert("southbound.wait_vms_p99", p99);
        l.insert("southbound.apply_us", mean(&isolated.southbound_apply_us));
        l.insert(
            "fastpath.rebuild_delta_us",
            mean(&isolated.rebuild_delta_us),
        );
        // The live loop patches the mirror once per acked barrier.
        l.insert("fastpath.rebuild_delta_calls", l["southbound.barriers"]);
        l.insert("dataplane.snapshot_us", mean(&pooled(|r| &r.snapshot_us)));
        l.insert("fastpath.build_ms", mean(&pooled(|r| &r.fastpath_build_ms)));
        l.insert("journal.append_ms", isolated.journal_append_ms / n);
        l.insert("journal.scan_ms", isolated.journal_scan_ms / n);
        l.insert(
            "journal.bytes_per_event",
            ratio(l["journal.bytes"], events / n),
        );
        l.insert("recovery.journaled_step_self_ms", steps_ms - step);
        // One encode per snapshot the round took, priced at the sampled mean.
        l.insert(
            "recovery.encode_state_ms",
            mean(&pooled(|r| &r.encode_ms)) * l["journal.snapshots"],
        );
        l.insert(
            "recovery.snapshot_bytes",
            mean(&pooled(|r| &r.snapshot_bytes)),
        );
        l.insert("recovery.recover_latest_ms", isolated.recover_latest_ms / n);
        l.insert(
            "recovery.records_replayed",
            rounds_played
                .iter()
                .map(|r| r.records_replayed)
                .sum::<u64>() as f64
                / n,
        );
    }
    (out, tracing)
}
