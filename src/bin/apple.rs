//! `apple` — command-line front end to the APPLE reproduction.
//!
//! ```text
//! apple topo   <TOPO> [--dot | --edges | --stats]
//! apple plan   <TOPO> [--load MBPS] [--classes K] [--seed S]
//! apple replay <TOPO> [--snapshots N] [--no-failover] [--seed S]
//! apple chaos  <TOPO> [--schedules N] [--seed S] [--classes K] [--load MBPS]
//! apple online <TOPO> [--horizon SECS] [--rate R] [--resolve-every N] [--seed S]
//! apple recover <TOPO> [--horizon SECS] [--rate R] [--seed S] [--kill-at N] [--torn] [--snapshot-every N]
//! apple compile <TOPO> [--classes K] [--load MBPS] [--seed S] [--incremental]
//! apple walk   <TOPO> [--threads N] [--repeats N]
//! apple export-lp <TOPO> [--classes K] [--load MBPS] [--seed S]
//! apple paper  <NAME>
//! ```
//!
//! `<TOPO>` is `internet2`, `geant`, `univ1`, `as3679`, `fat-tree:K`, or
//! `jellyfish:N:D`. `<NAME>` is a paper artifact (`table1`, `table5`,
//! `fig6` … `fig12`, the names in `apple_sim::paper::EXPERIMENTS`);
//! `results/<NAME>.txt` holds its stdout.

use apple_nfv::core::classes::{ClassConfig, ClassSet};
use apple_nfv::core::controller::{Apple, AppleConfig};
use apple_nfv::core::engine::OptimizationEngine;
use apple_nfv::core::online::OnlineConfig;
use apple_nfv::core::orchestrator::ResourceOrchestrator;
use apple_nfv::core::recovery::{
    encode_state, reconcile, recover, state_digest, JournaledLoop, RecoveryConfig, RecoverySetup,
    SharedFabric,
};
use apple_nfv::core::rules::{generate, snapshot_of, RuleGenConfig};
use apple_nfv::core::subclass::{SplitStrategy, SubclassPlan};
use apple_nfv::dataplane::compiler::{compile, compile_recorded, CompilerSnapshot};
use apple_nfv::dataplane::diff::diff_recorded;
use apple_nfv::dataplane::fastpath::CompiledProgram;
use apple_nfv::dataplane::southbound::SouthboundConfig;
use apple_nfv::faults::crash::{install_quiet_kill_hook, kill_of};
use apple_nfv::faults::{CrashPoint, FaultPlanConfig};
use apple_nfv::journal::SharedMemStore;
use apple_nfv::nf::InstanceId;
use apple_nfv::sim::chaos::run_schedule;
use apple_nfv::sim::online::{build_timeline, run_timeline, OnlineRunConfig};
use apple_nfv::sim::packet_replay::{conformance, conformance_probes, walk_batch, Schedule};
use apple_nfv::sim::paper::EXPERIMENTS;
use apple_nfv::sim::replay::{replay, ReplayConfig};
use apple_nfv::telemetry::{MemoryRecorder, Recorder, NOOP};
use apple_nfv::topology::{zoo, Topology};
use apple_nfv::traffic::arrivals::ArrivalConfig;
use apple_nfv::traffic::{GravityModel, SeriesConfig, TmSeries};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  apple topo   <TOPO> [--dot | --edges | --stats]
  apple plan   <TOPO> [--load MBPS] [--classes K] [--seed S] [--telemetry json]
  apple replay <TOPO> [--snapshots N] [--no-failover] [--seed S] [--telemetry json]
  apple chaos  <TOPO> [--schedules N] [--seed S] [--classes K] [--load MBPS] [--telemetry json]
  apple online <TOPO> [--horizon SECS] [--rate R] [--resolve-every N] [--seed S] [--telemetry json]
  apple recover <TOPO> [--horizon SECS] [--rate R] [--seed S] [--kill-at N] [--torn]
               [--snapshot-every N] [--resolve-every N] [--telemetry json]
  apple compile <TOPO> [--classes K] [--load MBPS] [--seed S] [--incremental] [--telemetry json]
  apple walk   <TOPO> [--threads N] [--repeats N] [--classes K] [--load MBPS] [--seed S]
  apple southbound <TOPO> [--classes K] [--load MBPS] [--seed S] [--threads N]
  apple export-lp <TOPO> [--classes K] [--load MBPS] [--seed S]
  apple paper  <NAME>

TOPO: internet2 | geant | univ1 | as3679 | fat-tree:K | jellyfish:N:D
NAME: table1 | table5 | fig6 | fig7 | fig8 | fig9 | fig10 | fig11 | fig12

--telemetry json prints the run's metric snapshot (counters, gauges,
histograms) as JSON on stdout after the normal output.

chaos replays N seeded fault schedules (instance crashes, host failures,
flaky boots and rule installs) against one planned deployment and verifies
interference freedom and traffic accounting after every event.

online streams a seeded flow arrival/departure timeline through the
incremental orchestration loop: classes are maintained per event, new
classes placed against the residual-capacity ledger, and a warm-started
global re-solve runs every --resolve-every events.

recover demonstrates the crash-recovery subsystem end to end: it streams
the online timeline through a write-ahead-journaled controller, kills it
at crash site --kill-at (counted across journal appends, snapshot writes
and data-plane barriers; 0 = halfway through the run; --torn leaves a
half-written journal record behind), then recovers from the surviving
store (each replayed re-solve applies its journaled engine answer; one whose
answer was lost runs the engine again), reconciles the torn switch fabric against the recovered intent,
replays the repair through the packet-level conformance battery, resumes
the rest of the timeline and checks the final state is bitwise-equal to
a never-crashed twin.

compile plans a deployment, lowers it into a compiler snapshot and runs
the deterministic Table III rule compiler over it. With --incremental it
also models a single-sub-class churn step (one chain stage re-served by a
fresh instance) and prints the incremental update plan's operation bill
against the full-recompile cost.

walk plans and compiles a deployment, derives its packet-probe battery and
replays it --repeats times through the per-switch LPM-trie / exact-match
fast path of DESIGN.md 12. --threads N (walk and southbound only) fans the
battery out over scoped worker threads (0 = one per CPU).
Prints walks/sec; exits non-zero if any probe fails to walk.

southbound plans and compiles a deployment, models a single-sub-class
churn step, and pushes the incremental update plan through the seeded
asynchronous southbound channel (70 ms/rule install latency, per-device
reordering, explicit barrier acks; DESIGN.md 13) while walking the full
packet-probe battery at every 10 ms scheduler tick. Prints the in-flight
walk classification (bitwise-old / bitwise-new / chain-consistent) and
the virtual drain time; exits non-zero if any tick observes a transient
chain bypass.

paper regenerates one table or figure of the paper's evaluation with its
fixed seeds and sizes. Its stdout is deterministic and committed as
results/NAME.txt; wall-clock times (Table V's) go to stderr.";

/// Parsed optional flags.
struct Flags {
    load: f64,
    classes: usize,
    seed: u64,
    snapshots: usize,
    schedules: usize,
    horizon: f64,
    rate: f64,
    resolve_every: u64,
    failover: bool,
    dot: bool,
    edges: bool,
    stats: bool,
    incremental: bool,
    telemetry: bool,
    threads: usize,
    snapshot_every: u64,
    kill_at: u64,
    torn: bool,
    repeats: usize,
}

impl Default for Flags {
    fn default() -> Self {
        Flags {
            load: 2_000.0,
            classes: 20,
            seed: 0,
            snapshots: 96,
            schedules: 8,
            horizon: 60.0,
            rate: 1.0,
            resolve_every: 1_000,
            failover: true,
            dot: false,
            edges: false,
            stats: false,
            incremental: false,
            telemetry: false,
            threads: 0,
            snapshot_every: 64,
            kill_at: 0,
            torn: false,
            repeats: 32,
        }
    }
}

impl Flags {
    /// The planning configuration these flags describe.
    fn apple_config(&self) -> AppleConfig {
        AppleConfig {
            classes: ClassConfig {
                max_classes: self.classes,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    /// The online timeline and loop configuration these flags describe
    /// (`online` and `recover`).
    fn online_run_config(&self) -> OnlineRunConfig {
        OnlineRunConfig {
            arrivals: ArrivalConfig {
                arrival_rate: self.rate,
                seed: self.seed,
                ..Default::default()
            },
            horizon_secs: self.horizon,
            online: OnlineConfig {
                resolve_every: self.resolve_every,
                max_churn: 64,
                seed: self.seed,
                ..Default::default()
            },
            ..Default::default()
        }
    }
}

/// Plans a deployment and lowers it into the compiler snapshot that
/// `compile`, `walk` and `southbound` start from.
fn planned_snapshot(topo: &Topology, flags: &Flags) -> Result<CompilerSnapshot, String> {
    let tm = GravityModel::new(flags.load, flags.seed).base_matrix(topo);
    let classes = ClassSet::build(topo, &tm, &flags.apple_config().classes);
    let mut orch = ResourceOrchestrator::with_uniform_hosts(topo, 64);
    let placement = OptimizationEngine::default()
        .place(&classes, &orch)
        .map_err(|e| e.to_string())?;
    let plan = SubclassPlan::derive(&classes, &placement, SplitStrategy::PrefixSplit);
    let prog = generate(topo, &classes, &plan, &placement, &mut orch).map_err(|e| e.to_string())?;
    let config = RuleGenConfig::default();
    snapshot_of(topo, &classes, &plan, &prog.assignment, &orch, &config).map_err(|e| e.to_string())
}

/// The single-sub-class churn step `compile --incremental` and `southbound`
/// model: the first sub-class's first chain stage re-served by a fresh
/// instance.
fn churn_one_stage(snap: &CompilerSnapshot) -> Result<CompilerSnapshot, String> {
    let fresh = snap
        .subclasses
        .iter()
        .flat_map(|s| s.instances.iter())
        .map(|i| i.0)
        .max()
        .ok_or("snapshot has no instances to churn")?
        + 1;
    let mut churned = snap.clone();
    churned.subclasses[0].instances[0] = InstanceId(fresh);
    Ok(churned)
}

/// In-memory recorder when `--telemetry json` was given, `None` otherwise;
/// borrow through [`recorder_ref`] to get the `&dyn Recorder` to thread.
fn make_recorder(flags: &Flags) -> Option<MemoryRecorder> {
    flags.telemetry.then(MemoryRecorder::new)
}

fn recorder_ref(mem: &Option<MemoryRecorder>) -> &dyn Recorder {
    mem.as_ref()
        .map_or(&NOOP as &dyn Recorder, |m| m as &dyn Recorder)
}

/// Prints the snapshot as JSON when telemetry was requested.
fn emit_telemetry(mem: &Option<MemoryRecorder>) {
    if let Some(m) = mem {
        println!("{}", m.snapshot().to_json());
    }
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut num = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--load" => f.load = num("--load")?.parse().map_err(|_| "bad --load")?,
            "--classes" => f.classes = num("--classes")?.parse().map_err(|_| "bad --classes")?,
            "--seed" => f.seed = num("--seed")?.parse().map_err(|_| "bad --seed")?,
            "--snapshots" => {
                f.snapshots = num("--snapshots")?.parse().map_err(|_| "bad --snapshots")?
            }
            "--schedules" => {
                f.schedules = num("--schedules")?.parse().map_err(|_| "bad --schedules")?
            }
            "--horizon" => f.horizon = num("--horizon")?.parse().map_err(|_| "bad --horizon")?,
            "--rate" => f.rate = num("--rate")?.parse().map_err(|_| "bad --rate")?,
            "--resolve-every" => {
                f.resolve_every = num("--resolve-every")?
                    .parse()
                    .map_err(|_| "bad --resolve-every")?
            }
            "--no-failover" => f.failover = false,
            "--telemetry" => match num("--telemetry")?.as_str() {
                "json" => f.telemetry = true,
                other => return Err(format!("unknown telemetry format `{other}`")),
            },
            "--threads" => f.threads = num("--threads")?.parse().map_err(|_| "bad --threads")?,
            "--dot" => f.dot = true,
            "--edges" => f.edges = true,
            "--stats" => f.stats = true,
            "--incremental" => f.incremental = true,
            "--snapshot-every" => {
                f.snapshot_every = num("--snapshot-every")?
                    .parse()
                    .map_err(|_| "bad --snapshot-every")?
            }
            "--kill-at" => f.kill_at = num("--kill-at")?.parse().map_err(|_| "bad --kill-at")?,
            "--torn" => f.torn = true,
            "--repeats" => f.repeats = num("--repeats")?.parse().map_err(|_| "bad --repeats")?,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(f)
}

fn parse_topo(spec: &str) -> Result<Topology, String> {
    match spec {
        "internet2" => Ok(zoo::internet2()),
        "geant" => Ok(zoo::geant()),
        "univ1" => Ok(zoo::univ1()),
        "as3679" => Ok(zoo::as3679()),
        other => {
            if let Some(k) = other.strip_prefix("fat-tree:") {
                let k: usize = k.parse().map_err(|_| "bad fat-tree arity")?;
                if k < 2 || !k.is_multiple_of(2) {
                    return Err("fat-tree arity must be even and >= 2".into());
                }
                Ok(zoo::fat_tree(k))
            } else if let Some(nd) = other.strip_prefix("jellyfish:") {
                let parts: Vec<&str> = nd.split(':').collect();
                if parts.len() != 2 {
                    return Err("jellyfish wants N:D".into());
                }
                let n: usize = parts[0].parse().map_err(|_| "bad jellyfish N")?;
                let d: usize = parts[1].parse().map_err(|_| "bad jellyfish D")?;
                if d < 2 || n <= d {
                    return Err("jellyfish needs N > D >= 2".into());
                }
                Ok(zoo::jellyfish(n, d, 0))
            } else {
                Err(format!("unknown topology `{other}`"))
            }
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let (cmd, rest) = args.split_first().ok_or("missing command")?;
    match (cmd.as_str(), rest) {
        ("help" | "--help" | "-h", _) => {
            println!("{USAGE}");
            return Ok(());
        }
        ("paper", [name]) => {
            let (_, experiment) = EXPERIMENTS
                .iter()
                .find(|(n, _)| n == name)
                .ok_or_else(|| format!("unknown paper artifact `{name}`"))?;
            experiment();
            return Ok(());
        }
        ("paper", _) => return Err("paper takes exactly one artifact name".into()),
        _ => {}
    }
    let (spec, flag_args) = rest.split_first().ok_or("missing topology")?;
    let topo = parse_topo(spec)?;
    let flags = parse_flags(flag_args)?;
    match cmd.as_str() {
        "topo" => {
            if flags.dot {
                print!("{}", topo.graph.to_dot());
            } else if flags.edges {
                print!("{}", topo.graph.to_edge_list());
            } else {
                println!("{}", topo.summary());
                if flags.stats {
                    if let Some(s) = topo.graph.distance_stats() {
                        println!(
                            "diameter {} hops, mean path {:.2} hops over {} pairs",
                            s.diameter_hops, s.mean_hops, s.pairs
                        );
                    }
                    let central = topo.graph.central_nodes(3);
                    let names: Vec<String> = central
                        .iter()
                        .map(|&n| {
                            topo.graph
                                .node(n)
                                .map(|x| x.name.clone())
                                .unwrap_or_default()
                        })
                        .collect();
                    println!("most central switches: {}", names.join(", "));
                }
            }
            Ok(())
        }
        "plan" => {
            let tm = GravityModel::new(flags.load, flags.seed).base_matrix(&topo);
            let mem = make_recorder(&flags);
            let apple = Apple::plan_recorded(&topo, &tm, &flags.apple_config(), recorder_ref(&mem))
                .map_err(|e| e.to_string())?;
            println!("{}", topo.summary());
            println!(
                "classes: {}   instances: {}   cores: {}   solve: {:?}",
                apple.classes().len(),
                apple.placement().total_instances(),
                apple.placement().total_cores(),
                apple.placement().solve_time()
            );
            println!(
                "TCAM: {} tagged / {} untagged ({:.2}x reduction), cross-product {}",
                apple.program().tcam.tagged_total,
                apple.program().tcam.untagged_total,
                apple.program().tcam.reduction_ratio(),
                apple.program().tcam.cross_product_total
            );
            println!("placement:");
            for (v, nf, count) in apple.placement().q_entries() {
                let name = topo
                    .graph
                    .node(v)
                    .map(|n| n.name.clone())
                    .unwrap_or_else(|_| v.to_string());
                println!("  {name:<12} {nf:<9} x{count}");
            }
            emit_telemetry(&mem);
            Ok(())
        }
        "replay" => {
            let series = TmSeries::generate(
                &topo,
                &SeriesConfig {
                    snapshots: flags.snapshots,
                    total_mbps: flags.load,
                    ..SeriesConfig::paper(flags.seed)
                },
            );
            let mem = make_recorder(&flags);
            let out = replay(
                &topo,
                &series,
                &ReplayConfig {
                    apple: flags.apple_config(),
                    fast_failover: flags.failover,
                    ..Default::default()
                },
                recorder_ref(&mem),
            )
            .map_err(|e| e.to_string())?;
            println!(
                "{} snapshots, fast failover {}",
                flags.snapshots,
                if flags.failover { "on" } else { "off" }
            );
            println!(
                "mean loss {:.4}  peak loss {:.4}  notifications {}  helpers {}  peak extra cores {}",
                out.loss.mean(),
                out.loss.max(),
                out.notifications,
                out.helpers_spawned,
                out.peak_helper_cores
            );
            emit_telemetry(&mem);
            Ok(())
        }
        "chaos" => {
            let tm = GravityModel::new(flags.load, flags.seed).base_matrix(&topo);
            let mem = make_recorder(&flags);
            let rec = recorder_ref(&mem);
            let apple = Apple::plan_recorded(&topo, &tm, &flags.apple_config(), rec)
                .map_err(|e| e.to_string())?;
            let handler0 = apple.dynamic_handler().map_err(|e| e.to_string())?;
            let (classes, _placement, _plan, _program, orch0) = apple.into_parts();
            let mut clean = 0usize;
            let mut total_faults = 0usize;
            let mut degraded_runs = 0usize;
            for i in 0..flags.schedules {
                let seed = flags.seed.wrapping_add(i as u64);
                let mut orch = orch0.clone();
                let mut handler = handler0.clone();
                let report = run_schedule(
                    &classes,
                    &mut orch,
                    &mut handler,
                    &FaultPlanConfig::chaos(seed),
                    rec,
                );
                if report.is_clean() {
                    clean += 1;
                }
                total_faults += report.faults_injected;
                if report.degraded_ticks > 0 {
                    degraded_runs += 1;
                }
                println!(
                    "seed {seed}: {} faults  {} events  degraded ticks {}  final shed {:.3}  {}",
                    report.faults_injected,
                    report.events_applied,
                    report.degraded_ticks,
                    report.final_shed.max(0.0),
                    if report.is_clean() {
                        "clean"
                    } else {
                        "VIOLATIONS"
                    }
                );
            }
            println!(
                "{clean}/{} schedules clean, {total_faults} faults injected, {degraded_runs} runs entered degraded mode",
                flags.schedules
            );
            emit_telemetry(&mem);
            if clean == flags.schedules {
                Ok(())
            } else {
                Err("chaos run found invariant violations".into())
            }
        }
        "online" => {
            let cfg = flags.online_run_config();
            let timeline = build_timeline(&topo, &cfg);
            let mem = make_recorder(&flags);
            let (looper, report) =
                run_timeline(&topo, &timeline, &cfg, recorder_ref(&mem), |_, _| {});
            println!(
                "{} events over {:.0}s horizon (rate {}/s per pair)",
                report.events, flags.horizon, flags.rate
            );
            println!(
                "placements {}  launches {}  retirements {}  shed events {}",
                report.placements, report.launches, report.retirements, report.shed_events
            );
            println!(
                "re-solves applied {}  repacked {}  deferred {}  peak instances {}  peak live classes {}",
                report.resolves_applied,
                report.resolves_repacked,
                report.resolves_deferred,
                report.peak_instances,
                report.peak_live_classes
            );
            println!(
                "drained: {} instances, {} shed classes remaining",
                report.final_instances, report.final_shed
            );
            looper.check_ledger()?;
            emit_telemetry(&mem);
            Ok(())
        }
        "recover" => {
            let cfg = flags.online_run_config();
            let timeline = build_timeline(&topo, &cfg);
            let setup = RecoverySetup {
                topo: topo.clone(),
                cfg: cfg.online.clone(),
                recovery: RecoveryConfig {
                    snapshot_every: flags.snapshot_every,
                },
                host_cores: cfg.host_cores,
            };

            // Never-crashed twin: fixes the expected final state and counts
            // the durability sites the timeline visits.
            let probe = CrashPoint::never();
            let mut twin = JournaledLoop::new(
                &setup,
                SharedMemStore::new(),
                SharedFabric::new(),
                probe.clone(),
            );
            for e in timeline.events() {
                twin.step(e, &NOOP).map_err(|e| e.to_string())?;
            }
            let twin_final = encode_state(twin.inner());
            let visits = probe.visited();
            if visits == 0 {
                return Err("timeline visits no durability sites; lengthen --horizon".into());
            }
            let ordinal = if flags.kill_at == 0 {
                visits / 2 + 1
            } else {
                flags.kill_at
            };
            if ordinal > visits {
                return Err(format!(
                    "--kill-at {ordinal} exceeds the {visits} crash sites this run visits"
                ));
            }

            // Crash the controller mid-run; the store and fabric survive.
            install_quiet_kill_hook();
            let store = SharedMemStore::new();
            let fabric = SharedFabric::new();
            let crash = if flags.torn {
                CrashPoint::at_torn(ordinal, flags.seed ^ ordinal)
            } else {
                CrashPoint::at(ordinal)
            };
            let caught = catch_unwind(AssertUnwindSafe(|| {
                let mut jl = JournaledLoop::new(&setup, store.clone(), fabric.clone(), crash);
                for e in timeline.events() {
                    jl.step(e, &NOOP)
                        .expect("in-memory journal append cannot fail");
                }
            }));
            let Err(payload) = caught else {
                return Err("crash point never fired; pick a smaller --kill-at".into());
            };
            let kill =
                kill_of(payload.as_ref()).ok_or("run panicked outside the crash injector")?;
            println!(
                "killed controller at {:?} site, ordinal {} of {}{}",
                kill.site,
                kill.ordinal,
                visits,
                if flags.torn { " (torn append)" } else { "" }
            );

            let mem = make_recorder(&flags);
            let rec = recorder_ref(&mem);
            let (mut recovered, report) =
                recover(&setup, store, fabric.clone(), rec).map_err(|e| e.to_string())?;
            println!(
                "recovered from {}: {} records scanned, {} intents replayed \
                 ({} re-solves answered from the journal, {} re-executed), {} torn bytes truncated",
                report
                    .snapshot_seq
                    .map_or("genesis".to_string(), |s| format!("snapshot seq {s}")),
                report.records_scanned,
                report.records_replayed,
                report.resolves_logged,
                report.resolves_reexecuted,
                report.torn_truncated_bytes
            );

            let rr = reconcile(&recovered, rec);
            println!(
                "reconciled data plane: {} ({} batches, {} rule ops)",
                if rr.was_clean {
                    "fabric already matched the recovered intent"
                } else {
                    "repaired the torn fabric"
                },
                rr.batches,
                rr.rule_ops
            );
            let (prev, intended) = (&report.prev_ctx, &report.intended_ctx);
            let conf = conformance(
                rr.pre_repair_fabric,
                None,
                prev,
                intended,
                Some(&compile(prev)),
                &Schedule::Barriers,
                1,
            )
            .map_err(|e| e.to_string())?;
            println!(
                "repair conformance: {} probes x {} barriers = {} walks, every one old, new or a consistent chain mix",
                conf.probes, conf.barriers, conf.walks
            );

            let resume_from = recovered.seq() as usize;
            for e in &timeline.events()[resume_from..] {
                recovered.step(e, rec).map_err(|e| e.to_string())?;
            }
            if encode_state(recovered.inner()) != twin_final {
                return Err(format!(
                    "recovered+resumed state diverged from the never-crashed twin \
                     (digest {:#010x} vs {:#010x})",
                    state_digest(recovered.inner()),
                    apple_nfv::journal::crc32(&twin_final)
                ));
            }
            println!(
                "resumed {} remaining events; final state bitwise-equal to the never-crashed twin (digest {:#010x})",
                timeline.len() - resume_from,
                state_digest(recovered.inner())
            );
            recovered.inner().check_ledger()?;
            emit_telemetry(&mem);
            Ok(())
        }
        "compile" => {
            let snap = planned_snapshot(&topo, &flags)?;
            let mem = make_recorder(&flags);
            let rec = recorder_ref(&mem);
            let compiled = compile_recorded(&snap, rec);
            println!("{}", topo.summary());
            println!(
                "compiled {} sub-classes -> {} rules ({} billable TCAM) over {} switches, {} hosts, {} rewriters",
                snap.subclasses.len(),
                compiled.rule_count(),
                compiled.billable_rules(),
                compiled.switches.len(),
                compiled.hosts.len(),
                compiled.rewriters.len()
            );
            if flags.incremental {
                let churned = churn_one_stage(&snap)?;
                let target = compile_recorded(&churned, rec);
                let update = diff_recorded(&compiled, &target, rec);
                let full_ops = target.rule_count();
                let inc_ops = update.op_count().max(1);
                println!("single-sub-class churn step: {}", update.stats());
                println!(
                    "full recompile would reinstall {} rules -> incremental is {:.1}x cheaper",
                    full_ops,
                    full_ops as f64 / inc_ops as f64
                );
            }
            emit_telemetry(&mem);
            Ok(())
        }
        "walk" => {
            let snap = planned_snapshot(&topo, &flags)?;
            let program = compile_recorded(&snap, &NOOP);
            let probes = conformance_probes(&snap, &snap);
            if probes.is_empty() {
                return Err("deployment produced no packet probes".into());
            }
            let jobs: Vec<_> = probes.iter().map(|pr| (pr.packet, &pr.path)).collect();
            let engine = CompiledProgram::new(&program);
            let repeats = flags.repeats.max(1);
            let mut errors = 0usize;
            let mut instances = 0usize;
            let start = std::time::Instant::now();
            for _ in 0..repeats {
                for res in walk_batch(&engine, &jobs, flags.threads) {
                    match res {
                        Ok(rec) => instances += rec.instances.len(),
                        Err(_) => errors += 1,
                    }
                }
            }
            let secs = start.elapsed().as_secs_f64();
            let walks = repeats * jobs.len();
            println!("{}", topo.summary());
            println!(
                "{} probes x {} repeats = {} walks ({} VNF traversals)",
                jobs.len(),
                repeats,
                walks,
                instances
            );
            println!(
                "{:.3}s wall  {:.0} walks/sec  threads {}",
                secs,
                walks as f64 / secs.max(1e-9),
                flags.threads
            );
            if errors > 0 {
                return Err(format!("{errors} probe walks failed"));
            }
            Ok(())
        }
        "southbound" => {
            let snap = planned_snapshot(&topo, &flags)?;
            let churned = churn_one_stage(&snap)?;
            let southbound = SouthboundConfig::paper(flags.seed);
            let schedule = Schedule::Inflight {
                southbound,
                tick_ms: 10,
            };
            let report = conformance(
                compile(&snap),
                None,
                &snap,
                &churned,
                None,
                &schedule,
                flags.threads,
            )
            .map_err(|e| format!("in-flight conformance violated: {e}"))?;
            println!("{}", topo.summary());
            println!(
                "channel: {} ms/rule (+{} ms jitter), reorder window {}, seed {}",
                southbound.rule_install_ms,
                southbound.jitter_ms,
                southbound.reorder_window,
                southbound.seed,
            );
            println!(
                "churn plan drained in {} virtual ms across {} barriers ({} retries)",
                report.elapsed_ms, report.barriers, report.retries,
            );
            println!(
                "in-flight battery: {} ticks x {} probes = {} walks, all conformant",
                report.ticks, report.probes, report.walks,
            );
            println!(
                "  {} bitwise-old, {} bitwise-new, {} chain-consistent mixes",
                report.old_exact, report.new_exact, report.mixed,
            );
            Ok(())
        }
        "export-lp" => {
            let tm = GravityModel::new(flags.load, flags.seed).base_matrix(&topo);
            let classes = ClassSet::build(&topo, &tm, &flags.apple_config().classes);
            let orch = ResourceOrchestrator::with_uniform_hosts(&topo, 64);
            let model = OptimizationEngine::default().ilp_model(&classes, &orch);
            print!("{}", model.to_lp_format());
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    }
}
