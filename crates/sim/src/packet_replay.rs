//! Packet-level replay: the high-fidelity variant of the Fig. 12 pipeline.
//!
//! Where [`crate::replay`] tracks loads analytically through the Dynamic
//! Handler's shares, this module drives the **actual data plane**: every
//! tick it walks representative packets of every sub-class through the
//! programmed switches/vSwitches, credits the per-port counters the
//! prototype polls (§VII-B), and runs the counter-based detector. It
//! validates the full chain
//!
//! > controller plan → TCAM/vSwitch rules → packet walks → port counters
//! > → rate differencing → hysteresis detection
//!
//! end-to-end. Mitigation (re-balancing) is the analytic replay's job;
//! here the interesting outputs are the detection events and the
//! counter-derived loss curve.
//!
//! The module also hosts the **differential conformance battery** for the
//! incremental rule compiler ([`differential_conformance`]): replay a
//! seeded probe set through the full recompiled program and through the
//! incrementally patched program *at every intermediate barrier* of the
//! update plan, and check the three-tier update guarantee documented in
//! `apple_dataplane::diff`.
//!
//! Both the per-tick replay batteries and the per-barrier conformance
//! walks run through [`walk_batch`]: contiguous chunks across scoped
//! worker threads with a deterministic by-index merge (the PR-3
//! decomposed-solver pattern), generic over the
//! [`WalkEngine`] in use. The engine —
//! the reference linear scan or the compiled fast path of DESIGN.md §12 —
//! and the thread budget are picked per run via [`WalkEngineConfig`]; the
//! conformance batteries patch the compiled engine barrier-by-barrier
//! through `rebuild_delta`, so every battery run also exercises the
//! incremental fast-path maintenance the online loop relies on.

use apple_core::controller::{Apple, AppleConfig};
use apple_core::engine::EngineError;
use apple_dataplane::compiler::{compile, CompilerSnapshot, RuleProgram};
use apple_dataplane::diff::{apply_batch_unchecked, diff};
use apple_dataplane::fastpath::CompiledProgram;
use apple_dataplane::packet::{HostTag, Packet};
use apple_dataplane::walk::{NetworkWalker, WalkEngine, WalkError, WalkRecord};
use apple_dataplane::PortCounters;
use apple_nf::{InstanceId, NfType, OverloadModel};
use apple_topology::{NodeId, Path, Topology};
use apple_traffic::TmSeries;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::detector::{CounterDetector, DetectionEvent};
use crate::metrics::Series;

/// Which [`WalkEngine`] implementation backs a replay or conformance run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// The reference linear first-match scan
    /// ([`apple_dataplane::walk::NetworkWalker`]).
    Linear,
    /// The compiled fast path
    /// ([`apple_dataplane::fastpath::CompiledProgram`], DESIGN.md §12).
    #[default]
    Compiled,
}

impl EngineKind {
    /// Parses the `--engine` CLI spelling.
    ///
    /// # Errors
    ///
    /// A usage message naming the accepted spellings.
    pub fn parse(s: &str) -> Result<EngineKind, String> {
        match s {
            "linear" => Ok(EngineKind::Linear),
            "compiled" => Ok(EngineKind::Compiled),
            other => Err(format!("unknown engine \"{other}\" (linear|compiled)")),
        }
    }

    /// Canonical display name (`linear` / `compiled`).
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Linear => "linear",
            EngineKind::Compiled => "compiled",
        }
    }
}

/// Engine selection plus worker-thread budget for batched walks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkEngineConfig {
    /// Which engine walks the packets.
    pub engine: EngineKind,
    /// Worker threads for [`walk_batch`]; `0` = one per available CPU,
    /// `1` = in-place sequential (no spawning).
    pub threads: usize,
}

impl Default for WalkEngineConfig {
    fn default() -> Self {
        WalkEngineConfig {
            engine: EngineKind::Compiled,
            threads: 1,
        }
    }
}

/// Resolves a requested thread count against the machine and the amount of
/// work: `0` means one per CPU, never more than one per job.
fn worker_count(requested: usize, work: usize) -> usize {
    let auto = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let t = if requested == 0 { auto } else { requested };
    t.clamp(1, work.max(1))
}

/// Walks a battery of `(packet, path)` jobs through one engine, chunked
/// across scoped worker threads with a deterministic by-index merge: the
/// result at index `i` is always job `i`'s walk, whatever the thread
/// count. `threads <= 1` walks in place without spawning.
pub fn walk_batch<E: WalkEngine + Sync + ?Sized>(
    engine: &E,
    jobs: &[(Packet, &Path)],
    threads: usize,
) -> Vec<Result<WalkRecord, WalkError>> {
    let threads = worker_count(threads, jobs.len());
    if threads <= 1 || jobs.len() < 2 {
        return jobs.iter().map(|(p, path)| engine.walk(*p, path)).collect();
    }
    let chunk = jobs.len().div_ceil(threads);
    std::thread::scope(|scope| {
        let workers: Vec<_> = jobs
            .chunks(chunk)
            .map(|slice| {
                scope.spawn(move || {
                    slice
                        .iter()
                        .map(|(p, path)| engine.walk(*p, path))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut out = Vec::with_capacity(jobs.len());
        for w in workers {
            out.extend(w.join().expect("walk worker panicked"));
        }
        out
    })
}

/// An owned engine of either kind, so callers can be generic over the
/// [`WalkEngineConfig`] choice at runtime. Shared with the in-flight
/// battery ([`crate::inflight_conformance`]).
#[derive(Debug, Clone)]
pub(crate) enum Engine {
    Linear(NetworkWalker),
    Compiled(CompiledProgram),
}

impl Engine {
    pub(crate) fn of(prog: &RuleProgram, kind: EngineKind) -> Engine {
        match kind {
            EngineKind::Linear => Engine::Linear(prog.walker()),
            EngineKind::Compiled => Engine::Compiled(CompiledProgram::new(prog)),
        }
    }

    fn of_walker(w: &NetworkWalker, kind: EngineKind) -> Engine {
        match kind {
            EngineKind::Linear => Engine::Linear(w.clone()),
            EngineKind::Compiled => Engine::Compiled(CompiledProgram::from_walker(w)),
        }
    }

    pub(crate) fn as_dyn(&self) -> &(dyn WalkEngine + Sync) {
        match self {
            Engine::Linear(w) => w,
            Engine::Compiled(c) => c,
        }
    }

    /// Applies one update-plan barrier: the compiled engine patches
    /// per-device via `rebuild_delta`; the linear engine re-materialises
    /// from the already-patched program (its lookup *is* the rule list).
    pub(crate) fn patch(&mut self, prog_after: &RuleProgram, batch: &apple_dataplane::UpdateBatch) {
        match self {
            Engine::Linear(w) => *w = prog_after.walker(),
            Engine::Compiled(c) => c.rebuild_delta(batch),
        }
    }
}

/// Configuration for a packet-level replay.
#[derive(Debug, Clone)]
pub struct PacketReplayConfig {
    /// Planning knobs.
    pub apple: AppleConfig,
    /// Packet size for Mbps → pps conversion.
    pub packet_bytes: u32,
    /// Seconds per tick (= detector poll interval).
    pub tick_secs: f64,
    /// Walk engine and thread budget for the per-tick packet batteries.
    pub engine: WalkEngineConfig,
}

impl Default for PacketReplayConfig {
    fn default() -> Self {
        PacketReplayConfig {
            apple: AppleConfig::default(),
            packet_bytes: 1500,
            tick_secs: 1.0,
            engine: WalkEngineConfig::default(),
        }
    }
}

/// Outcome of a packet-level replay.
#[derive(Debug, Clone)]
pub struct PacketReplayOutcome {
    /// Counter-derived network loss rate per tick.
    pub loss: Series,
    /// Overload notifications the detector raised.
    pub trips: usize,
    /// Roll-back events.
    pub clears: usize,
    /// Total packets walked (sanity/scale indicator).
    pub packets_walked: u64,
}

/// Runs the packet-level replay.
///
/// # Errors
///
/// Propagates [`EngineError`] from planning; panics only on internal
/// inconsistencies (a mis-programmed data plane fails loudly in walks).
pub fn packet_replay(
    topo: &Topology,
    series: &TmSeries,
    cfg: &PacketReplayConfig,
) -> Result<PacketReplayOutcome, EngineError> {
    let apple = Apple::plan(topo, &series.mean(), &cfg.apple)?;

    // Register every instance with the detector.
    let mut detector = CounterDetector::new(cfg.tick_secs);
    for inst in apple.orchestrator().instances() {
        detector.register(
            inst.id(),
            OverloadModel::for_capacity(inst.spec().capacity_pps(cfg.packet_bytes)),
        );
    }

    let mut counters = PortCounters::new();
    let mut prev_counters = counters.clone();
    let mut loss = Series::new("packet-loss");
    let mut trips = 0usize;
    let mut clears = 0usize;
    let mut packets_walked = 0u64;
    // Compile the programmed data plane once for the whole series: the
    // replay only reads it.
    let engine = Engine::of_walker(&apple.program().walker, cfg.engine.engine);

    for (tick, tm) in series.iter().enumerate() {
        let scoped = apple.classes().with_rates_from(tm);
        // Walk one representative packet per (sub-class, prefix), credited
        // with the prefix's share of the sub-class packet count. The tick's
        // battery is collected first, then walked as one chunked batch.
        let mut jobs: Vec<(Packet, &Path)> = Vec::new();
        let mut credits: Vec<u64> = Vec::new();
        for class in &scoped {
            let pps = class.rate_pps(cfg.packet_bytes) * cfg.tick_secs;
            for sub in apple.subclasses().of_class(class.id) {
                let sub_packets = pps * sub.fraction();
                if sub_packets < 1.0 {
                    continue;
                }
                let total_share: f64 = sub
                    .prefixes
                    .iter()
                    .map(|&(_, len)| 2f64.powi(-(i32::from(len) - 24)))
                    .sum();
                for &(addr, len) in &sub.prefixes {
                    let share = 2f64.powi(-(i32::from(len) - 24)) / total_share;
                    let count = (sub_packets * share).round() as u64;
                    if count == 0 {
                        continue;
                    }
                    // A host inside this prefix (host bits = 1 where room).
                    let host_bit = if len < 32 { 1 } else { 0 };
                    let p = Packet::new(addr | host_bit, class.dst_prefix.0 | 9, 40_000, 80, 6);
                    jobs.push((p, &class.path));
                    credits.push(count);
                }
            }
        }
        let recs = walk_batch(engine.as_dyn(), &jobs, cfg.engine.threads);
        for (rec, count) in recs.iter().zip(&credits) {
            let rec = rec.as_ref().expect("programmed data plane walks cleanly");
            counters.observe_many(rec, *count);
            packets_walked += count;
        }
        // Poll: detection events + counter-derived loss.
        for (_, event) in detector.poll(&counters) {
            match event {
                DetectionEvent::Tripped => trips += 1,
                DetectionEvent::Cleared => clears += 1,
            }
        }
        let rates = counters.instance_rates_pps(&prev_counters, cfg.tick_secs);
        let mut offered = 0.0;
        let mut lost = 0.0;
        for (id, rate) in rates {
            let Some(inst) = apple.orchestrator().instance(id) else {
                continue;
            };
            let model = OverloadModel::for_capacity(inst.spec().capacity_pps(cfg.packet_bytes));
            offered += rate;
            lost += rate * model.loss_rate(rate);
        }
        loss.push(
            tick as f64,
            if offered > 0.0 { lost / offered } else { 0.0 },
        );
        prev_counters = counters.clone();
    }
    Ok(PacketReplayOutcome {
        loss,
        trips,
        clears,
        packets_walked,
    })
}

/// One representative packet of the differential conformance battery.
#[derive(Debug, Clone)]
pub struct ConformanceProbe {
    /// Where the probe came from (sub-class/prefix/variant), for reports.
    pub label: String,
    /// The untagged packet injected at the path's ingress.
    pub packet: Packet,
    /// The forwarding path the packet is walked along.
    pub path: Path,
}

/// Tallies from one conformance run. `old_exact`/`new_exact`/`mixed`
/// classify each intermediate-barrier walk; the final barrier's walks are
/// all required to be `new_exact`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConformanceReport {
    /// Barriers the plan applied (one per [`apple_dataplane::UpdateBatch`]).
    pub barriers: usize,
    /// Probes in the battery.
    pub probes: usize,
    /// Total packet walks performed across all barriers.
    pub walks: usize,
    /// Walks bitwise-identical to the pre-update program's walk.
    pub old_exact: usize,
    /// Walks bitwise-identical to the full recompile's walk.
    pub new_exact: usize,
    /// Walks that were a chain-consistent old/new mix (full NF chain, Fin
    /// tag on exit) — legal only at intermediate barriers.
    pub mixed: usize,
}

/// A violation of the update guarantee found by the battery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConformanceError {
    /// A probe's walk at an intermediate barrier was neither the old walk,
    /// the new walk, nor a chain-consistent mix — a transient chain bypass
    /// or interference.
    BarrierWalk {
        /// Index of the offending barrier in the plan.
        barrier: usize,
        /// The probe's label.
        probe: String,
        /// What the walk produced.
        detail: String,
    },
    /// A probe's walk after the final barrier differs bitwise from the
    /// full recompile's walk.
    FinalWalk {
        /// The probe's label.
        probe: String,
        /// What the walk produced.
        detail: String,
    },
    /// The patched program after the final barrier is not rule-for-rule
    /// identical to the full recompile.
    FinalProgram,
}

impl fmt::Display for ConformanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConformanceError::BarrierWalk {
                barrier,
                probe,
                detail,
            } => write!(
                f,
                "probe {probe} at barrier {barrier}: walk is neither old, new nor a \
                 chain-consistent mix: {detail}"
            ),
            ConformanceError::FinalWalk { probe, detail } => write!(
                f,
                "probe {probe} after the final barrier differs from the full recompile: {detail}"
            ),
            ConformanceError::FinalProgram => {
                write!(f, "patched program differs from the full recompile")
            }
        }
    }
}

impl std::error::Error for ConformanceError {}

/// The outcome of one probe walk, as compared bitwise.
pub(crate) type Walk = Result<WalkRecord, WalkError>;

/// Header fields identifying a probe packet for dedup purposes.
type ProbeKey = (u32, u32, u16, u16, u8);

/// Builds the probe battery for a snapshot pair: one packet per
/// (sub-class, prefix, transport variant) of **both** snapshots (deduped),
/// plus one out-of-prefix control packet per distinct forwarding path.
/// Probes use the same representative-host convention as the packet replay
/// (`addr | 1` inside the prefix, `.9` in the destination prefix).
pub fn conformance_probes(old: &CompilerSnapshot, new: &CompilerSnapshot) -> Vec<ConformanceProbe> {
    let mut probes = Vec::new();
    let mut seen: BTreeSet<(ProbeKey, Path)> = BTreeSet::new();
    let key = |p: &Packet| (p.src_ip, p.dst_ip, p.src_port, p.dst_port, p.proto);
    let mut paths: BTreeSet<Vec<usize>> = BTreeSet::new();
    for s in old.subclasses.iter().chain(new.subclasses.iter()) {
        paths.insert(s.path.clone());
        let path = Path::new(s.path.iter().map(|&n| NodeId(n)).collect())
            .expect("snapshot paths are valid");
        let variants: Vec<(Option<u8>, Option<u16>)> = if s.dst_ports.is_empty() {
            vec![(s.proto, None)]
        } else {
            s.dst_ports.iter().map(|&p| (s.proto, Some(p))).collect()
        };
        for &(addr, len) in &s.prefixes {
            let host_bit = if len < 32 { 1 } else { 0 };
            for &(proto, port) in &variants {
                let p = Packet::new(
                    addr | host_bit,
                    s.dst_prefix.0 | 9,
                    40_000,
                    port.unwrap_or(80),
                    proto.unwrap_or(6),
                );
                if seen.insert((key(&p), path.clone())) {
                    probes.push(ConformanceProbe {
                        label: format!(
                            "{}/s{} {:#010x}/{} port {:?}",
                            s.class_name, s.sub, addr, len, port
                        ),
                        packet: p,
                        path: path.clone(),
                    });
                }
            }
        }
    }
    // Unclassified control traffic (192.168/16 — outside every 10/8 class
    // prefix and the 11/8 NAT pool) must pass by untouched on every path.
    for nodes in paths {
        let path = Path::new(nodes.iter().map(|&n| NodeId(n)).collect()).expect("paths are valid");
        let p = Packet::new(0xc0a8_0001, 0xc0a8_0002, 7, 7, 17);
        if seen.insert((key(&p), path.clone())) {
            probes.push(ConformanceProbe {
                label: format!("control path via {}", nodes[0]),
                packet: p,
                path,
            });
        }
    }
    probes
}

pub(crate) fn walk_detail(w: &Walk) -> String {
    match w {
        Ok(rec) => format!(
            "instances {:?}, host_tag {}, subclass {:?}",
            rec.instances, rec.packet.host_tag, rec.packet.subclass_tag
        ),
        Err(e) => format!("walk error: {e}"),
    }
}

/// Whether an intermediate-barrier walk is a legal chain-consistent mix:
/// the packet completed (`Ok`), and either traversed no instances while
/// one of the endpoint programs also leaves it untouched, or traversed a
/// complete NF chain of the deployment (its instance sequence maps to the
/// `stage_nfs` of some sub-class in either snapshot) and exited `Fin`.
pub(crate) fn chain_consistent(
    walk: &Walk,
    old: &Walk,
    new: &Walk,
    nf_of: &BTreeMap<InstanceId, NfType>,
    chains: &BTreeSet<Vec<NfType>>,
) -> bool {
    let Ok(rec) = walk else {
        return false;
    };
    if rec.instances.is_empty() {
        // No processing: legal only if one endpoint program also passes
        // this packet by (otherwise it is a chain bypass).
        let untouched = |w: &Walk| matches!(w, Ok(r) if r.instances.is_empty());
        return untouched(old) || untouched(new);
    }
    if rec.packet.host_tag != HostTag::Fin {
        // Classified but stranded mid-chain.
        return false;
    }
    let Some(seq) = rec
        .instances
        .iter()
        .map(|i| nf_of.get(i).copied())
        .collect::<Option<Vec<NfType>>>()
    else {
        return false;
    };
    chains.contains(&seq)
}

/// Replays the probe battery through every intermediate barrier of the
/// incremental update plan from `old` to `new`, checking the three-tier
/// guarantee:
///
/// 1. interference freedom always (a successful walk's switch sequence is
///    the forwarding path, by construction of the walker);
/// 2. no transient chain bypass — at every barrier each probe's walk is
///    bitwise the old walk, bitwise the new walk, or a chain-consistent
///    old/new mix (complete NF chain of the deployment, `Fin` on exit);
/// 3. after the final barrier every walk is bitwise identical to the full
///    recompile's walk, and the patched program equals it rule for rule.
///
/// # Errors
///
/// The first [`ConformanceError`] found, naming the barrier and probe.
pub fn differential_conformance(
    old: &CompilerSnapshot,
    new: &CompilerSnapshot,
) -> Result<ConformanceReport, ConformanceError> {
    differential_conformance_with(old, new, &WalkEngineConfig::default())
}

/// [`differential_conformance`] with an explicit engine choice and thread
/// budget. The two engines must accept and reject exactly the same plans —
/// the walk-bench battery runs both and diffs the verdicts.
///
/// # Errors
///
/// The first [`ConformanceError`] found, naming the barrier and probe.
pub fn differential_conformance_with(
    old: &CompilerSnapshot,
    new: &CompilerSnapshot,
    cfg: &WalkEngineConfig,
) -> Result<ConformanceReport, ConformanceError> {
    let old_prog = compile(old);
    conformance_core(old_prog, None, old, new, cfg)
}

/// The crash-recovery variant of [`differential_conformance`]: the "old"
/// side is not a compiled snapshot but the **actual surviving switch
/// fabric** (`installed`), which after a mid-sync crash sits at some
/// barrier prefix between one sync's program and the next. Because the
/// fabric is mid-transition, a walk during repair may legally look like
/// the *pre-crash-sync* program (`old`, the context one sync before the
/// crash) rather than the torn fabric itself — probes stranded by the
/// torn state heal through `old`-like behaviour on their way to `new`.
/// The acceptance set per barrier is therefore: bitwise-installed,
/// bitwise-`old`, bitwise-`new`, or a chain-consistent mix against either
/// endpoint — and after the final barrier, bitwise-`new` only.
///
/// # Errors
///
/// The first [`ConformanceError`] found, naming the barrier and probe.
pub fn repair_conformance(
    installed: &RuleProgram,
    old: &CompilerSnapshot,
    new: &CompilerSnapshot,
) -> Result<ConformanceReport, ConformanceError> {
    repair_conformance_with(installed, old, new, &WalkEngineConfig::default())
}

/// [`repair_conformance`] with an explicit engine choice and thread
/// budget.
///
/// # Errors
///
/// The first [`ConformanceError`] found, naming the barrier and probe.
pub fn repair_conformance_with(
    installed: &RuleProgram,
    old: &CompilerSnapshot,
    new: &CompilerSnapshot,
    cfg: &WalkEngineConfig,
) -> Result<ConformanceReport, ConformanceError> {
    conformance_core(installed.clone(), Some(compile(old)), old, new, cfg)
}

/// Shared engine of the two conformance batteries: walk every probe at
/// every intermediate barrier of the update plan from `old_prog` to
/// `compile(new)`, enforcing bitwise-old / bitwise-new / chain-consistent
/// mix (plus bitwise-`prev` when a pre-transition program is given), then
/// require bitwise-final convergence.
fn conformance_core(
    old_prog: RuleProgram,
    prev_prog: Option<RuleProgram>,
    old: &CompilerSnapshot,
    new: &CompilerSnapshot,
    cfg: &WalkEngineConfig,
) -> Result<ConformanceReport, ConformanceError> {
    let new_prog = compile(new);
    let plan = diff(&old_prog, &new_prog);
    let probes = conformance_probes(old, new);
    let jobs: Vec<(Packet, &Path)> = probes.iter().map(|p| (p.packet, &p.path)).collect();

    let old_engine = Engine::of(&old_prog, cfg.engine);
    let new_engine = Engine::of(&new_prog, cfg.engine);
    let old_walks: Vec<Walk> = walk_batch(old_engine.as_dyn(), &jobs, cfg.threads);
    let new_walks: Vec<Walk> = walk_batch(new_engine.as_dyn(), &jobs, cfg.threads);
    // Repair runs start from a torn fabric: probes stranded by the crash
    // heal through the pre-transition program's behaviour before reaching
    // `new`, so those walks are a third legal reference alongside old/new.
    let prev_walks: Option<Vec<Walk>> = prev_prog.map(|prog| {
        let engine = Engine::of(&prog, cfg.engine);
        walk_batch(engine.as_dyn(), &jobs, cfg.threads)
    });

    let mut nf_of: BTreeMap<InstanceId, NfType> = BTreeMap::new();
    let mut chains: BTreeSet<Vec<NfType>> = BTreeSet::new();
    for s in old.subclasses.iter().chain(new.subclasses.iter()) {
        for (j, &inst) in s.instances.iter().enumerate() {
            nf_of.insert(inst, s.stage_nfs[j]);
        }
        if !s.stage_nfs.is_empty() {
            chains.insert(s.stage_nfs.clone());
        }
    }

    let mut report = ConformanceReport {
        probes: probes.len(),
        ..ConformanceReport::default()
    };
    let mut patched = old_prog;
    // The barrier loop exercises the incremental path end-to-end: the
    // compiled engine is patched per-device via `rebuild_delta`, never
    // rebuilt from scratch.
    let mut engine = old_engine;
    let total = plan.batches().len();
    for (bi, batch) in plan.batches().iter().enumerate() {
        apply_batch_unchecked(&mut patched, batch);
        engine.patch(&patched, batch);
        report.barriers += 1;
        let got_walks = walk_batch(engine.as_dyn(), &jobs, cfg.threads);
        let last = bi + 1 == total;
        for (i, probe) in probes.iter().enumerate() {
            let got = got_walks[i].clone();
            report.walks += 1;
            if got == new_walks[i] {
                report.new_exact += 1;
            } else if last {
                return Err(ConformanceError::FinalWalk {
                    probe: probe.label.clone(),
                    detail: walk_detail(&got),
                });
            } else if got == old_walks[i] || prev_walks.as_ref().is_some_and(|pw| got == pw[i]) {
                report.old_exact += 1;
            } else if prev_walks.is_some()
                && matches!(got, Err(WalkError::NoRuleAtSwitch(_)))
                && matches!(old_walks[i], Err(WalkError::NoRuleAtSwitch(_)))
            {
                // Repair mode only: a probe black-holed by the torn fabric
                // may stay black-holed while scaffolding lands, with the
                // stranding switch moving along the path. Still a drop in
                // both states — but a punt to a missing host is never
                // excused, so a make-before-break violation in the repair
                // plan itself remains detectable.
                report.old_exact += 1;
            } else if chain_consistent(&got, &old_walks[i], &new_walks[i], &nf_of, &chains)
                || prev_walks.as_ref().is_some_and(|pw| {
                    chain_consistent(&got, &pw[i], &new_walks[i], &nf_of, &chains)
                })
            {
                report.mixed += 1;
            } else {
                return Err(ConformanceError::BarrierWalk {
                    barrier: bi,
                    probe: probe.label.clone(),
                    detail: walk_detail(&got),
                });
            }
        }
    }
    if patched != new_prog {
        return Err(ConformanceError::FinalProgram);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use apple_core::classes::ClassConfig;
    use apple_topology::zoo;
    use apple_traffic::SeriesConfig;

    fn cfg() -> PacketReplayConfig {
        PacketReplayConfig {
            apple: AppleConfig {
                classes: ClassConfig {
                    max_classes: 8,
                    ..Default::default()
                },
                ..Default::default()
            },
            ..Default::default()
        }
    }

    fn bursty() -> (apple_topology::Topology, TmSeries) {
        let topo = zoo::internet2();
        let series = TmSeries::generate(
            &topo,
            &SeriesConfig {
                snapshots: 40,
                burst_pairs: 2,
                burst_scale: 10.0,
                ..SeriesConfig::paper(91)
            },
        );
        (topo, series)
    }

    #[test]
    fn walks_packets_and_detects_bursts() {
        let (topo, series) = bursty();
        let out = packet_replay(&topo, &series, &cfg()).unwrap();
        assert_eq!(out.loss.len(), series.len());
        assert!(out.packets_walked > 0);
        // The 10x bursts must overload something.
        assert!(out.trips > 0, "detector never fired");
        // And the roll-back thresholds must clear after bursts subside.
        assert!(out.clears > 0, "detector never cleared");
        for (_, v) in out.loss.samples() {
            assert!((0.0..=1.0).contains(v));
        }
    }

    #[test]
    fn quiet_series_stays_clean() {
        let topo = zoo::internet2();
        let series = TmSeries::generate(
            &topo,
            &SeriesConfig {
                snapshots: 20,
                burst_pairs: 0,
                total_mbps: 800.0,
                mvr_a: 0.1,
                ..SeriesConfig::paper(92)
            },
        );
        let out = packet_replay(&topo, &series, &cfg()).unwrap();
        assert_eq!(out.trips, 0, "phantom overload at low load");
        assert!(out.loss.max() < 0.02, "loss {} at low load", out.loss.max());
    }

    #[test]
    fn counter_rates_track_offered_load() {
        // With a constant series, the counter-derived per-tick total must
        // match the analytic offered load of the deployment.
        let topo = zoo::internet2();
        let series = TmSeries::generate(
            &topo,
            &SeriesConfig {
                snapshots: 6,
                burst_pairs: 0,
                mvr_a: 0.0, // no noise
                diurnal_depth: 0.0,
                weekly_depth: 0.0,
                total_mbps: 1_500.0,
                ..SeriesConfig::paper(93)
            },
        );
        // All classes (no truncation) so the walked volume covers the full
        // matrix.
        let full_cfg = PacketReplayConfig {
            apple: AppleConfig::default(),
            ..PacketReplayConfig::default()
        };
        let out = packet_replay(&topo, &series, &full_cfg).unwrap();
        // Sub-1-packet sub-classes and rounding cause small undercount;
        // just require the order of magnitude to be right.
        let expected_pps = 1_500.0 * 1e6 / (1_500.0 * 8.0); // = 125_000
        let per_tick = out.packets_walked as f64 / series.len() as f64;
        assert!(
            per_tick > 0.5 * expected_pps && per_tick < 2.0 * expected_pps,
            "per-tick packets {per_tick} vs expected ~{expected_pps}"
        );
    }

    use apple_dataplane::compiler::SubclassSpec;
    use apple_nf::{InstanceId, NfType};

    /// A three-switch line with one two-stage class; `fw`/`ids` pick the
    /// serving instances so tests can model churn.
    fn line_snapshot(fw: u64, ids: u64) -> CompilerSnapshot {
        CompilerSnapshot {
            switches: vec![0, 1, 2],
            hosts: vec![1, 2],
            rewriters: Vec::new(),
            subclasses: vec![SubclassSpec {
                class: 0,
                class_name: "c0".into(),
                sub: 0,
                tag: 0,
                global: false,
                path: vec![0, 1, 2],
                src_prefix: (0x0a00_0000, 24),
                dst_prefix: (0x0a00_0100, 24),
                proto: Some(6),
                dst_ports: vec![80, 443],
                prefixes: vec![(0x0a00_0000, 25), (0x0a00_0080, 25)],
                stage_positions: vec![1, 2],
                stage_nfs: vec![NfType::Firewall, NfType::Ids],
                instances: vec![InstanceId(fw), InstanceId(ids)],
            }],
            compress: true,
        }
    }

    #[test]
    fn conformance_identity_is_trivially_clean() {
        let snap = line_snapshot(0, 1);
        let report = differential_conformance(&snap, &snap).unwrap();
        assert_eq!(report.barriers, 0, "diff(p, p) must be empty");
        assert_eq!(report.walks, 0);
        // 2 prefixes x 2 ports + 1 control probe.
        assert_eq!(report.probes, 5);
    }

    #[test]
    fn conformance_instance_swap_passes_every_barrier() {
        let a = line_snapshot(0, 1);
        let b = line_snapshot(7, 1);
        let report = differential_conformance(&a, &b).unwrap();
        assert!(report.barriers >= 2, "swap needs add + remove barriers");
        assert_eq!(
            report.walks,
            report.old_exact + report.new_exact + report.mixed
        );
        // The control probe (and any probe not yet flipped) walks old; the
        // final barrier forces everything to new.
        assert!(report.new_exact > 0);
        // And the reverse direction restores the original program.
        differential_conformance(&b, &a).unwrap();
    }

    #[test]
    fn conformance_covers_class_arrival_and_departure() {
        let empty = CompilerSnapshot {
            switches: vec![0, 1, 2],
            ..CompilerSnapshot::default()
        };
        let full = line_snapshot(0, 1);
        let up = differential_conformance(&empty, &full).unwrap();
        assert!(up.barriers > 0 && up.new_exact > 0);
        let down = differential_conformance(&full, &empty).unwrap();
        // Departure flips classification first, so every probe converges on
        // the new (pass-by) behaviour immediately.
        assert!(down.barriers > 0 && down.new_exact > 0);
        assert_eq!(down.walks, down.old_exact + down.new_exact + down.mixed);
    }

    #[test]
    fn conformance_reports_identical_across_engines_and_threads() {
        let a = line_snapshot(0, 1);
        let b = line_snapshot(7, 1);
        let base = differential_conformance_with(
            &a,
            &b,
            &WalkEngineConfig {
                engine: EngineKind::Linear,
                threads: 1,
            },
        )
        .unwrap();
        for engine in [EngineKind::Linear, EngineKind::Compiled] {
            for threads in [1, 2, 8] {
                let got =
                    differential_conformance_with(&a, &b, &WalkEngineConfig { engine, threads })
                        .unwrap();
                assert_eq!(got, base, "engine {} threads {threads}", engine.name());
            }
        }
    }

    #[test]
    fn replay_outcome_identical_across_engines_and_threads() {
        let (topo, series) = bursty();
        let base = packet_replay(&topo, &series, &cfg()).unwrap();
        for engine in [EngineKind::Linear, EngineKind::Compiled] {
            for threads in [1, 4] {
                let out = packet_replay(
                    &topo,
                    &series,
                    &PacketReplayConfig {
                        engine: WalkEngineConfig { engine, threads },
                        ..cfg()
                    },
                )
                .unwrap();
                assert_eq!(out.packets_walked, base.packets_walked);
                assert_eq!(out.trips, base.trips);
                assert_eq!(out.clears, base.clears);
                assert_eq!(
                    out.loss.samples(),
                    base.loss.samples(),
                    "engine {} threads {threads}",
                    engine.name()
                );
            }
        }
    }

    #[test]
    fn conformance_flags_a_chain_bypass() {
        // Forged plan: apply only the *remove* barriers of a departure (no
        // classification flip first) — in-flight-tagged packets strand.
        use apple_dataplane::diff::UpdateBatch;

        let full = line_snapshot(0, 1);
        let empty = CompilerSnapshot {
            switches: vec![0, 1, 2],
            ..CompilerSnapshot::default()
        };
        let old_prog = compile(&full);
        let new_prog = compile(&empty);
        let plan = diff(&old_prog, &new_prog);
        let mut patched = old_prog.clone();
        // Apply host-removal barriers while classification still tags.
        for batch in plan.batches() {
            if matches!(batch, UpdateBatch::Host(h) if h.drop_host) {
                apply_batch_unchecked(&mut patched, batch);
            }
        }
        let probes = conformance_probes(&full, &empty);
        let walker = patched.walker();
        let stranded = probes.iter().any(|p| {
            matches!(
                walker.walk(p.packet, &p.path),
                Err(WalkError::NoHostAtSwitch(_))
            )
        });
        assert!(
            stranded,
            "removing hosts before the classification flip must strand tagged packets"
        );
    }
}
