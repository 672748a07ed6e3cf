//! Batched packet replay over a rule program, and the **conformance
//! battery** for the incremental rule compiler.
//!
//! [`conformance`] replays a seeded probe set through the programs before
//! and after an update and through the partially applied fabric at every
//! observation point of a [`Schedule`] — after every barrier of the update
//! plan, or at every tick of a seeded asynchronous southbound channel
//! (DESIGN.md §13) — and checks the three-tier update guarantee documented
//! in `apple_dataplane::diff`.
//!
//! The conformance walks run through [`walk_batch`]: contiguous chunks
//! across scoped worker threads with a deterministic by-index merge,
//! generic over the [`WalkEngine`] in use. They walk the compiled fast path
//! of DESIGN.md §12, which `apple_dataplane`'s `fuzz_walk` battery holds
//! bitwise-equal to the linear reference walker; the battery patches it
//! barrier by barrier through `rebuild_delta`, so every run also exercises
//! the incremental fast-path maintenance the online loop relies on.

use apple_dataplane::compiler::{compile, CompilerSnapshot, RuleProgram};
use apple_dataplane::diff::{apply_batch_unchecked, diff, UpdateBatch};
use apple_dataplane::fastpath::CompiledProgram;
use apple_dataplane::packet::{HostTag, Packet};
use apple_dataplane::southbound::{SouthboundChannel, SouthboundConfig, SouthboundEvent};
use apple_dataplane::walk::{WalkEngine, WalkError, WalkRecord};
use apple_nf::{InstanceId, NfType};
use apple_topology::{NodeId, Path};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Worker-thread budget for batched walks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkEngineConfig {
    /// Worker threads for [`walk_batch`]; `0` = one per available CPU,
    /// `1` = in-place sequential (no spawning).
    pub threads: usize,
}

impl Default for WalkEngineConfig {
    fn default() -> Self {
        WalkEngineConfig { threads: 1 }
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

/// One representative packet of the conformance battery.
#[derive(Debug, Clone)]
pub struct ConformanceProbe {
    /// Where the probe came from (sub-class/prefix/variant), for reports.
    pub label: String,
    /// The untagged packet injected at the path's ingress.
    pub packet: Packet,
    /// The forwarding path the packet is walked along.
    pub path: Path,
}

/// When the conformance battery observes the fabric during an update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// After every barrier of the plan, applied synchronously.
    Barriers,
    /// Every `tick_ms` of virtual time while the plan drains through a
    /// seeded asynchronous [`SouthboundChannel`] (DESIGN.md §13). The
    /// channel's global barrier gate confines reordering and retries to
    /// one barrier, so every tick observes an exact plan prefix.
    Inflight {
        /// Channel timing: seed, per-rule latency, jitter, reorder window.
        southbound: SouthboundConfig,
        /// Virtual milliseconds per scheduler tick.
        tick_ms: u64,
    },
}

/// Tallies from one conformance run. `old_exact`/`new_exact`/`mixed`
/// classify each observed walk; once the plan is fully applied every walk
/// is required to be `new_exact`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConformanceReport {
    /// Barriers the plan applied (one per [`apple_dataplane::UpdateBatch`]).
    pub barriers: usize,
    /// Probes in the battery.
    pub probes: usize,
    /// Total packet walks performed across all observation points.
    pub walks: usize,
    /// Walks bitwise-identical to the pre-update program's walk.
    pub old_exact: usize,
    /// Walks bitwise-identical to the full recompile's walk.
    pub new_exact: usize,
    /// Walks that were a chain-consistent old/new mix (full NF chain, Fin
    /// tag on exit) — legal only before the plan is fully applied.
    pub mixed: usize,
    /// Scheduler ticks observed under [`Schedule::Inflight`] (one probe
    /// battery each); 0 under [`Schedule::Barriers`].
    pub ticks: usize,
    /// Virtual time the channel took to drain the plan; 0 under
    /// [`Schedule::Barriers`].
    pub elapsed_ms: u64,
    /// Install retries the channel consumed; 0 under
    /// [`Schedule::Barriers`] and on the fault-free channel.
    pub retries: u64,
}

/// A violation of the update guarantee found by the battery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConformanceError {
    /// A probe's walk before the plan was fully applied was neither the
    /// old walk, the new walk, nor a chain-consistent mix — a transient
    /// chain bypass or interference.
    BarrierWalk {
        /// Index in the plan (from 0) of the last barrier applied when the
        /// walk was observed: the fabric was the plan prefix up to and
        /// including it.
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
type Walk = Result<WalkRecord, WalkError>;

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

fn walk_detail(w: &Walk) -> String {
    match w {
        Ok(rec) => format!(
            "instances {:?}, host_tag {}, subclass {:?}",
            rec.instances, rec.packet.host_tag, rec.packet.subclass_tag
        ),
        Err(e) => format!("walk error: {e}"),
    }
}

/// How an observed walk is legal.
enum Verdict {
    Old,
    New,
    Mixed,
}

/// What observed walks are judged against: every probe's walk through the
/// start program, the full recompile and (repair mode) the pre-crash
/// program, plus the deployment's NF chains for the mixed tier.
struct Reference {
    old: Vec<Walk>,
    new: Vec<Walk>,
    prev: Option<Vec<Walk>>,
    nf_of: BTreeMap<InstanceId, NfType>,
    chains: BTreeSet<Vec<NfType>>,
}

impl Reference {
    /// Classifies probe `i`'s observed walk, or `None` when it is illegal.
    /// Once the plan is `applied` in full only bitwise-new is legal.
    fn classify(&self, i: usize, got: &Walk, applied: bool) -> Option<Verdict> {
        let (old, new) = (&self.old[i], &self.new[i]);
        let prev = self.prev.as_ref().map(|walks| &walks[i]);
        if got == new {
            return Some(Verdict::New);
        }
        if applied {
            return None;
        }
        if got == old || prev == Some(got) {
            return Some(Verdict::Old);
        }
        if prev.is_some()
            && matches!(got, Err(WalkError::NoRuleAtSwitch(_)))
            && matches!(old, Err(WalkError::NoRuleAtSwitch(_)))
        {
            // Repair mode only: a probe black-holed by the torn fabric
            // may stay black-holed while scaffolding lands, with the
            // stranding switch moving along the path. Still a drop in
            // both states — but a punt to a missing host is never
            // excused, so a make-before-break violation in the repair
            // plan itself remains detectable.
            return Some(Verdict::Old);
        }
        // A chain-consistent mix: the packet completed, and either
        // traversed no instances while an endpoint program also leaves it
        // untouched (otherwise it is a chain bypass), or traversed a
        // complete NF chain of the deployment (its instance sequence maps
        // to the `stage_nfs` of some sub-class in either snapshot) and
        // exited `Fin` (otherwise it stranded mid-chain).
        let Ok(rec) = got else {
            return None;
        };
        let mixed = if rec.instances.is_empty() {
            let untouched = |w: &Walk| matches!(w, Ok(r) if r.instances.is_empty());
            untouched(old) || untouched(new) || prev.is_some_and(untouched)
        } else {
            rec.packet.host_tag == HostTag::Fin
                && rec
                    .instances
                    .iter()
                    .map(|inst| self.nf_of.get(inst).copied())
                    .collect::<Option<Vec<NfType>>>()
                    .is_some_and(|seq| self.chains.contains(&seq))
        };
        mixed.then_some(Verdict::Mixed)
    }
}

/// [`conformance`] for the diff planner's update from `compile(old)` to
/// `compile(new)`, observed after every barrier with `cfg`'s thread budget.
///
/// # Errors
///
/// The first [`ConformanceError`] found, naming the barrier and probe.
pub fn differential_conformance_with(
    old: &CompilerSnapshot,
    new: &CompilerSnapshot,
    cfg: &WalkEngineConfig,
) -> Result<ConformanceReport, ConformanceError> {
    conformance(
        compile(old),
        None,
        old,
        new,
        None,
        &Schedule::Barriers,
        cfg.threads,
    )
}

/// The conformance battery: moves the fabric from `start` through `plan`
/// — `None` for the diff planner's plan to `compile(new)` — and walks the
/// [`conformance_probes`] of `old` and `new` on `threads` workers at every
/// observation point of `schedule`, checking the three-tier guarantee:
///
/// 1. interference freedom always (a successful walk's switch sequence is
///    the forwarding path, by construction of the walker);
/// 2. no transient chain bypass — every observed walk is bitwise the
///    `start` walk, bitwise the new walk, or a chain-consistent old/new
///    mix (complete NF chain of the deployment, `Fin` on exit);
/// 3. once the plan is fully applied every walk is bitwise identical to
///    the full recompile's walk, and the patched program equals it rule
///    for rule.
///
/// `prev` is crash repair: `start` is then the **actual surviving switch
/// fabric**, which after a mid-sync crash sits at some barrier prefix
/// between the pre-crash sync's program (`prev`, compiled from `old`) and
/// the next. Probes stranded by the torn state heal through `prev`-like
/// behaviour on their way to `new`, so a walk may also be bitwise `prev`,
/// a chain-consistent mix against `prev`, or stay black-holed at an
/// absent switch while scaffolding lands.
///
/// # Errors
///
/// The first [`ConformanceError`] found, naming the barrier and probe.
///
/// # Panics
///
/// Under [`Schedule::Inflight`], if the fault-free channel fails.
pub fn conformance(
    start: RuleProgram,
    plan: Option<&[UpdateBatch]>,
    old: &CompilerSnapshot,
    new: &CompilerSnapshot,
    prev: Option<&RuleProgram>,
    schedule: &Schedule,
    threads: usize,
) -> Result<ConformanceReport, ConformanceError> {
    let new_prog = compile(new);
    let planned;
    let plan = match plan {
        Some(plan) => plan,
        None => {
            planned = diff(&start, &new_prog);
            planned.batches()
        }
    };
    let probes = conformance_probes(old, new);
    let jobs: Vec<(Packet, &Path)> = probes.iter().map(|p| (p.packet, &p.path)).collect();

    // The observation loop exercises the incremental path end-to-end: the
    // compiled engine is patched per device via `rebuild_delta`, never
    // rebuilt from scratch.
    let mut engine = CompiledProgram::new(&start);
    let mut reference = Reference {
        old: walk_batch(&engine, &jobs, threads),
        new: walk_batch(&CompiledProgram::new(&new_prog), &jobs, threads),
        prev: prev.map(|prog| walk_batch(&CompiledProgram::new(prog), &jobs, threads)),
        nf_of: BTreeMap::new(),
        chains: BTreeSet::new(),
    };
    for s in old.subclasses.iter().chain(new.subclasses.iter()) {
        for (j, &inst) in s.instances.iter().enumerate() {
            reference.nf_of.insert(inst, s.stage_nfs[j]);
        }
        if !s.stage_nfs.is_empty() {
            reference.chains.insert(s.stage_nfs.clone());
        }
    }

    let mut report = ConformanceReport {
        probes: probes.len(),
        ..ConformanceReport::default()
    };
    let mut fabric = start;
    let mut pending = plan.iter();
    let mut channel = match *schedule {
        Schedule::Barriers => None,
        Schedule::Inflight {
            southbound,
            tick_ms,
        } => {
            let mut chan = SouthboundChannel::new(southbound);
            for batch in plan {
                chan.submit_batch(batch);
            }
            Some((chan, tick_ms))
        }
    };
    loop {
        // Move the fabric to the next observation point.
        let applied = match &mut channel {
            None => {
                let Some(batch) = pending.next() else {
                    break;
                };
                commit(&mut fabric, &mut engine, batch);
                report.barriers += 1;
                pending.as_slice().is_empty()
            }
            Some((chan, tick_ms)) => {
                if chan.is_idle() {
                    break;
                }
                let events = chan
                    .advance(*tick_ms)
                    .expect("fault-free southbound channel cannot fail");
                for event in events {
                    if let SouthboundEvent::Barrier(done) = event {
                        commit(&mut fabric, &mut engine, &done.batch);
                        report.barriers += 1;
                        report.retries += done.retries;
                    }
                }
                report.ticks += 1;
                chan.is_idle()
            }
        };
        let walks = walk_batch(&engine, &jobs, threads);
        for (i, (got, probe)) in walks.iter().zip(&probes).enumerate() {
            report.walks += 1;
            match reference.classify(i, got, applied) {
                Some(Verdict::Old) => report.old_exact += 1,
                Some(Verdict::New) => report.new_exact += 1,
                Some(Verdict::Mixed) => report.mixed += 1,
                None => {
                    let (probe, detail) = (probe.label.clone(), walk_detail(got));
                    return Err(if applied {
                        ConformanceError::FinalWalk { probe, detail }
                    } else {
                        // A tick before the first ack observes `start`,
                        // whose walks are all bitwise-old: a barrier has
                        // landed.
                        ConformanceError::BarrierWalk {
                            barrier: report.barriers - 1,
                            probe,
                            detail,
                        }
                    });
                }
            }
        }
    }
    if fabric != new_prog {
        return Err(ConformanceError::FinalProgram);
    }
    if let Some((chan, _)) = &channel {
        report.elapsed_ms = chan.now_ms();
    }
    Ok(report)
}

/// Lands one barrier on the observed fabric and patches its fast path.
fn commit(fabric: &mut RuleProgram, engine: &mut CompiledProgram, batch: &UpdateBatch) {
    apply_batch_unchecked(fabric, batch);
    engine.rebuild_delta(batch);
}

#[cfg(test)]
mod tests {
    use super::*;

    use apple_dataplane::compiler::SubclassSpec;

    /// A `switches`-long line with one two-stage class; `fw`/`ids` pick
    /// the serving instances so scenarios can model churn.
    fn line_snapshot(switches: usize, fw: u64, ids: u64) -> CompilerSnapshot {
        let path: Vec<usize> = (0..switches).collect();
        CompilerSnapshot {
            switches: path.clone(),
            hosts: vec![1, switches - 1],
            rewriters: Vec::new(),
            subclasses: vec![SubclassSpec {
                class: 0,
                class_name: "c0".into(),
                sub: 0,
                tag: 0,
                global: false,
                path,
                src_prefix: (0x0a00_0000, 24),
                dst_prefix: (0x0a00_0100, 24),
                proto: Some(6),
                dst_ports: vec![80, 443],
                prefixes: vec![(0x0a00_0000, 25), (0x0a00_0080, 25)],
                stage_positions: vec![1, switches - 1],
                stage_nfs: vec![NfType::Firewall, NfType::Ids],
                instances: vec![InstanceId(fw), InstanceId(ids)],
            }],
            compress: true,
        }
    }

    fn empty_snapshot(switches: usize) -> CompilerSnapshot {
        CompilerSnapshot {
            switches: (0..switches).collect(),
            ..CompilerSnapshot::default()
        }
    }

    fn barriers(
        old: &CompilerSnapshot,
        new: &CompilerSnapshot,
    ) -> Result<ConformanceReport, ConformanceError> {
        differential_conformance_with(old, new, &WalkEngineConfig::default())
    }

    /// The paper's timing model (70 ms per rule install) with a 10 ms probe
    /// tick — several walks land inside every barrier's flight.
    fn every_tick(southbound: SouthboundConfig) -> Schedule {
        Schedule::Inflight {
            southbound,
            tick_ms: 10,
        }
    }

    fn in_flight(
        old: &CompilerSnapshot,
        new: &CompilerSnapshot,
        southbound: SouthboundConfig,
    ) -> Result<ConformanceReport, ConformanceError> {
        conformance(
            compile(old),
            None,
            old,
            new,
            None,
            &every_tick(southbound),
            1,
        )
    }

    /// The identity update is empty under either schedule: no barriers, no
    /// ticks, no walks.
    #[test]
    fn identity_plan_is_trivially_clean() {
        let snap = line_snapshot(3, 0, 1);
        let report = barriers(&snap, &snap).unwrap();
        assert_eq!(report.barriers, 0, "diff(p, p) must be empty");
        assert_eq!(report.walks, 0);
        // 2 prefixes x 2 ports + 1 control probe.
        assert_eq!(report.probes, 5);
        let report = in_flight(&snap, &snap, SouthboundConfig::paper(4)).unwrap();
        assert_eq!(report.barriers, 0);
        assert_eq!(report.ticks, 0);
        assert_eq!(report.walks, 0);
        assert_eq!(report.elapsed_ms, 0);
    }

    #[test]
    fn conformance_instance_swap_passes_every_barrier() {
        let a = line_snapshot(3, 0, 1);
        let b = line_snapshot(3, 7, 1);
        let report = barriers(&a, &b).unwrap();
        assert!(report.barriers >= 2, "swap needs add + remove barriers");
        assert_eq!(
            report.walks,
            report.old_exact + report.new_exact + report.mixed
        );
        // The control probe (and any probe not yet flipped) walks old; the
        // final barrier forces everything to new.
        assert!(report.new_exact > 0);
        // And the reverse direction restores the original program.
        barriers(&b, &a).unwrap();
    }

    #[test]
    fn conformance_covers_class_arrival_and_departure() {
        let empty = empty_snapshot(3);
        let full = line_snapshot(3, 0, 1);
        let up = barriers(&empty, &full).unwrap();
        assert!(up.barriers > 0 && up.new_exact > 0);
        let down = barriers(&full, &empty).unwrap();
        // Departure flips classification first, so every probe converges on
        // the new (pass-by) behaviour immediately.
        assert!(down.barriers > 0 && down.new_exact > 0);
        assert_eq!(down.walks, down.old_exact + down.new_exact + down.mixed);
    }

    /// Neither the thread budget nor the schedule's walk fan-out may change
    /// what the battery observes.
    #[test]
    fn reports_identical_across_threads_and_schedules() {
        let old = line_snapshot(3, 0, 1);
        let new = line_snapshot(3, 7, 1);
        for schedule in [Schedule::Barriers, every_tick(SouthboundConfig::paper(21))] {
            let run = |threads| {
                conformance(compile(&old), None, &old, &new, None, &schedule, threads).unwrap()
            };
            let base = run(1);
            for threads in [2, 8] {
                assert_eq!(run(threads), base, "{schedule:?} threads {threads}");
            }
        }
    }

    /// A departure plan whose host-drop barriers are moved ahead of the
    /// classification flip strands tagged packets at a missing host; under
    /// both schedules the battery names the first drop as the offending
    /// barrier.
    #[test]
    fn battery_rejects_host_drops_ahead_of_the_flip() {
        let full = line_snapshot(3, 0, 1);
        let empty = empty_snapshot(3);
        let start = compile(&full);
        let plan = diff(&start, &compile(&empty));
        let (drops, rest): (Vec<UpdateBatch>, Vec<UpdateBatch>) = plan
            .batches()
            .iter()
            .cloned()
            .partition(|b| matches!(b, UpdateBatch::Host(h) if h.drop_host));
        let flip = rest
            .iter()
            .position(|b| matches!(b, UpdateBatch::Switch(s) if s.switch == 0))
            .expect("departure flips the ingress classification");
        let mut forged = rest.clone();
        forged.splice(flip..flip, drops);
        for schedule in [Schedule::Barriers, every_tick(SouthboundConfig::paper(5))] {
            let err = conformance(
                start.clone(),
                Some(&forged),
                &full,
                &empty,
                None,
                &schedule,
                1,
            )
            .unwrap_err();
            assert!(
                matches!(err, ConformanceError::BarrierWalk { barrier, .. } if barrier == flip),
                "{schedule:?}: {err:?}"
            );
        }
    }

    /// A plan that stops one barrier short never reaches the recompile.
    #[test]
    fn battery_rejects_a_plan_that_stops_short() {
        let full = line_snapshot(3, 0, 1);
        let empty = empty_snapshot(3);
        let start = compile(&full);
        let plan = diff(&start, &compile(&empty));
        let short = &plan.batches()[..plan.batches().len() - 1];
        for schedule in [Schedule::Barriers, every_tick(SouthboundConfig::paper(5))] {
            let err = conformance(
                start.clone(),
                Some(short),
                &full,
                &empty,
                None,
                &schedule,
                1,
            )
            .unwrap_err();
            assert!(
                matches!(
                    err,
                    ConformanceError::FinalProgram | ConformanceError::FinalWalk { .. }
                ),
                "{schedule:?}: {err:?}"
            );
        }
    }

    /// The headline in-flight battery: ≥200 seeded (topology,
    /// reorder-schedule) pairs, probes walked at every tick, every walk
    /// three-tier legal, every run draining to the recompile.
    #[test]
    fn battery_holds_across_seeded_reorderings() {
        // 4 update scenarios × 52 channel seeds = 208 ≥ 200 pairs; the
        // seed drives both per-op latency sampling and the per-device
        // reorder permutations, so each pair observes a distinct
        // in-flight schedule.
        let scenarios: Vec<(&str, CompilerSnapshot, CompilerSnapshot)> = vec![
            ("swap-3", line_snapshot(3, 0, 1), line_snapshot(3, 7, 1)),
            ("swap-5", line_snapshot(5, 0, 1), line_snapshot(5, 7, 9)),
            ("arrive-4", empty_snapshot(4), line_snapshot(4, 0, 1)),
            ("depart-4", line_snapshot(4, 0, 1), empty_snapshot(4)),
        ];
        let mut pairs = 0usize;
        let mut mid_flight_walks = 0usize;
        for (name, old, new) in &scenarios {
            for k in 0..52u64 {
                let southbound = SouthboundConfig::paper(0x1f11_0000 ^ (k << 8) ^ pairs as u64);
                let report = in_flight(old, new, southbound)
                    .unwrap_or_else(|e| panic!("{name} seed {k}: {e}"));
                assert!(report.barriers > 0, "{name} seed {k}: empty plan");
                assert_eq!(
                    report.walks,
                    report.ticks * report.probes,
                    "{name} seed {k}: probes must be walked at every tick"
                );
                assert_eq!(
                    report.walks,
                    report.old_exact + report.new_exact + report.mixed,
                    "{name} seed {k}: unclassified walk"
                );
                // Under the 70 ms model a barrier flies for several
                // 10 ms ticks, so the battery must observe the fabric
                // mid-flight (strictly more ticks than barriers).
                assert!(
                    report.ticks > report.barriers,
                    "{name} seed {k}: no mid-flight ticks"
                );
                // Zero-op rewriter barriers drain instantly, but every
                // scenario installs rules somewhere, so the run must pay
                // at least one full install latency.
                assert!(
                    report.elapsed_ms >= southbound.rule_install_ms,
                    "{name} seed {k}: drained faster than one rule install"
                );
                mid_flight_walks += report.old_exact + report.mixed;
                pairs += 1;
            }
        }
        assert!(pairs >= 200, "battery ran only {pairs} pairs");
        assert!(
            mid_flight_walks > 0,
            "battery never observed an in-flight state"
        );
    }

    /// The in-flight run is a pure function of the seed, and distinct
    /// seeds produce distinct in-flight schedules.
    #[test]
    fn reports_are_deterministic_per_seed() {
        let old = line_snapshot(4, 0, 1);
        let new = line_snapshot(4, 7, 1);
        let a = in_flight(&old, &new, SouthboundConfig::paper(11)).unwrap();
        let b = in_flight(&old, &new, SouthboundConfig::paper(11)).unwrap();
        assert_eq!(a, b, "same seed must replay bitwise");
        let c = in_flight(&old, &new, SouthboundConfig::paper(12)).unwrap();
        assert_ne!(
            a.elapsed_ms, c.elapsed_ms,
            "different seeds should sample different schedules"
        );
    }

    /// A wider reorder window shuffles op completions harder but must
    /// never surface an illegal state.
    #[test]
    fn hostile_reorder_windows_stay_conformant() {
        let old = line_snapshot(5, 0, 1);
        let new = empty_snapshot(5);
        for window in [0usize, 1, 8, 64] {
            let mut southbound = SouthboundConfig::paper(0x77 ^ window as u64);
            southbound.reorder_window = window;
            let report = in_flight(&old, &new, southbound)
                .unwrap_or_else(|e| panic!("window {window}: {e}"));
            assert_eq!(
                report.walks,
                report.old_exact + report.new_exact + report.mixed
            );
        }
    }
}
