//! Crash-consistent journaling and deterministic recovery for the
//! [`OrchestrationLoop`] (DESIGN.md §11).
//!
//! The controller's logical state is a pure function of its event history:
//! [`OrchestrationLoop::step`] is deterministic given the current state and
//! the next [`FlowEvent`]. That makes redo logging sufficient — the journal
//! records an **intent** (the event about to be applied) before any side
//! effect and a **commit** after, and recovery replays intents on top of
//! the latest valid snapshot. The periodic global re-solve is the costly
//! part of a step, so a step that runs it also journals the engine's
//! answer ([`Record::Resolve`]), and redo applies that answer instead of
//! solving again; a re-solving step whose record is missing re-runs the
//! engine, which answers the same. Commit and barrier records never drive
//! replay; they exist so an operator (and the chaos battery) can see how
//! far a crashed run got. Resolve records do drive it.
//!
//! Layering:
//!
//! * [`JournaledLoop`] wraps an [`OrchestrationLoop`], writing a
//!   [`Record::StepIntent`] before each step, a [`Record::Resolve`] after
//!   a re-solving one, a [`Record::StepCommit`] after, and a periodic
//!   checksummed snapshot of the full logical state
//!   ([`RecoveryConfig::snapshot_every`]). After each step it walks the
//!   barriers the loop committed ([`OrchestrationLoop::committed`]) and,
//!   per batch, journals a [`Record::Barrier`], mirrors the batch onto a
//!   [`SharedFabric`] and journals a [`Record::BarrierAck`] — so after a
//!   crash the external switch state is known to be at most one sync
//!   ahead of the journal's last commit.
//! * [`recover`] loads the newest snapshot that validates, replays the
//!   journal suffix, truncates any torn tail, and returns a fresh
//!   [`JournaledLoop`] over the same store plus a [`RecoveryReport`].
//! * [`reconcile`] recompiles the intended rule program from the recovered
//!   state, diffs it against what the (surviving) fabric actually holds,
//!   and repairs the fabric in place — the report carries the pre-repair
//!   program and the compiler contexts so the simulator's differential
//!   conformance battery can prove the repair was interference-free.
//!
//! Crash injection threads a [`CrashPoint`] through every journal append,
//! snapshot write, and data-plane barrier; a fired point panics with
//! [`apple_faults::ControllerKill`], which a harness catches while the
//! store and fabric (owned outside the unwind boundary) survive.

use crate::classes::EquivalenceClass;
use crate::online::{
    LiveClass, LiveKey, OnlineConfig, OnlineDecision, OrchestrationLoop, ResolveAnswer, StepReport,
};
use crate::orchestrator::{ControlOps, Host, ResourceOrchestrator};
use crate::policy::PolicyChain;
use apple_dataplane::compiler::{CompilerSnapshot, RuleProgram};
use apple_faults::crash as crashpoint;
use apple_faults::{CrashAction, CrashPoint, CrashSite};
use apple_journal::codec::{ByteReader, ByteWriter, DecodeError};
use apple_journal::{crc32, Journal, JournalError, JournalStats, JournalStore};
use apple_nf::{InstanceId, NfType, ResourceVector, VnfInstance};
use apple_telemetry::{Recorder, RecorderExt};
use apple_topology::{NodeId, Path, Topology};
use apple_traffic::arrivals::{FlowEvent, FlowEventKind};
use apple_traffic::Flow;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

/// Journal record format version (bump on any wire change; decode rejects
/// unknown versions rather than guessing).
pub const RECORD_VERSION: u8 = 1;
/// Snapshot payload format version.
pub const SNAPSHOT_VERSION: u8 = 1;

/// Errors from the journaled controller and recovery paths.
#[derive(Debug)]
pub enum RecoveryError {
    /// The journal layer (storage or snapshot validation) failed.
    Journal(JournalError),
    /// A journal payload passed its CRC but failed structural decoding —
    /// a format bug or version skew, never silent.
    Codec(DecodeError),
    /// A decoded value could not be reconstructed into loop state.
    State(&'static str),
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::Journal(e) => write!(f, "journal failure: {e}"),
            RecoveryError::Codec(e) => write!(f, "record decode failure: {e}"),
            RecoveryError::State(msg) => write!(f, "state reconstruction failure: {msg}"),
        }
    }
}

impl std::error::Error for RecoveryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecoveryError::Journal(e) => Some(e),
            RecoveryError::Codec(e) => Some(e),
            RecoveryError::State(_) => None,
        }
    }
}

impl From<JournalError> for RecoveryError {
    fn from(e: JournalError) -> Self {
        RecoveryError::Journal(e)
    }
}

impl From<DecodeError> for RecoveryError {
    fn from(e: DecodeError) -> Self {
        RecoveryError::Codec(e)
    }
}

/// One write-ahead journal record.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// About to apply timeline event `event` as intent `seq`.
    StepIntent {
        /// Monotonic intent sequence number (1-based).
        seq: u64,
        /// The event to (re)apply.
        event: FlowEvent,
    },
    /// Intent `seq` completed, including its step-end data-plane sync.
    StepCommit {
        /// The completed intent.
        seq: u64,
    },
    /// About to apply an out-of-band instance crash as intent `seq`.
    CrashIntent {
        /// Monotonic intent sequence number.
        seq: u64,
        /// The instance that died.
        instance: InstanceId,
    },
    /// Crash-handling intent `seq` completed.
    CrashCommit {
        /// The completed intent.
        seq: u64,
    },
    /// Data-plane barrier `index` of intent `seq` was submitted to the
    /// southbound channel (diagnostic: recovery reconciles the fabric by
    /// diffing, it never replays barriers).
    Barrier {
        /// The intent whose sync emitted this barrier.
        seq: u64,
        /// Barrier ordinal within the journaled run.
        index: u64,
    },
    /// Barrier `index` of intent `seq` was fully acked by its device —
    /// every op of the batch confirmed installed. A [`Record::Barrier`]
    /// with no matching ack is the journal's mark of a partially-acked
    /// tail: the fabric may hold the batch the controller never saw
    /// confirmed, and [`reconcile`] must repair by diffing.
    BarrierAck {
        /// The intent whose sync emitted this barrier.
        seq: u64,
        /// Barrier ordinal within the journaled run.
        index: u64,
    },
    /// Step intent `seq` ran a periodic re-solve and the engine answered
    /// `answer`. Redo applies the answer instead of solving again; a
    /// re-solving step without this record re-runs the engine.
    Resolve {
        /// The step whose re-solve this answers.
        seq: u64,
        /// The engine's answer.
        answer: ResolveAnswer,
    },
}

const TAG_STEP_INTENT: u8 = 1;
const TAG_STEP_COMMIT: u8 = 2;
const TAG_CRASH_INTENT: u8 = 3;
const TAG_CRASH_COMMIT: u8 = 4;
const TAG_BARRIER: u8 = 5;
const TAG_BARRIER_ACK: u8 = 6;
const TAG_RESOLVE: u8 = 7;

fn encode_flow_event(w: &mut ByteWriter, e: &FlowEvent) {
    w.put_f64(e.time_secs);
    w.put_u64(e.flow_id);
    w.put_u8(match e.kind {
        FlowEventKind::Arrival => 0,
        FlowEventKind::Departure => 1,
    });
    w.put_u32(e.flow.src_ip);
    w.put_u32(e.flow.dst_ip);
    w.put_u16(e.flow.src_port);
    w.put_u16(e.flow.dst_port);
    w.put_u8(e.flow.proto);
    w.put_f64(e.flow.rate_mbps);
    w.put_usize(e.flow.ingress.0);
    w.put_usize(e.flow.egress.0);
}

fn decode_flow_event(r: &mut ByteReader<'_>) -> Result<FlowEvent, DecodeError> {
    let time_secs = r.get_f64()?;
    let flow_id = r.get_u64()?;
    let kind = match r.get_u8()? {
        0 => FlowEventKind::Arrival,
        1 => FlowEventKind::Departure,
        tag => {
            return Err(DecodeError::BadTag {
                context: "flow-event kind",
                tag,
            })
        }
    };
    Ok(FlowEvent {
        time_secs,
        flow_id,
        kind,
        flow: Flow {
            src_ip: r.get_u32()?,
            dst_ip: r.get_u32()?,
            src_port: r.get_u16()?,
            dst_port: r.get_u16()?,
            proto: r.get_u8()?,
            rate_mbps: r.get_f64()?,
            ingress: NodeId(r.get_usize()?),
            egress: NodeId(r.get_usize()?),
        },
    })
}

/// A fleet entry is 9 bytes: the switch as a `u32` (node ids are dense
/// topology indices), the NF tag and the instance count.
fn encode_answer(w: &mut ByteWriter, answer: &ResolveAnswer) {
    match answer {
        ResolveAnswer::Failed => w.put_u8(0),
        ResolveAnswer::Fleet(fleet) => {
            w.put_u8(1);
            w.put_u32(u32::try_from(fleet.len()).expect("fleet entries fit in u32"));
            for &(node, nf, count) in fleet {
                w.put_u32(u32::try_from(node.0).expect("node ids fit in u32"));
                w.put_u8(nf_to_u8(nf));
                w.put_u32(count);
            }
        }
    }
}

fn decode_answer(r: &mut ByteReader<'_>) -> Result<ResolveAnswer, DecodeError> {
    match r.get_u8()? {
        0 => Ok(ResolveAnswer::Failed),
        1 => {
            let n = r.get_u32()?;
            // No preallocation from the untrusted count: a short payload
            // fails on its first missing entry instead.
            let mut fleet = Vec::new();
            for _ in 0..n {
                fleet.push((
                    NodeId(r.get_u32()? as usize),
                    nf_from_u8(r.get_u8()?)?,
                    r.get_u32()?,
                ));
            }
            Ok(ResolveAnswer::Fleet(fleet))
        }
        tag => Err(DecodeError::BadTag {
            context: "resolve answer",
            tag,
        }),
    }
}

impl Record {
    /// Serialise to a journal payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u8(RECORD_VERSION);
        match self {
            Record::StepIntent { seq, event } => {
                w.put_u8(TAG_STEP_INTENT);
                w.put_u64(*seq);
                encode_flow_event(&mut w, event);
            }
            Record::StepCommit { seq } => {
                w.put_u8(TAG_STEP_COMMIT);
                w.put_u64(*seq);
            }
            Record::CrashIntent { seq, instance } => {
                w.put_u8(TAG_CRASH_INTENT);
                w.put_u64(*seq);
                w.put_u64(instance.0);
            }
            Record::CrashCommit { seq } => {
                w.put_u8(TAG_CRASH_COMMIT);
                w.put_u64(*seq);
            }
            Record::Barrier { seq, index } => {
                w.put_u8(TAG_BARRIER);
                w.put_u64(*seq);
                w.put_u64(*index);
            }
            Record::BarrierAck { seq, index } => {
                w.put_u8(TAG_BARRIER_ACK);
                w.put_u64(*seq);
                w.put_u64(*index);
            }
            Record::Resolve { seq, answer } => {
                w.put_u8(TAG_RESOLVE);
                w.put_u64(*seq);
                encode_answer(&mut w, answer);
            }
        }
        w.into_bytes()
    }

    /// Decode a journal payload.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on version skew, unknown tags, or truncation.
    pub fn decode(bytes: &[u8]) -> Result<Record, DecodeError> {
        let mut r = ByteReader::new(bytes);
        let version = r.get_u8()?;
        if version != RECORD_VERSION {
            return Err(DecodeError::BadVersion {
                context: "journal record",
                version,
            });
        }
        let tag = r.get_u8()?;
        let rec = match tag {
            TAG_STEP_INTENT => {
                let seq = r.get_u64()?;
                let event = decode_flow_event(&mut r)?;
                Record::StepIntent { seq, event }
            }
            TAG_STEP_COMMIT => Record::StepCommit { seq: r.get_u64()? },
            TAG_CRASH_INTENT => Record::CrashIntent {
                seq: r.get_u64()?,
                instance: InstanceId(r.get_u64()?),
            },
            TAG_CRASH_COMMIT => Record::CrashCommit { seq: r.get_u64()? },
            TAG_BARRIER => Record::Barrier {
                seq: r.get_u64()?,
                index: r.get_u64()?,
            },
            TAG_BARRIER_ACK => Record::BarrierAck {
                seq: r.get_u64()?,
                index: r.get_u64()?,
            },
            TAG_RESOLVE => Record::Resolve {
                seq: r.get_u64()?,
                answer: decode_answer(&mut r)?,
            },
            tag => {
                return Err(DecodeError::BadTag {
                    context: "journal record",
                    tag,
                })
            }
        };
        if !r.is_done() {
            return Err(DecodeError::Invariant("trailing bytes after record"));
        }
        Ok(rec)
    }

    /// The intent sequence number the record belongs to.
    pub fn seq(&self) -> u64 {
        match self {
            Record::StepIntent { seq, .. }
            | Record::StepCommit { seq }
            | Record::CrashIntent { seq, .. }
            | Record::CrashCommit { seq }
            | Record::Barrier { seq, .. }
            | Record::BarrierAck { seq, .. }
            | Record::Resolve { seq, .. } => *seq,
        }
    }
}

fn nf_to_u8(nf: NfType) -> u8 {
    match nf {
        NfType::Firewall => 0,
        NfType::Proxy => 1,
        NfType::Nat => 2,
        NfType::Ids => 3,
    }
}

fn nf_from_u8(tag: u8) -> Result<NfType, DecodeError> {
    Ok(match tag {
        0 => NfType::Firewall,
        1 => NfType::Proxy,
        2 => NfType::Nat,
        3 => NfType::Ids,
        tag => {
            return Err(DecodeError::BadTag {
                context: "nf type",
                tag,
            })
        }
    })
}

fn encode_class(w: &mut ByteWriter, c: &EquivalenceClass) {
    w.put_usize(c.id.0);
    w.put_usize(c.path.nodes().len());
    for n in c.path.nodes() {
        w.put_usize(n.0);
    }
    w.put_usize(c.chain.nfs().len());
    for &nf in c.chain.nfs() {
        w.put_u8(nf_to_u8(nf));
    }
    w.put_f64(c.rate_mbps);
    w.put_u32(c.src_prefix.0);
    w.put_u8(c.src_prefix.1);
    w.put_u32(c.dst_prefix.0);
    w.put_u8(c.dst_prefix.1);
    match c.proto {
        Some(p) => {
            w.put_bool(true);
            w.put_u8(p);
        }
        None => w.put_bool(false),
    }
    w.put_usize(c.dst_ports.len());
    for &p in &c.dst_ports {
        w.put_u16(p);
    }
}

fn decode_class(r: &mut ByteReader<'_>) -> Result<EquivalenceClass, DecodeError> {
    let id = crate::classes::ClassId(r.get_usize()?);
    let n_nodes = r.get_usize()?;
    let mut nodes = Vec::with_capacity(n_nodes);
    for _ in 0..n_nodes {
        nodes.push(NodeId(r.get_usize()?));
    }
    let path = Path::new(nodes).map_err(|_| DecodeError::Invariant("invalid path in snapshot"))?;
    let n_nfs = r.get_usize()?;
    let mut nfs = Vec::with_capacity(n_nfs);
    for _ in 0..n_nfs {
        nfs.push(nf_from_u8(r.get_u8()?)?);
    }
    let chain =
        PolicyChain::new(nfs).map_err(|_| DecodeError::Invariant("invalid chain in snapshot"))?;
    let rate_mbps = r.get_f64()?;
    let src_prefix = (r.get_u32()?, r.get_u8()?);
    let dst_prefix = (r.get_u32()?, r.get_u8()?);
    let proto = if r.get_bool()? {
        Some(r.get_u8()?)
    } else {
        None
    };
    let n_ports = r.get_usize()?;
    let mut dst_ports = Vec::with_capacity(n_ports);
    for _ in 0..n_ports {
        dst_ports.push(r.get_u16()?);
    }
    Ok(EquivalenceClass {
        id,
        path,
        chain,
        rate_mbps,
        src_prefix,
        dst_prefix,
        proto,
        dst_ports,
    })
}

fn encode_key(w: &mut ByteWriter, key: &LiveKey) {
    w.put_usize(key.0 .0 .0);
    w.put_usize(key.0 .1 .0);
    w.put_usize(key.1);
}

fn decode_key(r: &mut ByteReader<'_>) -> Result<LiveKey, DecodeError> {
    Ok((
        (NodeId(r.get_usize()?), NodeId(r.get_usize()?)),
        r.get_usize()?,
    ))
}

fn encode_decision(w: &mut ByteWriter, d: &OnlineDecision) {
    w.put_usize(d.stage_instances.len());
    for id in &d.stage_instances {
        w.put_u64(id.0);
    }
    w.put_usize(d.launched.len());
    for id in &d.launched {
        w.put_u64(id.0);
    }
    w.put_usize(d.stage_positions.len());
    for &p in &d.stage_positions {
        w.put_usize(p);
    }
}

fn decode_decision(r: &mut ByteReader<'_>) -> Result<OnlineDecision, DecodeError> {
    let n = r.get_usize()?;
    let mut stage_instances = Vec::with_capacity(n);
    for _ in 0..n {
        stage_instances.push(InstanceId(r.get_u64()?));
    }
    let n = r.get_usize()?;
    let mut launched = Vec::with_capacity(n);
    for _ in 0..n {
        launched.push(InstanceId(r.get_u64()?));
    }
    let n = r.get_usize()?;
    let mut stage_positions = Vec::with_capacity(n);
    for _ in 0..n {
        stage_positions.push(r.get_usize()?);
    }
    Ok(OnlineDecision {
        stage_instances,
        launched,
        stage_positions,
    })
}

/// Canonical encoding of an [`OrchestrationLoop`]'s logical state — the
/// snapshot payload, and also the byte string two loops are compared by
/// (the chaos battery asserts a recovered loop equals its never-crashed
/// twin bitwise). Deliberately excluded, because they are *derived* or
/// *inert* state re-established deterministically:
///
/// * the compiled rule program (recompiled from the serving state),
/// * the replanner's warm cache (a pure accelerator),
/// * control-op RNG positions (only observable under injected faults,
///   which the journaled controller runs without),
/// * cached-but-empty pair entries in the class aggregate (unobservable
///   through any query; routing re-derives on first touch).
pub fn encode_state(l: &OrchestrationLoop) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u8(SNAPSHOT_VERSION);
    w.put_u64(l.events_seen);
    w.put_bool(l.sync_pending());
    let (hosts, instances, next_id) = l.orch.snapshot_parts();
    w.put_usize(hosts.len());
    for (&switch, host) in hosts {
        w.put_usize(switch);
        w.put_u32(host.capacity.cores);
        w.put_u32(host.capacity.memory_mib);
        w.put_bool(host.up);
    }
    w.put_usize(instances.len());
    for (id, inst) in instances {
        w.put_u64(id.0);
        w.put_u8(nf_to_u8(inst.nf()));
        w.put_usize(inst.host_switch());
    }
    w.put_u64(next_id);
    w.put_usize(l.placer.loads().len());
    for (id, &load) in l.placer.loads() {
        w.put_u64(id.0);
        w.put_f64(load);
    }
    w.put_usize(l.live.len());
    for (key, lc) in l.live.iter() {
        encode_key(&mut w, key);
        encode_class(&mut w, &lc.class);
        encode_decision(&mut w, &lc.decision);
    }
    w.put_usize(l.rejected.len());
    for (key, class) in &l.rejected {
        encode_key(&mut w, key);
        encode_class(&mut w, class);
    }
    // What the data plane holds per live key as of the last sync: the tag,
    // then the decision it was lowered for.
    let lowered = l.lowered.specs();
    w.put_usize(lowered.len());
    for (key, spec) in lowered {
        encode_key(&mut w, key);
        w.put_u16(spec.tag);
    }
    w.put_usize(lowered.len());
    for (key, spec) in lowered {
        encode_key(&mut w, key);
        w.put_usize(spec.stage_positions.len());
        for &p in &spec.stage_positions {
            w.put_usize(p);
        }
        w.put_usize(spec.instances.len());
        for id in &spec.instances {
            w.put_u64(id.0);
        }
    }
    let pairs: Vec<_> = l.inc.live_pair_flows().collect();
    w.put_usize(pairs.len());
    for (&(src, dst), flows) in pairs {
        w.put_usize(src.0);
        w.put_usize(dst.0);
        w.put_usize(flows.len());
        for (&fid, &rate) in flows {
            w.put_u64(fid);
            w.put_f64(rate);
        }
    }
    w.into_bytes()
}

/// CRC-32 of [`encode_state`] — a compact fingerprint for logs and the
/// `apple recover` CLI.
pub fn state_digest(l: &OrchestrationLoop) -> u32 {
    crc32(&encode_state(l))
}

/// Rebuilds a loop from a snapshot payload over `setup`'s topology and
/// config. The compiled rule program is recomputed from the restored
/// per-key tags and decisions (snapshots are only taken at sync points, so
/// the recompile equals what was installed). A snapshot that says a sync
/// was pending can only date from before the first one, so it restores
/// with nothing installed.
fn decode_state(setup: &RecoverySetup, bytes: &[u8]) -> Result<OrchestrationLoop, RecoveryError> {
    let mut r = ByteReader::new(bytes);
    let version = r.get_u8()?;
    if version != SNAPSHOT_VERSION {
        return Err(RecoveryError::Codec(DecodeError::BadVersion {
            context: "loop snapshot",
            version,
        }));
    }
    let events_seen = r.get_u64()?;
    let dp_dirty = r.get_bool()?;
    let n_hosts = r.get_usize()?;
    let mut hosts = BTreeMap::new();
    for _ in 0..n_hosts {
        let switch = r.get_usize()?;
        let cores = r.get_u32()?;
        let memory_mib = r.get_u32()?;
        let up = r.get_bool()?;
        hosts.insert(
            switch,
            Host {
                switch: NodeId(switch),
                capacity: ResourceVector::new(cores, memory_mib),
                used: ResourceVector::zero(),
                up,
            },
        );
    }
    let n_instances = r.get_usize()?;
    let mut instances = BTreeMap::new();
    for _ in 0..n_instances {
        let id = InstanceId(r.get_u64()?);
        let nf = nf_from_u8(r.get_u8()?)?;
        let host_switch = r.get_usize()?;
        instances.insert(id, VnfInstance::new(id, nf, host_switch));
    }
    let next_id = r.get_u64()?;
    let orch = ResourceOrchestrator::from_parts(hosts, instances, next_id);

    let cfg = setup.cfg.clone();
    let ops = ControlOps::reliable(cfg.seed);
    let mut looper = OrchestrationLoop::with_ops(&setup.topo, orch, cfg, ops);
    looper.events_seen = events_seen;

    let n_loads = r.get_usize()?;
    for _ in 0..n_loads {
        let id = InstanceId(r.get_u64()?);
        let load = r.get_f64()?;
        looper.placer.adjust(id, load);
    }
    let n_live = r.get_usize()?;
    for _ in 0..n_live {
        let key = decode_key(&mut r)?;
        let class = decode_class(&mut r)?;
        let decision = decode_decision(&mut r)?;
        looper.live.insert(key, LiveClass { class, decision });
    }
    let n_rejected = r.get_usize()?;
    for _ in 0..n_rejected {
        let key = decode_key(&mut r)?;
        let class = decode_class(&mut r)?;
        looper.rejected.insert(key, class);
    }
    let n_tags = r.get_usize()?;
    let mut tags = BTreeMap::new();
    for _ in 0..n_tags {
        let key = decode_key(&mut r)?;
        let tag = r.get_u16()?;
        tags.insert(key, tag);
    }
    let n_decisions = r.get_usize()?;
    let mut decisions = BTreeMap::new();
    for _ in 0..n_decisions {
        let key = decode_key(&mut r)?;
        let n = r.get_usize()?;
        let mut positions = Vec::with_capacity(n);
        for _ in 0..n {
            positions.push(r.get_usize()?);
        }
        let n = r.get_usize()?;
        let mut ids = Vec::with_capacity(n);
        for _ in 0..n {
            ids.push(InstanceId(r.get_u64()?));
        }
        decisions.insert(key, (positions, ids));
    }
    let n_pairs = r.get_usize()?;
    for _ in 0..n_pairs {
        let pair = (NodeId(r.get_usize()?), NodeId(r.get_usize()?));
        let n_flows = r.get_usize()?;
        let mut flows = BTreeMap::new();
        for _ in 0..n_flows {
            let fid = r.get_u64()?;
            let rate = r.get_f64()?;
            flows.insert(fid, rate);
        }
        looper.inc.restore_pair_flows(pair, flows);
    }
    if !r.is_done() {
        return Err(RecoveryError::Codec(DecodeError::Invariant(
            "trailing bytes after snapshot",
        )));
    }
    if !dp_dirty {
        looper.restore_dataplane(&tags, decisions);
    }
    Ok(looper)
}

/// The simulated switch fabric: the rule state that survives a controller
/// crash. The journaled controller mirrors every barrier here; a recovery
/// harness keeps the handle outside the unwind boundary and hands it to
/// [`reconcile`] afterwards.
#[derive(Debug, Clone, Default)]
pub struct SharedFabric(Rc<RefCell<RuleProgram>>);

impl SharedFabric {
    /// An empty fabric (no rules installed anywhere).
    pub fn new() -> Self {
        Self::default()
    }

    /// A copy of the installed rule program.
    pub fn program(&self) -> RuleProgram {
        self.0.borrow().clone()
    }

    /// Mutate the fabric in place (barrier mirroring, repair, test setup).
    pub fn with_mut<R>(&self, f: impl FnOnce(&mut RuleProgram) -> R) -> R {
        f(&mut self.0.borrow_mut())
    }
}

/// Durability knobs for [`JournaledLoop`].
#[derive(Debug, Clone, Copy)]
pub struct RecoveryConfig {
    /// Intents between snapshots (0 = journal only, never snapshot).
    pub snapshot_every: u64,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig { snapshot_every: 64 }
    }
}

/// Everything needed to build (or rebuild) a journaled controller: the
/// world it runs in plus its durability settings. Recovery re-derives all
/// non-journaled state from these, so they must match the crashed run's.
#[derive(Debug, Clone)]
pub struct RecoverySetup {
    /// The network.
    pub topo: Topology,
    /// Loop configuration.
    pub cfg: OnlineConfig,
    /// Durability settings.
    pub recovery: RecoveryConfig,
    /// Cores per host for the initial orchestrator.
    pub host_cores: u32,
}

/// Append `payload`, consulting the crash clock first: a clean kill dies
/// before any byte reaches the store, a torn kill persists a seeded
/// partial frame, then dies.
fn append_with_crash<S: JournalStore>(
    journal: &mut Journal<S>,
    crash: &CrashPoint,
    payload: &[u8],
) -> Result<(), JournalError> {
    let frame_len = payload.len() + apple_journal::FRAME_HEADER_BYTES;
    match crash.on_site(CrashSite::JournalAppend, frame_len) {
        CrashAction::Continue => journal.append(payload),
        CrashAction::Kill { ordinal, torn_keep } => {
            if let Some(keep) = torn_keep {
                let _ = journal.append_torn(payload, keep);
            }
            crashpoint::kill(CrashSite::JournalAppend, ordinal)
        }
    }
}

/// An [`OrchestrationLoop`] wrapped in write-ahead journaling: intent
/// records before side effects, commit records after, periodic snapshots,
/// and per-barrier fabric mirroring. Built fresh via [`JournaledLoop::new`]
/// or from a crashed store via [`recover`].
#[derive(Debug)]
pub struct JournaledLoop<S: JournalStore> {
    inner: OrchestrationLoop,
    journal: Journal<S>,
    fabric: SharedFabric,
    crash: CrashPoint,
    seq: u64,
    /// Ordinal of the next [`Record::Barrier`] within this journaled run.
    barrier_index: u64,
    snapshot_every: u64,
}

impl<S: JournalStore> JournaledLoop<S> {
    /// A fresh journaled controller over an empty (or about-to-be-ignored)
    /// store. Use [`recover`] instead when the store may hold history.
    pub fn new(setup: &RecoverySetup, store: S, fabric: SharedFabric, crash: CrashPoint) -> Self {
        let orch = ResourceOrchestrator::with_uniform_hosts(&setup.topo, setup.host_cores);
        let inner = OrchestrationLoop::new(&setup.topo, orch, setup.cfg.clone());
        Self::wrap(
            inner,
            store,
            fabric,
            crash,
            setup.recovery.snapshot_every,
            0,
        )
    }

    fn wrap(
        inner: OrchestrationLoop,
        store: S,
        fabric: SharedFabric,
        crash: CrashPoint,
        snapshot_every: u64,
        seq: u64,
    ) -> Self {
        JournaledLoop {
            inner,
            journal: Journal::new(store),
            fabric,
            crash,
            seq,
            barrier_index: 0,
            snapshot_every,
        }
    }

    /// Journal an intent, apply one timeline event, journal the engine's
    /// answer when the step re-solved ([`Record::Resolve`]), mirror the
    /// barriers it committed, journal the commit, and snapshot when the
    /// period elapses.
    ///
    /// # Errors
    ///
    /// [`RecoveryError::Journal`] when the store rejects an append or
    /// snapshot write. (An injected crash does not return — it panics with
    /// a [`apple_faults::ControllerKill`] payload for the harness.)
    pub fn step(
        &mut self,
        event: &FlowEvent,
        rec: &dyn Recorder,
    ) -> Result<StepReport, RecoveryError> {
        let before = self.journal.stats();
        self.seq += 1;
        let seq = self.seq;
        let intent = Record::StepIntent {
            seq,
            event: event.clone(),
        };
        append_with_crash(&mut self.journal, &self.crash, &intent.encode())?;
        let report = self.inner.step(event, rec);
        if let Some(answer) = self.inner.resolve_answer() {
            let resolve = Record::Resolve {
                seq,
                answer: answer.clone(),
            };
            append_with_crash(&mut self.journal, &self.crash, &resolve.encode())?;
        }
        self.mirror_committed(rec)?;
        append_with_crash(
            &mut self.journal,
            &self.crash,
            &Record::StepCommit { seq }.encode(),
        )?;
        self.maybe_snapshot(seq)?;
        self.emit_journal_counters(before, rec);
        Ok(report)
    }

    /// Journal and apply an out-of-band instance crash (the failover
    /// path's analogue of [`Self::step`]). Returns the number of affected
    /// classes.
    ///
    /// # Errors
    ///
    /// [`RecoveryError::Journal`] as for [`Self::step`].
    pub fn crash_instance(
        &mut self,
        id: InstanceId,
        rec: &dyn Recorder,
    ) -> Result<usize, RecoveryError> {
        let before = self.journal.stats();
        self.seq += 1;
        let seq = self.seq;
        let intent = Record::CrashIntent { seq, instance: id };
        append_with_crash(&mut self.journal, &self.crash, &intent.encode())?;
        let affected = self.inner.handle_instance_crash(id, rec);
        self.mirror_committed(rec)?;
        append_with_crash(
            &mut self.journal,
            &self.crash,
            &Record::CrashCommit { seq }.encode(),
        )?;
        self.maybe_snapshot(seq)?;
        self.emit_journal_counters(before, rec);
        Ok(affected)
    }

    /// Journals and mirrors, in commit order, every barrier the wrapped
    /// loop's last action committed: a [`Record::Barrier`] (the submit),
    /// the fabric mutation, then the matching [`Record::BarrierAck`] — with
    /// a crash site on either side of the mutation
    /// ([`CrashSite::DataplaneBarrier`] between submit record and apply,
    /// [`CrashSite::SouthboundAck`] between apply and ack record). A kill
    /// at the ack site leaves the journal's partially-acked tail: the
    /// fabric holds a batch whose ack was never made durable.
    ///
    /// A store failure stops the mirror at the failing barrier, leaving the
    /// fabric at a prefix of the plan — the state [`reconcile`] repairs.
    /// Barrier and ack records are diagnostics, not redo state, so a lost
    /// one never compromises recovery.
    fn mirror_committed(&mut self, rec: &dyn Recorder) -> Result<(), RecoveryError> {
        let _m = rec.span("recovery.mirror");
        for batch in self.inner.committed().batches() {
            let (seq, index) = (self.seq, self.barrier_index);
            self.barrier_index += 1;
            let submit = Record::Barrier { seq, index };
            append_with_crash(&mut self.journal, &self.crash, &submit.encode())?;
            // Ops on the wire, install unconfirmed: submit record ahead of
            // the fabric.
            if let CrashAction::Kill { ordinal, .. } =
                self.crash.on_site(CrashSite::DataplaneBarrier, 0)
            {
                crashpoint::kill(CrashSite::DataplaneBarrier, ordinal);
            }
            self.fabric
                .with_mut(|p| apple_dataplane::diff::apply_batch_unchecked(p, batch));
            // Installed but un-acked: fabric ahead of the journal — the
            // partially-acked tail reconcile must repair.
            if let CrashAction::Kill { ordinal, .. } =
                self.crash.on_site(CrashSite::SouthboundAck, 0)
            {
                crashpoint::kill(CrashSite::SouthboundAck, ordinal);
            }
            let ack = Record::BarrierAck { seq, index };
            append_with_crash(&mut self.journal, &self.crash, &ack.encode())?;
        }
        Ok(())
    }

    fn maybe_snapshot(&mut self, seq: u64) -> Result<(), RecoveryError> {
        if self.snapshot_every == 0 || !seq.is_multiple_of(self.snapshot_every) {
            return Ok(());
        }
        if let CrashAction::Kill { ordinal, .. } = self.crash.on_site(CrashSite::SnapshotWrite, 0) {
            crashpoint::kill(CrashSite::SnapshotWrite, ordinal);
        }
        let payload = encode_state(&self.inner);
        self.journal.put_snapshot(seq, &payload)?;
        Ok(())
    }

    fn emit_journal_counters(&self, before: JournalStats, rec: &dyn Recorder) {
        let after = self.journal.stats();
        rec.counter("journal.records", after.appends - before.appends);
        rec.counter("journal.bytes", after.bytes - before.bytes);
        if after.snapshots > before.snapshots {
            rec.counter("journal.snapshots", after.snapshots - before.snapshots);
        }
    }

    /// The wrapped loop (read-only: mutating it outside [`Self::step`]
    /// would bypass the journal).
    pub fn inner(&self) -> &OrchestrationLoop {
        &self.inner
    }

    /// The shared switch fabric this controller mirrors barriers onto.
    pub fn fabric(&self) -> &SharedFabric {
        &self.fabric
    }

    /// The highest intent sequence number issued so far.
    pub fn seq(&self) -> u64 {
        self.seq
    }
}

/// What [`recover`] found and did.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Sequence of the snapshot recovery started from (None = genesis).
    pub snapshot_seq: Option<u64>,
    /// Valid records scanned from the journal (all of them, including the
    /// prefix covered by the snapshot).
    pub records_scanned: u64,
    /// Intent records actually replayed on top of the snapshot.
    pub records_replayed: u64,
    /// Replayed re-solves that applied their journaled engine answer
    /// ([`Record::Resolve`]) instead of solving.
    pub resolves_logged: u64,
    /// Replayed re-solves whose answer the journal lacks (a crash between
    /// the step and its append, or a journal written before answers were
    /// logged), so the engine ran again.
    pub resolves_reexecuted: u64,
    /// Bytes of torn tail truncated (0 = clean shutdown or clean kill).
    pub torn_truncated_bytes: u64,
    /// Barrier submit records with no matching ack record — the length of
    /// the journal's partially-acked southbound tail. Nonzero means the
    /// crashed run died between submitting a batch and making its ack
    /// durable, so the fabric may be ahead of the last acked barrier and
    /// [`reconcile`] has repair work to do.
    pub unacked_barriers: u64,
    /// The compiler context of the recovered state *before* the final
    /// replayed intent — the "old" side for repair conformance (stale
    /// fabric rules can date from exactly one sync before the crash).
    pub prev_ctx: CompilerSnapshot,
    /// The compiler context of the fully recovered state (the "new" side).
    pub intended_ctx: CompilerSnapshot,
}

/// Recover a controller from `store`: truncate any torn journal tail, load
/// the newest snapshot that validates (falling back to older ones), replay
/// the intent suffix, and hand back a journaled loop ready to continue on
/// the same store — plus the [`RecoveryReport`] reconciliation needs.
///
/// Replay steps the bare loop and mirrors nothing: the fabric already
/// holds whatever the crashed run installed, and [`reconcile`] repairs it
/// by diffing, not by re-executing barriers. A replayed step that
/// re-solves applies its journaled [`Record::Resolve`] answer in place of
/// the engine; only a re-solve with no such record runs the engine again.
///
/// Telemetry: `recovery.torn_truncated` (bytes), `recovery.records_replayed`,
/// `recovery.snapshot_used`, `recovery.resolves_logged`,
/// `recovery.resolves_reexecuted`.
///
/// # Errors
///
/// [`RecoveryError::Journal`] on store failures, [`RecoveryError::Codec`]
/// when a CRC-valid record or snapshot fails structural decoding,
/// [`RecoveryError::State`] when a [`Record::Resolve`] does not follow the
/// intent of its `seq`, or answers a step that does not re-solve.
pub fn recover<S: JournalStore>(
    setup: &RecoverySetup,
    mut store: S,
    fabric: SharedFabric,
    rec: &dyn Recorder,
) -> Result<(JournaledLoop<S>, RecoveryReport), RecoveryError> {
    let scanned = Journal::recover(&mut store)?;
    rec.counter("recovery.torn_truncated", scanned.truncated_bytes);
    let mut records = Vec::with_capacity(scanned.records.len());
    for payload in &scanned.records {
        records.push(Record::decode(payload)?);
    }
    let records_scanned = records.len() as u64;

    let snapshot = Journal::latest_snapshot(&store, None)?;
    let (mut inner, start_seq, snapshot_seq) = match snapshot {
        Some((seq, payload)) => {
            rec.counter("recovery.snapshot_used", 1);
            (decode_state(setup, &payload)?, seq, Some(seq))
        }
        None => {
            let orch = ResourceOrchestrator::with_uniform_hosts(&setup.topo, setup.host_cores);
            let looper = OrchestrationLoop::new(&setup.topo, orch, setup.cfg.clone());
            (looper, 0, None)
        }
    };

    // Intents past the snapshot, in journal order, each step with the
    // engine answer its re-solve logged. Commits and barriers are
    // diagnostics.
    enum Intent {
        Step(FlowEvent, Option<ResolveAnswer>),
        Crash(InstanceId),
    }
    let mut last_seq = start_seq;
    let mut intents = Vec::new();
    let (mut barriers_submitted, mut barriers_acked) = (0u64, 0u64);
    for record in records {
        last_seq = last_seq.max(record.seq());
        match record {
            Record::StepIntent { seq, event } if seq > start_seq => {
                intents.push((seq, Intent::Step(event, None)));
            }
            Record::CrashIntent { seq, instance } if seq > start_seq => {
                intents.push((seq, Intent::Crash(instance)));
            }
            Record::Resolve { seq, answer } if seq > start_seq => match intents.last_mut() {
                Some((step, Intent::Step(_, logged @ None))) if *step == seq => {
                    *logged = Some(answer);
                }
                _ => return Err(RecoveryError::State("resolve record without its step")),
            },
            Record::Barrier { .. } => barriers_submitted += 1,
            Record::BarrierAck { .. } => barriers_acked += 1,
            _ => {}
        }
    }

    let mut prev_ctx = None;
    let n = intents.len();
    let (mut resolves_logged, mut resolves_reexecuted) = (0u64, 0u64);
    for (i, (_, intent)) in intents.into_iter().enumerate() {
        if i + 1 == n {
            prev_ctx = Some(inner.serving_snapshot());
        }
        match intent {
            Intent::Step(event, None) => {
                inner.step(&event, rec);
                resolves_reexecuted += u64::from(inner.resolve_answer().is_some());
            }
            Intent::Step(event, logged) => {
                inner.step_with(&event, logged, rec);
                if inner.resolve_answer().is_none() {
                    return Err(RecoveryError::State(
                        "resolve record for a step that does not re-solve",
                    ));
                }
                resolves_logged += 1;
            }
            Intent::Crash(id) => {
                inner.handle_instance_crash(id, rec);
            }
        }
    }
    // A recovery from snapshot-only (no replayed intents) still needs an
    // "old" context: the snapshot state itself.
    let prev_ctx = prev_ctx.unwrap_or_else(|| inner.serving_snapshot());
    rec.counter("recovery.records_replayed", n as u64);
    rec.counter("recovery.resolves_logged", resolves_logged);
    rec.counter("recovery.resolves_reexecuted", resolves_reexecuted);

    let report = RecoveryReport {
        snapshot_seq,
        records_scanned,
        records_replayed: n as u64,
        resolves_logged,
        resolves_reexecuted,
        torn_truncated_bytes: scanned.truncated_bytes,
        unacked_barriers: barriers_submitted.saturating_sub(barriers_acked),
        prev_ctx,
        intended_ctx: inner.serving_snapshot(),
    };
    let looper = JournaledLoop::wrap(
        inner,
        store,
        fabric,
        CrashPoint::never(),
        setup.recovery.snapshot_every,
        last_seq,
    );
    Ok((looper, report))
}

/// What [`reconcile`] found and repaired.
#[derive(Debug, Clone)]
pub struct ReconcileReport {
    /// The fabric's rule program before repair (the "installed" state the
    /// conformance battery probes against).
    pub pre_repair_fabric: RuleProgram,
    /// The recompiled intended program the fabric now matches.
    pub intended: RuleProgram,
    /// True when the fabric already matched the intent (no repair needed).
    pub was_clean: bool,
    /// Barriers in the repair plan.
    pub batches: usize,
    /// Rule operations (installs + modifies + removes) the repair billed.
    pub rule_ops: u64,
}

/// Reconcile the surviving switch fabric with a recovered controller's
/// intended rule program: diff and repair through the same five-phase
/// make-before-break planner every live sync uses, so the repair itself
/// preserves per-packet consistency. The recovered loop's mirrored fabric
/// is updated in place.
///
/// Telemetry: `recovery.reconcile_repairs` counts repaired (non-clean)
/// reconciliations, `recovery.reconcile_rule_ops` the operations billed.
pub fn reconcile<S: JournalStore>(
    looper: &JournaledLoop<S>,
    rec: &dyn Recorder,
) -> ReconcileReport {
    let intended = looper.inner.dataplane_program().clone();
    let pre_repair_fabric = looper.fabric.program();
    let plan = apple_dataplane::diff::diff_recorded(&pre_repair_fabric, &intended, rec);
    let was_clean = plan.batches().is_empty();
    let stats = looper.fabric.with_mut(|p| plan.apply_unchecked(p));
    if !was_clean {
        rec.counter("recovery.reconcile_repairs", 1);
        rec.counter("recovery.reconcile_rule_ops", stats.total() as u64);
    }
    debug_assert_eq!(looper.fabric.program(), intended, "repair must converge");
    ReconcileReport {
        pre_repair_fabric,
        intended,
        was_clean,
        batches: plan.batches().len(),
        rule_ops: stats.total() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apple_journal::SharedMemStore;
    use apple_telemetry::NOOP;
    use apple_topology::zoo;
    use apple_traffic::arrivals::{ArrivalConfig, EventTimeline};

    fn setup() -> RecoverySetup {
        RecoverySetup {
            topo: zoo::internet2(),
            cfg: OnlineConfig {
                resolve_every: 25,
                ..Default::default()
            },
            recovery: RecoveryConfig { snapshot_every: 16 },
            host_cores: 64,
        }
    }

    fn timeline() -> EventTimeline {
        let pairs = vec![
            (NodeId(0), NodeId(5)),
            (NodeId(2), NodeId(6)),
            (NodeId(1), NodeId(7)),
        ];
        EventTimeline::generate(&pairs, &ArrivalConfig::default(), 40.0)
    }

    #[test]
    fn record_codec_round_trips() {
        let event = timeline().events()[0].clone();
        let records = vec![
            Record::StepIntent { seq: 7, event },
            Record::StepCommit { seq: 7 },
            Record::CrashIntent {
                seq: 8,
                instance: InstanceId(42),
            },
            Record::CrashCommit { seq: 8 },
            Record::Barrier { seq: 8, index: 3 },
            Record::BarrierAck { seq: 8, index: 3 },
            Record::Resolve {
                seq: 9,
                answer: ResolveAnswer::Failed,
            },
            Record::Resolve {
                seq: 10,
                answer: ResolveAnswer::Fleet(vec![
                    (NodeId(0), NfType::Firewall, 2),
                    (NodeId(7), NfType::Ids, 1),
                ]),
            },
        ];
        for r in records {
            let bytes = r.encode();
            assert_eq!(Record::decode(&bytes).unwrap(), r);
        }
        assert!(matches!(
            Record::decode(&[99, 1]),
            Err(DecodeError::BadVersion { .. })
        ));
    }

    #[test]
    fn snapshot_encode_decode_is_bitwise_stable() {
        let s = setup();
        let store = SharedMemStore::new();
        let fabric = SharedFabric::new();
        let mut jl = JournaledLoop::new(&s, store, fabric, CrashPoint::never());
        let tl = timeline();
        for e in tl.events().iter().take(40) {
            jl.step(e, &NOOP).unwrap();
        }
        let bytes = encode_state(jl.inner());
        let restored = decode_state(&s, &bytes).unwrap();
        assert_eq!(encode_state(&restored), bytes, "decode∘encode is identity");
        assert_eq!(state_digest(&restored), state_digest(jl.inner()));
        assert_eq!(
            restored.dataplane_program(),
            jl.inner().dataplane_program(),
            "recompiled program matches the installed mirror"
        );
    }

    #[test]
    fn clean_run_recovers_to_identical_state() {
        let s = setup();
        let tl = timeline();
        let store = SharedMemStore::new();
        let fabric = SharedFabric::new();
        let mut jl = JournaledLoop::new(&s, store.clone(), fabric.clone(), CrashPoint::never());
        for e in tl.events() {
            jl.step(e, &NOOP).unwrap();
        }
        let want = encode_state(jl.inner());
        drop(jl);
        let (recovered, report) = recover(&s, store, fabric, &NOOP).unwrap();
        assert_eq!(report.torn_truncated_bytes, 0);
        assert_eq!(encode_state(recovered.inner()), want);
        let rr = reconcile(&recovered, &NOOP);
        assert!(rr.was_clean, "clean run needs no repair");
    }

    #[test]
    fn recovery_without_snapshots_replays_everything() {
        let s = RecoverySetup {
            recovery: RecoveryConfig { snapshot_every: 0 },
            ..setup()
        };
        let tl = timeline();
        let store = SharedMemStore::new();
        let fabric = SharedFabric::new();
        let mut jl = JournaledLoop::new(&s, store.clone(), fabric.clone(), CrashPoint::never());
        for e in tl.events().iter().take(60) {
            jl.step(e, &NOOP).unwrap();
        }
        let want = encode_state(jl.inner());
        drop(jl);
        let (recovered, report) = recover(&s, store, fabric, &NOOP).unwrap();
        assert_eq!(report.snapshot_seq, None);
        assert_eq!(report.records_replayed, 60);
        assert_eq!(encode_state(recovered.inner()), want);
    }

    #[test]
    fn fabric_mirrors_the_installed_program() {
        let s = setup();
        let tl = timeline();
        let store = SharedMemStore::new();
        let fabric = SharedFabric::new();
        let mut jl = JournaledLoop::new(&s, store, fabric.clone(), CrashPoint::never());
        for e in tl.events().iter().take(50) {
            jl.step(e, &NOOP).unwrap();
            assert_eq!(
                &fabric.program(),
                jl.inner().dataplane_program(),
                "fabric lags the controller by at most zero barriers at rest"
            );
        }
    }
}
