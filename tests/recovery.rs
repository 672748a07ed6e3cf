//! Crash-recovery chaos battery for the journaled controller
//! (DESIGN.md §11).
//!
//! The battery enumerates every durability site a seeded timeline visits
//! — journal appends, snapshot writes, data-plane barrier submissions,
//! and southbound barrier acks — and, for a
//! sampled set of ≥200 (timeline, crash-point) pairs, kills the
//! controller exactly there (alternating clean kills and torn-write
//! kills), then proves the full recovery contract:
//!
//! 1. `recover` truncates any torn tail, restores the newest snapshot,
//!    and redo-replays the intent suffix;
//! 2. `reconcile` repairs the surviving switch fabric up to the recovered
//!    intent through the make-before-break diff planner;
//! 3. the repair is interference-free per the packet-level
//!    `conformance` battery in repair mode (bitwise-old / bitwise-new /
//!    chain-consistent at every repair barrier);
//! 4. resuming the recovered controller over the remainder of the script
//!    converges **bitwise** to a never-crashed twin (canonical state
//!    encoding, floats compared by bit pattern), with a clean residual
//!    ledger and clean share verification;
//! 5. pinned fixture files freeze the journal and snapshot wire formats.

use std::panic::{catch_unwind, AssertUnwindSafe};

use apple_nfv::core::online::{OnlineConfig, OrchestrationLoop, ResolveAnswer};
use apple_nfv::core::orchestrator::ResourceOrchestrator;
use apple_nfv::core::recovery::{
    encode_state, reconcile, recover, state_digest, JournaledLoop, Record, RecoveryConfig,
    RecoveryError, RecoverySetup, SharedFabric,
};
use apple_nfv::core::verify::verify_shares;
use apple_nfv::dataplane::compiler::compile;
use apple_nfv::dataplane::diff::apply_batch_unchecked;
use apple_nfv::faults::crash::{install_quiet_kill_hook, kill_of};
use apple_nfv::faults::{CrashPoint, CrashSite};
use apple_nfv::journal::{Journal, JournalStore, MemStore, SharedMemStore, StoreError};
use apple_nfv::nf::{InstanceId, NfType};
use apple_nfv::sim::{conformance, Schedule};
use apple_nfv::telemetry::{MemoryRecorder, NOOP};
use apple_nfv::topology::{zoo, NodeId};
use apple_nfv::traffic::arrivals::{ArrivalConfig, EventTimeline, FlowEvent};

/// Base seed for this file (see tests/README.md).
const SEED: u64 = 0x4ec0_7e41;

/// Timelines in the sweep; each contributes an even sample of its crash
/// ordinals so the battery covers early, mid, and late crash points.
const TIMELINE_SEEDS: [u64; 4] = [SEED, SEED ^ 1, SEED ^ 2, SEED ^ 3];

/// Crash-point pairs sampled per timeline (4 × 55 = 220 ≥ 200).
const PAIRS_PER_TIMELINE: u64 = 55;

/// Inject a scripted instance crash before every 17th event (when any
/// instance is running) so recovery also covers the out-of-band
/// `CrashIntent` path.
const INSTANCE_CRASH_EVERY: usize = 17;

fn setup() -> RecoverySetup {
    RecoverySetup {
        topo: zoo::internet2(),
        cfg: OnlineConfig {
            resolve_every: 40,
            ..Default::default()
        },
        recovery: RecoveryConfig { snapshot_every: 24 },
        host_cores: 64,
    }
}

fn events(seed: u64) -> Vec<FlowEvent> {
    let pairs = vec![
        (NodeId(0), NodeId(5)),
        (NodeId(2), NodeId(6)),
        (NodeId(1), NodeId(7)),
    ];
    let cfg = ArrivalConfig {
        seed,
        ..ArrivalConfig::default()
    };
    EventTimeline::generate(&pairs, &cfg, 14.0)
        .events()
        .to_vec()
}

/// One scripted controller action. The script is frozen **before** any
/// journaled run (via a dry run), so the crashed run, the recovery
/// replay, the post-recovery resume, and the never-crashed twin all apply
/// byte-identical action sequences — each action is exactly one journal
/// intent, so `JournaledLoop::seq` is the resume cursor.
#[derive(Clone)]
enum Action {
    Step(FlowEvent),
    Crash(InstanceId),
}

fn build_script(s: &RecoverySetup, evs: &[FlowEvent]) -> Vec<Action> {
    let orch = ResourceOrchestrator::with_uniform_hosts(&s.topo, s.host_cores);
    let mut looper = OrchestrationLoop::new(&s.topo, orch, s.cfg.clone());
    let mut script = Vec::new();
    for (i, e) in evs.iter().enumerate() {
        if i > 0 && i % INSTANCE_CRASH_EVERY == 0 {
            if let Some(id) = looper.orchestrator().instances().map(|v| v.id()).min() {
                looper.handle_instance_crash(id, &NOOP);
                script.push(Action::Crash(id));
            }
        }
        looper.step(e, &NOOP);
        script.push(Action::Step(e.clone()));
    }
    script
}

/// Apply `script[from..]` to a journaled loop. Panics propagate (that is
/// the point: an injected kill unwinds out of here).
fn run_script<S: apple_nfv::journal::JournalStore + 'static>(
    jl: &mut JournaledLoop<S>,
    script: &[Action],
    from: usize,
) {
    for action in &script[from..] {
        match action {
            Action::Step(e) => {
                jl.step(e, &NOOP)
                    .expect("in-memory journal append cannot fail");
            }
            Action::Crash(id) => {
                jl.crash_instance(*id, &NOOP)
                    .expect("in-memory journal append cannot fail");
            }
        }
    }
}

/// Runs the full script uninterrupted and returns the twin's canonical
/// final state plus the number of durability sites the run visits.
fn twin_and_sites(s: &RecoverySetup, script: &[Action]) -> (Vec<u8>, u64) {
    let crash = CrashPoint::never();
    let mut twin = JournaledLoop::new(s, SharedMemStore::new(), SharedFabric::new(), crash.clone());
    run_script(&mut twin, script, 0);
    (encode_state(twin.inner()), crash.visited())
}

struct PairOutcome {
    site: CrashSite,
    torn_bytes: u64,
    replayed: u64,
    logged: u64,
    reexecuted: u64,
    repaired: bool,
    unacked: u64,
}

/// One (timeline, crash-point) pair: crash, recover, reconcile, prove
/// conformance, resume, and compare bitwise against the twin.
fn run_pair(
    s: &RecoverySetup,
    script: &[Action],
    twin_final: &[u8],
    ordinal: u64,
    torn: bool,
    label: &str,
) -> PairOutcome {
    let store = SharedMemStore::new();
    let fabric = SharedFabric::new();
    let crash = if torn {
        CrashPoint::at_torn(ordinal, SEED ^ ordinal)
    } else {
        CrashPoint::at(ordinal)
    };
    let caught = catch_unwind(AssertUnwindSafe(|| {
        let mut jl = JournaledLoop::new(s, store.clone(), fabric.clone(), crash);
        run_script(&mut jl, script, 0);
    }))
    .expect_err("crash point inside the visited range must fire");
    let kill = kill_of(caught.as_ref()).unwrap_or_else(|| panic!("{label}: panic was not a kill"));
    assert_eq!(kill.ordinal, ordinal, "{label}: wrong site fired");

    // The controller is gone; the store and fabric survived. Recover.
    let rec = MemoryRecorder::new();
    let (mut recovered, report) =
        recover(s, store, fabric.clone(), &rec).unwrap_or_else(|e| panic!("{label}: {e}"));
    assert!(
        !torn || kill.site != CrashSite::JournalAppend || report.torn_truncated_bytes > 0,
        "{label}: torn kill on an append must leave a truncatable tail"
    );
    assert!(
        !matches!(
            kill.site,
            CrashSite::DataplaneBarrier | CrashSite::SouthboundAck
        ) || report.unacked_barriers >= 1,
        "{label}: a kill between barrier submit and ack must leave an \
         unacked barrier in the journal"
    );

    // Reconcile the surviving fabric with the recovered intent, and prove
    // the repair interference-free at packet level.
    let rr = reconcile(&recovered, &rec);
    assert_eq!(
        &fabric.program(),
        recovered.inner().dataplane_program(),
        "{label}: fabric must match the recovered intent after repair"
    );
    let (prev, intended) = (&report.prev_ctx, &report.intended_ctx);
    conformance(
        rr.pre_repair_fabric,
        None,
        prev,
        intended,
        Some(&compile(prev)),
        &Schedule::Barriers,
        1,
    )
    .unwrap_or_else(|e| panic!("{label}: repair conformance: {e}"));

    // Resume from the journal's intent cursor and converge on the twin.
    let resume_from = recovered.seq() as usize;
    assert!(
        resume_from <= script.len(),
        "{label}: replay overshot the script"
    );
    run_script(&mut recovered, script, resume_from);
    assert_eq!(
        encode_state(recovered.inner()),
        twin_final,
        "{label}: recovered+resumed state must be bitwise-equal to the twin \
         (digest {:#010x} vs {:#010x})",
        state_digest(recovered.inner()),
        apple_nfv::journal::crc32(twin_final),
    );
    recovered
        .inner()
        .check_ledger()
        .unwrap_or_else(|e| panic!("{label}: residual ledger: {e}"));
    let (classes, handler) = recovered.inner().snapshot();
    let violations = verify_shares(&classes, &handler, recovered.inner().orchestrator(), 1e-6);
    assert!(
        violations.is_empty(),
        "{label}: share violations: {violations:?}"
    );
    let snap = rec.snapshot();
    PairOutcome {
        site: kill.site,
        torn_bytes: report.torn_truncated_bytes,
        replayed: report.records_replayed,
        logged: report.resolves_logged,
        reexecuted: report.resolves_reexecuted,
        repaired: !rr.was_clean || snap.counter("recovery.reconcile_repairs").unwrap_or(0) > 0,
        unacked: report.unacked_barriers,
    }
}

/// The headline sweep: ≥200 sampled (timeline, crash-point) pairs, each
/// recovered, reconciled, conformance-checked, and resumed to bitwise
/// twin equality.
#[test]
fn crash_point_battery_recovers_bitwise_everywhere() {
    install_quiet_kill_hook();
    let s = setup();
    let mut pairs = 0u64;
    let mut torn_pairs = 0u64;
    let mut replays = 0u64;
    let mut repairs = 0u64;
    let mut sites = [0u64; 4];
    for (ti, &tl_seed) in TIMELINE_SEEDS.iter().enumerate() {
        let evs = events(tl_seed);
        let script = build_script(&s, &evs);
        let (twin_final, visits) = twin_and_sites(&s, &script);
        assert!(
            visits > PAIRS_PER_TIMELINE,
            "timeline {ti} visits only {visits} sites"
        );
        let stride = visits / PAIRS_PER_TIMELINE;
        for k in 0..PAIRS_PER_TIMELINE {
            // Even spread over the run, offset per timeline so different
            // timelines sample different phases of the step cycle.
            let ordinal = (k * stride + ti as u64 % stride.max(1)) + 1;
            let torn = pairs % 2 == 1;
            let label = format!("timeline {ti} ordinal {ordinal} torn {torn}");
            let out = run_pair(&s, &script, &twin_final, ordinal, torn, &label);
            pairs += 1;
            torn_pairs += u64::from(out.torn_bytes > 0);
            replays += out.replayed;
            repairs += u64::from(out.repaired);
            sites[match out.site {
                CrashSite::JournalAppend => 0,
                CrashSite::SnapshotWrite => 1,
                CrashSite::DataplaneBarrier => 2,
                CrashSite::SouthboundAck => 3,
            }] += 1;
        }
    }
    assert!(pairs >= 200, "battery ran only {pairs} pairs");
    assert!(
        sites.iter().all(|&c| c > 0),
        "battery must hit every site kind, got {sites:?}"
    );
    assert!(torn_pairs > 0, "battery never produced a torn tail");
    assert!(replays > 0, "battery never replayed a record");
    assert!(repairs > 0, "battery never exercised fabric repair");
}

/// A crash before the very first durability site recovers to genesis and
/// replays the entire script.
#[test]
fn crash_at_first_site_recovers_from_genesis() {
    install_quiet_kill_hook();
    let s = setup();
    let evs = events(SEED ^ 7);
    let script = build_script(&s, &evs);
    let (twin_final, _) = twin_and_sites(&s, &script);
    run_pair(&s, &script, &twin_final, 1, false, "first-site");
}

/// Journal-only mode (snapshots disabled) still recovers bitwise — every
/// intent replays from genesis.
#[test]
fn journal_only_mode_recovers_bitwise() {
    install_quiet_kill_hook();
    let s = RecoverySetup {
        recovery: RecoveryConfig { snapshot_every: 0 },
        ..setup()
    };
    let evs = events(SEED ^ 11);
    let script = build_script(&s, &evs);
    let (twin_final, visits) = twin_and_sites(&s, &script);
    let out = run_pair(&s, &script, &twin_final, visits / 2, true, "journal-only");
    assert!(
        out.replayed > 0,
        "journal-only recovery must replay intents"
    );
}

// ---------------------------------------------------------------------------
// Journaled re-solve answers.
//
// A step that runs the periodic global re-solve journals the engine's
// answer (`Record::Resolve`); redo applies it instead of solving, and
// re-runs the engine only for a re-solving step whose record is missing.
// ---------------------------------------------------------------------------

/// The decoded records of `store`'s journal.
fn journal_records(store: &SharedMemStore) -> Vec<Record> {
    Journal::recover(&mut store.inner())
        .expect("clean journal scans")
        .records
        .iter()
        .map(|p| Record::decode(p).expect("record decodes"))
        .collect()
}

/// A fresh store whose journal holds `records`, appended in order.
fn store_of(records: &[Record]) -> MemStore {
    let store = SharedMemStore::new();
    let mut journal = Journal::new(store.clone());
    for r in records {
        journal.append(&r.encode()).expect("in-memory append");
    }
    store.inner()
}

fn is_resolve(r: &Record) -> bool {
    matches!(r, Record::Resolve { .. })
}

/// A journal-only run recovers from its `Resolve` records without running
/// the engine once, and from the same journal stripped of them by
/// re-running the engine on every re-solve; both land on the live state
/// and count the live loop's re-solves.
#[test]
fn redo_applies_logged_resolves_and_reexecutes_missing_ones() {
    let s = RecoverySetup {
        recovery: RecoveryConfig { snapshot_every: 0 },
        ..setup()
    };
    let store = SharedMemStore::new();
    let mut live = JournaledLoop::new(&s, store.clone(), SharedFabric::new(), CrashPoint::never());
    for e in &events(SEED ^ 19) {
        live.step(e, &NOOP)
            .expect("in-memory journal append cannot fail");
    }
    let want = state_digest(live.inner());
    let records = journal_records(&store);
    let answers = records.iter().filter(|r| is_resolve(r)).count() as u64;
    assert!(answers >= 2, "the run logged only {answers} re-solves");
    assert_eq!(live.inner().resolves(), answers, "no re-solve failed");

    let rec = MemoryRecorder::new();
    let (logged, report) = recover(&s, store.inner(), SharedFabric::new(), &rec).expect("recover");
    assert_eq!(state_digest(logged.inner()), want, "logged redo diverged");
    assert_eq!(logged.inner().resolves(), live.inner().resolves());
    assert_eq!(
        (report.resolves_logged, report.resolves_reexecuted),
        (answers, 0)
    );
    let snap = rec.snapshot();
    assert_eq!(snap.counter("recovery.resolves_logged"), Some(answers));
    assert_eq!(snap.counter("recovery.resolves_reexecuted"), Some(0));
    assert_eq!(
        snap.counter("failover.replans"),
        None,
        "redo ran the engine"
    );
    assert!(
        snap.histogram("span.failover.replan").is_none(),
        "redo ran the engine"
    );

    let stripped: Vec<Record> = records.into_iter().filter(|r| !is_resolve(r)).collect();
    let rec = MemoryRecorder::new();
    let (reexecuted, report) =
        recover(&s, store_of(&stripped), SharedFabric::new(), &rec).expect("recover");
    assert_eq!(
        state_digest(reexecuted.inner()),
        want,
        "re-executed redo diverged"
    );
    assert_eq!(reexecuted.inner().resolves(), live.inner().resolves());
    assert_eq!(
        (report.resolves_logged, report.resolves_reexecuted),
        (0, answers)
    );
    assert_eq!(rec.snapshot().counter("failover.replans"), Some(answers));
}

/// A kill at a `Resolve` append, clean or torn, loses that one answer:
/// journal-only recovery applies the answers logged before it,
/// re-executes that re-solve alone, and resumes bitwise to the twin.
#[test]
fn kill_at_a_resolve_append_reexecutes_that_resolve() {
    install_quiet_kill_hook();
    let s = RecoverySetup {
        recovery: RecoveryConfig { snapshot_every: 0 },
        ..setup()
    };
    let script = build_script(&s, &events(SEED ^ 23));
    let (twin_final, _) = twin_and_sites(&s, &script);

    // The Resolve append is the second site a re-solving step visits,
    // right after its intent append. Kill at the second re-solve's, so
    // that one answer is already logged.
    let crash = CrashPoint::never();
    let mut probe = JournaledLoop::new(
        &s,
        SharedMemStore::new(),
        SharedFabric::new(),
        crash.clone(),
    );
    let mut ordinals = Vec::new();
    for action in &script {
        let before = crash.visited();
        run_script(&mut probe, std::slice::from_ref(action), 0);
        if matches!(action, Action::Step(_)) && probe.inner().resolve_answer().is_some() {
            ordinals.push(before + 2);
        }
    }
    assert!(
        ordinals.len() >= 2,
        "the script re-solves {} times",
        ordinals.len()
    );
    let ordinal = ordinals[1];
    for torn in [false, true] {
        let label = format!("resolve append ordinal {ordinal} torn {torn}");
        let out = run_pair(&s, &script, &twin_final, ordinal, torn, &label);
        assert_eq!(out.site, CrashSite::JournalAppend, "{label}: wrong site");
        assert_eq!(
            (out.logged, out.reexecuted),
            (1, 1),
            "{label}: the lost answer re-executes alone"
        );
    }
}

/// A `Resolve` record on a step that does not re-solve is corrupt state,
/// not something to skip.
#[test]
fn resolve_record_on_a_step_that_does_not_resolve_is_rejected() {
    let s = RecoverySetup {
        recovery: RecoveryConfig { snapshot_every: 0 },
        ..setup()
    };
    let store = SharedMemStore::new();
    let mut live = JournaledLoop::new(&s, store.clone(), SharedFabric::new(), CrashPoint::never());
    for e in &events(SEED ^ 29)[..5] {
        live.step(e, &NOOP)
            .expect("in-memory journal append cannot fail");
    }
    let mut records = journal_records(&store);
    assert!(!records.iter().any(is_resolve), "five steps re-solved");
    let at = records
        .iter()
        .position(|r| matches!(r, Record::StepIntent { seq: 3, .. }))
        .expect("step 3 was journaled");
    records.insert(
        at + 1,
        Record::Resolve {
            seq: 3,
            answer: ResolveAnswer::Fleet(vec![(NodeId(0), NfType::Firewall, 1)]),
        },
    );
    let err = recover(&s, store_of(&records), SharedFabric::new(), &NOOP)
        .expect_err("a stray resolve answer must not recover");
    assert!(matches!(err, RecoveryError::State(_)), "{err}");
}

// ---------------------------------------------------------------------------
// Pinned wire-format fixtures.
//
// The committed files freeze the journal and snapshot byte formats at
// RECORD_VERSION / SNAPSHOT_VERSION 1. If either codec changes shape,
// these tests fail — bump the version constants and regenerate with
// `BLESS_RECOVERY_FIXTURES=1 cargo test -p apple-nfv --test recovery`.
// A new record kind changes no existing record's bytes and needs no
// version bump (neither fixture run reaches a re-solve, so neither holds
// a `Resolve` record).
// ---------------------------------------------------------------------------

/// Seed and shape of the fixture run (small on purpose: the files are
/// committed).
const FIXTURE_SEED: u64 = 0xf1c5;
const FIXTURE_EVENTS: usize = 20;
const FIXTURE_SNAPSHOT_EVERY: u64 = 8;

fn fixture_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("recovery")
}

/// Reruns the pinned fixture scenario and returns the raw store bytes
/// (journal, last snapshot seq, snapshot payload).
fn fixture_bytes() -> (Vec<u8>, u64, Vec<u8>) {
    let s = RecoverySetup {
        recovery: RecoveryConfig {
            snapshot_every: FIXTURE_SNAPSHOT_EVERY,
        },
        ..setup()
    };
    let evs = events(FIXTURE_SEED);
    assert!(evs.len() >= FIXTURE_EVENTS, "fixture timeline too short");
    let store = SharedMemStore::new();
    let mut jl = JournaledLoop::new(&s, store.clone(), SharedFabric::new(), CrashPoint::never());
    for e in &evs[..FIXTURE_EVENTS] {
        jl.step(e, &NOOP).expect("fixture run");
    }
    let snap_seq = (FIXTURE_EVENTS as u64 / FIXTURE_SNAPSHOT_EVERY) * FIXTURE_SNAPSHOT_EVERY;
    let inner = store.inner();
    let snapshot = inner
        .snapshot_bytes(snap_seq)
        .expect("fixture run writes a snapshot")
        .to_vec();
    (inner.journal_bytes().to_vec(), snap_seq, snapshot)
}

#[test]
fn fixture_files_match_the_pinned_run() {
    let dir = fixture_dir();
    let (journal, snap_seq, snapshot) = fixture_bytes();
    if std::env::var("BLESS_RECOVERY_FIXTURES").is_ok() {
        std::fs::create_dir_all(&dir).expect("create fixture dir");
        std::fs::write(dir.join("journal.bin"), &journal).expect("write journal fixture");
        std::fs::write(dir.join(format!("snapshot_{snap_seq}.bin")), &snapshot)
            .expect("write snapshot fixture");
        return;
    }
    let want_journal = std::fs::read(dir.join("journal.bin")).expect("committed journal fixture");
    let want_snapshot =
        std::fs::read(dir.join(format!("snapshot_{snap_seq}.bin"))).expect("committed snapshot");
    assert_eq!(
        journal, want_journal,
        "journal wire format drifted from the committed fixture — if \
         intentional, bump RECORD_VERSION and re-bless"
    );
    assert_eq!(
        snapshot, want_snapshot,
        "snapshot wire format drifted from the committed fixture — if \
         intentional, bump SNAPSHOT_VERSION and re-bless"
    );
}

/// The committed fixture bytes must stay *recoverable*: load them into a
/// fresh store, recover, and land on the pinned state digest.
#[test]
fn committed_fixture_recovers_to_pinned_digest() {
    let dir = fixture_dir();
    let journal = std::fs::read(dir.join("journal.bin")).expect("committed journal fixture");
    let snap_seq = (FIXTURE_EVENTS as u64 / FIXTURE_SNAPSHOT_EVERY) * FIXTURE_SNAPSHOT_EVERY;
    let snapshot =
        std::fs::read(dir.join(format!("snapshot_{snap_seq}.bin"))).expect("committed snapshot");

    // Every committed journal record must decode under the current codec.
    let mut probe = MemStore::new();
    probe.set_journal_bytes(journal.clone());
    let scanned = Journal::recover(&mut probe).expect("committed journal scans");
    assert_eq!(
        scanned.truncated_bytes, 0,
        "committed fixture has no torn tail"
    );
    for payload in &scanned.records {
        Record::decode(payload).expect("committed record decodes");
    }

    let s = RecoverySetup {
        recovery: RecoveryConfig {
            snapshot_every: FIXTURE_SNAPSHOT_EVERY,
        },
        ..setup()
    };
    let mut store = MemStore::new();
    store.set_journal_bytes(journal);
    store.set_snapshot_bytes(snap_seq, snapshot);
    let (recovered, report) = recover(&s, store, SharedFabric::new(), &NOOP).expect("recover");
    assert_eq!(report.snapshot_seq, Some(snap_seq));
    // Cross-check against an in-process rerun of the same scenario: the
    // digest is pinned to the *run*, not to a magic constant, so the test
    // catches any divergence between the committed bytes and what the
    // current code would produce and replay.
    let srun = fixture_bytes();
    let mut store2 = MemStore::new();
    store2.set_journal_bytes(srun.0);
    store2.set_snapshot_bytes(srun.1, srun.2);
    let (rerun, _) = recover(&s, store2, SharedFabric::new(), &NOOP).expect("recover rerun");
    assert_eq!(
        state_digest(recovered.inner()),
        state_digest(rerun.inner()),
        "committed fixture and pinned rerun must recover to the same state"
    );
    assert!(
        recovered.inner().live_count() > 0,
        "fixture state is non-trivial"
    );
}

// ---------------------------------------------------------------------------
// Southbound-ack crash sites (DESIGN.md §13).
//
// `JournaledLoop` journals a `Barrier` record *before* mutating the
// fabric and a `BarrierAck` record *after*: killing at the
// `SouthboundAck` site freezes the exact "applied but unacked" window the
// async southbound channel exposes — the fabric is one barrier ahead of
// the acked journal suffix. These tests target that window directly and
// pin its journal wire image under `tests/fixtures/southbound/`.
// ---------------------------------------------------------------------------

/// Kill at `ordinal` over a fresh store + fabric and report which site
/// fired, handing back the surviving store and fabric.
fn kill_at(
    s: &RecoverySetup,
    script: &[Action],
    ordinal: u64,
) -> (CrashSite, SharedMemStore, SharedFabric) {
    let store = SharedMemStore::new();
    let fabric = SharedFabric::new();
    let caught = catch_unwind(AssertUnwindSafe(|| {
        let mut jl = JournaledLoop::new(s, store.clone(), fabric.clone(), CrashPoint::at(ordinal));
        run_script(&mut jl, script, 0);
    }))
    .expect_err("probe ordinal must be inside the visited range");
    let kill = kill_of(caught.as_ref()).expect("probe panic was not a kill");
    assert_eq!(kill.ordinal, ordinal, "probe fired at the wrong ordinal");
    (kill.site, store, fabric)
}

/// First ordinal in `from..=visits` whose site is `SouthboundAck`.
/// Deterministic: the site schedule is a pure function of the script.
fn find_southbound_ordinal(s: &RecoverySetup, script: &[Action], from: u64, visits: u64) -> u64 {
    (from.max(1)..=visits)
        .find(|&o| kill_at(s, script, o).0 == CrashSite::SouthboundAck)
        .expect("run never visits a southbound-ack site")
}

/// A kill in the applied-but-unacked window recovers, repairs the
/// partially-acked fabric tail, and resumes to bitwise twin equality —
/// with the unacked barrier visible in the recovery report.
#[test]
fn southbound_ack_crash_repairs_partially_acked_tail() {
    install_quiet_kill_hook();
    let s = setup();
    let evs = events(SEED ^ 13);
    let script = build_script(&s, &evs);
    let (twin_final, visits) = twin_and_sites(&s, &script);
    let ordinal = find_southbound_ordinal(&s, &script, visits / 2, visits);
    let out = run_pair(&s, &script, &twin_final, ordinal, false, "southbound-ack");
    assert_eq!(
        out.site,
        CrashSite::SouthboundAck,
        "probe and pair disagree"
    );
    assert!(
        out.unacked >= 1,
        "a southbound-ack kill must leave at least one unacked barrier, \
         got {}",
        out.unacked
    );
}

/// Seed and shape of the pinned southbound fixture (journal-only mode so
/// the committed artifact is a single journal file).
const SB_FIXTURE_SEED: u64 = 0x5bf1;
const SB_FIXTURE_EVENTS: usize = 18;

fn southbound_fixture_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("southbound")
}

/// Reruns the pinned southbound crash scenario: kill the controller at
/// the first southbound-ack site past the midpoint and hand back the
/// surviving journal bytes, the surviving (partially-acked) fabric, the
/// setup, and the frozen script.
fn southbound_fixture_run() -> (Vec<u8>, SharedFabric, RecoverySetup, Vec<Action>) {
    let s = RecoverySetup {
        recovery: RecoveryConfig { snapshot_every: 0 },
        ..setup()
    };
    let evs = events(SB_FIXTURE_SEED);
    assert!(evs.len() >= SB_FIXTURE_EVENTS, "fixture timeline too short");
    let script = build_script(&s, &evs[..SB_FIXTURE_EVENTS]);
    let (_, visits) = twin_and_sites(&s, &script);
    let ordinal = find_southbound_ordinal(&s, &script, visits / 2, visits);
    let (site, store, fabric) = kill_at(&s, &script, ordinal);
    assert_eq!(site, CrashSite::SouthboundAck, "fixture kill site drifted");
    (store.inner().journal_bytes().to_vec(), fabric, s, script)
}

/// The committed journal freezes a submitted-but-unacked barrier tail:
/// its bytes match the pinned rerun, every record decodes, the `Barrier`
/// / `BarrierAck` counts disagree, and recovering + reconciling from the
/// committed bytes repairs the surviving fabric and resumes to bitwise
/// twin equality. Regenerate with
/// `BLESS_RECOVERY_FIXTURES=1 cargo test -p apple-nfv --test recovery`.
#[test]
fn southbound_fixture_freezes_partially_acked_tail() {
    install_quiet_kill_hook();
    let dir = southbound_fixture_dir();
    let (journal, fabric, s, script) = southbound_fixture_run();
    if std::env::var("BLESS_RECOVERY_FIXTURES").is_ok() {
        std::fs::create_dir_all(&dir).expect("create southbound fixture dir");
        std::fs::write(dir.join("journal.bin"), &journal).expect("write southbound fixture");
        return;
    }
    let want = std::fs::read(dir.join("journal.bin")).expect("committed southbound fixture");
    assert_eq!(
        journal, want,
        "southbound journal fixture drifted from the pinned run — if \
         intentional, re-bless with BLESS_RECOVERY_FIXTURES=1"
    );

    // The committed bytes decode under the current codec and visibly
    // carry a submitted-but-unacked barrier.
    let mut probe = MemStore::new();
    probe.set_journal_bytes(want.clone());
    let scanned = Journal::recover(&mut probe).expect("committed southbound journal scans");
    assert_eq!(scanned.truncated_bytes, 0, "fixture has no torn tail");
    let (mut submitted, mut acked) = (0u64, 0u64);
    for payload in &scanned.records {
        match Record::decode(payload).expect("committed record decodes") {
            Record::Barrier { .. } => submitted += 1,
            Record::BarrierAck { .. } => acked += 1,
            _ => {}
        }
    }
    assert!(
        submitted > acked,
        "fixture must freeze an unacked barrier (submitted {submitted}, acked {acked})"
    );

    // Recover from the committed bytes against the surviving fabric,
    // repair the partially-acked tail, and resume to the twin.
    let mut store = MemStore::new();
    store.set_journal_bytes(want);
    let rec = MemoryRecorder::new();
    let (mut recovered, report) =
        recover(&s, store, fabric.clone(), &rec).expect("recover southbound fixture");
    assert!(
        report.unacked_barriers >= 1,
        "recovery must surface the unacked barrier, got {}",
        report.unacked_barriers
    );
    reconcile(&recovered, &rec);
    assert_eq!(
        &fabric.program(),
        recovered.inner().dataplane_program(),
        "reconcile must repair the partially-acked fabric tail"
    );
    let (twin_final, _) = twin_and_sites(&s, &script);
    let resume_from = recovered.seq() as usize;
    run_script(&mut recovered, &script, resume_from);
    assert_eq!(
        encode_state(recovered.inner()),
        twin_final,
        "southbound fixture recovery must converge bitwise on the twin"
    );
}

// ---------------------------------------------------------------------------
// Store failure mid-barrier.
// ---------------------------------------------------------------------------

/// A [`SharedMemStore`] whose journal append number `fail_at` (0-based)
/// fails; every other call passes through.
#[derive(Debug)]
struct FailingStore {
    inner: SharedMemStore,
    appends: u64,
    fail_at: u64,
}

impl JournalStore for FailingStore {
    fn append_journal(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        let fail = self.appends == self.fail_at;
        self.appends += 1;
        if fail {
            return Err(StoreError::Io {
                op: "append",
                source: std::io::Error::other("injected store failure"),
            });
        }
        self.inner.append_journal(bytes)
    }

    fn read_journal(&self) -> Result<Vec<u8>, StoreError> {
        self.inner.read_journal()
    }

    fn truncate_journal(&mut self, len: u64) -> Result<(), StoreError> {
        self.inner.truncate_journal(len)
    }

    fn put_snapshot(&mut self, seq: u64, bytes: &[u8]) -> Result<(), StoreError> {
        self.inner.put_snapshot(seq, bytes)
    }

    fn snapshot_seqs(&self) -> Result<Vec<u64>, StoreError> {
        self.inner.snapshot_seqs()
    }

    fn read_snapshot(&self, seq: u64) -> Result<Option<Vec<u8>>, StoreError> {
        self.inner.read_snapshot(seq)
    }
}

/// A store that rejects a `Barrier` append stops the mirror at that
/// barrier: the step reports the typed journal error, the fabric holds the
/// pre-step program plus a strict prefix of the step's plan, and recovery
/// plus reconciliation from the surviving store and fabric converge on the
/// recovered intent.
#[test]
fn store_failure_mid_barrier_leaves_a_repairable_plan_prefix() {
    let s = setup();
    let evs = events(SEED ^ 17);

    // Dry run. On a clean run the k-th append is the k-th record, so the
    // failing append is the second `Barrier` record of the first step
    // that commits several barriers.
    let store = SharedMemStore::new();
    let mut dry = JournaledLoop::new(&s, store.clone(), SharedFabric::new(), CrashPoint::never());
    for e in &evs {
        dry.step(e, &NOOP)
            .expect("in-memory journal append cannot fail");
    }
    let records = journal_records(&store);
    let (fail_at, seq) = records
        .iter()
        .enumerate()
        .filter(|(_, r)| matches!(r, Record::Barrier { .. }))
        .collect::<Vec<_>>()
        .windows(2)
        .find(|w| w[0].1.seq() == w[1].1.seq())
        .map(|w| (w[1].0 as u64, w[1].1.seq()))
        .expect("some step commits several barriers");

    let store = SharedMemStore::new();
    let fabric = SharedFabric::new();
    let failing = FailingStore {
        inner: store.clone(),
        appends: 0,
        fail_at,
    };
    let mut jl = JournaledLoop::new(&s, failing, fabric.clone(), CrashPoint::never());
    let (before, failing_event) = evs.split_at(seq as usize - 1);
    for e in before {
        jl.step(e, &NOOP)
            .expect("appends before the failing one succeed");
    }
    let pre_step = fabric.program();
    let err = jl
        .step(&failing_event[0], &NOOP)
        .expect_err("the failed append surfaces");
    assert!(matches!(err, RecoveryError::Journal(_)), "{err}");
    let plan = jl.inner().committed().batches();
    let mut prefix = pre_step;
    let strict_prefix = (0..plan.len()).any(|k| {
        if k > 0 {
            apply_batch_unchecked(&mut prefix, &plan[k - 1]);
        }
        prefix == fabric.program()
    });
    assert!(strict_prefix, "fabric is no strict plan prefix");
    drop(jl);

    let (recovered, _) = recover(&s, store, fabric.clone(), &NOOP).expect("recover");
    assert_eq!(recovered.seq(), seq, "the failed step's intent is durable");
    reconcile(&recovered, &NOOP);
    assert_eq!(
        &fabric.program(),
        recovered.inner().dataplane_program(),
        "reconcile must repair the plan prefix"
    );
}
