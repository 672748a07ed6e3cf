//! Asynchronous southbound channel: per-device in-flight install queues
//! with seeded bounded latency, seeded reordering, and explicit barrier
//! acknowledgements.
//!
//! The paper's §VIII timing model charges ≈70 ms per forwarding-rule
//! install, which means the controller spends most of a reconfiguration
//! *waiting on the switch*. [`crate::diff::UpdatePlan`] already encodes
//! the make-before-break barrier discipline; this module models the wire
//! under it (DESIGN.md §13):
//!
//! * each [`UpdateBatch`] targets exactly one device ([`DeviceKey`]) and
//!   becomes one **barrier** in that device's FIFO install queue;
//! * barriers dispatch strictly in plan order — the ops of barrier *k+1*
//!   never leave the controller before barrier *k* is fully acked — so
//!   every fabric state an observer can see is a plan prefix, and the
//!   three-tier conformance theorem for prefixes carries over unchanged;
//! * *within* a barrier, ops are in flight concurrently: each draws a
//!   seeded bounded latency (`[rule_install_ms, rule_install_ms +
//!   jitter_ms]`) and completes in an order drawn from the device's own
//!   [`ReorderPlan::keyed_permutation`] stream, so one switch's reorder
//!   schedule never perturbs another's;
//! * every op must be **acked**; a barrier completes only when its acked
//!   set equals its op set exactly. Failed installs retry under
//!   [`RetryPolicy::for_rule_install`] backoff; exhausting attempts or
//!   the virtual-time budget surfaces a typed [`SouthboundError`] and
//!   freezes the channel with the fabric intact at the last completed
//!   barrier (a conformant plan prefix).
//!
//! All time is **virtual milliseconds** — nothing sleeps. A fixed
//! `(seed, plan, injector)` triple replays the same ack schedule forever,
//! which is what the in-flight conformance battery (`apple_sim::conformance`
//! under `Schedule::Inflight`) and the southbound recovery fixtures pin
//! against.

use std::collections::VecDeque;
use std::fmt;

use apple_faults::reorder::ReorderPlan;
use apple_faults::{FaultInjector, NoFaults, RetryPolicy};
use apple_nf::TimingModel;
use apple_rng::rngs::StdRng;
use apple_rng::{Rng, SeedableRng};

use crate::compiler::RuleProgram;
use crate::diff::{apply_batch_unchecked, UpdateBatch, UpdatePlan};

/// Identifies a submitted barrier: its 0-based submission order.
pub type BarrierId = u64;

/// The device a barrier's ops are queued against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DeviceKey {
    /// A physical switch's TCAM pipeline.
    Switch(usize),
    /// An APPLE host's vSwitch (named by the switch it hangs off).
    Host(usize),
    /// The controller itself (rewriter bookkeeping; no wire ops).
    Controller,
}

impl DeviceKey {
    /// The device that owns `batch`'s install queue.
    pub fn of(batch: &UpdateBatch) -> DeviceKey {
        match batch {
            UpdateBatch::Switch(b) => DeviceKey::Switch(b.switch),
            UpdateBatch::Host(b) => DeviceKey::Host(b.host),
            UpdateBatch::Rewriters { .. } => DeviceKey::Controller,
        }
    }

    /// The reorder-stream key for this device. Tag bits keep switch *n*
    /// and host *n* on distinct streams.
    pub fn stream_key(&self) -> u64 {
        match self {
            DeviceKey::Switch(s) => (1u64 << 62) | *s as u64,
            DeviceKey::Host(h) => (2u64 << 62) | *h as u64,
            DeviceKey::Controller => 3u64 << 62,
        }
    }

    /// The switch id the fault injector sees for ops on this device.
    fn injector_switch(&self) -> usize {
        match self {
            DeviceKey::Switch(s) | DeviceKey::Host(s) => *s,
            DeviceKey::Controller => usize::MAX,
        }
    }
}

impl fmt::Display for DeviceKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceKey::Switch(s) => write!(f, "switch {s}"),
            DeviceKey::Host(h) => write!(f, "host {h}"),
            DeviceKey::Controller => write!(f, "controller"),
        }
    }
}

/// Channel configuration. Everything downstream is a pure function of
/// these fields plus the injected fault stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SouthboundConfig {
    /// Seed for latency sampling, reorder schedules and retry jitter.
    pub seed: u64,
    /// Nominal per-op install latency (the paper's ~70 ms).
    pub rule_install_ms: u64,
    /// Uniform extra latency in `[0, jitter_ms]` added per op.
    pub jitter_ms: u64,
    /// Reorder-buffer window per device queue (0 = in-order acks).
    pub reorder_window: usize,
    /// Retry discipline for failed installs.
    pub retry: RetryPolicy,
}

impl SouthboundConfig {
    /// The paper's timing model: 70 ms installs with 30 ms of jitter, a
    /// 4-deep reorder window, and the standard rule-install retry policy.
    pub fn paper(seed: u64) -> SouthboundConfig {
        let t = TimingModel::paper(seed);
        SouthboundConfig {
            seed,
            rule_install_ms: t.rule_install_ms,
            jitter_ms: 30,
            reorder_window: 4,
            retry: RetryPolicy::for_rule_install(&t),
        }
    }

    /// A zero-latency, in-order channel: every barrier acks at the
    /// virtual instant it is submitted, so a plan lands in plan order with
    /// no wait billed. The paper's retry policy still governs injected
    /// failures.
    pub fn instant(seed: u64) -> SouthboundConfig {
        SouthboundConfig {
            rule_install_ms: 0,
            jitter_ms: 0,
            reorder_window: 0,
            ..SouthboundConfig::paper(seed)
        }
    }
}

/// Typed failure of an in-flight install. The channel freezes on the
/// first error: the fabric stays at the last completed barrier, which is
/// a conformant plan prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SouthboundError {
    /// An op failed on every permitted attempt.
    InstallFailed {
        /// Barrier the op belongs to.
        barrier: BarrierId,
        /// Op index within the barrier.
        op: usize,
        /// Device whose queue rejected it.
        device: DeviceKey,
        /// Attempts consumed (== `RetryPolicy::max_attempts`).
        attempts: u32,
    },
    /// An op's retries blew the virtual-time budget.
    InstallTimedOut {
        /// Barrier the op belongs to.
        barrier: BarrierId,
        /// Op index within the barrier.
        op: usize,
        /// Device whose queue stalled.
        device: DeviceKey,
        /// Virtual ms the op had consumed when it was abandoned.
        spent_ms: u64,
        /// The policy budget it exceeded.
        budget_ms: u64,
    },
}

impl fmt::Display for SouthboundError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SouthboundError::InstallFailed {
                barrier,
                op,
                device,
                attempts,
            } => write!(
                f,
                "install of op {op} in barrier {barrier} at {device} failed after {attempts} attempts"
            ),
            SouthboundError::InstallTimedOut {
                barrier,
                op,
                device,
                spent_ms,
                budget_ms,
            } => write!(
                f,
                "install of op {op} in barrier {barrier} at {device} timed out \
                 ({spent_ms} ms spent, budget {budget_ms} ms)"
            ),
        }
    }
}

impl std::error::Error for SouthboundError {}

/// Outcome of an explicitly injected (hostile-schedule) ack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedAck {
    /// The ack landed on a dispatched, so-far-unacked op.
    Acked,
    /// The op was already acked; the duplicate is counted and dropped.
    Duplicate,
    /// No dispatched op matched (completed barrier, failed channel,
    /// out-of-range op, or a barrier still queued behind the gate); the
    /// ack is counted and dropped — phantoms never enter the acked set.
    Ignored,
}

/// One completed barrier, handed to the caller to apply.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedBarrier {
    /// Submission-order id.
    pub id: BarrierId,
    /// The batch, ready for [`apply_batch_unchecked`].
    pub batch: UpdateBatch,
    /// Device whose queue drained it.
    pub device: DeviceKey,
    /// Virtual time the barrier was submitted.
    pub submitted_ms: u64,
    /// Virtual time its ops went on the wire.
    pub dispatched_ms: u64,
    /// Virtual time its last op acked.
    pub completed_ms: u64,
    /// Op indices in ack order — exactly the barrier's op set, once each.
    pub ack_order: Vec<usize>,
    /// Retries consumed across the barrier's ops.
    pub retries: u64,
}

impl CompletedBarrier {
    /// Submit-to-ack barrier latency in virtual ms.
    pub fn wait_ms(&self) -> u64 {
        self.completed_ms - self.submitted_ms
    }
}

/// An observable channel event, in virtual-time order.
#[derive(Debug, Clone, PartialEq)]
pub enum SouthboundEvent {
    /// One op acked.
    Ack {
        /// Barrier the op belongs to.
        barrier: BarrierId,
        /// Op index within the barrier.
        op: usize,
        /// Device that acked.
        device: DeviceKey,
        /// Virtual ack time.
        at_ms: u64,
        /// Attempt that succeeded (1 = first try).
        attempt: u32,
    },
    /// A barrier's acked set reached its op set; apply the batch now.
    Barrier(CompletedBarrier),
}

/// Channel counters (cumulative since construction).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SouthboundStats {
    /// Barriers submitted.
    pub submitted: u64,
    /// Barriers completed.
    pub completed: u64,
    /// Ops acked (injected acks included once).
    pub acks: u64,
    /// Install attempts beyond each op's first.
    pub retries: u64,
    /// Duplicate acks dropped.
    pub duplicate_acks: u64,
    /// Phantom or late acks dropped.
    pub ignored_acks: u64,
}

#[derive(Debug, Clone)]
struct OpState {
    due_ms: u64,
    attempt: u32,
    acked: bool,
}

#[derive(Debug, Clone)]
struct Pending {
    id: BarrierId,
    batch: UpdateBatch,
    device: DeviceKey,
    submitted_ms: u64,
    dispatched_ms: u64,
    dispatched: bool,
    ops: Vec<OpState>,
    ack_order: Vec<usize>,
    retries: u64,
}

impl Pending {
    fn all_acked(&self) -> bool {
        self.ops.iter().all(|o| o.acked)
    }

    /// Earliest unacked op, ties broken by op index (deterministic).
    fn next_due(&self) -> Option<(usize, u64)> {
        self.ops
            .iter()
            .enumerate()
            .filter(|(_, o)| !o.acked)
            .min_by_key(|(i, o)| (o.due_ms, *i))
            .map(|(i, o)| (i, o.due_ms))
    }
}

/// The asynchronous southbound channel.
///
/// Generic over the [`FaultInjector`] consulted per install attempt;
/// [`NoFaults`] (the default) never drops an ack, so `drive` cannot fail.
#[derive(Debug, Clone)]
pub struct SouthboundChannel<I: FaultInjector = NoFaults> {
    cfg: SouthboundConfig,
    reorder: ReorderPlan,
    rng: StdRng,
    injector: I,
    now_ms: u64,
    next_id: BarrierId,
    queue: VecDeque<Pending>,
    stats: SouthboundStats,
    failed: Option<SouthboundError>,
}

impl SouthboundChannel<NoFaults> {
    /// A channel whose installs always succeed on the first attempt.
    pub fn new(cfg: SouthboundConfig) -> Self {
        Self::with_injector(cfg, NoFaults)
    }
}

impl<I: FaultInjector> SouthboundChannel<I> {
    /// A channel that asks `injector` whether each install attempt fails.
    pub fn with_injector(cfg: SouthboundConfig, injector: I) -> Self {
        SouthboundChannel {
            reorder: ReorderPlan::new(cfg.seed, cfg.reorder_window),
            rng: StdRng::seed_from_u64(cfg.seed ^ 0x5b0d_ca57), // "sb dcast"
            cfg,
            injector,
            now_ms: 0,
            next_id: 0,
            queue: VecDeque::new(),
            stats: SouthboundStats::default(),
            failed: None,
        }
    }

    /// Current virtual time.
    pub fn now_ms(&self) -> u64 {
        self.now_ms
    }

    /// Cumulative counters.
    pub fn stats(&self) -> SouthboundStats {
        self.stats
    }

    /// Barriers submitted but not yet completed.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// True when every submitted barrier completed and no error froze the
    /// channel.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.failed.is_none()
    }

    /// The sticky error, if an install failed or timed out.
    pub fn failure(&self) -> Option<&SouthboundError> {
        self.failed.as_ref()
    }

    /// Enqueue one barrier; returns its id. Ops go on the wire once every
    /// earlier barrier has completed.
    pub fn submit_batch(&mut self, batch: &UpdateBatch) -> BarrierId {
        let id = self.next_id;
        self.next_id += 1;
        let device = DeviceKey::of(batch);
        let ops = vec![
            OpState {
                due_ms: 0,
                attempt: 1,
                acked: false,
            };
            batch.op_count()
        ];
        self.queue.push_back(Pending {
            id,
            batch: batch.clone(),
            device,
            submitted_ms: self.now_ms,
            dispatched_ms: 0,
            dispatched: false,
            ops,
            ack_order: Vec::new(),
            retries: 0,
        });
        self.stats.submitted += 1;
        id
    }

    /// Enqueue every batch of `plan` in plan order; returns their ids.
    pub fn submit_plan(&mut self, plan: &UpdatePlan) -> Vec<BarrierId> {
        plan.batches()
            .iter()
            .map(|b| self.submit_batch(b))
            .collect()
    }

    fn sample_latency(&mut self) -> u64 {
        self.cfg.rule_install_ms + self.rng.gen_range(0..=self.cfg.jitter_ms)
    }

    /// Put the front barrier's ops on the wire: sample one bounded
    /// latency per op and assign completion *order* from the device's
    /// keyed reorder stream (the k-th element of the permutation acks
    /// k-th).
    fn dispatch_front(&mut self) {
        let Some(front) = self.queue.front() else {
            return;
        };
        if front.dispatched {
            return;
        }
        let n = front.ops.len();
        let (id, key) = (front.id, front.device.stream_key());
        let mut lats: Vec<u64> = (0..n).map(|_| self.sample_latency()).collect();
        lats.sort_unstable();
        let perm = self.reorder.keyed_permutation(key, id, n);
        let now = self.now_ms;
        let front = self.queue.front_mut().expect("front checked above");
        front.dispatched = true;
        front.dispatched_ms = now;
        for (k, &op) in perm.iter().enumerate() {
            front.ops[op].due_ms = now + lats[k];
        }
    }

    fn complete_front(&mut self) -> CompletedBarrier {
        let p = self.queue.pop_front().expect("front exists");
        self.stats.completed += 1;
        CompletedBarrier {
            id: p.id,
            batch: p.batch,
            device: p.device,
            submitted_ms: p.submitted_ms,
            dispatched_ms: p.dispatched_ms,
            completed_ms: self.now_ms,
            ack_order: p.ack_order,
            retries: p.retries,
        }
    }

    /// Advance virtual time by `dt_ms`, returning the acks and barrier
    /// completions that occur, in time order.
    ///
    /// The first install failure freezes the channel: the current call
    /// still returns the events that preceded the failure, and every
    /// later call returns the sticky typed error. Callers therefore never
    /// lose a completed barrier — the fabric they maintain is always the
    /// plan prefix up to the last returned [`SouthboundEvent::Barrier`].
    pub fn advance(&mut self, dt_ms: u64) -> Result<Vec<SouthboundEvent>, SouthboundError> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        let target = self.now_ms.saturating_add(dt_ms);
        let mut events = Vec::new();
        loop {
            self.dispatch_front();
            let Some(front) = self.queue.front() else {
                break;
            };
            if front.all_acked() {
                // Zero-op barrier, or drained by injected acks.
                let done = self.complete_front();
                events.push(SouthboundEvent::Barrier(done));
                continue;
            }
            let (op, due) = front.next_due().expect("unacked op exists");
            if due > target {
                break;
            }
            self.now_ms = due;
            let (id, device, attempt) = (front.id, front.device, front.ops[op].attempt);
            if self
                .injector
                .rule_install_fails(device.injector_switch(), attempt)
            {
                if attempt >= self.cfg.retry.max_attempts {
                    let err = SouthboundError::InstallFailed {
                        barrier: id,
                        op,
                        device,
                        attempts: attempt,
                    };
                    self.failed = Some(err.clone());
                    break;
                }
                let backoff = self.cfg.retry.backoff_ms(attempt, &mut self.rng);
                let relat = self.sample_latency();
                let front = self.queue.front_mut().expect("front exists");
                let op_state = &mut front.ops[op];
                op_state.due_ms = due + backoff + relat;
                op_state.attempt += 1;
                front.retries += 1;
                self.stats.retries += 1;
                let spent = op_state.due_ms - front.dispatched_ms;
                if spent > self.cfg.retry.budget_ms {
                    let err = SouthboundError::InstallTimedOut {
                        barrier: id,
                        op,
                        device,
                        spent_ms: spent,
                        budget_ms: self.cfg.retry.budget_ms,
                    };
                    self.failed = Some(err.clone());
                    break;
                }
                continue;
            }
            let front = self.queue.front_mut().expect("front exists");
            front.ops[op].acked = true;
            front.ack_order.push(op);
            self.stats.acks += 1;
            events.push(SouthboundEvent::Ack {
                barrier: id,
                op,
                device,
                at_ms: self.now_ms,
                attempt,
            });
            if front.all_acked() {
                let done = self.complete_front();
                events.push(SouthboundEvent::Barrier(done));
            }
        }
        match &self.failed {
            Some(e) if events.is_empty() => Err(e.clone()),
            _ => {
                if self.failed.is_none() {
                    self.now_ms = target;
                }
                Ok(events)
            }
        }
    }

    /// Deliver an ack from outside the seeded schedule (hostile-schedule
    /// testing: duplicates, phantoms, acks after a timeout froze the
    /// channel). Idempotent and leak-free: only a dispatched, unacked op
    /// of a live channel transitions state. Completions triggered here
    /// surface on the next [`SouthboundChannel::advance`] call (pass
    /// `dt_ms = 0` to collect them without moving time).
    pub fn inject_ack(&mut self, barrier: BarrierId, op: usize) -> InjectedAck {
        if self.failed.is_some() {
            self.stats.ignored_acks += 1;
            return InjectedAck::Ignored;
        }
        let Some(front) = self.queue.front_mut() else {
            self.stats.ignored_acks += 1;
            return InjectedAck::Ignored;
        };
        if front.id != barrier || !front.dispatched || op >= front.ops.len() {
            self.stats.ignored_acks += 1;
            return InjectedAck::Ignored;
        }
        if front.ops[op].acked {
            self.stats.duplicate_acks += 1;
            return InjectedAck::Duplicate;
        }
        front.ops[op].acked = true;
        front.ack_order.push(op);
        self.stats.acks += 1;
        InjectedAck::Acked
    }

    /// Drive the channel until every submitted barrier completes, handing
    /// each completed barrier to `commit` in plan order. Returns the
    /// per-barrier latency record; on failure the typed error, with every
    /// barrier before it committed and none after.
    pub fn drive(
        &mut self,
        mut commit: impl FnMut(&CompletedBarrier),
    ) -> Result<SouthboundReport, SouthboundError> {
        let mut report = SouthboundReport::default();
        while !self.queue.is_empty() {
            let events = self.advance(DRIVE_CHUNK_MS)?;
            for ev in events {
                if let SouthboundEvent::Barrier(done) = ev {
                    commit(&done);
                    report.absorb(&done);
                }
            }
        }
        Ok(report)
    }
}

/// Virtual time `drive` advances per scheduling round. One hour dwarfs
/// any single barrier's worst-case retry budget, so each round makes
/// progress.
const DRIVE_CHUNK_MS: u64 = 3_600_000;

/// Aggregate outcome of driving a plan through the channel.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SouthboundReport {
    /// Barriers completed.
    pub barriers: u64,
    /// Ops acked.
    pub ops: u64,
    /// Retries consumed.
    pub retries: u64,
    /// Virtual time of the last barrier completion.
    pub elapsed_ms: u64,
    /// Per-barrier submit-to-ack waits, in completion order.
    pub waits_ms: Vec<u64>,
}

impl SouthboundReport {
    fn absorb(&mut self, done: &CompletedBarrier) {
        self.barriers += 1;
        self.ops += done.ack_order.len() as u64;
        self.retries += done.retries;
        self.elapsed_ms = self.elapsed_ms.max(done.completed_ms);
        self.waits_ms.push(done.wait_ms());
    }
}

/// Apply `plan` to `prog` through a fresh fault-free channel — the
/// asynchronous counterpart of [`UpdatePlan::apply_unchecked`], with the
/// same final program and a latency bill attached.
pub fn apply_plan_async(
    prog: &mut RuleProgram,
    plan: &UpdatePlan,
    cfg: SouthboundConfig,
) -> Result<SouthboundReport, SouthboundError> {
    let mut chan = SouthboundChannel::new(cfg);
    chan.submit_plan(plan);
    chan.drive(|done| apply_batch_unchecked(prog, &done.batch))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::SwitchRules;
    use crate::diff::diff;
    use crate::packet::HostTag;
    use crate::tcam::{Action, MatchSpec, TcamRule};

    /// tests/README.md convention: per-file base seed.
    const SEED: u64 = 0x5b5b_0001;

    fn rule(next: u16, prefix: u32) -> TcamRule {
        TcamRule {
            priority: 200,
            spec: MatchSpec::any().host_tag(HostTag::Empty).src(prefix, 24),
            actions: vec![
                Action::SetSubclassTag(0),
                Action::SetHostTag(HostTag::Host(next)),
                Action::GotoNextTable,
            ],
            label: format!("classify {next}/{prefix:x}"),
        }
    }

    /// A small two-program pair whose diff spans several devices.
    fn program_pair() -> (RuleProgram, RuleProgram) {
        let mut a = RuleProgram::default();
        for sw in 0..3usize {
            a.switches.insert(
                sw,
                SwitchRules {
                    rules: vec![rule(1, 0x0a00_0000 + ((sw as u32) << 8))],
                    has_host: false,
                },
            );
        }
        let mut b = a.clone();
        for sw in 0..3usize {
            b.switches.get_mut(&sw).unwrap().rules = vec![
                rule(2, 0x0a00_0000 + ((sw as u32) << 8)),
                rule(3, 0x0b00_0000),
            ];
        }
        b.switches.insert(
            7,
            SwitchRules {
                rules: vec![rule(4, 0x0c00_0000)],
                has_host: false,
            },
        );
        (a, b)
    }

    fn fast_cfg(seed: u64) -> SouthboundConfig {
        SouthboundConfig {
            seed,
            ..SouthboundConfig::paper(seed)
        }
    }

    #[test]
    fn async_apply_matches_synchronous_apply() {
        let (a, b) = program_pair();
        let plan = diff(&a, &b);
        assert!(!plan.batches().is_empty());
        let mut sync = a.clone();
        plan.apply_unchecked(&mut sync);
        for seed in 0..8u64 {
            let mut prog = a.clone();
            let report = apply_plan_async(&mut prog, &plan, fast_cfg(SEED ^ seed)).unwrap();
            assert_eq!(prog, sync, "seed {seed}");
            assert_eq!(prog, b);
            assert_eq!(report.barriers as usize, plan.batches().len());
            assert_eq!(report.ops as usize, plan.op_count());
            assert_eq!(report.waits_ms.len(), plan.batches().len());
        }
    }

    #[test]
    fn barrier_waits_respect_the_timing_model() {
        let (a, b) = program_pair();
        let plan = diff(&a, &b);
        let mut prog = a.clone();
        let cfg = fast_cfg(SEED ^ 0x10);
        let report = apply_plan_async(&mut prog, &plan, cfg).unwrap();
        // Every barrier waits at least one nominal install (zero-op
        // barriers aside) and at most ops * (install + jitter) since
        // in-barrier ops run concurrently but barriers serialize.
        for (w, batch) in report.waits_ms.iter().zip(plan.batches()) {
            if batch.op_count() > 0 {
                assert!(*w >= cfg.rule_install_ms, "wait {w} too small");
            }
        }
        assert!(report.elapsed_ms >= cfg.rule_install_ms);
        assert_eq!(report.retries, 0);
    }

    #[test]
    fn replays_are_bitwise_deterministic() {
        let (a, b) = program_pair();
        let plan = diff(&a, &b);
        let run = |seed: u64| {
            let mut chan = SouthboundChannel::new(fast_cfg(seed));
            chan.submit_plan(&plan);
            let mut events = Vec::new();
            while !chan.is_idle() {
                events.extend(chan.advance(10).unwrap());
            }
            events
        };
        assert_eq!(run(SEED), run(SEED));
        assert_ne!(run(SEED), run(SEED ^ 1), "seed must steer the schedule");
    }

    #[test]
    fn barriers_complete_in_plan_order_with_exact_ack_sets() {
        let (a, b) = program_pair();
        let plan = diff(&a, &b);
        let mut chan = SouthboundChannel::new(fast_cfg(SEED ^ 0x22));
        let ids = chan.submit_plan(&plan);
        let mut seen: Vec<BarrierId> = Vec::new();
        while !chan.is_idle() {
            for ev in chan.advance(25).unwrap() {
                if let SouthboundEvent::Barrier(done) = ev {
                    let want = plan.batches()[done.id as usize].op_count();
                    let mut acked = done.ack_order.clone();
                    acked.sort_unstable();
                    acked.dedup();
                    assert_eq!(acked.len(), done.ack_order.len(), "duplicate ack leaked");
                    assert_eq!(acked, (0..want).collect::<Vec<_>>(), "acked set != op set");
                    seen.push(done.id);
                }
            }
        }
        assert_eq!(seen, ids, "barriers must complete in submission order");
    }

    #[test]
    fn failing_injector_freezes_with_typed_error_and_prefix_fabric() {
        use apple_faults::FailFirstN;
        let (a, b) = program_pair();
        let plan = diff(&a, &b);
        // Enough consecutive failures to exhaust max_attempts on one op.
        let inj = FailFirstN::new(0, 64);
        let mut chan = SouthboundChannel::with_injector(fast_cfg(SEED ^ 0x33), inj);
        chan.submit_plan(&plan);
        let mut prog = a.clone();
        let err = chan
            .drive(|done| apply_batch_unchecked(&mut prog, &done.batch))
            .unwrap_err();
        match &err {
            SouthboundError::InstallFailed { attempts, .. } => {
                assert_eq!(*attempts, chan.cfg.retry.max_attempts)
            }
            SouthboundError::InstallTimedOut {
                spent_ms,
                budget_ms,
                ..
            } => assert!(spent_ms > budget_ms),
        }
        assert_eq!(chan.failure(), Some(&err), "error must be sticky");
        // The fabric is the plan prefix up to the last completed barrier.
        let done = chan.stats().completed as usize;
        let mut prefix = a.clone();
        for batch in &plan.batches()[..done] {
            apply_batch_unchecked(&mut prefix, batch);
        }
        assert_eq!(prog, prefix, "fabric must stay at the completed prefix");
        assert!(chan.advance(1_000).is_err(), "frozen channel stays frozen");
    }

    #[test]
    fn injected_acks_are_idempotent_and_leak_free() {
        let (a, b) = program_pair();
        let plan = diff(&a, &b);
        let mut chan = SouthboundChannel::new(fast_cfg(SEED ^ 0x44));
        let ids = chan.submit_plan(&plan);
        // Nothing dispatched yet: acks against queued barriers are ignored.
        assert_eq!(chan.inject_ack(ids[0], 0), InjectedAck::Ignored);
        chan.advance(0).unwrap(); // dispatch the front barrier
        let first_ops = plan.batches()[0].op_count();
        if first_ops > 0 {
            assert_eq!(chan.inject_ack(ids[0], 0), InjectedAck::Acked);
            assert_eq!(chan.inject_ack(ids[0], 0), InjectedAck::Duplicate);
            // Phantom op index never enters the acked set.
            assert_eq!(chan.inject_ack(ids[0], first_ops + 9), InjectedAck::Ignored);
            // Acks for a barrier still behind the gate are ignored.
            assert_eq!(chan.inject_ack(ids[1], 0), InjectedAck::Ignored);
        }
        let stats = chan.stats();
        assert_eq!(stats.duplicate_acks, u64::from(first_ops > 0));
        assert!(stats.ignored_acks >= 2);
        // The run still converges to the exact target program.
        let mut prog = a.clone();
        let report = chan
            .drive(|done| apply_batch_unchecked(&mut prog, &done.batch))
            .unwrap();
        let mut sync = a.clone();
        plan.apply_unchecked(&mut sync);
        assert_eq!(prog, sync);
        assert_eq!(report.barriers as usize, plan.batches().len());
    }

    #[test]
    fn retries_draw_backoff_and_still_converge() {
        use apple_faults::FailFirstN;
        let (a, b) = program_pair();
        let plan = diff(&a, &b);
        let inj = FailFirstN::new(0, 2); // two transient install rejections
        let mut chan = SouthboundChannel::with_injector(fast_cfg(SEED ^ 0x55), inj);
        chan.submit_plan(&plan);
        let mut prog = a.clone();
        let report = chan
            .drive(|done| apply_batch_unchecked(&mut prog, &done.batch))
            .unwrap();
        assert_eq!(report.retries, 2);
        let mut sync = a.clone();
        plan.apply_unchecked(&mut sync);
        assert_eq!(prog, sync);
        // A fault-free run of the same seed finishes sooner.
        let mut prog2 = a.clone();
        let clean = apply_plan_async(&mut prog2, &plan, fast_cfg(SEED ^ 0x55)).unwrap();
        assert!(clean.elapsed_ms < report.elapsed_ms);
    }

    #[test]
    fn zero_op_rewriter_barriers_complete_instantly() {
        use apple_nf::InstanceId;
        let mut a = RuleProgram::default();
        a.switches.insert(
            0,
            SwitchRules {
                rules: vec![rule(1, 0x0a00_0000)],
                has_host: false,
            },
        );
        let mut b = a.clone();
        b.rewriters.insert(InstanceId(3));
        let plan = diff(&a, &b);
        assert!(plan.batches().iter().any(|bt| bt.op_count() == 0));
        let mut prog = a.clone();
        let report = apply_plan_async(&mut prog, &plan, fast_cfg(SEED ^ 0x66)).unwrap();
        assert_eq!(prog, b);
        assert!(report.waits_ms.contains(&0));
    }
}
