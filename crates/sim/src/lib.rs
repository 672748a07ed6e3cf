//! Discrete-event simulation driving APPLE end-to-end — the substrate that
//! replaces the paper's OpenStack/ClickOS/Open vSwitch/OpenDaylight testbed
//! (see DESIGN.md §2). All control-plane latencies come from the prototype
//! measurements in §VII–VIII: 3.9–4.6 s OpenStack ClickOS boot, 70 ms rule
//! installation, 30 ms ClickOS reconfiguration.
//!
//! * [`metrics`] — time-series collectors and summary statistics,
//! * [`replay`] — the Fig. 12 experiment: replay a traffic-matrix series
//!   against a planned deployment, with or without fast failover, and
//!   record the network-wide packet-loss rate over time,
//! * [`failover_lab`] — the prototype micro-experiments: Fig. 7
//!   (throughput collapse during a naive failover), Fig. 8 (20 MB transfer
//!   time CDFs for the three strategies), Fig. 9 (overload detection
//!   timeline),
//! * [`chaos`] — seeded fault schedules (crashes, host failures, flaky
//!   control operations) replayed against a live deployment, with the
//!   runtime invariants verified after every event,
//! * [`online`] — drive a flow arrival/departure timeline through the
//!   online orchestration loop and summarise placements, re-solves and
//!   shedding,
//! * [`packet_replay`] — the batched parallel [`walk_batch`] replay engine
//!   over the compiled fast path, and the [`conformance`] battery over
//!   compiled rule programs: every probe walked after every barrier of an
//!   update plan, or at every scheduler tick while the plan is in flight on
//!   the seeded southbound channel (DESIGN.md §10, §12 and §13),
//! * [`paper`] — the paper's evaluation, one registered experiment per
//!   table or figure (`apple paper <NAME>`, committed in `results/`).
//!
//! # Example
//!
//! ```
//! use apple_sim::failover_lab::{detection_timeline, DetectorConfig};
//! use apple_telemetry::NOOP;
//!
//! let timeline = detection_timeline(&DetectorConfig::paper(), &NOOP);
//! assert!(timeline.iter().any(|p| p.helper_active));
//! ```

#![warn(missing_docs)]

pub mod chaos;
pub mod failover_lab;
pub mod metrics;
pub mod online;
pub mod packet_replay;
pub mod paper;
pub mod replay;

pub use chaos::{run_chaos, run_schedule, ChaosReport};
pub use metrics::{Series, Summary};
pub use online::{build_timeline, run_timeline, OnlineRunConfig, OnlineRunReport};
pub use packet_replay::{
    conformance, conformance_probes, differential_conformance_with, walk_batch, ConformanceError,
    ConformanceProbe, ConformanceReport, Schedule, WalkEngineConfig,
};
pub use replay::{ReplayConfig, ReplayError, ReplayOutcome};
