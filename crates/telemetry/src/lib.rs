//! Telemetry substrate for the APPLE reproduction.
//!
//! Every optimisation PR on the roadmap needs two things this crate
//! provides: *visibility* (where do time and capacity go?) and *evidence*
//! (before/after numbers from the same instrumentation). It is deliberately
//! zero-dependency and cheap enough to leave compiled into hot paths:
//!
//! * [`Recorder`] — the sink trait. Instrumented code takes
//!   `&dyn Recorder`; the default [`NOOP`] recorder reduces every call to a
//!   branch on [`Recorder::enabled`], so un-instrumented runs pay nothing
//!   measurable.
//! * [`MemoryRecorder`] — a thread-safe in-memory implementation keeping
//!   counters, gauges and log-bucketed [`Histogram`]s, snapshottable to
//!   JSON ([`Snapshot::to_json`]) and parseable back
//!   ([`Snapshot::from_json`]) so benches can diff runs.
//! * [`Span`] — hierarchical wall-clock timers
//!   (`rec.span("engine.place").child("solve")`) that record into
//!   `span.<path>` histograms (milliseconds) plus a `span.<path>.calls`
//!   counter.
//! * [`json`] — a dependency-free JSON value, parser and writer, shared by
//!   snapshot serialisation and the `benchmark/` harness's result and
//!   trace files.
//!
//! Metric names are dot-separated lowercase paths (`lp.pivots`,
//! `engine.rounding_gap`, `span.engine.place.solve`). Histogram values are
//! unit-free; by convention durations are recorded in **milliseconds**.
//!
//! # Example
//!
//! ```
//! use apple_telemetry::{MemoryRecorder, Recorder, RecorderExt};
//!
//! let rec = MemoryRecorder::new();
//! rec.counter("lp.pivots", 42);
//! rec.gauge("engine.rounding_gap", 1.5);
//! {
//!     let span = rec.span("engine.place");
//!     let child = span.child("solve");
//!     rec.observe("lp.solve_ms", 0.25);
//!     drop(child);
//! }
//! let snap = rec.snapshot();
//! assert_eq!(snap.counter("lp.pivots"), Some(42));
//! assert_eq!(snap.counter("span.engine.place.calls"), Some(1));
//! let json = snap.to_json();
//! let back = apple_telemetry::Snapshot::from_json(&json).unwrap();
//! assert_eq!(back.counter("lp.pivots"), Some(42));
//! ```

#![warn(missing_docs)]

mod histogram;
pub mod json;
mod recorder;
mod snapshot;
mod span;

pub use histogram::Histogram;
pub use json::{Json, JsonError};
pub use recorder::{MemoryRecorder, NoopRecorder, Recorder, NOOP};
pub use snapshot::{HistogramSnapshot, Snapshot};
pub use span::{RecorderExt, Span};
