//! Traffic matrix and workload generation for the APPLE reproduction.
//!
//! The paper's simulations replay **672 snapshots of time-varying traffic
//! matrices** per topology (Abilene/Internet2 TMs, TOTEM/GEANT TMs, and a
//! trace-derived series for the UNIV1 data center; AS-3679 matrices are
//! synthesised with FNSS). Those traces are not redistributable, so this
//! crate synthesises series with the statistical structure the evaluation
//! depends on:
//!
//! * **spatial skew** from a gravity model with log-normal node masses,
//! * **large-time-scale drift** via diurnal + weekly modulation (672
//!   snapshots = 7 days × 96 15-minute slots),
//! * **small-time-scale burstiness** via the power-law mean–variance
//!   relationship (MVR) of traffic rates cited in §IV-A — aggregated flows
//!   have variance `a·mean^b` with `b < 2`, which is exactly why
//!   class-level aggregation smooths traffic,
//! * **burst injection** for the fast-failover experiments (Fig 12),
//!   which need sudden rate spikes on individual classes.
//!
//! # Example
//!
//! ```
//! use apple_topology::zoo;
//! use apple_traffic::{SeriesConfig, TmSeries};
//!
//! let topo = zoo::internet2();
//! let series = TmSeries::generate(&topo, &SeriesConfig::paper(1));
//! assert_eq!(series.len(), 672);
//! let mean = series.mean();
//! assert!(mean.total() > 0.0);
//! ```

pub mod arrivals;
pub mod flows;
pub mod gravity;
pub mod matrix;
pub mod series;

pub use flows::{Flow, FlowSet};
pub use gravity::GravityModel;
pub use matrix::TrafficMatrix;
pub use series::{SeriesConfig, TmSeries};
