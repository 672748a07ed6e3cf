//! Virtual network function models for the APPLE reproduction.
//!
//! This crate captures everything the paper says about the VNFs themselves:
//!
//! * the **catalog** of Table IV — firewall (4 cores / 900 Mbps, ClickOS),
//!   proxy (4 cores / 900 Mbps, VM), NAT (2 cores / 900 Mbps, ClickOS) and
//!   IDS (8 cores / 600 Mbps, VM) — with per-NF resource requirement
//!   vectors `R_n` and capacities `Cap_n`,
//! * the **overload model** of Fig. 6: loss rate as a function of packet
//!   receiving rate for a ClickOS passive monitor (loss is driven by packet
//!   *rate*, not packet size),
//! * the **timing model** of §VII–VIII: ClickOS boot through OpenStack of
//!   3.9–4.6 s (avg 4.2 s), 70 ms forwarding-rule installation, 30 ms
//!   reconfiguration of an existing ClickOS VM, 30 ms bare-Xen ClickOS boot,
//! * the hysteresis **overload detector** (trip above 8.5 Kpps, clear below
//!   4 Kpps) that the Fig. 12 replay drives,
//! * running **instances**: identity, NF type and hosting switch.
//!
//! # Example
//!
//! ```
//! use apple_nf::{NfType, OverloadModel, VnfSpec};
//!
//! let fw = VnfSpec::of(NfType::Firewall);
//! assert_eq!(fw.cores, 4);
//! assert_eq!(fw.capacity_mbps, 900.0);
//! assert!(fw.clickos);
//! let monitor = OverloadModel::passive_monitor();
//! assert!(monitor.is_overloaded(9_000.0) && monitor.is_cleared(3_000.0));
//! ```

pub mod catalog;
pub mod instance;
pub mod overload;
pub mod timing;

pub use catalog::{NfType, ResourceVector, VnfSpec};
pub use instance::{InstanceId, VnfInstance};
pub use overload::OverloadModel;
pub use timing::TimingModel;
