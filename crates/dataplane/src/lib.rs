//! SDN data-plane substrate: TCAM tables, the APPLE tagging pipeline, and a
//! packet-walk engine.
//!
//! §V-B of the paper introduces a two-field tagging scheme so that expensive
//! header classification happens **once, at the ingress switch**:
//!
//! * a **host ID** tag names the next APPLE host that must process the
//!   packet (or `Fin` when the policy chain is complete),
//! * a **sub-class ID** tag pins the packet to the VNF-instance sequence
//!   its sub-class was assigned (IDs are local to a class and may be
//!   multiplexed across classes).
//!
//! Table III gives the physical-switch TCAM layout (host match →
//! classification → pass-by), and vSwitches inside APPLE hosts match
//! `<InPort, class, sub-class>` to steer packets across VNF instances.
//! This crate implements those tables and provides two [`walk::WalkEngine`]
//! implementations that replay a packet across its forwarding path and
//! record the VNF instances traversed — the oracle used by the
//! policy-enforcement property tests:
//!
//! * [`walk::NetworkWalker`] — the reference linear first-match scan,
//! * [`fastpath::CompiledProgram`] — the compiled fast path (LPM tries +
//!   exact-match tag tables, DESIGN.md §12), bitwise-identical to the
//!   linear scan and incrementally patchable through
//!   [`fastpath::CompiledProgram::rebuild_delta`].
//!
//! # Example
//!
//! ```
//! use apple_dataplane::packet::{HostTag, Packet};
//!
//! let mut p = Packet::new(0x0a010101, 0x0a020202, 1234, 80, 6);
//! assert_eq!(p.host_tag, HostTag::Empty);
//! p.subclass_tag = Some(3);
//! assert_eq!(p.subclass_tag, Some(3));
//! ```

#![warn(missing_docs)]

pub mod compiler;
pub mod diff;
pub mod fastpath;
pub mod packet;
pub mod southbound;
pub mod switch;
pub mod tcam;
pub mod walk;

pub use compiler::{compile, CompilerSnapshot, RuleProgram, SubclassSpec};
pub use diff::{diff, ApplyError, UpdateBatch, UpdatePlan, UpdateStats};
pub use fastpath::{CompiledHost, CompiledProgram, CompiledSwitch};
pub use packet::{HostTag, Packet};
pub use southbound::{
    apply_plan_async, BarrierId, CompletedBarrier, DeviceKey, SouthboundChannel, SouthboundConfig,
    SouthboundError, SouthboundEvent, SouthboundReport, SouthboundStats,
};
pub use switch::{PhysicalSwitch, VSwitch, VSwitchRule};
pub use tcam::{Action, MatchSpec, TcamRule, TcamTable};
pub use walk::{NetworkWalker, WalkEngine, WalkError, WalkRecord};
