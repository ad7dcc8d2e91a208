//! Overlay multicast framework.
//!
//! Everything protocol-*independent* about the paper's evaluation lives
//! here; the protocols themselves (VDM in `vdm-core`, HMTP/BTP/star in
//! `vdm-baselines`) plug in as small *policies*:
//!
//! * [`msg`] — the control/data message set exchanged between peers
//!   (information request/response, ping/pong probes, connection
//!   request/response, parent/grandparent change, leave — §5.2.2 of the
//!   paper enumerates exactly these);
//! * [`peer`] — per-peer tree bookkeeping (parent, grandparent, children
//!   with stored virtual distances, degree limit);
//! * [`walk`] — the iterative top-down *join walk* shared by VDM and HMTP:
//!   probe the current node and its children, let the protocol's
//!   [`walk::WalkPolicy`] pick the next step, handle timeouts, redirects
//!   and splices;
//! * [`agent`] — the message-driven peer agent ([`agent::ProtocolAgent`])
//!   that runs walks, answers queries, forwards the stream, reconnects
//!   orphans at the grandparent and optionally refines periodically;
//! * [`arena`] — flat struct-of-arrays per-host state ([`HostArena`])
//!   indexed by contiguous host id;
//! * [`discovery`] — decentralized bootstrap membership: iterative peer
//!   discovery from a small seed set over a gossiped partial view, so a
//!   walk can start from a discovered live anchor instead of the source;
//! * [`coords`] — a Vivaldi-style virtual-coordinate embedding
//!   maintained piggyback on walk/gossip traffic; joiners rank anchors
//!   by coordinate distance and enter the walk mid-tree;
//! * [`tree`] — global tree snapshots and structural validation;
//! * [`sync`] — a synchronous oracle executor that runs the *same*
//!   policies against exact distances (used by unit tests, the MST
//!   comparison, and the paper's worked join examples);
//! * [`scenario`] — seeded join/leave/churn schedules (§3.6.2, §5.4);
//! * [`metrics`] — stress, stretch, hop count, resource usage, MST ratio
//!   (Eqs. 3.4–3.7 and §5.3);
//! * [`driver`] — the one discrete-event [`netsim`](vdm_netsim) world:
//!   executes a scenario against `k` trees of agents (`k = 1` is the
//!   plain single-tree run) and collects measurements;
//! * [`multitree`] — what `k ≥ 2` adds around that world: the virtual
//!   id space, the striped underlay fold, fault expansion and the
//!   interior-disjointness measures (ablation A10);
//! * [`stats`] — run statistics and measurement records.

pub mod agent;
pub mod arena;
mod bucket;
pub mod coords;
pub mod core;
pub mod discovery;
pub mod driver;
pub mod metrics;
pub mod msg;
pub mod multitree;
pub mod peer;
pub mod repair;
pub mod scenario;
pub mod stats;
pub mod sync;
pub mod tree;
pub mod walk;

pub use agent::{AdmissionConfig, AgentConfig, Ctx, OverlayAgent, ProtocolAgent, ResilienceConfig};
pub use arena::HostArena;
pub use coords::{Coord, CoordSample, CoordTable, VivaldiState};
pub use core::{CoreIo, Input, Output, ProtocolCore};
pub use discovery::{DiscoveryConfig, DiscoveryState};
pub use driver::{Driver, DriverConfig, RunOutput};
pub use metrics::TreeMetrics;
pub use msg::Msg;
pub use multitree::{
    expand_faults, fold_vid, interior_overlap, interior_victim, striped_limits, MtSlot,
    MultiTreeOutput, StripedUnderlay,
};
pub use repair::{GapTracker, RepairConfig, RetransmitRing};
pub use scenario::{Action, Scenario};
pub use stats::{RunStats, SlotMeasurement, Summary};
pub use tree::TreeSnapshot;
pub use walk::{ChildProbe, ProbeResult, WalkPolicy, WalkStep};

/// Virtual distance between two peers, in metric-dependent units
/// (milliseconds of RTT for delay-based trees, `-ln(1-p)` for loss-based
/// trees — Chapter 4's generalization).
pub type VDist = f64;
