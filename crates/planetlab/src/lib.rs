//! Emulated PlanetLab testbed (Chapter 5 substrate).
//!
//! PlanetLab itself is long gone, so this crate synthesizes the four
//! properties that made the paper's Chapter 5 different from its NS-2
//! chapter, and otherwise runs the *same* protocol agents:
//!
//! 1. **Real-metric-space RTTs with triangle-inequality violations** —
//!    sites live in geographic continent clusters ([`vdm_topology::geo`]);
//!    pairwise RTTs are fiber-speed great circles plus access delays,
//!    multiplied by a pairwise *inflation factor* modelling routing
//!    detours (the reason the paper's sample trees are "not an exact
//!    fit" to geography, §5.4.1).
//! 2. **Measurement noise and lazy nodes** — per-probe jitter plus a
//!    tail of slow responders (§5.3: "sometimes PlanetLab nodes are
//!    lazy to answer the information request").
//! 3. **Uncontrolled loss** — small per-path base loss plus a lossy-path
//!    tail (§5.4.2: "in PlanetLab we can't control the loss rate over
//!    links").
//! 4. **Unstable nodes** — a fraction of the pool is dead, blocks
//!    pings, or cannot run the agent; the three-stage filtering pipeline
//!    of Fig. 5.2 selects the working subset before each experiment.
//!
//! [`session`] then packages the paper's experiment shape: a main
//! controller executing a scenario file against per-node VDM agents,
//! the sender streaming 10 chunks/s, 5000 s sessions with a 2000 s
//! join-only phase (§5.4.2).

pub mod bandwidth;
pub mod pool;
pub mod session;
pub mod space;

pub use bandwidth::UplinkModel;
pub use pool::{NodeHealth, NodePool, PoolConfig};
pub use session::{SessionConfig, SessionRunner};
pub use space::build_latency_space;
