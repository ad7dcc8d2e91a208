//! Deterministic discrete-event network simulator.
//!
//! This is the NS-2-shaped substrate the paper's Chapter 3 evaluation runs
//! on, reduced to what overlay-multicast experiments need:
//!
//! * [`time`] — integer-microsecond simulated clock;
//! * [`engine`] — event queue (exact time buckets), timers, message
//!   delivery with per-packet loss, and a [`engine::World`] callback
//!   trait the overlay driver implements;
//! * [`underlay`] — the two network models: [`underlay::RoutedUnderlay`]
//!   (router graph + delay-shortest routes, per-link accounting for the
//!   stress metric — the NS-2 analogue) and [`underlay::LatencySpace`]
//!   (host-to-host metric space with jitter, inflation and lossy paths —
//!   the PlanetLab analogue);
//! * [`faults`] — seeded fault-injection schedules (link flaps,
//!   partitions, message-level faults, node slowdowns) applied at the
//!   engine's send hook for chaos experiments;
//! * [`shard`] — conservative parallel DES: one [`engine::Engine`] per
//!   host shard advancing in lookahead-bounded lock-step windows, with
//!   cross-shard deliveries exchanged at window barriers in a
//!   scheduling-independent order (bit-reproducible at fixed shard
//!   count; `S = 1` delegates to the plain engine byte-identically).
//!
//! The engine is strictly deterministic: events are ordered by
//! `(time, sequence-number)` and all randomness flows from one seeded RNG,
//! so a `(seed, scenario)` pair always reproduces the same run, which the
//! integration tests assert.

pub mod dataplane;
pub mod engine;
pub mod faults;
mod queue;
pub mod shard;
pub mod time;
pub mod underlay;

pub use dataplane::DataPlane;
pub use engine::{Engine, SendClass, World};
pub use faults::{ChaosSpec, FaultEvent, FaultPlan, SendFate};
pub use shard::{ShardMap, ShardedEngine};
pub use time::{SimTime, WallClock};
pub use underlay::{HostId, LatencySpace, RoutedUnderlay, ShardedUnderlay, Underlay};
