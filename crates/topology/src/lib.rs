//! Graph models and generators for the VDM overlay-multicast reproduction.
//!
//! This crate provides the *underlay* building blocks the paper's evaluation
//! rests on:
//!
//! * [`graph`] — a compact undirected weighted graph with stable edge ids
//!   (needed for per-link *stress* accounting, Eq. 3.4 of the paper);
//! * [`transit_stub`] — a GT-ITM-style transit–stub topology generator
//!   (the paper's NS-2 experiments use a 792-node transit-stub graph);
//! * [`waxman`] — Waxman / Euclidean random graphs used for sensitivity
//!   studies;
//! * [`powerlaw`] — Barabási–Albert preferential-attachment graphs
//!   (AS-level-Internet-like degree distributions);
//! * [`shard`] — shard-aware power-law underlays (per-shard clusters
//!   joined by gateway links) with the `min_cross_shard_delay` lookahead
//!   oracle the sharded engine synchronizes on;
//! * [`geo`] — geographic site pools (continent clusters, great-circle
//!   latency) that back the emulated-PlanetLab substrate;
//! * [`spath`] — Dijkstra single-source, host-to-host ([`HostRouter`],
//!   the oracle the simulator routes packets over, as NS-2 does, over
//!   the graph it owns) and all-pairs shortest paths;
//! * [`router`] — [`HostRouter`]'s bounded distance store: host rows
//!   computed on demand and kept in an LRU, for underlays too large to
//!   hold every host pair;
//! * [`mst`] — Prim minimum spanning trees over arbitrary metrics (the
//!   paper's §5.4.6 MST-ratio comparison).
//!
//! All generators are deterministic given a seed, so every testbed is
//! rebuilt where it is used rather than stored.

pub mod geo;
pub mod graph;
pub mod mst;
pub mod powerlaw;
pub mod router;
pub mod shard;
pub mod spath;
pub mod transit_stub;
pub mod waxman;

pub use graph::{EdgeId, Graph, LinkAttrs, NodeId, NodeKind};
pub use router::{HostRow, RouterStats};
pub use spath::{Apsp, HostRouter, ShortestPaths};

/// SplitMix64's finalizer: the one cheap 64-bit avalanche every seeded
/// derivation in the workspace uses (per-shard RNG streams, per-tree
/// metric perturbation, coordinate tie-breaks, delivery fingerprints).
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Convenience alias: latency in milliseconds.
///
/// All distance-like quantities in this workspace are carried as `f64`
/// milliseconds; the discrete-event simulator converts to integer
/// microseconds at its boundary.
pub type Millis = f64;
