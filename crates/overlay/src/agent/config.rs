//! The agent's tunables: one optional config per sub-machine on top of
//! the walk, retry and watchdog settings every agent has.

use super::{AdmissionConfig, HeartbeatConfig, ResilienceConfig};
use crate::repair::RepairConfig;
use crate::walk::WalkConfig;
use std::sync::{Arc, OnceLock};
use vdm_netsim::SimTime;

/// Agent-side tunables.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AgentConfig {
    /// Join-walk mechanics (timeouts, retries).
    pub walk: WalkConfig,
    /// Refinement period (§3.4: 3 minutes in simulation, 5 minutes on
    /// PlanetLab); `None` disables refinement, which is the paper's
    /// default for VDM ("In our regular experiments, we don't use
    /// refinement").
    pub refine_period: Option<SimTime>,
    /// Maintain and propagate root paths (HMTP needs them for
    /// refinement; VDM does not and saves the overhead).
    pub maintain_root_path: bool,
    /// Declare the subtree dark and rejoin if no stream data arrives for
    /// this long while connected. `None` disables the watchdog (for
    /// runs without a stream).
    pub data_timeout: Option<SimTime>,
    /// Exponential multiplier on [`super::RETRY_DELAY`] per consecutive
    /// failed walk (`1.0` keeps the fixed delay; chaos runs back off so
    /// a partitioned node doesn't flood the cut). Jitter follows
    /// `walk.jitter_frac`.
    pub retry_backoff: f64,
    /// Record a delivery-gap sample when the spacing between two
    /// accepted stream chunks reaches this threshold (recovery
    /// observability for chaos runs); `None` disables recording.
    pub gap_threshold: Option<SimTime>,
    /// Child-liveness heartbeats (ungraceful-failure extension);
    /// `None` matches the paper's graceful-leave model.
    pub heartbeat: Option<HeartbeatConfig>,
    /// Backup-parent failover + ancestor-list recovery
    /// (proactive-resilience extension); `None` keeps the paper's pure
    /// grandparent-walk recovery and, crucially, the exact event
    /// sequence of earlier builds.
    pub resilience: Option<ResilienceConfig>,
    /// Rejoin-storm admission control; `None` admits every join
    /// immediately as before.
    pub admission: Option<AdmissionConfig>,
    /// NACK-based stream gap repair; `None` keeps the fire-and-forget
    /// data plane.
    pub repair: Option<RepairConfig>,
    /// Cross-tree repair serving budget (multi-tree extension): a
    /// token bucket over [`crate::msg::Msg::CrossNack`]
    /// retransmissions, reusing the admission-control shape so
    /// sibling-tree pulls cannot starve a parent's own subtree. `None`
    /// disables serving (and, with it, the whole cross-tree path in
    /// single-tree runs). Requires `repair` to be set as well.
    pub cross_repair: Option<AdmissionConfig>,
    /// Vivaldi-style virtual-coordinate embedding (coordinate-guided
    /// joins; its tunables are the constants in [`crate::coords`]).
    /// `false` — the default — keeps every pre-coordinate byte
    /// sequence: no piggyback fields, no state, no extra RNG draws.
    pub coords: bool,
}

impl Default for AgentConfig {
    fn default() -> Self {
        Self {
            walk: WalkConfig::default(),
            refine_period: None,
            maintain_root_path: false,
            data_timeout: Some(SimTime::from_secs(30)),
            retry_backoff: 1.0,
            gap_threshold: None,
            heartbeat: None,
            resilience: None,
            admission: None,
            repair: None,
            cross_repair: None,
            coords: false,
        }
    }
}

impl AgentConfig {
    /// The chaos-grade control plane over this (the protocol's own)
    /// config: the hardened walk, retry backoff 2, a 15 s data
    /// watchdog, 10 s / 30 s child heartbeats and delivery gaps recorded
    /// from 5 s. Every fault ablation (A7, A8, A10, A11) starts here and
    /// adds only its own mechanisms on top; HMTP keeps its root paths
    /// and refinement.
    pub fn hardened(self) -> Self {
        Self {
            walk: WalkConfig::hardened(),
            retry_backoff: 2.0,
            data_timeout: Some(SimTime::from_secs(15)),
            heartbeat: Some(HeartbeatConfig {
                period: SimTime::from_secs(10),
                timeout: SimTime::from_secs(30),
            }),
            gap_threshold: Some(SimTime::from_secs(5)),
            ..self
        }
    }
}

/// A factory's [`AgentConfig`] behind one `Arc` that every agent the
/// factory makes shares, rather than each agent holding a copy.
#[derive(Clone, Debug, Default)]
pub struct SharedConfig(OnceLock<Arc<AgentConfig>>);

impl SharedConfig {
    /// `cfg` behind the shared `Arc`, which holds the config of the
    /// first call; a config edited since gets an `Arc` of its own.
    pub fn get(&self, cfg: &AgentConfig) -> Arc<AgentConfig> {
        let shared = self.0.get_or_init(|| Arc::new(*cfg));
        if **shared == *cfg {
            Arc::clone(shared)
        } else {
            Arc::new(*cfg)
        }
    }
}
