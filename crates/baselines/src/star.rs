//! The unicast star: every receiver connects directly to the source.
//!
//! This is the paper's implicit reference point for both extremes:
//! stretch is optimal (exactly 1, §3.6.3 "Unicast is assumed to have
//! optimal stretch") and network usage/stress are worst-case ("This
//! model causes inefficient use of resources", §2.1.1). Experiments use
//! it to normalize resource usage and to sanity-check the metrics.

use vdm_netsim::HostId;
use vdm_overlay::agent::{AgentConfig, AgentFactory, ProtocolAgent, SharedConfig};
use vdm_overlay::walk::{ProbeResult, WalkPolicy, WalkPurpose, WalkStep};
use vdm_overlay::VDist;

/// Always attach to the node being examined (the walk starts at the
/// source, so with an unconstrained source this is a pure star).
#[derive(Clone, Copy, Debug, Default)]
pub struct StarPolicy;

impl WalkPolicy for StarPolicy {
    fn vdist(&self, rtt_ms: f64, _loss: f64) -> VDist {
        rtt_ms
    }

    fn decide(&self, _p: &ProbeResult, _purpose: WalkPurpose) -> WalkStep {
        WalkStep::Attach { splice: Vec::new() }
    }
}

/// Builds star agents (no refinement, no root paths).
#[derive(Clone, Debug, Default)]
pub struct StarFactory {
    /// Agent mechanics.
    pub agent: AgentConfig,
    /// `agent`, shared by the agents this factory makes.
    shared: SharedConfig,
}

impl AgentFactory for StarFactory {
    type Agent = ProtocolAgent<StarPolicy>;

    fn make(
        &self,
        host: HostId,
        source: HostId,
        degree_limit: u32,
        incarnation: u32,
    ) -> Self::Agent {
        ProtocolAgent::new(
            host,
            source,
            degree_limit,
            incarnation,
            self.shared.get(&self.agent),
            StarPolicy,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdm_overlay::sync::SyncOverlay;

    #[test]
    fn unconstrained_source_gives_a_pure_star() {
        let dist = |a: HostId, b: HostId| (a.0 as f64 - b.0 as f64).abs() * 3.0;
        let mut ov = SyncOverlay::new(6, HostId(0), u32::MAX, dist);
        for h in 1..6 {
            let tr = ov.join(HostId(h), 4, &StarPolicy);
            assert_eq!(tr.parent, HostId(0));
        }
        let snap = ov.snapshot();
        assert!(snap.depths().iter().flatten().all(|&d| d <= 1));
    }
}
