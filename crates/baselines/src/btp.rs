//! Banana Tree Protocol (BTP).
//!
//! "For a node to join the overlay tree, it first connects to the root
//! of the tree. Then it switches to a closer node which was a sibling
//! before" (§2.4.6). We implement the generalized switch-trees variant:
//! the initial join attaches at the root (redirecting down only when
//! full), and periodic refinement passes walk from the parent toward
//! strictly closer nodes, which realizes the sibling switch (and its
//! transitive closure) without extra machinery.

use rand::rngs::StdRng;
use vdm_netsim::{HostId, SimTime};
use vdm_overlay::agent::{AgentConfig, AgentFactory, ProtocolAgent, SharedConfig};
use vdm_overlay::peer::PeerState;
use vdm_overlay::walk::{ProbeResult, WalkPolicy, WalkPurpose, WalkStep};
use vdm_overlay::VDist;

/// The BTP policy.
#[derive(Clone, Copy, Debug, Default)]
pub struct BtpPolicy;

impl WalkPolicy for BtpPolicy {
    fn vdist(&self, rtt_ms: f64, _loss: f64) -> VDist {
        rtt_ms
    }

    fn decide(&self, p: &ProbeResult, purpose: WalkPurpose) -> WalkStep {
        match purpose {
            // Join/reconnect: attach to the root (or wherever the walk
            // was pointed); full nodes redirect us down.
            WalkPurpose::Join | WalkPurpose::Reconnect => WalkStep::Attach { splice: Vec::new() },
            // Refinement: the sibling switch — move toward a strictly
            // closer node.
            WalkPurpose::Refine => {
                let best = p.children.iter().min_by(|a, b| {
                    a.d_new_child
                        .total_cmp(&b.d_new_child)
                        .then(a.child.cmp(&b.child))
                });
                match best {
                    Some(b) if b.d_new_child < p.d_current => WalkStep::Descend(b.child),
                    _ => WalkStep::Attach { splice: Vec::new() },
                }
            }
        }
    }

    fn refine_requires_improvement(&self) -> bool {
        true
    }

    fn refine_start(&self, state: &PeerState, source: HostId, _rng: &mut StdRng) -> HostId {
        // Sibling switches are evaluated from the parent.
        state.parent.unwrap_or(source)
    }
}

/// Builds BTP agents (refinement on — BTP without switches is just a
/// star).
#[derive(Clone, Debug)]
pub struct BtpFactory {
    /// Agent mechanics.
    pub agent: AgentConfig,
    /// `agent`, shared by the agents this factory makes.
    shared: SharedConfig,
}

impl BtpFactory {
    /// BTP with the given switch-pass period.
    pub fn with_refine_period(period_s: u64) -> Self {
        let agent = AgentConfig {
            refine_period: (period_s > 0).then(|| SimTime::from_secs(period_s)),
            ..AgentConfig::default()
        };
        Self {
            agent,
            shared: SharedConfig::default(),
        }
    }
}

impl Default for BtpFactory {
    fn default() -> Self {
        Self::with_refine_period(60)
    }
}

impl AgentFactory for BtpFactory {
    type Agent = ProtocolAgent<BtpPolicy>;

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
            BtpPolicy,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use vdm_overlay::sync::SyncOverlay;

    static POS: [f64; 4] = [0.0, 8.0, 9.0, 2.0];

    fn dist(a: HostId, b: HostId) -> f64 {
        (POS[a.idx()] - POS[b.idx()]).abs()
    }

    #[test]
    fn joins_at_root_regardless_of_geometry() {
        let mut ov = SyncOverlay::new(4, HostId(0), 4, dist);
        for h in 1..4 {
            let tr = ov.join(HostId(h), 4, &BtpPolicy);
            assert_eq!(tr.parent, HostId(0));
        }
    }

    #[test]
    fn sibling_switch_moves_to_closer_node() {
        let mut ov = SyncOverlay::new(4, HostId(0), 4, dist);
        for h in 1..4 {
            ov.join(HostId(h), 4, &BtpPolicy);
        }
        // Node 2 (pos 9) is much closer to sibling 1 (pos 8) than to
        // the root: a refinement pass switches it.
        let mut rng = StdRng::seed_from_u64(1);
        let changed = ov.refine(HostId(2), &BtpPolicy, &mut rng);
        assert!(changed);
        assert_eq!(ov.peer(HostId(2)).parent, Some(HostId(1)));
        // Node 3 (pos 2) is closest to the root already: no switch.
        let changed3 = ov.refine(HostId(3), &BtpPolicy, &mut rng);
        assert!(!changed3);
        let snap = ov.snapshot();
        assert!(snap.validate(&ov.limits()).is_empty());
    }

    #[test]
    fn full_root_redirects_newcomers_down() {
        let mut ov = SyncOverlay::new(4, HostId(0), 1, dist);
        ov.join(HostId(1), 2, &BtpPolicy);
        let tr = ov.join(HostId(2), 2, &BtpPolicy);
        assert_eq!(tr.parent, HostId(1));
        let snap = ov.snapshot();
        assert!(snap.validate(&ov.limits()).is_empty());
    }
}
