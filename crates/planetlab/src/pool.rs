//! The node pool and the Fig. 5.2 filtering pipeline.
//!
//! "On PlanetLab, some nodes aren't working. Some nodes block ping
//! messages. [...] We first get all the nodes, then send ping messages
//! to all nodes. Unresponding nodes are eliminated. Then, we try to
//! send ping messages from inside the node to others. Again, we
//! eliminate the nodes that don't allow pinging. Finally we run a small
//! program at every node [to make] sure that we can run our agent"
//! (§5.2.1). The pool synthesizes those defects and the pipeline
//! filters them out, yielding the "pool of working nodes that has
//! around 140 nodes" of §5.4.2.

use rand::{rngs::StdRng, Rng, SeedableRng};
use vdm_topology::geo::{sample_sites, Region, Site};

/// Health classification of a pool node.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NodeHealth {
    /// Fully usable.
    Working,
    /// Does not respond to pings at all (filter stage 1).
    Dead,
    /// Responds, but blocks outbound pings from inside (stage 2).
    BlocksPing,
    /// Pingable both ways but the agent cannot run (stage 3).
    AgentBroken,
    /// Usable but slow to answer requests (kept; degrades tails).
    Lazy,
}

/// Fraction of dead nodes.
const DEAD_FRAC: f64 = 0.15;
/// Fraction blocking pings.
const BLOCKS_PING_FRAC: f64 = 0.08;
/// Fraction with broken agents.
const AGENT_BROKEN_FRAC: f64 = 0.07;
/// Fraction of lazy (slow-responding) nodes among the survivors.
const LAZY_FRAC: f64 = 0.10;

/// Pool generation parameters: where the sites are and how many. The
/// health mix is the constants above.
#[derive(Clone, Debug)]
pub struct PoolConfig {
    /// Regions sites are drawn from.
    pub regions: Vec<Region>,
    /// Raw pool size before filtering.
    pub raw_nodes: usize,
}

impl PoolConfig {
    /// A US-only pool sized like the paper's: roughly 200 raw nodes
    /// filtering down to ≈ 140 working ones (§5.4.2).
    pub fn us_paper() -> Self {
        Self {
            regions: vdm_topology::geo::us_regions(),
            raw_nodes: 200,
        }
    }

    /// A world-wide pool shaped like Fig. 5.1.
    pub fn world(raw_nodes: usize) -> Self {
        Self {
            regions: vdm_topology::geo::planetlab_regions(),
            raw_nodes,
        }
    }
}

/// One pool node.
#[derive(Clone, Debug)]
pub struct PoolNode {
    /// Geographic site.
    pub site: Site,
    /// Health class.
    pub health: NodeHealth,
}

/// The raw pool plus the filtering pipeline.
#[derive(Clone, Debug)]
pub struct NodePool {
    nodes: Vec<PoolNode>,
}

impl NodePool {
    /// Generate a pool deterministically.
    pub fn generate(cfg: &PoolConfig, seed: u64) -> Self {
        let sites = sample_sites(&cfg.regions, cfg.raw_nodes, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x706f_6f6c);
        let nodes = sites
            .into_iter()
            .map(|site| {
                let r: f64 = rng.gen();
                let health = if r < DEAD_FRAC {
                    NodeHealth::Dead
                } else if r < DEAD_FRAC + BLOCKS_PING_FRAC {
                    NodeHealth::BlocksPing
                } else if r < DEAD_FRAC + BLOCKS_PING_FRAC + AGENT_BROKEN_FRAC {
                    NodeHealth::AgentBroken
                } else if r < DEAD_FRAC + BLOCKS_PING_FRAC + AGENT_BROKEN_FRAC + LAZY_FRAC {
                    NodeHealth::Lazy
                } else {
                    NodeHealth::Working
                };
                PoolNode { site, health }
            })
            .collect();
        Self { nodes }
    }

    /// All raw nodes.
    pub fn raw(&self) -> &[PoolNode] {
        &self.nodes
    }

    /// Stage 1: drop nodes that do not answer pings from the outside.
    pub fn filter_responding(&self) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&i| self.nodes[i].health != NodeHealth::Dead)
            .collect()
    }

    /// Stage 2: of `survivors`, drop nodes that cannot ping out.
    pub fn filter_ping_out(&self, survivors: &[usize]) -> Vec<usize> {
        survivors
            .iter()
            .copied()
            .filter(|&i| self.nodes[i].health != NodeHealth::BlocksPing)
            .collect()
    }

    /// Stage 3: of `survivors`, drop nodes where the agent does not
    /// come up (no declaration message back to the controller).
    pub fn filter_agent_runs(&self, survivors: &[usize]) -> Vec<usize> {
        survivors
            .iter()
            .copied()
            .filter(|&i| self.nodes[i].health != NodeHealth::AgentBroken)
            .collect()
    }

    /// The full three-stage pipeline; returns indexes of working nodes
    /// (lazy nodes survive — they answer, just slowly).
    pub fn working(&self) -> Vec<usize> {
        let s1 = self.filter_responding();
        let s2 = self.filter_ping_out(&s1);
        self.filter_agent_runs(&s2)
    }

    /// Sites of the working set, plus which of them are lazy.
    pub fn working_sites(&self) -> (Vec<Site>, Vec<bool>) {
        let idx = self.working();
        let sites = idx.iter().map(|&i| self.nodes[i].site.clone()).collect();
        let lazy = idx
            .iter()
            .map(|&i| self.nodes[i].health == NodeHealth::Lazy)
            .collect();
        (sites, lazy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_filters_each_stage() {
        let pool = NodePool::generate(&PoolConfig::us_paper(), 1);
        assert_eq!(pool.raw().len(), 200);
        let s1 = pool.filter_responding();
        let s2 = pool.filter_ping_out(&s1);
        let s3 = pool.filter_agent_runs(&s2);
        assert!(s1.len() < 200, "stage 1 should drop dead nodes");
        assert!(s2.len() < s1.len(), "stage 2 should drop ping blockers");
        assert!(s3.len() < s2.len(), "stage 3 should drop broken agents");
        assert_eq!(pool.working(), s3);
        // The paper's working pool is "around 140 nodes".
        assert!(
            (120..=160).contains(&s3.len()),
            "working pool size {} out of the expected band",
            s3.len()
        );
    }

    #[test]
    fn working_sites_track_laziness() {
        let pool = NodePool::generate(&PoolConfig::us_paper(), 2);
        let (sites, lazy) = pool.working_sites();
        assert_eq!(sites.len(), lazy.len());
        assert!(lazy.iter().any(|&l| l), "some lazy nodes should survive");
        assert!(!lazy.iter().all(|&l| l));
    }

    #[test]
    fn generation_is_deterministic() {
        let a = NodePool::generate(&PoolConfig::us_paper(), 7);
        let b = NodePool::generate(&PoolConfig::us_paper(), 7);
        assert_eq!(a.working(), b.working());
        let c = NodePool::generate(&PoolConfig::us_paper(), 8);
        assert_ne!(a.working(), c.working());
    }

    #[test]
    fn world_pool_spans_regions() {
        let pool = NodePool::generate(&PoolConfig::world(300), 3);
        let (sites, _) = pool.working_sites();
        let mut regions: Vec<usize> = sites.iter().map(|s| s.region).collect();
        regions.sort_unstable();
        regions.dedup();
        assert!(regions.len() >= 5, "expected several continents");
    }
}
