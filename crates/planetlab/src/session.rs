//! Streaming sessions in the emulated testbed.
//!
//! Mirrors the paper's experiment shape (§5.2.2, §5.4.2): a *scenario*
//! determines when each node joins and leaves; the *main controller*
//! (our driver) executes it; every node runs a protocol agent
//! (*VDMAgent*); the source's *sender* streams 10 chunks per second and
//! every *transceiver* forwards to its children. "An experiment is
//! taking 5000 seconds [...] First 2000 seconds are spent for join
//! processes only. In the remaining 3000 seconds, churn takes place."

use crate::pool::{NodePool, PoolConfig};
use crate::space::build_latency_space;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::Arc;
use vdm_netsim::{HostId, LatencySpace, SimTime, Underlay};
use vdm_overlay::agent::AgentFactory;
use vdm_overlay::driver::{Driver, DriverConfig, RunOutput};
use vdm_overlay::scenario::{ChurnConfig, Scenario};
use vdm_topology::geo::Site;

/// Session parameters (defaults = the paper's §5.4.2 setup).
#[derive(Clone, Debug)]
pub struct SessionConfig {
    /// Pool synthesis.
    pub pool: PoolConfig,
    /// Overlay population (paper: 100 out of ≈ 140 working nodes).
    pub nodes: usize,
    /// Per-node degree limit range, inclusive (paper: fixed 4).
    pub degree: (u32, u32),
    /// Derive degree limits from uplink capacities instead of `degree`
    /// (the §6.2 future-work extension); overrides `degree` when set.
    pub uplink: Option<crate::bandwidth::UplinkModel>,
    /// Join-only warmup, seconds (paper: 2000).
    pub warmup_s: f64,
    /// Churn slot length, seconds.
    pub slot_s: f64,
    /// Number of churn slots (paper: 3000 s of churn).
    pub slots: usize,
    /// Per-slot churn percentage.
    pub churn_pct: f64,
    /// Stream chunk interval, ms (paper: "sending 10 chunks in 1
    /// second" → 100 ms).
    pub chunk_interval_ms: f64,
    /// Compute the MST ratio at each measurement.
    pub compute_mst_ratio: bool,
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self {
            pool: PoolConfig::us_paper(),
            nodes: 100,
            degree: (4, 4),
            uplink: None,
            warmup_s: 2000.0,
            slot_s: 300.0,
            slots: 10,
            churn_pct: 5.0,
            chunk_interval_ms: 100.0,
            compute_mst_ratio: false,
        }
    }
}

/// A prepared testbed: filtered pool, latency space, selected nodes.
pub struct SessionRunner {
    /// The synthesized network.
    pub space: Arc<LatencySpace>,
    /// Sites of all working pool nodes (host id = index).
    pub sites: Vec<Site>,
    /// Region name per working node.
    pub region_names: Vec<&'static str>,
    /// The selected streaming source (most central selected node, the
    /// paper's "node in Colorado").
    pub source: HostId,
    /// Selected overlay candidates (source excluded).
    pub candidates: Vec<HostId>,
    /// Degree limit per host.
    pub limits: Vec<u32>,
    cfg: SessionConfig,
}

impl SessionRunner {
    /// Generate the pool, filter it (Fig. 5.2), synthesize the latency
    /// space, and select `cfg.nodes` experiment nodes.
    pub fn prepare(cfg: &SessionConfig, seed: u64) -> Self {
        let (sites, lazy) = NodePool::generate(&cfg.pool, seed).working_sites();
        let space = build_latency_space(&sites, &lazy, seed);
        assert!(
            sites.len() > cfg.nodes,
            "working pool ({}) must exceed the experiment size ({})",
            sites.len(),
            cfg.nodes
        );
        let region_names = {
            let regions = &cfg.pool.regions;
            sites.iter().map(|s| regions[s.region].name).collect()
        };
        let space = Arc::new(space);
        // Selection and degree draws use an RNG stream independent of
        // pool/space synthesis.
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7365_7373);

        // Select nodes+1 hosts; the most central becomes the source.
        let mut pool_idx: Vec<u32> = (0..sites.len() as u32).collect();
        for i in (1..pool_idx.len()).rev() {
            let j = rng.gen_range(0..=i);
            pool_idx.swap(i, j);
        }
        let mut selected: Vec<HostId> = pool_idx[..cfg.nodes + 1]
            .iter()
            .map(|&i| HostId(i))
            .collect();
        let central = |h: HostId| -> f64 {
            selected
                .iter()
                .filter(|&&o| o != h)
                .map(|&o| space.rtt_ms(h, o))
                .sum()
        };
        // Host-id tie-break: `selected` is freshly shuffled, so without
        // it two equally-central hosts would resolve by shuffle order.
        let source = *selected
            .iter()
            .min_by(|&&a, &&b| central(a).total_cmp(&central(b)).then(a.0.cmp(&b.0)))
            .expect("non-empty selection");
        selected.retain(|&h| h != source);

        let limits = match &cfg.uplink {
            Some(model) => model.degree_limits(sites.len(), seed),
            None => (0..sites.len())
                .map(|_| rng.gen_range(cfg.degree.0..=cfg.degree.1))
                .collect(),
        };

        Self {
            space,
            sites,
            region_names,
            source,
            candidates: selected,
            limits,
            cfg: cfg.clone(),
        }
    }

    /// The churn scenario for this session.
    pub fn scenario(&self, seed: u64) -> Scenario {
        Scenario::churn(
            &ChurnConfig {
                members: self.cfg.nodes,
                warmup_s: self.cfg.warmup_s,
                slot_s: self.cfg.slot_s,
                slots: self.cfg.slots,
                churn_pct: self.cfg.churn_pct,
            },
            &self.candidates,
            seed,
        )
    }

    /// The driver settings of this testbed's sessions: the configured
    /// chunk interval and MST ratio, no physical links to stress.
    pub fn driver_config(&self) -> DriverConfig {
        DriverConfig {
            data_interval: Some(SimTime::from_ms(self.cfg.chunk_interval_ms)),
            compute_stress: false,
            compute_mst_ratio: self.cfg.compute_mst_ratio,
            loss_probe_noise: 0.0,
            data_plane: false,
        }
    }

    /// Run one session with the given protocol factory.
    pub fn run<F: AgentFactory>(&self, factory: F, seed: u64) -> RunOutput {
        let scenario = self.scenario(seed);
        let driver = Driver::new(
            self.space.clone(),
            None,
            self.source,
            factory,
            &scenario,
            self.limits.clone(),
            self.driver_config(),
            seed,
        );
        driver.run()
    }

    /// Human-readable label for tree renderings ("US-East:h12").
    pub fn label(&self, h: HostId) -> String {
        format!("{}:{}", self.region_names[h.idx()], h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdm_core::VdmFactory;

    fn tiny_cfg() -> SessionConfig {
        SessionConfig {
            nodes: 20,
            warmup_s: 60.0,
            slot_s: 60.0,
            slots: 2,
            churn_pct: 10.0,
            chunk_interval_ms: 500.0,
            ..SessionConfig::default()
        }
    }

    #[test]
    fn prepare_selects_a_central_source() {
        let r = SessionRunner::prepare(&tiny_cfg(), 1);
        assert_eq!(r.candidates.len(), 20);
        assert!(!r.candidates.contains(&r.source));
        // The source minimizes total RTT among the selected set.
        let total = |h: HostId| -> f64 { r.candidates.iter().map(|&o| r.space.rtt_ms(h, o)).sum() };
        let src_total = total(r.source);
        for &c in &r.candidates {
            let mut t = total(c) - r.space.rtt_ms(c, r.source); // exclude self-pair asymmetry
            t += r.space.rtt_ms(c, r.source);
            assert!(src_total <= t + 1e-6 + 2.0 * r.space.rtt_ms(c, r.source));
        }
        assert!(r.label(r.source).contains("US"));
    }

    #[test]
    fn vdm_session_runs_and_connects() {
        let r = SessionRunner::prepare(&tiny_cfg(), 2);
        let out = r.run(VdmFactory::delay_based(), 2);
        let last = out.stats.measurements.last().expect("measurements");
        assert_eq!(last.members, 20);
        assert_eq!(last.connected, 20, "all members should reconnect");
        assert_eq!(last.tree_errors, 0);
        assert!(last.stretch.mean >= 1.0 || last.stretch.mean == 0.0);
        assert!(last.loss_rate < 0.30, "loss {}", last.loss_rate);
        assert!(!out.stats.startup_s.is_empty());
        // PlanetLab-style startup times: sub-second to a few seconds.
        let avg_startup =
            out.stats.startup_s.iter().sum::<f64>() / out.stats.startup_s.len() as f64;
        assert!(avg_startup < 5.0, "avg startup {avg_startup}");
    }

    #[test]
    fn uplink_model_drives_degrees() {
        let cfg = SessionConfig {
            uplink: Some(crate::bandwidth::UplinkModel::residential_2011()),
            ..tiny_cfg()
        };
        let r = SessionRunner::prepare(&cfg, 4);
        assert!(r.limits.contains(&1));
        assert!(r.limits.iter().any(|&d| d >= 4));
        // The heterogeneous session still connects everyone.
        let out = r.run(VdmFactory::delay_based(), 4);
        let last = out.stats.measurements.last().unwrap();
        assert_eq!(last.connected, last.members);
        assert_eq!(last.tree_errors, 0);
    }

    #[test]
    fn sessions_are_deterministic() {
        let r = SessionRunner::prepare(&tiny_cfg(), 3);
        let a = r.run(VdmFactory::delay_based(), 3);
        let b = r.run(VdmFactory::delay_based(), 3);
        assert_eq!(a.stats.startup_s, b.stats.startup_s);
        assert_eq!(a.final_snapshot.parent, b.final_snapshot.parent);
    }
}
