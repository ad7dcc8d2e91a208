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
use crate::space::{build_latency_space, SpaceConfig};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::Arc;
use vdm_netsim::{HostId, LatencySpace, SimTime, Underlay};
use vdm_overlay::agent::AgentFactory;
use vdm_overlay::driver::{Driver, DriverConfig, RunOutput};
use vdm_overlay::scenario::{ChurnConfig, Scenario};
use vdm_topology::cache::{self, codec, KeyHasher};
use vdm_topology::geo::{GeoPoint, Site};

/// Session parameters (defaults = the paper's §5.4.2 setup).
#[derive(Clone, Debug)]
pub struct SessionConfig {
    /// Pool synthesis.
    pub pool: PoolConfig,
    /// Latency-space synthesis.
    pub space: SpaceConfig,
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
            space: SpaceConfig::default(),
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

/// The expensive pure extract of a session: working sites (post
/// filtering), their lazy flags, and the synthesized latency space.
/// Everything downstream (node selection, degree limits, scenarios) is
/// cheap and derived from independent RNG streams, so this is the unit
/// the artifact cache stores.
type SessionExtract = (Vec<Site>, Vec<bool>, LatencySpace);

fn encode_extract((sites, lazy, space): &SessionExtract) -> Vec<u8> {
    let space_bytes = space.to_bytes();
    let mut w = codec::ByteWriter::with_capacity(sites.len() * 32 + space_bytes.len() + 64);
    w.put_u32(sites.len() as u32);
    for s in sites {
        w.put_f64(s.point.lat);
        w.put_f64(s.point.lon);
        w.put_u32(s.region as u32);
        w.put_f64(s.access_ms);
    }
    for &l in lazy {
        w.put_u8(l as u8);
    }
    w.put_blob(&space_bytes);
    w.into_bytes()
}

/// Decode [`encode_extract`] output; `None` (a cache miss, triggering a
/// fresh build) on any corruption or dimension mismatch.
fn decode_extract(bytes: &[u8], num_regions: usize) -> Option<SessionExtract> {
    let mut r = codec::ByteReader::new(bytes);
    let n = r.get_u32()? as usize;
    let mut sites = Vec::with_capacity(n);
    for _ in 0..n {
        let lat = r.get_f64()?;
        let lon = r.get_f64()?;
        let region = r.get_u32()? as usize;
        let access_ms = r.get_f64()?;
        if region >= num_regions || !lat.is_finite() || !lon.is_finite() || !access_ms.is_finite() {
            return None;
        }
        sites.push(Site {
            point: GeoPoint { lat, lon },
            region,
            access_ms,
        });
    }
    let mut lazy = Vec::with_capacity(n);
    for _ in 0..n {
        lazy.push(r.get_u8()? != 0);
    }
    let space = LatencySpace::from_bytes(r.get_blob()?)?;
    if !r.at_end() || space.num_hosts() != n {
        return None;
    }
    Some((sites, lazy, space))
}

/// Pool + space synthesis through the global artifact cache. The key
/// covers every pool and space parameter plus the seed, so a hit is
/// bit-identical to a fresh extract.
fn cached_extract(cfg: &SessionConfig, seed: u64) -> SessionExtract {
    let mut h = KeyHasher::new();
    h.feed_usize(cfg.pool.regions.len());
    for r in &cfg.pool.regions {
        h.feed_str(r.name)
            .feed_f64(r.lat.0)
            .feed_f64(r.lat.1)
            .feed_f64(r.lon.0)
            .feed_f64(r.lon.1)
            .feed_f64(r.weight);
    }
    h.feed_usize(cfg.pool.raw_nodes)
        .feed_f64(cfg.pool.dead_frac)
        .feed_f64(cfg.pool.blocks_ping_frac)
        .feed_f64(cfg.pool.agent_broken_frac)
        .feed_f64(cfg.pool.lazy_frac);
    h.feed_f64(cfg.space.inflation_mu)
        .feed_f64(cfg.space.inflation_sigma)
        .feed_f64(cfg.space.jitter_frac)
        .feed_f64(cfg.space.base_loss)
        .feed_f64(cfg.space.lossy_path_frac)
        .feed_f64(cfg.space.lossy_path_extra)
        .feed_f64(cfg.space.lazy_extra_ms)
        .feed_f64(cfg.space.lazy_prob);
    h.feed_u64(seed);
    let num_regions = cfg.pool.regions.len();
    cache::get_or_compute_global(
        &h.key("planetlab-extract"),
        || {
            let pool = NodePool::generate(&cfg.pool, seed);
            let (sites, lazy) = pool.working_sites();
            let space = build_latency_space(&sites, &lazy, &cfg.space, seed);
            (sites, lazy, space)
        },
        encode_extract,
        |bytes| decode_extract(bytes, num_regions),
    )
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
        let (sites, _lazy, space) = cached_extract(cfg, seed);
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
        // pool/space synthesis, so cache hits change nothing downstream.
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
            data_plane: None,
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
    fn extract_roundtrips_and_rejects_corruption() {
        let cfg = tiny_cfg();
        let pool = NodePool::generate(&cfg.pool, 7);
        let (sites, lazy) = pool.working_sites();
        let space = build_latency_space(&sites, &lazy, &cfg.space, 7);
        let fresh = (sites, lazy, space);
        let bytes = encode_extract(&fresh);
        let back = decode_extract(&bytes, cfg.pool.regions.len()).expect("roundtrip");
        assert_eq!(back.0, fresh.0);
        assert_eq!(back.1, fresh.1);
        assert_eq!(back.2.to_bytes(), fresh.2.to_bytes());
        // Truncation and trailing garbage are both misses, not panics.
        assert!(decode_extract(&bytes[..bytes.len() - 1], cfg.pool.regions.len()).is_none());
        let mut longer = bytes.clone();
        longer.push(0);
        assert!(decode_extract(&longer, cfg.pool.regions.len()).is_none());
        // A region index beyond the configured regions is corruption.
        assert!(decode_extract(&bytes, 1).is_none());
    }

    #[test]
    fn extract_cache_hit_is_bit_identical() {
        let dir = std::env::temp_dir().join(format!("vdm-extract-cache-{}", std::process::id()));
        let store = cache::CacheStore::at(&dir);
        let cfg = tiny_cfg();
        let build = || {
            let pool = NodePool::generate(&cfg.pool, 9);
            let (sites, lazy) = pool.working_sites();
            let space = build_latency_space(&sites, &lazy, &cfg.space, 9);
            (sites, lazy, space)
        };
        let key = KeyHasher::new().feed_u64(9).key("test-extract");
        let cold = store.get_or_compute(&key, build, encode_extract, |b| {
            decode_extract(b, cfg.pool.regions.len())
        });
        let warm = store.get_or_compute(
            &key,
            || unreachable!("second lookup must hit the cache"),
            encode_extract,
            |b| decode_extract(b, cfg.pool.regions.len()),
        );
        assert_eq!(encode_extract(&cold), encode_extract(&warm));
        let _ = std::fs::remove_dir_all(&dir);
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
