//! Experiment setup builders: Chapter 3 underlays and degree limits.
//!
//! Underlay construction is the expensive pure input of every cell —
//! topology synthesis plus one shortest-path row per host
//! (`vdm_topology::HostRoutes`) — so the builders here route through the
//! content-addressed artifact cache (`vdm_topology::cache`) when the
//! process has one installed. Cache keys cover every generator parameter
//! plus the seed, so a hit is bit-identical to a fresh build and CSV
//! output does not depend on cache state.

use crate::proto::Session;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::cell::Cell;
use std::sync::Arc;
use vdm_netsim::{HostId, RoutedUnderlay, SimTime};
use vdm_overlay::driver::DriverConfig;
use vdm_overlay::scenario::Scenario;
use vdm_topology::cache::{self, codec, KeyHasher};
use vdm_topology::powerlaw::{self, PowerLawConfig};
use vdm_topology::transit_stub::{attach_hosts, generate, randomize_losses, TransitStubConfig};
use vdm_topology::waxman::{self, WaxmanConfig};
use vdm_topology::{Graph, HostRoutes, NodeId};

/// Which routing oracle setup builders put behind `RoutedUnderlay`.
///
/// Both oracles answer host queries bit-identically (see
/// `vdm_topology::router`), so this is purely a memory/time trade:
/// eager host rows are `O(H² + H · n)` once, on-demand is
/// `O(capacity · n)` resident.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum RouterChoice {
    /// Eager host rows ([`HostRoutes`]: one Dijkstra per host, built up
    /// front) — the default, and the one whose artifacts are cached.
    #[default]
    Dense,
    /// Memory-bounded on-demand rows (no `O(n^2)` materialization).
    OnDemand,
}

thread_local! {
    static ROUTER_CHOICE: Cell<RouterChoice> = const { Cell::new(RouterChoice::Dense) };
}

/// Run `f` with every setup builder on this thread using `choice`
/// (restored afterwards, including on unwind). The runner's sequential
/// mode executes cells on the calling thread, so wrapping a family run
/// switches its underlays wholesale.
pub fn with_router_choice<T>(choice: RouterChoice, f: impl FnOnce() -> T) -> T {
    struct Restore(RouterChoice);
    impl Drop for Restore {
        fn drop(&mut self) {
            ROUTER_CHOICE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(ROUTER_CHOICE.with(|c| c.replace(choice)));
    f()
}

/// Largest underlay (nodes) whose on-demand routing rows are persisted
/// to the artifact cache. A row is 16 bytes/node, so a full row set is
/// `16·n^2` bytes — ~67 MB at this bound, but multiple GB at A9's 10k+
/// nodes, where rows are recomputed instead.
pub const ROW_PERSIST_MAX_NODES: usize = 2048;

/// Serialize a routed underlay as one cache artifact: the graph, then
/// the host routes (host attachment points included).
fn encode_underlay(u: &RoutedUnderlay) -> Vec<u8> {
    let graph = u.graph().to_bytes();
    let routes = u
        .host_routes()
        .expect("underlay artifacts exist only for eager host rows")
        .to_bytes();
    let mut w = codec::ByteWriter::with_capacity(graph.len() + routes.len() + 32);
    w.put_blob(&graph);
    w.put_blob(&routes);
    w.into_bytes()
}

/// Decode [`encode_underlay`] output; `None` (a cache miss) on any
/// corruption, so a bad artifact falls back to a fresh build.
fn decode_underlay(bytes: &[u8]) -> Option<RoutedUnderlay> {
    let mut r = codec::ByteReader::new(bytes);
    let graph = Graph::from_bytes(r.get_blob()?)?;
    let routes = HostRoutes::from_bytes(r.get_blob()?)?;
    let hosts = routes.hosts().len();
    if !r.at_end()
        || routes.num_nodes() != graph.num_nodes()
        || hosts == 0
        || (0..hosts).any(|b| routes.dist_ms(0, b).is_infinite())
    {
        return None;
    }
    Some(RoutedUnderlay::from_parts(graph, routes))
}

/// Build (or load) a routed underlay. Eager host rows (the default,
/// `Dense`): through the global artifact cache, graph + host routes as
/// one artifact. On-demand (opted in via [`with_router_choice`]): the
/// graph is built fresh and routing rows are computed lazily, persisted
/// per-row only below [`ROW_PERSIST_MAX_NODES`].
fn cached_underlay(
    domain: &'static str,
    feed_key: impl FnOnce(&mut KeyHasher),
    build_graph: impl FnOnce() -> (Graph, Vec<NodeId>),
) -> Arc<RoutedUnderlay> {
    let mut h = KeyHasher::new();
    feed_key(&mut h);
    match ROUTER_CHOICE.with(|c| c.get()) {
        RouterChoice::OnDemand => {
            let (g, hosts) = build_graph();
            let persist = (g.num_nodes() <= ROW_PERSIST_MAX_NODES).then(|| {
                let mut hk = h.clone();
                hk.feed_str(domain);
                hk
            });
            Arc::new(RoutedUnderlay::on_demand(Arc::new(g), hosts, None, persist))
        }
        RouterChoice::Dense => Arc::new(cache::get_or_compute_global(
            &h.key(domain),
            || {
                let (g, hosts) = build_graph();
                RoutedUnderlay::new(g, hosts)
            },
            encode_underlay,
            decode_underlay,
        )),
    }
}

/// A ready Chapter 3 testbed: transit-stub routers with attached hosts,
/// host 0 being the source.
pub struct Ch3Setup {
    /// Routed underlay (shared across replicated runs — the host-row
    /// build is the expensive part).
    pub underlay: Arc<RoutedUnderlay>,
    /// The streaming source.
    pub source: HostId,
    /// Overlay candidates (everyone but the source).
    pub candidates: Vec<HostId>,
}

impl Ch3Setup {
    /// A streamed session on this testbed: the paper's 2–5 degree
    /// limits drawn from `seed`, one chunk per second, no link stress,
    /// the protocol's own agent config.
    pub fn session<'a>(&self, scenario: &'a Scenario, seed: u64) -> Session<'a> {
        Session::new(
            self.underlay.clone(),
            None,
            self.source,
            scenario,
            degree_limits_range(self.candidates.len() + 1, 2, 5, seed),
            DriverConfig {
                data_interval: Some(SimTime::from_secs(1)),
                ..DriverConfig::default()
            },
            seed,
        )
    }
}

/// Build the §3.6.2 testbed for `members` overlay nodes.
///
/// Uses the paper's 792-router transit-stub topology whenever it has
/// enough stub routers; larger populations scale the topology up with
/// the same shape. `link_loss` (e.g. 0.02 for Chapter 4) assigns each
/// physical link an independent uniform error rate in `[0, link_loss)`.
pub fn ch3_setup(members: usize, link_loss: f64, topo_seed: u64) -> Ch3Setup {
    let needed = members + 1;
    let cfg = TransitStubConfig::for_hosts(needed);
    let underlay = cached_underlay(
        "ch3-underlay",
        |h| {
            h.feed_str("transit-stub")
                .feed_usize(needed)
                .feed_f64(link_loss)
                .feed_u64(topo_seed)
                .feed_usize(cfg.total_routers());
        },
        || {
            let mut g = generate(&cfg, topo_seed);
            if link_loss > 0.0 {
                randomize_losses(&mut g, link_loss, topo_seed);
            }
            let hosts = attach_hosts(&mut g, needed, topo_seed, 0.0);
            (g, hosts)
        },
    );
    Ch3Setup {
        underlay,
        source: HostId(0),
        candidates: (1..needed as u32).map(HostId).collect(),
    }
}

/// A flat Waxman underlay with attached hosts (topology-sensitivity
/// studies: the transit-stub hierarchy is one modelling choice; Waxman
/// graphs have no domain structure at all).
pub fn waxman_setup(members: usize, routers: usize, seed: u64) -> Ch3Setup {
    assert!(routers > members);
    let underlay = cached_underlay(
        "waxman-underlay",
        |h| {
            h.feed_str("waxman")
                .feed_usize(members)
                .feed_usize(routers)
                .feed_u64(seed);
        },
        || {
            let wg = waxman::generate(
                &WaxmanConfig {
                    nodes: routers,
                    ..WaxmanConfig::default()
                },
                seed,
            );
            let mut g = wg.graph;
            let hosts = attach_hosts(&mut g, members + 1, seed, 0.0);
            (g, hosts)
        },
    );
    Ch3Setup {
        underlay,
        source: HostId(0),
        candidates: (1..=members as u32).map(HostId).collect(),
    }
}

/// A power-law (Barabási–Albert) underlay with attached hosts: a few
/// router hubs, many leaves — the AS-level-Internet-like third topology
/// for sensitivity studies.
pub fn powerlaw_setup(members: usize, routers: usize, seed: u64) -> Ch3Setup {
    assert!(routers > members);
    let underlay = cached_underlay(
        "powerlaw-underlay",
        |h| {
            h.feed_str("powerlaw")
                .feed_usize(members)
                .feed_usize(routers)
                .feed_u64(seed);
        },
        || {
            let mut g = powerlaw::generate(
                &PowerLawConfig {
                    nodes: routers,
                    ..PowerLawConfig::default()
                },
                seed,
            );
            let hosts = attach_hosts(&mut g, members + 1, seed, 0.0);
            (g, hosts)
        },
    );
    Ch3Setup {
        underlay,
        source: HostId(0),
        candidates: (1..=members as u32).map(HostId).collect(),
    }
}

/// The A9 scaling testbed: a power-law underlay sized for `members`
/// overlay hosts, always routed on demand — no `O(n^2)` structure is
/// ever materialized, which is what lets A9 run 10k–20k members.
///
/// Routing rows persist to the artifact cache only below
/// [`ROW_PERSIST_MAX_NODES`]; big underlays recompute rows (bounded by
/// the LRU) instead of writing gigabytes of artifacts.
pub fn scale_setup(members: usize, seed: u64) -> Ch3Setup {
    let routers = members + members / 8 + 32;
    let mut g = powerlaw::generate(
        &PowerLawConfig {
            nodes: routers,
            ..PowerLawConfig::default()
        },
        seed,
    );
    let hosts = attach_hosts(&mut g, members + 1, seed, 0.0);
    let persist = (g.num_nodes() <= ROW_PERSIST_MAX_NODES).then(|| {
        let mut h = KeyHasher::new();
        h.feed_str("scale-powerlaw")
            .feed_usize(members)
            .feed_u64(seed);
        h
    });
    let underlay = Arc::new(RoutedUnderlay::on_demand(Arc::new(g), hosts, None, persist));
    Ch3Setup {
        underlay,
        source: HostId(0),
        candidates: (1..=members as u32).map(HostId).collect(),
    }
}

/// Degree limits drawn uniformly from `lo..=hi` (the paper's §3.6.2:
/// "Degree limits of nodes ranges from 2 to 5").
pub fn degree_limits_range(n: usize, lo: u32, hi: u32, seed: u64) -> Vec<u32> {
    assert!(lo >= 1 && hi >= lo);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0064_6567);
    (0..n).map(|_| rng.gen_range(lo..=hi)).collect()
}

/// Degree limits with a target *average* (the §3.6.4 node-degree sweep
/// uses fractional averages like 1.25): each node gets `floor(avg)` or
/// `ceil(avg)` with probabilities matching the mean, floored at 1.
pub fn degree_limits_avg(n: usize, avg: f64, seed: u64) -> Vec<u32> {
    assert!(avg >= 1.0);
    let lo = avg.floor() as u32;
    let hi = avg.ceil() as u32;
    let p_hi = avg - lo as f64;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0061_7667);
    (0..n)
        .map(|_| {
            if hi > lo && rng.gen::<f64>() < p_hi {
                hi
            } else {
                lo.max(1)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdm_netsim::Underlay;

    #[test]
    fn paper_scale_setup() {
        let s = ch3_setup(50, 0.0, 1);
        assert_eq!(s.underlay.num_hosts(), 51);
        assert_eq!(s.candidates.len(), 50);
        assert_eq!(s.underlay.graph().num_nodes(), 792 + 51);
        // Host-to-host RTTs are underlay routes, strictly positive.
        let r = s.underlay.rtt_ms(HostId(0), HostId(1));
        assert!(r > 0.0 && r.is_finite());
    }

    #[test]
    fn grows_for_large_populations() {
        let s = ch3_setup(1000, 0.0, 2);
        assert_eq!(s.underlay.num_hosts(), 1001);
        assert!(s.underlay.graph().num_nodes() > 1001);
    }

    #[test]
    fn link_loss_shows_up_on_paths() {
        let s = ch3_setup(30, 0.02, 3);
        let mut lossy = 0;
        for i in 1..31u32 {
            if s.underlay.path_loss(HostId(0), HostId(i)) > 0.0 {
                lossy += 1;
            }
        }
        assert!(lossy > 25, "most multi-hop paths must be lossy: {lossy}");
    }

    #[test]
    fn waxman_setup_is_usable() {
        let s = waxman_setup(20, 60, 5);
        assert_eq!(s.underlay.num_hosts(), 21);
        assert!(s.underlay.rtt_ms(HostId(0), HostId(20)) > 0.0);
    }

    #[test]
    fn powerlaw_setup_is_usable() {
        let s = powerlaw_setup(20, 60, 5);
        assert_eq!(s.underlay.num_hosts(), 21);
        assert!(s.underlay.rtt_ms(HostId(0), HostId(20)) > 0.0);
        assert!(s.underlay.graph().is_connected());
    }

    #[test]
    fn on_demand_override_matches_dense() {
        let dense = waxman_setup(12, 40, 7);
        let od = with_router_choice(RouterChoice::OnDemand, || waxman_setup(12, 40, 7));
        assert!(od.underlay.host_routes().is_none());
        assert!(od.underlay.router().is_some());
        for a in 0..13u32 {
            for b in 0..13u32 {
                assert_eq!(
                    od.underlay.rtt_ms(HostId(a), HostId(b)).to_bits(),
                    dense.underlay.rtt_ms(HostId(a), HostId(b)).to_bits(),
                    "rtt h{a}->h{b}"
                );
            }
        }
        // The override is scoped: after the closure, builds are dense again.
        assert!(waxman_setup(12, 40, 7).underlay.router().is_none());
    }

    #[test]
    fn scale_setup_is_on_demand() {
        let s = scale_setup(40, 9);
        assert_eq!(s.underlay.num_hosts(), 41);
        assert_eq!(s.candidates.len(), 40);
        assert!(
            s.underlay.host_routes().is_none(),
            "scale must never build eager rows"
        );
        let r = s.underlay.rtt_ms(HostId(0), HostId(40));
        assert!(r > 0.0 && r.is_finite());
        let stats = s.underlay.router().unwrap().stats();
        assert!(stats.resident <= stats.capacity);
    }

    #[test]
    fn degree_limit_helpers() {
        let r = degree_limits_range(1000, 2, 5, 4);
        assert!(r.iter().all(|&d| (2..=5).contains(&d)));
        let avg = degree_limits_avg(4000, 1.25, 5);
        assert!(avg.iter().all(|&d| d == 1 || d == 2));
        let mean = avg.iter().sum::<u32>() as f64 / avg.len() as f64;
        assert!((mean - 1.25).abs() < 0.05, "mean {mean}");
        let whole = degree_limits_avg(100, 3.0, 6);
        assert!(whole.iter().all(|&d| d == 3));
    }
}
