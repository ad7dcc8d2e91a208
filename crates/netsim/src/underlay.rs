//! Underlay network models.
//!
//! The overlay protocols only ever see *hosts* and *measured distances*;
//! everything below that is the underlay. Two models back the paper's two
//! evaluation chapters:
//!
//! * [`RoutedUnderlay`] — hosts attached to a router graph, packets follow
//!   delay-shortest routes (the NS-2 analogue, Chapter 3). Because routes
//!   are explicit, per-physical-link metrics (stress) are defined. Only
//!   host-to-host routes are ever asked for, so the routes come from one
//!   shortest-path row per host ([`HostRoutes`]: each host pair's two
//!   distances in 9 bytes, plus a 2-byte predecessor slot per graph
//!   node, `2·n` bytes, once a path from the row's host is asked), or on
//!   A9-scale graphs from an [`OnDemandRouter`], which caches a bounded
//!   number of the same rows. Both are asked the same questions by host
//!   index. On an underlay whose links lose nothing, `path_loss` asks
//!   no route at all.
//! * [`LatencySpace`] — a host-to-host RTT matrix with optional jitter and
//!   per-path loss (the PlanetLab analogue, Chapter 5). No physical links;
//!   resource usage is measured as summed virtual-link latency instead,
//!   exactly as §5.3 does.

use rand::{Rng, RngCore};
use std::convert::Infallible;
use std::sync::Arc;
use vdm_topology::{EdgeId, Graph, HostRoutes, Millis, NodeId, OnDemandRouter};

/// Index of a simulation host (dense, `0..num_hosts`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct HostId(pub u32);

impl HostId {
    /// The host index as a `usize`, for slice indexing.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for HostId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "h{}", self.0)
    }
}

/// A network model the engine delivers messages through.
///
/// Implementations must be deterministic functions of their construction
/// inputs; per-sample randomness comes in through the `rng` argument of
/// [`Underlay::sample_one_way_ms`] only.
pub trait Underlay {
    /// Number of hosts.
    fn num_hosts(&self) -> usize;

    /// Nominal round-trip time between two hosts, ms (what an ideal,
    /// noiseless probe would measure).
    fn rtt_ms(&self, a: HostId, b: HostId) -> Millis;

    /// Nominal one-way delay, ms.
    fn one_way_ms(&self, a: HostId, b: HostId) -> Millis {
        self.rtt_ms(a, b) / 2.0
    }

    /// One-way delay for one concrete packet, ms (may add jitter).
    fn sample_one_way_ms(&self, a: HostId, b: HostId, _rng: &mut dyn RngCore) -> Millis {
        self.one_way_ms(a, b)
    }

    /// Probability that a packet from `a` to `b` is lost.
    fn path_loss(&self, a: HostId, b: HostId) -> f64;

    /// Physical links on the route `a -> b`, if the model has any
    /// (routed underlays only).
    fn path_edges(&self, a: HostId, b: HostId) -> Option<Vec<EdgeId>>;

    /// Number of physical links (0 for latency spaces).
    fn num_links(&self) -> usize {
        0
    }

    /// Per-link specs for the queueing data plane (empty for latency
    /// spaces, which have no modelled links).
    fn link_specs(&self) -> Vec<crate::dataplane::LinkSpec> {
        Vec::new()
    }
}

/// Routing oracle backing a [`RoutedUnderlay`]: every host row up
/// front, or a bounded LRU of the same rows. Both answer every host
/// query bit-for-bit identically (`vdm_topology`'s `router_props`
/// tests).
enum Routes {
    Hosts(HostRoutes),
    OnDemand(OnDemandRouter),
}

/// Hosts attached to a router graph; routes are delay-shortest paths.
pub struct RoutedUnderlay {
    graph: Arc<Graph>,
    routes: Routes,
    /// Whether any link has a nonzero loss rate. When none has, every
    /// route's loss product is a product of ones, and
    /// [`Underlay::path_loss`] answers `0.0` without walking a route.
    lossy: bool,
}

/// Whether any link of `g` loses packets.
fn any_lossy_link(g: &Graph) -> bool {
    g.edges().any(|(_, e)| e.attrs.loss != 0.0)
}

impl RoutedUnderlay {
    /// Build from a router+host graph and the graph nodes that act as
    /// hosts (typically from `transit_stub::attach_hosts`).
    ///
    /// Runs one Dijkstra per host; `O(H · E log V)` time and
    /// `4.5·H(H−1)` bytes of host distances up front (each host pair
    /// once), plus `2·V` bytes of predecessor slots per host a path is
    /// asked from (stress, loss on a lossy graph, the queueing data
    /// plane), so `4.5·H(H−1) + 2·H·V` at most — use
    /// [`RoutedUnderlay::on_demand`] when `H²`, or
    /// `H · V` on a run that asks paths from every host, is too large
    /// to hold.
    ///
    /// # Panics
    /// Panics when there is no host, a host is not a node of `graph`,
    /// or hosts are mutually unreachable.
    pub fn new(graph: Graph, host_nodes: Vec<NodeId>) -> Self {
        let routes = HostRoutes::build(&graph, host_nodes);
        assert!(!routes.hosts().is_empty(), "need at least one host");
        for (b, h) in routes.hosts().iter().enumerate() {
            assert!(routes.dist_ms(0, b).is_finite(), "host {h} unreachable");
        }
        Self {
            lossy: any_lossy_link(&graph),
            graph: Arc::new(graph),
            routes: Routes::Hosts(routes),
        }
    }

    /// Build with a memory-bounded [`OnDemandRouter`] instead of eager
    /// host rows: the same host rows, computed lazily and kept in an
    /// LRU of at most `capacity` rows (`None` for the default ~64 MiB
    /// budget). The last argument can only be `None`; it keeps the
    /// four-argument call the benchmark's join workloads make.
    ///
    /// A resident row is `8·H` bytes, and `8·H + 2·V` once a path from
    /// its host has been asked. Memory is `O(capacity · (H + V))`; no
    /// `O(H · V)` structure is ever materialized.
    ///
    /// # Panics
    /// Panics when there is no host, a host is not a node of `graph`,
    /// or hosts are mutually unreachable, as [`RoutedUnderlay::new`]
    /// does (checked from host 0's row alone).
    pub fn on_demand(
        graph: Arc<Graph>,
        host_nodes: Vec<NodeId>,
        capacity: Option<usize>,
        _never: Option<Infallible>,
    ) -> Self {
        let router = OnDemandRouter::new(&graph, host_nodes, capacity);
        assert!(!router.hosts().is_empty(), "need at least one host");
        let row0 = router.row(0);
        for (b, h) in router.hosts().iter().enumerate() {
            assert!(row0.dist_ms(b).is_finite(), "host {h} unreachable");
        }
        Self {
            lossy: any_lossy_link(&graph),
            graph,
            routes: Routes::OnDemand(router),
        }
    }

    /// Graph nodes backing the hosts, in host-id order.
    pub fn host_nodes(&self) -> &[NodeId] {
        match &self.routes {
            Routes::Hosts(r) => r.hosts(),
            Routes::OnDemand(r) => r.hosts(),
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Always `None`: no routed underlay builds the dense table any more.
    pub fn apsp(&self) -> Option<&vdm_topology::Apsp> {
        None
    }

    /// The on-demand router, when this underlay was built with one
    /// (for LRU hit/miss/residency stats).
    pub fn router(&self) -> Option<&OnDemandRouter> {
        match &self.routes {
            Routes::Hosts(_) => None,
            Routes::OnDemand(r) => Some(r),
        }
    }

    /// Predecessor-slot rows the routing oracle has built: one per
    /// source host a path has been asked from (again after an
    /// on-demand row's eviction).
    pub fn slot_rows_built(&self) -> u64 {
        match &self.routes {
            Routes::Hosts(r) => r.slot_rows_built(),
            Routes::OnDemand(r) => r.stats().slot_rows,
        }
    }

    /// Graph node backing host `h`.
    pub fn node_of(&self, h: HostId) -> NodeId {
        self.host_nodes()[h.idx()]
    }

    /// Router-level hop count between two hosts.
    pub fn hops(&self, a: HostId, b: HostId) -> usize {
        self.route(a, b).len()
    }

    /// Physical links on the route `a -> b`.
    fn route(&self, a: HostId, b: HostId) -> Vec<EdgeId> {
        match &self.routes {
            Routes::Hosts(r) => r.path_edges(&self.graph, a.idx(), b.idx()),
            Routes::OnDemand(r) => r.path_edges(&self.graph, a.idx(), b.idx()),
        }
    }
}

impl Underlay for RoutedUnderlay {
    fn num_hosts(&self) -> usize {
        self.host_nodes().len()
    }

    fn rtt_ms(&self, a: HostId, b: HostId) -> Millis {
        2.0 * self.one_way_ms(a, b)
    }

    fn one_way_ms(&self, a: HostId, b: HostId) -> Millis {
        match &self.routes {
            Routes::Hosts(r) => r.dist_ms(a.idx(), b.idx()),
            Routes::OnDemand(r) => r.dist_ms(a.idx(), b.idx()),
        }
    }

    fn path_loss(&self, a: HostId, b: HostId) -> f64 {
        if !self.lossy {
            // The fold below would multiply `1.0 - 0.0` per link and
            // answer `1.0 - 1.0`, which is +0.0, for every pair.
            return 0.0;
        }
        let mut pass = 1.0;
        for e in self.route(a, b) {
            pass *= 1.0 - self.graph.edge(e).attrs.loss;
        }
        1.0 - pass
    }

    fn path_edges(&self, a: HostId, b: HostId) -> Option<Vec<EdgeId>> {
        Some(self.route(a, b))
    }

    fn num_links(&self) -> usize {
        self.graph.num_edges()
    }

    fn link_specs(&self) -> Vec<crate::dataplane::LinkSpec> {
        self.graph
            .edges()
            .map(|(_, e)| crate::dataplane::LinkSpec {
                delay_ms: e.attrs.delay_ms,
                bandwidth_mbps: e.attrs.bandwidth_mbps,
            })
            .collect()
    }
}

/// Hierarchical O(1) distance oracle over a sharded power-law underlay
/// (`vdm_topology::shard`), for 100k+-host sharded runs.
///
/// Routing is gateway routing: a packet climbs from its host to the
/// shard gateway, rides the gateway backbone, and descends — so the
/// one-way delay decomposes as `up[a] + core[shard(a)][shard(b)] + up[b]`
/// (`core` zero within a shard). Every query is O(1) with
/// O(hosts + shards²) memory: no dense matrix, no per-source routing
/// rows, no LRU to thrash at 100k hosts. There are no modelled physical
/// links (`path_edges` is `None` — per-link stress and the queueing data
/// plane stay with [`RoutedUnderlay`]), no jitter, and no path loss.
///
/// The minimum off-diagonal `core` entry lower-bounds every cross-shard
/// delay, which makes [`ShardedUnderlay::min_cross_shard_delay_ms`] the
/// lookahead oracle for `crate::shard::ShardedEngine`.
pub struct ShardedUnderlay {
    /// Per host: delay to its shard gateway, ms.
    up_ms: Vec<Millis>,
    /// Flattened `S × S` gateway backbone delay table, ms.
    core_ms: Vec<Millis>,
    /// Host-id boundaries per shard (`S + 1` entries).
    bounds: Vec<u32>,
    min_cross_ms: Millis,
}

impl ShardedUnderlay {
    /// Build from a generated sharded topology.
    pub fn new(t: &vdm_topology::shard::ShardedPowerLaw) -> Self {
        Self::from_parts(t.up_ms.clone(), t.core_ms.clone(), t.host_bounds.clone())
    }

    /// Build from the raw decomposition (tests).
    ///
    /// # Panics
    /// Panics when dimensions disagree, a delay is negative/non-finite,
    /// or the core diagonal is non-zero.
    pub fn from_parts(up_ms: Vec<Millis>, core_ms: Vec<Millis>, bounds: Vec<u32>) -> Self {
        assert!(bounds.len() >= 2 && bounds[0] == 0);
        assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        let s = bounds.len() - 1;
        assert_eq!(core_ms.len(), s * s, "core table must be S × S");
        assert_eq!(
            up_ms.len(),
            *bounds.last().unwrap() as usize,
            "one up-cost per host"
        );
        assert!(up_ms.iter().all(|&u| u.is_finite() && u >= 0.0));
        let mut min_cross = f64::INFINITY;
        for a in 0..s {
            for b in 0..s {
                let c = core_ms[a * s + b];
                if a == b {
                    assert!(c == 0.0, "core diagonal must be zero");
                } else {
                    assert!(c.is_finite() && c > 0.0, "backbone disconnected");
                    min_cross = min_cross.min(c);
                }
            }
        }
        Self {
            up_ms,
            core_ms,
            bounds,
            min_cross_ms: min_cross,
        }
    }

    /// Shard owning host `h`.
    #[inline]
    pub fn shard_of(&self, h: HostId) -> u32 {
        (self.bounds.partition_point(|&b| b <= h.0) - 1) as u32
    }

    /// Host-id boundaries per shard (for building a matching
    /// `crate::shard::ShardMap`).
    pub fn shard_bounds(&self) -> &[u32] {
        &self.bounds
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Lower bound on any cross-shard one-way delay, ms (`INFINITY`
    /// for a single shard): the conservative-DES lookahead.
    pub fn min_cross_shard_delay_ms(&self) -> Millis {
        self.min_cross_ms
    }
}

impl Underlay for ShardedUnderlay {
    fn num_hosts(&self) -> usize {
        *self.bounds.last().unwrap() as usize
    }

    fn rtt_ms(&self, a: HostId, b: HostId) -> Millis {
        2.0 * self.one_way_ms(a, b)
    }

    fn one_way_ms(&self, a: HostId, b: HostId) -> Millis {
        if a == b {
            return 0.0;
        }
        let (sa, sb) = (self.shard_of(a), self.shard_of(b));
        let s = self.num_shards();
        self.up_ms[a.idx()] + self.core_ms[sa as usize * s + sb as usize] + self.up_ms[b.idx()]
    }

    fn path_loss(&self, _a: HostId, _b: HostId) -> f64 {
        0.0
    }

    fn path_edges(&self, _a: HostId, _b: HostId) -> Option<Vec<EdgeId>> {
        None
    }
}

/// Per-host "lazy responder" profile: with probability `prob`, a packet
/// *received by* this host is delayed by up to `extra_ms` more.
///
/// This models the paper's observation that "sometimes PlanetLab nodes are
/// lazy to answer the information request. So, the maximum value may not
/// reflect algorithmic complexity" (§5.3).
#[derive(Clone, Copy, Debug, Default)]
pub struct LazyProfile {
    /// Probability a given packet hits the slow path.
    pub prob: f64,
    /// Maximum extra delay, ms (drawn uniformly).
    pub extra_ms: Millis,
}

/// Host-to-host metric space with jitter and per-path loss.
pub struct LatencySpace {
    n: usize,
    /// Flattened symmetric nominal RTT matrix, ms.
    rtt: Vec<f32>,
    /// Flattened symmetric per-path loss matrix.
    loss: Vec<f32>,
    /// Multiplicative jitter amplitude: each sample is scaled by a factor
    /// uniform in `[1 - j, 1 + j]`.
    jitter_frac: f64,
    lazy: Vec<LazyProfile>,
}

impl LatencySpace {
    /// Build from a full symmetric RTT matrix (ms). Loss starts at zero,
    /// jitter at zero.
    ///
    /// # Panics
    /// Panics if the matrix is not square/symmetric or has non-positive
    /// off-diagonal entries.
    pub fn from_rtt_matrix(rtt: &[Vec<Millis>]) -> Self {
        let n = rtt.len();
        assert!(n > 0);
        let mut flat = vec![0.0f32; n * n];
        for (i, row) in rtt.iter().enumerate() {
            assert_eq!(row.len(), n, "RTT matrix must be square");
            for (j, &v) in row.iter().enumerate() {
                if i == j {
                    assert!(v == 0.0, "diagonal must be zero");
                } else {
                    assert!(v > 0.0, "RTT {i}->{j} must be positive");
                    assert!((v - rtt[j][i]).abs() < 1e-6, "RTT matrix must be symmetric");
                }
                flat[i * n + j] = v as f32;
            }
        }
        Self {
            n,
            rtt: flat,
            loss: vec![0.0; n * n],
            jitter_frac: 0.0,
            lazy: vec![LazyProfile::default(); n],
        }
    }

    /// Set the same loss probability on every path.
    pub fn with_uniform_loss(mut self, loss: f64) -> Self {
        assert!((0.0..1.0).contains(&loss));
        for (i, v) in self.loss.iter_mut().enumerate() {
            let (a, b) = (i / self.n, i % self.n);
            *v = if a == b { 0.0 } else { loss as f32 };
        }
        self
    }

    /// Set a full per-path loss matrix.
    pub fn with_loss_matrix(mut self, loss: &[Vec<f64>]) -> Self {
        assert_eq!(loss.len(), self.n);
        for (i, row) in loss.iter().enumerate() {
            assert_eq!(row.len(), self.n);
            for (j, &v) in row.iter().enumerate() {
                assert!((0.0..1.0).contains(&v));
                self.loss[i * self.n + j] = v as f32;
            }
        }
        self
    }

    /// Set the multiplicative jitter amplitude (`0.1` = ±10 %).
    pub fn with_jitter(mut self, frac: f64) -> Self {
        assert!((0.0..1.0).contains(&frac));
        self.jitter_frac = frac;
        self
    }

    /// Mark a host as a lazy responder.
    pub fn set_lazy(&mut self, h: HostId, profile: LazyProfile) {
        self.lazy[h.idx()] = profile;
    }
}

impl Underlay for LatencySpace {
    fn num_hosts(&self) -> usize {
        self.n
    }

    fn rtt_ms(&self, a: HostId, b: HostId) -> Millis {
        self.rtt[a.idx() * self.n + b.idx()] as Millis
    }

    fn sample_one_way_ms(&self, a: HostId, b: HostId, rng: &mut dyn RngCore) -> Millis {
        let mut d = self.one_way_ms(a, b);
        if self.jitter_frac > 0.0 {
            let f = 1.0 + self.jitter_frac * (rng.gen::<f64>() * 2.0 - 1.0);
            d *= f;
        }
        let lazy = self.lazy[b.idx()];
        if lazy.prob > 0.0 && rng.gen::<f64>() < lazy.prob {
            d += rng.gen::<f64>() * lazy.extra_ms;
        }
        d.max(0.001)
    }

    fn path_loss(&self, a: HostId, b: HostId) -> f64 {
        self.loss[a.idx() * self.n + b.idx()] as f64
    }

    fn path_edges(&self, _a: HostId, _b: HostId) -> Option<Vec<EdgeId>> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use vdm_topology::graph::{LinkAttrs, NodeKind};

    /// host0 - r0 - r1 - host1, all 1 ms links; r0-r1 has 10 % loss.
    fn small_routed() -> RoutedUnderlay {
        let mut g = Graph::new();
        let h0 = g.add_node(NodeKind::Host);
        let r0 = g.add_node(NodeKind::Stub);
        let r1 = g.add_node(NodeKind::Stub);
        let h1 = g.add_node(NodeKind::Host);
        g.add_edge(h0, r0, LinkAttrs::delay(1.0));
        g.add_edge(
            r0,
            r1,
            LinkAttrs {
                delay_ms: 1.0,
                loss: 0.1,
                bandwidth_mbps: 100.0,
            },
        );
        g.add_edge(r1, h1, LinkAttrs::delay(1.0));
        RoutedUnderlay::new(g, vec![h0, h1])
    }

    #[test]
    fn routed_distances_and_paths() {
        let u = small_routed();
        assert_eq!(u.num_hosts(), 2);
        assert_eq!(u.num_links(), 3);
        let (a, b) = (HostId(0), HostId(1));
        assert!((u.one_way_ms(a, b) - 3.0).abs() < 1e-6);
        assert!((u.rtt_ms(a, b) - 6.0).abs() < 1e-6);
        assert_eq!(u.path_edges(a, b).unwrap().len(), 3);
        assert_eq!(u.hops(a, b), 3);
        assert!((u.path_loss(a, b) - 0.1).abs() < 1e-9);
        assert_eq!(u.path_loss(a, a), 0.0);
    }

    /// A lossy power-law underlay with host leaves, routed both ways:
    /// every `Underlay` answer of the eager host rows must match the
    /// on-demand rows bitwise, with no dense matrix ever built.
    #[test]
    fn on_demand_matches_dense_underlay() {
        use vdm_topology::powerlaw::{self, PowerLawConfig};
        use vdm_topology::transit_stub::{attach_hosts, randomize_losses};
        let mut g = powerlaw::generate(
            &PowerLawConfig {
                nodes: 30,
                ..PowerLawConfig::default()
            },
            4,
        );
        randomize_losses(&mut g, 0.05, 4);
        let hosts = attach_hosts(&mut g, 9, 4, 0.01);
        let eager = RoutedUnderlay::new(g.clone(), hosts.clone());
        let od = RoutedUnderlay::on_demand(Arc::new(g), hosts, Some(2), None);
        assert!(eager.router().is_none() && od.router().is_some());
        assert!(eager.apsp().is_none() && od.apsp().is_none());
        assert_eq!(od.num_hosts(), eager.num_hosts());
        assert_eq!(od.num_links(), eager.num_links());
        assert_eq!(od.link_specs().len(), eager.link_specs().len());
        let (mut r1, mut r2) = (StdRng::seed_from_u64(5), StdRng::seed_from_u64(5));
        for a in 0..9u32 {
            for b in 0..9u32 {
                let (a, b) = (HostId(a), HostId(b));
                assert_eq!(od.rtt_ms(a, b).to_bits(), eager.rtt_ms(a, b).to_bits());
                assert_eq!(
                    od.one_way_ms(a, b).to_bits(),
                    eager.one_way_ms(a, b).to_bits()
                );
                assert_eq!(
                    od.sample_one_way_ms(a, b, &mut r1).to_bits(),
                    eager.sample_one_way_ms(a, b, &mut r2).to_bits()
                );
                assert_eq!(od.path_edges(a, b), eager.path_edges(a, b));
                assert_eq!(od.hops(a, b), eager.hops(a, b));
                assert_eq!(
                    od.path_loss(a, b).to_bits(),
                    eager.path_loss(a, b).to_bits()
                );
            }
        }
        let stats = od.router().unwrap().stats();
        assert!(stats.misses >= 1 && stats.resident <= 2);
    }

    /// Host-leaf testbeds of the three graph families the experiments
    /// route over: Waxman, power-law and transit-stub.
    fn testbeds(link_loss: f64) -> Vec<(Graph, Vec<NodeId>)> {
        use vdm_topology::powerlaw::{self, PowerLawConfig};
        use vdm_topology::transit_stub::{self, attach_hosts, randomize_losses};
        use vdm_topology::waxman::{self, WaxmanConfig};
        let waxman = waxman::generate(
            &WaxmanConfig {
                nodes: 36,
                ..WaxmanConfig::default()
            },
            6,
        )
        .graph;
        let powerlaw = powerlaw::generate(
            &PowerLawConfig {
                nodes: 36,
                ..PowerLawConfig::default()
            },
            6,
        );
        let ts = transit_stub::generate(&transit_stub::TransitStubConfig::sized(60), 6);
        [waxman, powerlaw, ts]
            .into_iter()
            .map(|mut g| {
                if link_loss > 0.0 {
                    randomize_losses(&mut g, link_loss, 6);
                }
                let hosts = attach_hosts(&mut g, 12, 6, 0.0);
                (g, hosts)
            })
            .collect()
    }

    /// Both oracles over `g`: eager host rows, then a 2-row LRU.
    fn both_oracles(g: &Graph, hosts: &[NodeId]) -> [RoutedUnderlay; 2] {
        [
            RoutedUnderlay::new(g.clone(), hosts.to_vec()),
            RoutedUnderlay::on_demand(Arc::new(g.clone()), hosts.to_vec(), Some(2), None),
        ]
    }

    /// `path_loss` on a loss-free underlay answers without a route, and
    /// the answer is the route fold's own: +0.0 for every host pair,
    /// source and target equal included. On a lossy underlay it is the
    /// fold over the route's links, bit for bit.
    #[test]
    fn path_loss_shortcut_is_exact() {
        for link_loss in [0.0, 0.02] {
            for (g, hosts) in testbeds(link_loss) {
                assert_eq!(link_loss > 0.0, any_lossy_link(&g));
                for u in both_oracles(&g, &hosts) {
                    for a in 0..hosts.len() as u32 {
                        for b in 0..hosts.len() as u32 {
                            let (a, b) = (HostId(a), HostId(b));
                            let got = u.path_loss(a, b);
                            if link_loss == 0.0 {
                                assert_eq!(got.to_bits(), 0, "{a}->{b}: {got}");
                                continue;
                            }
                            let pass = u
                                .route(a, b)
                                .iter()
                                .fold(1.0, |p: f64, &e| p * (1.0 - g.edge(e).attrs.loss));
                            assert_eq!(got.to_bits(), (1.0 - pass).to_bits(), "{a}->{b}");
                        }
                    }
                    if link_loss == 0.0 {
                        assert_eq!(u.slot_rows_built(), 0, "a loss query walked a route");
                    } else {
                        assert!(u.slot_rows_built() >= hosts.len() as u64);
                    }
                }
            }
        }
    }

    /// Four threads ask routes of one shared underlay at once, under
    /// each oracle: two from the same sources in the same order, so
    /// they race to build the same slot rows, and two from other
    /// sources. Every answer is the dense table's hop-by-hop walk, and
    /// the eager oracle builds each host's slot row once.
    #[test]
    fn concurrent_first_path_queries_match_the_dense_walk() {
        use std::sync::Barrier;
        use vdm_topology::Apsp;
        for (g, hosts) in testbeds(0.02) {
            let apsp = Apsp::build(&g);
            let h = hosts.len() as u32;
            for u in both_oracles(&g, &hosts) {
                let start = Barrier::new(4);
                std::thread::scope(|scope| {
                    for t in 0..4u32 {
                        let (u, g, apsp, hosts, start) = (&u, &g, &apsp, &hosts, &start);
                        scope.spawn(move || {
                            let sources: Vec<u32> = match t {
                                0 | 1 => (0..h).collect(),
                                2 => (0..h).rev().collect(),
                                _ => (0..h).map(|a| (a * 5 + 3) % h).collect(),
                            };
                            start.wait();
                            for a in sources {
                                for b in 0..h {
                                    let (na, nb) = (hosts[a as usize], hosts[b as usize]);
                                    assert_eq!(
                                        u.path_edges(HostId(a), HostId(b)),
                                        Some(apsp.path_edges(g, na, nb)),
                                        "thread {t}: h{a}->h{b}"
                                    );
                                    assert_eq!(
                                        u.hops(HostId(a), HostId(b)),
                                        apsp.hop_count(na, nb)
                                    );
                                }
                            }
                        });
                    }
                });
                if u.router().is_none() {
                    assert_eq!(u.slot_rows_built(), u64::from(h));
                }
            }
        }
    }

    #[test]
    fn single_host_underlay() {
        let u = small_routed();
        let one = RoutedUnderlay::new(u.graph().clone(), vec![u.node_of(HostId(1))]);
        let h = HostId(0);
        assert_eq!(one.num_hosts(), 1);
        assert_eq!(one.rtt_ms(h, h), 0.0);
        assert_eq!(one.path_edges(h, h), Some(Vec::new()));
        assert_eq!(one.hops(h, h), 0);
        assert_eq!(one.path_loss(h, h), 0.0);
    }

    #[test]
    #[should_panic(expected = "host out of range")]
    fn on_demand_host_outside_the_graph_panics() {
        let g = small_routed().graph().clone();
        RoutedUnderlay::on_demand(Arc::new(g), vec![NodeId(0), NodeId(4)], None, None);
    }

    #[test]
    #[should_panic(expected = "unreachable")]
    fn unreachable_host_panics() {
        let mut g = small_routed().graph().clone();
        let island = g.add_node(NodeKind::Host);
        RoutedUnderlay::new(g, vec![NodeId(0), NodeId(3), island]);
    }

    #[test]
    fn latency_space_basics() {
        let rtt = vec![
            vec![0.0, 10.0, 20.0],
            vec![10.0, 0.0, 15.0],
            vec![20.0, 15.0, 0.0],
        ];
        let ls = LatencySpace::from_rtt_matrix(&rtt).with_uniform_loss(0.05);
        assert_eq!(ls.num_hosts(), 3);
        assert_eq!(ls.rtt_ms(HostId(0), HostId(2)), 20.0);
        assert_eq!(ls.one_way_ms(HostId(0), HostId(2)), 10.0);
        assert_eq!(ls.path_loss(HostId(1), HostId(2)), 0.05_f32 as f64);
        assert_eq!(ls.path_loss(HostId(1), HostId(1)), 0.0);
        assert!(ls.path_edges(HostId(0), HostId(1)).is_none());
        assert_eq!(ls.num_links(), 0);
    }

    #[test]
    fn jitter_stays_in_band() {
        let rtt = vec![vec![0.0, 100.0], vec![100.0, 0.0]];
        let ls = LatencySpace::from_rtt_matrix(&rtt).with_jitter(0.2);
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen_low = false;
        let mut seen_high = false;
        for _ in 0..200 {
            let d = ls.sample_one_way_ms(HostId(0), HostId(1), &mut rng);
            assert!((40.0..=60.0).contains(&d), "sample {d} out of ±20 % band");
            seen_low |= d < 48.0;
            seen_high |= d > 52.0;
        }
        assert!(seen_low && seen_high, "jitter should actually vary");
    }

    #[test]
    fn lazy_hosts_add_tail_latency() {
        let rtt = vec![vec![0.0, 10.0], vec![10.0, 0.0]];
        let mut ls = LatencySpace::from_rtt_matrix(&rtt);
        ls.set_lazy(
            HostId(1),
            LazyProfile {
                prob: 1.0,
                extra_ms: 500.0,
            },
        );
        let mut rng = StdRng::seed_from_u64(2);
        // Toward the lazy host: inflated.
        let d = ls.sample_one_way_ms(HostId(0), HostId(1), &mut rng);
        assert!(d > 5.0);
        // Away from the lazy host: nominal.
        let d2 = ls.sample_one_way_ms(HostId(1), HostId(0), &mut rng);
        assert!((d2 - 5.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "symmetric")]
    fn asymmetric_matrix_rejected() {
        let rtt = vec![vec![0.0, 10.0], vec![11.0, 0.0]];
        let _ = LatencySpace::from_rtt_matrix(&rtt);
    }

    #[test]
    fn sampling_default_is_nominal() {
        let u = small_routed();
        let mut rng = StdRng::seed_from_u64(3);
        let d = u.sample_one_way_ms(HostId(0), HostId(1), &mut rng);
        assert!((d - 3.0).abs() < 1e-6);
    }
}
