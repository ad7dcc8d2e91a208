//! GT-ITM-style transit–stub topology generator.
//!
//! The paper's NS-2 experiments run on a 792-node transit-stub topology
//! produced by GT-ITM (§3.6.2). This module reproduces the transit-stub
//! *model*: a small backbone of transit domains, each transit router
//! hanging several stub domains, with delay ranges stratified by link
//! class (intra-stub < stub-transit < intra-transit < inter-transit).
//!
//! Overlay end hosts are attached to random stub routers afterwards with
//! [`attach_hosts`], mirroring how the paper picks "randomly selected 200
//! of nodes" to join the overlay.

use crate::graph::{Graph, LinkAttrs, NodeId, NodeKind};
use crate::Millis;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Delay range (ms) for one class of links; delays are drawn uniformly.
#[derive(Clone, Copy, Debug)]
pub struct DelayRange {
    /// Inclusive lower bound, ms.
    pub lo: Millis,
    /// Exclusive upper bound, ms.
    pub hi: Millis,
}

impl DelayRange {
    fn sample(&self, rng: &mut StdRng) -> Millis {
        if self.hi > self.lo {
            rng.gen_range(self.lo..self.hi)
        } else {
            self.lo
        }
    }
}

/// Parameters of the transit-stub generator.
#[derive(Clone, Debug)]
pub struct TransitStubConfig {
    /// Number of transit domains (backbone ASes).
    pub transit_domains: usize,
    /// Routers per transit domain.
    pub transit_nodes: usize,
    /// Stub domains hanging off each transit router.
    pub stubs_per_transit_node: usize,
    /// Routers per stub domain.
    pub stub_nodes: usize,
    /// Probability of an extra edge between two routers of the same domain
    /// (on top of the random spanning tree that guarantees connectivity).
    pub intra_extra_edge_prob: f64,
    /// Delay ranges by link class.
    pub inter_transit_delay: DelayRange,
    /// Delay range of links between routers of one transit domain.
    pub intra_transit_delay: DelayRange,
    /// Delay range of stub-domain-to-transit-router access links.
    pub stub_transit_delay: DelayRange,
    /// Delay range of links inside a stub domain.
    pub intra_stub_delay: DelayRange,
}

impl TransitStubConfig {
    /// The paper's scale: 4 transit domains x 6 routers = 24 transit
    /// routers; 4 stub domains x 8 routers per transit router = 768 stub
    /// routers; 792 routers total, matching §3.6.2.
    pub fn paper_792() -> Self {
        Self {
            transit_domains: 4,
            transit_nodes: 6,
            stubs_per_transit_node: 4,
            stub_nodes: 8,
            intra_extra_edge_prob: 0.25,
            inter_transit_delay: DelayRange { lo: 20.0, hi: 60.0 },
            intra_transit_delay: DelayRange { lo: 8.0, hi: 25.0 },
            stub_transit_delay: DelayRange { lo: 4.0, hi: 12.0 },
            intra_stub_delay: DelayRange { lo: 1.0, hi: 4.0 },
        }
    }

    /// A smaller/larger topology with roughly `routers` routers, keeping
    /// the paper's shape (1 transit router : 32 stub routers).
    pub fn sized(routers: usize) -> Self {
        let mut cfg = Self::paper_792();
        // paper_792 yields 792 with (4,6,4,8); scale stub domain count.
        let per_transit = (routers / 24).max(2); // stub routers per transit router
        let stub_nodes = 8.min(per_transit);
        cfg.stubs_per_transit_node = (per_transit / stub_nodes).max(1);
        cfg.stub_nodes = stub_nodes;
        cfg
    }

    /// The Chapter 3 testbed's topology for `hosts` attached hosts: the
    /// paper's 792 routers while its 768 stub routers can take one host
    /// each, else [`Self::sized`] grown until the stub routers can.
    pub fn for_hosts(hosts: usize) -> Self {
        let mut cfg = Self::paper_792();
        if hosts > 768 {
            let mut target = hosts + hosts / 8 + 24;
            loop {
                cfg = Self::sized(target);
                let stubs = cfg.total_routers() - cfg.transit_domains * cfg.transit_nodes;
                if stubs >= hosts {
                    break;
                }
                target += target / 5;
            }
        }
        cfg
    }

    /// Total router count this config will generate.
    pub fn total_routers(&self) -> usize {
        let transit = self.transit_domains * self.transit_nodes;
        transit + transit * self.stubs_per_transit_node * self.stub_nodes
    }
}

/// Generate a connected domain: random spanning tree over `members` plus
/// extra random edges with probability `extra_prob`.
fn connect_domain(
    g: &mut Graph,
    members: &[NodeId],
    delay: DelayRange,
    extra_prob: f64,
    rng: &mut StdRng,
) {
    for (i, &v) in members.iter().enumerate().skip(1) {
        let u = members[rng.gen_range(0..i)];
        g.add_edge(u, v, LinkAttrs::delay(delay.sample(rng)));
    }
    for i in 0..members.len() {
        for j in (i + 1)..members.len() {
            if g.find_edge(members[i], members[j]).is_none() && rng.gen_bool(extra_prob) {
                g.add_edge(members[i], members[j], LinkAttrs::delay(delay.sample(rng)));
            }
        }
    }
}

/// Generate a transit-stub router topology.
///
/// The result is always connected. Stub routers are `NodeKind::Stub`,
/// transit routers `NodeKind::Transit`.
pub fn generate(cfg: &TransitStubConfig, seed: u64) -> Graph {
    assert!(cfg.transit_domains >= 1 && cfg.transit_nodes >= 1);
    assert!(cfg.stub_nodes >= 1);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0074_7261_6e73_6974);
    let mut g = Graph::new();

    // Transit domains.
    let mut domains: Vec<Vec<NodeId>> = Vec::with_capacity(cfg.transit_domains);
    for _ in 0..cfg.transit_domains {
        let members: Vec<NodeId> = (0..cfg.transit_nodes)
            .map(|_| g.add_node(NodeKind::Transit))
            .collect();
        connect_domain(
            &mut g,
            &members,
            cfg.intra_transit_delay,
            cfg.intra_extra_edge_prob,
            &mut rng,
        );
        domains.push(members);
    }

    // Inter-domain backbone: ring over domains plus one random chord per
    // domain, each realized between random routers of the two domains.
    let d = domains.len();
    if d > 1 {
        for i in 0..d {
            let j = (i + 1) % d;
            let a = domains[i][rng.gen_range(0..domains[i].len())];
            let b = domains[j][rng.gen_range(0..domains[j].len())];
            if g.find_edge(a, b).is_none() {
                g.add_edge(
                    a,
                    b,
                    LinkAttrs::delay(cfg.inter_transit_delay.sample(&mut rng))
                        .with_bandwidth(1_000.0),
                );
            }
        }
        if d > 2 {
            for i in 0..d {
                let j = rng.gen_range(0..d);
                if j == i || (j + 1) % d == i || (i + 1) % d == j {
                    continue;
                }
                let a = domains[i][rng.gen_range(0..domains[i].len())];
                let b = domains[j][rng.gen_range(0..domains[j].len())];
                if g.find_edge(a, b).is_none() {
                    g.add_edge(
                        a,
                        b,
                        LinkAttrs::delay(cfg.inter_transit_delay.sample(&mut rng))
                            .with_bandwidth(1_000.0),
                    );
                }
            }
        }
    }

    // Stub domains.
    for domain in &domains {
        for &tr in domain {
            for _ in 0..cfg.stubs_per_transit_node {
                let members: Vec<NodeId> = (0..cfg.stub_nodes)
                    .map(|_| g.add_node(NodeKind::Stub))
                    .collect();
                connect_domain(
                    &mut g,
                    &members,
                    cfg.intra_stub_delay,
                    cfg.intra_extra_edge_prob,
                    &mut rng,
                );
                // Gateway link from a random stub router to the transit router.
                let gw = members[rng.gen_range(0..members.len())];
                g.add_edge(
                    gw,
                    tr,
                    LinkAttrs::delay(cfg.stub_transit_delay.sample(&mut rng)).with_bandwidth(155.0),
                );
            }
        }
    }

    debug_assert!(g.is_connected());
    g
}

/// Access-link capacity for attached hosts, Mbit/s (broadband-ish; the
/// congestion experiments push multiple 500 kbps streams through it).
pub const HOST_ACCESS_MBPS: f64 = 10.0;

/// Attach `count` end hosts to distinct random stub routers via short
/// access links; returns the host node ids.
///
/// Hosts get 1 ms lossless access links by default; pass `loss` to model
/// lossy last miles (used by the Chapter 4 VDM-L experiments, which assign
/// each physical link a random error rate).
pub fn attach_hosts(g: &mut Graph, count: usize, seed: u64, loss: f64) -> Vec<NodeId> {
    let access_mbps = HOST_ACCESS_MBPS;
    let stubs = g.nodes_of_kind(NodeKind::Stub);
    assert!(
        count <= stubs.len(),
        "cannot attach {count} hosts to {} stub routers",
        stubs.len()
    );
    let mut rng = StdRng::seed_from_u64(seed ^ 0x686f_7374);
    // Sample `count` distinct stub routers (partial Fisher-Yates).
    let mut pool = stubs;
    let mut hosts = Vec::with_capacity(count);
    for i in 0..count {
        let j = rng.gen_range(i..pool.len());
        pool.swap(i, j);
        let router = pool[i];
        let h = g.add_node(NodeKind::Host);
        g.add_edge(
            h,
            router,
            LinkAttrs {
                delay_ms: rng.gen_range(0.5..2.0),
                loss,
                bandwidth_mbps: access_mbps,
            },
        );
        hosts.push(h);
    }
    hosts
}

/// Assign every edge of `g` an independent random loss rate in
/// `[0, max_loss)`, as the Chapter 4 experiments do ("each physical link
/// in topology is assigned a random error rate between 0% and 2%").
pub fn randomize_losses(g: &mut Graph, max_loss: f64, seed: u64) {
    assert!((0.0..1.0).contains(&max_loss));
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6c6f_7373);
    let edges: Vec<_> = g.edges().map(|(id, e)| (id, *e)).collect();
    // Graph has no in-place attribute setter (attributes are generator
    // facts), so rebuild with the same nodes and randomized losses.
    let mut rebuilt = Graph::new();
    for n in g.nodes() {
        rebuilt.add_node(g.kind(n));
    }
    for (_, e) in edges {
        rebuilt.add_edge(
            e.a,
            e.b,
            LinkAttrs {
                delay_ms: e.attrs.delay_ms,
                loss: if max_loss > 0.0 {
                    rng.gen_range(0.0..max_loss)
                } else {
                    0.0
                },
                bandwidth_mbps: e.attrs.bandwidth_mbps,
            },
        );
    }
    *g = rebuilt;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_is_792_routers() {
        let cfg = TransitStubConfig::paper_792();
        assert_eq!(cfg.total_routers(), 792);
        let g = generate(&cfg, 42);
        assert_eq!(g.num_nodes(), 792);
        assert!(g.is_connected());
        assert_eq!(g.nodes_of_kind(NodeKind::Transit).len(), 24);
        assert_eq!(g.nodes_of_kind(NodeKind::Stub).len(), 768);
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = TransitStubConfig::paper_792();
        let g1 = generate(&cfg, 7);
        let g2 = generate(&cfg, 7);
        assert_eq!(g1.num_edges(), g2.num_edges());
        for ((_, e1), (_, e2)) in g1.edges().zip(g2.edges()) {
            assert_eq!(e1.a, e2.a);
            assert_eq!(e1.b, e2.b);
            assert_eq!(e1.attrs.delay_ms, e2.attrs.delay_ms);
        }
        let g3 = generate(&cfg, 8);
        let same = g1.num_edges() == g3.num_edges()
            && g1
                .edges()
                .zip(g3.edges())
                .all(|((_, a), (_, b))| a.a == b.a && a.b == b.b && a.attrs == b.attrs);
        assert!(!same, "different seeds should differ");
    }

    #[test]
    fn hosts_attach_to_distinct_stub_routers() {
        let cfg = TransitStubConfig::paper_792();
        let mut g = generate(&cfg, 1);
        let hosts = attach_hosts(&mut g, 200, 1, 0.0);
        assert_eq!(hosts.len(), 200);
        assert!(g.is_connected());
        for &h in &hosts {
            assert_eq!(g.kind(h), NodeKind::Host);
            assert_eq!(g.degree(h), 1);
            let adj = g.neighbors(h)[0];
            assert_eq!(g.kind(adj.to), NodeKind::Stub);
        }
        // Distinct routers.
        let mut routers: Vec<_> = hosts.iter().map(|&h| g.neighbors(h)[0].to).collect();
        routers.sort();
        routers.dedup();
        assert_eq!(routers.len(), 200);
    }

    #[test]
    fn sized_configs_are_reasonable() {
        for target in [100, 400, 1200, 3000] {
            let cfg = TransitStubConfig::sized(target);
            let total = cfg.total_routers();
            assert!(
                total >= target / 2 && total <= target * 2,
                "target {target} produced {total}"
            );
            let g = generate(&cfg, 3);
            assert!(g.is_connected());
        }
    }

    #[test]
    fn randomize_losses_bounds() {
        let cfg = TransitStubConfig::sized(100);
        let mut g = generate(&cfg, 5);
        randomize_losses(&mut g, 0.02, 5);
        let mut any_positive = false;
        for (_, e) in g.edges() {
            assert!(e.attrs.loss >= 0.0 && e.attrs.loss < 0.02);
            any_positive |= e.attrs.loss > 0.0;
        }
        assert!(any_positive);
        assert!(g.is_connected());
    }
}
