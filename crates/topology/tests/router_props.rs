//! Property tests for the on-demand router: for arbitrary Waxman,
//! power-law and transit-stub underlays its host rows must answer every
//! ordered host pair as `HostRoutes` does, bit for bit — distance bits,
//! node path and link sequence — at any capacity; and LRU eviction must
//! be invisible (an evicted, re-queried row equals a fresh computation).
//!
//! Both oracles are filled by the one host-row builder in `spath.rs`,
//! so agreement between them covers the storage, the host indexing and
//! the LRU — not the kernel, which `spath/reference_tests.rs` checks
//! against an independent textbook Dijkstra. What the two share beyond
//! the kernel is the decoding of their 2-byte predecessor slots, so
//! both are also held to the dense `Apsp` oracle, which stores no
//! slot: its distances, its hop-by-hop node walk, and the link sequence
//! found by searching each hop's adjacency (`Graph::find_edge`).

use proptest::prelude::*;
use vdm_topology::powerlaw::{self, PowerLawConfig};
use vdm_topology::transit_stub::{self, attach_hosts, TransitStubConfig};
use vdm_topology::waxman::{self, WaxmanConfig};
use vdm_topology::{Apsp, Graph, HostRoutes, HostRow, NodeId, OnDemandRouter};

/// The two fixed seeds every graph family is checked on (plus the
/// proptest-driven parameter space around them).
const SEEDS: [u64; 2] = [11, 42];

fn waxman_graph(nodes: usize, alpha: f64, seed: u64) -> Graph {
    waxman::generate(
        &WaxmanConfig {
            nodes,
            alpha,
            ..WaxmanConfig::default()
        },
        seed,
    )
    .graph
}

fn powerlaw_graph(nodes: usize, seed: u64) -> Graph {
    powerlaw::generate(
        &PowerLawConfig {
            nodes,
            ..PowerLawConfig::default()
        },
        seed,
    )
}

/// Every ordered host pair, swept twice through a router of each
/// capacity — 1, 2 and one row per host — must agree bitwise with the
/// eager host rows, and those with the dense matrix: distance, node
/// walk and link sequence. Below one row per host the second sweep
/// re-queries rows the first evicted.
fn check(g: &Graph, hosts: &[NodeId]) -> Result<(), TestCaseError> {
    let apsp = Apsp::build(g);
    let routes = HostRoutes::build(g, hosts.to_vec());
    let h = hosts.len();
    for (a, &na) in hosts.iter().enumerate() {
        for (b, &nb) in hosts.iter().enumerate() {
            prop_assert_eq!(
                routes.path_nodes(g, a, b),
                apsp.path_nodes(na, nb),
                "slot path h{}->h{} vs the dense walk",
                a,
                b
            );
            prop_assert_eq!(
                routes.path_edges(g, a, b),
                apsp.path_edges(g, na, nb),
                "slot links h{}->h{} vs the searched links",
                a,
                b
            );
        }
    }
    for capacity in [1, 2, h] {
        let router = OnDemandRouter::new(g, hosts.to_vec(), Some(capacity));
        for sweep in 0..2 {
            for (a, &na) in hosts.iter().enumerate() {
                for (b, &nb) in hosts.iter().enumerate() {
                    let d = router.dist_ms(a, b);
                    prop_assert_eq!(
                        d.to_bits(),
                        routes.dist_ms(a, b).to_bits(),
                        "dist h{}->h{}, capacity {}, sweep {}",
                        a,
                        b,
                        capacity,
                        sweep
                    );
                    prop_assert_eq!(d.to_bits(), apsp.dist_ms(na, nb).to_bits());
                    prop_assert_eq!(
                        router.path_nodes(g, a, b),
                        routes.path_nodes(g, a, b),
                        "path h{}->h{}, capacity {}",
                        a,
                        b,
                        capacity
                    );
                    prop_assert_eq!(
                        router.path_edges(g, a, b),
                        routes.path_edges(g, a, b),
                        "links h{}->h{}, capacity {}",
                        a,
                        b,
                        capacity
                    );
                }
            }
        }
        let s = router.stats();
        prop_assert!(s.peak_resident <= capacity);
        prop_assert_eq!(s.evictions > 0, capacity < h);
    }
    Ok(())
}

fn every_node(g: &Graph) -> Vec<NodeId> {
    g.nodes().collect()
}

proptest! {
    #[test]
    fn waxman_on_demand_matches_dense(
        nodes in 8usize..40,
        alpha in 0.15f64..0.5,
        seed_ix in 0usize..SEEDS.len(),
        extra_seed in 0u64..500,
    ) {
        let seed = SEEDS[seed_ix] ^ extra_seed;
        let g = waxman_graph(nodes, alpha, seed);
        check(&g, &every_node(&g))?;
    }

    #[test]
    fn powerlaw_on_demand_matches_dense(
        nodes in 8usize..40,
        seed_ix in 0usize..SEEDS.len(),
        extra_seed in 0u64..500,
    ) {
        let seed = SEEDS[seed_ix] ^ extra_seed;
        let g = powerlaw_graph(nodes, seed);
        check(&g, &every_node(&g))?;
    }

    /// Hosts are leaves attached to the routers, as on every experiment
    /// testbed, so a row's host columns are a strict subset of its
    /// nodes.
    #[test]
    fn host_routes_match_on_demand(
        nodes in 8usize..40,
        hosts in 1usize..12,
        family in 0usize..2,
        seed_ix in 0usize..SEEDS.len(),
        extra_seed in 0u64..500,
    ) {
        let seed = SEEDS[seed_ix] ^ extra_seed;
        let mut g = if family == 1 {
            powerlaw_graph(nodes, seed)
        } else {
            waxman_graph(nodes, 0.3, seed)
        };
        let host_nodes = attach_hosts(&mut g, hosts, seed, 0.0);
        check(&g, &host_nodes)?;
    }

    /// The Chapter 3 testbeds' family: transit-stub routers with host
    /// leaves on the stub routers.
    #[test]
    fn transit_stub_on_demand_matches_dense(
        routers in 48usize..120,
        hosts in 1usize..16,
        seed_ix in 0usize..SEEDS.len(),
        extra_seed in 0u64..500,
    ) {
        let seed = SEEDS[seed_ix] ^ extra_seed;
        let mut g = transit_stub::generate(&TransitStubConfig::sized(routers), seed);
        let host_nodes = attach_hosts(&mut g, hosts, seed, 0.0);
        check(&g, &host_nodes)?;
    }

    /// Evict + re-query == fresh: after arbitrary interleaved queries
    /// through a tiny LRU, every row the router hands back equals the
    /// same host's row from a fresh router.
    #[test]
    fn lru_eviction_is_invisible(
        nodes in 6usize..24,
        seed_ix in 0usize..SEEDS.len(),
        queries in proptest::collection::vec(0usize..24, 1..60),
    ) {
        let g = powerlaw_graph(nodes, SEEDS[seed_ix]);
        let router = OnDemandRouter::new(&g, every_node(&g), Some(2));
        for q in queries {
            let a = q % nodes;
            let fresh = OnDemandRouter::new(&g, every_node(&g), Some(1)).row(a);
            prop_assert_eq!(&*router.row(a), &*fresh, "row {} diverged", a);
        }
        let s = router.stats();
        prop_assert!(s.resident <= 2, "LRU exceeded capacity: {}", s.resident);
    }
}

/// One cached row is one row of `HostRoutes`: a distance per host and,
/// once a path from its host is asked, a 2-byte predecessor slot per
/// node, nothing per router beyond that. On this testbed that is 8·9
/// bytes before the first path query and 8·9 + 2·39 after, not the
/// 16·39 of a node-keyed row with first hops.
#[test]
fn on_demand_rows_hold_host_rows_only() {
    let mut g = powerlaw_graph(30, 7);
    let hosts = attach_hosts(&mut g, 9, 7, 0.0);
    let n = g.num_nodes();
    assert_eq!(n, 39);
    let router = OnDemandRouter::new(&g, hosts.clone(), None);
    let routes = HostRoutes::build(&g, hosts);
    let row = router.row(4);
    let bytes = |row: &HostRow| {
        std::mem::size_of_val(row.dists()) + row.prev().map_or(0, std::mem::size_of_val)
    };
    assert_eq!((row.dists().len(), row.prev()), (9, None));
    assert_eq!(bytes(&row), 8 * 9);
    router.path_edges(&g, 4, 0);
    assert_eq!(row.prev().map(<[u16]>::len), Some(n));
    assert_eq!(bytes(&row), 8 * 9 + 2 * 39);
    for b in 0..9 {
        assert_eq!(row.dist_ms(b).to_bits(), routes.dist_ms(4, b).to_bits());
    }
}

/// Slot rows are built by whichever thread asks first. Four threads
/// ask node walks and link sequences of one shared oracle at once — the
/// eager host rows, and routers of one row per host and of two rows:
/// two threads from the same sources in the same order, so they race
/// to fill the same rows, and two from other sources. Every answer is
/// the dense table's walk, and each eager slot row is built once.
#[test]
fn concurrent_first_path_queries_match_the_dense_walk() {
    use std::sync::Barrier;
    let mut g = transit_stub::generate(&TransitStubConfig::sized(80), 3);
    let hosts = attach_hosts(&mut g, 14, 3, 0.0);
    let apsp = Apsp::build(&g);
    let h = hosts.len();
    let routes = HostRoutes::build(&g, hosts.clone());
    let full = OnDemandRouter::new(&g, hosts.clone(), Some(h));
    let tiny = OnDemandRouter::new(&g, hosts.clone(), Some(2));
    type Walk<'a> = &'a (dyn Fn(usize, usize) -> (Vec<NodeId>, Vec<vdm_topology::EdgeId>) + Sync);
    let oracles: [Walk; 3] = [
        &|a, b| (routes.path_nodes(&g, a, b), routes.path_edges(&g, a, b)),
        &|a, b| (full.path_nodes(&g, a, b), full.path_edges(&g, a, b)),
        &|a, b| (tiny.path_nodes(&g, a, b), tiny.path_edges(&g, a, b)),
    ];
    for walk in oracles {
        let start = Barrier::new(4);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let (g, apsp, hosts, start) = (&g, &apsp, &hosts, &start);
                scope.spawn(move || {
                    let sources: Vec<usize> = match t {
                        0 | 1 => (0..h).collect(),
                        2 => (0..h).rev().collect(),
                        _ => (0..h).map(|a| (a * 5 + 3) % h).collect(),
                    };
                    start.wait();
                    for a in sources {
                        for b in 0..h {
                            let (na, nb) = (hosts[a], hosts[b]);
                            let want = (apsp.path_nodes(na, nb), apsp.path_edges(g, na, nb));
                            assert_eq!(walk(a, b), want, "thread {t}: h{a}->h{b}");
                        }
                    }
                });
            }
        });
    }
    assert_eq!(routes.slot_rows_built(), h as u64);
    assert_eq!(full.stats().slot_rows, h as u64);
    assert!(tiny.stats().slot_rows >= h as u64);
}

/// Fixed-seed anchors (the two seeds named by the acceptance criteria),
/// checked exhaustively without proptest shrinking in the way.
#[test]
fn fixed_seed_equivalence_both_families() {
    for seed in SEEDS {
        for g in [waxman_graph(32, 0.25, seed), powerlaw_graph(32, seed)] {
            check(&g, &every_node(&g)).unwrap();
        }
    }
}
