//! Host rows against the dense table they replace: for every ordered
//! host pair, `HostRoutes` must give the distance bits and the node path
//! that `Apsp` gives between the two hosts' nodes, on the testbeds the
//! experiments build.
//!
//! The two walks differ — `Apsp` reads each hop from the current node's
//! own row, `HostRoutes` reads the source host's predecessor row — and
//! agree in exact arithmetic (see `HostRoutes::path_nodes`). These pins
//! are the floating-point half of that argument. A seed that ever finds
//! a mismatch belongs here as a named case.

use vdm_topology::powerlaw::{self, PowerLawConfig};
use vdm_topology::transit_stub::{attach_hosts, generate, TransitStubConfig};
use vdm_topology::waxman::{self, WaxmanConfig};
use vdm_topology::{Apsp, Graph, HostRoutes, NodeId};

/// Compare every ordered host pair; returns the number compared.
fn assert_matches_apsp(g: &Graph, hosts: Vec<NodeId>) -> usize {
    let apsp = Apsp::build(g);
    let routes = HostRoutes::build(g, hosts.clone());
    for (a, &na) in hosts.iter().enumerate() {
        for (b, &nb) in hosts.iter().enumerate() {
            assert_eq!(
                routes.dist_ms(a, b).to_bits(),
                apsp.dist_ms(na, nb).to_bits(),
                "dist h{a}->h{b} ({na}->{nb})"
            );
            assert_eq!(
                routes.path_nodes(g, a, b),
                apsp.path_nodes(na, nb),
                "path h{a}->h{b} ({na}->{nb})"
            );
        }
    }
    hosts.len() * hosts.len()
}

/// The graph and host nodes `vdm_experiments::setup::ch3_setup` builds
/// for `members` overlay members (link loss does not move delays).
fn ch3_testbed(members: usize, seed: u64) -> (Graph, Vec<NodeId>) {
    let needed = members + 1;
    let mut g = generate(&TransitStubConfig::for_hosts(needed), seed);
    let hosts = attach_hosts(&mut g, needed, seed, 0.0);
    (g, hosts)
}

/// The benchmark's first iteration seeds (`seed + 1000·r + 17`, r = 0
/// and 1, for seed 42) at the paper's 80- and 200-member scales.
#[test]
fn ch3_testbeds_match_dense() {
    for members in [80, 200] {
        for seed in [59, 1059] {
            let (g, hosts) = ch3_testbed(members, seed);
            assert_matches_apsp(&g, hosts);
        }
    }
}

/// The Waxman and power-law underlays behind A4's topology rows
/// (`(members + 1) · 3` routers, a host leaf per member; 40 members at
/// quick effort, 100 above).
#[test]
fn a4_topologies_match_dense() {
    for (members, seed) in [(40, 42), (100, 59)] {
        let routers = (members + 1) * 3;
        let mut g = waxman::generate(
            &WaxmanConfig {
                nodes: routers,
                ..WaxmanConfig::default()
            },
            seed,
        )
        .graph;
        let hosts = attach_hosts(&mut g, members + 1, seed, 0.0);
        assert_matches_apsp(&g, hosts);

        let mut g = powerlaw::generate(
            &PowerLawConfig {
                nodes: routers,
                ..PowerLawConfig::default()
            },
            seed,
        );
        let hosts = attach_hosts(&mut g, members + 1, seed, 0.0);
        assert_matches_apsp(&g, hosts);
    }
}

/// The full sweep: 1 000 members on the benchmark's three iteration
/// seeds for each of seeds 42 and 101 — six million host pairs. Run with
/// `cargo test --release -p vdm-topology --test host_routes --
/// --include-ignored`.
#[test]
#[ignore = "≈ 6 M host pairs; run in release"]
fn thousand_member_sweep_matches_dense() {
    let mut pairs = 0;
    for base in [42u64, 101] {
        for r in 0..3 {
            let (g, hosts) = ch3_testbed(1000, base + 1000 * r + 17);
            pairs += assert_matches_apsp(&g, hosts);
        }
    }
    assert_eq!(pairs, 6 * 1001 * 1001);
}
