//! Property tests for the content-addressed artifact cache: a cached
//! shortest-path/RTT artifact is bit-identical to a fresh build for
//! arbitrary generator parameters, and the cache key separates any two
//! parameter sets that differ.

use proptest::prelude::*;
use vdm_topology::cache::{CacheStore, KeyHasher};
use vdm_topology::waxman::{self, WaxmanConfig};
use vdm_topology::{Apsp, Graph, NodeId};

fn build(nodes: usize, alpha: f64, beta: f64, seed: u64) -> (Graph, Apsp) {
    let g = waxman::generate(
        &WaxmanConfig {
            nodes,
            alpha,
            beta,
            ..WaxmanConfig::default()
        },
        seed,
    )
    .graph;
    let apsp = Apsp::build(&g);
    (g, apsp)
}

fn key_of(nodes: usize, alpha: f64, beta: f64, seed: u64) -> KeyHasher {
    let mut h = KeyHasher::new();
    h.feed_str("waxman")
        .feed_usize(nodes)
        .feed_f64(alpha)
        .feed_f64(beta)
        .feed_u64(seed);
    h
}

proptest! {
    /// Storing an APSP artifact and loading it back yields exactly the
    /// fresh build: same distance matrix bits, same next-hop table, so
    /// every cached RTT equals the freshly computed one.
    #[test]
    fn cached_apsp_equals_fresh(
        nodes in 8usize..40,
        alpha in 0.15f64..0.5,
        beta in 0.1f64..0.4,
        seed in 0u64..1_000,
    ) {
        let dir = std::env::temp_dir().join(format!(
            "vdm-cache-props-{}-{nodes}-{seed}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CacheStore::at(&dir);
        let key = key_of(nodes, alpha, beta, seed).key("prop-apsp");

        let (g, fresh) = build(nodes, alpha, beta, seed);
        let cold = store.get_or_compute(
            &key,
            || fresh.clone(),
            Apsp::to_bytes,
            Apsp::from_bytes,
        );
        let warm = store.get_or_compute(
            &key,
            || panic!("second lookup must decode the stored artifact"),
            Apsp::to_bytes,
            Apsp::from_bytes,
        );
        let _ = std::fs::remove_dir_all(&dir);

        prop_assert_eq!(cold.to_bytes(), fresh.to_bytes());
        prop_assert_eq!(warm.to_bytes(), fresh.to_bytes());
        prop_assert_eq!(warm.num_nodes(), g.num_nodes());
        for a in 0..g.num_nodes().min(12) {
            for b in 0..g.num_nodes().min(12) {
                let (na, nb) = (NodeId(a as u32), NodeId(b as u32));
                prop_assert_eq!(
                    warm.dist_ms(na, nb).to_bits(),
                    fresh.dist_ms(na, nb).to_bits()
                );
                prop_assert_eq!(warm.next_hop(na, nb), fresh.next_hop(na, nb));
            }
        }
    }

    /// Any difference in any generator parameter — node count, either
    /// shape parameter, or the seed — produces a different cache key,
    /// so stale artifacts can never be served for new parameters.
    #[test]
    fn key_differs_when_any_parameter_differs(
        nodes in 8usize..40,
        alpha in 0.15f64..0.5,
        beta in 0.1f64..0.4,
        seed in 0u64..1_000,
        d_nodes in 1usize..5,
        d_scale in 1u32..50,
        d_seed in 1u64..1_000,
    ) {
        let base = key_of(nodes, alpha, beta, seed).key("prop-key").hash;
        let bump = d_scale as f64 * 1e-3;
        let variants = [
            key_of(nodes + d_nodes, alpha, beta, seed),
            key_of(nodes, alpha + bump, beta, seed),
            key_of(nodes, alpha, beta + bump, seed),
            key_of(nodes, alpha, beta, seed.wrapping_add(d_seed)),
        ];
        for (i, v) in variants.iter().enumerate() {
            prop_assert_ne!(
                base,
                v.key("prop-key").hash,
                "variant {} collided with the base key",
                i
            );
        }
        // Same parameters, same key (the hasher is a pure function).
        prop_assert_eq!(base, key_of(nodes, alpha, beta, seed).key("prop-key").hash);
        // Same hash input under a different domain is a different
        // artifact file, so domains cannot alias either.
        let other_domain = key_of(nodes, alpha, beta, seed).key("prop-other");
        prop_assert_ne!(
            key_of(nodes, alpha, beta, seed).key("prop-key").file_name(),
            other_domain.file_name()
        );
    }
}

/// The shortest-path kernel's output is bit-identical to the loop it
/// replaced. The constants are the FNV-1a hashes of the bytes the
/// pre-kernel code (commit e7d2e51) produced for this graph — transit-stub
/// plus hosts, so a third of the nodes are the leaves the kernel treats
/// specially. If this fails, either restore the output or bump
/// `CODE_SALT` and re-record.
///
/// `CODE_SALT` is at version 3 because underlay artifacts now hold host
/// routes instead of the dense table; the kernel's bytes did not move.
#[test]
fn artifact_bytes_match_the_pre_kernel_build() {
    use vdm_topology::transit_stub::{self, TransitStubConfig};
    use vdm_topology::RouteRow;

    fn fnv(bytes: &[u8]) -> u64 {
        KeyHasher::for_pins().feed_bytes(bytes).key("pin").hash
    }

    assert_eq!(vdm_topology::cache::CODE_SALT, 0x7664_6d63_6163_6803);
    let mut g = transit_stub::generate(&TransitStubConfig::sized(96), 42);
    let hosts = transit_stub::attach_hosts(&mut g, 40, 42, 0.0);
    assert_eq!((g.num_nodes(), g.num_edges()), (160, 186));
    assert_eq!(g.nodes().filter(|&v| g.degree(v) == 1).count(), 56);

    assert_eq!(fnv(&Apsp::build(&g).to_bytes()), 0x2103_3b9c_b21b_3243);
    let from_leaf = RouteRow::compute(&g, hosts[0]);
    assert_eq!(fnv(&from_leaf.to_bytes()), 0xaf6d_2dce_c9b0_3bde);
    let from_router = RouteRow::compute(&g, NodeId(0));
    assert_eq!(fnv(&from_router.to_bytes()), 0x1107_03c3_c0de_eb68);
}
