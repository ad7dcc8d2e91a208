//! Shard-aware power-law underlay generation.
//!
//! The sharded event engine (`vdm-netsim::shard`) partitions hosts into
//! contiguous id blocks — atm0s-sdn-style hierarchical node ids, where the
//! high bits of a host id name its shard the way `[Geo1][Geo2][Group]`
//! prefixes name a zone. This module generates an underlay with the same
//! structure: `S` independent Barabási–Albert router clusters (one per
//! shard), each with its own gateway hub, joined by long-haul gateway
//! links whose delays come from a separate, higher `cross_delay_range`.
//!
//! That range floor is the point: conservative parallel DES needs a
//! *lookahead* — a lower bound on how soon an event produced in one shard
//! can affect another — and here every cross-shard packet crosses at least
//! one gateway link, so
//! [`ShardedPowerLaw::min_cross_shard_delay_ms`] is a sound lookahead
//! oracle by construction.
//!
//! Routing is hierarchical (gateway routing, as atm0s-sdn routes between
//! geo zones): a packet climbs from its host to the shard gateway, rides
//! the gateway backbone, and descends to the destination host. Distances
//! therefore decompose as `up[a] + core[shard(a)][shard(b)] + up[b]`,
//! which the netsim-side `ShardedUnderlay` answers in O(1) per query with
//! O(hosts + S²) memory — no dense matrix and no per-source Dijkstra rows
//! at 100k+ hosts.

use crate::graph::{Graph, LinkAttrs, NodeId, NodeKind};
use crate::spath::dijkstra;
use crate::{splitmix64, Millis};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Parameters of the sharded power-law generator.
#[derive(Clone, Copy, Debug)]
pub struct ShardedPowerLawConfig {
    /// Number of shards (≥ 1).
    pub shards: usize,
    /// Total hosts, distributed near-equally over shards in contiguous
    /// id blocks (shard of host `h` is a range lookup, never a hash).
    pub hosts: usize,
    /// Barabási–Albert attachment count within each shard cluster.
    pub m: usize,
    /// Intra-shard router link delay range, ms.
    pub intra_delay_range: (Millis, Millis),
    /// Gateway (cross-shard) link delay range, ms. The floor is the
    /// lookahead lower bound the sharded engine synchronizes on, so it
    /// must sit well above zero.
    pub cross_delay_range: (Millis, Millis),
    /// Extra random gateway chords on top of the gateway ring.
    pub cross_chords: usize,
}

impl Default for ShardedPowerLawConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            hosts: 1024,
            m: 2,
            intra_delay_range: (1.0, 12.0),
            cross_delay_range: (20.0, 60.0),
            cross_chords: 2,
        }
    }
}

/// A generated sharded underlay: the merged graph plus the hierarchical
/// distance decomposition the O(1) oracle needs.
pub struct ShardedPowerLaw {
    /// Merged router + host graph (per-shard clusters, gateway links,
    /// host access links) — for inspection and per-link experiments at
    /// moderate sizes; the distance oracle never routes over it.
    pub graph: Graph,
    /// Graph node of each host, in host-id (= shard-major) order.
    pub host_nodes: Vec<NodeId>,
    /// Host-id boundaries per shard: shard `s` owns hosts
    /// `host_bounds[s]..host_bounds[s + 1]`. Length `shards + 1`.
    pub host_bounds: Vec<u32>,
    /// Gateway router node of each shard.
    pub gateways: Vec<NodeId>,
    /// Per host: delay from the host to its shard gateway, ms (host
    /// access link + intra-shard shortest path).
    pub up_ms: Vec<Millis>,
    /// Flattened `shards × shards` gateway-to-gateway delay table, ms
    /// (all-pairs shortest paths over the gateway backbone; zero
    /// diagonal).
    pub core_ms: Vec<Millis>,
}

impl ShardedPowerLaw {
    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.host_bounds.len() - 1
    }

    /// Shard owning host id `h`.
    pub fn shard_of_host(&self, h: u32) -> u32 {
        debug_assert!(h < *self.host_bounds.last().unwrap());
        (self.host_bounds.partition_point(|&b| b <= h) - 1) as u32
    }

    /// Gateway-to-gateway backbone delay between two shards, ms.
    pub fn core(&self, a: usize, b: usize) -> Millis {
        self.core_ms[a * self.shards() + b]
    }

    /// Minimum delay any packet needs to cross from one shard into
    /// another, ms: the smallest off-diagonal backbone entry. Every
    /// cross-shard host pair pays at least this (plus both access
    /// climbs), so it lower-bounds cross-shard event latency — the
    /// conservative-DES lookahead. `INFINITY` for a single shard.
    pub fn min_cross_shard_delay_ms(&self) -> Millis {
        let s = self.shards();
        let mut min = f64::INFINITY;
        for a in 0..s {
            for b in 0..s {
                if a != b {
                    min = min.min(self.core(a, b));
                }
            }
        }
        min
    }
}

/// Generate a sharded power-law underlay. Deterministic per
/// `(cfg, seed)`; each shard cluster draws from its own derived RNG
/// stream, so growing `hosts` leaves earlier shards' shapes unchanged
/// only per-shard, not globally (the contract is reproducibility, not
/// incremental stability).
pub fn generate_sharded(cfg: &ShardedPowerLawConfig, seed: u64) -> ShardedPowerLaw {
    assert!(cfg.shards >= 1, "need at least one shard");
    assert!(
        cfg.hosts >= cfg.shards,
        "need at least one host per shard ({} hosts, {} shards)",
        cfg.hosts,
        cfg.shards
    );
    assert!(
        cfg.cross_delay_range.0 > 0.0 && cfg.cross_delay_range.1 >= cfg.cross_delay_range.0,
        "cross-shard delay range must be positive (it is the lookahead floor)"
    );

    let s = cfg.shards;
    let mut g = Graph::new();
    let mut host_nodes = Vec::with_capacity(cfg.hosts);
    let mut host_bounds = Vec::with_capacity(s + 1);
    let mut gateways = Vec::with_capacity(s);
    let mut up_ms = Vec::with_capacity(cfg.hosts);
    host_bounds.push(0u32);

    let base_hosts = cfg.hosts / s;
    let extra = cfg.hosts % s;
    for shard in 0..s {
        let hosts_here = base_hosts + usize::from(shard < extra);
        // Router cluster sized like `scale_setup` does per shard, floored
        // so the BA seed clique always fits.
        let routers = (hosts_here + hosts_here / 8 + 8).max(cfg.m + 2);
        let shard_seed = splitmix64(seed ^ 0x0073_6861_7264 ^ (shard as u64).wrapping_mul(0xa5a5));
        let cluster = crate::powerlaw::generate(
            &crate::powerlaw::PowerLawConfig {
                nodes: routers,
                m: cfg.m,
                delay_range: cfg.intra_delay_range,
            },
            shard_seed,
        );

        // Merge the cluster; its node 0 (a seed-clique hub) becomes the
        // shard gateway.
        let mut local = Vec::with_capacity(routers);
        for i in 0..routers {
            let kind = if i == 0 {
                NodeKind::Transit
            } else {
                NodeKind::Stub
            };
            local.push(g.add_node(kind));
        }
        gateways.push(local[0]);
        for (_, e) in cluster.edges() {
            g.add_edge(local[e.a.idx()], local[e.b.idx()], e.attrs);
        }

        // Intra-shard distances from the gateway, computed on the
        // cluster before merging (cross links don't exist yet anyway,
        // so this is exactly the hierarchical "climb" cost).
        let sp = dijkstra(&cluster, NodeId(0));

        // Attach this shard's hosts to its routers.
        let mut rng = StdRng::seed_from_u64(shard_seed ^ 0x686f_7374);
        for _ in 0..hosts_here {
            let r = rng.gen_range(0..routers);
            let access: Millis = rng.gen_range(0.5..2.0);
            let hn = g.add_node(NodeKind::Host);
            g.add_edge(local[r], hn, LinkAttrs::delay(access));
            host_nodes.push(hn);
            up_ms.push(sp.dist[r] + access);
        }
        host_bounds.push(host_nodes.len() as u32);
    }

    // Gateway backbone: a ring plus random chords, each a long-haul link
    // drawn from the cross range. Its all-pairs shortest paths are the
    // core table.
    let mut cross = StdRng::seed_from_u64(seed ^ 0x0063_726f_7373);
    let mut core = vec![f64::INFINITY; s * s];
    for i in 0..s {
        core[i * s + i] = 0.0;
    }
    let add_gateway_link =
        |g: &mut Graph, core: &mut Vec<Millis>, a: usize, b: usize, d: Millis| {
            if g.find_edge(gateways[a], gateways[b]).is_none() {
                g.add_edge(gateways[a], gateways[b], LinkAttrs::delay(d));
            }
            core[a * s + b] = core[a * s + b].min(d);
            core[b * s + a] = core[b * s + a].min(d);
        };
    if s > 1 {
        for a in 0..s {
            let b = (a + 1) % s;
            if a < b || s == 2 {
                let d = cross.gen_range(cfg.cross_delay_range.0..=cfg.cross_delay_range.1);
                add_gateway_link(&mut g, &mut core, a, b, d);
            }
        }
        for _ in 0..cfg.cross_chords {
            let a = cross.gen_range(0..s);
            let b = cross.gen_range(0..s);
            let d = cross.gen_range(cfg.cross_delay_range.0..=cfg.cross_delay_range.1);
            if a != b {
                add_gateway_link(&mut g, &mut core, a, b, d);
            }
        }
        // Floyd–Warshall over the S-node backbone (S is small).
        for k in 0..s {
            for i in 0..s {
                for j in 0..s {
                    let via = core[i * s + k] + core[k * s + j];
                    if via < core[i * s + j] {
                        core[i * s + j] = via;
                    }
                }
            }
        }
    }

    debug_assert!(g.is_connected());
    ShardedPowerLaw {
        graph: g,
        host_nodes,
        host_bounds,
        gateways,
        up_ms,
        core_ms: core,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(shards: usize, hosts: usize) -> ShardedPowerLawConfig {
        ShardedPowerLawConfig {
            shards,
            hosts,
            ..ShardedPowerLawConfig::default()
        }
    }

    #[test]
    fn shards_are_contiguous_and_cover_all_hosts() {
        let t = generate_sharded(&cfg(4, 103), 7);
        assert_eq!(t.shards(), 4);
        assert_eq!(t.host_nodes.len(), 103);
        assert_eq!(t.up_ms.len(), 103);
        assert_eq!(*t.host_bounds.last().unwrap(), 103);
        // Near-equal blocks, remainder spread over the first shards.
        let sizes: Vec<u32> = t.host_bounds.windows(2).map(|w| w[1] - w[0]).collect();
        assert_eq!(sizes, vec![26, 26, 26, 25]);
        assert_eq!(t.shard_of_host(0), 0);
        assert_eq!(t.shard_of_host(25), 0);
        assert_eq!(t.shard_of_host(26), 1);
        assert_eq!(t.shard_of_host(102), 3);
        assert!(t.graph.is_connected());
    }

    #[test]
    fn lookahead_oracle_lower_bounds_cross_core_delays() {
        let t = generate_sharded(&cfg(4, 128), 11);
        let min = t.min_cross_shard_delay_ms();
        assert!(min >= 20.0, "min cross delay {min} below the range floor");
        for a in 0..4 {
            for b in 0..4 {
                if a != b {
                    assert!(t.core(a, b) >= min);
                    assert!(t.core(a, b).is_finite(), "backbone disconnected");
                    // Symmetric and triangle-closed (Floyd–Warshall).
                    assert_eq!(t.core(a, b), t.core(b, a));
                } else {
                    assert_eq!(t.core(a, b), 0.0);
                }
            }
        }
        // Up-costs are at least the host access link.
        assert!(t.up_ms.iter().all(|&u| u >= 0.5));
    }

    #[test]
    fn single_shard_has_no_cross_links() {
        let t = generate_sharded(&cfg(1, 64), 3);
        assert_eq!(t.shards(), 1);
        assert!(t.min_cross_shard_delay_ms().is_infinite());
        assert!(t.graph.is_connected());
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate_sharded(&cfg(3, 97), 5);
        let b = generate_sharded(&cfg(3, 97), 5);
        assert_eq!(a.up_ms, b.up_ms);
        assert_eq!(a.core_ms, b.core_ms);
        assert_eq!(a.graph.num_edges(), b.graph.num_edges());
        let c = generate_sharded(&cfg(3, 97), 6);
        assert_ne!(a.up_ms, c.up_ms);
    }
}
