//! Scale-out routing: the memory-bounded [`OnDemandRouter`].
//!
//! [`crate::HostRoutes`] computes one distance row per host up front and
//! stores each host pair once, `4.5·H(H−1)` bytes, plus `2·n` bytes of
//! predecessor slots per host a path is asked from; at A9 scale (10k
//! members on an 11k-router graph) the distances alone are ~0.45 GB,
//! and with every slot row ~0.9 GB. The router computes the same rows
//! lazily and keeps at most `capacity` of them in an LRU. A row comes
//! out of [`crate::HostRoutes`]' row builder: per source host, `H` f64
//! distances at
//! the host columns, `8·H` bytes, and once a path from the source is
//! asked while the row is resident, one `n`-long row of u16 predecessor
//! slots (see [`crate::spath`]), `8·H + 2·n` bytes; the slots are
//! evicted with the row. Memory is `O(capacity · (H + n))`, and rows
//! are shared read-only (`Arc`) across runner threads.
//!
//! [`RoutedUnderlay`] in `vdm-netsim` holds either oracle and asks both
//! the same questions by host index — `dist_ms(a, b)` and
//! `path_edges(g, a, b)` — and both answer **bit-for-bit identically**:
//! a row is the same kernel run (the one loop in [`crate::spath`]) from
//! the same source into the same row shape, so switching oracles cannot
//! perturb closest-child selection anywhere. Because both sides are
//! that kernel, agreement between them proves nothing about it;
//! `spath`'s reference tests check it against an independent textbook
//! Dijkstra.
//!
//! [`RoutedUnderlay`]: ../../vdm_netsim/underlay/struct.RoutedUnderlay.html

use crate::graph::{EdgeId, Graph, NodeId};
use crate::spath::{assert_graph, route_links, route_nodes, Csr, ScratchPool};
use crate::Millis;
use std::sync::{Arc, Mutex, OnceLock};

/// One source host's routes, the unit the [`OnDemandRouter`] caches:
/// the distance to every host and, once a path from the source has been
/// asked, the predecessor of every node on the source's shortest-path
/// tree — one row of [`crate::HostRoutes`].
#[derive(Clone, Debug, PartialEq)]
pub struct HostRow {
    /// `dist[b]` = shortest delay (ms) to host `b`; `INFINITY` when
    /// unreachable.
    dist: Vec<Millis>,
    /// `prev[v]` = slot of node `v`'s predecessor in `v`'s adjacency
    /// list; `u16::MAX` for the source's node and unreachable nodes.
    /// Built on the row's first path query.
    prev: OnceLock<Box<[u16]>>,
}

impl HostRow {
    /// Shortest delay (ms) from this row's source to host `b`.
    #[inline]
    pub fn dist_ms(&self, b: usize) -> Millis {
        self.dist[b]
    }

    /// The distances this row holds, one per host.
    pub fn dists(&self) -> &[Millis] {
        &self.dist
    }

    /// The predecessor-slot row, one entry per graph node: the index
    /// of the node's predecessor in its [`Graph::neighbors`] list,
    /// `u16::MAX` for none. `None` until a path from this row's source
    /// has been asked while the row was resident.
    pub fn prev(&self) -> Option<&[u16]> {
        self.prev.get().map(|row| &row[..])
    }
}

/// Per-instance counters for one [`OnDemandRouter`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Row lookups served from the LRU.
    pub hits: u64,
    /// Row lookups that ran a fresh Dijkstra.
    pub misses: u64,
    /// Rows dropped to stay within `capacity`.
    pub evictions: u64,
    /// Rows currently resident.
    pub resident: usize,
    /// High-water mark of resident rows — the peak-RSS proxy the A9
    /// scale family reports.
    pub peak_resident: usize,
    /// Configured row capacity.
    pub capacity: usize,
    /// Predecessor-slot rows built: one per path query from a resident
    /// row that held none.
    pub slot_rows: u64,
}

/// One host's LRU slot.
#[derive(Clone, Default)]
struct Slot {
    /// The host's row while it is resident.
    row: Option<Arc<HostRow>>,
    /// LRU tick of the row's last use.
    last_used: u64,
}

/// The LRU, one slot per host.
#[derive(Default)]
struct RowLru {
    slots: Vec<Slot>,
    /// Hosts whose row is resident, in no particular order.
    resident: Vec<u32>,
    tick: u64,
    peak: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// Memory-bounded routing oracle over the hosts of an underlay: host
/// rows computed on demand, at most `capacity` kept in an LRU.
///
/// Rows are handed out as `Arc<HostRow>`, so concurrent runner threads
/// share them read-only; the internal lock is held only for the LRU
/// bookkeeping, never across a Dijkstra run.
pub struct OnDemandRouter {
    /// The graph's adjacency, flattened once for every row.
    csr: Csr,
    /// Graph node of each host, in host-id order.
    hosts: Vec<NodeId>,
    capacity: usize,
    lru: Mutex<RowLru>,
    scratch: ScratchPool,
}

impl std::fmt::Debug for OnDemandRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("OnDemandRouter")
            .field("nodes", &self.csr.num_nodes())
            .field("hosts", &self.hosts.len())
            .field("capacity", &self.capacity)
            .field("resident", &s.resident)
            .finish()
    }
}

/// Row-cache memory budget used by [`OnDemandRouter::default_capacity`].
const ROW_BUDGET_BYTES: usize = 64 << 20;

impl OnDemandRouter {
    /// Router over the hosts `hosts` of `g` holding at most `capacity`
    /// rows; pass `None` for [`Self::default_capacity`] of `g`'s node
    /// count.
    ///
    /// # Panics
    /// Panics when a host is not a node of `g`.
    pub fn new(g: &Graph, hosts: Vec<NodeId>, capacity: Option<usize>) -> Self {
        let n = g.num_nodes();
        assert!(hosts.iter().all(|v| v.idx() < n), "host out of range");
        let capacity = capacity.unwrap_or_else(|| Self::default_capacity(n)).max(1);
        let lru = RowLru {
            slots: vec![Slot::default(); hosts.len()],
            resident: Vec::with_capacity(capacity.min(hosts.len())),
            ..RowLru::default()
        };
        Self {
            csr: Csr::new(g),
            hosts,
            capacity,
            lru: Mutex::new(lru),
            scratch: ScratchPool::default(),
        }
    }

    /// Rows-in-memory bound for an `n`-node graph under a fixed
    /// ~64 MiB budget, clamped to `[8, n]`. At 1k nodes that is every
    /// row (the dense regime); at 20k nodes it is ~200 rows — memory
    /// stays `O(capacity · (H + n))`, not `O(H · n)`.
    ///
    /// The formula prices a row at 16 bytes per node, the size of the
    /// node-keyed rows the router used to cache. A host row is `8·H`
    /// bytes until a path from its source is asked and `8·H + 2·n`
    /// after. When hosts are at most half the nodes (as on A9's
    /// testbeds) that is at most 4 and 6 bytes per node, so the budget
    /// is about 4× conservative for rows that only answer distances, as
    /// the join walks' rows do, and 2.7× when every row holds its
    /// slots. The formula is kept on purpose: it fixes every A9
    /// capacity, and with it every row hit, miss and eviction count.
    pub fn default_capacity(n: usize) -> usize {
        let row_bytes = n.max(1) * 16;
        (ROW_BUDGET_BYTES / row_bytes).clamp(8, n.max(8))
    }

    /// Graph node of each host, in host-id order.
    pub fn hosts(&self) -> &[NodeId] {
        &self.hosts
    }

    /// Configured row capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Snapshot this instance's hit/miss/eviction/residency and
    /// slot-row counters.
    pub fn stats(&self) -> RouterStats {
        let lru = self.lru.lock().expect("router lru lock");
        RouterStats {
            hits: lru.hits,
            misses: lru.misses,
            evictions: lru.evictions,
            resident: lru.resident.len(),
            peak_resident: lru.peak,
            capacity: self.capacity,
            slot_rows: self.scratch.slot_rows_built(),
        }
    }

    /// Host `a`'s row: from the LRU when resident, else computed
    /// outside the lock.
    pub fn row(&self, a: usize) -> Arc<HostRow> {
        {
            let mut lru = self.lru.lock().expect("router lru lock");
            lru.tick += 1;
            let tick = lru.tick;
            let slot = &mut lru.slots[a];
            if let Some(row) = &slot.row {
                let row = Arc::clone(row);
                slot.last_used = tick;
                lru.hits += 1;
                return row;
            }
            lru.misses += 1;
        }
        // Compute without holding the lock: other threads can keep
        // hitting resident rows during this Dijkstra. The row is
        // allocated before the scratch is taken.
        let mut row = HostRow {
            dist: vec![Millis::INFINITY; self.hosts.len()],
            prev: OnceLock::new(),
        };
        let mut scratch = self.scratch.take(self.csr.num_nodes());
        scratch.host_dists(&self.csr, &self.hosts, self.hosts[a], &mut row.dist);
        self.scratch.give_back(scratch);
        let row = Arc::new(row);

        let mut lru = self.lru.lock().expect("router lru lock");
        lru.tick += 1;
        let tick = lru.tick;
        if let Some(theirs) = &lru.slots[a].row {
            // Another thread raced us to the same row; share theirs.
            let theirs = Arc::clone(theirs);
            lru.slots[a].last_used = tick;
            return theirs;
        }
        if lru.resident.len() >= self.capacity {
            // Scan-min eviction: capacity is small (hundreds), and the
            // scan is far cheaper than the Dijkstra that preceded it.
            // Ticks are unique, so the victim is too.
            let RowLru {
                slots,
                resident,
                evictions,
                ..
            } = &mut *lru;
            if let Some(at) =
                (0..resident.len()).min_by_key(|&i| slots[resident[i] as usize].last_used)
            {
                let victim = resident.swap_remove(at);
                slots[victim as usize].row = None;
                *evictions += 1;
            }
        }
        lru.slots[a] = Slot {
            row: Some(Arc::clone(&row)),
            last_used: tick,
        };
        lru.resident.push(a as u32);
        lru.peak = lru.peak.max(lru.resident.len());
        row
    }

    /// Shortest one-way delay (ms) from host `a` to host `b`; the bits
    /// of [`crate::HostRoutes::dist_ms`]. Always read from `a`'s row.
    pub fn dist_ms(&self, a: usize, b: usize) -> Millis {
        self.row(a).dist_ms(b)
    }

    /// Node sequence of the route from host `a` to host `b`
    /// (inclusive), walked back along `a`'s predecessor row, as
    /// [`crate::HostRoutes::path_nodes`] walks it, off `g`'s adjacency
    /// lists; `g` must be the graph the router was built over.
    ///
    /// # Panics
    /// Panics when `g`'s node or link count is not that graph's.
    pub fn path_nodes(&self, g: &Graph, a: usize, b: usize) -> Vec<NodeId> {
        assert_graph(g, &self.csr);
        let row = self.row(a);
        if row.dist[b].is_infinite() {
            return Vec::new();
        }
        route_nodes(g, self.prev_row(&row, a), self.hosts[a], self.hosts[b])
    }

    /// Edge sequence of the route from host `a` to host `b`, read off
    /// `g`'s adjacency entries; `g` must be the graph the router was
    /// built over.
    ///
    /// # Panics
    /// Panics when `g`'s node or link count is not that graph's.
    pub fn path_edges(&self, g: &Graph, a: usize, b: usize) -> Vec<EdgeId> {
        assert_graph(g, &self.csr);
        route_links(g, self.prev_row(&self.row(a), a), self.hosts[b])
    }

    /// Host `a`'s predecessor-slot row, built into `row` on first use.
    fn prev_row<'a>(&self, row: &'a HostRow, a: usize) -> &'a [u16] {
        self.scratch.slot_row(&row.prev, &self.csr, self.hosts[a])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{LinkAttrs, NodeKind};
    use crate::Apsp;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_graph(seed: u64, n: usize) -> Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = Graph::with_nodes(n, NodeKind::Stub);
        for v in 1..n {
            let u = rng.gen_range(0..v);
            g.add_edge(
                NodeId(u as u32),
                NodeId(v as u32),
                LinkAttrs::delay(rng.gen_range(1.0..20.0)),
            );
        }
        for _ in 0..n {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            if a != b && g.find_edge(NodeId(a as u32), NodeId(b as u32)).is_none() {
                g.add_edge(
                    NodeId(a as u32),
                    NodeId(b as u32),
                    LinkAttrs::delay(rng.gen_range(1.0..20.0)),
                );
            }
        }
        g
    }

    /// A router with every node of `g` a host, so host `i` is node `i`.
    fn every_node_a_host(g: &Graph, capacity: Option<usize>) -> OnDemandRouter {
        OnDemandRouter::new(g, g.nodes().collect(), capacity)
    }

    /// Bitwise equality of the router and the dense table on every
    /// (a, b) query, every node a host.
    fn assert_router_matches_dense(g: &Graph) {
        let apsp = Apsp::build(g);
        let router = every_node_a_host(g, None);
        for a in g.nodes() {
            for b in g.nodes() {
                let (d1, d2) = (apsp.dist_ms(a, b), router.dist_ms(a.idx(), b.idx()));
                assert_eq!(d1.to_bits(), d2.to_bits(), "dist {a}->{b}: {d1} vs {d2}");
                assert_eq!(
                    apsp.path_nodes(a, b),
                    router.path_nodes(g, a.idx(), b.idx()),
                    "path {a}->{b}"
                );
            }
        }
    }

    #[test]
    fn on_demand_matches_dense_on_random_graphs() {
        for seed in [3u64, 17] {
            assert_router_matches_dense(&random_graph(seed, 24));
        }
    }

    /// The headline-bugfix companion: delays split below f32 resolution
    /// must agree bitwise between the dense (now f64) oracle and the
    /// on-demand rows.
    #[test]
    fn on_demand_matches_dense_below_f32_resolution() {
        let mut g = Graph::with_nodes(3, NodeKind::Stub);
        g.add_edge(NodeId(0), NodeId(1), LinkAttrs::delay(1000.0 + 1e-5));
        g.add_edge(NodeId(0), NodeId(2), LinkAttrs::delay(1000.0));
        assert_router_matches_dense(&g);
        let router = every_node_a_host(&g, None);
        let (d1, d2) = (router.dist_ms(0, 1), router.dist_ms(0, 2));
        assert!(d2 < d1, "sub-f32 delay difference must survive: {d2} {d1}");
    }

    #[test]
    fn lru_eviction_requery_equals_fresh() {
        let g = random_graph(5, 16);
        let router = every_node_a_host(&g, Some(2));
        let before = HostRow::clone(&router.row(0));
        router.row(1);
        router.row(2); // evicts host 0's row (LRU)
        let s = router.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.resident, 2);
        assert_eq!(s.peak_resident, 2);
        let again = router.row(0); // recomputed
        assert_eq!(*again, before, "evicted + re-queried row must equal fresh");
        assert_eq!(*again, *every_node_a_host(&g, Some(1)).row(0));
        assert_eq!(router.stats().misses, 4);
    }

    #[test]
    fn lru_hits_and_recency() {
        let g = random_graph(9, 12);
        let router = every_node_a_host(&g, Some(2));
        router.row(0);
        router.row(1);
        router.row(0); // refresh 0's recency
        router.row(2); // must evict 1, not 0
        let s = router.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 3, 1));
        router.row(0); // still resident
        assert_eq!(router.stats().hits, 2);
    }

    #[test]
    fn default_capacity_is_bounded() {
        assert_eq!(OnDemandRouter::default_capacity(10), 10);
        assert_eq!(OnDemandRouter::default_capacity(1000), 1000);
        let c20k = OnDemandRouter::default_capacity(20_000);
        assert!((8..=1000).contains(&c20k), "20k-node capacity {c20k}");
        assert_eq!(OnDemandRouter::default_capacity(0), 8);
    }

    #[test]
    fn rows_shared_across_threads() {
        let g = random_graph(21, 32);
        let apsp = Arc::new(Apsp::build(&g));
        let router = Arc::new(every_node_a_host(&g, Some(8)));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let r = Arc::clone(&router);
                let apsp = Arc::clone(&apsp);
                std::thread::spawn(move || {
                    let mut rng = StdRng::seed_from_u64(100 + t);
                    for _ in 0..200 {
                        let a = rng.gen_range(0..32u32);
                        let b = rng.gen_range(0..32u32);
                        let d = r.dist_ms(a as usize, b as usize);
                        assert_eq!(d.to_bits(), apsp.dist_ms(NodeId(a), NodeId(b)).to_bits());
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let s = router.stats();
        assert!(s.resident <= 8);
        assert_eq!(
            router.dist_ms(0, 31).to_bits(),
            apsp.dist_ms(NodeId(0), NodeId(31)).to_bits()
        );
    }
}
