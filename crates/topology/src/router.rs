//! The row LRU: [`HostRouter::with_lru`](crate::HostRouter::with_lru)'s distance store.
//!
//! Up front, a [`HostRouter`](crate::HostRouter) stores each host pair once,
//! `4.5·H(H−1)` bytes, plus `2·n` bytes of predecessor slots per host a
//! path is asked from; at A9 scale (10k members on an 11k-router graph)
//! the distances alone are ~0.45 GB, and with every slot row ~0.9 GB.
//! The LRU computes the same rows lazily and keeps at most `capacity`
//! of them: per source host, `H` f64 distances at the host columns,
//! `8·H` bytes, and once a path from the source is asked while the row
//! is resident, one `n`-long row of u16 predecessor slots (see
//! [`crate::spath`]), `8·H + 2·n` bytes; the slots are evicted with the
//! row. Memory is `O(capacity · (H + n))`, and rows are shared
//! read-only (`Arc`) across runner threads.
//!
//! A row is the same kernel run (the one loop in [`crate::spath`]) from
//! the same source into the same row shape as the pair table's, so the
//! store cannot perturb closest-child selection anywhere. Because both
//! stores are that kernel, agreement between them proves nothing about
//! it; `spath`'s reference tests check it against an independent
//! textbook Dijkstra.

use crate::Millis;
use std::sync::{Arc, Mutex, OnceLock};

/// One source host's routes, the unit the LRU caches: the distance to
/// every host and, once a path from the source has been asked, the
/// predecessor of every node on the source's shortest-path tree.
#[derive(Clone, Debug, PartialEq)]
pub struct HostRow {
    /// `dist[b]` = shortest delay (ms) to host `b`; `INFINITY` when
    /// unreachable.
    pub(crate) dist: Vec<Millis>,
    /// `prev[v]` = slot of node `v`'s predecessor in `v`'s adjacency
    /// list; `u16::MAX` for the source's node and unreachable nodes.
    /// Built on the row's first path query.
    pub(crate) prev: OnceLock<Box<[u16]>>,
}

impl HostRow {
    /// A row of distances `dist`, with no slots yet.
    pub(crate) fn new(dist: Vec<Millis>) -> Self {
        Self {
            dist,
            prev: OnceLock::new(),
        }
    }

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
    /// of the node's predecessor in its [`crate::Graph::neighbors`]
    /// list, `u16::MAX` for none. `None` until a path from this row's
    /// source has been asked while the row was resident.
    pub fn prev(&self) -> Option<&[u16]> {
        self.prev.get().map(|row| &row[..])
    }
}

/// Per-instance counters for one [`HostRouter`](crate::HostRouter).
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
    /// Predecessor-slot rows built: one per source host a path has been
    /// asked from (again after its row's eviction).
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

/// At most `capacity` host rows. Rows are handed out as
/// `Arc<HostRow>`, so concurrent runner threads share them read-only;
/// the lock is held only for the LRU bookkeeping, never across a
/// Dijkstra run.
pub(crate) struct RowCache {
    capacity: usize,
    lru: Mutex<RowLru>,
}

impl RowCache {
    /// An empty cache for `hosts` hosts.
    pub(crate) fn new(hosts: usize, capacity: usize) -> Self {
        let lru = RowLru {
            slots: vec![Slot::default(); hosts],
            resident: Vec::with_capacity(capacity.min(hosts)),
            ..RowLru::default()
        };
        Self {
            capacity,
            lru: Mutex::new(lru),
        }
    }

    /// The hit/miss/eviction/residency counters, with `slot_rows`.
    pub(crate) fn stats(&self, slot_rows: u64) -> RouterStats {
        let lru = self.lru.lock().expect("router lru lock");
        RouterStats {
            hits: lru.hits,
            misses: lru.misses,
            evictions: lru.evictions,
            resident: lru.resident.len(),
            peak_resident: lru.peak,
            capacity: self.capacity,
            slot_rows,
        }
    }

    /// Host `a`'s row: from the LRU when resident, else `build`'s,
    /// computed outside the lock.
    pub(crate) fn row(&self, a: usize, build: impl FnOnce() -> HostRow) -> Arc<HostRow> {
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
        // hitting resident rows during this Dijkstra.
        let row = Arc::new(build());

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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{LinkAttrs, NodeKind};
    use crate::spath::tests::random_graph;
    use crate::{Apsp, Graph, HostRouter, NodeId};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_graph_of(seed: u64, n: usize) -> Graph {
        random_graph(&mut StdRng::seed_from_u64(seed), n)
    }

    /// An LRU router with every node of `g` a host, so host `i` is
    /// node `i`.
    fn every_node_a_host(g: &Graph, capacity: Option<usize>) -> HostRouter {
        HostRouter::with_lru(g.clone(), g.nodes().collect(), capacity)
    }

    /// Bitwise equality of each store and the dense table on every
    /// (a, b) query, every node a host.
    fn assert_router_matches_dense(g: &Graph) {
        let apsp = Apsp::build(g);
        let up_front = HostRouter::new(g.clone(), g.nodes().collect());
        for router in [up_front, every_node_a_host(g, None)] {
            for a in g.nodes() {
                for b in g.nodes() {
                    let (d1, d2) = (apsp.dist_ms(a, b), router.dist_ms(a.idx(), b.idx()));
                    assert_eq!(d1.to_bits(), d2.to_bits(), "dist {a}->{b}: {d1} vs {d2}");
                    assert_eq!(
                        apsp.path_nodes(a, b),
                        router.path_nodes(a.idx(), b.idx()),
                        "path {a}->{b}"
                    );
                }
            }
        }
    }

    #[test]
    fn on_demand_matches_dense_on_random_graphs() {
        for seed in [3u64, 17] {
            assert_router_matches_dense(&random_graph_of(seed, 24));
        }
    }

    /// The headline-bugfix companion: delays split below f32 resolution
    /// must agree bitwise between the dense (now f64) oracle and either
    /// store's rows.
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
        let g = random_graph_of(5, 16);
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
        let g = random_graph_of(9, 12);
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
        assert_eq!(HostRouter::default_capacity(10), 10);
        assert_eq!(HostRouter::default_capacity(1000), 1000);
        let c20k = HostRouter::default_capacity(20_000);
        assert!((8..=1000).contains(&c20k), "20k-node capacity {c20k}");
        assert_eq!(HostRouter::default_capacity(0), 8);
    }

    #[test]
    fn rows_shared_across_threads() {
        let g = random_graph_of(21, 32);
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
