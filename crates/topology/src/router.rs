//! Scale-out routing: the [`RouteProvider`] abstraction and the
//! memory-bounded [`OnDemandRouter`].
//!
//! The dense [`Apsp`] table is `O(n^2)` in both its distance and
//! next-hop planes — at 10k routers that is ~1.6 GB, and at 20k it is
//! unbuildable. [`RouteProvider`] abstracts "answer routing queries
//! about the underlay" between any two nodes:
//!
//! * [`Apsp`] — the exact dense oracle, the reference the tests hold
//!   the others to; and
//! * [`OnDemandRouter`] — per-source Dijkstra run lazily, with the
//!   resulting [`RouteRow`]s held in a bounded LRU. Memory is
//!   `O(capacity · n)` instead of `O(n^2)`, and rows are shared
//!   read-only (`Arc`) across runner threads.
//!
//! [`RoutedUnderlay`] in `vdm-netsim` holds either an [`OnDemandRouter`]
//! or, by default, [`crate::HostRoutes`]: the same rows computed up
//! front for the hosts alone, which answer host pairs only and so are
//! not a [`RouteProvider`].
//!
//! Both implementations answer `dist_ms` and `next_hop` **bit-for-bit
//! identically**: an [`Apsp`] row and a [`RouteRow`] are the same
//! kernel run (the one loop in [`crate::spath`]: a deterministic
//! `(distance, id)` pop order, first hops written as nodes are relaxed)
//! into different storage, so switching providers cannot perturb
//! closest-child selection anywhere. Because both sides are that
//! kernel, agreement between them proves nothing about it; `spath`'s
//! reference tests check it against an independent textbook Dijkstra.
//!
//! [`RoutedUnderlay`]: ../../vdm_netsim/underlay/struct.RoutedUnderlay.html

use crate::graph::{EdgeId, Graph, NodeId};
use crate::spath::{route_edges, sssp, walk_prev, Apsp, BucketQueue, Csr};
use crate::Millis;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Answer routing queries over an underlay graph.
///
/// Implementations must agree exactly (bitwise on distances) so that
/// experiment output is independent of the provider chosen; see the
/// module docs and the `router_props` property tests.
pub trait RouteProvider: Send + Sync {
    /// Number of nodes routing tables cover.
    fn num_nodes(&self) -> usize;

    /// Shortest one-way delay (ms) from `a` to `b`; `INFINITY` when
    /// unreachable. Always derived from `a`'s shortest-path tree.
    fn dist_ms(&self, a: NodeId, b: NodeId) -> Millis;

    /// Next hop from `a` toward `b`; `None` if unreachable or `a == b`.
    fn next_hop(&self, a: NodeId, b: NodeId) -> Option<NodeId>;

    /// Node sequence of the route `a -> b` (inclusive). Empty when
    /// unreachable; `[a]` when `a == b`.
    fn path_nodes(&self, a: NodeId, b: NodeId) -> Vec<NodeId>;

    /// Edge sequence of the route `a -> b`, for per-link accounting.
    fn path_edges(&self, g: &Graph, a: NodeId, b: NodeId) -> Vec<EdgeId> {
        route_edges(g, &self.path_nodes(a, b))
    }

    /// Number of hops on the route `a -> b` (`0` if `a == b` or
    /// unreachable).
    fn hop_count(&self, a: NodeId, b: NodeId) -> usize {
        self.path_nodes(a, b).len().saturating_sub(1)
    }
}

impl RouteProvider for Apsp {
    fn num_nodes(&self) -> usize {
        Apsp::num_nodes(self)
    }

    fn dist_ms(&self, a: NodeId, b: NodeId) -> Millis {
        Apsp::dist_ms(self, a, b)
    }

    fn next_hop(&self, a: NodeId, b: NodeId) -> Option<NodeId> {
        Apsp::next_hop(self, a, b)
    }

    fn path_nodes(&self, a: NodeId, b: NodeId) -> Vec<NodeId> {
        Apsp::path_nodes(self, a, b)
    }
}

/// One source's routing row: distances, predecessors, and first hops
/// toward every node — `O(n)` memory (16 bytes/node), the unit the
/// [`OnDemandRouter`] caches.
#[derive(Clone, Debug, PartialEq)]
pub struct RouteRow {
    /// Source node this row was computed from.
    pub source: NodeId,
    /// `dist[v]` = shortest delay (ms) source → `v`; `INFINITY` when
    /// unreachable.
    pub(crate) dist: Vec<Millis>,
    /// `prev[v]` = predecessor of `v` on the shortest path from the
    /// source; `u32::MAX` for the source itself and unreachable nodes.
    pub(crate) prev: Vec<u32>,
    /// `first[v]` = first hop from the source toward `v`; `u32::MAX`
    /// sentinel as in [`Apsp`].
    pub(crate) first: Vec<u32>,
}

impl RouteRow {
    /// Run Dijkstra from `source` — the same kernel, so the same bits,
    /// as one row of [`Apsp::build`]. Builds the graph's CSR view for
    /// this one row; [`OnDemandRouter`] keeps one for all of its rows.
    pub fn compute(g: &Graph, source: NodeId) -> Self {
        Self::compute_csr(&Csr::new(g), source, &QueuePool::default())
    }

    fn compute_csr(csr: &Csr, source: NodeId, pool: &QueuePool) -> Self {
        let n = csr.num_nodes();
        let mut row = Self {
            source,
            dist: vec![Millis::INFINITY; n],
            prev: vec![u32::MAX; n],
            first: vec![u32::MAX; n],
        };
        // The queue after the row, as in `HostRoutes::build`.
        let mut queue = pool.take();
        sssp(
            csr,
            source.0,
            &mut row.dist,
            &mut row.prev,
            &mut row.first,
            &mut queue,
        );
        pool.give_back(queue);
        row
    }

    /// Shortest delay (ms) from this row's source to `v`.
    #[inline]
    pub fn dist_ms(&self, v: NodeId) -> Millis {
        self.dist[v.idx()]
    }

    /// First hop from the source toward `v`; `None` if unreachable or
    /// `v` is the source.
    #[inline]
    pub fn first_hop(&self, v: NodeId) -> Option<NodeId> {
        let h = self.first[v.idx()];
        (h != u32::MAX).then_some(NodeId(h))
    }

    /// Node sequence source → `v` (inclusive), reconstructed by the
    /// predecessor walk. Empty when unreachable; `[source]` when `v`
    /// is the source.
    pub fn path_nodes(&self, v: NodeId) -> Vec<NodeId> {
        if self.dist[v.idx()].is_infinite() {
            return Vec::new();
        }
        walk_prev(&self.prev, self.source, v)
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
}

/// Idle kernel queues, so a row reuses an earlier row's queue arrays.
/// Rows are computed outside the LRU lock, several at once when runner
/// threads miss together, so each computation takes a queue of its own
/// and gives it back.
#[derive(Default)]
struct QueuePool(Mutex<Vec<BucketQueue>>);

impl QueuePool {
    fn take(&self) -> BucketQueue {
        self.0
            .lock()
            .expect("queue pool lock")
            .pop()
            .unwrap_or_default()
    }

    fn give_back(&self, queue: BucketQueue) {
        self.0.lock().expect("queue pool lock").push(queue);
    }
}

struct LruEntry {
    row: Arc<RouteRow>,
    last_used: u64,
}

#[derive(Default)]
struct RowLru {
    rows: HashMap<u32, LruEntry>,
    tick: u64,
    peak: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// Memory-bounded routing oracle: per-source Dijkstra on demand, rows
/// kept in an LRU of at most `capacity` [`RouteRow`]s.
///
/// Rows are handed out as `Arc<RouteRow>`, so concurrent runner threads
/// share them read-only; the internal lock is held only for the LRU
/// bookkeeping, never across a Dijkstra run.
pub struct OnDemandRouter {
    graph: Arc<Graph>,
    /// `graph`'s adjacency, flattened once for every row this router
    /// computes.
    csr: Csr,
    capacity: usize,
    lru: Mutex<RowLru>,
    queues: QueuePool,
}

impl std::fmt::Debug for OnDemandRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("OnDemandRouter")
            .field("nodes", &self.graph.num_nodes())
            .field("capacity", &self.capacity)
            .field("resident", &s.resident)
            .finish()
    }
}

/// Row-cache memory budget used by [`OnDemandRouter::default_capacity`].
const ROW_BUDGET_BYTES: usize = 64 << 20;

impl OnDemandRouter {
    /// Router over `graph` holding at most `capacity` rows; pass `None`
    /// for [`Self::default_capacity`].
    pub fn new(graph: Arc<Graph>, capacity: Option<usize>) -> Self {
        let capacity = capacity
            .unwrap_or_else(|| Self::default_capacity(graph.num_nodes()))
            .max(1);
        Self {
            csr: Csr::new(&graph),
            graph,
            capacity,
            lru: Mutex::new(RowLru::default()),
            queues: QueuePool::default(),
        }
    }

    /// Rows-in-memory bound for an `n`-node graph under a fixed
    /// ~64 MiB budget (a row costs 16 bytes/node), clamped to
    /// `[8, n]`. At 1k nodes that is every row (the dense regime); at
    /// 20k nodes it is ~200 rows — memory stays `O(capacity · n)`, not
    /// `O(n^2)`.
    pub fn default_capacity(n: usize) -> usize {
        let row_bytes = n.max(1) * 16;
        (ROW_BUDGET_BYTES / row_bytes).clamp(8, n.max(8))
    }

    /// The underlay graph this router answers for.
    pub fn graph(&self) -> &Arc<Graph> {
        &self.graph
    }

    /// Configured row capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Snapshot this instance's hit/miss/eviction/residency counters.
    pub fn stats(&self) -> RouterStats {
        let lru = self.lru.lock().expect("router lru lock");
        RouterStats {
            hits: lru.hits,
            misses: lru.misses,
            evictions: lru.evictions,
            resident: lru.rows.len(),
            peak_resident: lru.peak,
            capacity: self.capacity,
        }
    }

    /// The routing row for `source`: from the LRU when resident, else
    /// computed outside the lock.
    pub fn row(&self, source: NodeId) -> Arc<RouteRow> {
        {
            let mut lru = self.lru.lock().expect("router lru lock");
            lru.tick += 1;
            let tick = lru.tick;
            if let Some(e) = lru.rows.get_mut(&source.0) {
                e.last_used = tick;
                let row = Arc::clone(&e.row);
                lru.hits += 1;
                return row;
            }
            lru.misses += 1;
        }
        // Compute without holding the lock: other threads can keep
        // hitting resident rows during this Dijkstra.
        let row = Arc::new(RouteRow::compute_csr(&self.csr, source, &self.queues));
        let mut lru = self.lru.lock().expect("router lru lock");
        lru.tick += 1;
        let tick = lru.tick;
        if let Some(e) = lru.rows.get_mut(&source.0) {
            // Another thread raced us to the same row; share theirs.
            e.last_used = tick;
            return Arc::clone(&e.row);
        }
        if lru.rows.len() >= self.capacity {
            // Scan-min eviction: capacity is small (hundreds), and the
            // scan is far cheaper than the Dijkstra that preceded it.
            if let Some(&victim) = lru
                .rows
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k)
            {
                lru.rows.remove(&victim);
                lru.evictions += 1;
            }
        }
        lru.rows.insert(
            source.0,
            LruEntry {
                row: Arc::clone(&row),
                last_used: tick,
            },
        );
        lru.peak = lru.peak.max(lru.rows.len());
        row
    }
}

impl RouteProvider for OnDemandRouter {
    fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    fn dist_ms(&self, a: NodeId, b: NodeId) -> Millis {
        // Always a's row, matching the dense matrix's row orientation, so
        // answers are bit-identical to `Apsp::dist_ms` even when summing
        // the reverse path would differ in the last ulp.
        self.row(a).dist_ms(b)
    }

    fn next_hop(&self, a: NodeId, b: NodeId) -> Option<NodeId> {
        self.row(a).first_hop(b)
    }

    fn path_nodes(&self, a: NodeId, b: NodeId) -> Vec<NodeId> {
        self.row(a).path_nodes(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{LinkAttrs, NodeKind};
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

    /// Bitwise equality of both providers on every (a, b) query.
    fn assert_providers_agree(g: &Graph) {
        let apsp = Apsp::build(g);
        let router = OnDemandRouter::new(Arc::new(g.clone()), None);
        for a in g.nodes() {
            for b in g.nodes() {
                let (d1, d2) = (
                    RouteProvider::dist_ms(&apsp, a, b),
                    RouteProvider::dist_ms(&router, a, b),
                );
                assert!(
                    d1.to_bits() == d2.to_bits() || (d1.is_infinite() && d2.is_infinite()),
                    "dist {a}->{b}: {d1} vs {d2}"
                );
                assert_eq!(
                    RouteProvider::next_hop(&apsp, a, b),
                    RouteProvider::next_hop(&router, a, b),
                    "next hop {a}->{b}"
                );
                assert_eq!(
                    RouteProvider::path_nodes(&apsp, a, b),
                    RouteProvider::path_nodes(&router, a, b),
                    "path {a}->{b}"
                );
            }
        }
    }

    #[test]
    fn on_demand_matches_dense_on_random_graphs() {
        for seed in [3u64, 17] {
            assert_providers_agree(&random_graph(seed, 24));
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
        assert_providers_agree(&g);
        let router = OnDemandRouter::new(Arc::new(g), None);
        let d1 = RouteProvider::dist_ms(&router, NodeId(0), NodeId(1));
        let d2 = RouteProvider::dist_ms(&router, NodeId(0), NodeId(2));
        assert!(d2 < d1, "sub-f32 delay difference must survive: {d2} {d1}");
    }

    #[test]
    fn lru_eviction_requery_equals_fresh() {
        let g = random_graph(5, 16);
        let router = OnDemandRouter::new(Arc::new(g.clone()), Some(2));
        let before = RouteRow::clone(&router.row(NodeId(0)));
        router.row(NodeId(1));
        router.row(NodeId(2)); // evicts node 0's row (LRU)
        let s = router.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.resident, 2);
        assert_eq!(s.peak_resident, 2);
        let again = router.row(NodeId(0)); // recomputed
        assert_eq!(*again, before, "evicted + re-queried row must equal fresh");
        assert_eq!(*again, RouteRow::compute(&g, NodeId(0)));
        assert_eq!(router.stats().misses, 4);
    }

    #[test]
    fn lru_hits_and_recency() {
        let g = random_graph(9, 12);
        let router = OnDemandRouter::new(Arc::new(g), Some(2));
        router.row(NodeId(0));
        router.row(NodeId(1));
        router.row(NodeId(0)); // refresh 0's recency
        router.row(NodeId(2)); // must evict 1, not 0
        let s = router.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 3, 1));
        router.row(NodeId(0)); // still resident
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
        let apsp = Apsp::build(&g);
        let router = Arc::new(OnDemandRouter::new(Arc::new(g.clone()), Some(8)));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let r = Arc::clone(&router);
                let gc = g.clone();
                std::thread::spawn(move || {
                    let mut rng = StdRng::seed_from_u64(100 + t);
                    for _ in 0..200 {
                        let a = NodeId(rng.gen_range(0..32u32));
                        let b = NodeId(rng.gen_range(0..32u32));
                        let d = RouteProvider::dist_ms(&*r, a, b);
                        assert_eq!(d.to_bits(), Apsp::build(&gc).dist_ms(a, b).to_bits());
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
            RouteProvider::dist_ms(&*router, NodeId(0), NodeId(31)).to_bits(),
            apsp.dist_ms(NodeId(0), NodeId(31)).to_bits()
        );
    }
}
