//! Shortest paths over the underlay graph.
//!
//! The discrete-event simulator forwards every packet along delay-shortest
//! routes, exactly as the paper's NS-2 setup does, and the stress metric
//! needs the *edge sequence* of each route. The overlay only ever asks
//! about routes between hosts, so [`HostRoutes`] precomputes one row per
//! host: host-to-host distances and the predecessor row that
//! [`HostRoutes::path_edges`] walks to enumerate physical links on a
//! route. [`Apsp`], the dense all-pairs table with next hops, is the
//! reference the tests hold it to.
//!
//! # One kernel
//!
//! Every shortest-path answer in this crate — [`HostRoutes::build`],
//! [`Apsp::build`], [`crate::router::RouteRow::compute`], [`dijkstra`] —
//! comes out of the one loop in `sssp`, run over a `Csr` view of the
//! graph (one flat `(neighbour, delay)` array in [`Graph::neighbors`]
//! order, so relaxation order, and with it every predecessor under ties,
//! is the adjacency lists'). Three things in that loop are deliberate:
//!
//! * **The queue is exact distance buckets.** Dijkstra only ever
//!   produces non-negative finite distances, and for those the IEEE-754
//!   bit pattern read as a `u64` orders exactly as the number does. A
//!   key is therefore one `u128`, `(distance bits << 32) | id`, which
//!   orders exactly as the `(distance, id)` tuple does, with no
//!   `partial_cmp`. `BucketQueue` files an entry at distance `d` under
//!   bucket `⌊d · (1/w)⌋`. The bucket being drained is kept sorted: an
//!   entry whose bucket is at or before it joins it by ordered insert.
//!   Every later bucket waits unsorted in a ring slot and is sorted once,
//!   when its turn comes.
//!
//!   This is exact, not approximate. `fl(d · (1/w))` and the floor are
//!   both monotone in `d`, so an entry in a later bucket is farther than
//!   every entry in the current one. Pops therefore leave in exactly the
//!   `(distance, id)` order a binary heap gives, and `dist`, `prev` and
//!   `first` keep their bits for any `w > 0`. The width only changes the
//!   speed. It is the smallest positive link delay, so a settled node's
//!   links mostly land in later buckets and the current one is rarely
//!   inserted into. It is raised where needed so that half the 256-slot
//!   ring spans the largest link delay. A push is at most one link past
//!   the last pop, so every queued bucket is less than a ring ahead of
//!   the current one and no two share a slot, on any delay range. The
//!   half-ring margin absorbs the rounding of `d · (1/w)`. The slots are
//!   lists threaded through one array of the row's pushes, so memory is
//!   the ring plus those pushes whatever the delays.
//! * **First hops are written at relaxation time.** When `v` is popped
//!   with a live entry its distance is final, and `dist`, `prev` and
//!   `first` of a node only ever change together, so `first[v]` is final
//!   too; every node relaxed from `v` inherits it (or becomes its own
//!   first hop when `v` is the source). That is the same answer as
//!   walking `prev` back from each target, without the `O(n · depth)`
//!   walk.
//! * **Degree-1 nodes are never pushed** (unless one is the source). A
//!   leaf is reached from its only neighbour, which has just been
//!   settled; popping the leaf could relax nothing but that neighbour,
//!   and never strictly improves it. Its `dist`/`prev`/`first` are still
//!   written, and because queue keys are totally ordered the pop order
//!   of every other node is unchanged. Host access links make ~46 % of
//!   the nodes on the join testbeds leaves.

use crate::graph::{EdgeId, Graph, NodeId};
use crate::Millis;

/// Result of a single-source Dijkstra run.
#[derive(Clone, Debug)]
pub struct ShortestPaths {
    /// Source node.
    pub source: NodeId,
    /// `dist[v]` = delay-shortest distance (ms) from the source to `v`;
    /// `INFINITY` if unreachable.
    pub dist: Vec<Millis>,
    /// `prev[v]` = predecessor of `v` on a shortest path, `None` for the
    /// source and unreachable nodes.
    pub prev: Vec<Option<NodeId>>,
}

impl ShortestPaths {
    /// Reconstruct the node path from the source to `to` (inclusive of both
    /// endpoints). Returns `None` if `to` is unreachable.
    pub fn path_to(&self, to: NodeId) -> Option<Vec<NodeId>> {
        if self.dist[to.idx()].is_infinite() {
            return None;
        }
        let mut path = vec![to];
        let mut cur = to;
        while let Some(p) = self.prev[cur.idx()] {
            path.push(p);
            cur = p;
        }
        path.reverse();
        debug_assert_eq!(path[0], self.source);
        Some(path)
    }
}

/// Compressed-sparse-row view of a [`Graph`]'s adjacency: node `v`'s
/// neighbours are `adj[off[v]..off[v + 1]]`, in [`Graph::neighbors`]
/// order. `16 B × 2E + 4 B × (n + 1)`; built once per router / table
/// build so a relaxation reads one flat array instead of chasing
/// `Adj → EdgeId → Edge`.
pub(crate) struct Csr {
    off: Vec<u32>,
    adj: Vec<(u32, Millis)>,
    /// Smallest positive link delay (`INFINITY` when none is positive).
    min_delay: Millis,
    /// Largest link delay.
    max_delay: Millis,
}

impl Csr {
    pub(crate) fn new(g: &Graph) -> Self {
        // Sized exactly, one allocation each: growing `adj` by doubling
        // left half-size buffers behind and moved peak RSS (see the
        // allocation note in `HostRoutes::build`).
        let mut csr = Self::with_capacity(g.num_nodes(), 2 * g.num_edges());
        for v in g.nodes() {
            csr.push_node(
                g.neighbors(v)
                    .iter()
                    .map(|a| (a.to.0, g.edge(a.edge).attrs.delay_ms)),
            );
        }
        csr
    }

    fn with_capacity(nodes: usize, entries: usize) -> Self {
        let mut off = Vec::with_capacity(nodes + 1);
        off.push(0);
        Self {
            off,
            adj: Vec::with_capacity(entries),
            min_delay: Millis::INFINITY,
            max_delay: 0.0,
        }
    }

    /// Append the next node (ids are assigned in call order) with its
    /// `(neighbour, delay)` list.
    fn push_node(&mut self, list: impl Iterator<Item = (u32, Millis)>) {
        let start = self.adj.len();
        self.adj.extend(list);
        for &(_, d) in &self.adj[start..] {
            if d > 0.0 {
                self.min_delay = self.min_delay.min(d);
            }
            self.max_delay = self.max_delay.max(d);
        }
        self.off.push(
            u32::try_from(self.adj.len()).expect("adjacency entries exceed the u32 offset space"),
        );
    }

    /// The kernel queue's bucket width `w` on this graph: the smallest
    /// positive link delay, raised where needed so that half the ring
    /// spans the largest one, and never below the smallest normal
    /// `f64` (so `1 / w` is finite). 1 ms when no delay is positive.
    fn bucket_width(&self) -> Millis {
        if self.max_delay > 0.0 {
            let span = self.max_delay / (RING / 2) as Millis;
            self.min_delay.max(span).max(Millis::MIN_POSITIVE)
        } else {
            1.0
        }
    }

    pub(crate) fn num_nodes(&self) -> usize {
        self.off.len() - 1
    }

    fn neighbors(&self, v: u32) -> &[(u32, Millis)] {
        &self.adj[self.off[v as usize] as usize..self.off[v as usize + 1] as usize]
    }

    fn degree(&self, v: u32) -> u32 {
        self.off[v as usize + 1] - self.off[v as usize]
    }
}

/// Slots in a [`BucketQueue`]'s ring.
const RING: usize = 256;

/// An empty ring slot, and the end of a slot's list.
const NIL: u32 = u32::MAX;

/// The kernel's priority queue: exact, monotone, bucketed by distance
/// (see the module docs). A key is `(distance bits << 32) | node`, so
/// keys order as `(distance, node)` tuples do. An entry at distance `d`
/// belongs to bucket `⌊d · (1/w)⌋`. The bucket being drained is held
/// sorted in `cur`; every later bucket `b` waits unsorted in ring slot
/// `b % RING`, a list threaded through one array of the keys pushed
/// since the last reset. Memory is the ring plus one row's pushes, on
/// any delay range, and is kept from row to row.
pub(crate) struct BucketQueue {
    /// `1 / w`.
    inv_width: f64,
    /// Index of the bucket `cur` holds.
    bucket: u64,
    /// That bucket's keys, sorted descending: the least is popped off
    /// the end.
    cur: Vec<u128>,
    /// Every key pushed into the ring since the last reset.
    keys: Vec<u128>,
    /// `next[i]`: the key pushed into the same slot before `keys[i]`.
    next: Vec<u32>,
    /// Per ring slot, its last-pushed key.
    heads: Vec<u32>,
    /// Keys waiting in the ring.
    queued: usize,
}

impl Default for BucketQueue {
    fn default() -> Self {
        Self {
            inv_width: 1.0,
            bucket: 0,
            cur: Vec::new(),
            keys: Vec::new(),
            next: Vec::new(),
            heads: vec![NIL; RING],
            queued: 0,
        }
    }
}

impl BucketQueue {
    /// Empty the queue and set its bucket width to `width` ms.
    pub(crate) fn reset(&mut self, width: Millis) {
        self.inv_width = 1.0 / width;
        self.bucket = 0;
        self.cur.clear();
        self.keys.clear();
        self.next.clear();
        if self.queued > 0 {
            self.heads.fill(NIL);
            self.queued = 0;
        }
    }

    /// Queue node `v` at distance `d`. `d` must be no less than the
    /// last popped distance and within half a ring of it.
    #[inline]
    pub(crate) fn push(&mut self, d: Millis, v: u32) {
        let key = (u128::from(d.to_bits()) << 32) | u128::from(v);
        let b = (d * self.inv_width) as u64;
        if b <= self.bucket {
            let at = self.cur.partition_point(|&k| k > key);
            self.cur.insert(at, key);
        } else {
            debug_assert!(b - self.bucket < RING as u64, "push beyond the ring");
            let head = &mut self.heads[(b % RING as u64) as usize];
            self.next.push(*head);
            // A row pushes at most once per CSR entry, and the CSR's
            // entries fit below `u32::MAX`.
            *head = self.keys.len() as u32;
            self.keys.push(key);
            self.queued += 1;
        }
    }

    /// The least `(distance, node)` queued, or `None` when empty.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<(Millis, u32)> {
        if self.cur.is_empty() {
            if self.queued == 0 {
                return None;
            }
            // Every queued bucket is less than a ring ahead, so the
            // first non-empty slot holds exactly the next bucket.
            let mut i = NIL;
            while i == NIL {
                self.bucket += 1;
                let slot = (self.bucket % RING as u64) as usize;
                i = std::mem::replace(&mut self.heads[slot], NIL);
            }
            while i != NIL {
                self.cur.push(self.keys[i as usize]);
                i = self.next[i as usize];
            }
            self.queued -= self.cur.len();
            self.cur.sort_unstable_by(|a, b| b.cmp(a));
        }
        let key = self.cur.pop()?;
        Some((Millis::from_bits((key >> 32) as u64), key as u32))
    }
}

/// Delay-weighted Dijkstra from `source` into three `n`-long rows (the
/// crate's one shortest-path loop; see the module docs). On return
/// `dist[v]` is the shortest delay (`INFINITY` when unreachable),
/// `prev[v]` the predecessor and `first[v]` the first hop from the
/// source, both `u32::MAX` for the source and unreachable nodes.
pub(crate) fn sssp(
    csr: &Csr,
    source: u32,
    dist: &mut [Millis],
    prev: &mut [u32],
    first: &mut [u32],
    queue: &mut BucketQueue,
) {
    let n = csr.num_nodes();
    assert!(dist.len() == n && prev.len() == n && first.len() == n);
    dist.fill(Millis::INFINITY);
    prev.fill(u32::MAX);
    first.fill(u32::MAX);
    queue.reset(csr.bucket_width());
    dist[source as usize] = 0.0;
    queue.push(0.0, source);
    while let Some((d, v)) = queue.pop() {
        if d > dist[v as usize] {
            continue; // stale entry
        }
        let via = first[v as usize];
        for &(to, delay) in csr.neighbors(v) {
            let t = to as usize;
            let nd = d + delay;
            if nd < dist[t] {
                dist[t] = nd;
                prev[t] = v;
                first[t] = if v == source { to } else { via };
                if csr.degree(to) > 1 {
                    queue.push(nd, to);
                }
            }
        }
    }
}

/// Delay-weighted Dijkstra from `source`.
pub fn dijkstra(g: &Graph, source: NodeId) -> ShortestPaths {
    let n = g.num_nodes();
    let mut dist = vec![Millis::INFINITY; n];
    let mut prev = vec![u32::MAX; n];
    let mut first = vec![u32::MAX; n];
    sssp(
        &Csr::new(g),
        source.0,
        &mut dist,
        &mut prev,
        &mut first,
        &mut BucketQueue::default(),
    );
    ShortestPaths {
        source,
        dist,
        prev: prev
            .into_iter()
            .map(|p| (p != u32::MAX).then_some(NodeId(p)))
            .collect(),
    }
}

/// All-pairs shortest paths with next-hop routing tables.
///
/// Memory is `O(n^2)` for distances (f64) plus `O(n^2)` for next hops
/// (u32). No simulation builds it: routed underlays hold [`HostRoutes`]
/// or an [`crate::router::OnDemandRouter`]. It stays as the dense
/// reference the tests hold both to.
///
/// Distances are kept at full `f64` precision: an earlier revision
/// downcast them to f32, which collapsed delays differing only below
/// f32 resolution and made closest-child selection fall back to the
/// node-id tie-break — an order-dependent artefact, not a topology
/// property.
#[derive(Clone, Debug)]
pub struct Apsp {
    n: usize,
    /// Flattened `n x n` distance matrix in ms.
    dist: Vec<Millis>,
    /// Flattened `n x n` next-hop matrix; `u32::MAX` when unreachable or
    /// on the diagonal.
    next: Vec<u32>,
}

impl Apsp {
    /// Run Dijkstra from every node of `g`, straight into the rows of
    /// the two planes.
    pub fn build(g: &Graph) -> Self {
        let n = g.num_nodes();
        // Planes before scratch, as in `HostRoutes::build`.
        let mut dist = vec![Millis::INFINITY; n * n];
        let mut next = vec![u32::MAX; n * n];
        let csr = Csr::new(g);
        let mut prev = vec![u32::MAX; n];
        let mut queue = BucketQueue::default();
        let rows = dist
            .chunks_exact_mut(n.max(1))
            .zip(next.chunks_exact_mut(n.max(1)));
        for (s, (dist_row, next_row)) in rows.enumerate() {
            sssp(&csr, s as u32, dist_row, &mut prev, next_row, &mut queue);
        }
        Self { n, dist, next }
    }

    /// Number of nodes the table was built for.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Shortest one-way delay (ms) from `a` to `b`, at full `f64`
    /// precision (bit-identical to a fresh [`dijkstra`] run from `a`).
    #[inline]
    pub fn dist_ms(&self, a: NodeId, b: NodeId) -> Millis {
        self.dist[a.idx() * self.n + b.idx()]
    }

    /// Next hop from `a` toward `b`; `None` if unreachable or `a == b`.
    #[inline]
    pub fn next_hop(&self, a: NodeId, b: NodeId) -> Option<NodeId> {
        let h = self.next[a.idx() * self.n + b.idx()];
        (h != u32::MAX).then_some(NodeId(h))
    }

    /// Node sequence of the route `a -> b` (inclusive). Empty when
    /// unreachable; `[a]` when `a == b`.
    pub fn path_nodes(&self, a: NodeId, b: NodeId) -> Vec<NodeId> {
        let mut path = vec![a];
        let mut cur = a;
        while cur != b {
            let Some(h) = self.next_hop(cur, b) else {
                return Vec::new();
            };
            cur = h;
            path.push(cur);
        }
        path
    }

    /// Edge sequence of the route `a -> b`, for per-link accounting.
    pub fn path_edges(&self, g: &Graph, a: NodeId, b: NodeId) -> Vec<EdgeId> {
        route_edges(g, &self.path_nodes(a, b))
    }

    /// Number of hops on the route `a -> b` (`0` if `a == b` or
    /// unreachable).
    pub fn hop_count(&self, a: NodeId, b: NodeId) -> usize {
        self.path_nodes(a, b).len().saturating_sub(1)
    }
}

/// Shortest paths between the hosts of an underlay: one Dijkstra row
/// per host, none per router.
///
/// The overlay only asks about hosts — probe RTTs, and stretch and
/// stress over host-to-host routes — so this keeps an `H × H` distance
/// matrix, indexed by host id and copied from each host's row at the
/// host columns, and one `n`-long predecessor row per host:
/// `8·H² + 4·H·n` bytes against [`Apsp`]'s `12·n²`. Each row is the
/// kernel run from the same source as the matching [`Apsp`] row, so
/// every distance has the same bits.
#[derive(Clone, Debug)]
pub struct HostRoutes {
    /// Node count of the graph the rows were built over.
    n: usize,
    /// Graph node of each host, in host-id order.
    hosts: Vec<NodeId>,
    /// Flattened `H × H` host-to-host distance matrix in ms.
    dist: Vec<Millis>,
    /// Flattened `H × n` predecessor rows, one per source host;
    /// `u32::MAX` for the source and unreachable nodes.
    prev: Vec<u32>,
}

impl HostRoutes {
    /// Run Dijkstra from the node of every host in `hosts`.
    ///
    /// # Panics
    /// Panics when a host is not a node of `g`.
    pub fn build(g: &Graph, hosts: Vec<NodeId>) -> Self {
        let n = g.num_nodes();
        let h = hosts.len();
        assert!(hosts.iter().all(|v| v.idx() < n), "host out of range");
        // The two tables come first, before any scratch, and the scratch
        // is a few exactly-sized allocations plus the queue, which holds
        // one row's pushes at most. When a process builds tables
        // repeatedly (every benchmark iteration does), glibc
        // serves them from the block the previous pair freed — and any
        // other request that fits no smaller hole from the front of that
        // same block, after which `prev` no longer fits behind `dist`
        // and the heap grows by a whole table: +16 % peak RSS on
        // `soak_resilient` back when its underlay held `Apsp`'s planes
        // and scratch came first (DESIGN.md §8).
        let mut dist = vec![Millis::INFINITY; h * h];
        let mut prev = vec![u32::MAX; h * n];
        let csr = Csr::new(g);
        let mut row = vec![Millis::INFINITY; n];
        let mut first = vec![u32::MAX; n];
        let mut queue = BucketQueue::default();
        let rows = dist
            .chunks_exact_mut(h.max(1))
            .zip(prev.chunks_exact_mut(n.max(1)));
        for (s, (dist_row, prev_row)) in hosts.iter().zip(rows) {
            sssp(&csr, s.0, &mut row, prev_row, &mut first, &mut queue);
            for (d, t) in dist_row.iter_mut().zip(&hosts) {
                *d = row[t.idx()];
            }
        }
        Self {
            n,
            hosts,
            dist,
            prev,
        }
    }

    /// Graph node of each host, in host-id order.
    pub fn hosts(&self) -> &[NodeId] {
        &self.hosts
    }

    /// Shortest one-way delay (ms) from host `a` to host `b`; the bits
    /// of [`Apsp::dist_ms`] between their nodes.
    #[inline]
    pub fn dist_ms(&self, a: usize, b: usize) -> Millis {
        self.dist[a * self.hosts.len() + b]
    }

    /// Node sequence of the route from host `a` to host `b` (inclusive),
    /// walked back along `a`'s predecessor row. Empty when unreachable;
    /// one node when both hosts sit on it.
    ///
    /// # The route [`Apsp::path_nodes`] takes
    ///
    /// `Apsp` walks hop by hop, each hop read from the current node's
    /// own row; this reads `a`'s row alone. In exact arithmetic the two
    /// agree. With positive delays the kernel settles nodes in
    /// `(dist, id)` order and relaxes strictly, so `prev[t]` is the
    /// `(dist, id)`-least `u` with `d(u) + w(u, t) = d(t)`. Let `v` lie on
    /// `a`'s path to `t`, and `p` be `t`'s predecessor in `a`'s row.
    /// Every candidate `u` in `v`'s row satisfies
    /// `d_a(u) = d_a(v) + d_v(u)`, so it is a candidate in `a`'s row too,
    /// and both rows rank the candidates alike. `p` is one of them,
    /// because `v` lies on `a`'s shortest path to `p`. So `v`'s row picks
    /// `p` as well, and by induction back from `t` the path from `v` is
    /// the suffix of `a`'s: its first hop is the next node on `a`'s path.
    /// Float sums can break `d_a(u) = d_a(v) + d_v(u)` in the last ulp;
    /// the host-pair pins in `tests/host_routes.rs` hold the two walks
    /// equal on the testbeds the experiments build.
    pub fn path_nodes(&self, a: usize, b: usize) -> Vec<NodeId> {
        if self.dist_ms(a, b).is_infinite() {
            return Vec::new();
        }
        let prev = &self.prev[a * self.n..(a + 1) * self.n];
        walk_prev(prev, self.hosts[a], self.hosts[b])
    }

    /// Edge sequence of the route from host `a` to host `b`.
    pub fn path_edges(&self, g: &Graph, a: usize, b: usize) -> Vec<EdgeId> {
        route_edges(g, &self.path_nodes(a, b))
    }
}

/// Node sequence `source → to` (inclusive) along a predecessor row,
/// for a `to` the row reaches.
pub(crate) fn walk_prev(prev: &[u32], source: NodeId, to: NodeId) -> Vec<NodeId> {
    if to == source {
        return vec![to];
    }
    let mut path = vec![to];
    let mut cur = to;
    while prev[cur.idx()] != u32::MAX {
        cur = NodeId(prev[cur.idx()]);
        path.push(cur);
    }
    path.reverse();
    debug_assert_eq!(path[0], source);
    path
}

/// The links joining consecutive nodes of a route.
pub(crate) fn route_edges(g: &Graph, nodes: &[NodeId]) -> Vec<EdgeId> {
    nodes
        .windows(2)
        .map(|w| {
            g.find_edge(w[0], w[1])
                .expect("route references a missing edge")
        })
        .collect()
}

/// Reference Floyd–Warshall APSP distances, used to cross-check [`Apsp`]
/// in tests (kept in the library so property tests in dependent crates can
/// reuse it).
pub fn floyd_warshall(g: &Graph) -> Vec<Vec<Millis>> {
    let n = g.num_nodes();
    let mut d = vec![vec![Millis::INFINITY; n]; n];
    for (i, row) in d.iter_mut().enumerate() {
        row[i] = 0.0;
    }
    for (_, e) in g.edges() {
        let w = e.attrs.delay_ms;
        if w < d[e.a.idx()][e.b.idx()] {
            d[e.a.idx()][e.b.idx()] = w;
            d[e.b.idx()][e.a.idx()] = w;
        }
    }
    for k in 0..n {
        for i in 0..n {
            if d[i][k].is_infinite() {
                continue;
            }
            for j in 0..n {
                let via = d[i][k] + d[k][j];
                if via < d[i][j] {
                    d[i][j] = via;
                }
            }
        }
    }
    d
}

#[cfg(test)]
mod reference_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{LinkAttrs, NodeKind};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// 0 -1- 1 -1- 2, plus a slow direct 0-2 edge of weight 5.
    fn line_with_shortcut() -> Graph {
        let mut g = Graph::with_nodes(3, NodeKind::Stub);
        g.add_edge(NodeId(0), NodeId(1), LinkAttrs::delay(1.0));
        g.add_edge(NodeId(1), NodeId(2), LinkAttrs::delay(1.0));
        g.add_edge(NodeId(0), NodeId(2), LinkAttrs::delay(5.0));
        g
    }

    #[test]
    fn dijkstra_prefers_two_hop_path() {
        let g = line_with_shortcut();
        let sp = dijkstra(&g, NodeId(0));
        assert_eq!(sp.dist, vec![0.0, 1.0, 2.0]);
        assert_eq!(
            sp.path_to(NodeId(2)).unwrap(),
            vec![NodeId(0), NodeId(1), NodeId(2)]
        );
    }

    #[test]
    fn apsp_matches_dijkstra_and_routes() {
        let g = line_with_shortcut();
        let apsp = Apsp::build(&g);
        assert_eq!(apsp.dist_ms(NodeId(0), NodeId(2)), 2.0);
        assert_eq!(apsp.dist_ms(NodeId(2), NodeId(0)), 2.0);
        assert_eq!(apsp.next_hop(NodeId(0), NodeId(2)), Some(NodeId(1)));
        assert_eq!(
            apsp.path_nodes(NodeId(0), NodeId(2)),
            vec![NodeId(0), NodeId(1), NodeId(2)]
        );
        assert_eq!(apsp.hop_count(NodeId(0), NodeId(2)), 2);
        assert_eq!(apsp.hop_count(NodeId(0), NodeId(0)), 0);
        let edges = apsp.path_edges(&g, NodeId(0), NodeId(2));
        assert_eq!(edges.len(), 2);
        assert_eq!(g.edge(edges[0]).attrs.delay_ms, 1.0);
    }

    #[test]
    fn unreachable_nodes() {
        let mut g = line_with_shortcut();
        let iso = g.add_node(NodeKind::Stub);
        let sp = dijkstra(&g, NodeId(0));
        assert!(sp.dist[iso.idx()].is_infinite());
        assert!(sp.path_to(iso).is_none());
        let apsp = Apsp::build(&g);
        assert!(apsp.dist_ms(NodeId(0), iso).is_infinite());
        assert!(apsp.next_hop(NodeId(0), iso).is_none());
        assert!(apsp.path_nodes(NodeId(0), iso).is_empty());
    }

    /// Hosts 0 and 2 of [`line_with_shortcut`] plus a leaf host 3 hanging
    /// off router 1.
    fn host_routes() -> (Graph, HostRoutes) {
        let mut g = line_with_shortcut();
        let leaf = g.add_node(NodeKind::Host);
        g.add_edge(NodeId(1), leaf, LinkAttrs::delay(0.5));
        let routes = HostRoutes::build(&g, vec![NodeId(0), NodeId(2), leaf]);
        (g, routes)
    }

    /// The table is `H²` distances and `H · n` predecessors — no
    /// router-sized plane — and answers like the dense one.
    #[test]
    fn host_routes_hold_host_rows_only() {
        let (g, routes) = host_routes();
        assert_eq!((routes.dist.len(), routes.prev.len()), (3 * 3, 3 * 4));
        assert_eq!(routes.n, g.num_nodes());
        assert_eq!(routes.dist_ms(0, 1), 2.0);
        assert_eq!(routes.dist_ms(2, 0), 1.5);
        assert_eq!(routes.dist_ms(1, 1), 0.0);
        assert_eq!(
            routes.path_nodes(2, 1),
            vec![NodeId(3), NodeId(1), NodeId(2)]
        );
        assert_eq!(routes.path_nodes(1, 1), vec![NodeId(2)]);
        assert_eq!(routes.path_edges(&g, 0, 2).len(), 2);

        let single = HostRoutes::build(&g, vec![NodeId(1)]);
        assert_eq!((single.dist.len(), single.prev.len()), (1, 4));
        assert_eq!(single.path_nodes(0, 0), vec![NodeId(1)]);
    }

    #[test]
    #[should_panic(expected = "host out of range")]
    fn host_outside_the_graph_panics() {
        HostRoutes::build(&line_with_shortcut(), vec![NodeId(3)]);
    }

    /// Regression: delays that differ only below f32 resolution must stay
    /// distinguishable. An earlier `Apsp` stored f32 distances, which
    /// collapsed such pairs to equal and let closest-child selection fall
    /// through to the node-id tie-break (picking the *farther*,
    /// smaller-id node here).
    #[test]
    fn sub_f32_delay_differences_survive() {
        let mut g = Graph::with_nodes(3, NodeKind::Stub);
        // Node 2 is genuinely closer to 0 than node 1, but only by 1e-5 ms
        // at a 1000 ms base — below the ~6.1e-5 f32 spacing at 1000.
        g.add_edge(NodeId(0), NodeId(1), LinkAttrs::delay(1000.0 + 1e-5));
        g.add_edge(NodeId(0), NodeId(2), LinkAttrs::delay(1000.0));
        let apsp = Apsp::build(&g);
        let d1 = apsp.dist_ms(NodeId(0), NodeId(1));
        let d2 = apsp.dist_ms(NodeId(0), NodeId(2));
        // The pair is indistinguishable in f32...
        assert_eq!(d1 as f32, d2 as f32, "test delays must straddle f32 ulp");
        // ...but the stored f64 distances keep the true ordering, so a
        // closest-child scan picks node 2 without needing the id tie-break.
        assert!(d2 < d1, "expected {d2} < {d1}");
        let closest = g
            .nodes()
            .filter(|&v| v != NodeId(0))
            .min_by(|&a, &b| {
                apsp.dist_ms(NodeId(0), a)
                    .partial_cmp(&apsp.dist_ms(NodeId(0), b))
                    .unwrap()
                    .then(a.cmp(&b))
            })
            .unwrap();
        assert_eq!(closest, NodeId(2));
    }

    #[test]
    fn apsp_matches_floyd_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10 {
            let n = rng.gen_range(2..20);
            let mut g = Graph::with_nodes(n, NodeKind::Stub);
            // Random spanning structure plus extra edges.
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
            let apsp = Apsp::build(&g);
            let fw = floyd_warshall(&g);
            for a in g.nodes() {
                for b in g.nodes() {
                    let d1 = apsp.dist_ms(a, b);
                    let d2 = fw[a.idx()][b.idx()];
                    assert!(
                        (d1 - d2).abs() < 1e-3,
                        "dist mismatch {a}->{b}: {d1} vs {d2}"
                    );
                    // Route delay must equal the distance.
                    let path = apsp.path_nodes(a, b);
                    let total: Millis = path
                        .windows(2)
                        .map(|w| g.edge(g.find_edge(w[0], w[1]).unwrap()).attrs.delay_ms)
                        .sum();
                    assert!((total - d2).abs() < 1e-3);
                }
            }
        }
    }
}
