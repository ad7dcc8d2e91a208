//! Shortest paths over the underlay graph.
//!
//! The discrete-event simulator forwards every packet along delay-shortest
//! routes, exactly as the paper's NS-2 setup does, and the stress metric
//! needs the *edge sequence* of each route. The overlay only ever asks
//! about routes between hosts, so [`HostRoutes`] precomputes one row of
//! host-to-host distances per host, storing each host pair once, and
//! builds a host's predecessor row, which [`HostRoutes::path_edges`]
//! walks to enumerate physical links on a route, only when a path from
//! that host is first asked. [`Apsp`], the dense all-pairs table with
//! next hops, is the reference the tests hold it to.
//!
//! # Predecessor slots
//!
//! A predecessor row stores, per node `t`, not its predecessor's id but
//! the predecessor's *slot*: its index in `t`'s own adjacency list, a
//! `u16` (`u16::MAX` for none). The `Csr` is in [`Graph::neighbors`]
//! order, so the slot names the predecessor node and the link to it at
//! once: [`HostRoutes::path_edges`] reads each [`EdgeId`] straight off
//! the adjacency entry instead of searching for the link between two
//! nodes. The kernel writes the slot when it relaxes a link; each CSR
//! entry carries the slot of its reverse entry in the padding of its
//! `(neighbour, delay)` pair, so the entry is still 16 bytes. This is
//! exact: [`Graph::add_edge`] forbids parallel links, so a slot names
//! exactly the node a `u32` predecessor would, and rows cost
//! `2·n` bytes of predecessors instead of `4·n`.
//!
//! # Slot rows on demand
//!
//! The overlay's hot path asks only distances; stress, loss estimates
//! and the queueing data plane ask routes. So both host-route oracles
//! store a source's `H` host distances up front (`8·H` bytes) and its
//! `n`-long slot row (`2·n` bytes) only once a path from that source is
//! asked: a [`OnceLock`] per source, filled by running the kernel from
//! the same source again. The kernel is a pure function of the CSR and
//! the source, so the slots have the bits an eager build would have
//! written, and a filled row is read without a lock. A distance row
//! runs the kernel with no slot or first-hop row at all. `ScratchPool`
//! is the one fill path both oracles share; it counts the rows it
//! builds.
//!
//! # Each host pair once
//!
//! Links are undirected, so `d(a, b)` and `d(b, a)` are one route summed
//! in opposite order, and differ at most in the last few ulps. The eager
//! oracle therefore stores them as a `PairTable`: `d(a, b)` for every
//! host pair `a < b` as an f64 in a strict upper triangle, and `d(b, a)`
//! as the signed difference of the two bit patterns in one `i8`. Every
//! distance is non-negative or `INFINITY`, and for those the bit pattern
//! read as an integer orders as the number does, so a few ulps are a
//! small integer and the sum gives back `d(b, a)`'s exact bits. A
//! difference the byte cannot hold is marked `SPILLED` and its
//! distance kept whole in a short sorted list. That is `4.5·H(H−1)`
//! bytes for the table against `8·H²` for a square one, and every
//! answer keeps its bits.
//!
//! # One kernel
//!
//! Every shortest-path answer in this crate — [`HostRoutes::build`],
//! [`crate::router::OnDemandRouter`]'s rows (both through one host-row
//! builder), [`Apsp::build`] and [`dijkstra`] — comes out of the one
//! loop in `sssp`, run over a `Csr` view of the graph (one flat
//! `(neighbour, delay)` array in [`Graph::neighbors`] order). Four
//! things in that loop are deliberate:
//!
//! * **The queue is unsorted distance buckets** (Dial, CACM 1969): a
//!   node at distance `d` is filed, as a bare id, under bucket
//!   `⌊d · (1/w)⌋`, and nothing in a bucket is sorted. A drained node
//!   relaxes its links with its *current* distance, an entry whose node
//!   has since moved to an earlier bucket is skipped, and a bucket is
//!   drained again while pushes land in it (a zero-delay link, or one
//!   shorter than `w`). `w` is the smallest positive link delay, raised
//!   where needed so that half the 256-slot ring spans the largest: a
//!   push is at most one link past the node being drained, so every
//!   queued bucket is less than a ring ahead, with half a ring of margin
//!   for rounding. Each drained node checks that, in release builds too.
//!
//!   Distances do not depend on the drain order. Adding a non-negative
//!   delay in `f64` is monotone, so every label is some route's
//!   left-to-right sum and, once no link lowers one, by induction along
//!   any route it is the least such sum: one fixed point, whose bits
//!   any label-setting or label-correcting loop reaches.
//! * **Predecessors follow an explicit tie rule.** A textbook heap
//!   Dijkstra pops `(distance, id)` order and relaxes strictly, so it
//!   records for `t` the first link, in the adjacency of the first node
//!   popped, over which a node `u` reaches `t` at `d(u) + w == d(t)`.
//!   The kernel states that: on an exact tie the least `(d(u), u, slot)`
//!   wins (a node's slots order its parallel links as its list does).
//!   Ties are rare: some twenty per row on the join testbeds. The rule is
//!   the heap's only while every candidate is strictly nearer than `t`.
//!   An absorbed delay, `d + w == d` (zero, or below half an ulp of `d`),
//!   puts a node at the distance of the node that reached it, and the
//!   heap pops it after that node, not in id order; such a row has
//!   `prev` and `first` replayed in the heap's order from its final
//!   distances (`replay_ties`). No testbed the experiments build has one.
//! * **First hops are written at relaxation time**: `first[t]` is that
//!   of the node giving `t` its predecessor (`t` when that is the
//!   source), as a walk back along `prev` would find, without the
//!   `O(n · depth)` walk. A node whose first hop a tie moves within the
//!   bucket being drained is drained again, so its links pass it on.
//! * **Degree-1 nodes are never pushed** (unless one is the source). A
//!   leaf's one link leads back to the node that reached it, which it
//!   never improves, and the heap pops it after that node, so it is
//!   never a candidate under the tie rule. Its `dist`/`prev`/`first` are
//!   still written. Host access links make ~46 % of the nodes on the
//!   join testbeds leaves.

use crate::graph::{Adj, EdgeId, Graph, NodeId};
use crate::Millis;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

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

/// "No predecessor" in a predecessor-slot row: the source and
/// unreachable nodes.
pub(crate) const NO_PREV: u16 = u16::MAX;

/// One CSR entry: a link out of a node.
#[derive(Clone, Copy, Debug)]
struct Link {
    /// The neighbour.
    to: u32,
    /// This link's slot in `to`'s list: the predecessor slot a node
    /// reached over it records (see the module docs).
    back: u16,
    /// One-way delay.
    delay: Millis,
}

/// Compressed-sparse-row view of a [`Graph`]'s adjacency: node `v`'s
/// links are `adj[off[v]..off[v + 1]]`, in [`Graph::neighbors`] order,
/// each with its reverse slot. `16 B × 2E + 4 B × (n + 1)`; built once
/// per router / table build so a relaxation reads one flat array
/// instead of chasing `Adj → EdgeId → Edge`.
pub(crate) struct Csr {
    off: Vec<u32>,
    adj: Vec<Link>,
    /// Smallest positive link delay (`INFINITY` when none is positive).
    min_delay: Millis,
    /// Largest link delay.
    max_delay: Millis,
}

impl Csr {
    /// # Panics
    /// Panics when a node has `u16::MAX` links or more: its slots would
    /// not fit a predecessor row.
    pub(crate) fn new(g: &Graph) -> Self {
        // Sized exactly, one allocation each: growing `adj` by doubling
        // left half-size buffers behind and moved peak RSS (see the
        // allocation note in `HostRoutes::build`). The slot table is
        // asked for last, so it is freed from the top of the heap.
        let mut csr = Self::with_capacity(g.num_nodes(), 2 * g.num_edges());
        // Per link, its slot at its lower-id end, which comes in first;
        // the higher end fills in both entries' reverse slots.
        let mut lower = vec![0u16; g.num_edges()];
        for v in g.nodes() {
            let start = csr.adj.len();
            for (slot, adj) in g.neighbors(v).iter().enumerate() {
                // A wrapped slot is refused by `close_node` below.
                let slot = slot as u16;
                let e = adj.edge.idx();
                let back = if adj.to < v {
                    let back = lower[e];
                    let at = csr.off[adj.to.idx()] as usize + usize::from(back);
                    csr.adj[at].back = slot;
                    back
                } else {
                    lower[e] = slot;
                    NO_PREV
                };
                csr.adj.push(Link {
                    to: adj.to.0,
                    back,
                    delay: g.edge(adj.edge).attrs.delay_ms,
                });
            }
            csr.close_node(start);
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
    /// links.
    #[cfg(test)]
    fn push_node(&mut self, list: impl Iterator<Item = Link>) {
        let start = self.adj.len();
        self.adj.extend(list);
        self.close_node(start);
    }

    /// End the node whose links start at `adj[start]`.
    fn close_node(&mut self, start: usize) {
        assert!(
            self.adj.len() - start < usize::from(NO_PREV),
            "node degree {} does not fit a u16 predecessor slot",
            self.adj.len() - start
        );
        for l in &self.adj[start..] {
            if l.delay > 0.0 {
                self.min_delay = self.min_delay.min(l.delay);
            }
            self.max_delay = self.max_delay.max(l.delay);
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

    fn neighbors(&self, v: u32) -> &[Link] {
        &self.adj[self.off[v as usize] as usize..self.off[v as usize + 1] as usize]
    }

    fn degree(&self, v: u32) -> u32 {
        self.off[v as usize + 1] - self.off[v as usize]
    }

    /// Links of the graph (each is two entries).
    pub(crate) fn num_edges(&self) -> usize {
        self.adj.len() / 2
    }

    /// The predecessor of `t` that slot `slot` names, or `None` for
    /// [`NO_PREV`]: [`step_back`] on the CSR.
    fn pred(&self, t: u32, slot: u16) -> Option<u32> {
        (slot != NO_PREV).then(|| self.adj[self.off[t as usize] as usize + usize::from(slot)].to)
    }
}

/// Slots in a [`BucketQueue`]'s ring.
const RING: usize = 256;

/// An empty ring slot, and the end of a slot's list.
const NIL: u32 = u32::MAX;

/// The kernel's unsorted distance buckets (see the module docs). Ring
/// slot `b % RING` holds bucket `b`'s node ids, a list threaded through
/// one array of the row's entries: memory is the ring plus those, on any
/// delay range, and is kept from row to row.
#[derive(Default)]
pub(crate) struct BucketQueue {
    /// `1 / w`.
    inv_width: f64,
    /// The bucket being drained.
    bucket: u64,
    /// Per ring slot, its last-filed entry.
    heads: Vec<u32>,
    /// Entries filed since the reset: (node, the slot's entry before).
    entries: Vec<(u32, u32)>,
}

impl BucketQueue {
    /// Empty the queue and set its bucket width to `width` ms.
    pub(crate) fn reset(&mut self, width: Millis) {
        self.inv_width = 1.0 / width;
        self.bucket = 0;
        self.heads.clear();
        self.heads.resize(RING, NIL);
        self.entries.clear();
    }

    /// The bucket distance `d` falls in: monotone in `d`.
    #[inline]
    fn bucket_of(&self, d: Millis) -> u64 {
        (d * self.inv_width) as u64
    }

    /// File node `v` under bucket `b`, which must be less than a ring
    /// ahead of the bucket being drained.
    #[inline]
    fn push(&mut self, b: u64, v: u32) {
        let head = &mut self.heads[(b % RING as u64) as usize];
        // A row files far fewer than `u32::MAX` entries.
        let at = self.entries.len() as u32;
        self.entries.push((v, *head));
        *head = at;
    }

    /// The next list to drain and its bucket: the current bucket's when
    /// filed under since its list was taken, else the next queued one's
    /// (the first non-empty slot, as it is less than a ring ahead).
    fn take(&mut self) -> Option<(u64, u32)> {
        for _ in 0..RING {
            let slot = (self.bucket % RING as u64) as usize;
            let head = std::mem::replace(&mut self.heads[slot], NIL);
            if head != NIL {
                return Some((self.bucket, head));
            }
            self.bucket += 1;
        }
        None
    }
}

/// Delay-weighted shortest paths from `source` into three `n`-long rows
/// (the crate's one shortest-path loop; see the module docs). On return
/// `dist[v]` is the shortest delay (`INFINITY` when unreachable),
/// `prev[v]` the predecessor's slot in `v`'s adjacency list
/// ([`NO_PREV`] for the source and unreachable nodes) and `first[v]`
/// the first hop from the source (`u32::MAX` for both). `prev` and
/// `first` may both be empty, for distances alone: a distance row then
/// pays for no predecessor.
pub(crate) fn sssp(
    csr: &Csr,
    source: u32,
    dist: &mut [Millis],
    prev: &mut [u16],
    first: &mut [u32],
    queue: &mut BucketQueue,
) {
    let (n, slots) = (csr.num_nodes(), !(prev.is_empty() && first.is_empty()));
    assert!(dist.len() == n && (!slots || prev.len() == n && first.len() == n));
    if slots {
        run::<true>(csr, source, dist, prev, first, queue);
    } else {
        run::<false>(csr, source, dist, prev, first, queue);
    }
}

/// [`sssp`], with `SLOTS` false for distances alone.
fn run<const SLOTS: bool>(
    csr: &Csr,
    source: u32,
    dist: &mut [Millis],
    prev: &mut [u16],
    first: &mut [u32],
    queue: &mut BucketQueue,
) {
    dist.fill(Millis::INFINITY);
    prev.fill(NO_PREV);
    first.fill(u32::MAX);
    queue.reset(csr.bucket_width());
    dist[source as usize] = 0.0;
    queue.push(0, source);
    let mut absorbed = false;
    while let Some((b, mut i)) = queue.take() {
        while i != NIL {
            let (v, next) = queue.entries[i as usize];
            i = next;
            let d = dist[v as usize];
            if queue.bucket_of(d) != b {
                continue; // refiled under an earlier bucket since
            }
            assert!(
                queue.bucket_of(d + csr.max_delay) < b + RING as u64,
                "push beyond the ring"
            );
            let via = if SLOTS { first[v as usize] } else { u32::MAX };
            for link in csr.neighbors(v) {
                let t = link.to as usize;
                let nd = d + link.delay;
                if nd > dist[t] {
                    continue;
                }
                let hop = if v == source { link.to } else { via };
                if nd < dist[t] {
                    dist[t] = nd;
                    if SLOTS {
                        prev[t] = link.back;
                        first[t] = hop;
                        absorbed |= nd == d;
                    }
                    if csr.degree(link.to) > 1 {
                        queue.push(queue.bucket_of(nd), link.to);
                    }
                } else if SLOTS && nd != d {
                    // The tie rule: the least `(d(u), u, slot)` link wins.
                    let Some(p) = csr.pred(link.to, prev[t]) else {
                        continue;
                    };
                    if (d, v, link.back) <= (dist[p as usize], p, prev[t]) {
                        prev[t] = link.back;
                        // `t` may have passed its old first hop on already.
                        if std::mem::replace(&mut first[t], hop) != hop
                            && queue.bucket_of(nd) == b
                            && csr.degree(link.to) > 1
                        {
                            queue.push(b, link.to);
                        }
                    }
                }
            }
        }
    }
    if absorbed {
        replay_ties(csr, source, dist, prev, first);
    }
}

/// `prev` and `first` rebuilt from final distances in a binary heap's
/// `(distance, id)` pop order, for a row in which some delay was
/// absorbed (see the module docs): a node takes the first link over
/// which a popped node reaches it at its distance.
#[cold]
fn replay_ties(csr: &Csr, source: u32, dist: &[Millis], prev: &mut [u16], first: &mut [u32]) {
    prev.fill(NO_PREV);
    first.fill(u32::MAX);
    let mut heap = BinaryHeap::from([Reverse((0, source))]);
    while let Some(Reverse((_, v))) = heap.pop() {
        let via = first[v as usize];
        for link in csr.neighbors(v) {
            let t = link.to as usize;
            if link.to != source && prev[t] == NO_PREV && dist[v as usize] + link.delay == dist[t] {
                prev[t] = link.back;
                first[t] = if v == source { link.to } else { via };
                heap.push(Reverse((dist[t].to_bits(), link.to)));
            }
        }
    }
}

/// Delay-weighted Dijkstra from `source`.
pub fn dijkstra(g: &Graph, source: NodeId) -> ShortestPaths {
    let n = g.num_nodes();
    let csr = Csr::new(g);
    let mut dist = vec![Millis::INFINITY; n];
    let mut prev = vec![NO_PREV; n];
    let mut first = vec![u32::MAX; n];
    sssp(
        &csr,
        source.0,
        &mut dist,
        &mut prev,
        &mut first,
        &mut BucketQueue::default(),
    );
    ShortestPaths {
        source,
        dist,
        prev: g
            .nodes()
            .map(|t| step_back(g, &prev, t).map(|adj| adj.to))
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
        let mut prev = vec![NO_PREV; n];
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
/// stress over host-to-host routes — so this keeps the host-to-host
/// distances, copied from each host's row at the host columns, each
/// host pair once (a `PairTable`, see the module docs):
/// `4.5·H(H−1)` bytes against [`Apsp`]'s `12·n²`. A host's `n`-long row
/// of predecessor slots (see the module docs) is built the first time a
/// path from it is asked, `2·n` bytes per host asked from, over the CSR
/// this keeps (`16 B × 2E`). Each row is the kernel run from the same
/// source as the matching [`Apsp`] row, so every distance and slot has
/// the same bits.
pub struct HostRoutes {
    /// The graph's adjacency, kept for the slot rows.
    csr: Csr,
    /// Graph node of each host, in host-id order.
    hosts: Vec<NodeId>,
    /// Host-to-host distances in ms.
    dist: PairTable,
    /// Per source host, its predecessor-slot row once a path from it
    /// has been asked; [`NO_PREV`] for the source and unreachable
    /// nodes.
    prev: Vec<OnceLock<Box<[u16]>>>,
    scratch: ScratchPool,
}

impl std::fmt::Debug for HostRoutes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HostRoutes")
            .field("nodes", &self.csr.num_nodes())
            .field("hosts", &self.hosts.len())
            .field("slot_rows", &self.slot_rows_built())
            .finish()
    }
}

impl HostRoutes {
    /// Run Dijkstra from the node of every host in `hosts`, keeping the
    /// host distances; slot rows wait for the first path query.
    ///
    /// # Panics
    /// Panics when a host is not a node of `g`.
    pub fn build(g: &Graph, hosts: Vec<NodeId>) -> Self {
        let n = g.num_nodes();
        let h = hosts.len();
        assert!(hosts.iter().all(|v| v.idx() < n), "host out of range");
        // The tables come first, then the CSR that is kept, then the
        // scratch, a few exactly-sized allocations plus the queue, which
        // holds one row's pushes at most. When a process builds tables
        // repeatedly (every benchmark iteration does), glibc serves them
        // from the block the previous build freed — and any other
        // request that fits no smaller hole from the front of that same
        // block, after which a table no longer fits behind the first
        // and the heap grows by a whole table: +16 % peak RSS on
        // `soak_resilient` back when its underlay held `Apsp`'s planes
        // and scratch came first (DESIGN.md §8).
        let mut dist = PairTable::new(h);
        let prev = (0..h).map(|_| OnceLock::new()).collect();
        let csr = Csr::new(g);
        let mut scratch = RowScratch::new(n);
        let mut row = vec![Millis::INFINITY; h];
        for (a, &s) in hosts.iter().enumerate() {
            scratch.host_dists(&csr, &hosts, s, &mut row);
            dist.push_row(a, &row);
        }
        Self {
            csr,
            hosts,
            dist,
            prev,
            scratch: ScratchPool::default(),
        }
    }

    /// Graph node of each host, in host-id order.
    pub fn hosts(&self) -> &[NodeId] {
        &self.hosts
    }

    /// Shortest one-way delay (ms) from host `a` to host `b`; the bits
    /// of [`Apsp::dist_ms`] between their nodes.
    ///
    /// # Panics
    /// Panics when `a` or `b` is not a host id, in release builds too:
    /// the table is a triangle, so an id past the end would read
    /// another pair.
    #[inline]
    pub fn dist_ms(&self, a: usize, b: usize) -> Millis {
        self.dist.get(a, b)
    }

    /// Node sequence of the route from host `a` to host `b` (inclusive),
    /// walked back along `a`'s predecessor row. Empty when unreachable;
    /// one node when both hosts sit on it.
    ///
    /// # The route [`Apsp::path_nodes`] takes
    ///
    /// `Apsp` walks hop by hop, each hop read from the current node's
    /// own row; this reads `a`'s row alone. In exact arithmetic the two
    /// agree. With positive delays the kernel's tie rule makes `prev[t]`
    /// the `(dist, id)`-least `u` with `d(u) + w(u, t) = d(t)`. Let `v` lie on
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
    ///
    /// The row's slots are read off `g`'s adjacency lists, so `g` must
    /// be the graph the routes were built over.
    ///
    /// # Panics
    /// Panics when `g`'s node or link count is not that graph's.
    pub fn path_nodes(&self, g: &Graph, a: usize, b: usize) -> Vec<NodeId> {
        assert_graph(g, &self.csr);
        if self.dist_ms(a, b).is_infinite() {
            return Vec::new();
        }
        route_nodes(g, self.prev_row(a), self.hosts[a], self.hosts[b])
    }

    /// Edge sequence of the route from host `a` to host `b`, read off
    /// `g`'s adjacency entries; `g` must be the graph the routes were
    /// built over.
    ///
    /// # Panics
    /// Panics when `g`'s node or link count is not that graph's.
    pub fn path_edges(&self, g: &Graph, a: usize, b: usize) -> Vec<EdgeId> {
        assert_graph(g, &self.csr);
        route_links(g, self.prev_row(a), self.hosts[b])
    }

    /// Predecessor-slot rows built so far: one per source host a path
    /// has been asked from.
    pub fn slot_rows_built(&self) -> u64 {
        self.scratch.slot_rows_built()
    }

    /// Host `a`'s predecessor-slot row, built on first use.
    fn prev_row(&self, a: usize) -> &[u16] {
        self.scratch
            .slot_row(&self.prev[a], &self.csr, self.hosts[a])
    }
}

/// The mirror byte of a pair whose `d(b, a)` is in the spill list.
const SPILLED: i8 = i8::MIN;

/// Host-to-host distances, each host pair stored once (see the module
/// docs). For a pair `a < b`, at index [`Self::pair`] of two row-major
/// strict upper triangles, `upper` holds `d(a, b)` and `mirror`
/// `bits(d(b, a)) − bits(d(a, b))`, or [`SPILLED`] when that does not
/// fit the byte. The diagonal is not stored: a host's distance to
/// itself is the `0.0` the kernel starts its source at.
struct PairTable {
    hosts: usize,
    upper: Vec<Millis>,
    mirror: Vec<i8>,
    /// `(pair, d(b, a))` for every spilled pair, sorted by pair.
    spill: Vec<(usize, Millis)>,
}

impl PairTable {
    /// A table for `hosts` hosts, to be filled by [`Self::push_row`].
    fn new(hosts: usize) -> Self {
        let pairs = hosts * hosts.saturating_sub(1) / 2;
        Self {
            hosts,
            upper: vec![Millis::INFINITY; pairs],
            mirror: vec![0; pairs],
            spill: Vec::new(),
        }
    }

    /// Index of the pair `a < b`: the rows before `a` hold `H − 1`,
    /// `H − 2`, … pairs.
    #[inline]
    fn pair(&self, a: usize, b: usize) -> usize {
        a * (2 * self.hosts - a - 1) / 2 + (b - a - 1)
    }

    /// Store host `a`'s row, `row[b] = d(a, b)`. Rows come in host
    /// order: the mirror of a pair `b < a` is taken against `d(b, a)`,
    /// stored with row `b`.
    fn push_row(&mut self, a: usize, row: &[Millis]) {
        for (b, &d) in row[..a].iter().enumerate() {
            let i = self.pair(b, a);
            self.mirror[i] = mirror_delta(self.upper[i], d).unwrap_or_else(|| {
                let at = self.spill.partition_point(|&(j, _)| j < i);
                self.spill.insert(at, (i, d));
                SPILLED
            });
        }
        let at = self.pair(a, a + 1);
        self.upper[at..at + (self.hosts - a - 1)].copy_from_slice(&row[a + 1..]);
    }

    /// `d(a, b)`: the pair's upper entry plus its mirror byte, masked
    /// to zero above the diagonal, with no branch on the side; the spill
    /// list is read only when the byte says so.
    #[inline]
    fn get(&self, a: usize, b: usize) -> Millis {
        assert!(a < self.hosts && b < self.hosts, "host id out of range");
        if a == b {
            return 0.0;
        }
        let i = self.pair(a.min(b), a.max(b));
        let delta = self.mirror[i] & -i8::from(a > b);
        if delta == SPILLED {
            return self.spilled(i);
        }
        Millis::from_bits(
            self.upper[i]
                .to_bits()
                .wrapping_add_signed(i64::from(delta)),
        )
    }

    #[cold]
    fn spilled(&self, i: usize) -> Millis {
        let at = self
            .spill
            .binary_search_by_key(&i, |&(j, _)| j)
            .expect("a spilled pair is in the spill list");
        self.spill[at].1
    }

    /// Bytes the table has allocated.
    #[cfg(test)]
    fn bytes(&self) -> usize {
        self.upper.capacity() * std::mem::size_of::<Millis>()
            + self.mirror.capacity()
            + self.spill.capacity() * std::mem::size_of::<(usize, Millis)>()
    }
}

/// The mirror byte of a pair: `bits(lower) − bits(upper)`, which added
/// back to `upper`'s bits gives `lower`'s exactly, or `None` when it
/// does not fit an `i8` other than [`SPILLED`].
fn mirror_delta(upper: Millis, lower: Millis) -> Option<i8> {
    let delta = lower.to_bits().wrapping_sub(upper.to_bits()) as i64;
    i8::try_from(delta).ok().filter(|&d| d != SPILLED)
}

/// Scratch the kernel runs into for a host row: a full `n`-long
/// distance row, whose host columns a distance row keeps, a first-hop
/// row that a slot row does not keep, and the queue, all kept from row
/// to row.
pub(crate) struct RowScratch {
    dist: Vec<Millis>,
    first: Vec<u32>,
    queue: BucketQueue,
}

impl RowScratch {
    /// Scratch for rows over an `n`-node graph; the two rows are
    /// allocated before the queue.
    fn new(n: usize) -> Self {
        Self {
            dist: vec![Millis::INFINITY; n],
            first: vec![u32::MAX; n],
            queue: BucketQueue::default(),
        }
    }

    /// The distance row from `source` that both host-route oracles
    /// store: `dist` (one slot per host) gets the kernel's distance row
    /// at the host columns.
    pub(crate) fn host_dists(
        &mut self,
        csr: &Csr,
        hosts: &[NodeId],
        source: NodeId,
        dist: &mut [Millis],
    ) {
        sssp(
            csr,
            source.0,
            &mut self.dist,
            &mut [],
            &mut [],
            &mut self.queue,
        );
        let row = &self.dist;
        for (d, t) in dist.iter_mut().zip(hosts) {
            *d = row[t.idx()];
        }
    }
}

/// The lazy slot rows of one host-route oracle: idle kernel scratch, so
/// a row reuses an earlier row's scratch rows and queue, and the count
/// of slot rows built. Rows are filled on whichever thread asks first,
/// several at once when runner threads ask different sources together,
/// so each fill takes scratch of its own and gives it back.
#[derive(Default)]
pub(crate) struct ScratchPool {
    idle: Mutex<Vec<RowScratch>>,
    slot_rows: AtomicU64,
}

impl ScratchPool {
    /// Idle scratch, or new scratch for an `n`-node graph.
    pub(crate) fn take(&self, n: usize) -> RowScratch {
        let idle = self.idle.lock().expect("scratch pool lock").pop();
        idle.unwrap_or_else(|| RowScratch::new(n))
    }

    pub(crate) fn give_back(&self, scratch: RowScratch) {
        self.idle.lock().expect("scratch pool lock").push(scratch);
    }

    /// `source`'s predecessor-slot row, held in `cell`: on the first
    /// call the kernel runs from `source` again, straight into a new
    /// row (allocated before the scratch is taken); later calls, and
    /// threads that waited on the first, read the row.
    pub(crate) fn slot_row<'a>(
        &self,
        cell: &'a OnceLock<Box<[u16]>>,
        csr: &Csr,
        source: NodeId,
    ) -> &'a [u16] {
        cell.get_or_init(|| {
            let n = csr.num_nodes();
            let mut row = vec![NO_PREV; n].into_boxed_slice();
            let mut scratch = self.take(n);
            let RowScratch { dist, first, queue } = &mut scratch;
            sssp(csr, source.0, dist, &mut row, first, queue);
            self.give_back(scratch);
            self.slot_rows.fetch_add(1, Ordering::Relaxed);
            row
        })
    }

    /// Slot rows [`Self::slot_row`] has built.
    pub(crate) fn slot_rows_built(&self) -> u64 {
        self.slot_rows.load(Ordering::Relaxed)
    }
}

/// Panics unless `g` has the node and link counts of `csr`, the graph
/// a set of predecessor-slot rows was built over. A slot indexes `g`'s
/// adjacency lists, so on another graph it would name another link
/// without an error; a graph of the same size is not caught.
pub(crate) fn assert_graph(g: &Graph, csr: &Csr) {
    assert!(
        g.num_nodes() == csr.num_nodes() && g.num_edges() == csr.num_edges(),
        "not the graph the routes were built over"
    );
}

/// The adjacency entry `t`'s predecessor slot names in a
/// predecessor-slot row: the link into `t` and the node before it.
/// `None` at the row's source and for unreachable nodes.
fn step_back(g: &Graph, prev: &[u16], t: NodeId) -> Option<Adj> {
    let slot = prev[t.idx()];
    (slot != NO_PREV).then(|| g.neighbors(t)[usize::from(slot)])
}

/// The route to `to` along a predecessor-slot row, last step first.
fn steps_back<'a>(g: &'a Graph, prev: &'a [u16], to: NodeId) -> impl Iterator<Item = Adj> + 'a {
    std::iter::successors(step_back(g, prev, to), move |adj| {
        step_back(g, prev, adj.to)
    })
}

/// Node sequence `source → to` (inclusive) along a predecessor-slot
/// row, for a `to` the row reaches.
pub(crate) fn route_nodes(g: &Graph, prev: &[u16], source: NodeId, to: NodeId) -> Vec<NodeId> {
    let mut nodes: Vec<NodeId> = std::iter::once(to)
        .chain(steps_back(g, prev, to).map(|adj| adj.to))
        .collect();
    nodes.reverse();
    debug_assert_eq!(nodes[0], source);
    nodes
}

/// The links of the route to `to` along a predecessor-slot row, in
/// route order. Empty when `to` is the row's source or unreachable.
pub(crate) fn route_links(g: &Graph, prev: &[u16], to: NodeId) -> Vec<EdgeId> {
    let mut links: Vec<EdgeId> = steps_back(g, prev, to).map(|adj| adj.edge).collect();
    links.reverse();
    links
}

/// The links joining consecutive nodes of a route, each found by a
/// search of the two nodes' adjacency ([`Apsp`]'s route, the
/// reference the slot rows are held to).
fn route_edges(g: &Graph, nodes: &[NodeId]) -> Vec<EdgeId> {
    nodes
        .windows(2)
        .map(|w| {
            g.find_edge(w[0], w[1])
                .expect("route references a missing edge")
        })
        .collect()
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

    /// Lengths of the slot rows built so far, per source host.
    fn slot_row_lens(routes: &HostRoutes) -> Vec<Option<usize>> {
        routes
            .prev
            .iter()
            .map(|c| c.get().map(|r| r.len()))
            .collect()
    }

    /// The table is one distance and one mirror byte per host pair and,
    /// per host asked a path from, `n` predecessor slots — no
    /// router-sized plane — and answers like the dense one.
    #[test]
    fn host_routes_hold_host_rows_only() {
        let (g, routes) = host_routes();
        assert_eq!((routes.dist.upper.len(), routes.dist.mirror.len()), (3, 3));
        assert_eq!(slot_row_lens(&routes), [None, None, None]);
        assert_eq!(routes.csr.num_nodes(), g.num_nodes());
        assert_eq!(routes.dist_ms(0, 1), 2.0);
        assert_eq!(routes.dist_ms(2, 0), 1.5);
        assert_eq!(routes.dist_ms(1, 1), 0.0);
        assert_eq!(slot_row_lens(&routes), [None, None, None]);
        assert_eq!(
            routes.path_nodes(&g, 2, 1),
            vec![NodeId(3), NodeId(1), NodeId(2)]
        );
        assert_eq!(routes.path_nodes(&g, 1, 1), vec![NodeId(2)]);
        assert_eq!(routes.path_edges(&g, 0, 2).len(), 2);
        assert_eq!(slot_row_lens(&routes), [Some(4), Some(4), Some(4)]);
        assert_eq!(routes.slot_rows_built(), 3);

        let single = HostRoutes::build(&g, vec![NodeId(1)]);
        assert_eq!((single.dist.upper.len(), single.dist.mirror.len()), (0, 0));
        assert_eq!(single.dist_ms(0, 0), 0.0);
        assert_eq!(slot_row_lens(&single), [None]);
        assert_eq!(single.path_nodes(&g, 0, 0), vec![NodeId(1)]);
        assert_eq!(slot_row_lens(&single), [Some(4)]);
    }

    /// A slot row is built once per source, on its first path query,
    /// and holds the slots the kernel writes from that source.
    #[test]
    fn slot_rows_are_built_once_on_the_first_path_query() {
        let (g, routes) = host_routes();
        for _ in 0..3 {
            routes.path_edges(&g, 1, 0);
            routes.path_nodes(&g, 1, 2);
        }
        assert_eq!(slot_row_lens(&routes), [None, Some(4), None]);
        assert_eq!(routes.slot_rows_built(), 1);
        let csr = Csr::new(&g);
        let (mut dist, mut prev, mut first) = (vec![0.0; 4], vec![0; 4], vec![0; 4]);
        let mut queue = BucketQueue::default();
        sssp(&csr, 2, &mut dist, &mut prev, &mut first, &mut queue);
        assert_eq!(routes.prev[1].get().map(|r| &r[..]), Some(&prev[..]));
    }

    /// Each host pair is stored once: the eager table of a 1 001-host
    /// Chapter 3 testbed (the `stream_fanout` underlay's shape) holds
    /// `4.5·H(H−1)` bytes plus its spill list, where a square f64
    /// table held `8·H²`.
    #[test]
    fn host_routes_store_each_pair_once() {
        let hosts = 1001;
        let mut g = crate::transit_stub::generate(
            &crate::transit_stub::TransitStubConfig::for_hosts(hosts),
            59,
        );
        let nodes = crate::transit_stub::attach_hosts(&mut g, hosts, 59, 0.0);
        let routes = HostRoutes::build(&g, nodes);
        let spill = routes.dist.spill.capacity() * std::mem::size_of::<(usize, Millis)>();
        let bytes = routes.dist.bytes();
        assert!(bytes <= 9 * hosts * (hosts - 1) / 2 + spill, "{bytes} B");
        assert!(bytes < 8 * hosts * hosts, "{bytes} B");
    }

    /// A mirror byte holds `bits(d(b, a)) − bits(d(a, b))` from −127 to
    /// 127; anything else, an unreachable direction included, goes to
    /// the spill list, and every distance reads back with its bits.
    #[test]
    fn mirror_bytes_hold_127_ulps_and_spill_the_rest() {
        let d = 70.25_f64;
        let ulps = |k: i64| Millis::from_bits(d.to_bits().wrapping_add_signed(k));
        let cases = [
            (d, ulps(-127), false),
            (d, ulps(127), false),
            (d, ulps(128), true),
            (d, ulps(-128), true),
            (Millis::INFINITY, Millis::INFINITY, false),
            (d, Millis::INFINITY, true),
        ];
        for (ab, ba, spilled) in cases {
            let mut table = PairTable::new(2);
            table.push_row(0, &[0.0, ab]);
            table.push_row(1, &[ba, 0.0]);
            assert_eq!(table.spill.len(), usize::from(spilled), "{ab} / {ba}");
            assert_eq!(table.get(0, 1).to_bits(), ab.to_bits());
            assert_eq!(table.get(1, 0).to_bits(), ba.to_bits());
            assert_eq!(table.get(1, 1).to_bits(), 0.0_f64.to_bits());
        }
    }

    /// A chain whose one long link meets many tiny ones sums the two
    /// directions of a pair far apart: from the long link's end each
    /// tiny delay rounds away, from the other end they add up first.
    /// Past 127 ulps the mirror entry spills, in both signs, and every
    /// ordered pair still reads [`Apsp`]'s bits. Clamping the byte
    /// instead of spilling, or reading [`SPILLED`] as a delta, fails.
    #[test]
    fn spilled_mirror_entries_keep_their_bits() {
        let tiny = 300;
        for long_end_first in [true, false] {
            let n = tiny + 2;
            // Node `i` of the chain, counted from the long link's end.
            let node = |i: usize| NodeId(if long_end_first { i } else { n - 1 - i } as u32);
            let mut g = Graph::with_nodes(n, NodeKind::Stub);
            g.add_edge(node(0), node(1), LinkAttrs::delay(1.0));
            for i in 1..=tiny {
                g.add_edge(node(i), node(i + 1), LinkAttrs::delay(1e-16));
            }
            let hosts: Vec<NodeId> = g.nodes().collect();
            let routes = HostRoutes::build(&g, hosts.clone());
            let apsp = Apsp::build(&g);
            for (a, &na) in hosts.iter().enumerate() {
                for (b, &nb) in hosts.iter().enumerate() {
                    assert_eq!(
                        routes.dist_ms(a, b).to_bits(),
                        apsp.dist_ms(na, nb).to_bits(),
                        "h{a}->h{b}"
                    );
                }
            }
            assert!(!routes.dist.spill.is_empty());
        }
    }

    /// A host id past the end would read another pair of the triangle;
    /// it panics instead, in release builds too.
    #[test]
    #[should_panic(expected = "host id out of range")]
    fn dist_ms_refuses_out_of_range_hosts() {
        let (_, routes) = host_routes();
        routes.dist_ms(0, 3);
    }

    #[test]
    #[should_panic(expected = "host id out of range")]
    fn dist_ms_refuses_out_of_range_sources() {
        let (_, routes) = host_routes();
        routes.dist_ms(3, 0);
    }

    #[test]
    #[should_panic(expected = "host out of range")]
    fn host_outside_the_graph_panics() {
        HostRoutes::build(&line_with_shortcut(), vec![NodeId(3)]);
    }

    /// Slots index the adjacency lists of the graph the rows were built
    /// over; handed a graph with another link count, a route query
    /// panics in release builds too instead of naming other links.
    #[test]
    #[should_panic(expected = "not the graph the routes were built over")]
    fn routes_refuse_another_graph() {
        let (mut g, routes) = host_routes();
        g.add_edge(NodeId(0), NodeId(3), LinkAttrs::delay(9.0));
        routes.path_edges(&g, 0, 2);
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

    /// Reference Floyd–Warshall APSP distances, to cross-check [`Apsp`].
    fn floyd_warshall(g: &Graph) -> Vec<Vec<Millis>> {
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
