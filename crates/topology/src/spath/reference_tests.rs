//! An independent reference for the shortest-path kernel.
//!
//! Dense-vs-on-demand agreement (`router::tests`, `tests/router_props.rs`)
//! compares the kernel with itself. The reference here is the textbook
//! loop this crate ran before the kernel existed — adjacency lists, a
//! heap ordered by `f64::partial_cmp` then node id, every node pushed,
//! first hops found by walking `prev` back from each target — and
//! `sssp`, [`Apsp::build`], [`HostRoutes::build`], the
//! [`OnDemandRouter`]'s rows and [`dijkstra`] must match it bit for bit
//! on every (source, target), including on the graphs where the leaf
//! skip, the relaxation-time first hop, the (distance, id, slot) tie
//! rule, a bucket drained again and the tie replay after an absorbed
//! delay each decide the answer. The kernel's buckets are unsorted, so
//! its drain order is nothing like the reference's pop order, and only
//! the tie rule and the replay stand between them. Every graph here also
//! holds both kinds of host rows (every node a host) to the dense
//! table's hop-by-hop route.
//!
//! It lives inside the crate because two of the cases — parallel links
//! and a zero-delay link — are not expressible as a [`Graph`]
//! (`add_edge` rejects both) and have to be handed to the kernel as raw
//! adjacency lists.

use super::*;
use crate::graph::{LinkAttrs, NodeKind};
use crate::powerlaw::{self, PowerLawConfig};
use crate::router::OnDemandRouter;
use crate::transit_stub::attach_hosts;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

type Lists = Vec<Vec<(u32, Millis)>>;

fn lists_of(g: &Graph) -> Lists {
    g.nodes()
        .map(|v| {
            g.neighbors(v)
                .iter()
                .map(|a| (a.to.0, g.edge(a.edge).attrs.delay_ms))
                .collect()
        })
        .collect()
}

#[derive(PartialEq)]
struct RefEntry {
    dist: Millis,
    node: u32,
}

impl Eq for RefEntry {}

impl Ord for RefEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on distance; tie-break on node id.
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for RefEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// One source's reference answer.
struct RefRow {
    dist: Vec<Millis>,
    prev: Vec<Option<u32>>,
    /// First hop toward each node, by the back-walk.
    first: Vec<Option<u32>>,
}

fn reference(lists: &Lists, source: u32) -> RefRow {
    let n = lists.len();
    let mut dist = vec![Millis::INFINITY; n];
    let mut prev = vec![None; n];
    let mut heap = BinaryHeap::new();
    dist[source as usize] = 0.0;
    heap.push(RefEntry {
        dist: 0.0,
        node: source,
    });
    while let Some(RefEntry { dist: d, node: v }) = heap.pop() {
        if d > dist[v as usize] {
            continue;
        }
        for &(to, delay) in &lists[v as usize] {
            let nd = d + delay;
            if nd < dist[to as usize] {
                dist[to as usize] = nd;
                prev[to as usize] = Some(v);
                heap.push(RefEntry { dist: nd, node: to });
            }
        }
    }
    let first = (0..n as u32)
        .map(|v| {
            if v == source || dist[v as usize].is_infinite() {
                return None;
            }
            let mut cur = v;
            while let Some(p) = prev[cur as usize] {
                if p == source {
                    break;
                }
                cur = p;
            }
            Some(cur)
        })
        .collect();
    RefRow { dist, prev, first }
}

impl RefRow {
    /// Source → `to` along `prev`; empty when unreachable.
    fn path(&self, to: u32) -> Vec<NodeId> {
        if self.dist[to as usize].is_infinite() {
            return Vec::new();
        }
        let mut path = vec![NodeId(to)];
        let mut cur = to;
        while let Some(p) = self.prev[cur as usize] {
            path.push(NodeId(p));
            cur = p;
        }
        path.reverse();
        path
    }
}

fn sentinel(x: Option<u32>) -> u32 {
    x.unwrap_or(u32::MAX)
}

/// The CSR of raw, symmetric adjacency lists. With no edge ids to pair
/// a link with its reverse, the `k`-th link from `v` to `to` pairs with
/// the `k`-th link from `to` to `v`.
fn csr_of(lists: &Lists) -> Csr {
    let back = |v: usize, to: u32, k: usize| {
        lists[to as usize]
            .iter()
            .enumerate()
            .filter(|(_, &(u, _))| u as usize == v)
            .nth(k)
            .map(|(slot, _)| slot as u16)
            .expect("adjacency lists must be symmetric")
    };
    let mut csr = Csr::with_capacity(lists.len(), 0);
    for (v, list) in lists.iter().enumerate() {
        csr.push_node(list.iter().enumerate().map(|(i, &(to, delay))| {
            let k = list[..i].iter().filter(|&&(u, _)| u == to).count();
            Link {
                to,
                back: back(v, to, k),
                delay,
            }
        }));
    }
    csr
}

/// A predecessor-slot row decoded to node ids, `u32::MAX` for none.
fn decode(csr: &Csr, prev: &[u16]) -> Vec<u32> {
    (0..prev.len() as u32)
        .map(|t| sentinel(csr.pred(t, prev[t as usize])))
        .collect()
}

/// The largest finite distance over the reference rows.
fn farthest(rows: &[RefRow]) -> Millis {
    rows.iter()
        .flat_map(|r| r.dist.iter().copied())
        .filter(|d| d.is_finite())
        .fold(0.0, Millis::max)
}

/// The kernel against the reference on raw adjacency lists, every
/// source; returns the reference rows for the callers that go on to
/// check the public entry points.
fn check_kernel(lists: &Lists) -> Vec<RefRow> {
    let n = lists.len();
    let csr = csr_of(lists);
    let (mut dist, mut prev, mut first) = (vec![0.0; n], vec![0; n], vec![0; n]);
    let mut queue = BucketQueue::default();
    (0..n as u32)
        .map(|s| {
            let want = reference(lists, s);
            sssp(&csr, s, &mut dist, &mut prev, &mut first, &mut queue);
            let prev = decode(&csr, &prev);
            for t in 0..n {
                assert_eq!(
                    dist[t].to_bits(),
                    want.dist[t].to_bits(),
                    "dist {s}->{t}: {} vs {}",
                    dist[t],
                    want.dist[t]
                );
                assert_eq!(prev[t], sentinel(want.prev[t]), "prev {s}->{t}");
                assert_eq!(first[t], sentinel(want.first[t]), "first {s}->{t}");
            }
            want
        })
        .collect()
}

/// The kernel and the four public entry points against the reference,
/// every (source, target); [`HostRoutes`] and an [`OnDemandRouter`]
/// with every node a host. Returns the reference rows.
fn check_graph(g: &Graph) -> Vec<RefRow> {
    let rows = check_kernel(&lists_of(g));
    let apsp = Apsp::build(g);
    let hosts = HostRoutes::build(g, g.nodes().collect());
    let router = OnDemandRouter::new(g, g.nodes().collect(), Some(1));
    for s in g.nodes() {
        let want = &rows[s.idx()];
        let row = router.row(s.idx());
        let sp = dijkstra(g, s);
        assert_eq!(sp.source, s);
        for t in g.nodes() {
            let bits = want.dist[t.idx()].to_bits();
            let hop = want.first[t.idx()].map(NodeId);
            let path = if s == t { vec![s] } else { want.path(t.0) };

            let (a, b) = (s.idx(), t.idx());
            assert_eq!(row.dist_ms(b).to_bits(), bits, "row dist {s}->{t}");
            assert_eq!(router.path_nodes(g, a, b), path, "row path {s}->{t}");

            assert_eq!(sp.dist[t.idx()].to_bits(), bits, "dijkstra dist {s}->{t}");
            assert_eq!(
                sp.prev[t.idx()],
                want.prev[t.idx()].map(NodeId),
                "dijkstra prev {s}->{t}"
            );
            assert_eq!(
                sp.path_to(t).unwrap_or_default(),
                path,
                "dijkstra path {s}->{t}"
            );

            assert_eq!(apsp.dist_ms(s, t).to_bits(), bits, "apsp dist {s}->{t}");
            assert_eq!(apsp.next_hop(s, t), hop, "apsp next hop {s}->{t}");
            // The dense route follows each hop's own row, not `s`'s tree.
            let mut hops = vec![s];
            while let Some(h) = rows[hops[hops.len() - 1].idx()].first[t.idx()] {
                hops.push(NodeId(h));
            }
            if want.dist[t.idx()].is_infinite() {
                hops.clear();
            }
            assert_eq!(apsp.path_nodes(s, t), hops, "apsp path {s}->{t}");

            // Host rows: `s`'s own tree, which must be the dense route.
            assert_eq!(hosts.dist_ms(a, b).to_bits(), bits, "host dist {s}->{t}");
            assert_eq!(hosts.path_nodes(g, a, b), path, "host path {s}->{t}");
            assert_eq!(
                hosts.path_nodes(g, a, b),
                hops,
                "host vs apsp path {s}->{t}"
            );
        }
    }
    rows
}

fn graph_of(n: usize, edges: &[(u32, u32, Millis)]) -> Graph {
    let mut g = Graph::with_nodes(n, NodeKind::Stub);
    for &(a, b, w) in edges {
        g.add_edge(NodeId(a), NodeId(b), LinkAttrs::delay(w));
    }
    g
}

fn leaves(g: &Graph) -> usize {
    g.nodes().filter(|&v| g.degree(v) == 1).count()
}

/// The join testbeds' shape: a power-law core with a host hanging off
/// it by one access link each, so leaves are sources as well as targets.
#[test]
fn powerlaw_with_host_leaves() {
    for seed in [3u64, 11, 42] {
        let mut g = powerlaw::generate(
            &PowerLawConfig {
                nodes: 44,
                ..PowerLawConfig::default()
            },
            seed,
        );
        attach_hosts(&mut g, 36, seed, 0.0);
        assert!(
            leaves(&g) * 10 >= g.num_nodes() * 4,
            "{} leaves of {} nodes",
            leaves(&g),
            g.num_nodes()
        );
        check_graph(&g);
    }
}

#[test]
fn tiny_and_degenerate_shapes() {
    // Two nodes: both are leaves and each is the other's source.
    check_graph(&graph_of(2, &[(0, 1, 1.5)]));
    // A path: both ends are leaves, every interior node has degree 2.
    check_graph(&graph_of(
        5,
        &[(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0), (3, 4, 0.5)],
    ));
    // A star around node 3: every other node is a leaf.
    check_graph(&graph_of(
        6,
        &[
            (3, 0, 2.0),
            (3, 5, 1.0),
            (3, 1, 1.0),
            (3, 4, 3.0),
            (3, 2, 1.0),
        ],
    ));
    // An isolated node (5), and a second component (6-7-8) with a leaf.
    check_graph(&graph_of(
        9,
        &[
            (0, 1, 1.0),
            (1, 2, 1.0),
            (2, 0, 1.0),
            (2, 3, 4.0),
            (3, 4, 1.0),
            (6, 7, 2.0),
            (7, 8, 2.0),
        ],
    ));
    check_graph(&Graph::new());
    check_graph(&Graph::with_nodes(1, NodeKind::Stub));
}

/// Two links to the same neighbour make a node degree 2: it is pushed
/// like any interior node, and the cheaper link wins.
#[test]
fn parallel_links_are_not_a_leaf() {
    let lists: Lists = vec![
        vec![(1, 1.0)],
        vec![(0, 1.0), (2, 2.0), (2, 1.5), (3, 1.0)],
        vec![(1, 2.0), (1, 1.5)],
        vec![(1, 1.0)],
    ];
    let rows = check_kernel(&lists);
    assert_eq!(rows[0].dist[2], 2.5);
    assert_eq!(rows[2].dist[3], 2.5);
}

/// A zero-delay access link puts the leaf at its router's distance, so
/// the leaf (lower id) sorts ahead of the router's other neighbours.
#[test]
fn zero_delay_access_link() {
    let lists: Lists = vec![
        vec![(2, 0.0)],
        vec![(2, 1.0), (3, 1.0)],
        vec![(0, 0.0), (1, 1.0), (3, 2.0), (4, 0.0)],
        vec![(1, 1.0), (2, 2.0)],
        vec![(2, 0.0)],
    ];
    let rows = check_kernel(&lists);
    assert_eq!(rows[0].dist[4], 0.0);
    assert_eq!(rows[0].first[4], Some(2));

    // Zero-delay entries land in the bucket being drained, which is
    // drained again, and absorb their delay, so the row's ties are
    // replayed. With no positive delay at all the width is the 1 ms
    // constant and every entry shares bucket 0.
    let zeros: Lists = lists
        .iter()
        .map(|l| l.iter().map(|&(to, _)| (to, 0.0)).collect())
        .collect();
    assert_eq!(csr_of(&zeros).bucket_width(), 1.0);
    let rows = check_kernel(&zeros);
    assert!(rows.iter().all(|r| r.dist.iter().all(|&d| d == 0.0)));
}

/// Integer weights on a grid: many routes of equal length between most
/// pairs, so which one `prev` records is decided by the tie rule
/// alone. Edges are inserted column-first and right-to-left so
/// adjacency order is not id order, and a leaf hangs off two corners.
/// Once with vertical links of 1 or 2 ms, once as a unit grid.
#[test]
fn tie_rich_integer_grid() {
    const W: u32 = 5;
    for alternate in [1.0, 0.0] {
        let mut edges = Vec::new();
        for x in (0..W).rev() {
            for y in 0..W {
                let v = y * W + x;
                if y + 1 < W {
                    edges.push((v, v + W, 1.0 + alternate * f64::from((x + y) % 2)));
                }
                if x + 1 < W {
                    edges.push((v + 1, v, 1.0));
                }
            }
        }
        edges.push((W * W, 0, 1.0));
        edges.push((W * W - 1, W * W + 1, 2.0));
        let g = graph_of((W * W + 2) as usize, &edges);
        assert_eq!(leaves(&g), 2);
        check_graph(&g);
    }
}

/// Link delays from 1 µs to 1 s, log-uniform. Half a ring at the
/// smallest delay would span 0.128 ms, so the width is raised to
/// 1000/128 ms and most links are shorter than a bucket: their entries
/// land in the bucket being drained, which is drained again. Blocks
/// strung together by 1 s bridges push distances past two revolutions
/// of the ring, and each bridge is a push as far ahead as the width
/// allows: without the raised width, the release-mode ring check
/// (`push beyond the ring`) fails here.
#[test]
fn wide_delay_range_wraps_the_ring() {
    const BLOCKS: u32 = 6;
    const SIZE: u32 = 8;
    let mut rng = StdRng::seed_from_u64(5);
    let mut g = Graph::with_nodes((BLOCKS * SIZE) as usize, NodeKind::Stub);
    let link = |g: &mut Graph, a: u32, b: u32, delay: Millis| {
        if a != b && g.find_edge(NodeId(a), NodeId(b)).is_none() {
            g.add_edge(NodeId(a), NodeId(b), LinkAttrs::delay(delay));
        }
    };
    link(&mut g, 0, 1, 1e-3);
    for base in (0..BLOCKS).map(|b| b * SIZE) {
        for v in 1..SIZE {
            let u = rng.gen_range(0..v);
            let delay = 10f64.powf(rng.gen_range(-3.0..3.0));
            link(&mut g, base + u, base + v, delay);
        }
        for _ in 0..SIZE {
            let (a, b) = (rng.gen_range(0..SIZE), rng.gen_range(0..SIZE));
            let delay = 10f64.powf(rng.gen_range(-3.0..3.0));
            link(&mut g, base + a, base + b, delay);
        }
        if base > 0 {
            link(&mut g, base - 1, base, 1e3);
        }
    }
    // The kernel runs before the width is checked, so a width formula
    // that lets a push run past the ring fails in the kernel's check.
    let rows = check_graph(&g);
    let w = Csr::new(&g).bucket_width();
    assert_eq!(w, 1e3 / (RING / 2) as Millis);
    assert!(
        farthest(&rows) > 2.0 * RING as Millis * w,
        "ring never wraps twice"
    );
}

/// One 10 s link, far longer than half a ring at the 1 ms links: the
/// width is raised to 10⁴/128 ms, so each unit grid on either side of
/// the link fits in one bucket, and its ties are decided by the tie rule
/// inside a bucket drained again and again.
#[test]
fn one_long_link_raises_the_width() {
    const W: u32 = 4;
    let mut edges = Vec::new();
    for base in [0, W * W] {
        for x in (0..W).rev() {
            for y in 0..W {
                let v = base + y * W + x;
                if y + 1 < W {
                    edges.push((v, v + W, 1.0));
                }
                if x + 1 < W {
                    edges.push((v + 1, v, 1.0));
                }
            }
        }
    }
    edges.push((W * W - 1, W * W, 1e4));
    let g = graph_of((2 * W * W) as usize, &edges);
    assert_eq!(Csr::new(&g).bucket_width(), 1e4 / (RING / 2) as Millis);
    check_graph(&g);
}

/// `spilled_mirror_entries_keep_their_bits`' chain: one 1 ms link
/// beside 300 links of 10⁻¹⁶ ms, built from either end, every node a
/// host. The width is raised to 1/128 ms, so the whole tiny stretch
/// shares one bucket and each relaxation along it lands in the bucket
/// being drained, which is drained again, once per link. From beyond the
/// long link every tiny delay is absorbed (`1 + 10⁻¹⁶ == 1`), so those
/// rows are tie replays too. [`HostRoutes`] and the on-demand rows are
/// held to the reference, not to [`Apsp`], which shares the kernel.
#[test]
fn tiny_links_beside_a_long_one_redrain_one_bucket() {
    let tiny = 300;
    for long_end_first in [true, false] {
        let n = tiny + 2;
        let node = |i: usize| NodeId(if long_end_first { i } else { n - 1 - i } as u32);
        let mut g = Graph::with_nodes(n, NodeKind::Stub);
        g.add_edge(node(0), node(1), LinkAttrs::delay(1.0));
        for i in 1..=tiny {
            g.add_edge(node(i), node(i + 1), LinkAttrs::delay(1e-16));
        }
        assert_eq!(Csr::new(&g).bucket_width(), 1.0 / (RING / 2) as Millis);
        let lists = lists_of(&g);
        let rows = check_kernel(&lists);
        let hosts = HostRoutes::build(&g, g.nodes().collect());
        let router = OnDemandRouter::new(&g, g.nodes().collect(), Some(1));
        for s in g.nodes() {
            let want = &rows[s.idx()];
            let row = router.row(s.idx());
            for t in g.nodes() {
                let (a, b) = (s.idx(), t.idx());
                let bits = want.dist[b].to_bits();
                let path = if s == t { vec![s] } else { want.path(t.0) };
                assert_eq!(hosts.dist_ms(a, b).to_bits(), bits, "host dist {s}->{t}");
                assert_eq!(row.dist_ms(b).to_bits(), bits, "row dist {s}->{t}");
                assert_eq!(hosts.path_nodes(&g, a, b), path, "host path {s}->{t}");
                assert_eq!(router.path_nodes(&g, a, b), path, "row path {s}->{t}");
            }
        }
        // Both directions of a pair through the tiny stretch and the long
        // link are summed in different orders.
        assert_ne!(
            rows[node(0).idx()].dist[node(n - 1).idx()],
            rows[node(n - 1).idx()].dist[node(0).idx()]
        );
    }
}

/// Every link 3 ms: the width is the link delay, each bucket holds one
/// hop count's tied nodes, and a 300-rung ladder (inserted back to
/// front, so adjacency order is not id order) is long enough to wrap
/// the ring. Too large for `check_graph`'s pair walks, so the kernel
/// alone is held to the reference, from every source.
#[test]
fn all_equal_delays_fill_every_bucket_with_ties() {
    const L: u32 = 300;
    let mut edges = Vec::new();
    for i in (0..L).rev() {
        edges.push((L + i, i, 3.0));
        if i + 1 < L {
            edges.push((i + 1, i, 3.0));
            edges.push((L + i + 1, L + i, 3.0));
        }
    }
    let lists = lists_of(&graph_of(2 * L as usize, &edges));
    assert_eq!(csr_of(&lists).bucket_width(), 3.0);
    let rows = check_kernel(&lists);
    assert!(farthest(&rows) / 3.0 > RING as Millis, "ring never wraps");
}

/// Random raw adjacency lists, each seed one of five delay mixes: small
/// integers (ties everywhere), small integers with zero-delay links,
/// small integers with parallel links, log-uniform from 1 µs to 1 s,
/// and small integers beside one 1 s link. The last two raise the bucket
/// width far above most links, so relaxations land in the bucket being
/// drained and the tie rule works inside re-drained buckets. Random
/// spanning forests leave leaves and, now and then, isolated nodes.
/// `sssp` must match the reference on every source: `dist`, `prev` and
/// `first`, bit for bit.
#[test]
fn random_lists_match_the_reference() {
    for seed in 0..250u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mix = seed % 5;
        let n = rng.gen_range(2..40);
        let delay = |rng: &mut StdRng| match mix {
            1 => f64::from(rng.gen_range(0..3u32)),
            3 => 10f64.powf(rng.gen_range(-3.0..3.0)),
            _ => f64::from(rng.gen_range(1..4u32)),
        };
        let mut lists: Lists = vec![Vec::new(); n];
        let link = |lists: &mut Lists, a: usize, b: usize, w: Millis| {
            lists[a].push((b as u32, w));
            lists[b].push((a as u32, w));
        };
        for v in 1..n {
            if rng.gen_bool(0.95) {
                let w = delay(&mut rng);
                link(&mut lists, rng.gen_range(0..v), v, w);
            }
        }
        for _ in 0..rng.gen_range(0..n) {
            let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
            let parallel = lists[a].iter().any(|&(to, _)| to as usize == b);
            if a != b && (mix == 2 || !parallel) {
                let w = delay(&mut rng);
                link(&mut lists, a, b, w);
            }
        }
        if mix == 4 {
            let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if a != b {
                link(&mut lists, a, b, 1e3);
            }
        }
        check_kernel(&lists);
    }
}

/// Random filings as the kernel makes them: under the bucket being
/// drained or less than a ring ahead of it, with repeats of one node.
/// Each `take` must hand back exactly the entries filed under the least
/// bucket still queued, so entries filed under the bucket being drained
/// come back before any later bucket's, and every entry comes back once.
/// One queue serves every seed, and odd seeds leave it non-empty, so
/// `reset` is checked too.
#[test]
fn queue_hands_back_each_bucket_in_order() {
    let mut queue = BucketQueue::default();
    for seed in 0..16u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        queue.reset(1.0);
        // Filed and not yet handed back, as (bucket, node).
        let mut queued: Vec<(u64, u32)> = Vec::new();
        let mut current = 0;
        for step in 0..4000 {
            if queued.is_empty() || rng.gen_bool(0.6) {
                let ahead = match rng.gen_range(0..3) {
                    0 => 0,
                    1 => rng.gen_range(0..4),
                    _ => rng.gen_range(0..RING as u64),
                };
                let v = rng.gen_range(0..32);
                queue.push(current + ahead, v);
                queued.push((current + ahead, v));
            } else {
                let (b, mut i) = queue.take().expect("queue ran dry with entries filed");
                let least = queued.iter().map(|&(b, _)| b).min();
                assert_eq!(Some(b), least, "seed {seed}, step {step}");
                let mut got = Vec::new();
                while i != NIL {
                    let (v, next) = queue.entries[i as usize];
                    got.push(v);
                    i = next;
                }
                let mut want: Vec<u32> = queued.iter().filter(|e| e.0 == b).map(|e| e.1).collect();
                queued.retain(|e| e.0 != b);
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "seed {seed}, step {step}");
                current = b;
            }
        }
        assert!(
            current > 2 * RING as u64,
            "seed {seed}: ring never wraps twice"
        );
        if seed % 2 == 0 {
            while let Some((b, _)) = queue.take() {
                queued.retain(|e| e.0 != b);
            }
            assert!(queued.is_empty(), "seed {seed}: entries left behind");
        }
    }
}

/// The kernel's answers do not depend on the order of a node's
/// neighbours (relaxations out of one node are independent and queue
/// keys are totally ordered), so no comparison against the reference
/// can see a reordering; the CSR's order is pinned directly instead.
#[test]
fn csr_keeps_neighbor_order() {
    let mut g = powerlaw::generate(&PowerLawConfig::default(), 7);
    attach_hosts(&mut g, 20, 7, 0.0);
    let csr = Csr::new(&g);
    assert_eq!(csr.num_nodes(), g.num_nodes());
    for (v, list) in lists_of(&g).iter().enumerate() {
        let links: Vec<_> = csr
            .neighbors(v as u32)
            .iter()
            .map(|l| (l.to, l.delay))
            .collect();
        assert_eq!(links, *list, "node {v}");
        assert_eq!(csr.degree(v as u32) as usize, g.degree(NodeId(v as u32)));
    }
}

/// Every link's reverse slot points back at it: the slot a node
/// reached over `v → to` records names `v` and the same graph link.
#[test]
fn back_slots_name_the_reverse_link() {
    let mut g = powerlaw::generate(&PowerLawConfig::default(), 7);
    attach_hosts(&mut g, 20, 7, 0.0);
    let csr = Csr::new(&g);
    for v in g.nodes() {
        for (link, adj) in csr.neighbors(v.0).iter().zip(g.neighbors(v)) {
            assert_eq!(csr.pred(link.to, link.back), Some(v.0));
            assert_eq!(g.neighbors(adj.to)[usize::from(link.back)].edge, adj.edge);
        }
    }
}

/// A node must have fewer than `u16::MAX` links, or its slots would
/// collide with [`NO_PREV`].
#[test]
#[should_panic(expected = "does not fit a u16 predecessor slot")]
fn degree_beyond_the_slot_space_panics() {
    let links = (1..=u32::from(u16::MAX)).map(|to| Link {
        to,
        back: 0,
        delay: 1.0,
    });
    Csr::with_capacity(1, 0).push_node(links);
}

/// FNV-1a of `bytes`, started as the retired artifact cache's pin
/// hasher was (offset basis, then its version-2 salt as eight
/// little-endian bytes), so the pins below keep their recorded values.
fn fnv_pin(bytes: &[u8]) -> u64 {
    let salt = 0x7664_6d63_6163_6802u64.to_le_bytes();
    salt.iter()
        .chain(bytes)
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Little-endian `u64` length prefix, then the items.
fn put_prefixed<T: Copy, const N: usize>(out: &mut Vec<u8>, xs: &[T], le: fn(T) -> [u8; N]) {
    out.extend_from_slice(&(xs.len() as u64).to_le_bytes());
    for &x in xs {
        out.extend_from_slice(&le(x));
    }
}

/// The shortest-path kernel's output is bit-identical to the loop it
/// replaced. The constants hash the tables in the byte layout the
/// artifact cache stored them in, as the pre-kernel code (commit
/// e7d2e51) produced them for this graph — transit-stub plus hosts, so
/// a third of the nodes are the leaves the kernel treats specially.
/// That layout held `u32` predecessor ids; the kernel's slots are
/// decoded back to them before hashing.
#[test]
fn artifact_bytes_match_the_pre_kernel_build() {
    use crate::transit_stub::{self, TransitStubConfig};

    let mut g = transit_stub::generate(&TransitStubConfig::sized(96), 42);
    let hosts = attach_hosts(&mut g, 40, 42, 0.0);
    assert_eq!((g.num_nodes(), g.num_edges()), (160, 186));
    assert_eq!(leaves(&g), 56);

    let apsp = Apsp::build(&g);
    let mut bytes = (apsp.n as u64).to_le_bytes().to_vec();
    put_prefixed(&mut bytes, &apsp.dist, f64::to_le_bytes);
    put_prefixed(&mut bytes, &apsp.next, u32::to_le_bytes);
    assert_eq!(fnv_pin(&bytes), 0x2103_3b9c_b21b_3243);

    // One source's `(source, dist, prev, first)`, as the cache stored
    // the node-keyed rows the on-demand router used to keep.
    let csr = Csr::new(&g);
    let row_bytes = |source: NodeId| {
        let n = g.num_nodes();
        let (mut dist, mut prev, mut first) = (vec![0.0; n], vec![0; n], vec![0; n]);
        let mut queue = BucketQueue::default();
        sssp(&csr, source.0, &mut dist, &mut prev, &mut first, &mut queue);
        let prev = decode(&csr, &prev);
        let mut bytes = source.0.to_le_bytes().to_vec();
        put_prefixed(&mut bytes, &dist, f64::to_le_bytes);
        put_prefixed(&mut bytes, &prev, u32::to_le_bytes);
        put_prefixed(&mut bytes, &first, u32::to_le_bytes);
        bytes
    };
    assert_eq!(fnv_pin(&row_bytes(hosts[0])), 0xaf6d_2dce_c9b0_3bde);
    assert_eq!(fnv_pin(&row_bytes(NodeId(0))), 0x1107_03c3_c0de_eb68);
}
