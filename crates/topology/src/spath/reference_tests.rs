//! An independent reference for the shortest-path kernel.
//!
//! Dense-vs-on-demand agreement (`router::tests`, `tests/router_props.rs`)
//! compares the kernel with itself. The reference here is the textbook
//! loop this crate ran before the kernel existed — adjacency lists, a
//! heap ordered by `f64::partial_cmp` then node id, every node pushed,
//! first hops found by walking `prev` back from each target — and
//! `sssp`, [`RouteRow::compute`], [`Apsp::build`], [`HostRoutes::build`]
//! and [`dijkstra`] must match it bit for bit on every (source, target),
//! including on the graphs where the leaf skip, the relaxation-time
//! first hop and the (distance, id) pop order each decide the answer.
//! Every graph here also holds host rows (every node a host) to the
//! dense table's hop-by-hop route.
//!
//! It lives inside the crate because two of the cases — parallel links
//! and a zero-delay link — are not expressible as a [`Graph`]
//! (`add_edge` rejects both) and have to be handed to the kernel as raw
//! adjacency lists.

use super::*;
use crate::graph::{LinkAttrs, NodeKind};
use crate::powerlaw::{self, PowerLawConfig};
use crate::router::RouteRow;
use crate::transit_stub::attach_hosts;
use std::cmp::Ordering;

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

/// The kernel against the reference on raw adjacency lists, every
/// source; returns the reference rows for the callers that go on to
/// check the public entry points.
fn check_kernel(lists: &Lists) -> Vec<RefRow> {
    let n = lists.len();
    let mut csr = Csr::with_capacity(n, 0);
    for list in lists {
        csr.push_node(list.iter().copied());
    }
    let (mut dist, mut prev, mut first) = (vec![0.0; n], vec![0; n], vec![0; n]);
    let mut heap = Heap::new();
    (0..n as u32)
        .map(|s| {
            let want = reference(lists, s);
            sssp(&csr, s, &mut dist, &mut prev, &mut first, &mut heap);
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
/// every (source, target); [`HostRoutes`] with every node a host.
fn check_graph(g: &Graph) {
    let rows = check_kernel(&lists_of(g));
    let apsp = Apsp::build(g);
    let hosts = HostRoutes::build(g, g.nodes().collect());
    for s in g.nodes() {
        let want = &rows[s.idx()];
        let row = RouteRow::compute(g, s);
        let sp = dijkstra(g, s);
        assert_eq!(sp.source, s);
        for t in g.nodes() {
            let bits = want.dist[t.idx()].to_bits();
            let hop = want.first[t.idx()].map(NodeId);
            let path = if s == t { vec![s] } else { want.path(t.0) };

            assert_eq!(row.dist_ms(t).to_bits(), bits, "row dist {s}->{t}");
            assert_eq!(row.first_hop(t), hop, "row first hop {s}->{t}");
            assert_eq!(row.path_nodes(t), path, "row path {s}->{t}");

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
            let (a, b) = (s.idx(), t.idx());
            assert_eq!(hosts.dist_ms(a, b).to_bits(), bits, "host dist {s}->{t}");
            assert_eq!(hosts.path_nodes(a, b), path, "host path {s}->{t}");
            assert_eq!(hosts.path_nodes(a, b), hops, "host vs apsp path {s}->{t}");
        }
    }
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
}

/// Integer weights on a grid: many routes of equal length between most
/// pairs, so which one `prev` records is decided by the (distance, id)
/// pop order alone. Edges are inserted column-first and right-to-left so
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

/// The kernel's answers do not depend on the order of a node's
/// neighbours (relaxations out of one node are independent and heap
/// entries are totally ordered), so no comparison against the reference
/// can see a reordering; the CSR's order is pinned directly instead.
#[test]
fn csr_keeps_neighbor_order() {
    let mut g = powerlaw::generate(&PowerLawConfig::default(), 7);
    attach_hosts(&mut g, 20, 7, 0.0);
    let csr = Csr::new(&g);
    assert_eq!(csr.num_nodes(), g.num_nodes());
    for (v, list) in lists_of(&g).iter().enumerate() {
        assert_eq!(csr.neighbors(v as u32), &list[..], "node {v}");
        assert_eq!(csr.degree(v as u32) as usize, g.degree(NodeId(v as u32)));
    }
}
