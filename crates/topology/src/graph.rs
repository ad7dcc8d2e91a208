//! Compact undirected weighted graph with stable edge identifiers.
//!
//! The overlay metrics need to attribute traffic to individual *physical*
//! links (stress, Eq. 3.4), so every undirected edge gets a stable
//! [`EdgeId`] that routing and accounting code can index with.

use crate::Millis;

/// Index of a node in a [`Graph`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node index as a `usize`, for slice indexing.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Index of an undirected edge in a [`Graph`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// The edge index as a `usize`, for slice indexing.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Role of a node inside a generated topology.
///
/// The transit-stub generator marks routers as [`NodeKind::Transit`] or
/// [`NodeKind::Stub`]; end hosts attached afterwards are
/// [`NodeKind::Host`]. Flat generators mark everything `Stub`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum NodeKind {
    /// Backbone router inside a transit domain.
    Transit,
    /// Edge router inside a stub domain.
    #[default]
    Stub,
    /// End host (overlay-capable).
    Host,
}

/// Physical attributes of a link.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkAttrs {
    /// One-way propagation delay in milliseconds.
    pub delay_ms: Millis,
    /// Independent per-packet loss probability in `[0, 1)`.
    pub loss: f64,
    /// Transmission capacity, Mbit/s (used by the optional queueing
    /// data plane; ignored by the pure-latency model).
    pub bandwidth_mbps: f64,
}

impl LinkAttrs {
    /// Default link capacity when unspecified, Mbit/s.
    pub const DEFAULT_BANDWIDTH_MBPS: f64 = 100.0;

    /// Lossless link with the given one-way delay and default capacity.
    pub fn delay(delay_ms: Millis) -> Self {
        Self {
            delay_ms,
            loss: 0.0,
            bandwidth_mbps: Self::DEFAULT_BANDWIDTH_MBPS,
        }
    }

    /// Set the capacity.
    pub fn with_bandwidth(mut self, mbps: f64) -> Self {
        assert!(mbps > 0.0);
        self.bandwidth_mbps = mbps;
        self
    }
}

/// One stored undirected edge.
#[derive(Clone, Copy, Debug)]
pub struct Edge {
    /// First endpoint.
    pub a: NodeId,
    /// Second endpoint.
    pub b: NodeId,
    /// Physical attributes.
    pub attrs: LinkAttrs,
}

impl Edge {
    /// The endpoint opposite `from`, if `from` is one of the endpoints.
    pub fn other(&self, from: NodeId) -> Option<NodeId> {
        if self.a == from {
            Some(self.b)
        } else if self.b == from {
            Some(self.a)
        } else {
            None
        }
    }
}

/// Adjacency entry: neighbour plus the id of the connecting edge.
#[derive(Clone, Copy, Debug)]
pub struct Adj {
    /// Neighbouring node.
    pub to: NodeId,
    /// Edge connecting to that neighbour.
    pub edge: EdgeId,
}

/// An undirected weighted graph.
///
/// Node and edge ids are dense indexes assigned in insertion order, which
/// makes it cheap to keep per-node and per-link side tables (routing,
/// stress counters) as plain vectors.
#[derive(Clone, Debug, Default)]
pub struct Graph {
    kinds: Vec<NodeKind>,
    adj: Vec<Vec<Adj>>,
    edges: Vec<Edge>,
}

impl Graph {
    /// Empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Graph with `n` isolated nodes of the given kind.
    ///
    /// # Panics
    /// Panics when `n` exceeds the `u32` id space (see
    /// [`Graph::add_node`]).
    pub fn with_nodes(n: usize, kind: NodeKind) -> Self {
        u32::try_from(n).expect("graph node count exceeds u32 id space; split the underlay");
        Self {
            kinds: vec![kind; n],
            adj: vec![Vec::new(); n],
            edges: Vec::new(),
        }
    }

    /// Add a node and return its id.
    ///
    /// # Panics
    /// Panics with a clear message when the node count would exceed the
    /// `u32` id space (a silent `as u32` here would wrap and alias
    /// existing nodes on oversized underlays).
    pub fn add_node(&mut self, kind: NodeKind) -> NodeId {
        let id = NodeId(
            u32::try_from(self.kinds.len())
                .expect("graph node count exceeds u32 id space; split the underlay"),
        );
        self.kinds.push(kind);
        self.adj.push(Vec::new());
        id
    }

    /// Add an undirected edge; returns its id.
    ///
    /// # Panics
    /// Panics on self-loops, out-of-range endpoints, or a duplicate edge
    /// between the same pair (parallel physical links would make stress
    /// attribution ambiguous).
    pub fn add_edge(&mut self, a: NodeId, b: NodeId, attrs: LinkAttrs) -> EdgeId {
        assert!(a != b, "self-loop {a}");
        assert!(a.idx() < self.kinds.len() && b.idx() < self.kinds.len());
        assert!(
            self.find_edge(a, b).is_none(),
            "duplicate edge {a}-{b}; parallel links are not supported"
        );
        assert!(attrs.delay_ms > 0.0, "link delay must be positive");
        assert!((0.0..1.0).contains(&attrs.loss), "loss must be in [0,1)");
        let id = EdgeId(
            u32::try_from(self.edges.len())
                .expect("graph edge count exceeds u32 id space; split the underlay"),
        );
        self.edges.push(Edge { a, b, attrs });
        self.adj[a.idx()].push(Adj { to: b, edge: id });
        self.adj[b.idx()].push(Adj { to: a, edge: id });
        id
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.kinds.len()
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Kind of node `n`.
    pub fn kind(&self, n: NodeId) -> NodeKind {
        self.kinds[n.idx()]
    }

    /// All node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.kinds.len() as u32).map(NodeId)
    }

    /// Ids of all nodes of the given kind.
    pub fn nodes_of_kind(&self, kind: NodeKind) -> Vec<NodeId> {
        self.nodes().filter(|&n| self.kind(n) == kind).collect()
    }

    /// Adjacency list of `n`.
    pub fn neighbors(&self, n: NodeId) -> &[Adj] {
        &self.adj[n.idx()]
    }

    /// Degree of `n`.
    pub fn degree(&self, n: NodeId) -> usize {
        self.adj[n.idx()].len()
    }

    /// Edge data for `e`.
    pub fn edge(&self, e: EdgeId) -> &Edge {
        &self.edges[e.idx()]
    }

    /// All edges with their ids.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &Edge)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, e)| (EdgeId(i as u32), e))
    }

    /// Find the edge between `a` and `b`, if any.
    pub fn find_edge(&self, a: NodeId, b: NodeId) -> Option<EdgeId> {
        // Scan the smaller adjacency list.
        let (from, to) = if self.degree(a) <= self.degree(b) {
            (a, b)
        } else {
            (b, a)
        };
        self.adj[from.idx()]
            .iter()
            .find(|adj| adj.to == to)
            .map(|adj| adj.edge)
    }

    /// Whether every node can reach every other node.
    pub fn is_connected(&self) -> bool {
        let n = self.num_nodes();
        if n <= 1 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![NodeId(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for adj in self.neighbors(v) {
                if !seen[adj.to.idx()] {
                    seen[adj.to.idx()] = true;
                    count += 1;
                    stack.push(adj.to);
                }
            }
        }
        count == n
    }

    /// Sum of one-way delays over all edges (a crude size measure used by
    /// normalized resource-usage metrics).
    pub fn total_delay_ms(&self) -> Millis {
        self.edges.iter().map(|e| e.attrs.delay_ms).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> (Graph, [NodeId; 3]) {
        let mut g = Graph::new();
        let a = g.add_node(NodeKind::Stub);
        let b = g.add_node(NodeKind::Stub);
        let c = g.add_node(NodeKind::Host);
        g.add_edge(a, b, LinkAttrs::delay(1.0));
        g.add_edge(b, c, LinkAttrs::delay(2.0));
        g.add_edge(a, c, LinkAttrs::delay(3.0));
        (g, [a, b, c])
    }

    #[test]
    fn build_and_query() {
        let (g, [a, b, c]) = triangle();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(a), 2);
        assert_eq!(g.kind(c), NodeKind::Host);
        assert_eq!(g.nodes_of_kind(NodeKind::Host), vec![c]);
        let e = g.find_edge(a, c).unwrap();
        assert_eq!(g.edge(e).attrs.delay_ms, 3.0);
        assert_eq!(g.edge(e).other(a), Some(c));
        assert_eq!(g.edge(e).other(b), None);
        assert!(g.find_edge(b, a).is_some());
        assert!((g.total_delay_ms() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn connectivity() {
        let (mut g, _) = triangle();
        assert!(g.is_connected());
        let d = g.add_node(NodeKind::Stub);
        assert!(!g.is_connected());
        g.add_edge(d, NodeId(0), LinkAttrs::delay(1.0));
        assert!(g.is_connected());
        assert!(Graph::new().is_connected());
        assert!(Graph::with_nodes(1, NodeKind::Stub).is_connected());
    }

    #[test]
    #[should_panic(expected = "duplicate edge")]
    fn duplicate_edge_rejected() {
        let (mut g, [a, b, _]) = triangle();
        g.add_edge(b, a, LinkAttrs::delay(1.0));
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        let (mut g, [a, _, _]) = triangle();
        g.add_edge(a, a, LinkAttrs::delay(1.0));
    }

    #[test]
    #[should_panic(expected = "delay must be positive")]
    fn zero_delay_rejected() {
        let mut g = Graph::with_nodes(2, NodeKind::Stub);
        g.add_edge(NodeId(0), NodeId(1), LinkAttrs::delay(0.0));
    }
}
