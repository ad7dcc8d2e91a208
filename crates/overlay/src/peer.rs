//! Per-peer tree bookkeeping.
//!
//! "Nodes store some state information to cope with the protocol. Each
//! node has children list and distances to them. They also know their
//! parent and grandparent." (§3.2) — [`PeerState`] is exactly that
//! state, plus the degree limit and an optional root path for protocols
//! that maintain one (HMTP).

use crate::VDist;
use vdm_netsim::HostId;

/// Local tree state of one peer.
#[derive(Clone, Debug)]
pub struct PeerState {
    /// This peer.
    pub host: HostId,
    /// Whether this peer is the stream source (root; never joins).
    pub is_source: bool,
    /// Maximum number of children (out-degree limit; ≥ 1 per §3.2).
    pub degree_limit: u32,
    /// Current parent (None for the source and for unconnected peers).
    pub parent: Option<HostId>,
    /// Measured virtual distance to the parent, when known (set by the
    /// join walk; splices leave it unknown). Used as the refinement
    /// improvement baseline.
    pub parent_dist: Option<VDist>,
    /// Parent's parent — the §3.3 recovery anchor.
    pub grandparent: Option<HostId>,
    /// Children with the stored virtual distance to each.
    pub children: Vec<(HostId, VDist)>,
    /// Path `source..=parent` if the protocol maintains root paths;
    /// empty otherwise.
    pub root_path: Vec<HostId>,
    /// Highest stream sequence number accepted so far (playout
    /// watermark; duplicates and late packets are dropped).
    pub last_seq: Option<u64>,
}

impl PeerState {
    /// Fresh, unconnected peer.
    pub fn new(host: HostId, degree_limit: u32, is_source: bool) -> Self {
        assert!(degree_limit >= 1, "degree limit must be at least one");
        Self {
            host,
            is_source,
            degree_limit,
            parent: None,
            parent_dist: None,
            grandparent: None,
            children: Vec::new(),
            root_path: Vec::new(),
            last_seq: None,
        }
    }

    /// Is this peer attached to the tree (the source always is)?
    pub fn connected(&self) -> bool {
        self.is_source || self.parent.is_some()
    }

    /// Remaining child slots.
    pub fn free_degree(&self) -> u32 {
        self.degree_limit.saturating_sub(self.children.len() as u32)
    }

    /// Stored distance to a child, if it is one.
    pub fn child_dist(&self, c: HostId) -> Option<VDist> {
        self.children.iter().find(|(h, _)| *h == c).map(|(_, d)| *d)
    }

    /// Whether `c` is currently a child.
    pub fn has_child(&self, c: HostId) -> bool {
        self.child_dist(c).is_some()
    }

    /// Add (or re-distance) a child.
    ///
    /// # Panics
    /// Panics if adding a *new* child would exceed the degree limit or
    /// if `c` is the peer itself.
    pub fn add_child(&mut self, c: HostId, vdist: VDist) {
        assert!(c != self.host, "cannot parent itself");
        if let Some(slot) = self.children.iter_mut().find(|(h, _)| *h == c) {
            slot.1 = vdist;
            return;
        }
        assert!(
            self.free_degree() > 0,
            "degree limit exceeded at {}",
            self.host
        );
        self.children.push((c, vdist));
    }

    /// Remove a child if present; returns whether it was one.
    pub fn remove_child(&mut self, c: HostId) -> bool {
        let before = self.children.len();
        self.children.retain(|(h, _)| *h != c);
        self.children.len() != before
    }

    /// The child with the smallest stored distance, optionally requiring
    /// a predicate (e.g. "has free degree" is not locally knowable, so
    /// callers filter by exclusion lists instead).
    pub fn closest_child(&self, exclude: &[HostId]) -> Option<(HostId, VDist)> {
        self.children
            .iter()
            .filter(|(h, _)| !exclude.contains(h))
            .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
            .copied()
    }

    /// Accept a stream chunk: returns `true` if `seq` advances the
    /// playout watermark (i.e. the chunk counts as received and should
    /// be forwarded), `false` for duplicates/stale chunks.
    pub fn accept_seq(&mut self, seq: u64) -> bool {
        match self.last_seq {
            Some(last) if seq <= last => false,
            _ => {
                self.last_seq = Some(seq);
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degree_accounting() {
        let mut p = PeerState::new(HostId(1), 2, false);
        assert_eq!(p.free_degree(), 2);
        p.add_child(HostId(2), 5.0);
        p.add_child(HostId(3), 3.0);
        assert_eq!(p.free_degree(), 0);
        // Re-distancing an existing child is fine even when full.
        p.add_child(HostId(2), 4.0);
        assert_eq!(p.child_dist(HostId(2)), Some(4.0));
        assert!(p.remove_child(HostId(2)));
        assert!(!p.remove_child(HostId(2)));
        assert_eq!(p.free_degree(), 1);
    }

    #[test]
    #[should_panic(expected = "degree limit exceeded")]
    fn over_degree_panics() {
        let mut p = PeerState::new(HostId(1), 1, false);
        p.add_child(HostId(2), 1.0);
        p.add_child(HostId(3), 1.0);
    }

    #[test]
    fn closest_child_with_exclusions() {
        let mut p = PeerState::new(HostId(0), 4, true);
        p.add_child(HostId(1), 5.0);
        p.add_child(HostId(2), 2.0);
        p.add_child(HostId(3), 8.0);
        assert_eq!(p.closest_child(&[]), Some((HostId(2), 2.0)));
        assert_eq!(p.closest_child(&[HostId(2)]), Some((HostId(1), 5.0)));
        assert_eq!(p.closest_child(&[HostId(1), HostId(2), HostId(3)]), None);
    }

    #[test]
    fn seq_watermark() {
        let mut p = PeerState::new(HostId(1), 1, false);
        assert!(p.accept_seq(5));
        assert!(!p.accept_seq(5));
        assert!(!p.accept_seq(3));
        assert!(p.accept_seq(6));
    }

    #[test]
    fn connected_logic() {
        let mut p = PeerState::new(HostId(1), 1, false);
        assert!(!p.connected());
        p.parent = Some(HostId(0));
        assert!(p.connected());
        let s = PeerState::new(HostId(0), 3, true);
        assert!(s.connected());
    }
}
