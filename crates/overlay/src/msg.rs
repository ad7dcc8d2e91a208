//! Control and data messages exchanged between overlay peers.
//!
//! The set mirrors §5.2.2 of the paper ("Control Messages between
//! Nodes"): information request/response, connection request/response,
//! parent change, grandparent change, plus the leave notifications of
//! §3.3 and the stream itself. Ping/pong probes carry the RTT
//! measurements (the paper piggybacks a timestamp on the information
//! request; we keep probing explicit so that a joiner can probe many
//! children in parallel, which is what both VDM and HMTP do).

use crate::coords::CoordSample;
use crate::VDist;
use vdm_netsim::HostId;

/// A child entry as reported by a queried node: the paper's information
/// response "attaches children list with distances to them".
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChildEntry {
    /// The child peer.
    pub child: HostId,
    /// The queried node's stored virtual distance to that child.
    pub vdist: VDist,
}

/// One gossiped membership entry in a [`Msg::PeerList`]: a peer the
/// sender knows of, with how long ago the sender last heard of it.
/// Receivers back-date the entry by `age_s` before inserting it into
/// their own partial view, so staleness survives multi-hop gossip.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PeerEntry {
    /// The gossiped peer.
    pub host: HostId,
    /// Seconds since the sender last heard of that peer (0 for the
    /// sender's own live tree neighbours).
    pub age_s: f64,
    /// The peer's last gossiped virtual coordinate, when the sender
    /// knows one (coordinate embedding extension; always `None` when
    /// the embedding is off, keeping gossip byte-identical).
    pub coord: Option<CoordSample>,
}

/// How a joiner wants to connect.
#[derive(Clone, Debug, PartialEq)]
pub enum ConnKind {
    /// Plain Case-I/HMTP connection: become a child of the target
    /// (requires a free degree slot at the target).
    Child,
    /// VDM Case-II splice: become a child of the target *and* adopt the
    /// listed current children of the target (the joiner sits between
    /// them on the virtual line). Always admissible at the target, since
    /// it swaps children rather than adding one.
    Splice {
        /// Children of the target the joiner wants to adopt,
        /// closest-first.
        displace: Vec<HostId>,
    },
}

/// Outcome of a connection request.
#[derive(Clone, Debug, PartialEq)]
pub enum ConnResult {
    /// Connection established.
    Accepted {
        /// The new parent's own parent — the joiner's grandparent
        /// (recovery anchor, §3.3).
        grandparent: Option<HostId>,
        /// Children actually handed over for a splice (a subset of the
        /// requested `displace` — some may have left meanwhile).
        adopted: Vec<HostId>,
        /// The acceptor's root path (source..acceptor), only populated
        /// by protocols that maintain root paths (HMTP refinement
        /// needs it; VDM keeps this empty and cheap).
        root_path: Vec<HostId>,
    },
    /// Target is full; try this (closest, free) child of the target.
    Redirect {
        /// Suggested next target.
        next: HostId,
    },
    /// Target cannot help (e.g. it is leaving, or the request would
    /// create a loop).
    Rejected,
}

/// Messages between peers. `nonce` fields tie responses to requests and
/// make stale replies from earlier walk generations harmless.
#[derive(Clone, Debug, PartialEq)]
pub enum Msg {
    /// "Which children do you have, and who is your parent?" Also doubles
    /// as an RTT probe of the queried node (timed by the requester).
    InfoReq {
        /// Request id.
        nonce: u64,
    },
    /// Reply to [`Msg::InfoReq`].
    InfoResp {
        /// Echoed request id.
        nonce: u64,
        /// Children with stored virtual distances.
        children: Vec<ChildEntry>,
        /// The queried node's parent (used by diagnostics and BTP).
        parent: Option<HostId>,
        /// The responder's virtual coordinate + error (coordinate
        /// embedding extension; `None` when the embedding is off).
        /// Boxed, so the 48-byte sample does not size every message.
        coord: Option<Box<CoordSample>>,
    },
    /// RTT probe.
    Ping {
        /// Probe id.
        nonce: u64,
    },
    /// RTT probe reply.
    Pong {
        /// Echoed probe id.
        nonce: u64,
        /// The responder's virtual coordinate + error (coordinate
        /// embedding extension; `None` when the embedding is off).
        /// Inline: with only a nonce beside it, it fits the 64 bytes.
        coord: Option<CoordSample>,
    },
    /// Ask to connect.
    ConnReq {
        /// Request id.
        nonce: u64,
        /// Connection type.
        kind: ConnKind,
        /// The joiner's measured virtual distance to the target, which
        /// the target stores as its distance to the new child.
        vdist: VDist,
        /// The joiner's virtual coordinate + error (coordinate
        /// embedding extension; `None` when the embedding is off).
        /// Boxed, as in [`Msg::InfoResp`].
        coord: Option<Box<CoordSample>>,
    },
    /// Reply to [`Msg::ConnReq`].
    ConnResp {
        /// Echoed request id.
        nonce: u64,
        /// Outcome.
        result: ConnResult,
    },
    /// Splice notification from a new parent to an adopted child: "your
    /// parent is now me". Carries the child's new grandparent for the
    /// child to validate against (it must equal the child's old parent,
    /// which guards against stale splices).
    ParentChange {
        /// The child's new grandparent (the new parent's parent).
        new_grandparent: Option<HostId>,
        /// Sender-side generation stamp, monotone per sender
        /// incarnation. Receivers drop duplicated copies and stale
        /// reordered splices by comparing against the highest stamp
        /// seen from that sender, so the fault layer's duplication and
        /// reordering cannot corrupt parent/child state.
        gen: u64,
    },
    /// A node's parent changed; it tells its children their grandparent.
    GrandparentChange {
        /// The children's new grandparent.
        new_grandparent: HostId,
    },
    /// Root-path maintenance (only sent by protocols that keep root
    /// paths): the sender's path `source..=sender`.
    RootPath {
        /// Path from the source down to and including the sender.
        path: Vec<HostId>,
    },
    /// Liveness beacon from a child to its parent (ungraceful-failure
    /// extension): parents prune children that fall silent, so crashed
    /// peers do not leak degree slots.
    Heartbeat,
    /// Parent is leaving; receivers are orphaned and must reconnect
    /// (starting at their grandparent, §3.3).
    Leave,
    /// Child is leaving (or switching away); parent frees the slot.
    ChildLeave,
    /// Ancestor gossip (proactive-resilience extension): a parent tells
    /// its children its own current ancestor list, nearest-first and
    /// *excluding itself* (each child prepends the sender). Orphans use
    /// the list as pre-validated walk anchors when their grandparent is
    /// dead too.
    AncestorList {
        /// The sender's ancestors, nearest-first (parent, grandparent,
        /// ...), truncated to the configured depth.
        ancestors: Vec<HostId>,
    },
    /// Negative acknowledgement (gap-repair extension): a child asks its
    /// parent to retransmit the listed stream chunks out of its
    /// retransmit ring.
    Nack {
        /// Missing chunk sequence numbers, ascending.
        seqs: Vec<u64>,
    },
    /// One stream chunk.
    Data {
        /// Monotonically increasing sequence number assigned by the
        /// source.
        seq: u64,
    },
    /// Cross-tree NACK (multi-tree extension): a receiver cut off from
    /// one stripe tree asks a parent of the *sibling* tree that owns
    /// the stripe to retransmit the listed chunks out of its ring.
    CrossNack {
        /// Missing chunk sequence numbers, ascending; every one must
        /// satisfy the receiver's stripe residue.
        seqs: Vec<u64>,
    },
    /// Retransmission answering a [`Msg::CrossNack`] (token-bucket
    /// bounded at the server). Distinct from [`Msg::Data`] so the
    /// receiver does not mistake a sibling-tree server for its parent.
    CrossData {
        /// Retransmitted chunk sequence number.
        seq: u64,
    },
    /// Bootstrap-discovery probe: "who do you know?" Doubles as a
    /// liveness check of the target — an answered `PeerReq` proves the
    /// responder is alive and makes it a usable walk anchor.
    PeerReq {
        /// Request id.
        nonce: u64,
    },
    /// Reply to [`Msg::PeerReq`]: a bounded sample of the responder's
    /// membership knowledge (live tree neighbours first, then its
    /// gossiped partial view with ages). Responders shed these under a
    /// token-bucket serving budget, so a flash crowd cannot amplify
    /// through a cold seed.
    PeerList {
        /// Echoed request id.
        nonce: u64,
        /// Gossiped peers, most trustworthy first.
        peers: Vec<PeerEntry>,
    },
}

impl Msg {
    /// True for stream payload, false for maintenance traffic (the
    /// paper's overhead metric, Eq. 3.6, is the ratio of the two).
    pub fn is_data(&self) -> bool {
        matches!(self, Msg::Data { .. } | Msg::CrossData { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every queued engine event and every daemon output carries one
    /// `Msg` inline, so its size is paid per message in flight. The
    /// 48-byte coordinate samples of `InfoResp` and `ConnReq` are
    /// boxed; an inline one breaks this bound.
    #[test]
    fn messages_fit_64_bytes() {
        assert!(std::mem::size_of::<Msg>() <= 64);
    }

    #[test]
    fn data_classification() {
        assert!(Msg::Data { seq: 0 }.is_data());
        assert!(Msg::CrossData { seq: 0 }.is_data());
        assert!(!Msg::CrossNack { seqs: vec![1] }.is_data());
        assert!(!Msg::Ping { nonce: 1 }.is_data());
        assert!(!Msg::PeerReq { nonce: 1 }.is_data());
        assert!(!Msg::PeerList {
            nonce: 1,
            peers: vec![PeerEntry {
                host: HostId(2),
                age_s: 0.0,
                coord: None
            }]
        }
        .is_data());
        assert!(!Msg::Leave.is_data());
        assert!(!Msg::ConnReq {
            nonce: 0,
            kind: ConnKind::Child,
            vdist: 1.0,
            coord: None
        }
        .is_data());
    }

    #[test]
    fn splice_carries_displaced_children() {
        let k = ConnKind::Splice {
            displace: vec![HostId(3), HostId(5)],
        };
        match k {
            ConnKind::Splice { displace } => assert_eq!(displace.len(), 2),
            _ => unreachable!(),
        }
    }
}
