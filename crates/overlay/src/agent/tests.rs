//! Membership-core tests: the query answers, the three connection
//! cases, splices, leaves, the data plane and the join walk, driven
//! through the engine-free [`Rig`].

use super::testkit::Rig;
use super::*;
use crate::msg::{ChildEntry, ConnKind, ConnResult};
use crate::walk::WalkConfig;

/// Deliver a message, then let 300 ms pass so the timers it armed fire.
fn inject(w: &mut Rig, from: HostId, msg: Msg) {
    w.deliver(from, msg);
    w.run_for(SimTime::from_ms(300.0));
}

fn conn_req(nonce: u64, vdist: VDist) -> Msg {
    Msg::ConnReq {
        nonce,
        kind: ConnKind::Child,
        vdist,
        coord: None,
    }
}

fn rejected(nonce: u64) -> Vec<Msg> {
    vec![Msg::ConnResp {
        nonce,
        result: ConnResult::Rejected,
    }]
}

/// Wire host 0 up as: parent 1, grandparent 2, child 3 (dist 4.0).
fn connected_agent() -> Rig {
    let mut w = Rig::new(AgentConfig::default());
    w.agent.state.parent = Some(HostId(1));
    w.agent.state.grandparent = Some(HostId(2));
    w.agent.state.parent_dist = Some(10.0);
    w.agent.state.add_child(HostId(3), 4.0);
    w
}

/// A join command run long enough for the walk's first InfoReq; returns
/// its nonce.
fn join_and_take_info_req(w: &mut Rig) -> u64 {
    w.with_ctx(|a, ctx| a.on_join_cmd(ctx));
    w.run_for(SimTime::from_ms(50.0));
    let info = w.take_to(HostId(7));
    let Some(&Msg::InfoReq { nonce }) = info.first() else {
        panic!("expected InfoReq, got {info:?}");
    };
    nonce
}

#[test]
fn info_req_reports_children_and_parent() {
    let mut w = connected_agent();
    inject(&mut w, HostId(5), Msg::InfoReq { nonce: 9 });
    assert_eq!(
        w.take_to(HostId(5)),
        vec![Msg::InfoResp {
            nonce: 9,
            children: vec![ChildEntry {
                child: HostId(3),
                vdist: 4.0
            }],
            parent: Some(HostId(1)),
            coord: None,
        }]
    );
}

#[test]
fn ping_pong() {
    let mut w = connected_agent();
    inject(&mut w, HostId(4), Msg::Ping { nonce: 3 });
    assert_eq!(
        w.take_to(HostId(4)),
        vec![Msg::Pong {
            nonce: 3,
            coord: None
        }]
    );
}

#[test]
fn conn_req_accepts_until_full_then_redirects() {
    let mut w = connected_agent();
    // One slot free (limit 2, child 3 present): accept host 5.
    inject(&mut w, HostId(5), conn_req(1, 6.0));
    let sent = w.take_to(HostId(5));
    assert!(matches!(
        &sent[0],
        Msg::ConnResp {
            nonce: 1,
            result: ConnResult::Accepted { grandparent: Some(p), .. }
        } if *p == HostId(1)
    ));
    assert!(w.agent.state.has_child(HostId(5)));
    // Now full: host 6 gets redirected to the closest child (3).
    inject(&mut w, HostId(6), conn_req(2, 8.0));
    assert_eq!(
        w.take_to(HostId(6)),
        vec![Msg::ConnResp {
            nonce: 2,
            result: ConnResult::Redirect { next: HostId(3) }
        }]
    );
}

#[test]
fn unconnected_peers_reject_conn_requests() {
    let mut w = Rig::new(AgentConfig::default());
    inject(&mut w, HostId(5), conn_req(7, 1.0));
    assert_eq!(w.take_to(HostId(5)), rejected(7));
}

#[test]
fn splice_swaps_children_even_when_full() {
    let mut w = connected_agent();
    w.agent.state.add_child(HostId(4), 9.0); // now full (limit 2)
    inject(
        &mut w,
        HostId(5),
        Msg::ConnReq {
            nonce: 1,
            kind: ConnKind::Splice {
                displace: vec![HostId(3), HostId(6)], // 6 is not ours
            },
            vdist: 2.0,
            coord: None,
        },
    );
    let sent = w.take_to(HostId(5));
    match &sent[0] {
        Msg::ConnResp {
            result: ConnResult::Accepted { adopted, .. },
            ..
        } => assert_eq!(adopted, &vec![HostId(3)]),
        other => panic!("unexpected {other:?}"),
    }
    assert!(!w.agent.state.has_child(HostId(3)));
    assert!(w.agent.state.has_child(HostId(5)));
    assert!(w.agent.state.has_child(HostId(4)));
}

#[test]
fn parent_change_validates_grandparent() {
    let mut w = connected_agent();
    // Valid splice: claimed grandparent equals our current parent.
    let splice = |new_grandparent, gen| Msg::ParentChange {
        new_grandparent: Some(HostId(new_grandparent)),
        gen,
    };
    inject(&mut w, HostId(6), splice(1, 1));
    assert_eq!(w.agent.state.parent, Some(HostId(6)));
    assert_eq!(w.agent.state.grandparent, Some(HostId(1)));
    // Our child was told about its new grandparent.
    assert!(w.take_to(HostId(3)).contains(&Msg::GrandparentChange {
        new_grandparent: HostId(6)
    }));
    // Stale splice: claimed grandparent no longer matches -> refuse.
    inject(&mut w, HostId(4), splice(9, 1));
    assert_eq!(w.agent.state.parent, Some(HostId(6)));
    assert_eq!(w.take_to(HostId(4)), vec![Msg::ChildLeave]);
}

/// A duplicated ParentChange must not make the child ChildLeave its
/// own (new) parent: the second copy carries the same stamp and is
/// dropped.
#[test]
fn duplicated_parent_change_is_idempotent() {
    let mut w = connected_agent();
    let splice = Msg::ParentChange {
        new_grandparent: Some(HostId(1)),
        gen: 7,
    };
    inject(&mut w, HostId(6), splice.clone());
    assert_eq!(w.agent.state.parent, Some(HostId(6)));
    let _ = w.take_to(HostId(3));
    // The duplicate: no state change, and crucially no ChildLeave to
    // host 6.
    inject(&mut w, HostId(6), splice);
    assert_eq!(w.agent.state.parent, Some(HostId(6)));
    assert!(w.take_to(HostId(6)).is_empty());
    // A stale lower-stamped splice from the same sender is dropped too.
    inject(
        &mut w,
        HostId(6),
        Msg::ParentChange {
            new_grandparent: Some(HostId(9)),
            gen: 3,
        },
    );
    assert_eq!(w.agent.state.parent, Some(HostId(6)));
    assert!(w.take_to(HostId(6)).is_empty());
}

/// A node with an active walk must reject connection requests:
/// accepting while adopting elsewhere is how two refining siblings
/// close a 2-cycle.
#[test]
fn walking_node_rejects_conn_requests() {
    let mut w = connected_agent();
    w.with_ctx(|a, ctx| a.start_walk(ctx, WalkPurpose::Refine, HostId(7)));
    inject(&mut w, HostId(5), conn_req(4, 1.0));
    assert_eq!(w.take_to(HostId(5)), rejected(4));
}

/// Our own parent asking to become our child is a cycle outright.
#[test]
fn conn_request_from_own_parent_is_rejected() {
    let mut w = connected_agent();
    inject(&mut w, HostId(1), conn_req(4, 1.0));
    assert_eq!(w.take_to(HostId(1)), rejected(4));
    assert!(!w.agent.state.has_child(HostId(1)));
}

#[test]
fn ancestors_are_rejected_when_root_paths_are_on() {
    let mut w = Rig::new(AgentConfig {
        maintain_root_path: true,
        ..AgentConfig::default()
    });
    w.agent.state.parent = Some(HostId(1));
    w.agent.state.root_path = vec![HostId(7), HostId(2), HostId(1)];
    // Host 2 is our ancestor: accepting it as a child would loop.
    inject(&mut w, HostId(2), conn_req(5, 1.0));
    assert_eq!(w.take_to(HostId(2)), rejected(5));
}

#[test]
fn leave_from_parent_triggers_grandparent_walk() {
    let mut w = connected_agent();
    w.deliver(HostId(1), Msg::Leave);
    assert_eq!(w.agent.state.parent, None);
    assert!(w.agent.walk.is_some());
    // The reconnection walk starts at the grandparent (host 2).
    w.run_for(SimTime::from_ms(20.0));
    assert!(
        w.take_to(HostId(2))
            .iter()
            .any(|m| matches!(m, Msg::InfoReq { .. })),
        "expected an InfoReq at the grandparent"
    );
}

#[test]
fn leave_from_non_parent_is_ignored() {
    let mut w = connected_agent();
    inject(&mut w, HostId(4), Msg::Leave);
    assert_eq!(w.agent.state.parent, Some(HostId(1)));
    assert!(w.agent.walk.is_none());
}

#[test]
fn data_only_accepted_from_parent_and_forwarded() {
    let mut w = connected_agent();
    // From a stranger: dropped.
    inject(&mut w, HostId(4), Msg::Data { seq: 1 });
    assert!(w.take_to(HostId(3)).is_empty());
    // From the parent: accepted and forwarded to the child.
    inject(&mut w, HostId(1), Msg::Data { seq: 2 });
    assert_eq!(w.take_to(HostId(3)), vec![Msg::Data { seq: 2 }]);
    // Duplicate: dropped.
    inject(&mut w, HostId(1), Msg::Data { seq: 2 });
    assert!(w.take_to(HostId(3)).is_empty());
}

#[test]
fn heartbeat_from_unknown_child_gets_a_leave() {
    let mut w = connected_agent();
    inject(&mut w, HostId(6), Msg::Heartbeat);
    assert_eq!(w.take_to(HostId(6)), vec![Msg::Leave]);
    // From a real child: silently noted.
    inject(&mut w, HostId(3), Msg::Heartbeat);
    assert!(w.take_to(HostId(3)).is_empty());
}

#[test]
fn root_path_propagates_when_maintained() {
    let mut w = Rig::new(AgentConfig {
        maintain_root_path: true,
        ..AgentConfig::default()
    });
    w.agent.state.parent = Some(HostId(1));
    w.agent.state.add_child(HostId(3), 4.0);
    inject(
        &mut w,
        HostId(1),
        Msg::RootPath {
            path: vec![HostId(7), HostId(1)],
        },
    );
    assert_eq!(w.agent.state.root_path, vec![HostId(7), HostId(1)]);
    assert_eq!(
        w.take_to(HostId(3)),
        vec![Msg::RootPath {
            path: vec![HostId(7), HostId(1), HostId(0)]
        }]
    );
}

/// Drive a full join handshake by scripting the remote side from the
/// recorded sends (source = host 7).
#[test]
fn scripted_join_walk_completes() {
    let mut w = Rig::new(AgentConfig::default());
    let nonce = join_and_take_info_req(&mut w);
    // Source answers: one child (host 3, distance 12).
    inject(
        &mut w,
        HostId(7),
        Msg::InfoResp {
            nonce,
            children: vec![ChildEntry {
                child: HostId(3),
                vdist: 12.0,
            }],
            parent: None,
            coord: None,
        },
    );
    // The walk pings the child.
    let ping = w.take_to(HostId(3));
    let Some(&Msg::Ping { nonce }) = ping.first() else {
        panic!("expected Ping, got {ping:?}");
    };
    inject(&mut w, HostId(3), Msg::Pong { nonce, coord: None });
    // Policy (Attach) fires a ConnReq at the source.
    let conn = w.take_to(HostId(7));
    let Some(Msg::ConnReq { nonce, kind, .. }) = conn.first() else {
        panic!("expected ConnReq, got {conn:?}");
    };
    assert_eq!(*kind, ConnKind::Child);
    inject(
        &mut w,
        HostId(7),
        Msg::ConnResp {
            nonce: *nonce,
            result: ConnResult::Accepted {
                grandparent: None,
                adopted: vec![],
                root_path: vec![],
            },
        },
    );
    assert_eq!(w.agent.state.parent, Some(HostId(7)));
    assert!(w.agent.walk.is_none());
    assert_eq!(w.stats.startup_s.len(), 1, "the join recorded its startup");
}

/// No one ever answers: the walk must retry, restart at the fallback,
/// and eventually give up (scheduling a later retry) without wedging
/// the agent.
#[test]
fn silent_network_exhausts_walk_restarts() {
    let mut w = Rig::new(AgentConfig {
        walk: WalkConfig {
            timeout: SimTime::from_ms(500.0),
            info_retries: 1,
            max_restarts: 2,
            ..WalkConfig::default()
        },
        ..AgentConfig::default()
    });
    w.with_ctx(|a, ctx| a.on_join_cmd(ctx));
    // Run long enough for all timeouts to fire.
    w.run_for(SimTime::from_secs(20));
    let info_reqs = w
        .take_to(HostId(7))
        .into_iter()
        .filter(|m| matches!(m, Msg::InfoReq { .. }))
        .count();
    // initial + 1 retry, then per restart (2) another 2 each, and the
    // scheduled RETRY walks add more: at least 4 attempts.
    assert!(info_reqs >= 4, "only {info_reqs} info requests");
    assert!(!w.agent.state.connected());
    assert!(w.agent.state.parent.is_none());
}

/// Probe timeouts exclude silent children instead of stalling: source
/// answers with two children, only one pongs.
#[test]
fn silent_children_are_excluded_from_the_decision() {
    let mut w = Rig::new(AgentConfig::default());
    let nonce = join_and_take_info_req(&mut w);
    let child = |c, vdist| ChildEntry {
        child: HostId(c),
        vdist,
    };
    inject(
        &mut w,
        HostId(7),
        Msg::InfoResp {
            nonce,
            children: vec![child(3, 5.0), child(4, 6.0)],
            parent: None,
            coord: None,
        },
    );
    // Only child 3 pongs; child 4 stays silent.
    let pings3 = w.take_to(HostId(3));
    let Some(&Msg::Ping { nonce }) = pings3.first() else {
        panic!("expected Ping to h3");
    };
    let _ = w.take_to(HostId(4));
    inject(&mut w, HostId(3), Msg::Pong { nonce, coord: None });
    // Let the probe deadline fire; the walk proceeds with child 3 only
    // and (policy = Attach) sends a ConnReq to the source.
    w.run_for(SimTime::from_secs(5));
    let conn = w
        .take_to(HostId(7))
        .into_iter()
        .filter(|m| matches!(m, Msg::ConnReq { .. }))
        .count();
    assert!(conn > 0, "walk stalled on the silent child");
}
