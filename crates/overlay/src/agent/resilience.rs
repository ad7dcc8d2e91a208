//! Proactive resilience (Singh & Singh's backup paths): the ancestor
//! list gossiped down the tree, the ranked backup-parent candidates
//! harvested from walk probes, and the direct failover an orphan runs
//! through them before it falls back to the §3.3 grandparent walk.

use super::piggyback::Piggyback;
use super::{next_stamp, record_reconnect, Ctx, ProtocolAgent};
use crate::coords::CoordSample;
use crate::msg::{ConnKind, ConnResult, Msg};
use crate::peer::PeerState;
use crate::walk::WalkPolicy;
use crate::VDist;
use std::collections::VecDeque;
use vdm_netsim::{HostId, SimTime};

/// Timer-token namespace bit for failover attempt deadlines (the low
/// bits carry the attempt nonce, which stays far below this bit).
pub const FAILOVER_TOKEN_BIT: u64 = 1 << 56;

/// Ancestors retained (root-path suffix, nearest-first).
const MAX_ANCESTORS: usize = 4;
/// Backup-parent candidates retained (cheapest-first).
const MAX_CANDIDATES: usize = 3;
/// Candidates unprobed for longer than this are dropped.
const CANDIDATE_TTL: SimTime = SimTime(180_000_000);
/// Per-attempt deadline of a direct failover connection request.
const FAILOVER_TIMEOUT: SimTime = SimTime(2_000_000);
/// Direct attempts before giving up and walking.
const MAX_ATTEMPTS: usize = 3;

/// Proactive-resilience settings: the ancestor list gossiped down the
/// tree (`MAX_ANCESTORS` deep) and the ranked backup-parent candidate
/// set harvested from walk probes (`MAX_CANDIDATES`, fresh for
/// `CANDIDATE_TTL`). An orphan first tries up to `MAX_ATTEMPTS`
/// direct connection requests at its candidates/ancestors, each with a
/// `FAILOVER_TIMEOUT` deadline, and only falls back to the §3.3
/// grandparent walk when all of them are dead, full, or exhausted.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ResilienceConfig {
    /// Order failover targets by virtual-coordinate distance instead of
    /// measured-vdist-then-ancestor order (coordinate-embedding
    /// extension; only effective when the agent runs an embedding).
    pub coord_ranked: bool,
}

/// One ranked backup-parent candidate.
#[derive(Clone, Copy, Debug)]
struct Candidate {
    host: HostId,
    vdist: VDist,
    /// When the walk last measured this peer (freshness stamp).
    seen_at: SimTime,
}

/// An in-progress direct failover: one connection request in flight at
/// `target`, remaining targets queued behind it.
#[derive(Clone, Debug)]
struct Failover {
    /// Remaining targets as `(host, measured_vdist)`; unmeasured
    /// ancestors carry `VDist::INFINITY`.
    targets: VecDeque<(HostId, VDist)>,
    /// Host of the in-flight request.
    target: HostId,
    /// Nonce of the in-flight request (ties the response and the
    /// deadline timer to this attempt).
    nonce: u64,
    /// Measured distance of the in-flight request.
    pending_vdist: VDist,
    /// Attempts fired so far.
    attempts: usize,
}

pub(super) struct Resilience {
    cfg: ResilienceConfig,
    /// Nearest-first ancestor anchors.
    ancestors: Vec<HostId>,
    /// Ranked backup-parent candidates, cheapest first.
    candidates: Vec<Candidate>,
    /// In-progress direct failover (mutually exclusive with a walk).
    failover: Option<Failover>,
}

impl Resilience {
    pub(super) fn new(cfg: ResilienceConfig) -> Self {
        Self {
            cfg,
            ancestors: Vec::new(),
            candidates: Vec::new(),
            failover: None,
        }
    }

    /// Must `from` not become our child? True while a failover attempt
    /// is in flight and for our known ancestors.
    pub(super) fn refuses(&self, from: HostId) -> bool {
        self.failover.is_some() || self.ancestors.contains(&from)
    }

    /// The in-flight attempt's `(nonce, target)`, while failing over.
    pub(super) fn in_flight(&self) -> Option<(u64, HostId)> {
        self.failover.as_ref().map(|f| (f.nonce, f.target))
    }

    /// Where a retry walk anchors: deeper into the ancestor list as the
    /// fail streak grows, so a dead grandparent stops costing a full
    /// walk timeout on every retry.
    pub(super) fn retry_anchor(&self, fail_streak: u32) -> Option<HostId> {
        let last = self.ancestors.len().checked_sub(1)?;
        Some(self.ancestors[(fail_streak as usize).min(last)])
    }

    /// Replace the ancestor list (nearest-first), dedup and truncate it,
    /// and gossip a change down to all children.
    pub(super) fn set_ancestors(
        &mut self,
        ctx: &mut Ctx<'_>,
        state: &PeerState,
        proposal: impl IntoIterator<Item = HostId>,
    ) {
        let mut list: Vec<HostId> = Vec::new();
        for h in proposal {
            if h != state.host && !list.contains(&h) {
                list.push(h);
            }
        }
        list.truncate(MAX_ANCESTORS);
        if list == self.ancestors {
            return;
        }
        self.ancestors = list;
        for &(c, _) in &state.children {
            self.gossip_to(ctx, c);
        }
    }

    /// A splicer slotted in directly above us.
    pub(super) fn prepend(&mut self, ctx: &mut Ctx<'_>, state: &PeerState, parent: HostId) {
        let tail = self.ancestors.clone();
        self.set_ancestors(ctx, state, std::iter::once(parent).chain(tail));
    }

    /// We attached to `parent`: it cannot be its own backup, and it and
    /// `grandparent` head the ancestor list.
    pub(super) fn adopted(
        &mut self,
        ctx: &mut Ctx<'_>,
        state: &PeerState,
        parent: HostId,
        grandparent: Option<HostId>,
    ) {
        self.candidates.retain(|c| c.host != parent);
        self.set_ancestors(ctx, state, std::iter::once(parent).chain(grandparent));
    }

    /// Send our current ancestor list to one child.
    pub(super) fn gossip_to(&self, ctx: &mut Ctx<'_>, child: HostId) {
        let ancestors = self.ancestors.clone();
        ctx.send(child, Msg::AncestorList { ancestors });
    }

    /// Fold a walk's probe measurements into the ranked candidate set
    /// (cheapest-first, freshness-stamped, bounded).
    pub(super) fn merge_candidates(
        &mut self,
        me: HostId,
        harvest: &[(HostId, VDist)],
        now: SimTime,
    ) {
        for &(host, vdist) in harvest.iter().filter(|&&(h, _)| h != me) {
            let fresh = Candidate {
                host,
                vdist,
                seen_at: now,
            };
            match self.candidates.iter_mut().find(|c| c.host == host) {
                Some(c) => *c = fresh,
                None => self.candidates.push(fresh),
            }
        }
        self.candidates
            .retain(|c| now.saturating_sub(c.seen_at) <= CANDIDATE_TTL);
        self.candidates
            .sort_by(|a, b| a.vdist.total_cmp(&b.vdist).then(a.host.cmp(&b.host)));
        self.candidates.truncate(MAX_CANDIDATES);
    }

    /// Assemble the failover target list (fresh candidates cheapest
    /// first, then unmeasured ancestors nearest first, optionally
    /// re-ranked by predicted coordinate distance) and fire the first
    /// direct connection request. Returns whether an attempt is now in
    /// flight; `false` means the caller should walk instead.
    pub(super) fn start(
        &mut self,
        ctx: &mut Ctx<'_>,
        state: &PeerState,
        dead: Option<HostId>,
        coords: Option<&Piggyback>,
        gen: &mut u64,
    ) -> bool {
        let now = ctx.now();
        let usable = |h: HostId, targets: &VecDeque<(HostId, VDist)>| {
            h != state.host
                && Some(h) != dead
                && !state.has_child(h)
                && !targets.iter().any(|&(t, _)| t == h)
        };
        let mut targets: VecDeque<(HostId, VDist)> = VecDeque::new();
        for c in &self.candidates {
            if now.saturating_sub(c.seen_at) <= CANDIDATE_TTL && usable(c.host, &targets) {
                targets.push_back((c.host, c.vdist));
            }
        }
        for &a in &self.ancestors {
            if usable(a, &targets) {
                targets.push_back((a, VDist::INFINITY));
            }
        }
        if let (true, Some(c)) = (self.cfg.coord_ranked, coords) {
            // Try the target the embedding predicts nearest first. The
            // sort is stable and unheard peers rank at infinity, so they
            // keep their candidate/ancestor order among themselves.
            targets
                .make_contiguous()
                .sort_by(|a, b| c.dist_to(a.0).total_cmp(&c.dist_to(b.0)));
        }
        targets.truncate(MAX_ATTEMPTS);
        if targets.is_empty() {
            return false;
        }
        self.failover = Some(Failover {
            targets,
            target: state.host,
            nonce: 0,
            pending_vdist: VDist::INFINITY,
            attempts: 0,
        });
        self.try_next(ctx, state, coords.map(Piggyback::sample), gen)
    }

    /// Fire the next failover connection request. Clears the failover
    /// and returns `false` when targets or the attempt budget run out.
    pub(super) fn try_next(
        &mut self,
        ctx: &mut Ctx<'_>,
        state: &PeerState,
        coord: Option<CoordSample>,
        gen: &mut u64,
    ) -> bool {
        if let Some(f) = self.failover.as_mut() {
            while f.attempts < MAX_ATTEMPTS {
                let Some((target, vdist)) = f.targets.pop_front() else {
                    break;
                };
                f.attempts += 1;
                if target == state.host || state.has_child(target) {
                    continue;
                }
                let nonce = next_stamp(gen);
                f.target = target;
                f.nonce = nonce;
                f.pending_vdist = vdist;
                ctx.stats.recovery.failover_attempts += 1;
                let attempt = f.attempts as u32;
                ctx.trace(|| vdm_trace::TraceEvent::FailoverAttempt {
                    host: ctx.me.0,
                    target: target.0,
                    attempt,
                });
                ctx.send(
                    target,
                    Msg::ConnReq {
                        nonce,
                        kind: ConnKind::Child,
                        vdist,
                        coord: coord.map(Box::new),
                    },
                );
                ctx.timer(FAILOVER_TIMEOUT, FAILOVER_TOKEN_BIT | nonce);
                return true;
            }
        }
        self.failover = None;
        false
    }

    /// The full target offered its closest child `next`: try it ahead
    /// of the remaining targets.
    pub(super) fn redirected(&mut self, next: HostId, me: HostId) {
        if let (true, Some(f)) = (next != me, self.failover.as_mut()) {
            f.targets.push_front((next, VDist::INFINITY));
        }
    }

    /// The in-flight attempt was accepted: end the failover and return
    /// the attempt's measured distance.
    pub(super) fn accepted(&mut self) -> VDist {
        self.failover.take().expect("active failover").pending_vdist
    }
}

/// The agent's side of a failover: an attempt's answer or deadline
/// fires the next attempt, and running out falls back to the §3.3
/// reconnection walk.
impl<P: WalkPolicy> ProtocolAgent<P> {
    /// The in-flight failover attempt's `(nonce, target)`, if any.
    pub(super) fn failover_in_flight(&self) -> Option<(u64, HostId)> {
        self.resilience.as_deref().and_then(Resilience::in_flight)
    }

    /// Fire the next failover attempt, or walk when none is left.
    fn failover_next(&mut self, ctx: &mut Ctx<'_>) {
        let coord = self.coord_sample();
        let Some(r) = self.resilience.as_mut() else {
            return;
        };
        if r.try_next(ctx, &self.state, coord, &mut self.gen_next) {
            return;
        }
        ctx.trace(|| vdm_trace::TraceEvent::FailoverResult {
            host: ctx.me.0,
            ok: false,
            parent: None,
        });
        self.reconnect_walk(ctx);
    }

    /// The answer to the in-flight failover request.
    pub(super) fn on_failover_resp(&mut self, ctx: &mut Ctx<'_>, from: HostId, result: ConnResult) {
        let Some(r) = self.resilience.as_mut() else {
            return;
        };
        match result {
            ConnResult::Accepted {
                grandparent,
                root_path,
                ..
            } if !self.state.has_child(from) => {
                let vdist = r.accepted();
                record_reconnect(ctx, self.orphaned_at.unwrap_or_else(|| ctx.now()));
                ctx.stats.recovery.failover_successes += 1;
                ctx.stats.join_completions += 1;
                ctx.trace(|| vdm_trace::TraceEvent::FailoverResult {
                    host: ctx.me.0,
                    ok: true,
                    parent: Some(from.0),
                });
                self.adopt_parent(ctx, from, grandparent, root_path, Vec::new(), vdist);
                return;
            }
            // Mutual-adoption race, as in `finish_walk`: undo the
            // acceptor's bookkeeping and keep trying elsewhere.
            ConnResult::Accepted { .. } => ctx.send(from, Msg::ChildLeave),
            ConnResult::Redirect { next } => r.redirected(next, self.state.host),
            ConnResult::Rejected => ctx.stats.rejected_conns += 1,
        }
        self.failover_next(ctx);
    }

    /// A failover deadline fired: if it is the in-flight attempt's and
    /// we are still detached, the target crashed or is unreachable.
    pub(super) fn on_failover_timeout(&mut self, ctx: &mut Ctx<'_>, nonce: u64) {
        let due = self.failover_in_flight().is_some_and(|(n, _)| n == nonce);
        if due && !self.state.connected() {
            self.failover_next(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::Rig;
    use super::super::AgentConfig;
    use super::*;
    use crate::msg::ConnResult;

    fn resilient_cfg() -> AgentConfig {
        AgentConfig {
            resilience: Some(ResilienceConfig::default()),
            ..AgentConfig::default()
        }
    }

    /// Host 0 attached under parent 1 and grandparent 2, with host 5 a
    /// fresh backup candidate.
    fn orphan_to_be() -> Rig {
        let mut w = Rig::new(resilient_cfg());
        w.agent.state.parent = Some(HostId(1));
        w.agent.state.grandparent = Some(HostId(2));
        w.agent
            .resilience
            .as_mut()
            .unwrap()
            .candidates
            .push(Candidate {
                host: HostId(5),
                vdist: 3.0,
                seen_at: SimTime::ZERO,
            });
        w
    }

    fn failover(w: &Rig) -> Option<&Failover> {
        w.agent.resilience.as_ref().unwrap().failover.as_ref()
    }

    /// An orphan with a fresh backup candidate sends it a direct
    /// ConnReq instead of walking, and attaches on acceptance.
    #[test]
    fn orphan_fails_over_to_backup_candidate_without_a_walk() {
        let mut w = orphan_to_be();
        w.deliver(HostId(1), Msg::Leave);
        assert!(w.agent.walk.is_none(), "failover must not start a walk");
        assert!(failover(&w).is_some());
        let sent = w.take_to(HostId(5));
        let Some(Msg::ConnReq {
            nonce,
            kind: ConnKind::Child,
            ..
        }) = sent.first()
        else {
            panic!("expected a direct ConnReq at the candidate, got {sent:?}");
        };
        w.deliver(
            HostId(5),
            Msg::ConnResp {
                nonce: *nonce,
                result: ConnResult::Accepted {
                    grandparent: Some(HostId(2)),
                    adopted: vec![],
                    root_path: vec![],
                },
            },
        );
        assert_eq!(w.agent.state.parent, Some(HostId(5)));
        assert!(failover(&w).is_none());
        assert!(w.agent.walk.is_none());
    }

    /// When every failover target refuses, the orphan falls back to the
    /// §3.3 grandparent walk.
    #[test]
    fn failover_rejection_falls_back_to_grandparent_walk() {
        let mut w = orphan_to_be();
        w.deliver(HostId(1), Msg::Leave);
        let sent = w.take_to(HostId(5));
        let Some(Msg::ConnReq { nonce, .. }) = sent.first() else {
            panic!("expected ConnReq, got {sent:?}");
        };
        w.deliver(
            HostId(5),
            Msg::ConnResp {
                nonce: *nonce,
                result: ConnResult::Rejected,
            },
        );
        assert!(failover(&w).is_none());
        assert!(w.agent.walk.is_some(), "exhausted failover must walk");
        let to_gp = w.take_to(HostId(2));
        assert!(
            to_gp.iter().any(|m| matches!(m, Msg::InfoReq { .. })),
            "walk must anchor at the grandparent, got {to_gp:?}"
        );
    }

    /// Ancestor gossip from the parent is prefixed with the parent and
    /// forwarded down to children.
    #[test]
    fn ancestor_gossip_propagates_down() {
        let mut w = Rig::new(resilient_cfg());
        w.agent.state.parent = Some(HostId(1));
        w.agent.state.add_child(HostId(3), 4.0);
        w.deliver(
            HostId(1),
            Msg::AncestorList {
                ancestors: vec![HostId(2), HostId(7)],
            },
        );
        assert_eq!(
            w.agent.resilience.as_ref().unwrap().ancestors,
            vec![HostId(1), HostId(2), HostId(7)]
        );
        assert_eq!(
            w.take_to(HostId(3)),
            vec![Msg::AncestorList {
                ancestors: vec![HostId(1), HostId(2), HostId(7)],
            }]
        );
    }
}
