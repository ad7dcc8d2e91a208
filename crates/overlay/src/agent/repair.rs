//! Stream gap repair: the retransmit ring a parent answers NACKs from,
//! the receiver's gap tracker and its one NACK timer, and — in
//! multi-tree sessions — cross-tree repair, which pulls a silent
//! stripe's holes from a sibling tree under a serving budget.

use super::{AdmissionConfig, Ctx};
use crate::bucket::TokenBucket;
use crate::msg::Msg;
use crate::repair::{ChunkClass, GapTracker, RepairConfig, RetransmitRing};
use vdm_netsim::{HostId, SimTime};

/// Timer token for the gap-repair NACK scheduler.
pub const REPAIR_TOKEN: u64 = 1 << 55;

/// Cross-tree repair: the serving budget and the holes pulled from a
/// sibling tree. Kept apart from the regular tracker so the repair
/// timer never burns NACK retries on a dead or starving parent for
/// holes only a sibling tree can fill.
struct Cross {
    budget: AdmissionConfig,
    bucket: TokenBucket,
    gaps: GapTracker,
}

pub(super) struct Repair {
    cfg: RepairConfig,
    /// Recently forwarded chunks, for answering NACKs.
    ring: RetransmitRing,
    /// Chunks we are missing ourselves.
    gaps: GapTracker,
    cross: Option<Cross>,
    /// Whether a [`REPAIR_TOKEN`] timer is in flight.
    armed: bool,
    /// Lost chunks already pushed into the shared run stats.
    lost_reported: u64,
}

impl Repair {
    pub(super) fn new(cfg: RepairConfig, cross: Option<AdmissionConfig>) -> Self {
        Self {
            cfg,
            ring: RetransmitRing::new(cfg.ring),
            gaps: GapTracker::default(),
            cross: cross.map(|budget| Cross {
                budget,
                bucket: TokenBucket::full(budget.burst, SimTime::ZERO),
                gaps: GapTracker::default(),
            }),
            armed: false,
            lost_reported: 0,
        }
    }

    /// Retain a forwarded chunk for NACK answers.
    pub(super) fn record(&mut self, seq: u64) {
        self.ring.record(seq);
    }

    /// Classify an arriving chunk against the watermark `last_seq`:
    /// `Some(true)` advances it, `Some(false)` fills a hole (counted and
    /// traced as a repair), `None` drops it. `cross` marks a sibling
    /// tree's retransmission, which must carry a chunk of our stripe.
    pub(super) fn accept(
        &mut self,
        ctx: &mut Ctx<'_>,
        seq: u64,
        last_seq: Option<u64>,
        cross: bool,
    ) -> Option<bool> {
        if cross {
            self.cross.as_ref()?;
            // Anything off our stripe means repair asked a tree that
            // does not own the sequence: counted so tests can assert it
            // never happens.
            if self.cfg.stride > 1 && seq % self.cfg.stride != self.cfg.stripe {
                ctx.stats.recovery.cross_stripe_violations += 1;
                return None;
            }
        }
        // A chunk a cross-tree NACK is chasing may race in through the
        // recovered tree, or the other way round; stop re-asking.
        let was_pending = self.cross.as_mut().is_some_and(|c| c.gaps.resolve(seq));
        let class = self.gaps.on_chunk(seq, last_seq, ctx.now(), &self.cfg);
        let repaired = match class {
            ChunkClass::Fresh => cross,
            ChunkClass::Repaired => true,
            // The watermark advanced past this hole while its cross NACK
            // was in flight; it is still a first delivery.
            ChunkClass::Duplicate => cross && was_pending,
        };
        if repaired {
            let r = &mut ctx.stats.recovery;
            if cross {
                r.cross_repaired += 1;
            } else {
                r.chunks_repaired += 1;
            }
            ctx.trace(|| vdm_trace::TraceEvent::ChunkRepaired {
                host: ctx.me.0,
                seq,
            });
        }
        match class {
            ChunkClass::Fresh => Some(true),
            _ => repaired.then_some(false),
        }
    }

    /// After a fresh chunk: report new losses and schedule the NACKs
    /// for any hole it revealed.
    pub(super) fn settle(&mut self, ctx: &mut Ctx<'_>) {
        self.sync_lost(ctx);
        self.arm(ctx);
    }

    /// A child's NACK: resend what the ring still holds.
    pub(super) fn serve_nack(&self, ctx: &mut Ctx<'_>, child: HostId, seqs: Vec<u64>) {
        for seq in seqs {
            if self.ring.contains(seq) {
                ctx.send(child, Msg::Data { seq });
            }
        }
    }

    /// A sibling-tree orphan's NACK: serve it out of the ring, bounded
    /// by the cross-repair bucket so these pulls can never starve our
    /// own subtree's repair traffic.
    pub(super) fn serve_cross(&mut self, ctx: &mut Ctx<'_>, from: HostId, seqs: Vec<u64>) {
        let Some(c) = self.cross.as_mut() else { return };
        c.bucket
            .refill(ctx.now(), c.budget.rate_per_s, c.budget.burst);
        for seq in seqs {
            if self.ring.contains(seq) {
                if !c.bucket.take() {
                    break;
                }
                ctx.send(from, Msg::CrossData { seq });
            }
        }
    }

    /// [`REPAIR_TOKEN`]: NACK the due holes to `parent`. Orphans hold
    /// their NACKs (the retry state was bumped, so they re-fire after
    /// reconnecting); in a multi-tree session an orphan leaves them to
    /// the cross-repair ticks instead.
    pub(super) fn on_timer(&mut self, ctx: &mut Ctx<'_>, parent: Option<HostId>) {
        self.armed = false;
        if parent.is_none() && self.cross.is_some() {
            return;
        }
        let batch = self.gaps.due_nacks(ctx.now(), &self.cfg);
        self.sync_lost(ctx);
        if let (false, Some(p)) = (batch.is_empty(), parent) {
            ctx.stats.recovery.nacks_sent += 1;
            ctx.trace(|| vdm_trace::TraceEvent::NackSent {
                host: ctx.me.0,
                parent: p.0,
                count: batch.len() as u32,
            });
            ctx.send(p, Msg::Nack { seqs: batch });
        }
        self.arm(ctx);
    }

    /// One cross-repair opportunity: register the silent stripe holes
    /// up to `latest` (an orphaned subtree sees no watermark jump, so
    /// its gaps are otherwise invisible) and NACK the due ones at
    /// `sibling` instead of the missing parent.
    pub(super) fn cross_tick(
        &mut self,
        ctx: &mut Ctx<'_>,
        sibling: HostId,
        latest: u64,
        last_seq: Option<u64>,
    ) {
        let Some(c) = self.cross.as_mut() else { return };
        c.gaps.note_absent(latest, last_seq, ctx.now(), &self.cfg);
        let batch = c.gaps.due_nacks(ctx.now(), &self.cfg);
        self.sync_lost(ctx);
        if !batch.is_empty() {
            ctx.stats.recovery.cross_nacks_sent += 1;
            ctx.trace(|| vdm_trace::TraceEvent::NackSent {
                host: ctx.me.0,
                parent: sibling.0,
                count: batch.len() as u32,
            });
            ctx.send(sibling, Msg::CrossNack { seqs: batch });
        }
    }

    /// Push newly declared-lost chunks into the shared run stats.
    fn sync_lost(&mut self, ctx: &mut Ctx<'_>) {
        let total = self.gaps.lost + self.cross.as_ref().map_or(0, |c| c.gaps.lost);
        let d = total - self.lost_reported;
        if d > 0 {
            ctx.stats.recovery.chunks_lost += d;
            self.lost_reported = total;
        }
    }

    /// Arm the NACK timer for the earliest missing-chunk deadline,
    /// keeping at most one in flight.
    fn arm(&mut self, ctx: &mut Ctx<'_>) {
        if self.armed {
            return;
        }
        if let Some(due) = self.gaps.next_due() {
            self.armed = true;
            ctx.timer(due.saturating_sub(ctx.now()), REPAIR_TOKEN);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::Rig;
    use super::super::{AgentConfig, OverlayAgent};
    use super::*;

    fn repairing() -> AgentConfig {
        AgentConfig {
            repair: Some(RepairConfig::default()),
            ..AgentConfig::default()
        }
    }

    fn repair(w: &Rig) -> &Repair {
        w.agent.repair.as_ref().unwrap()
    }

    /// Deliver, then let 300 ms pass (past the 250 ms NACK delay).
    fn inject(w: &mut Rig, from: HostId, msg: Msg) {
        w.deliver(from, msg);
        w.run_for(SimTime::from_ms(300.0));
    }

    /// A watermark jump NACKs the missing chunks to the parent, and a
    /// retransmission fills the hole and is forwarded downstream.
    #[test]
    fn gap_triggers_nack_and_repair_fills_hole() {
        let mut w = Rig::new(repairing());
        w.agent.state.parent = Some(HostId(1));
        w.agent.state.add_child(HostId(3), 4.0);
        inject(&mut w, HostId(1), Msg::Data { seq: 1 });
        inject(&mut w, HostId(1), Msg::Data { seq: 4 });
        let to_parent = w.take_to(HostId(1));
        assert!(
            to_parent.contains(&Msg::Nack { seqs: vec![2, 3] }),
            "expected a NACK for the hole, got {to_parent:?}"
        );
        let _ = w.take_to(HostId(3));
        // The parent retransmits chunk 2: delivered and forwarded.
        inject(&mut w, HostId(1), Msg::Data { seq: 2 });
        assert_eq!(w.take_to(HostId(3)), vec![Msg::Data { seq: 2 }]);
        assert_eq!(w.agent.state.last_seq, Some(4));
        assert_eq!(repair(&w).gaps.pending(), 1);
        // A duplicate of the repaired chunk is dropped.
        inject(&mut w, HostId(1), Msg::Data { seq: 2 });
        assert!(w.take_to(HostId(3)).is_empty());
    }

    /// The parent side: NACKed chunks present in the retransmit ring
    /// are resent to the requesting child.
    #[test]
    fn parent_answers_nack_from_its_ring() {
        let mut w = Rig::new(repairing());
        w.agent.state.parent = Some(HostId(1));
        w.agent.state.add_child(HostId(3), 4.0);
        for seq in 1..=3 {
            w.deliver(HostId(1), Msg::Data { seq });
        }
        let _ = w.take_to(HostId(3));
        w.deliver(HostId(3), Msg::Nack { seqs: vec![2, 99] });
        // 2 is in the ring, 99 is not.
        assert_eq!(w.take_to(HostId(3)), vec![Msg::Data { seq: 2 }]);
        // NACKs from non-children are ignored.
        w.deliver(HostId(6), Msg::Nack { seqs: vec![2] });
        assert!(w.take_to(HostId(6)).is_empty());
    }

    /// A sibling-tree orphan's CrossNack is served out of the ring,
    /// bounded by the cross-repair token bucket.
    #[test]
    fn cross_nack_is_served_within_token_budget() {
        let mut w = Rig::new(AgentConfig {
            cross_repair: Some(AdmissionConfig {
                rate_per_s: 1.0,
                burst: 2.0,
                queue: 0,
                max_wait: SimTime::from_secs(1),
            }),
            ..repairing()
        });
        w.agent.state.parent = Some(HostId(1));
        for seq in 1..=4 {
            w.deliver(HostId(1), Msg::Data { seq });
        }
        // Host 6 is NOT our child — cross pulls are not child-gated.
        w.deliver(
            HostId(6),
            Msg::CrossNack {
                seqs: vec![1, 2, 3],
            },
        );
        // Burst 2 and no time for a refill: exactly two served.
        let served: Vec<Msg> = w
            .take_to(HostId(6))
            .into_iter()
            .filter(|m| matches!(m, Msg::CrossData { .. }))
            .collect();
        assert_eq!(
            served,
            vec![Msg::CrossData { seq: 1 }, Msg::CrossData { seq: 2 }]
        );
    }

    /// The orphan side: a cross-repair tick registers the silent
    /// stripe holes and NACKs them at the sibling parent; the answered
    /// chunk is delivered and cascades to our own children, and an
    /// off-stripe retransmission is dropped and counted.
    #[test]
    fn cross_repair_tick_pulls_stripe_from_sibling_and_cascades() {
        let mut w = Rig::new(AgentConfig {
            repair: Some(RepairConfig::default().striped(2, 1)),
            cross_repair: Some(AdmissionConfig::default()),
            ..AgentConfig::default()
        });
        w.agent.state.add_child(HostId(3), 4.0);
        w.agent.ever_connected = true; // orphaned, not a newcomer
        let tick = |w: &mut Rig| w.with_ctx(|a, ctx| a.cross_repair_tick(ctx, HostId(5), 5));
        tick(&mut w);
        // Holes registered (in the cross tracker, so the regular repair
        // timer cannot burn their retries), but the NACK delay has not
        // elapsed.
        assert!(w.take_to(HostId(5)).is_empty());
        let cross_pending = |w: &Rig| repair(w).cross.as_ref().unwrap().gaps.pending();
        assert_eq!(cross_pending(&w), 3);
        assert_eq!(repair(&w).gaps.pending(), 0);
        w.run_for(SimTime::from_ms(400.0));
        tick(&mut w);
        assert_eq!(
            w.take_to(HostId(5)),
            vec![Msg::CrossNack {
                seqs: vec![1, 3, 5]
            }]
        );
        assert_eq!(w.stats.recovery.cross_nacks_sent, 1);
        // The sibling answers chunk 3: delivered fresh (first delivery
        // of this stripe) and forwarded to our child.
        w.deliver(HostId(5), Msg::CrossData { seq: 3 });
        assert_eq!(w.agent.state.last_seq, Some(3));
        assert_eq!(w.take_to(HostId(3)), vec![Msg::Data { seq: 3 }]);
        // An off-stripe chunk (seq 2 is stripe 0) violates ownership:
        // dropped, counted, watermark untouched.
        w.deliver(HostId(5), Msg::CrossData { seq: 2 });
        assert_eq!(w.stats.recovery.cross_stripe_violations, 1);
        assert_eq!(w.agent.state.last_seq, Some(3));
    }
}
