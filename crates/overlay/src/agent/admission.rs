//! Rejoin-storm admission control: plain new-child admissions pay a
//! token, a dry bucket parks the joiner in a bounded queue that drains
//! as tokens refill, and overflow is shed to a sibling.

use super::{Ctx, ProtocolAgent};
use crate::bucket::TokenBucket;
use crate::msg::{ConnResult, Msg};
use crate::walk::WalkPolicy;
use crate::VDist;
use std::collections::VecDeque;
use vdm_netsim::{HostId, SimTime};

/// Timer token for draining the admission queue.
pub const ADMIT_TOKEN: u64 = 1 << 57;

/// Queue slots for joiners awaiting a token.
const QUEUE: usize = 8;
/// Queued joiners older than this are shed (their walk has long timed
/// out and restarted elsewhere).
const MAX_WAIT: SimTime = SimTime(3_000_000);

/// Rejoin-storm admission control: a token bucket over plain new-child
/// admissions plus a bounded wait queue (`QUEUE` slots, shed after
/// `MAX_WAIT`). Correlated crashes produce a thundering herd of rejoin
/// walks; throttling smooths the herd into the tree instead of letting
/// every interior node thrash, and overflow is shed to siblings via the
/// normal redirect path.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdmissionConfig {
    /// Sustained admissions per second.
    pub rate_per_s: f64,
    /// Token-bucket burst capacity.
    pub burst: f64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            rate_per_s: 2.0,
            burst: 4.0,
        }
    }
}

/// A joiner parked in the admission queue.
#[derive(Clone, Copy, Debug)]
struct QueuedJoin {
    from: HostId,
    nonce: u64,
    vdist: VDist,
    at: SimTime,
}

/// What [`Admission::request`] decided about a plain new child.
pub(super) enum Verdict {
    /// A token was spent: admit now.
    Admit,
    /// Parked until a token refills.
    Parked,
    /// The queue is full: redirect or reject.
    Shed,
}

/// The token bucket and the wait queue. An [`ADMIT_TOKEN`] timer is in
/// flight exactly while the queue is non-empty.
pub(super) struct Admission {
    cfg: AdmissionConfig,
    bucket: TokenBucket,
    queue: VecDeque<QueuedJoin>,
}

impl Admission {
    pub(super) fn new(cfg: AdmissionConfig) -> Self {
        Self {
            cfg,
            bucket: TokenBucket::full(cfg.burst, SimTime::ZERO),
            queue: VecDeque::new(),
        }
    }

    /// A plain new-child request while we have a free slot.
    pub(super) fn request(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: HostId,
        nonce: u64,
        vdist: VDist,
    ) -> Verdict {
        self.bucket
            .refill(ctx.now(), self.cfg.rate_per_s, self.cfg.burst);
        if self.bucket.take() {
            return Verdict::Admit;
        }
        if self.queue.len() < QUEUE {
            ctx.stats.recovery.joins_throttled += 1;
            ctx.trace(|| vdm_trace::TraceEvent::AdmissionThrottled {
                host: ctx.me.0,
                joiner: from.0,
            });
            self.queue.push_back(QueuedJoin {
                from,
                nonce,
                vdist,
                at: ctx.now(),
            });
            if self.queue.len() == 1 {
                self.arm(ctx);
            }
            return Verdict::Parked;
        }
        shed(ctx, from);
        Verdict::Shed
    }

    /// [`ADMIT_TOKEN`]: admit queued joiners as tokens refill; shed
    /// stale entries and reject those the agent can no longer take.
    pub(super) fn drain<P: WalkPolicy>(&mut self, ctx: &mut Ctx<'_>, agent: &mut ProtocolAgent<P>) {
        let now = ctx.now();
        self.bucket.refill(now, self.cfg.rate_per_s, self.cfg.burst);
        while let Some(&q) = self.queue.front() {
            if now.saturating_sub(q.at) > MAX_WAIT {
                // The walker has long timed out and restarted; shed it
                // toward a sibling rather than ghost-admitting it.
                self.queue.pop_front();
                shed(ctx, q.from);
                agent.redirect_or_reject(ctx, q.from, q.nonce);
                continue;
            }
            // Re-validate against current state: we may have filled up,
            // started a walk, or learned the joiner is an ancestor
            // since it was queued.
            let ok = agent.admissible(q.from)
                && !agent.state.has_child(q.from)
                && agent.state.free_degree() > 0;
            if !ok {
                self.queue.pop_front();
                reject(ctx, q);
                continue;
            }
            if !self.bucket.take() {
                break;
            }
            self.queue.pop_front();
            agent.accept_child(ctx, q.from, q.nonce, q.vdist, Vec::new());
        }
        if !self.queue.is_empty() {
            self.arm(ctx);
        }
    }

    /// Reject every parked walker so it fails fast instead of timing
    /// out against a host that is leaving.
    pub(super) fn flush(&mut self, ctx: &mut Ctx<'_>) {
        for q in std::mem::take(&mut self.queue) {
            reject(ctx, q);
        }
    }

    /// Arm the drain timer for roughly when the next token lands.
    fn arm(&self, ctx: &mut Ctx<'_>) {
        let deficit = (1.0 - self.bucket.tokens()).max(0.0);
        let secs = if self.cfg.rate_per_s > 0.0 {
            deficit / self.cfg.rate_per_s
        } else {
            1.0
        };
        ctx.timer(SimTime::from_ms((secs * 1000.0).max(1.0)), ADMIT_TOKEN);
    }
}

fn shed(ctx: &mut Ctx<'_>, joiner: HostId) {
    ctx.stats.recovery.joins_shed += 1;
    ctx.trace(|| vdm_trace::TraceEvent::AdmissionShed {
        host: ctx.me.0,
        joiner: joiner.0,
    });
}

fn reject(ctx: &mut Ctx<'_>, q: QueuedJoin) {
    let (nonce, result) = (q.nonce, ConnResult::Rejected);
    ctx.send(q.from, Msg::ConnResp { nonce, result });
}

#[cfg(test)]
mod tests {
    use super::super::testkit::Rig;
    use super::super::AgentConfig;
    use super::*;
    use crate::msg::ConnKind;

    fn throttled(maintain_root_path: bool) -> Rig {
        let mut w = Rig::new(AgentConfig {
            maintain_root_path,
            admission: Some(AdmissionConfig {
                rate_per_s: 1.0,
                burst: 1.0,
            }),
            ..AgentConfig::default()
        });
        w.agent.state.parent = Some(HostId(1));
        w
    }

    fn join(w: &mut Rig, from: HostId, nonce: u64, vdist: f64) {
        w.deliver(
            from,
            Msg::ConnReq {
                nonce,
                kind: ConnKind::Child,
                vdist,
                coord: None,
            },
        );
    }

    fn queued(w: &Rig) -> usize {
        w.agent.admission.as_ref().unwrap().queue.len()
    }

    /// With the bucket dry, a plain join is queued and admitted once a
    /// token refills — never silently dropped.
    #[test]
    fn admission_throttles_then_admits_queued_join() {
        let mut w = throttled(false);
        join(&mut w, HostId(4), 1, 5.0);
        assert!(
            w.agent.state.has_child(HostId(4)),
            "first join takes the token"
        );
        join(&mut w, HostId(5), 2, 6.0);
        assert!(w.take_to(HostId(5)).is_empty(), "second join is parked");
        assert_eq!(queued(&w), 1);
        // A token refills after ~1 s and the queue drains.
        w.run_for(SimTime::from_secs(2));
        assert!(w.agent.state.has_child(HostId(5)));
        let sent = w.take_to(HostId(5));
        assert!(sent.iter().any(|m| matches!(
            m,
            Msg::ConnResp {
                nonce: 2,
                result: ConnResult::Accepted { .. }
            }
        )));
    }

    /// A queued joiner that became our ancestor while it waited (a
    /// root path naming it arrived) is rejected when the queue drains,
    /// exactly as a fresh request from it would be.
    #[test]
    fn queued_joiner_on_the_root_path_is_rejected_at_drain() {
        let mut w = throttled(true);
        join(&mut w, HostId(4), 1, 5.0);
        join(&mut w, HostId(5), 2, 5.0);
        assert_eq!(queued(&w), 1, "host 5 is parked");
        w.deliver(
            HostId(1),
            Msg::RootPath {
                path: vec![HostId(7), HostId(5), HostId(1)],
            },
        );
        w.run_for(SimTime::from_secs(2));
        assert!(!w.agent.state.has_child(HostId(5)));
        assert_eq!(
            w.take_to(HostId(5)),
            vec![Msg::ConnResp {
                nonce: 2,
                result: ConnResult::Rejected
            }]
        );
    }
}
