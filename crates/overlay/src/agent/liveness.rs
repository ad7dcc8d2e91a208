//! Liveness timers: child heartbeats with pruning of silent children,
//! the self-re-arming tick behind both heartbeats and periodic
//! refinement, and the data watchdog that abandons a dark parent.

use super::{Ctx, ProtocolAgent};
use crate::msg::Msg;
use crate::peer::PeerState;
use crate::walk::{WalkPolicy, WalkPurpose};
use vdm_netsim::{HostId, SimTime};

/// Timer token for the periodic refinement trigger.
pub const REFINE_TOKEN: u64 = 1 << 61;
/// Timer token for the data-timeout watchdog.
pub const DATA_WATCH_TOKEN: u64 = 1 << 60;
/// Timer token for the heartbeat/pruning cycle.
pub const HEARTBEAT_TOKEN: u64 = 1 << 58;

/// Heartbeat settings for the ungraceful-failure extension: children
/// beacon their parent every `period`; parents prune children silent
/// for `timeout`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HeartbeatConfig {
    /// Beacon interval.
    pub period: SimTime,
    /// Silence threshold after which a child is presumed crashed.
    pub timeout: SimTime,
}

/// A timer that ticks every `period` once started: the first
/// [`Periodic::start`] arms it, later calls are no-ops, and each tick
/// re-arms itself with [`Periodic::again`].
#[derive(Clone, Copy, Debug)]
pub(super) struct Periodic {
    period: SimTime,
    token: u64,
    started: bool,
}

impl Periodic {
    pub(super) fn new(period: SimTime, token: u64) -> Self {
        Self {
            period,
            token,
            started: false,
        }
    }

    pub(super) fn start(&mut self, ctx: &mut Ctx<'_>) {
        if !self.started {
            self.started = true;
            self.again(ctx);
        }
    }

    pub(super) fn again(&self, ctx: &mut Ctx<'_>) {
        ctx.timer(self.period, self.token);
    }
}

/// Child-liveness bookkeeping: when each child last beaconed (admission
/// counts as a beacon), and the beacon/prune tick.
pub(super) struct Heartbeat {
    timeout: SimTime,
    /// Started by the first parent or the first child.
    pub(super) tick: Periodic,
    seen: Vec<(HostId, SimTime)>,
}

impl Heartbeat {
    pub(super) fn new(cfg: HeartbeatConfig) -> Self {
        Self {
            timeout: cfg.timeout,
            tick: Periodic::new(cfg.period, HEARTBEAT_TOKEN),
            seen: Vec::new(),
        }
    }

    /// Record that child `c` is alive at `now`.
    pub(super) fn note_alive(&mut self, c: HostId, now: SimTime) {
        match self.seen.iter_mut().find(|(h, _)| *h == c) {
            Some(e) => e.1 = now,
            None => self.seen.push((c, now)),
        }
    }

    /// Child `c` left.
    pub(super) fn forget(&mut self, c: HostId) {
        self.seen.retain(|(h, _)| *h != c);
    }

    /// [`HEARTBEAT_TOKEN`]: beacon our parent and prune silent children
    /// (presumed crashed) so their degree slots become available again.
    pub(super) fn on_tick(&mut self, ctx: &mut Ctx<'_>, state: &mut PeerState) {
        if let Some(p) = state.parent {
            ctx.send(p, Msg::Heartbeat);
        }
        let now = ctx.now();
        let stale: Vec<HostId> = self
            .seen
            .iter()
            .filter(|&&(_, t)| now.saturating_sub(t) >= self.timeout)
            .map(|&(h, _)| h)
            .collect();
        for c in stale {
            state.remove_child(c);
            self.forget(c);
        }
        self.tick.again(ctx);
    }
}

/// The agent-side ticks: periodic refinement (§3.4) and the watchdog.
impl<P: WalkPolicy> ProtocolAgent<P> {
    /// [`REFINE_TOKEN`]: look for a better parent unless busy.
    pub(super) fn on_refine_tick(&mut self, ctx: &mut Ctx<'_>) {
        let Some(tick) = self.refine else { return };
        if self.state.connected() && !self.state.is_source && self.walk.is_none() {
            let start = self
                .policy
                .refine_start(&self.state, self.source, ctx.io.rng());
            self.start_walk(ctx, WalkPurpose::Refine, start);
        }
        tick.again(ctx);
    }

    /// [`DATA_WATCH_TOKEN`]: a subtree that heard no stream data for
    /// `data_timeout` is dark — abandon the parent and rejoin.
    pub(super) fn on_data_watch(&mut self, ctx: &mut Ctx<'_>) {
        let Some(t) = self.cfg.data_timeout else {
            return;
        };
        if self.state.connected() && !self.state.is_source {
            let silent = ctx.now().saturating_sub(self.last_data_at);
            if silent >= t && self.walk.is_none() {
                self.become_orphan(ctx, true);
            }
            ctx.timer(t, DATA_WATCH_TOKEN);
        }
    }
}
