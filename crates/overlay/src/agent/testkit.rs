//! An engine-free harness for agent tests: the agent under test is host
//! 0 (source 7, degree limit 2); a recording [`CoreIo`] keeps what it
//! sends and the timers it arms, and the clock moves only when a test
//! says so.

use super::{AgentConfig, Ctx, OverlayAgent, ProtocolAgent};
use crate::core::CoreIo;
use crate::msg::Msg;
use crate::stats::RunStats;
use crate::walk::{ProbeResult, WalkPolicy, WalkPurpose, WalkStep};
use rand::rngs::StdRng;
use rand::SeedableRng;
use vdm_netsim::{HostId, SendClass, SimTime};

/// Minimal policy: always attach to the node under examination.
pub(super) struct Attach;

impl WalkPolicy for Attach {
    fn vdist(&self, rtt_ms: f64, _l: f64) -> f64 {
        rtt_ms
    }
    fn decide(&self, _p: &ProbeResult, _purpose: WalkPurpose) -> WalkStep {
        WalkStep::Attach { splice: vec![] }
    }
}

/// Sends and timers, recorded instead of performed.
struct RecIo {
    now: SimTime,
    sent: Vec<(HostId, Msg)>,
    /// `(due, token)` in arming order.
    timers: Vec<(SimTime, u64)>,
    rng: StdRng,
    tracer: vdm_trace::Tracer,
}

impl CoreIo for RecIo {
    fn now(&self) -> SimTime {
        self.now
    }
    fn send_msg(&mut self, _from: HostId, to: HostId, msg: Msg, _class: SendClass) -> bool {
        self.sent.push((to, msg));
        true
    }
    fn set_timer(&mut self, _host: HostId, delay: SimTime, token: u64) {
        self.timers.push((self.now + delay, token));
    }
    fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }
    fn path_loss(&mut self, _from: HostId, _to: HostId) -> f64 {
        0.0
    }
    fn tracer(&self) -> &vdm_trace::Tracer {
        &self.tracer
    }
}

/// Host 0's agent plus its recording io and run statistics.
pub(super) struct Rig {
    pub(super) agent: ProtocolAgent<Attach>,
    pub(super) stats: RunStats,
    io: RecIo,
}

impl Rig {
    pub(super) fn new(cfg: AgentConfig) -> Self {
        Self {
            agent: ProtocolAgent::new(HostId(0), HostId(7), 2, 0, cfg, Attach),
            stats: RunStats::new(8),
            io: RecIo {
                now: SimTime::ZERO,
                sent: Vec::new(),
                timers: Vec::new(),
                rng: StdRng::seed_from_u64(1),
                tracer: vdm_trace::Tracer::disabled(),
            },
        }
    }

    /// Run `f` against the agent with a context over the rig.
    pub(super) fn with_ctx<R>(
        &mut self,
        f: impl FnOnce(&mut ProtocolAgent<Attach>, &mut Ctx<'_>) -> R,
    ) -> R {
        let mut ctx = Ctx {
            me: HostId(0),
            io: &mut self.io,
            stats: &mut self.stats,
            loss_probe_noise: 0.0,
        };
        f(&mut self.agent, &mut ctx)
    }

    /// Hand the agent a message from `from` at the current time.
    pub(super) fn deliver(&mut self, from: HostId, msg: Msg) {
        self.with_ctx(|a, ctx| a.on_msg(ctx, from, msg));
    }

    /// Advance the clock by `dt`, firing every timer that falls due on
    /// the way in deadline order (ties in arming order).
    pub(super) fn run_for(&mut self, dt: SimTime) {
        let end = self.io.now + dt;
        while let Some(i) = (0..self.io.timers.len())
            .filter(|&i| self.io.timers[i].0 <= end)
            .min_by_key(|&i| self.io.timers[i].0)
        {
            let (due, token) = self.io.timers.remove(i);
            self.io.now = self.io.now.max(due);
            self.with_ctx(|a, ctx| a.on_timer(ctx, token));
        }
        self.io.now = end;
    }

    /// Everything sent to `to` since the last call, in order.
    pub(super) fn take_to(&mut self, to: HostId) -> Vec<Msg> {
        let (mine, rest): (Vec<_>, Vec<_>) = std::mem::take(&mut self.io.sent)
            .into_iter()
            .partition(|(t, _)| *t == to);
        self.io.sent = rest;
        mine.into_iter().map(|(_, m)| m).collect()
    }
}
