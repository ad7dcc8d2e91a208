//! Sans-io protocol core.
//!
//! The per-host VDM state machine ([`crate::agent::ProtocolAgent`] and
//! the [`crate::walk`] join walk under it) historically touched the
//! deterministic [`vdm_netsim::Engine`] directly through [`Ctx`]. That
//! coupling is cut here: [`CoreIo`] is the complete set of effects an
//! agent callback may perform — read the clock, send a message, arm a
//! timer, draw randomness, estimate path loss, emit a trace event —
//! and [`Ctx`] holds a `&mut dyn CoreIo` instead of the engine.
//!
//! Two implementations exist:
//!
//! * [`Engine<Msg>`] itself (below): the simulator path. Call order,
//!   send classification, and the shared run-RNG stream are exactly
//!   what they were before the seam, so every golden byte sequence is
//!   preserved (CI pins this).
//! * [`BufIo`] inside [`ProtocolCore`]: a buffered facade for real
//!   runtimes (the `vdm-node` daemon). Inputs go in as [`Input`]
//!   values, effects come back out as [`Output`] values; the caller
//!   owns sockets, clocks, and timer wheels. No engine, no sockets,
//!   no wall clock in here — pure state machine.
//!
//! The only semantic difference between the two paths is randomness
//! and loss probing: the simulator draws from the engine's shared
//! per-run RNG stream (byte-identity demands it), while a
//! [`ProtocolCore`] owns a private RNG seeded per node, and reports
//! `path_loss = 0` because a real deployment has no oracle — the
//! delay-based metric (VDM-D, the paper's default) never calls it.

use crate::agent::{Ctx, OverlayAgent};
use crate::msg::Msg;
use crate::stats::RunStats;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use vdm_netsim::{Engine, HostId, SendClass, SimTime};

/// Every effect an agent callback may perform, as a trait object the
/// [`Ctx`] methods forward to. Implemented by the deterministic
/// [`Engine`] (simulation) and by [`BufIo`] (real runtimes).
pub trait CoreIo {
    /// Current protocol time.
    fn now(&self) -> SimTime;
    /// Ship `msg` from `from` to `to`; returns false when the
    /// transport refused it outright (engine: host down / faulted).
    fn send_msg(&mut self, from: HostId, to: HostId, msg: Msg, class: SendClass) -> bool;
    /// Arm a timer for `host` to fire `delay` from now carrying `token`.
    fn set_timer(&mut self, host: HostId, delay: SimTime, token: u64);
    /// The randomness stream for jitter and probe noise.
    fn rng(&mut self) -> &mut StdRng;
    /// Path loss estimate toward `to` (a measurement-service oracle in
    /// simulation; 0 where no oracle exists).
    fn path_loss(&mut self, from: HostId, to: HostId) -> f64;
    /// The structured-event tracer (disabled tracers make
    /// [`Ctx::trace`] free).
    fn tracer(&self) -> &vdm_trace::Tracer;
}

impl CoreIo for Engine<Msg> {
    fn now(&self) -> SimTime {
        Engine::now(self)
    }

    fn send_msg(&mut self, from: HostId, to: HostId, msg: Msg, class: SendClass) -> bool {
        Engine::send(self, from, to, msg, class)
    }

    fn set_timer(&mut self, host: HostId, delay: SimTime, token: u64) {
        Engine::set_timer(self, host, delay, token)
    }

    fn rng(&mut self) -> &mut StdRng {
        Engine::rng(self)
    }

    fn path_loss(&mut self, from: HostId, to: HostId) -> f64 {
        self.underlay().path_loss(from, to)
    }

    fn tracer(&self) -> &vdm_trace::Tracer {
        Engine::tracer(self)
    }
}

/// One thing that happened to a node, from the runtime's point of view.
#[derive(Clone, Debug, PartialEq)]
pub enum Input {
    /// The operator told this node to join the session.
    Join,
    /// The operator told this node to leave gracefully.
    Leave,
    /// A protocol message arrived from `from`.
    Packet {
        /// Sender host id.
        from: HostId,
        /// The decoded message.
        msg: Msg,
    },
    /// A timer armed by an earlier [`Output::Timer`] fired.
    Timer {
        /// The token the timer was armed with.
        token: u64,
    },
    /// Source only: emit stream chunk `seq` to the children.
    EmitData {
        /// Chunk sequence number.
        seq: u64,
    },
}

/// One effect the runtime must perform on the node's behalf.
#[derive(Clone, Debug, PartialEq)]
pub enum Output {
    /// Ship `msg` to `to`.
    Send {
        /// Destination host id.
        to: HostId,
        /// The message to encode and transmit.
        msg: Msg,
        /// Data/control classification (QoS hint; the loopback daemon
        /// sends both the same way).
        class: SendClass,
    },
    /// Arm a timer to fire `delay` from now, then feed back
    /// [`Input::Timer`] with `token`.
    Timer {
        /// Relative deadline.
        delay: SimTime,
        /// Token to echo back when the timer fires.
        token: u64,
    },
}

/// Buffered [`CoreIo`] for real runtimes: effects accumulate in a queue
/// the [`ProtocolCore`] drains after each callback.
struct BufIo {
    now: SimTime,
    out: VecDeque<Output>,
    rng: StdRng,
    tracer: vdm_trace::Tracer,
}

impl CoreIo for BufIo {
    fn now(&self) -> SimTime {
        self.now
    }

    fn send_msg(&mut self, _from: HostId, to: HostId, msg: Msg, class: SendClass) -> bool {
        self.out.push_back(Output::Send { to, msg, class });
        true
    }

    fn set_timer(&mut self, _host: HostId, delay: SimTime, token: u64) {
        self.out.push_back(Output::Timer { delay, token });
    }

    fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    fn path_loss(&mut self, _from: HostId, _to: HostId) -> f64 {
        // No measurement oracle over real sockets; only loss-based
        // metrics (VDM-L/VDM-R) read this, and they are simulation
        // studies. The daemon runs the delay-based default.
        0.0
    }

    fn tracer(&self) -> &vdm_trace::Tracer {
        &self.tracer
    }
}

/// The sans-io per-host state machine: an [`OverlayAgent`] plus the
/// buffered io it runs against. Feed it [`Input`]s stamped with the
/// caller's monotonic clock, act on the [`Output`]s it returns.
pub struct ProtocolCore<A: OverlayAgent> {
    me: HostId,
    agent: A,
    io: BufIo,
    stats: RunStats,
    loss_probe_noise: f64,
}

impl<A: OverlayAgent> ProtocolCore<A> {
    /// Wrap `agent` as the state machine for host `me` in a session of
    /// `num_hosts` hosts. `seed` derives the node-private RNG (jitter,
    /// probe noise); two cores with the same seed behave identically.
    pub fn new(me: HostId, agent: A, num_hosts: usize, seed: u64) -> Self {
        Self {
            me,
            agent,
            io: BufIo {
                now: SimTime::ZERO,
                out: VecDeque::new(),
                // Decorrelate per-node streams the same way the engine
                // decorrelates per-shard ones: fold the host id in.
                rng: StdRng::seed_from_u64(seed ^ (0x6e6f_6465u64 << 32) ^ u64::from(me.0)),
                tracer: vdm_trace::Tracer::disabled(),
            },
            stats: RunStats::new(num_hosts),
            loss_probe_noise: 0.0,
        }
    }

    /// Install an enabled tracer (events are stamped with core time).
    pub fn set_tracer(&mut self, tracer: vdm_trace::Tracer) {
        self.io.tracer = tracer;
    }

    /// Set the loss-probe noise amplitude (loss-based metrics only).
    pub fn set_loss_probe_noise(&mut self, noise: f64) {
        self.loss_probe_noise = noise;
    }

    /// Install bootstrap-discovery state before the first
    /// [`Input::Join`] (mirrors the driver's pre-join hook).
    pub fn configure_discovery(&mut self, cfg: &crate::discovery::DiscoveryConfig, now: SimTime) {
        self.agent.configure_discovery(cfg, now);
    }

    /// Advance the clock to `now` and apply `input`, returning the
    /// effects to perform. Time never moves backwards: a stale `now`
    /// (possible when a runtime maps a stepped wall clock) is clamped
    /// to the high-water mark so timer arithmetic stays monotonic.
    pub fn handle(&mut self, now: SimTime, input: Input) -> impl Iterator<Item = Output> + '_ {
        self.io.now = self.io.now.max(now);
        let mut ctx = Ctx {
            me: self.me,
            io: &mut self.io,
            stats: &mut self.stats,
            loss_probe_noise: self.loss_probe_noise,
        };
        match input {
            Input::Join => self.agent.on_join_cmd(&mut ctx),
            Input::Leave => self.agent.on_leave_cmd(&mut ctx),
            Input::Packet { from, msg } => self.agent.on_msg(&mut ctx, from, msg),
            Input::Timer { token } => self.agent.on_timer(&mut ctx, token),
            Input::EmitData { seq } => {
                // The driver counts emitted chunks at the session level;
                // standalone runtimes have no driver, so count here.
                ctx.stats.source_chunks += 1;
                self.agent.emit_data(&mut ctx, seq);
            }
        }
        self.io.out.drain(..)
    }

    /// This node's host id.
    pub fn host(&self) -> HostId {
        self.me
    }

    /// Core time (high-water mark of the `now` values seen).
    pub fn now(&self) -> SimTime {
        self.io.now
    }

    /// The wrapped agent, for read-side queries (parent, children,
    /// connectivity).
    pub fn agent(&self) -> &A {
        &self.agent
    }

    /// The per-node run statistics the agent accumulated.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use vdm_netsim::{LatencySpace, Underlay};

    /// Counts `path_loss` calls into a two-host latency space.
    struct Counting(LatencySpace, AtomicU64);

    impl Underlay for Counting {
        fn num_hosts(&self) -> usize {
            self.0.num_hosts()
        }
        fn rtt_ms(&self, a: HostId, b: HostId) -> f64 {
            self.0.rtt_ms(a, b)
        }
        fn path_loss(&self, a: HostId, b: HostId) -> f64 {
            self.1.fetch_add(1, Ordering::Relaxed);
            self.0.path_loss(a, b)
        }
        fn path_edges(&self, _: HostId, _: HostId) -> Option<Vec<vdm_topology::EdgeId>> {
            None
        }
    }

    /// VDM-L's `estimate_loss` probes scattered walk candidates; it
    /// goes to the underlay every time and neither fills nor reads the
    /// engine's per-sender data-path memo.
    #[test]
    fn engine_loss_probes_bypass_the_data_path_memo() {
        let rtt = vec![vec![0.0, 10.0], vec![10.0, 0.0]];
        let space = LatencySpace::from_rtt_matrix(&rtt).with_uniform_loss(0.2);
        let u = Arc::new(Counting(space, AtomicU64::new(0)));
        let mut eng: Engine<Msg> = Engine::new(u.clone(), 1);
        let (a, b) = (HostId(0), HostId(1));
        let calls = || u.1.load(Ordering::Relaxed);
        for _ in 0..50 {
            assert_eq!(CoreIo::path_loss(&mut eng, a, b), 0.2_f32 as f64);
        }
        assert_eq!(calls(), 50);
        // The probes left no entry behind: the first chunk still asks,
        // the second does not.
        eng.send_msg(a, b, Msg::Data { seq: 0 }, SendClass::Data);
        eng.send_msg(a, b, Msg::Data { seq: 1 }, SendClass::Data);
        assert_eq!(calls(), 51);
        // And a filled memo does not answer probes.
        CoreIo::path_loss(&mut eng, a, b);
        assert_eq!(calls(), 52);
    }
}
