//! The callback context: what an agent may touch while it handles one
//! input.

use crate::core::CoreIo;
use crate::msg::Msg;
use crate::stats::RunStats;
use rand::Rng;
use vdm_netsim::{HostId, SendClass, SimTime};

/// Everything an agent may touch during a callback.
pub struct Ctx<'a> {
    /// The agent's own host id.
    pub me: HostId,
    /// The effect sink (time, sends, timers, run RNG): the event
    /// engine in simulation, a buffered queue under a real runtime
    /// (see [`crate::core`]).
    pub io: &'a mut dyn CoreIo,
    /// Shared run statistics.
    pub stats: &'a mut RunStats,
    /// Noise amplitude for loss estimates (the driver copies
    /// [`crate::driver::DriverConfig::loss_probe_noise`] here).
    pub loss_probe_noise: f64,
}

impl Ctx<'_> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.io.now()
    }

    /// Send a message (control or data, classified automatically).
    pub fn send(&mut self, to: HostId, msg: Msg) {
        if to == self.me {
            return;
        }
        let class = if msg.is_data() {
            SendClass::Data
        } else {
            SendClass::Control
        };
        self.io.send_msg(self.me, to, msg, class);
    }

    /// Arm a timer for this host.
    pub fn timer(&mut self, delay: SimTime, token: u64) {
        self.io.set_timer(self.me, delay, token);
    }

    /// Emit a structured trace event stamped with the current
    /// simulation time. No-op (the closure never runs) unless the
    /// io carries an enabled [`vdm_trace::Tracer`].
    #[inline]
    pub fn trace(&self, f: impl FnOnce() -> vdm_trace::TraceEvent) {
        self.io.tracer().emit(self.io.now().0, f);
    }

    /// Estimate the path loss probability toward `to` (models a probe
    /// train: true path loss plus bounded uniform noise). Used only by
    /// loss-based virtual metrics (Chapter 4); the paper likewise
    /// obtains loss estimates from a measurement service in simulation.
    pub fn estimate_loss(&mut self, to: HostId) -> f64 {
        let p = self.io.path_loss(self.me, to);
        if self.loss_probe_noise > 0.0 {
            let n = self.loss_probe_noise;
            let noise = self.io.rng().gen_range(-n..n);
            (p + noise).clamp(0.0, 0.99)
        } else {
            p
        }
    }
}
