//! The discrete-event engine.
//!
//! A single-threaded, deterministic event loop: the driver (in
//! `vdm-overlay`) implements [`World`] and receives callbacks for message
//! deliveries, host timers, and driver-scheduled external events (joins,
//! leaves, measurements). All ties are broken by a monotonically
//! increasing sequence number, so runs are bit-reproducible.
//!
//! Message semantics follow the paper's setup:
//!
//! * [`SendClass::Control`] messages (probes, join/connection messages,
//!   leave notifications) are delivered reliably — the protocols exchange
//!   them over connection-oriented transport, and the paper's loss metric
//!   counts only data packets (Eq. 3.7).
//! * [`SendClass::Data`] packets (stream chunks) are dropped independently
//!   with the underlay's path-loss probability, and of course never reach
//!   anyone when a node has no parent — churn-induced outage, the dominant
//!   loss term in Chapter 3 ("all packet loss are caused by disconnection
//!   of churn").

use crate::dataplane::DataPlane;
use crate::faults::FaultPlan;
use crate::queue::EventQueue;
use crate::shard::{OutboundEvent, ShardCtx};
use crate::time::SimTime;
use crate::underlay::{HostId, Underlay};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::Arc;
use vdm_trace::{TraceEvent, Tracer};

/// Class of a message for loss handling and overhead accounting
/// (Eq. 3.6: overhead = maintenance messages / data messages).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SendClass {
    /// Protocol maintenance traffic; reliable.
    Control,
    /// Stream payload; subject to path loss.
    Data,
}

/// Callbacks the engine drives.
pub trait World {
    /// Message type exchanged between hosts.
    type Msg;

    /// A message arrived at `to`.
    fn on_deliver(&mut self, eng: &mut Engine<Self::Msg>, to: HostId, from: HostId, msg: Self::Msg);

    /// A host timer fired.
    fn on_timer(&mut self, eng: &mut Engine<Self::Msg>, host: HostId, token: u64);

    /// A driver-scheduled external event fired.
    fn on_external(&mut self, eng: &mut Engine<Self::Msg>, token: u64);
}

enum EventKind<M> {
    Deliver {
        to: HostId,
        from: HostId,
        msg: M,
    },
    /// A data packet crossing physical links hop by hop (queueing data
    /// plane only). Boxed: only that plane schedules it, and inline it
    /// would size every queued event for its path and cursor.
    Hop(Box<Hop<M>>),
    Timer {
        host: HostId,
        token: u64,
    },
    External {
        token: u64,
    },
}

/// A packet in flight on the queueing data plane.
struct Hop<M> {
    to: HostId,
    from: HostId,
    msg: M,
    path: std::sync::Arc<[vdm_topology::EdgeId]>,
    /// Index of the link the packet is about to enter.
    next: usize,
}

/// Destinations remembered per sender by the path-loss memo: a host's
/// children (and the odd repair target) fit with room to spare.
const LOSS_MEMO_WAYS: usize = 16;

/// Traffic counters, reset-able by the driver between measurement slots.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Control messages sent.
    pub control_sent: u64,
    /// Data packets sent (per overlay hop).
    pub data_sent: u64,
    /// Data packets dropped by path loss.
    pub data_dropped: u64,
    /// Data packets dropped by router buffer overflow (queueing data
    /// plane only).
    pub data_congestion_dropped: u64,
    /// Messages delivered (any class).
    pub delivered: u64,
    /// Messages dropped by the fault layer (blackouts and injected
    /// message drops; any class).
    pub faults_dropped: u64,
    /// Messages duplicated by the fault layer.
    pub faults_duplicated: u64,
    /// Messages given extra delay by the fault layer (reordering or
    /// delay spikes).
    pub faults_delayed: u64,
}

/// The event engine. Generic over the message type `M`.
pub struct Engine<M> {
    now: SimTime,
    /// Pending events, popped in `(at, scheduling order)`.
    queue: EventQueue<EventKind<M>>,
    underlay: Arc<dyn Underlay + Send + Sync>,
    /// Per sender, `(to, underlay.path_loss(sender, to))` for the last
    /// few destinations it sent data to, oldest first. The underlay is a
    /// deterministic function of its construction inputs and everything
    /// time- or RNG-dependent (faults, the loss draw, the hop path) is
    /// applied after this lookup, so entries never go stale. Rows appear
    /// on a host's first data send.
    loss_memo: Vec<Vec<(HostId, f64)>>,
    rng: StdRng,
    counters: Counters,
    events_processed: u64,
    data_plane: Option<DataPlane>,
    fault_plan: Option<FaultPlan>,
    tracer: Tracer,
    /// Present only when this engine is one shard of a
    /// [`crate::shard::ShardedEngine`] with `S > 1`: sends to hosts
    /// owned by other shards are diverted into per-destination outboxes
    /// instead of the local queue.
    shard: Option<ShardCtx<M>>,
}

impl<M> Engine<M> {
    /// New engine over `underlay`, with all randomness derived from
    /// `seed`. Picks up the process-global [`Tracer`] (disabled unless
    /// a trace run installed one via `vdm_trace::set_global`).
    pub fn new(underlay: Arc<dyn Underlay + Send + Sync>, seed: u64) -> Self {
        Self {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            underlay,
            loss_memo: Vec::new(),
            rng: StdRng::seed_from_u64(seed ^ 0x656e_6769_6e65),
            counters: Counters::default(),
            events_processed: 0,
            data_plane: None,
            fault_plan: None,
            tracer: vdm_trace::global(),
            shard: None,
        }
    }

    /// The engine's trace handle. Protocol agents emit structured
    /// events through this; it is disabled (a no-op) by default.
    #[inline]
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Replace the engine's tracer (tests use a ring-buffer tracer
    /// without touching the process-global one).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Install a fault-injection schedule. The plan's decisions draw on
    /// its own seeded RNG, so the engine's stream — and therefore any run
    /// without a plan — is unaffected.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = Some(plan);
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// Enable the NS-2-style queueing data plane: data packets pay
    /// serialization and queueing on every physical link of their route
    /// and are dropped on buffer overflow. Requires a routed underlay
    /// (one with physical links).
    pub fn enable_data_plane(&mut self) {
        assert!(
            self.shard.is_none(),
            "the queueing data plane is not supported on a sharded engine \
             (hop events cannot cross shard boundaries)"
        );
        let specs = self.underlay.link_specs();
        assert!(
            !specs.is_empty(),
            "the queueing data plane needs a routed underlay"
        );
        self.data_plane = Some(DataPlane::new(specs));
    }

    /// The data plane, if enabled (diagnostics).
    pub fn data_plane(&self) -> Option<&DataPlane> {
        self.data_plane.as_ref()
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The underlay messages travel through.
    pub fn underlay(&self) -> &(dyn Underlay + Send + Sync) {
        &*self.underlay
    }

    /// Traffic counters since construction or the last
    /// [`Engine::take_counters`].
    pub fn counters(&self) -> Counters {
        self.counters
    }

    /// Read and reset the traffic counters.
    pub fn take_counters(&mut self) -> Counters {
        std::mem::take(&mut self.counters)
    }

    /// Total events processed (for engine benchmarks).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Engine-owned RNG (used by drivers for scenario randomness so that
    /// a single seed governs the whole run).
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    fn push(&mut self, at: SimTime, kind: EventKind<M>) {
        self.queue.push(at.max(self.now), kind);
    }

    /// `underlay.path_loss(from, to)` for a data packet, through the
    /// per-sender memo.
    fn data_path_loss(&mut self, from: HostId, to: HostId) -> f64 {
        if from.idx() >= self.loss_memo.len() {
            self.loss_memo.resize_with(from.idx() + 1, Vec::new);
        }
        let row = &mut self.loss_memo[from.idx()];
        if let Some(&(_, p)) = row.iter().find(|&&(h, _)| h == to) {
            return p;
        }
        let p = self.underlay.path_loss(from, to);
        if row.len() == LOSS_MEMO_WAYS {
            row.remove(0);
        }
        row.push((to, p));
        p
    }

    /// Schedule a delivery, diverting it into the cross-shard outbox when
    /// the destination lives on another shard.
    fn deliver_or_forward(&mut self, at: SimTime, to: HostId, from: HostId, msg: M) {
        if let Some(ctx) = self.shard.as_mut() {
            let dst = ctx.map.shard_of(to);
            if dst != ctx.id {
                let seq = ctx.sent;
                ctx.sent += 1;
                ctx.outbox[dst as usize].push(OutboundEvent {
                    at,
                    to,
                    from,
                    msg,
                    seq,
                });
                return;
            }
        }
        self.push(at, EventKind::Deliver { to, from, msg });
    }

    /// Make this engine shard `ctx.id` of a sharded run (see
    /// `crate::shard`). Must happen before any event is scheduled.
    pub(crate) fn install_shard_ctx(&mut self, ctx: ShardCtx<M>) {
        assert!(
            self.queue.is_empty() && self.events_processed == 0,
            "install shards first"
        );
        assert!(
            self.data_plane.is_none(),
            "the queueing data plane is not supported on a sharded engine"
        );
        self.shard = Some(ctx);
    }

    /// Drain the per-destination cross-shard outboxes (empty between
    /// windows; only meaningful on a sharded engine).
    pub(crate) fn take_outboxes(&mut self) -> Vec<Vec<OutboundEvent<M>>> {
        let ctx = self.shard.as_mut().expect("not a sharded engine");
        let shards = ctx.outbox.len();
        std::mem::replace(&mut ctx.outbox, (0..shards).map(|_| Vec::new()).collect())
    }

    /// Inject a delivery that originated on another shard. The lookahead
    /// window contract guarantees `at` has not passed yet; violating it
    /// would silently warp the event forward (`push` clamps), so it is a
    /// hard error instead.
    pub(crate) fn inject_remote(&mut self, at: SimTime, to: HostId, from: HostId, msg: M) {
        assert!(
            at >= self.now,
            "cross-shard event at {at} is before the local clock {} — \
             the lookahead bound was violated",
            self.now
        );
        self.push(at, EventKind::Deliver { to, from, msg });
    }

    /// Time of the earliest pending event, if any. Takes `&mut self`
    /// because the queue loads that event's time bucket to answer.
    pub fn next_event_at(&mut self) -> Option<SimTime> {
        self.queue.peek()
    }

    /// Send `msg` from `from` to `to`. Control messages are reliable;
    /// data packets may be dropped by path loss. With a fault plan
    /// installed, messages of either class may additionally be dropped,
    /// duplicated or delayed by the fault layer.
    ///
    /// # Return contract
    ///
    /// Returns `true` iff the *primary* copy was scheduled: a fault drop
    /// or a path-loss drop of the original returns `false`. On multi-hop
    /// data-plane routes "scheduled" means the packet entered its first
    /// link — a later congestion drop surfaces only in
    /// [`Counters::data_congestion_dropped`]. A fault-layer duplicate is
    /// an independent copy: its loss and congestion fate is sampled
    /// separately and shows up exclusively in the counters, never in the
    /// return value (the original may be reported dropped while its
    /// duplicate still arrives, and vice versa).
    pub fn send(&mut self, from: HostId, to: HostId, msg: M, class: SendClass) -> bool
    where
        M: Clone,
    {
        assert!(from != to, "host {from} sending to itself");
        #[cfg(debug_assertions)]
        if let Some(ctx) = self.shard.as_ref() {
            debug_assert_eq!(
                ctx.map.shard_of(from),
                ctx.id,
                "host {from} sent from shard {} but lives elsewhere",
                ctx.id
            );
        }
        match class {
            SendClass::Control => self.counters.control_sent += 1,
            SendClass::Data => self.counters.data_sent += 1,
        }
        // Fault layer first: blackouts and message faults apply to both
        // classes — surviving unreliable *control* delivery is exactly
        // what chaos runs exercise. Without a plan this is one branch
        // and consumes no randomness, so chaos-off runs are untouched.
        let mut fault_extra = SimTime::ZERO;
        let mut fault_dup = None;
        if let Some(plan) = self.fault_plan.as_mut() {
            let fate = plan.fate(self.now, from, to);
            if fate.dropped {
                self.counters.faults_dropped += 1;
                if class == SendClass::Data {
                    self.counters.data_dropped += 1;
                }
                self.tracer.emit(self.now.0, || TraceEvent::FaultApplied {
                    fate: "drop",
                    from: from.0,
                    to: to.0,
                    extra_us: 0,
                });
                return false;
            }
            if fate.extra_delay > SimTime::ZERO {
                self.counters.faults_delayed += 1;
                fault_extra = fate.extra_delay;
                self.tracer.emit(self.now.0, || TraceEvent::FaultApplied {
                    fate: "delay",
                    from: from.0,
                    to: to.0,
                    extra_us: fate.extra_delay.0,
                });
            }
            if let Some(extra) = fate.duplicate {
                self.counters.faults_duplicated += 1;
                fault_dup = Some(extra);
                self.tracer.emit(self.now.0, || TraceEvent::FaultApplied {
                    fate: "dup",
                    from: from.0,
                    to: to.0,
                    extra_us: extra.0,
                });
            }
        }
        let mut primary_lost = false;
        if class == SendClass::Data {
            let p = self.data_path_loss(from, to);
            // Each copy crosses the lossy path independently: sample the
            // original's fate, then — only when the fault layer produced
            // a duplicate — the duplicate's. Chaos-off runs draw exactly
            // one sample, exactly as before.
            primary_lost = p > 0.0 && self.rng.gen::<f64>() < p;
            if fault_dup.is_some() && p > 0.0 && self.rng.gen::<f64>() < p {
                self.counters.data_dropped += 1;
                fault_dup = None;
            }
            if primary_lost {
                self.counters.data_dropped += 1;
                if fault_dup.is_none() {
                    return false;
                }
            }
            // Queueing data plane: route hop by hop over the link
            // calendars (one event per link crossing, so every link is
            // charged in true arrival order). A fault-injected extra
            // delay shifts the copy's entry into its first link;
            // duplicates enter separately and pay queueing like any
            // other packet. The duplicate's own congestion fate is
            // deliberately not reflected in the return value (see the
            // return contract); it lands in the counters via
            // `advance_hop`.
            if self.data_plane.is_some() {
                if let Some(path) = self.underlay.path_edges(from, to) {
                    let path: std::sync::Arc<[vdm_topology::EdgeId]> = path.into();
                    if let Some(extra) = fault_dup {
                        let _ = self.enter_hop_path(
                            to,
                            from,
                            msg.clone(),
                            path.clone(),
                            fault_extra + extra,
                        );
                    }
                    if primary_lost {
                        return false;
                    }
                    return self.enter_hop_path(to, from, msg, path, fault_extra);
                }
            }
        }
        let mut delay = SimTime::from_ms(self.underlay.sample_one_way_ms(from, to, &mut self.rng));
        if let Some(plan) = self.fault_plan.as_ref() {
            let f = plan.slowdown_factor(self.now, to);
            if f != 1.0 {
                let base = delay;
                delay = SimTime::from_ms(delay.as_ms() * f);
                self.tracer.emit(self.now.0, || TraceEvent::FaultApplied {
                    fate: "slowdown",
                    from: from.0,
                    to: to.0,
                    extra_us: delay.saturating_sub(base).0,
                });
            }
        }
        let at = self.now + delay + fault_extra;
        if let Some(extra) = fault_dup {
            self.deliver_or_forward(at + extra, to, from, msg.clone());
        }
        if primary_lost {
            // Only the duplicate survived path loss; it was scheduled
            // above, but the primary send still reports failure.
            return false;
        }
        self.deliver_or_forward(at, to, from, msg);
        true
    }

    /// Enter the queueing data plane for one packet copy. With no extra
    /// delay the packet transits the first link immediately — preserving
    /// event order (and byte-identity) for fault-free runs; with a
    /// fault-injected offset it enters link 0 at `now + offset` via a
    /// [`EventKind::Hop`] event, so the extra delay the fault layer
    /// charged (and counted in [`Counters::faults_delayed`]) is actually
    /// paid on the hop path too.
    fn enter_hop_path(
        &mut self,
        to: HostId,
        from: HostId,
        msg: M,
        path: std::sync::Arc<[vdm_topology::EdgeId]>,
        offset: SimTime,
    ) -> bool {
        let hop = Box::new(Hop {
            to,
            from,
            msg,
            path,
            next: 0,
        });
        if offset == SimTime::ZERO {
            self.advance_hop(hop)
        } else {
            self.push(self.now + offset, EventKind::Hop(hop));
            true
        }
    }

    /// Move a data packet into link `path[next]` at the current time;
    /// schedules the next hop (the same box, one link on) or the final
    /// delivery, and returns whether the packet survived.
    fn advance_hop(&mut self, mut hop: Box<Hop<M>>) -> bool {
        let dp = self
            .data_plane
            .as_mut()
            .expect("hop events need a data plane");
        match dp.transit_hop(self.now, hop.path[hop.next]) {
            Ok(arrival) => {
                hop.next += 1;
                if hop.next == hop.path.len() {
                    let Hop { to, from, msg, .. } = *hop;
                    self.push(arrival, EventKind::Deliver { to, from, msg });
                } else {
                    self.push(arrival, EventKind::Hop(hop));
                }
                true
            }
            Err(_) => {
                self.counters.data_dropped += 1;
                self.counters.data_congestion_dropped += 1;
                false
            }
        }
    }

    /// Schedule a timer for `host`, `delay` from now, carrying `token`.
    pub fn set_timer(&mut self, host: HostId, delay: SimTime, token: u64) {
        let at = self.now + delay;
        self.push(at, EventKind::Timer { host, token });
    }

    /// Schedule a driver event at absolute time `at`.
    pub fn schedule_external(&mut self, at: SimTime, token: u64) {
        self.push(at, EventKind::External { token });
    }

    /// Run until the queue is exhausted or simulated time would exceed
    /// `until` (events at exactly `until` are processed). Returns the
    /// number of events processed by this call.
    pub fn run<W: World<Msg = M>>(&mut self, world: &mut W, until: SimTime) -> u64 {
        let mut n = 0;
        while let Some((at, kind)) = self.queue.pop(until) {
            assert!(at >= self.now, "time went backwards");
            self.now = at;
            self.events_processed += 1;
            n += 1;
            match kind {
                EventKind::Deliver { to, from, msg } => {
                    self.counters.delivered += 1;
                    world.on_deliver(self, to, from, msg);
                }
                EventKind::Hop(hop) => {
                    self.advance_hop(hop);
                }
                EventKind::Timer { host, token } => world.on_timer(self, host, token),
                EventKind::External { token } => world.on_external(self, token),
            }
        }
        // Advance the clock to `until` so subsequent relative scheduling
        // is anchored correctly.
        if until > self.now && until != SimTime::MAX {
            self.now = until;
        }
        n
    }

    /// Run until the queue is empty.
    pub fn run_to_idle<W: World<Msg = M>>(&mut self, world: &mut W) -> u64 {
        self.run(world, SimTime::MAX)
    }

    /// True if no events are pending.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::underlay::LatencySpace;
    use proptest::{prop_assert, prop_assert_eq, proptest};

    fn two_host_space(loss: f64) -> Arc<dyn Underlay + Send + Sync> {
        let rtt = vec![vec![0.0, 10.0], vec![10.0, 0.0]];
        Arc::new(LatencySpace::from_rtt_matrix(&rtt).with_uniform_loss(loss))
    }

    /// Every queued event is sized by the largest variant. With the
    /// data plane's `Hop` boxed, a 64-byte message plus two host ids
    /// and the tag is the whole of it.
    #[test]
    fn queued_events_are_sized_by_deliver() {
        assert!(std::mem::size_of::<EventKind<[u64; 8]>>() <= 80);
    }

    /// Ping-pong world: every delivery bounces the counter back until
    /// it reaches zero.
    struct PingPong {
        bounces_left: u32,
        deliveries: Vec<(SimTime, HostId)>,
        timers: Vec<(SimTime, u64)>,
        externals: Vec<(SimTime, u64)>,
    }

    impl World for PingPong {
        type Msg = u32;
        fn on_deliver(&mut self, eng: &mut Engine<u32>, to: HostId, from: HostId, msg: u32) {
            self.deliveries.push((eng.now(), to));
            if msg == 999 {
                return; // background data packet, not part of the ping-pong
            }
            assert_eq!(msg, self.bounces_left);
            if self.bounces_left > 0 {
                self.bounces_left -= 1;
                eng.send(to, from, self.bounces_left, SendClass::Control);
            }
        }
        fn on_timer(&mut self, eng: &mut Engine<u32>, _host: HostId, token: u64) {
            self.timers.push((eng.now(), token));
        }
        fn on_external(&mut self, eng: &mut Engine<u32>, token: u64) {
            self.externals.push((eng.now(), token));
        }
    }

    fn fresh_world(bounces: u32) -> PingPong {
        PingPong {
            bounces_left: bounces,
            deliveries: Vec::new(),
            timers: Vec::new(),
            externals: Vec::new(),
        }
    }

    #[test]
    fn ping_pong_latency_accumulates() {
        let mut eng = Engine::new(two_host_space(0.0), 1);
        let mut w = fresh_world(3);
        eng.send(HostId(0), HostId(1), 3, SendClass::Control);
        eng.run_to_idle(&mut w);
        // 4 deliveries at 5, 10, 15, 20 ms (one-way = rtt/2 = 5 ms).
        let times: Vec<f64> = w.deliveries.iter().map(|(t, _)| t.as_ms()).collect();
        assert_eq!(times, vec![5.0, 10.0, 15.0, 20.0]);
        assert_eq!(w.deliveries[0].1, HostId(1));
        assert_eq!(w.deliveries[1].1, HostId(0));
        assert_eq!(eng.counters().control_sent, 4);
        assert_eq!(eng.counters().delivered, 4);
        assert!(eng.is_idle());
    }

    #[test]
    fn run_until_respects_horizon() {
        let mut eng = Engine::new(two_host_space(0.0), 1);
        let mut w = fresh_world(100);
        eng.send(HostId(0), HostId(1), 100, SendClass::Control);
        let n = eng.run(&mut w, SimTime::from_ms(12.0));
        assert_eq!(n, 2); // deliveries at 5 and 10 ms only
        assert_eq!(eng.now(), SimTime::from_ms(12.0));
        assert!(!eng.is_idle());
    }

    #[test]
    fn timers_and_externals_fire_in_order() {
        let mut eng = Engine::new(two_host_space(0.0), 1);
        let mut w = fresh_world(0);
        eng.schedule_external(SimTime::from_ms(7.0), 70);
        eng.set_timer(HostId(0), SimTime::from_ms(3.0), 30);
        eng.set_timer(HostId(1), SimTime::from_ms(3.0), 31);
        eng.run_to_idle(&mut w);
        assert_eq!(w.timers.len(), 2);
        // Same-time events fire in scheduling order.
        assert_eq!(w.timers[0].1, 30);
        assert_eq!(w.timers[1].1, 31);
        assert_eq!(w.externals, vec![(SimTime::from_ms(7.0), 70)]);
    }

    #[test]
    fn data_loss_is_sampled_control_is_reliable() {
        let mut eng = Engine::new(two_host_space(0.5), 42);
        let mut w = fresh_world(0);
        let mut delivered = 0;
        for _ in 0..1000 {
            if eng.send(HostId(0), HostId(1), 0, SendClass::Data) {
                delivered += 1;
            }
        }
        eng.run_to_idle(&mut w);
        let c = eng.counters();
        assert_eq!(c.data_sent, 1000);
        assert_eq!(c.data_dropped, 1000 - delivered);
        // 50 % loss: expect roughly half through.
        assert!((350..=650).contains(&delivered), "delivered {delivered}");
        // Control is never dropped.
        for _ in 0..100 {
            assert!(eng.send(HostId(0), HostId(1), 0, SendClass::Control));
        }
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = |seed| {
            let mut eng = Engine::new(two_host_space(0.3), seed);
            let mut w = fresh_world(20);
            eng.send(HostId(0), HostId(1), 20, SendClass::Control);
            for i in 0..50 {
                eng.send(HostId(0), HostId(1), 999, SendClass::Data);
                eng.set_timer(HostId(0), SimTime::from_ms(i as f64), i);
            }
            eng.run_to_idle(&mut w);
            (w.deliveries, w.timers, eng.counters())
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).2, run(8).2);
    }

    #[test]
    fn take_counters_resets() {
        let mut eng = Engine::new(two_host_space(0.0), 1);
        eng.send(HostId(0), HostId(1), 0, SendClass::Control);
        assert_eq!(eng.take_counters().control_sent, 1);
        assert_eq!(eng.counters().control_sent, 0);
    }

    #[test]
    #[should_panic(expected = "sending to itself")]
    fn self_send_rejected() {
        let mut eng = Engine::new(two_host_space(0.0), 1);
        eng.send(HostId(0), HostId(0), 0u32, SendClass::Control);
    }

    #[test]
    fn empty_fault_plan_leaves_trace_identical() {
        let run = |with_plan: bool| {
            let mut eng = Engine::new(two_host_space(0.3), 7);
            if with_plan {
                eng.set_fault_plan(crate::faults::FaultPlan::new(99));
            }
            let mut w = fresh_world(20);
            eng.send(HostId(0), HostId(1), 20, SendClass::Control);
            for i in 0..50 {
                eng.send(HostId(0), HostId(1), 999, SendClass::Data);
                eng.set_timer(HostId(0), SimTime::from_ms(i as f64), i);
            }
            eng.run_to_idle(&mut w);
            (w.deliveries, w.timers, eng.counters())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn fault_layer_drops_control_during_blackout() {
        use crate::faults::{FaultEvent, FaultPlan};
        let mut eng = Engine::new(two_host_space(0.0), 1);
        eng.set_fault_plan(FaultPlan::with_events(
            1,
            vec![FaultEvent::LinkFlap {
                a: HostId(0),
                b: HostId(1),
                from: SimTime::ZERO,
                until: SimTime::from_secs(1),
            }],
        ));
        let mut w = fresh_world(0);
        assert!(!eng.send(HostId(0), HostId(1), 999, SendClass::Control));
        eng.run_to_idle(&mut w);
        assert!(w.deliveries.is_empty());
        assert_eq!(eng.counters().faults_dropped, 1);
    }

    #[test]
    fn fault_layer_duplicates_messages() {
        use crate::faults::{FaultEvent, FaultPlan};
        let mut eng = Engine::new(two_host_space(0.0), 1);
        eng.set_fault_plan(FaultPlan::with_events(
            1,
            vec![FaultEvent::MsgFaults {
                from: SimTime::ZERO,
                until: SimTime::from_secs(10),
                drop_p: 0.0,
                dup_p: 1.0,
                reorder_p: 0.0,
                reorder_max: SimTime::from_ms(50.0),
                spike_p: 0.0,
                spike: SimTime::ZERO,
            }],
        ));
        let mut w = fresh_world(0);
        assert!(eng.send(HostId(0), HostId(1), 999, SendClass::Control));
        eng.run_to_idle(&mut w);
        assert_eq!(w.deliveries.len(), 2);
        assert_eq!(eng.counters().faults_duplicated, 1);
        assert_eq!(eng.counters().delivered, 2);
    }

    #[test]
    fn slowdown_stretches_inbound_delay() {
        use crate::faults::{FaultEvent, FaultPlan};
        let mut eng = Engine::new(two_host_space(0.0), 1);
        eng.set_fault_plan(FaultPlan::with_events(
            1,
            vec![FaultEvent::Slowdown {
                host: HostId(1),
                factor: 10.0,
                from: SimTime::ZERO,
                until: SimTime::from_secs(1),
            }],
        ));
        let mut w = fresh_world(0);
        eng.send(HostId(0), HostId(1), 999, SendClass::Control);
        eng.run_to_idle(&mut w);
        // One-way latency is 5 ms; the slowdown makes it 50 ms.
        assert_eq!(w.deliveries, vec![(SimTime::from_ms(50.0), HostId(1))]);
    }

    /// `host0 — r0 — host1`, 1 ms per link, shared bandwidth setting.
    fn routed_chain(bandwidth_mbps: f64) -> Arc<dyn Underlay + Send + Sync> {
        use vdm_topology::graph::{LinkAttrs, NodeKind};
        let mut g = vdm_topology::Graph::new();
        let h0 = g.add_node(NodeKind::Host);
        let r0 = g.add_node(NodeKind::Stub);
        let h1 = g.add_node(NodeKind::Host);
        let attrs = LinkAttrs {
            delay_ms: 1.0,
            loss: 0.0,
            bandwidth_mbps,
        };
        g.add_edge(h0, r0, attrs);
        g.add_edge(r0, h1, attrs);
        Arc::new(crate::underlay::RoutedUnderlay::new(g, vec![h0, h1]))
    }

    fn msg_faults(
        drop_p: f64,
        dup_p: f64,
        spike_p: f64,
        spike: SimTime,
    ) -> crate::faults::FaultPlan {
        crate::faults::FaultPlan::with_events(
            1,
            vec![crate::faults::FaultEvent::MsgFaults {
                from: SimTime::ZERO,
                until: SimTime::from_secs(100),
                drop_p,
                dup_p,
                reorder_p: 0.0,
                // Zero: duplicates get no extra delay of their own, so
                // the hop-path tests below control entry order exactly.
                reorder_max: SimTime::ZERO,
                spike_p,
                spike,
            }],
        )
    }

    /// Regression (ISSUE 9, bugfix 1): a fault-injected delay spike on a
    /// data packet taking the queueing hop path used to be *counted*
    /// (`faults_delayed`, `FaultApplied{fate:"delay"}`) but never
    /// *applied* — the packet entered its first link immediately.
    #[test]
    fn fault_delay_is_paid_on_the_data_plane_hop_path() {
        let mut eng = Engine::new(routed_chain(100.0), 1);
        eng.enable_data_plane();
        eng.set_fault_plan(msg_faults(0.0, 0.0, 1.0, SimTime::from_ms(100.0)));
        let mut w = fresh_world(0);
        assert!(eng.send(HostId(0), HostId(1), 999, SendClass::Data));
        eng.run_to_idle(&mut w);
        assert_eq!(eng.counters().faults_delayed, 1);
        assert_eq!(w.deliveries.len(), 1);
        let at = w.deliveries[0].0;
        // 100 ms spike + 2 × (1 ms propagation + 0.1 ms serialization).
        assert!(
            at >= SimTime::from_ms(100.0),
            "delivered at {at}: the spike was counted but not paid"
        );
        assert_eq!(at, SimTime::from_ms(102.2));
    }

    /// Regression (ISSUE 9, bugfix 2): on the non-data-plane path a
    /// fault duplicate used to share one path-loss sample with the
    /// original — when that sample dropped "the pair", only one
    /// `data_dropped` was recorded and the already-counted duplicate
    /// vanished without a trace. Copies now sample loss independently,
    /// so the books balance exactly:
    /// `delivered + data_dropped == data_sent + faults_duplicated`.
    #[test]
    fn duplicate_loss_is_sampled_per_copy() {
        let mut eng = Engine::new(two_host_space(0.5), 9);
        eng.set_fault_plan(msg_faults(0.0, 1.0, 0.0, SimTime::ZERO));
        let mut w = fresh_world(0);
        for _ in 0..400 {
            eng.send(HostId(0), HostId(1), 999, SendClass::Data);
        }
        eng.run_to_idle(&mut w);
        let c = eng.counters();
        assert_eq!(c.data_sent, 400);
        assert_eq!(c.faults_duplicated, 400);
        assert_eq!(
            c.delivered + c.data_dropped,
            c.data_sent + c.faults_duplicated,
            "a copy went missing from the books: {c:?}"
        );
        // 800 independent copies at 50 % loss: both extremes must occur.
        assert!(c.data_dropped > 0 && c.delivered > 0);
        assert!(
            (300..=500).contains(&c.delivered),
            "delivered {} of 800 copies at 50 % loss",
            c.delivered
        );
    }

    /// A duplicate may survive path loss when the original does not:
    /// `send` still reports the original's drop (return contract), but
    /// the duplicate is delivered.
    #[test]
    fn surviving_duplicate_outlives_lost_original() {
        let mut eng = Engine::new(two_host_space(0.5), 3);
        eng.set_fault_plan(msg_faults(0.0, 1.0, 0.0, SimTime::ZERO));
        let mut w = fresh_world(0);
        let mut orig_lost_dup_delivered = 0u64;
        for _ in 0..200 {
            let before = eng.counters().delivered;
            let ok = eng.send(HostId(0), HostId(1), 999, SendClass::Data);
            eng.run_to_idle(&mut w);
            let arrived = eng.counters().delivered - before;
            if !ok && arrived == 1 {
                orig_lost_dup_delivered += 1;
            }
        }
        // P(original lost, duplicate through) = 0.25 per send.
        assert!(
            orig_lost_dup_delivered > 10,
            "only {orig_lost_dup_delivered} duplicates outlived their lost original"
        );
    }

    /// Regression (ISSUE 9, bugfix 3): the duplicate's `advance_hop`
    /// outcome on the data-plane path is not part of `send`'s return
    /// value — by contract — but its congestion drop must land in the
    /// counters so delivered/dropped reconciliation still closes.
    #[test]
    fn duplicate_congestion_drops_land_in_counters() {
        // 0.1 Mbit/s → 100 ms serialization, twice the 50 ms buffer:
        // any packet that queues behind a whole packet is dropped.
        let mut eng = Engine::new(routed_chain(0.1), 1);
        eng.enable_data_plane();
        eng.set_fault_plan(msg_faults(0.0, 1.0, 0.0, SimTime::ZERO));
        let mut w = fresh_world(0);
        // The duplicate enters the first link ahead of the original, so
        // the original queues behind it and is dropped — reported by the
        // return value.
        assert!(!eng.send(HostId(0), HostId(1), 999, SendClass::Data));
        // Same instant, second exchange: this time the duplicate itself
        // is the queued copy. Its drop is invisible to the caller by
        // contract, but must be counted.
        assert!(!eng.send(HostId(0), HostId(1), 999, SendClass::Data));
        eng.run_to_idle(&mut w);
        let c = eng.counters();
        assert_eq!(c.data_sent, 2);
        assert_eq!(c.faults_duplicated, 2);
        assert_eq!(c.delivered, 1, "exactly the first duplicate gets through");
        assert_eq!(c.data_congestion_dropped, 3);
        assert_eq!(
            c.delivered + c.data_dropped,
            c.data_sent + c.faults_duplicated,
            "a congestion-dropped duplicate went missing: {c:?}"
        );
    }

    /// An underlay that counts `path_loss` calls per `(from, to)` pair.
    struct CountingUnderlay {
        inner: crate::underlay::RoutedUnderlay,
        loss_calls: std::sync::Mutex<std::collections::BTreeMap<(u32, u32), u64>>,
    }

    impl CountingUnderlay {
        fn loss_calls(&self) -> std::collections::BTreeMap<(u32, u32), u64> {
            self.loss_calls.lock().expect("no panic under lock").clone()
        }
    }

    impl Underlay for CountingUnderlay {
        fn num_hosts(&self) -> usize {
            self.inner.num_hosts()
        }
        fn rtt_ms(&self, a: HostId, b: HostId) -> f64 {
            self.inner.rtt_ms(a, b)
        }
        fn path_loss(&self, a: HostId, b: HostId) -> f64 {
            let mut calls = self.loss_calls.lock().expect("no panic under lock");
            *calls.entry((a.0, b.0)).or_default() += 1;
            self.inner.path_loss(a, b)
        }
        fn path_edges(&self, a: HostId, b: HostId) -> Option<Vec<vdm_topology::EdgeId>> {
            self.inner.path_edges(a, b)
        }
    }

    /// `underlay::tests::small_routed` grown into a star of `hosts`
    /// hosts, `host_i — r_i — hub`. Every `r_i — hub` link has its own
    /// delay and loss (every fourth one no loss at all), so a memo
    /// serving another pair's value shifts the drop pattern.
    fn lossy_star(hosts: u32) -> Arc<CountingUnderlay> {
        use vdm_topology::graph::{LinkAttrs, NodeKind};
        let mut g = vdm_topology::Graph::new();
        let hub = g.add_node(NodeKind::Stub);
        let mut host_nodes = Vec::new();
        for i in 0..hosts {
            let h = g.add_node(NodeKind::Host);
            let r = g.add_node(NodeKind::Stub);
            g.add_edge(h, r, LinkAttrs::delay(1.0));
            g.add_edge(
                r,
                hub,
                LinkAttrs {
                    delay_ms: 1.0 + f64::from(i),
                    loss: if i % 4 == 0 {
                        0.0
                    } else {
                        0.1 + 0.01 * f64::from(i)
                    },
                    bandwidth_mbps: 100.0,
                },
            );
            host_nodes.push(h);
        }
        Arc::new(CountingUnderlay {
            inner: crate::underlay::RoutedUnderlay::new(g, host_nodes),
            loss_calls: Default::default(),
        })
    }

    #[test]
    fn loss_memo_asks_the_underlay_once_per_pair() {
        let u = lossy_star(8);
        let mut eng = Engine::new(u.clone(), 5);
        // Host 1 is an interior node: parent 0 above, children 2..=5
        // below; 0 feeds it.
        let pairs = [(0, 1), (1, 2), (1, 3), (1, 4), (1, 5), (1, 0)];
        for i in 0..10_000 {
            let (from, to) = pairs[i % pairs.len()];
            eng.send(HostId(from), HostId(to), 999u32, SendClass::Data);
        }
        let calls = u.loss_calls();
        assert_eq!(calls.len(), pairs.len());
        assert!(calls.values().all(|&n| n == 1), "{calls:?}");
        assert_eq!(eng.counters().data_sent, 10_000);
    }

    /// A sender cycling through more destinations than a row holds
    /// keeps evicting — the worst case for the memo. The run must still
    /// be the one the engine's RNG stream and the un-memoised underlay
    /// predict, packet for packet.
    #[test]
    fn loss_memo_under_eviction_matches_the_direct_oracle() {
        let hosts = LOSS_MEMO_WAYS as u32 + 5;
        let (u, oracle) = (lossy_star(hosts), lossy_star(hosts));
        let seed = 11;
        let mut eng = Engine::new(u.clone(), seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x656e_6769_6e65);
        let mut w = fresh_world(0);
        let (mut expected, mut dropped) = (Vec::new(), 0);
        for i in 0..10_000u32 {
            // Three hot destinations interleaved with a scan over the
            // rest: the scan keeps evicting, the hot ones keep hitting
            // until it is their turn to go.
            let to = HostId(if i % 2 == 0 {
                1 + (i / 2) % 3
            } else {
                4 + (i / 2) % (hosts - 4)
            });
            let sent = eng.send(HostId(0), to, 999, SendClass::Data);
            let p = oracle.path_loss(HostId(0), to);
            let lost = p > 0.0 && rng.gen::<f64>() < p;
            assert_eq!(sent, !lost, "send {i} to {to}");
            if lost {
                dropped += 1;
            } else {
                let d = oracle.sample_one_way_ms(HostId(0), to, &mut rng);
                expected.push((SimTime::from_ms(d), to));
            }
        }
        eng.run_to_idle(&mut w);
        // Equal-time deliveries fire in send order: a stable sort of
        // the prediction is the engine's `(at, seq)` order.
        expected.sort_by_key(|&(at, _)| at);
        assert_eq!(w.deliveries, expected);
        let c = eng.counters();
        assert_eq!(c.data_dropped, dropped);
        assert_eq!(c.delivered, 10_000 - dropped);
        assert!(dropped > 500, "the star should be lossy, dropped {dropped}");
        let calls = u.loss_calls();
        let misses: u64 = calls.values().sum();
        assert!(
            calls.values().all(|&n| n > 1) && misses < 9_000,
            "the mix should both evict and hit: {calls:?}"
        );
        assert!(eng.loss_memo[0].len() <= LOSS_MEMO_WAYS);
    }

    #[test]
    fn loss_memo_is_per_engine() {
        let u = lossy_star(4);
        let mut a = Engine::new(u.clone(), 1);
        let mut b = Engine::new(u.clone(), 2);
        a.send(HostId(0), HostId(1), 999u32, SendClass::Data);
        assert!(b.loss_memo.is_empty());
        b.send(HostId(0), HostId(1), 999u32, SendClass::Data);
        b.send(HostId(0), HostId(2), 999u32, SendClass::Data);
        assert_eq!(u.loss_calls()[&(0, 1)], 2, "b answered from a's memo");
        assert_eq!(a.loss_memo[0].len(), 1);
        assert_eq!(b.loss_memo[0].len(), 2);
    }

    #[test]
    fn control_sends_bypass_the_loss_memo() {
        let u = lossy_star(4);
        let mut eng = Engine::new(u.clone(), 1);
        for _ in 0..100 {
            assert!(eng.send(HostId(0), HostId(1), 999u32, SendClass::Control));
        }
        assert!(eng.loss_memo.is_empty(), "no data was sent");
        assert!(u.loss_calls().is_empty(), "control asked for path loss");
    }

    /// Records the token of everything that fires, with its time.
    #[derive(Default)]
    struct Recorder(Vec<(SimTime, u64)>);

    impl World for Recorder {
        type Msg = u64;
        fn on_deliver(&mut self, eng: &mut Engine<u64>, _to: HostId, _from: HostId, msg: u64) {
            self.0.push((eng.now(), msg));
        }
        fn on_timer(&mut self, eng: &mut Engine<u64>, _host: HostId, token: u64) {
            self.0.push((eng.now(), token));
        }
        fn on_external(&mut self, eng: &mut Engine<u64>, token: u64) {
            self.0.push((eng.now(), token));
        }
    }

    /// Schedule one event chosen by `pick` — a send, a timer or an
    /// external, on a millisecond grid so equal timestamps are the
    /// rule — and return when it must fire.
    fn schedule_pick(eng: &mut Engine<u64>, pick: u64, token: u64) -> SimTime {
        let ms = SimTime::from_ms((pick / 3) as f64);
        match pick % 3 {
            0 => {
                eng.send(HostId(0), HostId(1), token, SendClass::Control);
                eng.now() + SimTime::from_ms(5.0)
            }
            1 => {
                eng.set_timer(HostId(0), ms, token);
                eng.now() + ms
            }
            _ => {
                eng.schedule_external(ms, token);
                ms.max(eng.now())
            }
        }
    }

    proptest! {
        /// Random interleavings of the three scheduling calls, in two
        /// batches around a bounded `run` (so the second batch lands in
        /// recycled slots, in an order unrelated to scheduling order):
        /// events fire in `(at, scheduling order)`, the bounded run never
        /// fires past its horizon, nothing is lost or fired twice.
        #[test]
        fn queue_fires_in_time_then_scheduling_order(
            first in proptest::collection::vec(0u64..24, 1..150),
            second in proptest::collection::vec(0u64..24, 0..150),
            horizon_ms in 0u64..10,
        ) {
            let mut eng = Engine::new(two_host_space(0.0), 1);
            let mut w = Recorder::default();
            let mut expected = Vec::new();
            for (token, &pick) in first.iter().enumerate() {
                expected.push((schedule_pick(&mut eng, pick, token as u64), token as u64));
            }
            // Stable: equal times keep scheduling order.
            expected.sort_by_key(|&(at, _)| at);
            let horizon = SimTime::from_ms(horizon_ms as f64);
            let due = expected.iter().filter(|&&(at, _)| at <= horizon).count();
            prop_assert_eq!(eng.run(&mut w, horizon), due as u64);
            prop_assert_eq!(&w.0[..], &expected[..due]);
            prop_assert_eq!(eng.next_event_at(), expected.get(due).map(|e| e.0));
            prop_assert_eq!(eng.queue.free_slots(), due);

            for (i, &pick) in second.iter().enumerate() {
                let token = (first.len() + i) as u64;
                expected.push((schedule_pick(&mut eng, pick, token), token));
            }
            expected[due..].sort_by_key(|&(at, _)| at);
            eng.run_to_idle(&mut w);
            prop_assert_eq!(&w.0, &expected);
            prop_assert!(eng.is_idle());
            prop_assert_eq!(eng.queue.free_slots(), eng.queue.slots());
            let high_water = first.len().max(first.len() - due + second.len());
            prop_assert_eq!(eng.queue.slots(), high_water);
        }
    }

    /// Steady world: every timer re-arms itself and sends one message,
    /// so the number of pending events hovers around a fixed level.
    struct Steady {
        pending: usize,
        high_water: usize,
    }

    impl World for Steady {
        type Msg = u64;
        fn on_deliver(&mut self, _eng: &mut Engine<u64>, _to: HostId, _from: HostId, _msg: u64) {
            self.pending -= 1;
        }
        fn on_timer(&mut self, eng: &mut Engine<u64>, host: HostId, token: u64) {
            eng.set_timer(host, SimTime::from_ms(1.0 + (token % 7) as f64), token);
            eng.send(host, HostId(1 - host.0), token, SendClass::Control);
            self.pending += 1;
            self.high_water = self.high_water.max(self.pending);
        }
        fn on_external(&mut self, _eng: &mut Engine<u64>, _token: u64) {}
    }

    /// Popped slots are reused: after a long steady run the slab is as
    /// long as the most events that were ever pending at once, not as
    /// long as the number of events that passed through.
    #[test]
    fn slab_stops_growing_at_the_high_water_mark() {
        let mut eng = Engine::new(two_host_space(0.0), 1);
        let timers = 50;
        for t in 0..timers {
            eng.set_timer(HostId((t % 2) as u32), SimTime::from_ms(t as f64 / 10.0), t);
        }
        let mut w = Steady {
            pending: timers as usize,
            high_water: timers as usize,
        };
        let n = eng.run(&mut w, SimTime::from_secs(20));
        assert!(n > 100_000, "only {n} events");
        assert_eq!(eng.queue.slots(), w.high_water);
        assert_eq!(eng.queue.len(), w.pending);
        let live = eng.queue.live_slots();
        assert_eq!(live, eng.queue.len());
        assert_eq!(eng.queue.free_slots(), eng.queue.slots() - live);
        assert!(eng.queue.free_slots_are_vacant());
    }
}
