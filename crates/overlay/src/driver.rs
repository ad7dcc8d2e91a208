//! The simulation driver: executes a [`Scenario`] against a set of
//! protocol agents over an underlay, streams data from the source, and
//! takes the paper's measurements at the scheduled points.
//!
//! One session world serves every tree count. A session is `k` trees
//! over `n` physical hosts: tree `t` runs host `h` under the *virtual*
//! id `t*n + h` ([`fold_vid`]), all `k*n` agents live in one
//! [`HostArena`], and chunk `seq` belongs to stripe `seq % k`. The plain
//! single-tree run is `k = 1` — virtual and physical ids coincide, the
//! engine runs over the bare underlay, and nothing multi-tree (the
//! cross-repair sweep, trace retagging) is ever scheduled or installed.
//! The per-message path (`dispatch`) never looks at `k`; only the
//! external-event handlers loop over trees. See [`crate::multitree`]
//! for the virtual id space and the cross-tree repair scheme.

use crate::agent::{AgentFactory, Ctx, OverlayAgent};
use crate::arena::HostArena;
use crate::metrics::{mst_ratio, TreeMetrics};
use crate::msg::Msg;
use crate::multitree::{
    expand_faults, fold_vid, interior_overlap, retag_tracer, MtSlot, MultiTreeOutput,
    StripedUnderlay,
};
use crate::scenario::{Action, Scenario};
use crate::stats::{RunStats, SlotMeasurement};
use crate::tree::TreeSnapshot;
use std::sync::Arc;
use vdm_netsim::engine::Counters;
use vdm_netsim::{Engine, FaultEvent, FaultPlan, HostId, RoutedUnderlay, SimTime, Underlay, World};

/// External-event token for the periodic stream tick.
const DATA_TICK: u64 = u64::MAX;
/// External-event token for the cross-tree repair sweep (`k ≥ 2` only).
const CROSS_TICK: u64 = u64::MAX - 1;
/// Cadence of the cross-tree repair sweep: 1 s. Agents without
/// `AgentConfig::cross_repair` ignore it.
const CROSS_PERIOD: SimTime = SimTime(1_000_000);
/// Stripe silence that makes a still-connected receiver start pulling
/// from a sibling tree: 3 s (orphans pull immediately).
const CROSS_STALL: SimTime = SimTime(3_000_000);

/// Driver tunables.
#[derive(Clone, Copy, Debug)]
pub struct DriverConfig {
    /// Stream chunk interval; `None` disables the stream (pure
    /// tree-construction runs).
    pub data_interval: Option<SimTime>,
    /// Compute per-link stress at measurements (requires a routed
    /// underlay handle).
    pub compute_stress: bool,
    /// Compute the tree/MST cost ratio at measurements (O(n²) per
    /// measurement).
    pub compute_mst_ratio: bool,
    /// Loss-probe noise amplitude handed to agents via [`Ctx`].
    pub loss_probe_noise: f64,
    /// Enable the NS-2-style queueing data plane (routed underlays
    /// only): data packets pay serialization/queueing per link and
    /// drop on buffer overflow (see [`vdm_netsim::dataplane`]).
    pub data_plane: bool,
}

impl Default for DriverConfig {
    fn default() -> Self {
        Self {
            data_interval: Some(SimTime::from_secs(1)),
            compute_stress: false,
            compute_mst_ratio: false,
            loss_probe_noise: 0.0,
            data_plane: false,
        }
    }
}

/// Result of a run.
#[derive(Clone, Debug)]
pub struct RunOutput {
    /// All collected statistics and measurements.
    pub stats: RunStats,
    /// The (first) tree as of the end of the run.
    pub final_snapshot: TreeSnapshot,
    /// Engine events processed (throughput benchmarking).
    pub events: u64,
    /// Whole-run traffic counters.
    pub counters: Counters,
}

struct WorldState<F: AgentFactory> {
    /// One factory per tree; `k = factories.len()`.
    factories: Vec<F>,
    cfg: DriverConfig,
    /// Physical hosts; tree `t` owns virtual ids `t*n..(t+1)*n`.
    n: usize,
    /// The streaming root, as a physical id.
    source: HostId,
    /// Flat per-host state (agent slot, session bit, incarnation, degree
    /// limit), one contiguous arena covering all `k*n` virtual hosts. A
    /// non-source host has an agent exactly while it is in session.
    hosts: HostArena<F::Agent>,
    /// Indexed by virtual id.
    stats: RunStats,
    actions: Vec<(SimTime, Action)>,
    /// The physical underlay the trees are measured against (the engine
    /// runs over its striped fold when `k ≥ 2`).
    phys: Arc<dyn Underlay + Send + Sync>,
    routed: Option<Arc<RoutedUnderlay>>,
    /// Bootstrap-discovery config from the scenario, installed on every
    /// agent the driver creates; `None` keeps the omniscient joins.
    discovery: Option<crate::discovery::DiscoveryConfig>,
    seq: u64,
    end: SimTime,
    /// Per-measurement multi-tree series.
    slots: Vec<MtSlot>,
    // Slot-delta anchors for loss/overhead measurements.
    last_counters: Counters,
    last_expected: u64,
    last_received: u64,
    last_chunks: u64,
}

impl<F: AgentFactory> WorldState<F> {
    fn dispatch<R>(
        &mut self,
        eng: &mut Engine<Msg>,
        host: HostId,
        f: impl FnOnce(&mut F::Agent, &mut Ctx<'_>) -> R,
    ) -> Option<R> {
        // Split borrows: the agent lives in `hosts`, the context needs
        // `stats` — distinct fields.
        let agent = self.hosts.get_mut(host)?;
        let mut ctx = Ctx {
            me: host,
            io: eng,
            stats: &mut self.stats,
            loss_probe_noise: self.cfg.loss_probe_noise,
        };
        Some(f(agent, &mut ctx))
    }

    fn k(&self) -> usize {
        self.factories.len()
    }

    /// Physical host `h` as seen by tree `t`.
    fn vid(&self, t: usize, h: HostId) -> HostId {
        fold_vid(t, self.n, h)
    }

    /// The physical host behind a virtual id.
    fn phys_of(&self, v: HostId) -> HostId {
        HostId((v.idx() % self.n) as u32)
    }

    /// Tree `t`'s non-source hosts as `(physical, virtual)` id pairs.
    fn receivers(&self, t: usize) -> impl Iterator<Item = (HostId, HostId)> {
        // One checked fold per tree; the arena's range check proved
        // all `k*n` virtual ids fit u32, so `base + h` cannot wrap.
        let (source, base) = (self.source.0, self.vid(t, HostId(0)).0);
        (0..self.n as u32)
            .filter(move |&h| h != source)
            .map(move |h| (HostId(h), HostId(base + h)))
    }

    /// Tree `t`, in physical ids.
    fn snapshot(&self, t: usize) -> TreeSnapshot {
        let mut parent = vec![None; self.n];
        let mut members = Vec::new();
        for (h, v) in self.receivers(t) {
            if self.hosts.in_session(v) {
                members.push(h);
                if let Some(a) = self.hosts.get(v) {
                    parent[h.idx()] = a.parent().map(|p| self.phys_of(p));
                }
            }
        }
        TreeSnapshot {
            source: self.source,
            members,
            parent,
        }
    }

    fn snapshots(&self) -> Vec<TreeSnapshot> {
        (0..self.k()).map(|t| self.snapshot(t)).collect()
    }

    /// Ungraceful: `h`'s agents vanish from every tree with no
    /// notifications; neighbours find out through heartbeat/data
    /// timeouts.
    fn crash(&mut self, h: HostId) {
        if h == self.source {
            return;
        }
        for t in 0..self.k() {
            let v = self.vid(t, h);
            if self.hosts.in_session(v) {
                self.hosts.remove(v);
                self.hosts.set_in_session(v, false);
            }
        }
    }

    /// Latest stream sequence owned by stripe `t` (0 when none yet).
    fn stripe_latest(&self, t: usize) -> u64 {
        let k = self.k() as u64;
        let lag = (self.seq % k + k - t as u64) % k;
        self.seq.saturating_sub(lag)
    }

    /// A live repair peer for stripe `t` of physical host `h`: a sibling
    /// tree where `h` still has a parent, mapped back to that parent's
    /// *tree-`t`* agent so the request stays inside the stripe that
    /// owns the sequence numbers.
    fn cross_peer(&self, t: usize, h: HostId) -> Option<HostId> {
        let k = self.k();
        (1..k).map(|d| self.vid((t + d) % k, h)).find_map(|sv| {
            let p = self.phys_of(self.hosts.get(sv)?.parent()?);
            let target = self.vid(t, p);
            (p != h && self.hosts.get(target).is_some()).then_some(target)
        })
    }

    /// One cross-tree repair sweep: every starving receiver locates a
    /// live repair peer through a sibling tree's parent relation and
    /// NACKs its missing stripe chunks there.
    fn cross_sweep(&mut self, eng: &mut Engine<Msg>) {
        if self.seq == 0 {
            return;
        }
        let now = eng.now();
        for t in 0..self.k() {
            let latest = self.stripe_latest(t);
            if latest == 0 {
                continue;
            }
            for (h, v) in self.receivers(t) {
                let wants = self
                    .hosts
                    .get(v)
                    .is_some_and(|a| a.wants_cross_repair(now, CROSS_STALL));
                if !wants {
                    continue;
                }
                if let Some(peer) = self.cross_peer(t, h) {
                    self.dispatch(eng, v, |a, ctx| a.cross_repair_tick(ctx, peer, latest));
                }
            }
        }
    }

    fn measure(&mut self, eng: &mut Engine<Msg>) {
        let n = self.n;
        let snaps = self.snapshots();
        let stress_via = if self.cfg.compute_stress {
            self.routed.as_deref()
        } else {
            None
        };
        // The structural measurements describe the first tree; the
        // sibling trees contribute validity, connectivity, worst stress
        // and interior overlap.
        let tm = TreeMetrics::compute(&snaps[0], &*self.phys, stress_via);
        let errors: usize = snaps
            .iter()
            .enumerate()
            .map(|(t, s)| s.validate(&self.hosts.limits()[t * n..(t + 1) * n]).len())
            .sum();
        if errors > 0 {
            self.stats
                .recovery
                .invariant_violations
                .push((eng.now().as_secs(), errors));
        }

        let counters = eng.counters();
        let d_control = counters.control_sent - self.last_counters.control_sent;
        let d_data = counters.data_sent - self.last_counters.data_sent;
        self.last_counters = counters;

        let expected: u64 = self.stats.expected.iter().sum();
        let received: u64 = self.stats.received.iter().sum();
        let d_expected = expected - self.last_expected;
        let d_received = received - self.last_received;
        self.last_expected = expected;
        self.last_received = received;

        let d_chunks = self.stats.source_chunks - self.last_chunks;
        self.last_chunks = self.stats.source_chunks;

        let ratio = if self.cfg.compute_mst_ratio {
            mst_ratio(&snaps[0], |a, b| self.phys.rtt_ms(a, b))
        } else {
            None
        };

        // Clamped at 0: NACK retransmits can deliver more chunks in a
        // slot than the slot expected (see RunStats::overall_loss); the
        // excess is reported as `duplicates` instead.
        let loss_rate = if d_expected > 0 {
            (1.0 - d_received as f64 / d_expected as f64).max(0.0)
        } else {
            0.0
        };
        let stress_max = |tm: &TreeMetrics| tm.stress.as_ref().map_or(0.0, |s| s.max);
        let mut slot = MtSlot {
            time_s: eng.now().as_secs(),
            members: snaps[0].members.len(),
            connected: snaps.iter().map(|s| s.connected_members().len()).collect(),
            interior_overlap: interior_overlap(&snaps),
            stress_max: stress_max(&tm),
            loss_rate,
        };
        if stress_via.is_some() {
            for s in &snaps[1..] {
                let sibling = TreeMetrics::compute(s, &*self.phys, stress_via);
                slot.stress_max = slot.stress_max.max(stress_max(&sibling));
            }
        }
        self.stats.measurements.push(SlotMeasurement {
            time_s: slot.time_s,
            members: slot.members,
            connected: slot.connected[0],
            stress: tm.stress,
            stretch: tm.stretch,
            stretch_leaf_mean: tm.stretch_leaf_mean,
            hopcount: tm.hopcount,
            hopcount_leaf_mean: tm.hopcount_leaf_mean,
            usage_ms: tm.usage_ms,
            usage_normalized: tm.usage_normalized,
            loss_rate,
            duplicates: d_received.saturating_sub(d_expected),
            overhead: if d_data > 0 {
                d_control as f64 / d_data as f64
            } else {
                0.0
            },
            overhead_per_chunk: if d_chunks > 0 {
                d_control as f64 / d_chunks as f64
            } else {
                0.0
            },
            mst_ratio: ratio,
            tree_errors: errors,
        });
        self.slots.push(slot);
    }
}

impl<F: AgentFactory> World for WorldState<F> {
    type Msg = Msg;

    fn on_deliver(&mut self, eng: &mut Engine<Msg>, to: HostId, from: HostId, msg: Msg) {
        self.dispatch(eng, to, |a, ctx| a.on_msg(ctx, from, msg));
    }

    fn on_timer(&mut self, eng: &mut Engine<Msg>, host: HostId, token: u64) {
        self.dispatch(eng, host, |a, ctx| a.on_timer(ctx, token));
    }

    fn on_external(&mut self, eng: &mut Engine<Msg>, token: u64) {
        if token == DATA_TICK {
            let Some(interval) = self.cfg.data_interval else {
                return;
            };
            self.seq += 1;
            let seq = self.seq;
            self.stats.source_chunks += 1;
            // Every in-session member of the owning stripe's tree
            // should see this chunk.
            let stripe = (seq % self.k() as u64) as usize;
            for (_, v) in self.receivers(stripe) {
                if self.hosts.in_session(v) {
                    self.stats.expected[v.idx()] += 1;
                }
            }
            let src = self.vid(stripe, self.source);
            self.dispatch(eng, src, |a, ctx| a.emit_data(ctx, seq));
            let next = eng.now() + interval;
            if next <= self.end {
                eng.schedule_external(next, DATA_TICK);
            }
            return;
        }
        if token == CROSS_TICK {
            self.cross_sweep(eng);
            let next = eng.now() + CROSS_PERIOD;
            if next <= self.end {
                eng.schedule_external(next, CROSS_TICK);
            }
            return;
        }
        let (_, action) = self.actions[token as usize];
        match action {
            // The source is the session: it never joins or leaves.
            Action::Join(h) | Action::Leave(h) if h == self.source => {}
            Action::Join(h) => {
                for t in 0..self.k() {
                    let v = self.vid(t, h);
                    if self.hosts.in_session(v) {
                        continue;
                    }
                    self.hosts.set_in_session(v, true);
                    let inc = self.hosts.bump_incarnation(v);
                    let src = self.vid(t, self.source);
                    let mut agent = self.factories[t].make(v, src, self.hosts.limit(v), inc);
                    if let Some(dc) = &self.discovery {
                        agent.configure_discovery(dc, eng.now());
                    }
                    self.hosts.insert(v, agent);
                    self.dispatch(eng, v, |a, ctx| a.on_join_cmd(ctx));
                }
            }
            // Graceful: say goodbye in every tree, then vanish.
            Action::Leave(h) => {
                for t in 0..self.k() {
                    let v = self.vid(t, h);
                    self.dispatch(eng, v, |a, ctx| a.on_leave_cmd(ctx));
                }
                self.crash(h);
            }
            Action::Crash(h) => self.crash(h),
            Action::Measure => self.measure(eng),
        }
    }
}

/// Runs one scenario with one protocol over one underlay — as a single
/// tree ([`Driver::new`]) or as `k` striped trees ([`Driver::striped`]).
pub struct Driver<F: AgentFactory> {
    eng: Engine<Msg>,
    world: WorldState<F>,
}

impl<F: AgentFactory> Driver<F> {
    /// Build a single-tree driver.
    ///
    /// * `underlay` — the network (shared, reusable across runs);
    /// * `routed` — pass the same underlay again when it is a
    ///   [`RoutedUnderlay`] and stress should be computed;
    /// * `source` — the streaming root host;
    /// * `limits[h]` — degree limit per host (must cover all hosts);
    /// * `seed` — all run randomness (jitter, loss sampling) flows from
    ///   here.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        underlay: Arc<dyn Underlay + Send + Sync>,
        routed: Option<Arc<RoutedUnderlay>>,
        source: HostId,
        factory: F,
        scenario: &Scenario,
        limits: Vec<u32>,
        cfg: DriverConfig,
        seed: u64,
    ) -> Self {
        Self::striped(
            underlay,
            routed,
            source,
            vec![factory],
            scenario,
            limits,
            cfg,
            seed,
        )
    }

    /// Build a driver for one stream over `k = factories.len()` trees.
    ///
    /// * `factories` — one per tree; the caller decorrelates them
    ///   (perturbed metrics) and stripes their repair configs
    ///   (`RepairConfig::striped(k, t)`);
    /// * `limits` — virtual-id degree limits, `k * n` entries (see
    ///   [`crate::multitree::striped_limits`]);
    /// * everything else as in [`Driver::new`], in physical ids.
    ///
    /// Panics when `k ≥ 2` and the scenario carries a bootstrap
    /// discovery config: discovery seeds are physical ids and nothing
    /// folds them per tree.
    #[allow(clippy::too_many_arguments)]
    pub fn striped(
        underlay: Arc<dyn Underlay + Send + Sync>,
        routed: Option<Arc<RoutedUnderlay>>,
        source: HostId,
        factories: Vec<F>,
        scenario: &Scenario,
        limits: Vec<u32>,
        cfg: DriverConfig,
        seed: u64,
    ) -> Self {
        let (k, n) = (factories.len(), underlay.num_hosts());
        assert!(k >= 1, "need at least one tree");
        assert_eq!(limits.len(), k * n, "need one degree limit per host");
        assert!(source.idx() < n);
        assert!(
            k == 1 || scenario.discovery.is_none(),
            "bootstrap discovery is single-tree only: its seeds are physical \
             ids and nothing folds them per tree, so a {k}-tree session \
             would silently join omnisciently"
        );
        let mut eng = if k == 1 {
            Engine::new(Arc::clone(&underlay), seed)
        } else {
            let mut eng = Engine::new(
                Arc::new(StripedUnderlay::new(Arc::clone(&underlay), k)),
                seed,
            );
            // Re-attribute traced events to physical hosts + tree tags.
            if let Some(tracer) = retag_tracer(n) {
                eng.set_tracer(tracer);
            }
            eng
        };
        if cfg.data_plane {
            eng.enable_data_plane();
        }
        let mut world = WorldState {
            factories,
            cfg,
            n,
            source,
            hosts: HostArena::new(limits),
            stats: RunStats::new(k * n),
            actions: scenario.actions.clone(),
            phys: underlay,
            routed,
            discovery: scenario.discovery.clone(),
            seq: 0,
            end: scenario.end,
            slots: Vec::new(),
            last_counters: Counters::default(),
            last_expected: 0,
            last_received: 0,
            last_chunks: 0,
        };
        // Every tree's source agent exists for the whole run.
        for t in 0..k {
            let src = world.vid(t, source);
            let mut agent = world.factories[t].make(src, src, world.hosts.limit(src), 0);
            if let Some(dc) = &world.discovery {
                // The source never probes (it owns the tree) but needs
                // the serving budget to answer bootstrap probes.
                agent.configure_discovery(dc, SimTime::ZERO);
            }
            world.hosts.insert(src, agent);
        }
        // Schedule the scenario, the stream and the cross-repair sweep.
        for (i, (t, _)) in world.actions.iter().enumerate() {
            eng.schedule_external(*t, i as u64);
        }
        if world.cfg.data_interval.is_some() {
            eng.schedule_external(SimTime::ZERO, DATA_TICK);
        }
        if k >= 2 {
            eng.schedule_external(CROSS_PERIOD, CROSS_TICK);
        }
        Self { eng, world }
    }

    /// Install a fault-injection schedule (chaos runs) verbatim, in the
    /// engine's (virtual) id space; see [`vdm_netsim::FaultPlan`]. Must
    /// be called before [`Driver::run`].
    pub fn set_fault_plan(&mut self, plan: vdm_netsim::FaultPlan) {
        self.eng.set_fault_plan(plan);
    }

    /// Install a *physical-host* fault schedule, expanded so a link
    /// outage or slowdown hits every tree exactly like it would hit one
    /// (see [`expand_faults`]; the identity at `k = 1`). Call before
    /// running.
    pub fn set_fault_events(&mut self, seed: u64, events: Vec<FaultEvent>) {
        let expanded = expand_faults(&events, self.world.k(), self.world.n);
        self.eng
            .set_fault_plan(FaultPlan::with_events(seed, expanded));
    }

    /// Execute to the scenario horizon and collect results (of the
    /// first tree, when there are several).
    pub fn run(self) -> RunOutput {
        let mut out = self.run_trees();
        RunOutput {
            final_snapshot: out.snapshots.swap_remove(0),
            stats: out.stats,
            events: out.events,
            counters: out.counters,
        }
    }

    /// Execute to the scenario horizon and collect every tree's results.
    pub fn run_trees(mut self) -> MultiTreeOutput {
        let end = self.world.end;
        self.eng.run(&mut self.world, end);
        MultiTreeOutput {
            snapshots: self.world.snapshots(),
            slots: self.world.slots,
            events: self.eng.events_processed(),
            counters: self.eng.counters(),
            stats: self.world.stats,
        }
    }

    /// Run only up to `t` (incremental stepping for tests/examples).
    pub fn run_until(&mut self, t: SimTime) {
        self.eng.run(&mut self.world, t);
    }

    /// Ungracefully remove a physical member from every tree right now,
    /// exactly like a scheduled [`Action::Crash`]: its agents vanish
    /// with no notifications. Lets callers crash a node chosen from
    /// *runtime* tree state (e.g. the currently-largest interior node)
    /// between [`Driver::run_until`] steps, which a precomputed
    /// scenario cannot express.
    pub fn crash_now(&mut self, h: HostId) {
        self.world.crash(h);
    }

    /// Current (first) tree.
    pub fn snapshot(&self) -> TreeSnapshot {
        self.world.snapshot(0)
    }

    /// Current snapshot of each tree, in physical ids.
    pub fn snapshots(&self) -> Vec<TreeSnapshot> {
        self.world.snapshots()
    }

    /// Statistics so far (per-host series are indexed by virtual id).
    pub fn stats(&self) -> &RunStats {
        &self.world.stats
    }

    /// Simulated time.
    pub fn now(&self) -> SimTime {
        self.eng.now()
    }

    /// Borrow the engine (diagnostics).
    pub fn engine(&self) -> &Engine<Msg> {
        &self.eng
    }

    /// Borrow an agent by virtual id (tests/diagnostics).
    pub fn agent(&self, h: HostId) -> Option<&F::Agent> {
        self.world.hosts.get(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::{AgentConfig, ProtocolAgent};
    use crate::scenario::{ChurnConfig, Scenario};
    use crate::walk::{ProbeResult, WalkPolicy, WalkStep};
    use vdm_netsim::LatencySpace;

    /// Trivial policy: always attach to whatever node we are examining
    /// (with redirects on full nodes this builds a shallow fan tree).
    struct AttachHere;
    impl WalkPolicy for AttachHere {
        fn vdist(&self, rtt_ms: f64, _loss: f64) -> f64 {
            rtt_ms
        }
        fn decide(&self, _probe: &ProbeResult, _purpose: crate::walk::WalkPurpose) -> WalkStep {
            WalkStep::Attach { splice: vec![] }
        }
    }

    struct AttachFactory(AgentConfig);
    impl AgentFactory for AttachFactory {
        type Agent = ProtocolAgent<AttachHere>;
        fn make(&self, h: HostId, src: HostId, limit: u32, inc: u32) -> Self::Agent {
            ProtocolAgent::new(h, src, limit, inc, self.0, AttachHere)
        }
    }

    fn grid_space(n: usize) -> Arc<LatencySpace> {
        // Hosts on a line, 5 ms apart one way.
        let mut rtt = vec![vec![0.0; n]; n];
        for (i, row) in rtt.iter_mut().enumerate() {
            for (j, v) in row.iter_mut().enumerate() {
                if i != j {
                    *v = 10.0 * (i as f64 - j as f64).abs();
                }
            }
        }
        Arc::new(LatencySpace::from_rtt_matrix(&rtt))
    }

    fn join_only_scenario(hosts: &[HostId]) -> Scenario {
        Scenario::churn(
            &ChurnConfig {
                members: hosts.len(),
                warmup_s: 10.0,
                slot_s: 10.0,
                slots: 1,
                churn_pct: 0.0,
            },
            hosts,
            3,
        )
    }

    #[test]
    fn star_forms_and_measures() {
        let space = grid_space(4);
        let hosts = [HostId(1), HostId(2), HostId(3)];
        let scenario = join_only_scenario(&hosts);
        let driver = Driver::new(
            space.clone(),
            None,
            HostId(0),
            AttachFactory(AgentConfig::default()),
            &scenario,
            vec![10; 4],
            DriverConfig::default(),
            1,
        );
        let out = driver.run();
        assert_eq!(out.stats.startup_s.len(), 3);
        assert!(out.stats.startup_s.iter().all(|&s| s < 1.0));
        let snap = &out.final_snapshot;
        assert_eq!(snap.connected_members().len(), 3);
        for &m in &snap.members {
            assert_eq!(snap.parent_of(m), Some(HostId(0)));
        }
        assert!(snap.validate(&[10, 10, 10, 10]).is_empty());
        // Measurements were taken and show a working stream.
        assert_eq!(out.stats.measurements.len(), 2);
        let last = out.stats.measurements.last().unwrap();
        assert_eq!(last.members, 3);
        assert_eq!(last.connected, 3);
        assert!(last.loss_rate < 0.05, "loss {}", last.loss_rate);
        assert!((last.stretch.mean - 1.0).abs() < 1e-6);
        assert_eq!(last.tree_errors, 0);
        // Overall loss includes the few chunks each node misses between
        // its join command and its first connection; with only ~15
        // chunks in this tiny run that quantizes coarsely.
        assert!(out.stats.overall_loss() < 0.2);
    }

    #[test]
    fn degree_limit_redirects_to_children() {
        let space = grid_space(5);
        let hosts = [HostId(1), HostId(2), HostId(3), HostId(4)];
        let scenario = join_only_scenario(&hosts);
        // Source can take 1 child only; everyone chains.
        let driver = Driver::new(
            space.clone(),
            None,
            HostId(0),
            AttachFactory(AgentConfig::default()),
            &scenario,
            vec![1, 1, 1, 1, 1],
            DriverConfig::default(),
            7,
        );
        let out = driver.run();
        let snap = &out.final_snapshot;
        assert_eq!(snap.connected_members().len(), 4);
        assert!(snap.validate(&[1; 5]).is_empty());
        // Chain: max depth is 4.
        let max_depth = snap.depths().iter().flatten().copied().max().unwrap();
        assert_eq!(max_depth, 4);
    }

    #[test]
    fn leave_triggers_reconnection() {
        let space = grid_space(5);
        let hosts = [HostId(1), HostId(2), HostId(3), HostId(4)];
        let cfg = ChurnConfig {
            members: 4,
            warmup_s: 10.0,
            slot_s: 20.0,
            slots: 4,
            churn_pct: 25.0, // one leave+join per slot
        };
        let scenario = Scenario::churn(&cfg, &hosts, 5);
        assert!(scenario.num_leaves() > 0);
        let driver = Driver::new(
            space.clone(),
            None,
            HostId(0),
            AttachFactory(AgentConfig::default()),
            &scenario,
            vec![2; 5],
            DriverConfig::default(),
            11,
        );
        let out = driver.run();
        // Some orphans must have reconnected (leaves of interior nodes).
        let last = out.stats.measurements.last().unwrap();
        assert_eq!(last.tree_errors, 0);
        assert_eq!(last.connected, last.members);
        // The run saw the scheduled joins (initial + churn).
        assert_eq!(out.stats.startup_s.len(), scenario.num_joins());
    }

    #[test]
    fn deterministic_runs() {
        let space = grid_space(5);
        let hosts = [HostId(1), HostId(2), HostId(3), HostId(4)];
        let cfg = ChurnConfig {
            members: 4,
            warmup_s: 10.0,
            slot_s: 20.0,
            slots: 3,
            churn_pct: 25.0,
        };
        let scenario = Scenario::churn(&cfg, &hosts, 5);
        let run = |seed| {
            let driver = Driver::new(
                space.clone(),
                None,
                HostId(0),
                AttachFactory(AgentConfig::default()),
                &scenario,
                vec![2; 5],
                DriverConfig::default(),
                seed,
            );
            let out = driver.run();
            (
                out.stats.startup_s.clone(),
                out.stats.overall_loss(),
                out.final_snapshot.parent.clone(),
                out.events,
            )
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn no_stream_mode() {
        let space = grid_space(3);
        let hosts = [HostId(1), HostId(2)];
        let scenario = join_only_scenario(&hosts);
        let driver = Driver::new(
            space,
            None,
            HostId(0),
            AttachFactory(AgentConfig {
                data_timeout: None,
                ..AgentConfig::default()
            }),
            &scenario,
            vec![5; 3],
            DriverConfig {
                data_interval: None,
                ..DriverConfig::default()
            },
            2,
        );
        let out = driver.run();
        assert_eq!(out.stats.source_chunks, 0);
        assert_eq!(out.stats.overall_loss(), 0.0);
        assert_eq!(out.final_snapshot.connected_members().len(), 2);
    }
}
