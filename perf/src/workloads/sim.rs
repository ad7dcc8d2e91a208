//! What the simulated workloads share: opening a `Driver` session with
//! or without the tracing wrappers, the correctness gates, the outcome
//! digest and the statistics pulled from `RunStats`.

use std::sync::Arc;
use std::time::Instant;

use vdm_experiments::setup::{with_router_choice, Ch3Setup, RouterChoice};
use vdm_netsim::engine::Counters;
use vdm_netsim::{SimTime, Underlay};
use vdm_overlay::agent::AgentFactory;
use vdm_overlay::scenario::Action;
use vdm_overlay::stats::{RunStats, SlotMeasurement, Summary};
use vdm_overlay::{Driver, DriverConfig, Scenario, TreeSnapshot};
use vdm_topology::Apsp;

use super::Iter;
use crate::stat::{median, Fnv};
use crate::trace::{self, TimedFactory, TimedUnderlay};

/// The `Driver` operations the workloads use, behind one object so the
/// traced and untraced factory types can share code.
pub trait Session {
    fn run_until(&mut self, t: SimTime);
    fn stats(&self) -> &RunStats;
    fn snapshot(&self) -> TreeSnapshot;
    fn events(&self) -> u64;
    fn counters(&self) -> Counters;
}

impl<F: AgentFactory> Session for Driver<F> {
    fn run_until(&mut self, t: SimTime) {
        Driver::run_until(self, t)
    }

    fn stats(&self) -> &RunStats {
        Driver::stats(self)
    }

    fn snapshot(&self) -> TreeSnapshot {
        Driver::snapshot(self)
    }

    fn events(&self) -> u64 {
        self.engine().events_processed()
    }

    fn counters(&self) -> Counters {
        self.engine().counters()
    }
}

/// Time `f` as one timed unit, inside the trace window when traced;
/// returns what `f` did and the wall seconds it took.
pub fn timed<R>(traced: bool, f: impl FnOnce() -> R) -> (R, f64) {
    if traced {
        trace::begin();
    }
    let t = Instant::now();
    let r = f();
    let wall_s = t.elapsed().as_secs_f64();
    if traced {
        trace::end();
    }
    (r, wall_s)
}

/// Every candidate joining in id order, `gap_ms` apart from time zero.
pub fn staggered_joins(setup: &Ch3Setup, gap_ms: f64) -> Vec<(SimTime, Action)> {
    setup
        .candidates
        .iter()
        .enumerate()
        .map(|(i, &h)| (SimTime::from_ms(i as f64 * gap_ms), Action::Join(h)))
        .collect()
}

/// Build a testbed with the routing oracle pinned, whatever `VDM_ROUTER`
/// says; returns it with the wall seconds the build took. The global
/// artifact cache is never installed, so every build is cold.
pub fn build_setup(build: impl FnOnce() -> Ch3Setup) -> (Ch3Setup, f64) {
    let t = Instant::now();
    let setup = with_router_choice(RouterChoice::Dense, build);
    (setup, t.elapsed().as_secs_f64())
}

/// Open a session over `setup`; traced sessions see the underlay and the
/// agents through the timing wrappers and are otherwise identical.
#[allow(clippy::too_many_arguments)]
pub fn open<F>(
    setup: &Ch3Setup,
    factory: F,
    scenario: &Scenario,
    limits: &[u32],
    cfg: DriverConfig,
    seed: u64,
    stress: bool,
    traced: bool,
) -> Box<dyn Session>
where
    F: AgentFactory + 'static,
{
    let routed = stress.then(|| setup.underlay.clone());
    if traced {
        let underlay: Arc<dyn Underlay + Send + Sync> =
            Arc::new(TimedUnderlay(setup.underlay.clone()));
        Box::new(Driver::new(
            underlay,
            routed,
            setup.source,
            TimedFactory(factory),
            scenario,
            limits.to_vec(),
            cfg,
            seed,
        ))
    } else {
        Box::new(Driver::new(
            setup.underlay.clone(),
            routed,
            setup.source,
            factory,
            scenario,
            limits.to_vec(),
            cfg,
            seed,
        ))
    }
}

/// Split a dense set-up's time into graph generation and the all-pairs
/// build by repeating the latter on the finished graph (traced runs
/// only: it costs a second APSP build).
pub fn topology_split(setup: &Ch3Setup, setup_s: f64, it: &mut Iter) {
    let apsp_s = if setup.underlay.apsp().is_some() {
        let t = Instant::now();
        std::hint::black_box(Apsp::build(setup.underlay.graph()));
        t.elapsed().as_secs_f64().min(setup_s)
    } else {
        0.0
    };
    it.layer.push(("topology.apsp_s", apsp_s));
    it.layer.push(("topology.graph_gen_s", setup_s - apsp_s));
}

/// Report the on-demand router's row counters (zero on dense testbeds).
pub fn router_rows(setup: &Ch3Setup, it: &mut Iter) {
    let Some(router) = setup.underlay.router() else {
        return;
    };
    let s = router.stats();
    it.layer.push(("topology.row_hits", s.hits as f64));
    it.layer.push(("topology.row_misses", s.misses as f64));
    it.layer
        .push(("topology.row_evictions", s.evictions as f64));
    let lookups = s.hits + s.misses;
    if lookups > 0 {
        it.layer
            .push(("topology.row_hit_ratio", s.hits as f64 / lookups as f64));
    }
}

/// Gate: the tree is structurally valid and every member is connected.
/// Members are the attempted operations; the disconnected ones and the
/// structural errors are the failed ones.
pub fn gate_tree(snap: &TreeSnapshot, limits: &[u32], it: &mut Iter) {
    let errs = snap.validate(limits);
    let members = snap.members.len();
    let connected = snap.connected_members().len();
    it.attempted += members as u64;
    it.failed += (members - connected) as u64 + errs.len() as u64;
    if !errs.is_empty() {
        it.errors.push(format!("invalid final tree: {errs:?}"));
    }
    if connected != members {
        it.errors
            .push(format!("{connected} of {members} members connected"));
    }
}

/// Gate: the last measurement saw a valid, fully connected tree.
pub fn gate_last_measurement(stats: &RunStats, it: &mut Iter) {
    match stats.measurements.last() {
        None => it.errors.push("no measurement taken".into()),
        Some(m) => {
            if m.tree_errors != 0 || m.connected != m.members {
                it.errors.push(format!(
                    "last measurement at {} s: {} tree errors, {} of {} connected",
                    m.time_s, m.tree_errors, m.connected, m.members
                ));
                it.failed += (m.members - m.connected + m.tree_errors) as u64;
            }
        }
    }
}

fn digest_summary(d: &mut Fnv, s: &Summary) {
    d.f64(s.mean);
    d.f64(s.min);
    d.f64(s.max);
    d.u64(s.count as u64);
}

fn digest_measurement(d: &mut Fnv, m: &SlotMeasurement) {
    d.f64(m.time_s);
    d.u64(m.members as u64);
    d.u64(m.connected as u64);
    if let Some(s) = &m.stress {
        digest_summary(d, s);
    }
    digest_summary(d, &m.stretch);
    d.f64(m.stretch_leaf_mean);
    digest_summary(d, &m.hopcount);
    d.f64(m.hopcount_leaf_mean);
    d.f64(m.usage_ms);
    d.f64(m.usage_normalized);
    d.f64(m.loss_rate);
    d.u64(m.duplicates);
    d.f64(m.overhead);
    d.f64(m.overhead_per_chunk);
    d.u64(m.tree_errors as u64);
}

/// FNV-1a over everything a simulated session produced: events
/// processed, engine counters, final parent vector, per-host received
/// counts and every measurement's bits.
pub fn digest(s: &dyn Session) -> u64 {
    let mut d = Fnv::default();
    d.u64(s.events());
    let c = s.counters();
    for v in [
        c.control_sent,
        c.data_sent,
        c.data_dropped,
        c.data_congestion_dropped,
        c.delivered,
        c.faults_dropped,
        c.faults_duplicated,
        c.faults_delayed,
    ] {
        d.u64(v);
    }
    for p in &s.snapshot().parent {
        d.u64(p.map_or(u64::MAX, |h| u64::from(h.0)));
    }
    let stats = s.stats();
    for &r in &stats.received {
        d.u64(r);
    }
    for m in &stats.measurements {
        digest_measurement(&mut d, m);
    }
    d.0
}

/// Expected and received chunk deliveries so far, summed over hosts.
pub fn deliveries(s: &dyn Session) -> (u64, u64) {
    let st = s.stats();
    (st.expected.iter().sum(), st.received.iter().sum())
}

/// Report one timed unit's engine work: `events` processed and the
/// traffic `sent` (control, data, data dropped) in `wall_s` seconds.
pub fn engine_layer(events: f64, sent: [f64; 3], wall_s: f64, it: &mut Iter) {
    it.layer.extend([
        ("netsim.engine_events", events),
        ("netsim.events_per_s", events / wall_s),
        ("netsim.control_sent", sent[0]),
        ("netsim.data_sent", sent[1]),
        ("netsim.data_dropped", sent[2]),
    ]);
}

/// The traffic counters [`engine_layer`] reports.
pub fn sent(c: &Counters) -> [f64; 3] {
    [
        c.control_sent as f64,
        c.data_sent as f64,
        c.data_dropped as f64,
    ]
}

/// Report the session's `RunStats` outcome counters.
pub fn outcome_layer(stats: &RunStats, it: &mut Iter) {
    let r = &stats.recovery;
    it.layer.extend([
        ("overlay.join_completions", stats.join_completions as f64),
        ("overlay.walk_restarts", stats.walk_restarts as f64),
        ("overlay.nacks_sent", r.nacks_sent as f64),
        ("overlay.chunks_repaired", r.chunks_repaired as f64),
        ("overlay.failover_attempts", r.failover_attempts as f64),
        ("overlay.failover_successes", r.failover_successes as f64),
        ("overlay.joins_throttled", r.joins_throttled as f64),
        ("overlay.invariant_violations", r.total_violations() as f64),
    ]);
    if !stats.startup_s.is_empty() {
        it.layer
            .push(("join_startup_s_p50", median(&stats.startup_s)));
    }
}

/// Fold a session that was timed from its first event to its last into
/// the iteration: one unit, delivery counts, digest, engine and outcome
/// counters.
pub fn account_whole(s: &dyn Session, wall_s: f64, it: &mut Iter) {
    let (expected, received) = deliveries(s);
    it.ops += expected;
    it.ok_ops += received.min(expected);
    it.units.push(super::Unit::of(wall_s, expected));
    it.digest = Some(digest(s));
    engine_layer(s.events() as f64, sent(&s.counters()), wall_s, it);
    outcome_layer(s.stats(), it);
}
