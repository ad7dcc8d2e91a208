//! The three streaming sessions through `Driver` + `ProtocolAgent` on
//! the dense-routed Chapter 3 testbed.

use std::time::Instant;

use vdm_core::VdmFactory;
use vdm_experiments::setup::{ch3_setup, degree_limits_range};
use vdm_netsim::{SimTime, Underlay};
use vdm_overlay::agent::{AdmissionConfig, AgentConfig, HeartbeatConfig, ResilienceConfig};
use vdm_overlay::repair::RepairConfig;
use vdm_overlay::scenario::{ChurnConfig, SoakConfig};
use vdm_overlay::walk::WalkConfig;
use vdm_overlay::{DriverConfig, Scenario};

use super::sim::{self, Session};
use super::{drive, Iter, Outcome, Params, Plan, Unit};
use crate::trace::Spans;

/// Where a session's timed legs started, to report the engine's work per
/// leg rather than per session.
struct Legs {
    events0: u64,
    sent0: [f64; 3],
    wall_s: f64,
}

impl Legs {
    fn start(s: &dyn Session) -> Self {
        Legs {
            events0: s.events(),
            sent0: sim::sent(&s.counters()),
            wall_s: 0.0,
        }
    }

    /// Run the session to `until` as one timed unit whose operations are
    /// the chunk deliveries expected meanwhile; returns how many were
    /// expected and how many arrived.
    fn run(
        &mut self,
        s: &mut dyn Session,
        spans: &mut Spans,
        traced: bool,
        until: SimTime,
        it: &mut Iter,
    ) -> (u64, u64) {
        let (e0, r0) = sim::deliveries(s);
        let ((), wall_s) = sim::timed(traced, || spans.scope("stream", |_| s.run_until(until)));
        let (e1, r1) = sim::deliveries(s);
        it.units.push(Unit::of(wall_s, e1 - e0));
        self.wall_s += wall_s;
        (e1 - e0, r1 - r0)
    }

    /// Report the engine's work per leg, so the figures do not depend on
    /// how many legs the time budget allowed.
    fn report(&self, s: &dyn Session, it: &mut Iter) {
        let legs = it.units.len() as f64;
        let sent1 = sim::sent(&s.counters());
        sim::engine_layer(
            (s.events() - self.events0) as f64 / legs,
            [0, 1, 2].map(|i| (sent1[i] - self.sent0[i]) / legs),
            self.wall_s / legs,
            it,
        );
    }
}

/// `ch3_churn`: the paper's §3.6.2 session, Figs 3.25–3.28 at 10 % churn.
pub fn ch3_churn(p: &Params) -> Result<Outcome, String> {
    let shape = if p.smoke {
        ChurnConfig {
            members: 40,
            warmup_s: 300.0,
            slot_s: 200.0,
            slots: 3,
            churn_pct: 10.0,
        }
    } else {
        ChurnConfig {
            members: 200,
            warmup_s: 2_000.0,
            slot_s: 400.0,
            slots: 20,
            churn_pct: 10.0,
        }
    };
    let chunk_s = if p.smoke { 5.0 } else { 1.0 };
    let plan = Plan {
        fixed: if p.smoke { 1 } else { 4 },
        warmup: !p.smoke,
        rounds: 0,
        overhead_rerun: true,
        unclaimed: "netsim.engine_self_s",
    };
    drive(p, &plan, |spans: &mut Spans, seed, traced, _| {
        let mut it = Iter::default();
        spans.open("setup");
        let t = Instant::now();
        let (setup, build_s) = sim::build_setup(|| ch3_setup(shape.members, 0.0, seed));
        let limits = degree_limits_range(setup.underlay.num_hosts(), 2, 5, seed);
        let scenario = Scenario::churn(&shape, &setup.candidates, seed);
        let cfg = DriverConfig {
            data_interval: Some(SimTime::from_ms(chunk_s * 1_000.0)),
            compute_stress: true,
            ..DriverConfig::default()
        };
        let mut s = sim::open(
            &setup,
            VdmFactory::delay_based(),
            &scenario,
            &limits,
            cfg,
            seed,
            true,
            traced,
        );
        // The warm-up, in which the first 200 members join, is set-up
        // here as it is in `stream_fanout`.
        spans.scope("join", |_| {
            s.run_until(SimTime::from_ms(shape.warmup_s * 1_000.0))
        });
        it.setup_s = t.elapsed().as_secs_f64();
        spans.close();

        // One timed unit per churn slot: a slot's worth of streaming, its
        // leaves and re-joins, and the measurement that ends it. Twenty
        // like units of ~35 ms per session instead of one of 0.7 s give
        // the low percentile clean samples on a noisy box.
        let mut legs = Legs::start(&*s);
        for slot in 1..=shape.slots {
            let until = SimTime::from_ms((shape.warmup_s + slot as f64 * shape.slot_s) * 1_000.0);
            legs.run(&mut *s, spans, traced, until, &mut it);
        }
        s.run_until(scenario.end);

        spans.open("measure");
        legs.report(&*s, &mut it);
        let (expected, received) = sim::deliveries(&*s);
        it.ops = expected;
        it.ok_ops = received.min(expected);
        it.digest = Some(sim::digest(&*s));
        sim::outcome_layer(s.stats(), &mut it);
        sim::gate_tree(&s.snapshot(), &limits, &mut it);
        sim::gate_last_measurement(s.stats(), &mut it);
        let tail = shape.slots.div_ceil(2);
        it.layer.extend([
            (
                "stretch_mean",
                s.stats().tail_mean(tail, |m| m.stretch.mean),
            ),
            (
                "stress_mean",
                s.stats()
                    .tail_mean(tail, |m| m.stress.map_or(0.0, |x| x.mean)),
            ),
            (
                "loss_pct",
                s.stats().tail_mean(tail, |m| m.loss_rate) * 100.0,
            ),
            (
                "overhead_pct",
                s.stats().tail_mean(tail, |m| m.overhead) * 100.0,
            ),
        ]);
        if traced {
            sim::topology_split(&setup, build_s, &mut it);
        }
        spans.close();
        Ok(it)
    })
}

/// The A8 soak's hardened agent with every mechanism on, rebuilt from
/// public types (`figures/soak.rs` keeps its own copy private).
fn resilient(base: AgentConfig) -> AgentConfig {
    AgentConfig {
        walk: WalkConfig::hardened(),
        retry_backoff: 2.0,
        data_timeout: Some(SimTime::from_secs(15)),
        heartbeat: Some(HeartbeatConfig {
            period: SimTime::from_secs(10),
            timeout: SimTime::from_secs(30),
        }),
        gap_threshold: Some(SimTime::from_secs(5)),
        resilience: Some(ResilienceConfig::default()),
        admission: Some(AdmissionConfig {
            rate_per_s: 0.5,
            burst: 1.0,
            ..AdmissionConfig::default()
        }),
        repair: Some(RepairConfig::default()),
        ..base
    }
}

/// `soak_resilient`: sustained churn plus crash bursts against failover,
/// admission, NACK repair and heartbeats.
pub fn soak_resilient(p: &Params) -> Result<Outcome, String> {
    let shape = if p.smoke {
        SoakConfig {
            members: 40,
            warmup_s: 60.0,
            duration_s: 180.0,
            churn_rate_per_s: 0.06,
            burst_every_s: 60.0,
            burst_frac: 0.25,
            measure_every_s: 50.0,
            quiet_tail_s: 60.0,
        }
    } else {
        SoakConfig {
            members: 80,
            warmup_s: 200.0,
            duration_s: 800.0,
            churn_rate_per_s: 0.06,
            burst_every_s: 120.0,
            burst_frac: 0.25,
            measure_every_s: 50.0,
            quiet_tail_s: 100.0,
        }
    };
    let plan = Plan {
        // Crash bursts differ per seed: over sixteen sessions the delivery
        // ratio's quartile distance across seeds is 0.10-0.13 % (0.27 %
        // over six), a third of its 0.5 % bound.
        fixed: if p.smoke { 1 } else { 16 },
        warmup: !p.smoke,
        rounds: 0,
        overhead_rerun: true,
        unclaimed: "netsim.engine_self_s",
    };
    drive(p, &plan, |spans: &mut Spans, seed, traced, _| {
        let mut it = Iter::default();
        spans.open("setup");
        let t = Instant::now();
        let (setup, build_s) = sim::build_setup(|| ch3_setup(shape.members, 0.0, seed));
        let limits = degree_limits_range(shape.members + 1, 2, 5, seed);
        let scenario = Scenario::soak(&shape, &setup.candidates, seed);
        let cfg = DriverConfig {
            data_interval: Some(SimTime::from_ms(100.0)),
            ..DriverConfig::default()
        };
        let mut factory = VdmFactory::delay_based();
        factory.agent = resilient(factory.agent);
        let mut s = sim::open(
            &setup, factory, &scenario, &limits, cfg, seed, false, traced,
        );
        it.setup_s = t.elapsed().as_secs_f64();
        spans.close();

        let ((), wall_s) = sim::timed(traced, || {
            spans.scope("join", |_| {
                s.run_until(SimTime::from_ms(shape.warmup_s * 1_000.0))
            });
            spans.scope("stream", |_| s.run_until(scenario.end));
        });

        spans.open("measure");
        sim::account_whole(&*s, wall_s, &mut it);
        // Mid-burst violations are counted (`overlay.invariant_violations`);
        // the gate is the quiet-tail measurement and the final tree.
        sim::gate_tree(&s.snapshot(), &limits, &mut it);
        sim::gate_last_measurement(s.stats(), &mut it);
        let stats = s.stats();
        it.layer.push(("loss_pct", stats.overall_loss() * 100.0));
        let took: Vec<f64> = stats.recovery.reconnections.iter().map(|r| r.1).collect();
        if !took.is_empty() {
            it.layer
                .push(("reconnect_s_p50", crate::stat::median(&took)));
        }
        if traced {
            sim::topology_split(&setup, build_s, &mut it);
        }
        spans.close();
        Ok(it)
    })
}

/// `stream_fanout`: a settled tree doing nothing but forwarding.
pub fn stream_fanout(p: &Params) -> Result<Outcome, String> {
    let members: usize = if p.smoke { 40 } else { 1_000 };
    // Simulated seconds per timed segment, at 10 chunks/s.
    let segment_s = if p.smoke { 20.0 } else { 50.0 };
    let chunk_ms = 100.0;
    let join_gap_ms = 50.0;
    let settle_s = 60.0;
    let plan = Plan {
        fixed: 1,
        warmup: false,
        rounds: 3,
        overhead_rerun: true,
        unclaimed: "netsim.engine_self_s",
    };
    // The digest covers the first segments only, which always run.
    const DIGEST_SEGMENTS: usize = 2;
    drive(p, &plan, |spans: &mut Spans, seed, traced, budget_s| {
        let mut it = Iter::default();
        spans.open("setup");
        let t = Instant::now();
        let (setup, build_s) = sim::build_setup(|| ch3_setup(members, 0.0, seed));
        let limits = degree_limits_range(setup.underlay.num_hosts(), 2, 5, seed);
        let joins = sim::staggered_joins(&setup, join_gap_ms);
        let formed = SimTime::from_ms(members as f64 * join_gap_ms + settle_s * 1_000.0);
        let scenario = Scenario::from_actions(joins, SimTime::MAX);
        let cfg = DriverConfig {
            data_interval: Some(SimTime::from_ms(chunk_ms)),
            ..DriverConfig::default()
        };
        let mut s = sim::open(
            &setup,
            VdmFactory::delay_based(),
            &scenario,
            &limits,
            cfg,
            seed,
            false,
            traced,
        );
        spans.scope("join", |_| s.run_until(formed));
        it.setup_s = t.elapsed().as_secs_f64();
        spans.close();
        sim::gate_tree(&s.snapshot(), &limits, &mut it);

        let mut legs = Legs::start(&*s);
        let mut now = formed;
        while legs.wall_s < budget_s || it.units.len() < DIGEST_SEGMENTS {
            now += SimTime::from_ms(segment_s * 1_000.0);
            let (expected, received) = legs.run(&mut *s, spans, traced, now, &mut it);
            it.ops += expected;
            it.ok_ops += received.min(expected);
            if it.units.len() == DIGEST_SEGMENTS {
                it.digest = Some(sim::digest(&*s));
            }
        }

        spans.open("measure");
        legs.report(&*s, &mut it);
        sim::outcome_layer(s.stats(), &mut it);
        sim::gate_tree(&s.snapshot(), &limits, &mut it);
        let tm = vdm_overlay::TreeMetrics::compute(&s.snapshot(), &*setup.underlay, None);
        it.layer.push(("stretch_mean", tm.stretch.mean));
        if traced {
            sim::topology_split(&setup, build_s, &mut it);
        }
        spans.close();
        Ok(it)
    })
}
