//! Byte pins on the protocol agent's event order.
//!
//! Seven sessions cover every optional agent mechanism: plain VDM churn,
//! the A8 soak with failover, admission and repair on (VDM and HMTP),
//! the A10 two-tree crash with cross-tree repair, the A11 flash crowd
//! with the coordinate piggyback and both coordinate rankings, HMTP
//! with refinement and root paths, and VDM-L with noisy loss probes.
//! Each session runs under a JSONL tracer and is reduced to three FNV
//! digests: the trace log, the engine's traffic counters, and the run
//! statistics' metrics export. A refactor of the agent that reorders a
//! single send, timer or RNG draw moves at least one of them.
//!
//! Everything lives in one `#[test]` because the tracer is
//! process-global.

use std::sync::{Arc, Mutex};
use vdm_core::VdmFactory;
use vdm_experiments::figures::bootstrap::resilient as bootstrap_resilient;
use vdm_experiments::setup::{ch3_setup, degree_limits_range};
use vdm_experiments::{Protocol, Session};
use vdm_netsim::engine::Counters;
use vdm_netsim::SimTime;
use vdm_overlay::agent::{AdmissionConfig, AgentConfig, ResilienceConfig};
use vdm_overlay::coords::CoordsConfig;
use vdm_overlay::driver::{Driver, DriverConfig};
use vdm_overlay::repair::RepairConfig;
use vdm_overlay::scenario::{ChurnConfig, FlashCrowdConfig, Scenario, SoakConfig};
use vdm_overlay::walk::WalkConfig;
use vdm_overlay::{interior_victim, striped_limits, DiscoveryConfig, RunStats};
use vdm_trace::{EventSink, JsonlSink, MetricsRegistry, Tracer};

const SEED: u64 = 42;

/// The committed digests: `(session, trace log, counters, metrics)`.
const PINS: [(&str, u64, u64, u64); 7] = [
    (
        "vdm_ch3_churn",
        0xcdaf9a74c95be5f5,
        0xb13565aaa984e52f,
        0x6a408cd1d5569cca,
    ),
    (
        "a8_soak_vdm",
        0x4d31744ece888483,
        0x678441a44bdb66c8,
        0x71d5f14c6936f496,
    ),
    (
        "a8_soak_hmtp",
        0x1de568211d75ec93,
        0xd25a607db5d303ec,
        0x9e0c89474571fed2,
    ),
    (
        "a10_k2_cross_repair",
        0x36c315865fbb15f2,
        0x603d8fe49d6ccd9c,
        0xc001472697e57239,
    ),
    (
        "a11_guided_flash_crowd",
        0xef511d2d537a117f,
        0x0110b8a7adffbf3d,
        0x904226ad307de381,
    ),
    (
        "hmtp_refine_root_paths",
        0x9e9d2e8232bd0aa4,
        0x1dd042ad630ac2dc,
        0x96167447988ba30b,
    ),
    (
        "vdm_l_noisy_probes",
        0x94c67767237c59d2,
        0xa8e4006b8f6b2d95,
        0x99431bd2d74b6584,
    ),
];

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Run `f` under a fresh in-memory JSONL tracer; return the digests of
/// the log it wrote, the counters and the metrics export, after
/// checking with `exercised` that the session reached the mechanism it
/// pins.
fn traced(
    f: impl FnOnce() -> (Counters, u64, RunStats),
    exercised: impl FnOnce(&RunStats) -> bool,
) -> (u64, u64, u64) {
    let sink = Arc::new(Mutex::new(JsonlSink::new(Vec::<u8>::new())));
    let prev = vdm_trace::set_global(Tracer::with_sink(sink.clone() as Arc<Mutex<dyn EventSink>>));
    let (counters, events, stats) = f();
    vdm_trace::set_global(prev);
    let log = {
        let mut s = sink.lock().unwrap();
        s.flush();
        std::mem::take(s.writer_mut())
    };
    assert!(
        !log.is_empty() && exercised(&stats),
        "a pinned session went idle"
    );
    let mut m = MetricsRegistry::new();
    stats.export_metrics(&mut m);
    (
        fnv(&log),
        fnv(format!("{counters:?} events={events}").as_bytes()),
        fnv(m.to_json().as_bytes()),
    )
}

fn churn(members: usize) -> ChurnConfig {
    ChurnConfig {
        members,
        warmup_s: 120.0,
        slot_s: 100.0,
        slots: 3,
        churn_pct: 10.0,
    }
}

/// A churn session of `proto` on the plain Chapter 3 testbed.
fn churn_session(proto: Protocol, link_loss: f64, noise: f64) -> (Counters, u64, RunStats) {
    let members = 24;
    let setup = ch3_setup(members, link_loss, SEED);
    let scenario = Scenario::churn(&churn(members), &setup.candidates, SEED);
    let mut session = setup.session(&scenario, SEED);
    session.cfg.loss_probe_noise = noise;
    let out = proto.run(session);
    (out.counters, out.events, out.stats)
}

/// The A8 soak's agent: the hardened control plane with failover,
/// admission and repair all on.
fn soak_agent(base: AgentConfig) -> AgentConfig {
    AgentConfig {
        resilience: Some(ResilienceConfig::default()),
        admission: Some(AdmissionConfig {
            rate_per_s: 0.5,
            burst: 1.0,
            ..AdmissionConfig::default()
        }),
        repair: Some(RepairConfig::default()),
        ..base.hardened()
    }
}

fn soak(proto: Protocol) -> (Counters, u64, RunStats) {
    let shape = SoakConfig {
        members: 14,
        warmup_s: 60.0,
        duration_s: 180.0,
        churn_rate_per_s: 0.03,
        burst_every_s: 60.0,
        burst_frac: 0.25,
        measure_every_s: 50.0,
        quiet_tail_s: 60.0,
    };
    let setup = ch3_setup(shape.members, 0.0, SEED);
    let scenario = Scenario::soak(&shape, &setup.candidates, SEED);
    let out = proto.run(Session {
        agent: &soak_agent,
        ..setup.session(&scenario, SEED)
    });
    (out.counters, out.events, out.stats)
}

/// The A10 crash series at `k = 2`: two decorrelated trees with striped
/// repair and cross-tree repair; tree 0's worst interior node crashes
/// mid-run.
fn multitree_crash() -> (Counters, u64, RunStats) {
    let k = 2;
    let members = 14;
    let setup = ch3_setup(members, 0.0, SEED);
    let sc = ChurnConfig {
        members,
        warmup_s: 60.0,
        slot_s: 60.0,
        slots: 4,
        churn_pct: 0.0,
    };
    let scenario = Scenario::churn(&sc, &setup.candidates, SEED);
    let limits = striped_limits(
        &degree_limits_range(members + 1, 2, 5, SEED),
        k,
        setup.source,
        1,
    );
    let factories = (0..k)
        .map(|t| {
            let mut f = VdmFactory::delay_based().for_tree(t, SEED, 0.25);
            let base = f.agent.hardened();
            f.agent = AgentConfig {
                walk: WalkConfig {
                    restart_anchor: true,
                    ..base.walk
                },
                repair: Some(
                    RepairConfig {
                        window: 8,
                        ..RepairConfig::default()
                    }
                    .striped(k as u64, t as u64),
                ),
                cross_repair: Some(AdmissionConfig::default()),
                ..base
            };
            f
        })
        .collect();
    let mut driver = Driver::striped(
        setup.underlay.clone(),
        Some(setup.underlay.clone()),
        setup.source,
        factories,
        &scenario,
        limits,
        DriverConfig {
            data_interval: Some(SimTime::from_secs(1)),
            compute_stress: true,
            ..DriverConfig::default()
        },
        SEED,
    );
    driver.run_until(SimTime::from_secs(150));
    let victim = interior_victim(&driver.snapshots()).expect("an interior node");
    driver.crash_now(victim);
    let out = driver.run_trees();
    (out.counters, out.events, out.stats)
}

/// The A11 flash crowd with the whole coordinate stack on: Vivaldi
/// piggyback, coordinate-ranked discovery probing and coordinate-ranked
/// failover.
fn guided_flash_crowd() -> (Counters, u64, RunStats) {
    let fc = FlashCrowdConfig {
        seeds: 3,
        stale_frac: 0.3,
        joiners: 8,
        warmup_s: 30.0,
        crowd_at_s: 60.0,
        spread_s: 4.0,
        seed_churn_frac: 0.5,
        churn_delay_s: 2.0,
        settle_s: 90.0,
        measure_every_s: 60.0,
        discovery: DiscoveryConfig {
            coord_ranked: true,
            ..DiscoveryConfig::default()
        },
    };
    let guided = |a| {
        let mut a = bootstrap_resilient(a);
        a.coords = Some(CoordsConfig::default());
        if let Some(r) = a.resilience.as_mut() {
            r.coord_ranked = true;
        }
        a
    };
    let setup = ch3_setup(fc.seeds + fc.joiners, 0.0, SEED);
    let scenario = Scenario::flash_crowd(&fc, &setup.candidates, SEED);
    let members = setup.candidates.len();
    let out = Protocol::Vdm.run(Session {
        agent: &guided,
        limits: vec![4; members + 1],
        ..setup.session(&scenario, SEED)
    });
    (out.counters, out.events, out.stats)
}

#[test]
fn agent_event_order_is_pinned() {
    let actual = [
        (
            "vdm_ch3_churn",
            traced(
                || churn_session(Protocol::Vdm, 0.0, 0.0),
                |s| s.recovery.orphan_events > 0,
            ),
        ),
        (
            "a8_soak_vdm",
            traced(
                || soak(Protocol::Vdm),
                |s| {
                    let r = &s.recovery;
                    r.failover_successes > 0 && r.joins_throttled > 0 && r.chunks_repaired > 0
                },
            ),
        ),
        (
            "a8_soak_hmtp",
            traced(
                || soak(Protocol::Hmtp(300)),
                |s| s.recovery.failover_attempts > 0,
            ),
        ),
        (
            "a10_k2_cross_repair",
            traced(multitree_crash, |s| s.recovery.cross_repaired > 0),
        ),
        (
            "a11_guided_flash_crowd",
            traced(guided_flash_crowd, |s| {
                s.recovery.coord_updates > 0 && s.recovery.guided_entries > 0
            }),
        ),
        (
            "hmtp_refine_root_paths",
            traced(
                || churn_session(Protocol::Hmtp(60), 0.0, 0.0),
                |s| s.join_completions > 0,
            ),
        ),
        (
            "vdm_l_noisy_probes",
            traced(
                || churn_session(Protocol::VdmL, 0.02, 0.002),
                |s| s.join_completions > 0,
            ),
        ),
    ];
    let rendered: Vec<String> = actual
        .iter()
        .map(|(name, (log, counters, metrics))| {
            format!("    (\"{name}\", {log:#018x}, {counters:#018x}, {metrics:#018x}),")
        })
        .collect();
    let got: Vec<(&str, u64, u64, u64)> = actual
        .iter()
        .map(|&(name, (l, c, m))| (name, l, c, m))
        .collect();
    assert_eq!(
        got,
        PINS.to_vec(),
        "agent pins moved; the new table is:\n{}",
        rendered.join("\n")
    );
}
