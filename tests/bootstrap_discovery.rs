//! Decentralized-bootstrap integration tests: joiners that know only a
//! (partly stale) bootstrap set must converge onto the tree under seed
//! crashes mid-bootstrap — deterministically per seed — and the whole
//! discovery subsystem must be byte-invisible when switched off.
//! Includes the `bootstrap_smoke` CI gate (fixed seed, fails on any
//! tree-invariant violation).

mod common;

use common::run_driver;
use proptest::{prop_assert, prop_assert_eq, proptest};
use vdm_experiments::figures::bootstrap::{bootstrap_family, resilient};
use vdm_experiments::report::Field;
use vdm_experiments::setup::ch3_setup;
use vdm_experiments::Effort;
use vdm_overlay::agent::AgentConfig;
use vdm_overlay::driver::RunOutput;
use vdm_overlay::scenario::{ChurnConfig, FlashCrowdConfig, Scenario};
use vdm_overlay::DiscoveryConfig;

fn run_flash_crowd(topo_seed: u64, fc: &FlashCrowdConfig, plan_seed: u64) -> RunOutput {
    run_flash_crowd_with(topo_seed, fc, plan_seed, &resilient)
}

fn run_flash_crowd_with(
    topo_seed: u64,
    fc: &FlashCrowdConfig,
    plan_seed: u64,
    agent: &dyn Fn(AgentConfig) -> AgentConfig,
) -> RunOutput {
    let setup = ch3_setup(fc.seeds + fc.joiners, 0.0, topo_seed);
    let scenario = Scenario::flash_crowd(fc, &setup.candidates, plan_seed);
    let members = setup.candidates.len();
    run_driver(&setup, agent, &scenario, vec![4; members + 1], plan_seed)
}

/// The fixed-seed CI gate: the quick A11 family (every k, staleness and
/// seed-churn cell, the acceptance cell k = 3, 30 % stale entries, half
/// the live seeds crashed mid-crowd among them) must leave zero
/// structural violations, anchor at least one joiner via discovery,
/// and reproduce byte-identically on a rerun.
#[test]
fn bootstrap_smoke() {
    let report = bootstrap_family(Effort::Quick, 42);
    assert_eq!(report.total_violations, 0, "tree invariants broke");
    assert!(
        report.anchor_median_s.is_finite(),
        "no joiner ever anchored via discovery"
    );
    for p in &report.points {
        assert!(
            matches!(p.get("connected_frac"), Some(Field::F64(f)) if *f >= 0.99),
            "not every member connected: {p:?}"
        );
        assert!(
            matches!(p.get("contacts"), Some(Field::U64(c)) if *c > 0),
            "discovery never probed the seeds: {p:?}"
        );
    }
    let again = bootstrap_family(Effort::Quick, 42);
    assert_eq!(
        report.report(Effort::Quick, 42).render(),
        again.report(Effort::Quick, 42).render()
    );
}

/// Discovery off means *off*: a run with `discovery: None` and a run
/// whose config carries an empty seed set (nothing to probe, so the
/// subsystem must fall through silently) are byte-identical — same
/// engine events, same stats, same final parents.
#[test]
fn empty_discovery_config_is_byte_identical_to_none() {
    let members = 12usize;
    let setup = ch3_setup(members, 0.0, 42);
    let churn = ChurnConfig {
        members,
        warmup_s: 40.0,
        slot_s: 60.0,
        slots: 3,
        churn_pct: 5.0,
    };
    let run = |discovery: Option<DiscoveryConfig>| -> RunOutput {
        let mut scenario = Scenario::churn(&churn, &setup.candidates, 42);
        scenario.discovery = discovery;
        run_driver(&setup, &resilient, &scenario, vec![4; members + 1], 42)
    };
    let off = run(None);
    let empty = run(Some(DiscoveryConfig::default()));
    assert_eq!(off.events, empty.events, "engine event counts diverged");
    assert_eq!(off.counters, empty.counters, "traffic counters diverged");
    assert_eq!(
        format!("{:?}", off.stats.measurements),
        format!("{:?}", empty.stats.measurements)
    );
    assert_eq!(off.stats.recovery, empty.stats.recovery);
    assert_eq!(off.final_snapshot.parent, empty.final_snapshot.parent);
    assert_eq!(
        empty.stats.recovery.bootstrap_contacts, 0,
        "an empty seed set must never probe"
    );
}

/// Coordinate-guided entry composes with decentralized bootstrap: the
/// acceptance flash crowd re-run with the whole coordinate stack on
/// (Vivaldi piggyback on walk traffic, coordinate-ranked discovery
/// probing, damped restarts) must stay exactly as clean as discovery
/// alone — zero invariant violations, so guided never exceeds
/// unguided — with everyone connected, and must actually exercise the
/// coordinate machinery rather than silently disable itself.
#[test]
fn guided_entry_composes_with_discovery() {
    let fc = |coord_ranked: bool| FlashCrowdConfig {
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
            coord_ranked,
            ..DiscoveryConfig::default()
        },
    };
    let guided_agent = |a| {
        let mut a = resilient(a);
        a.coords = true;
        if let Some(r) = a.resilience.as_mut() {
            r.coord_ranked = true;
        }
        a
    };
    let plain = run_flash_crowd(42, &fc(false), 42);
    let guided = run_flash_crowd_with(42, &fc(true), 42, &guided_agent);
    assert_eq!(plain.stats.recovery.total_violations(), 0);
    assert!(
        guided.stats.recovery.total_violations() <= plain.stats.recovery.total_violations(),
        "coordinates introduced invariant violations: {} vs {}",
        guided.stats.recovery.total_violations(),
        plain.stats.recovery.total_violations()
    );
    let last = guided.stats.measurements.last().unwrap();
    assert_eq!(last.tree_errors, 0, "guided run broke tree invariants");
    assert_eq!(last.connected, last.members, "guided run left dark peers");
    assert!(
        guided.stats.recovery.coord_updates > 0,
        "coordinates never updated — the piggyback path is dead"
    );
}

proptest! {
    /// Convergence guarantee: under ANY flash-crowd schedule (stale
    /// fraction, seed-churn fraction, arrival spread and plan seed all
    /// varied) over the two pinned topologies, every joiner ends up
    /// connected — via a discovered anchor or the source fallback —
    /// and the settled tree is structurally clean. Every join episode
    /// must account for exactly one anchor or one fallback.
    #[test]
    fn flash_crowd_converges_under_random_seed_crash_schedules(
        stale_pct in 0u32..50,
        churn_pct in 0u32..=100,
        spread_s in 1.0f64..8.0,
        plan_seed in 0u64..1u64 << 48,
    ) {
        for topo_seed in [11u64, 42] {
            let fc = FlashCrowdConfig {
                seeds: 3,
                stale_frac: stale_pct as f64 / 100.0,
                joiners: 8,
                warmup_s: 30.0,
                crowd_at_s: 60.0,
                spread_s,
                seed_churn_frac: churn_pct as f64 / 100.0,
                churn_delay_s: 2.0,
                // Generous settle window: a late joiner that exhausts
                // all four discovery rounds (~30 s of backoff) before
                // falling back to the source still has time to land.
                settle_s: 90.0,
                measure_every_s: 60.0,
                discovery: DiscoveryConfig::default(),
            };
            let out = run_flash_crowd(topo_seed, &fc, plan_seed);
            let last = out.stats.measurements.last().unwrap();
            prop_assert_eq!(
                last.tree_errors, 0,
                "errors after settle (topo {}, plan {})", topo_seed, plan_seed
            );
            prop_assert_eq!(
                last.connected, last.members,
                "dark peers after settle (topo {}, plan {})", topo_seed, plan_seed
            );
            let r = &out.stats.recovery;
            let joins = out.stats.startup_s.len() as u64;
            prop_assert_eq!(
                r.discovery_anchors.len() as u64 + r.discovery_fallbacks,
                joins,
                "join episodes unaccounted for (topo {}, plan {})", topo_seed, plan_seed
            );
            prop_assert!(
                r.total_violations() == 0,
                "invariant violations mid-run (topo {}, plan {})", topo_seed, plan_seed
            );
        }
    }
}
