//! Proactive-resilience integration tests: backup-parent failover,
//! ancestor-list recovery, rejoin admission and NACK gap repair must
//! hold the tree together under crash-heavy churn — deterministically
//! per seed. Includes the `soak_smoke` CI gate (fixed seed, fails on
//! any tree-invariant violation).

mod common;

use common::{run_driver, staggered_joins};
use proptest::{prop_assert, prop_assert_eq, proptest};
use vdm_experiments::figures::bootstrap::resilient;
use vdm_experiments::setup::ch3_setup;
use vdm_experiments::{Protocol, Session};
use vdm_netsim::SimTime;
use vdm_overlay::driver::DriverConfig;
use vdm_overlay::scenario::{Action, Scenario, SoakConfig};

/// Regression: a newcomer whose join walk is in flight *through* a node
/// that crashes (no Leave, no handover — `Action::Crash` just unplugs
/// it) must still complete the join. Swept over several crash offsets
/// so the walk is caught at different stages: probing the dead node,
/// waiting on its children, or already past it.
#[test]
fn newcomer_joins_through_a_crashing_node() {
    for (case, crash_offset_ms) in [50.0_f64, 150.0, 300.0, 600.0].into_iter().enumerate() {
        let setup = ch3_setup(6, 0.0, 33);
        // Degree 1 everywhere forces a chain src -> c0 -> c1 -> c2 -> c3,
        // so the newcomer's walk must descend through c1.
        let limits = vec![1u32; 7];
        let mut actions = staggered_joins(&setup.candidates[..4], 5, 5);
        let t_join = 60_000.0;
        actions.push((SimTime::from_ms(t_join), Action::Join(setup.candidates[4])));
        actions.push((
            SimTime::from_ms(t_join + crash_offset_ms),
            Action::Crash(setup.candidates[1]),
        ));
        actions.push((SimTime::from_secs(200), Action::Measure));
        let scenario = Scenario::from_actions(actions, SimTime::from_secs(205));
        let out = run_driver(&setup, &resilient, &scenario, limits, 33);
        let last = out.stats.measurements.last().unwrap();
        assert_eq!(last.members, 4, "case {case}: 5 joined, 1 crashed");
        assert_eq!(
            last.connected, 4,
            "case {case} (crash {crash_offset_ms} ms after join): \
             newcomer or orphan left dark"
        );
        assert_eq!(last.tree_errors, 0, "case {case}: invariants broken");
    }
}

/// CI smoke gate: one fixed-seed soak run (Poisson churn + correlated
/// crash bursts + rejoin storms) with every mechanism on. Fails on any
/// tree-invariant violation at any measurement, on dark peers after the
/// quiet tail, and on the mechanisms not actually engaging.
#[test]
fn soak_smoke() {
    let members = 14;
    let setup = ch3_setup(members, 0.0, 4242);
    let scenario = Scenario::soak(
        &SoakConfig {
            members,
            warmup_s: 60.0,
            duration_s: 180.0,
            churn_rate_per_s: 0.03,
            burst_every_s: 60.0,
            burst_frac: 0.25,
            measure_every_s: 50.0,
            quiet_tail_s: 60.0,
        },
        &setup.candidates,
        4242,
    );
    let run = || {
        Protocol::Vdm.run(Session {
            agent: &resilient,
            ..Session::new(
                setup.underlay.clone(),
                None,
                setup.source,
                &scenario,
                vec![4; members + 1],
                DriverConfig {
                    data_interval: Some(SimTime::from_secs(1)),
                    ..DriverConfig::default()
                },
                4242,
            )
        })
    };
    let out = run();
    for m in &out.stats.measurements {
        assert_eq!(
            m.tree_errors, 0,
            "tree-invariant violation at t={}",
            m.time_s
        );
    }
    assert_eq!(out.stats.recovery.total_violations(), 0);
    let last = out.stats.measurements.last().unwrap();
    assert_eq!(last.connected, last.members, "dark peers after quiet tail");
    // The soak actually exercised the mechanisms.
    assert!(
        out.stats.recovery.orphan_events >= 1,
        "no orphans — soak too tame"
    );
    assert!(
        out.stats.recovery.failover_attempts >= 1,
        "backup-parent failover never engaged"
    );
    // Byte-level determinism of the recovery numbers per seed.
    let again = run();
    assert_eq!(out.stats.recovery, again.stats.recovery);
}

proptest! {
    /// Under ANY generated soak schedule (churn rate, burst shape and
    /// seed all varied) with every mechanism on, no peer ever exceeds
    /// its degree limit and the tree invariants hold at the end of the
    /// quiet tail. Degree-limit violations would abort the run outright
    /// (`PeerState::add_child` panics past the limit); structural
    /// violations show up in `tree_errors`. Measurements taken *during*
    /// a burst may transiently observe a just-orphaned peer, so only
    /// the post-tail snapshot must be clean.
    #[test]
    fn soak_churn_preserves_tree_invariants(
        churn_cp in 0u32..8,       // churn_rate_per_s = cp / 100
        burst_frac_pct in 0u32..40,
        burst_every_s in 30.0f64..90.0,
        plan_seed in 0u64..1u64 << 48,
    ) {
        let members = 10usize;
        let setup = ch3_setup(members, 0.0, plan_seed ^ 0x5e11);
        let scenario = Scenario::soak(
            &SoakConfig {
                members,
                warmup_s: 40.0,
                duration_s: 120.0,
                churn_rate_per_s: churn_cp as f64 / 100.0,
                burst_every_s,
                burst_frac: burst_frac_pct as f64 / 100.0,
                measure_every_s: 60.0,
                quiet_tail_s: 60.0,
            },
            &setup.candidates,
            plan_seed,
        );
        let out = run_driver(&setup, &resilient, &scenario, vec![3; members + 1], plan_seed);
        let last = out.stats.measurements.last().unwrap();
        prop_assert_eq!(last.tree_errors, 0, "errors after quiet tail (seed {})", plan_seed);
        prop_assert_eq!(
            last.connected,
            last.members,
            "dark peers after quiet tail (seed {})",
            plan_seed
        );
        prop_assert!(out.stats.source_chunks == 0 || out.stats.overall_loss() < 1.0);
    }
}
