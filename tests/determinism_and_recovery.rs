//! Determinism of the whole stack and failure-recovery behaviour.

use vdm_core::VdmFactory;
use vdm_experiments::setup::{ch3_setup, degree_limits_range};
use vdm_experiments::{Protocol, Session};
use vdm_netsim::SimTime;
use vdm_overlay::agent::AgentConfig;
use vdm_overlay::driver::DriverConfig;
use vdm_overlay::scenario::{Action, ChurnConfig, Scenario};
use vdm_planetlab::{SessionConfig, SessionRunner};

#[test]
fn identical_seeds_reproduce_full_runs_bit_for_bit() {
    let run = |seed: u64| {
        let setup = ch3_setup(18, 0.0, 99);
        let limits = degree_limits_range(19, 2, 5, 99);
        let scenario = Scenario::churn(
            &ChurnConfig {
                members: 18,
                warmup_s: 100.0,
                slot_s: 50.0,
                slots: 3,
                churn_pct: 15.0,
            },
            &setup.candidates,
            seed,
        );
        let out = Protocol::Vdm.run(Session::new(
            setup.underlay.clone(),
            Some(setup.underlay.clone()),
            setup.source,
            &scenario,
            limits,
            DriverConfig {
                compute_stress: true,
                ..DriverConfig::default()
            },
            seed,
        ));
        (
            out.stats.startup_s,
            out.stats.reconnection_s,
            out.stats.received,
            out.final_snapshot.parent,
            out.events,
        )
    };
    assert_eq!(run(4), run(4));
    assert_ne!(run(4).4, run(5).4, "different seeds should diverge");
}

#[test]
fn planetlab_sessions_are_deterministic_with_jitter() {
    // Jitter draws from the seeded engine RNG, so even noisy probes
    // replay exactly.
    let cfg = SessionConfig {
        nodes: 15,
        warmup_s: 90.0,
        slot_s: 60.0,
        slots: 2,
        churn_pct: 10.0,
        chunk_interval_ms: 1000.0,
        ..SessionConfig::default()
    };
    let runner = SessionRunner::prepare(&cfg, 8);
    let a = runner.run(VdmFactory::delay_based(), 8);
    let b = runner.run(VdmFactory::delay_based(), 8);
    assert_eq!(a.stats.startup_s, b.stats.startup_s);
    assert_eq!(a.stats.reconnection_s, b.stats.reconnection_s);
    assert_eq!(a.final_snapshot.parent, b.final_snapshot.parent);
    assert_eq!(a.events, b.events);
}

/// Hand-built scenario: parent AND grandparent leave in the same
/// instant, so the orphan's §3.3 anchor is dead and it must fall back
/// to the source via the walk timeout path.
#[test]
fn orphan_recovers_when_grandparent_died_too() {
    let setup = ch3_setup(6, 0.0, 21);
    // Degree 1 everywhere forces a chain: src -> a -> b -> c -> ...
    let limits = vec![1u32; 7];
    let mut actions = Vec::new();
    for (i, &h) in setup.candidates.iter().enumerate() {
        actions.push((SimTime::from_secs(5 + i as u64 * 5), Action::Join(h)));
    }
    // Find who is where after the joins by replaying: with degree 1 the
    // chain is join-ordered, so candidates[1] is the grandparent of
    // candidates[3] and candidates[2] its parent. Kill both at once.
    let t_kill = SimTime::from_secs(60);
    actions.push((t_kill, Action::Leave(setup.candidates[1])));
    actions.push((t_kill, Action::Leave(setup.candidates[2])));
    actions.push((SimTime::from_secs(120), Action::Measure));
    let scenario = Scenario::from_actions(actions, SimTime::from_secs(125));
    let out = Protocol::Vdm.run(Session::new(
        setup.underlay.clone(),
        None,
        setup.source,
        &scenario,
        limits,
        DriverConfig::default(),
        21,
    ));
    let last = out.stats.measurements.last().unwrap();
    assert_eq!(last.members, 4); // 6 joined, 2 left
    assert_eq!(
        last.connected, 4,
        "orphans with dead grandparents must still recover"
    );
    assert_eq!(last.tree_errors, 0);
    // At least one reconnection was recorded and took longer than a
    // normal one (timeout to the dead anchor first).
    assert!(!out.stats.reconnection_s.is_empty());
}

/// The data-timeout watchdog must pull peers out of dark subtrees even
/// if no Leave notification ever reaches them (e.g. it was processed by
/// a stale incarnation). We force the situation by disabling the stream
/// for a while... instead, more directly: run with a watchdog shorter
/// than the slot and assert no peer stays dark across a measurement.
#[test]
fn data_watchdog_keeps_the_session_alive_under_heavy_churn() {
    let setup = ch3_setup(16, 0.0, 31);
    let limits = degree_limits_range(17, 2, 3, 31);
    let scenario = Scenario::churn(
        &ChurnConfig {
            members: 16,
            warmup_s: 60.0,
            slot_s: 60.0,
            slots: 5,
            churn_pct: 30.0,
        },
        &setup.candidates,
        31,
    );
    let out = Protocol::Vdm.run(Session {
        agent: &|a| AgentConfig {
            data_timeout: Some(SimTime::from_secs(10)),
            ..a
        },
        ..Session::new(
            setup.underlay.clone(),
            None,
            setup.source,
            &scenario,
            limits,
            DriverConfig {
                data_interval: Some(SimTime::from_secs(1)),
                ..DriverConfig::default()
            },
            31,
        )
    });
    for m in &out.stats.measurements {
        assert_eq!(m.tree_errors, 0, "at t={}", m.time_s);
    }
    // Joins commanded moments before a measurement may still be in
    // flight; what must never happen is peers *staying* dark. The final
    // slot had a full 60 s of quiet, so everyone must be attached.
    let last = out.stats.measurements.last().unwrap();
    assert_eq!(last.connected, last.members, "dark peers at session end");
    for m in &out.stats.measurements[1..] {
        assert!(
            m.connected + 2 >= m.members,
            "too many dark peers at t={}: {}/{}",
            m.time_s,
            m.connected,
            m.members
        );
    }
}

#[test]
fn graceful_leaves_reconnect_quickly() {
    // §3.3: reconnection at the grandparent should be fast — compare
    // with startup on the same run.
    let setup = ch3_setup(30, 0.0, 44);
    let limits = degree_limits_range(31, 2, 4, 44);
    let scenario = Scenario::churn(
        &ChurnConfig {
            members: 30,
            warmup_s: 150.0,
            slot_s: 100.0,
            slots: 4,
            churn_pct: 10.0,
        },
        &setup.candidates,
        44,
    );
    let out = Protocol::Vdm.run(Session::new(
        setup.underlay.clone(),
        None,
        setup.source,
        &scenario,
        limits,
        DriverConfig::default(),
        44,
    ));
    assert!(!out.stats.reconnection_s.is_empty());
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let startup = avg(&out.stats.startup_s);
    let reconn = avg(&out.stats.reconnection_s);
    assert!(
        reconn <= startup * 1.5 + 0.5,
        "reconnection {reconn}s should not dwarf startup {startup}s"
    );
}
