//! Fault-injection integration tests: the hardened control plane must
//! ride out duplicated/reordered control traffic, heal partitions
//! within the watchdog-bounded recovery window, and survive
//! deep ungraceful crashes — all deterministically per seed.

use proptest::{prop_assert, prop_assert_eq, proptest};
use std::sync::Arc;
use vdm_experiments::setup::ch3_setup;
use vdm_experiments::{Protocol, Session};
use vdm_netsim::{ChaosSpec, FaultEvent, FaultPlan, HostId, LatencySpace, SimTime, Underlay};
use vdm_overlay::agent::AgentConfig;
use vdm_overlay::driver::{DriverConfig, RunOutput};
use vdm_overlay::scenario::{Action, ChurnConfig, Scenario};

/// One VDM-D session from host 0 on the chaos-grade control plane.
fn run_hardened(
    underlay: Arc<dyn Underlay + Send + Sync>,
    scenario: &Scenario,
    limits: Vec<u32>,
    faults: Option<FaultPlan>,
    seed: u64,
) -> RunOutput {
    Protocol::Vdm.run(Session {
        agent: &AgentConfig::hardened,
        faults,
        ..Session::new(
            underlay,
            None,
            HostId(0),
            scenario,
            limits,
            DriverConfig::default(),
            seed,
        )
    })
}

/// Under heavy duplication and bounded reordering of every message —
/// but no losses — the tree must never violate its invariants: the
/// generation-stamped `ParentChange` handling and nonce-tied walk
/// replies make duplicated/stale control messages harmless.
#[test]
fn dup_and_reorder_never_violate_tree_invariants() {
    let members = 16;
    let setup = ch3_setup(members, 0.0, 77);
    let scenario = Scenario::churn(
        &ChurnConfig {
            members,
            warmup_s: 60.0,
            slot_s: 60.0,
            slots: 3,
            churn_pct: 10.0,
        },
        &setup.candidates,
        77,
    );
    // One fault window covering the whole churn phase.
    let plan = FaultPlan::with_events(
        77,
        vec![FaultEvent::MsgFaults {
            from: SimTime::from_secs(5),
            until: SimTime::from_secs(230),
            drop_p: 0.0,
            dup_p: 0.25,
            reorder_p: 0.25,
            reorder_max: SimTime::from_ms(300.0),
            spike_p: 0.0,
            spike: SimTime::ZERO,
        }],
    );
    let out = run_hardened(
        setup.underlay.clone(),
        &scenario,
        vec![4; members + 1],
        Some(plan),
        77,
    );
    for m in &out.stats.measurements {
        assert_eq!(m.tree_errors, 0, "invariant violation at t={}", m.time_s);
    }
    assert_eq!(out.stats.recovery.total_violations(), 0);
    let last = out.stats.measurements.last().unwrap();
    assert_eq!(last.connected, last.members, "dark peers under dup+reorder");
    // Duplication really happened (the fault layer was live).
    assert!(out.counters.faults_duplicated > 0);
    assert!(out.counters.faults_delayed > 0);
}

/// A 30 s bisection partition: every alive node must be reconnected and
/// receiving data again within the watchdog-bounded recovery window
/// (partition end + data timeout + reconnect walks).
#[test]
fn partition_heals_within_watchdog_bound() {
    let members = 14;
    let setup = ch3_setup(members, 0.0, 31);
    let scenario = Scenario::churn(
        &ChurnConfig {
            members,
            warmup_s: 60.0,
            slot_s: 50.0,
            slots: 3,
            churn_pct: 0.0,
        },
        &setup.candidates,
        31,
    );
    // Cut the second half of the candidates off from the source side
    // for 30 s.
    let side: Vec<HostId> = setup.candidates[members / 2..].to_vec();
    let plan = FaultPlan::with_events(
        31,
        vec![FaultEvent::Partition {
            side,
            from: SimTime::from_secs(120),
            until: SimTime::from_secs(150),
        }],
    );
    let out = run_hardened(
        setup.underlay.clone(),
        &scenario,
        vec![4; members + 1],
        Some(plan),
        31,
    );
    // The partition actually bit: peers were orphaned and messages died.
    assert!(
        out.stats.recovery.orphan_events >= 1,
        "partition orphaned no one"
    );
    assert!(!out.stats.recovery.reconnections.is_empty());
    assert!(out.counters.faults_dropped > 0);
    // Watchdog-bounded recovery: partition end (150 s) + data timeout
    // (15 s) + backed-off reconnect walks. Nobody may still be
    // reconnecting past that bound.
    let bound = 150.0 + 15.0 + 30.0;
    for &(at, _) in &out.stats.recovery.reconnections {
        assert!(
            at <= bound,
            "reconnection at {at}s, after the {bound}s bound"
        );
    }
    // The final slot (160–210 s) is fault-free: everyone is back and
    // the stream flows loss-free again.
    let last = out.stats.measurements.last().unwrap();
    assert_eq!(last.connected, last.members, "dark peers after the heal");
    assert_eq!(last.tree_errors, 0);
    assert!(
        last.loss_rate < 0.35,
        "stream never resumed: final-slot loss {}",
        last.loss_rate
    );
}

/// Parent AND grandparent crash in the same slot, ungracefully: the
/// §3.3 anchor is dead and nobody sent Leave, so the orphan must detect
/// the failure via the stream watchdog and still find its way back.
#[test]
fn parent_and_grandparent_crash_in_same_slot() {
    let setup = ch3_setup(6, 0.0, 21);
    // Degree 1 everywhere forces a chain: src -> c0 -> c1 -> c2 -> ...
    let limits = vec![1u32; 7];
    let mut actions = Vec::new();
    for (i, &h) in setup.candidates.iter().enumerate() {
        actions.push((SimTime::from_secs(5 + i as u64 * 5), Action::Join(h)));
    }
    // With degree 1 the chain is join-ordered: candidates[1] is the
    // grandparent of candidates[3], candidates[2] its parent. Crash
    // both at once — no Leave notifications, no handover.
    let t_kill = SimTime::from_secs(60);
    actions.push((t_kill, Action::Crash(setup.candidates[1])));
    actions.push((t_kill, Action::Crash(setup.candidates[2])));
    actions.push((SimTime::from_secs(150), Action::Measure));
    let scenario = Scenario::from_actions(actions, SimTime::from_secs(155));
    let out = run_hardened(setup.underlay.clone(), &scenario, limits, None, 21);
    let last = out.stats.measurements.last().unwrap();
    assert_eq!(last.members, 4); // 6 joined, 2 crashed
    assert_eq!(
        last.connected, 4,
        "orphans with a crashed parent AND grandparent must still recover"
    );
    assert_eq!(last.tree_errors, 0);
    assert!(out.stats.recovery.orphan_events >= 1);
    assert!(!out.stats.recovery.reconnections.is_empty());
}

/// Cheap flat underlay for the property: hosts on a line, 5 ms apart
/// one way (same shape the driver unit tests use).
fn line_space(n: usize) -> Arc<LatencySpace> {
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

proptest! {
    /// Convergence guarantee: after ANY generated fault plan, the tree
    /// invariants (single parent, acyclic, degree limits, connectivity)
    /// are restored within bounded sim-time of the last fault clearing.
    #[test]
    fn tree_invariants_restored_after_any_fault_plan(
        flaps in 0usize..4,
        partitions in 0usize..2,
        msg_windows in 0usize..3,
        slowdowns in 0usize..2,
        plan_seed in 0u64..1u64 << 48,
    ) {
        let members = 10usize;
        let space = line_space(members + 1);
        let hosts: Vec<HostId> = (0..=members as u32).map(HostId).collect();
        let scenario = Scenario::churn(
            &ChurnConfig {
                members,
                warmup_s: 40.0,
                slot_s: 110.0,
                slots: 2,
                churn_pct: 0.0,
            },
            &hosts[1..],
            plan_seed,
        );
        // Faults confined to [50 s, 160 s); the run measures last at
        // 260 s, a 100 s quiet tail for recovery.
        let spec = ChaosSpec {
            start: SimTime::from_secs(50),
            end: SimTime::from_secs(160),
            link_flaps: flaps,
            partitions,
            msg_windows,
            slowdowns,
            ..ChaosSpec::default()
        };
        let plan = FaultPlan::generate(&spec, &hosts, plan_seed);
        prop_assert!(plan.horizon() <= SimTime::from_secs(160));
        let out = run_hardened(space, &scenario, vec![3; members + 1], Some(plan), plan_seed);
        let last = out.stats.measurements.last().unwrap();
        prop_assert_eq!(last.tree_errors, 0, "errors after quiet tail (seed {})", plan_seed);
        prop_assert_eq!(
            last.connected,
            last.members,
            "dark peers after quiet tail (seed {})",
            plan_seed
        );
    }
}
