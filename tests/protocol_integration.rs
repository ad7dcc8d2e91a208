//! Cross-crate integration: every protocol, both underlay models, full
//! message-driven sessions under churn.

use std::sync::Arc;
use vdm_experiments::setup::{ch3_setup, degree_limits_range};
use vdm_experiments::{Protocol, Session};
use vdm_netsim::Underlay;
use vdm_netsim::{HostId, SimTime};
use vdm_overlay::driver::{DriverConfig, RunOutput};
use vdm_overlay::scenario::{ChurnConfig, Scenario};
use vdm_planetlab::{SessionConfig, SessionRunner};

const ALL_PROTOCOLS: [Protocol; 6] = [
    Protocol::Vdm,
    Protocol::VdmL,
    Protocol::VdmR(120),
    Protocol::Hmtp(60),
    Protocol::Btp(60),
    Protocol::Star,
];

fn ch3_run(proto: Protocol, members: usize, churn: f64, seed: u64) -> RunOutput {
    let setup = ch3_setup(members, 0.0, seed);
    let mut limits = degree_limits_range(members + 1, 2, 5, seed);
    limits[0] = members as u32; // roomy source so Star stays a star
    let scenario = Scenario::churn(
        &ChurnConfig {
            members,
            warmup_s: 120.0,
            slot_s: 60.0,
            slots: 3,
            churn_pct: churn,
        },
        &setup.candidates,
        seed,
    );
    proto.run(Session::new(
        setup.underlay.clone(),
        Some(setup.underlay.clone()),
        setup.source,
        &scenario,
        limits,
        DriverConfig {
            data_interval: Some(SimTime::from_secs(2)),
            compute_stress: true,
            compute_mst_ratio: false,
            loss_probe_noise: 0.002,
            data_plane: false,
        },
        seed,
    ))
}

#[test]
fn every_protocol_survives_churn_on_the_routed_underlay() {
    for proto in ALL_PROTOCOLS {
        let out = ch3_run(proto, 24, 12.0, 11);
        let last = out.stats.measurements.last().expect("measurements");
        assert_eq!(last.members, 24, "{proto:?}");
        assert_eq!(
            last.connected, last.members,
            "{proto:?} left peers disconnected"
        );
        assert_eq!(last.tree_errors, 0, "{proto:?} corrupted the tree");
        assert!(last.stress.is_some(), "{proto:?} lost stress accounting");
        assert!(
            out.stats.startup_s.len() >= 24,
            "{proto:?} missed join completions"
        );
        // Every startup finished well under the walk-restart ceiling.
        for &s in &out.stats.startup_s {
            assert!(s < 30.0, "{proto:?} startup {s}s");
        }
    }
}

#[test]
fn every_protocol_survives_churn_on_the_latency_space() {
    let cfg = SessionConfig {
        nodes: 20,
        warmup_s: 120.0,
        slot_s: 60.0,
        slots: 3,
        churn_pct: 10.0,
        chunk_interval_ms: 1000.0,
        ..SessionConfig::default()
    };
    for proto in ALL_PROTOCOLS {
        let runner = SessionRunner::prepare(&cfg, 5);
        let scenario = runner.scenario(5);
        let out = proto.run(Session::new(
            runner.space.clone(),
            None,
            runner.source,
            &scenario,
            // Roomy limits so the star can be a star on this testbed.
            vec![64; runner.space.num_hosts()],
            DriverConfig {
                data_interval: Some(SimTime::from_secs(1)),
                ..DriverConfig::default()
            },
            5,
        ));
        let last = out.stats.measurements.last().expect("measurements");
        assert_eq!(last.connected, last.members, "{proto:?}");
        assert_eq!(last.tree_errors, 0, "{proto:?}");
        assert!(last.stress.is_none(), "no physical links here");
    }
}

#[test]
fn stream_actually_flows_end_to_end() {
    let out = ch3_run(Protocol::Vdm, 30, 0.0, 3);
    // With no churn and no link loss, every connected member receives
    // nearly every chunk after its join.
    let loss = out.stats.overall_loss();
    assert!(
        loss < 0.10,
        "lossless network lost {:.1}% of chunks",
        loss * 100.0
    );
    assert!(out.stats.source_chunks > 50);
    let received: u64 = out.stats.received.iter().sum();
    assert!(received > 0);
    // Data flowed along the tree: more per-hop sends than source chunks.
    let last = out.stats.measurements.last().unwrap();
    assert!(
        last.loss_rate < 0.02,
        "steady-state loss {}",
        last.loss_rate
    );
}

#[test]
fn rejoining_hosts_get_fresh_incarnations() {
    // High churn over few candidates forces the same hosts to leave and
    // re-join repeatedly; stale messages from old incarnations must not
    // corrupt the new ones.
    let out = ch3_run(Protocol::Vdm, 10, 40.0, 17);
    let last = out.stats.measurements.last().unwrap();
    assert_eq!(last.connected, last.members);
    assert_eq!(last.tree_errors, 0);
    // There were rejoins: more joins than distinct members.
    assert!(out.stats.startup_s.len() > 10);
}

#[test]
fn underlay_sharing_is_thread_safe() {
    // The same Arc'd underlay is used from parallel replicated runs in
    // the harness; simulate that here with two sequential drivers over
    // one Arc (the compile-time Send+Sync bound is the real check).
    let setup = ch3_setup(12, 0.0, 9);
    let underlay: Arc<dyn vdm_netsim::Underlay + Send + Sync> = setup.underlay.clone();
    let _hold: Arc<dyn vdm_netsim::Underlay + Send + Sync> = Arc::clone(&underlay);
    for seed in [1, 2] {
        let scenario = Scenario::churn(
            &ChurnConfig {
                members: 12,
                warmup_s: 60.0,
                slot_s: 30.0,
                slots: 1,
                churn_pct: 0.0,
            },
            &setup.candidates,
            seed,
        );
        let out = Protocol::Vdm.run(Session::new(
            underlay.clone(),
            Some(setup.underlay.clone()),
            HostId(0),
            &scenario,
            vec![4; 13],
            DriverConfig::default(),
            seed,
        ));
        assert_eq!(out.final_snapshot.connected_members().len(), 12);
    }
}
