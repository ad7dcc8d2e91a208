//! Golden-output equivalence across routing oracles: the same families
//! must produce byte-identical CSVs whether their underlays hold every
//! host row up front (`HostRoutes`, the default behind the committed
//! A1–A8 CSVs) or compute the same rows on demand through the
//! memory-bounded `OnDemandRouter`'s LRU, and A9's guided sweep must
//! reach the same tree through an LRU of any capacity.
//!
//! Both oracles store the same host row — distances at the host
//! columns and one predecessor row — from the same builder, so every
//! distance and route is bit-identical by construction; these tests
//! pin that end-to-end, through setup, the sync executor, the
//! event-driven driver, and CSV rendering. Runs are sequential so the
//! thread-local router override covers every cell.

use std::sync::Arc;
use vdm_core::VdmPolicy;
use vdm_experiments::figures::{ablation, scale};
use vdm_experiments::proto::Protocol;
use vdm_experiments::runner::{with_mode, ExecMode};
use vdm_experiments::setup::{self, with_router_choice, RouterChoice};
use vdm_experiments::{Effort, Table};
use vdm_netsim::RoutedUnderlay;
use vdm_overlay::scenario::{ChurnConfig, Scenario};

const SEEDS: [u64; 2] = [11, 42];

fn assert_router_equivalent(name: &str, f: impl Fn(u64) -> Vec<Table>) {
    for seed in SEEDS {
        let dense = with_mode(ExecMode::Sequential, || {
            with_router_choice(RouterChoice::Dense, || f(seed))
        });
        let on_demand = with_mode(ExecMode::Sequential, || {
            with_router_choice(RouterChoice::OnDemand, || f(seed))
        });
        assert_eq!(
            dense.len(),
            on_demand.len(),
            "{name} seed {seed}: table count"
        );
        for (a, b) in dense.iter().zip(&on_demand) {
            assert!(!a.to_csv().is_empty(), "{name} produced an empty CSV");
            assert_eq!(
                a.to_csv(),
                b.to_csv(),
                "{name} seed {seed}: `{}` differs between dense and on-demand routing",
                a.figure
            );
        }
    }
}

/// A1 exercises the transit-stub underlay through the slack ablation.
#[test]
fn a1_slack_sweep_identical_under_on_demand_router() {
    assert_router_equivalent("A1 slack", |s| ablation::slack_sweep(Effort::Quick, s));
}

/// A4 builds all three underlay families (transit-stub, Waxman,
/// power-law), so one golden run covers every setup builder.
#[test]
fn a4_topology_sensitivity_identical_under_on_demand_router() {
    assert_router_equivalent("A4 topology", |s| {
        ablation::topology_sensitivity(Effort::Quick, s)
    });
}

/// A2 reconnection drives the event-driven driver (leave/rejoin paths)
/// over routed underlays.
#[test]
fn a2_reconnect_anchor_identical_under_on_demand_router() {
    assert_router_equivalent("A2 anchor", |s| {
        ablation::reconnect_anchor(Effort::Quick, s)
    });
}

/// A9's coordinate-guided sweep at the `vdm-repro scale --smoke` sizes,
/// through a 1-row LRU and through one row per host: capacity decides
/// how often a row is rebuilt, never an answer, so every join's contact
/// count and the final parent vector are identical.
#[test]
fn a9_guided_sweep_identical_at_any_row_capacity() {
    let policy = VdmPolicy::delay_based();
    for (n, seed) in [(64, SEEDS[0]), (128, SEEDS[1])] {
        let testbed = setup::scale_setup(n, seed).underlay;
        let sweep = |rows: usize| {
            let u = Arc::new(RoutedUnderlay::on_demand(
                Arc::new(testbed.graph().clone()),
                testbed.host_nodes().to_vec(),
                Some(rows),
                None,
            ));
            let sweep = scale::guided_join_sweep(u.clone(), n, 4, seed, &policy);
            let evictions = u.router().expect("on-demand").stats().evictions;
            (sweep, evictions)
        };
        let ((one, one_evicted), (all, all_evicted)) = (sweep(1), sweep(n + 1));
        assert!(one_evicted > 0 && all_evicted == 0, "n {n}");
        assert_eq!(one.contacts, all.contacts, "n {n} seed {seed}: contacts");
        assert_eq!(
            one.ov.snapshot().parent,
            all.ov.snapshot().parent,
            "n {n} seed {seed}: parents"
        );
    }
}

/// Predecessor-slot rows built by a streamed VDM session over a
/// 40-member Chapter 3 testbed with `link_loss`, with or without link
/// stress, under `choice`.
fn slot_rows_after_session(choice: RouterChoice, link_loss: f64, stress: bool, seed: u64) -> u64 {
    with_router_choice(choice, || {
        let s = setup::ch3_setup(40, link_loss, seed);
        let scenario = Scenario::churn(
            &ChurnConfig {
                members: 40,
                warmup_s: 120.0,
                slot_s: 60.0,
                slots: 2,
                churn_pct: 10.0,
            },
            &s.candidates,
            seed,
        );
        let mut session = s.session(&scenario, seed);
        if stress {
            session.routed = Some(s.underlay.clone());
            session.cfg.compute_stress = true;
        }
        let out = Protocol::Vdm.run(session);
        let last = out.stats.measurements.last().expect("a measurement");
        assert!(last.connected > 0 && last.stress.is_some() == stress);
        s.underlay.slot_rows_built()
    })
}

/// Slot rows are built only when a route is asked. The paper's
/// loss-free session asks distances alone, so it builds none: data
/// packets' loss queries are answered without a route. Stress asks
/// routes from parents, at most one row per host. On Chapter 4's lossy
/// links the data packets' loss queries walk routes.
#[test]
fn slot_rows_are_built_only_when_a_route_is_asked() {
    for choice in [RouterChoice::Dense, RouterChoice::OnDemand] {
        for seed in SEEDS {
            let hosts = 41;
            let off = slot_rows_after_session(choice, 0.0, false, seed);
            assert_eq!(off, 0, "{choice:?} seed {seed}: stress off");
            let on = slot_rows_after_session(choice, 0.0, true, seed);
            assert!(
                (1..=hosts).contains(&on),
                "{choice:?} seed {seed}: stress {on}"
            );
            let lossy = slot_rows_after_session(choice, 0.02, false, seed);
            assert!(
                (1..=hosts).contains(&lossy),
                "{choice:?} seed {seed}: lossy {lossy}"
            );
        }
    }
}
