//! Paper-shape assertions: the qualitative claims of the evaluation,
//! checked at reduced scale (exact magnitudes live in EXPERIMENTS.md).

use vdm_experiments::figures::{complexity, fig3, fig5};
use vdm_experiments::setup::{ch3_setup, degree_limits_range};
use vdm_experiments::{Effort, Protocol, Session};
use vdm_netsim::SimTime;
use vdm_overlay::driver::DriverConfig;
use vdm_overlay::scenario::{ChurnConfig, Scenario};

fn ch3_metrics(proto: Protocol, seed: u64) -> vdm_experiments::extract::RunMetrics {
    let setup = ch3_setup(30, 0.0, seed);
    let mut limits = degree_limits_range(31, 2, 5, seed);
    limits[0] = 30;
    let scenario = Scenario::churn(
        &ChurnConfig {
            members: 30,
            warmup_s: 150.0,
            slot_s: 100.0,
            slots: 3,
            churn_pct: 5.0,
        },
        &setup.candidates,
        seed,
    );
    let out = proto.run(Session::new(
        setup.underlay.clone(),
        Some(setup.underlay.clone()),
        setup.source,
        &scenario,
        limits,
        DriverConfig {
            data_interval: Some(SimTime::from_secs(2)),
            compute_stress: true,
            compute_mst_ratio: true,
            loss_probe_noise: 0.0,
            data_plane: false,
        },
        seed,
    ));
    vdm_experiments::extract::run_metrics(&out, 2)
}

#[test]
fn unicast_star_is_the_stretch_optimum_and_stress_pessimum() {
    let star = ch3_metrics(Protocol::Star, 1);
    let vdm = ch3_metrics(Protocol::Vdm, 1);
    // §3.6.3: "Unicast is assumed to have optimal stretch" / "In IP
    // multicast, stress is always one" — the star bounds both sides.
    assert!(
        (star.stretch - 1.0).abs() < 1e-6,
        "star stretch {}",
        star.stretch
    );
    assert!(star.usage > 0.99 && star.usage < 1.01);
    assert!(vdm.stress >= 1.0);
    assert!(
        star.stress > vdm.stress,
        "star stress {} must exceed the tree's {}",
        star.stress,
        vdm.stress
    );
    assert!(vdm.usage < star.usage, "multicast must save resources");
}

#[test]
fn mst_ratio_bounds() {
    for seed in [1, 2, 3] {
        let vdm = ch3_metrics(Protocol::Vdm, seed);
        assert!(vdm.mst_ratio >= 1.0 - 1e-9, "ratio {}", vdm.mst_ratio);
        // §5.4.6: "still it is not very far from MST" — generous bound.
        assert!(vdm.mst_ratio < 5.0, "ratio {}", vdm.mst_ratio);
    }
}

#[test]
fn vdm_overhead_is_far_below_hmtp() {
    // §3.5: "VDM is very efficient in terms of overhead when compared
    // to HMTP" — HMTP pays for periodic refinement and root paths.
    let vdm = ch3_metrics(Protocol::Vdm, 5);
    let hmtp = ch3_metrics(Protocol::Hmtp(120), 5);
    assert!(
        hmtp.overhead > vdm.overhead * 2.0,
        "HMTP {} vs VDM {}",
        hmtp.overhead,
        vdm.overhead
    );
}

#[test]
fn vdm_loses_no_more_than_hmtp_under_churn() {
    // Figs. 3.27 / 5.12: VDM's loss sits at or below HMTP's.
    let mut vdm_sum = 0.0;
    let mut hmtp_sum = 0.0;
    for seed in [1, 2, 3, 4] {
        vdm_sum += ch3_metrics(Protocol::Vdm, seed).loss;
        hmtp_sum += ch3_metrics(Protocol::Hmtp(120), seed).loss;
    }
    assert!(
        vdm_sum <= hmtp_sum * 1.25 + 0.004,
        "VDM loss {vdm_sum} vs HMTP {hmtp_sum}"
    );
}

#[test]
fn join_complexity_is_logarithmic() {
    let t = &complexity::join_complexity(Effort::Quick, 3)[0];
    // Eq. 3.3: contacted ≈ n·log_n(N). Between N=32 and N=512 the
    // prediction grows by log ratio ~1.8x; measured growth must be of
    // that order, nowhere near the 16x of a linear scan.
    let first = t.rows.first().unwrap().1[0].mean;
    let last = t.rows.last().unwrap().1[0].mean;
    assert!(last / first < 5.0, "grew {first} -> {last}");
}

#[test]
fn figure_families_produce_full_tables() {
    // Smoke the two biggest runners end to end at quick effort and
    // check row/series arity for every figure they regenerate.
    let f3 = fig3::nodes_family(Effort::Quick, 7);
    assert_eq!(f3.len(), 4);
    for t in &f3 {
        assert_eq!(t.rows.len(), 3);
        assert!(t.figure.starts_with("Fig 3."));
    }
    let f5 = fig5::refine_family(Effort::Quick, 7);
    assert_eq!(f5.len(), 3);
    for t in &f5 {
        assert_eq!(t.series.len(), 2);
    }
}

#[test]
fn degree_sweep_shows_the_stretch_knee() {
    // Figs. 3.34 / 5.23: stretch falls sharply from starvation-level
    // degrees and then flattens.
    let tables = fig3::degree_family(Effort::Quick, 13);
    let stretch = &tables[1];
    let lo = stretch.rows.first().unwrap(); // avg degree 1.5
    let hi = stretch.rows.last().unwrap(); // avg degree 8
    assert!(
        lo.1[0].mean > hi.1[0].mean,
        "stretch at degree {} ({}) should exceed degree {} ({})",
        lo.0,
        lo.1[0].mean,
        hi.0,
        hi.1[0].mean
    );
}
