//! Chapter 4 in one file: the same protocol, two virtual metrics, two
//! different trees.
//!
//! Delay and loss are uncorrelated on real paths ("a peer might
//! experience high loss rate on a good path in terms of delay", §4.1),
//! so VDM-D (RTT distances) and VDM-L (loss distances) build different
//! overlays on the same network — VDM-D minimizes stretch for
//! interactive video, VDM-L minimizes loss for loss-sensitive
//! streaming.
//!
//! Run with: `cargo run --release --example custom_metric_tree`

use vdm_experiments::setup::{ch3_setup, degree_limits_range};
use vdm_experiments::{Protocol, Session};
use vdm_netsim::SimTime;
use vdm_overlay::driver::DriverConfig;
use vdm_overlay::scenario::{ChurnConfig, Scenario};

fn main() {
    // 60 hosts on a transit-stub underlay where every physical link has
    // a random error rate in [0, 2%) — the §4.2 setup.
    let seed = 7;
    let setup = ch3_setup(60, 0.02, seed);
    let limits = degree_limits_range(61, 2, 5, seed);
    let scenario = Scenario::churn(
        &ChurnConfig {
            members: 60,
            warmup_s: 300.0,
            slot_s: 150.0,
            slots: 2,
            churn_pct: 0.0,
        },
        &setup.candidates,
        seed,
    );

    println!(
        "{:>8} {:>9} {:>9} {:>9} {:>11}",
        "metric", "stress", "stretch", "loss(%)", "tree-edges"
    );
    let mut results = Vec::new();
    for proto in [Protocol::Vdm, Protocol::VdmL] {
        let out = proto.run(Session::new(
            setup.underlay.clone(),
            Some(setup.underlay.clone()),
            setup.source,
            &scenario,
            limits.clone(),
            DriverConfig {
                data_interval: Some(SimTime::from_secs(1)),
                compute_stress: true,
                compute_mst_ratio: false,
                loss_probe_noise: 0.002,
                data_plane: false,
            },
            seed,
        ));
        let m = out.stats.measurements.last().expect("measured").clone();
        println!(
            "{:>8} {:>9.3} {:>9.3} {:>9.3} {:>11}",
            proto.name(),
            m.stress.map_or(0.0, |s| s.mean),
            m.stretch.mean,
            m.loss_rate * 100.0,
            out.final_snapshot.edges().len(),
        );
        results.push((proto.name(), m, out.final_snapshot));
    }

    // The two trees must genuinely differ (Fig. 4.5: "Differently
    // formed overlay trees").
    let (_, _, ref tree_d) = results[0];
    let (_, _, ref tree_l) = results[1];
    let differing = tree_d
        .members
        .iter()
        .filter(|&&m| tree_d.parent_of(m) != tree_l.parent_of(m))
        .count();
    println!(
        "\npeers with a different parent under VDM-L: {differing}/{}",
        tree_d.members.len()
    );
    assert!(differing > 0, "the metrics should shape different trees");

    // And the trade-off should lean the right way: VDM-L no worse on
    // loss, VDM-D no worse on stretch (§4.2's conclusion).
    let (d, l) = (&results[0].1, &results[1].1);
    println!(
        "VDM-D stretch {:.3} vs VDM-L {:.3}; VDM-D loss {:.2}% vs VDM-L {:.2}%",
        d.stretch.mean,
        l.stretch.mean,
        d.loss_rate * 100.0,
        l.loss_rate * 100.0
    );
}
