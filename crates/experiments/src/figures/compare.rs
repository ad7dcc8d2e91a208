//! Cross-protocol comparison tables (diagnostic view, not a paper
//! figure): every protocol on the same testbed, one row per protocol,
//! all steady-state metrics side by side.

use crate::ci::CiStat;
use crate::extract::{run_metrics, RunMetrics};
use crate::figures::{column, replicate};
use crate::proto::{Protocol, Session};
use crate::setup::{ch3_setup, degree_limits_range};
use crate::table::Table;
use crate::Effort;
use vdm_netsim::SimTime;
use vdm_overlay::driver::DriverConfig;
use vdm_overlay::scenario::{ChurnConfig, Scenario};

const PROTOS: [Protocol; 6] = [
    Protocol::Vdm,
    Protocol::VdmR(300),
    Protocol::Hmtp(300),
    Protocol::Hmtp(0), // refinement disabled: raw join quality
    Protocol::Btp(300),
    Protocol::Star,
];

/// All protocols on the Chapter 3 testbed at the given churn.
pub fn ch3_compare(effort: Effort, churn_pct: f64, seed: u64) -> Vec<Table> {
    let members = effort.ch3_members();
    let setup = ch3_setup(members, 0.0, seed);
    let mut limits = degree_limits_range(members + 1, 2, 5, seed);
    limits[setup.source.idx()] = members as u32; // let the star be a star
    let slots = effort.ch3_slots();
    let mut table = Table::new(
        "Compare (ch3)",
        format!(
            "{members} nodes, churn {churn_pct}% — one row per metric, one column per protocol"
        ),
        "metric",
        PROTOS.iter().map(|p| p.name()).collect(),
    );
    let per_proto: Vec<Vec<RunMetrics>> = PROTOS
        .iter()
        .map(|&p| {
            replicate(
                effort.reps().clamp(2, 8),
                seed ^ p.name().len() as u64,
                |s| {
                    let scenario = Scenario::churn(
                        &ChurnConfig {
                            members,
                            warmup_s: 1_000.0,
                            slot_s: 400.0,
                            slots,
                            churn_pct,
                        },
                        &setup.candidates,
                        s,
                    );
                    let out = p.run(Session::new(
                        setup.underlay.clone(),
                        Some(setup.underlay.clone()),
                        setup.source,
                        &scenario,
                        limits.clone(),
                        DriverConfig {
                            data_interval: Some(SimTime::from_ms(effort.ch3_chunk_s() * 1_000.0)),
                            compute_stress: true,
                            compute_mst_ratio: true,
                            loss_probe_noise: 0.0,
                            data_plane: false,
                        },
                        s,
                    ));
                    run_metrics(&out, slots.div_ceil(2))
                },
            )
        })
        .collect();
    type MetricFn = fn(&RunMetrics) -> f64;
    let metrics: [(&str, MetricFn); 9] = [
        ("stress", |m| m.stress),
        ("stretch", |m| m.stretch),
        ("hopcount", |m| m.hopcount),
        ("usage", |m| m.usage),
        ("loss%", |m| m.loss * 100.0),
        ("overhead%", |m| m.overhead * 100.0),
        ("startup_s", |m| m.startup),
        ("reconn_s", |m| m.reconnection),
        ("mst_ratio", |m| m.mst_ratio),
    ];
    for (i, (_, f)) in metrics.iter().enumerate() {
        table.push(
            i as f64,
            per_proto
                .iter()
                .map(|samples| CiStat::of(&column(samples, *f)))
                .collect(),
        );
    }
    // Rename rows via the render path: the x column is the metric
    // index; emit a legend in the title instead.
    let legend: Vec<String> = metrics
        .iter()
        .enumerate()
        .map(|(i, (n, _))| format!("{i}={n}"))
        .collect();
    table.title = format!("{} [{}]", table.title, legend.join(" "));
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_runs_all_protocols() {
        let t = &ch3_compare(Effort::Quick, 5.0, 3)[0];
        assert_eq!(t.series.len(), 6);
        assert_eq!(t.rows.len(), 9);
        // Star sanity: stretch exactly 1, usage exactly 1.
        let star = t.series.iter().position(|s| s == "Star").unwrap();
        let stretch_row = &t.rows[1].1;
        assert!(
            (stretch_row[star].mean - 1.0).abs() < 1e-6,
            "star stretch {}",
            stretch_row[star].mean
        );
        let usage_row = &t.rows[3].1;
        assert!((usage_row[star].mean - 1.0).abs() < 1e-6);
    }
}
