//! Chapter 4 figures: VDM-D versus VDM-L over time (Figs. 4.6–4.9).
//!
//! "In this experiment, each physical link in topology is assigned a
//! random error rate between 0% and 2%. [...] At each interval 50
//! nodes join, and then we do the measurement" (§4.2). Loss here comes
//! from link errors, not churn; VDM-L should win on loss while VDM-D
//! wins on stress/stretch.

use crate::ci::CiStat;
use crate::figures::replicate;
use crate::proto::{Protocol, Session};
use crate::setup::{ch3_setup, degree_limits_range};
use crate::table::Table;
use crate::Effort;
use vdm_netsim::SimTime;
use vdm_overlay::driver::DriverConfig;
use vdm_overlay::scenario::Scenario;
use vdm_overlay::stats::SlotMeasurement;

/// Figs. 4.6–4.9.
pub fn metric_family(effort: Effort, seed: u64) -> Vec<Table> {
    let (batch, batches, interval_s) = match effort {
        Effort::Quick => (15, 3, 150.0),
        Effort::Paper => (50, 10, 500.0),
    };
    let members = batch * batches;
    let setup = ch3_setup(members, 0.02, seed);
    let limits = degree_limits_range(members + 1, 2, 5, seed);
    let protos = [Protocol::Vdm, Protocol::VdmL];
    let series: Vec<String> = vec!["VDM-D".into(), "VDM-L".into()];

    // measurements[proto][rep] -> per-batch slots.
    let per_proto: Vec<Vec<Vec<SlotMeasurement>>> = protos
        .iter()
        .map(|&p| {
            replicate(effort.reps(), seed ^ p.name().len() as u64, |s| {
                let scenario = Scenario::growth(batch, batches, interval_s, &setup.candidates, s);
                let out = p.run(Session::new(
                    setup.underlay.clone(),
                    Some(setup.underlay.clone()),
                    setup.source,
                    &scenario,
                    limits.clone(),
                    DriverConfig {
                        data_interval: Some(SimTime::from_ms(effort.ch3_chunk_s() * 1_000.0)),
                        compute_stress: true,
                        compute_mst_ratio: false,
                        loss_probe_noise: 0.002,
                        data_plane: false,
                    },
                    s,
                ));
                out.stats.measurements
            })
        })
        .collect();

    let mk = |fig: &str, title: &str| Table::new(fig, title, "time (s)", series.clone());
    let mut stress = mk("Fig 4.6", "Stress vs. Time");
    let mut stretch = mk("Fig 4.7", "Stretch vs. Time");
    let mut loss = mk("Fig 4.8", "Loss rate (%) vs. Time");
    let mut overhead = mk("Fig 4.9", "Overhead (%) vs. Time");

    for b in 0..batches {
        let t = (b as f64 + 1.0) * interval_s;
        let gather = |f: &dyn Fn(&SlotMeasurement) -> f64| -> Vec<CiStat> {
            per_proto
                .iter()
                .map(|reps| {
                    let samples: Vec<f64> = reps.iter().filter_map(|ms| ms.get(b)).map(f).collect();
                    CiStat::of(&samples)
                })
                .collect()
        };
        stress.push(t, gather(&|m| m.stress.map_or(0.0, |s| s.mean)));
        stretch.push(t, gather(&|m| m.stretch.mean));
        loss.push(t, gather(&|m| m.loss_rate * 100.0));
        overhead.push(t, gather(&|m| m.overhead * 100.0));
    }
    vec![stress, stretch, loss, overhead]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_metric_family_shows_the_tradeoff() {
        let tables = metric_family(Effort::Quick, 7);
        assert_eq!(tables.len(), 4);
        for t in &tables {
            assert_eq!(t.rows.len(), 3);
            assert_eq!(t.series, vec!["VDM-D", "VDM-L"]);
        }
        // Loss (table 2): by the final batch VDM-L should not lose
        // more than VDM-D (that is its whole point).
        let loss = &tables[2];
        let (_, last) = loss.rows.last().unwrap();
        assert!(
            last[1].mean <= last[0].mean + 1.0,
            "VDM-L loss {} vs VDM-D {}",
            last[1].mean,
            last[0].mean
        );
    }
}
