//! Chapter 3 simulation figures (NS-2 analogue).
//!
//! * Figs. 3.25–3.28 — stress/stretch/loss/overhead vs churn,
//!   VDM vs HMTP (`churn_family`);
//! * Figs. 3.29–3.32 — the same metrics vs number of nodes, VDM
//!   (`nodes_family`);
//! * Figs. 3.33–3.36 — the same metrics vs average node degree, VDM
//!   (`degree_family`).

use crate::ci::CiStat;
use crate::extract::{run_metrics, RunMetrics};
use crate::figures::{column, replicate};
use crate::proto::{Protocol, Session};
use crate::setup::{ch3_setup, degree_limits_avg, degree_limits_range, Ch3Setup};
use crate::table::Table;
use crate::Effort;
use vdm_netsim::SimTime;
use vdm_overlay::driver::DriverConfig;
use vdm_overlay::scenario::{ChurnConfig, Scenario};

fn ch3_warmup(effort: Effort) -> f64 {
    match effort {
        Effort::Quick => 300.0,
        _ => 2_000.0,
    }
}

fn ch3_slot(effort: Effort) -> f64 {
    match effort {
        Effort::Quick => 200.0,
        _ => 400.0,
    }
}

fn driver_cfg(effort: Effort) -> DriverConfig {
    DriverConfig {
        data_interval: Some(SimTime::from_ms(effort.ch3_chunk_s() * 1_000.0)),
        compute_stress: true,
        compute_mst_ratio: false,
        loss_probe_noise: 0.0,
        data_plane: false,
    }
}

/// Run one (protocol, churn%) configuration over `reps` seeds and
/// return the per-run steady-state metrics.
#[allow(clippy::too_many_arguments)]
fn run_point(
    proto: Protocol,
    setup: &Ch3Setup,
    members: usize,
    churn_pct: f64,
    limits: &[u32],
    effort: Effort,
    reps: usize,
    seed: u64,
) -> Vec<RunMetrics> {
    let slots = effort.ch3_slots();
    let tail = slots.div_ceil(2);
    replicate(reps, seed, |s| {
        let scenario = Scenario::churn(
            &ChurnConfig {
                members,
                warmup_s: ch3_warmup(effort),
                slot_s: ch3_slot(effort),
                slots,
                churn_pct,
            },
            &setup.candidates,
            s,
        );
        let out = proto.run(Session::new(
            setup.underlay.clone(),
            Some(setup.underlay.clone()),
            setup.source,
            &scenario,
            limits.to_vec(),
            driver_cfg(effort),
            s,
        ));
        run_metrics(&out, tail)
    })
}

/// The four standard Chapter 3 tables for a sweep.
struct FourTables {
    stress: Table,
    stretch: Table,
    loss: Table,
    overhead: Table,
}

impl FourTables {
    fn new(figs: [&str; 4], x_label: &str, series: &[String]) -> Self {
        let mk = |fig: &str, title: &str| Table::new(fig, title, x_label, series.to_vec());
        Self {
            stress: mk(figs[0], "Stress"),
            stretch: mk(figs[1], "Stretch"),
            loss: mk(figs[2], "Loss rate (%)"),
            overhead: mk(figs[3], "Overhead (%)"),
        }
    }

    fn push(&mut self, x: f64, per_series: &[Vec<RunMetrics>]) {
        let stat = |f: &dyn Fn(&RunMetrics) -> f64| -> Vec<CiStat> {
            per_series
                .iter()
                .map(|samples| CiStat::of(&column(samples, f)))
                .collect()
        };
        self.stress.push(x, stat(&|m| m.stress));
        self.stretch.push(x, stat(&|m| m.stretch));
        self.loss.push(x, stat(&|m| m.loss * 100.0));
        self.overhead.push(x, stat(&|m| m.overhead * 100.0));
    }

    fn into_vec(self) -> Vec<Table> {
        vec![self.stress, self.stretch, self.loss, self.overhead]
    }
}

/// Figs. 3.25–3.28: VDM vs HMTP across churn rates.
pub fn churn_family(effort: Effort, seed: u64) -> Vec<Table> {
    let members = effort.ch3_members();
    let setup = ch3_setup(members, 0.0, seed);
    let limits = degree_limits_range(setup.underlay_hosts(), 2, 5, seed);
    // HMTP's refinement period is not given for the NS-2 experiments;
    // 300 s keeps its overhead in the paper's "clearly above VDM but
    // not pathological" band (Fig. 3.28) — see EXPERIMENTS.md.
    let protos = [Protocol::Vdm, Protocol::Hmtp(300)];
    let mut tables = FourTables::new(
        ["Fig 3.25", "Fig 3.26", "Fig 3.27", "Fig 3.28"],
        "churn (%)",
        &protos.iter().map(|p| p.name()).collect::<Vec<_>>(),
    );
    let churns = match effort {
        Effort::Quick => vec![1.0, 10.0],
        _ => vec![1.0, 3.0, 5.0, 7.0, 10.0],
    };
    for churn in churns {
        let per_series: Vec<Vec<RunMetrics>> = protos
            .iter()
            .map(|&p| {
                run_point(
                    p,
                    &setup,
                    members,
                    churn,
                    &limits,
                    effort,
                    effort.reps(),
                    seed ^ (churn as u64 * 7919),
                )
            })
            .collect();
        tables.push(churn, &per_series);
    }
    tables.into_vec()
}

/// Figs. 3.29–3.32: VDM across overlay sizes.
pub fn nodes_family(effort: Effort, seed: u64) -> Vec<Table> {
    let sizes: Vec<usize> = match effort {
        Effort::Quick => vec![20, 40, 60],
        Effort::Paper => (1..=10).map(|k| k * 100).collect(),
    };
    let mut tables = FourTables::new(
        ["Fig 3.29", "Fig 3.30", "Fig 3.31", "Fig 3.32"],
        "nodes",
        &[Protocol::Vdm.name()],
    );
    for n in sizes {
        let setup = ch3_setup(n, 0.0, seed ^ (n as u64));
        let limits = degree_limits_range(setup.underlay_hosts(), 2, 5, seed);
        let samples = run_point(
            Protocol::Vdm,
            &setup,
            n,
            5.0,
            &limits,
            effort,
            effort.reps(),
            seed ^ (n as u64 * 31),
        );
        tables.push(n as f64, &[samples]);
    }
    tables.into_vec()
}

/// Figs. 3.33–3.36: VDM across average node degrees.
pub fn degree_family(effort: Effort, seed: u64) -> Vec<Table> {
    let members = effort.ch3_members();
    let setup = ch3_setup(members, 0.0, seed);
    let degrees: Vec<f64> = match effort {
        Effort::Quick => vec![1.5, 3.0, 8.0],
        _ => vec![1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
    };
    let mut tables = FourTables::new(
        ["Fig 3.33", "Fig 3.34", "Fig 3.35", "Fig 3.36"],
        "avg degree",
        &[Protocol::Vdm.name()],
    );
    for d in degrees {
        let limits = degree_limits_avg(setup.underlay_hosts(), d, seed);
        let samples = run_point(
            Protocol::Vdm,
            &setup,
            members,
            5.0,
            &limits,
            effort,
            effort.reps(),
            seed ^ ((d * 100.0) as u64),
        );
        tables.push(d, &[samples]);
    }
    tables.into_vec()
}

impl Ch3Setup {
    /// Total underlay hosts (members + source), for sizing limit
    /// vectors.
    pub fn underlay_hosts(&self) -> usize {
        self.candidates.len() + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_churn_family_has_paper_shape() {
        let tables = churn_family(Effort::Quick, 42);
        assert_eq!(tables.len(), 4);
        let stress = &tables[0];
        assert_eq!(stress.series, vec!["VDM", "HMTP"]);
        assert_eq!(stress.rows.len(), 2);
        // Stress is >= 1 on a routed underlay with a real tree.
        for (_, stats) in &stress.rows {
            assert!(stats[0].mean >= 1.0, "VDM stress {}", stats[0].mean);
        }
        // Stretch: VDM should not be (meaningfully) worse than HMTP.
        let stretch = &tables[1];
        for (x, stats) in &stretch.rows {
            assert!(
                stats[0].mean <= stats[1].mean * 1.35,
                "at churn {x}: VDM stretch {} vs HMTP {}",
                stats[0].mean,
                stats[1].mean
            );
        }
    }
}
