//! Chapter 5 figures: the emulated-PlanetLab experiments.
//!
//! * Figs. 5.5/5.6 — sample trees (`sample_trees`);
//! * Figs. 5.7–5.13 — the seven session metrics vs churn, VDM vs HMTP
//!   (`churn_family`);
//! * Figs. 5.14–5.20 — the same metrics vs number of nodes
//!   (`nodes_family`);
//! * Figs. 5.21–5.27 — the same metrics vs node degree
//!   (`degree_family`);
//! * Figs. 5.28–5.30 — the refinement component, VDM vs VDM-R
//!   (`refine_family`);
//! * Fig. 5.31 — ratio to the MST (`mst_family`).

use crate::ci::CiStat;
use crate::extract::{run_metrics, RunMetrics};
use crate::figures::{column, replicate};
use crate::proto::{Protocol, Session};
use crate::table::Table;
use crate::Effort;
use vdm_overlay::driver::RunOutput;
use vdm_planetlab::{PoolConfig, SessionConfig, SessionRunner};

fn base_cfg(effort: Effort) -> SessionConfig {
    let (nodes, warmup_s, slots) = effort.ch5_scale();
    SessionConfig {
        nodes,
        warmup_s,
        slots,
        chunk_interval_ms: effort.ch5_chunk_ms(),
        ..SessionConfig::default()
    }
}

/// Run one session configuration for one protocol across reps.
fn run_sessions(
    proto: Protocol,
    cfg: &SessionConfig,
    effort: Effort,
    seed: u64,
) -> Vec<RunMetrics> {
    let tail = cfg.slots.div_ceil(2);
    replicate(effort.reps().clamp(2, 5), seed, |s| {
        // PlanetLab experiments re-select nodes from the pool each run
        // ("Each time we select 100 nodes from this pool", §5.4.2).
        let runner = SessionRunner::prepare(cfg, s);
        run_metrics(&run_on(&runner, proto, s), tail)
    })
}

/// One session of `proto` over a prepared testbed.
fn run_on(runner: &SessionRunner, proto: Protocol, seed: u64) -> RunOutput {
    let scenario = runner.scenario(seed);
    proto.run(Session::new(
        runner.space.clone(),
        None,
        runner.source,
        &scenario,
        runner.limits.clone(),
        runner.driver_config(),
        seed,
    ))
}

/// The seven per-session tables of §5.4.2.
struct SevenTables {
    startup: Table,
    reconnection: Table,
    stretch: Table,
    hopcount: Table,
    usage: Table,
    loss: Table,
    overhead: Table,
}

impl SevenTables {
    fn new(figs: [&str; 7], x_label: &str, series: &[String]) -> Self {
        let mk = |fig: &str, title: &str| Table::new(fig, title, x_label, series.to_vec());
        Self {
            startup: mk(figs[0], "Startup time (s)"),
            reconnection: mk(figs[1], "Reconnection time (s)"),
            stretch: mk(figs[2], "Stretch"),
            hopcount: mk(figs[3], "Hopcount"),
            usage: mk(figs[4], "Resource usage (normalized)"),
            loss: mk(figs[5], "Loss rate (%)"),
            overhead: mk(figs[6], "Overhead (per chunk)"),
        }
    }

    fn push(&mut self, x: f64, per_series: &[Vec<RunMetrics>]) {
        let stat = |f: &dyn Fn(&RunMetrics) -> f64| -> Vec<CiStat> {
            per_series
                .iter()
                .map(|samples| CiStat::of(&column(samples, f)))
                .collect()
        };
        self.startup.push(x, stat(&|m| m.startup));
        self.reconnection.push(x, stat(&|m| m.reconnection));
        self.stretch.push(x, stat(&|m| m.stretch));
        self.hopcount.push(x, stat(&|m| m.hopcount));
        self.usage.push(x, stat(&|m| m.usage));
        self.loss.push(x, stat(&|m| m.loss * 100.0));
        self.overhead.push(x, stat(&|m| m.overhead_per_chunk));
    }

    fn into_vec(self) -> Vec<Table> {
        vec![
            self.startup,
            self.reconnection,
            self.stretch,
            self.hopcount,
            self.usage,
            self.loss,
            self.overhead,
        ]
    }
}

/// Figs. 5.7–5.13: VDM vs HMTP across churn rates.
pub fn churn_family(effort: Effort, seed: u64) -> Vec<Table> {
    let protos = [Protocol::Vdm, Protocol::Hmtp(30)];
    let mut tables = SevenTables::new(
        [
            "Fig 5.7", "Fig 5.8", "Fig 5.9", "Fig 5.10", "Fig 5.11", "Fig 5.12", "Fig 5.13",
        ],
        "churn (%)",
        &protos.iter().map(|p| p.name()).collect::<Vec<_>>(),
    );
    let churns = match effort {
        Effort::Quick => vec![2.0, 10.0],
        _ => vec![2.0, 4.0, 6.0, 8.0, 10.0],
    };
    for churn in churns {
        let cfg = SessionConfig {
            churn_pct: churn,
            ..base_cfg(effort)
        };
        let per_series: Vec<Vec<RunMetrics>> = protos
            .iter()
            .map(|&p| run_sessions(p, &cfg, effort, seed ^ (churn as u64 * 131)))
            .collect();
        tables.push(churn, &per_series);
    }
    tables.into_vec()
}

/// Figs. 5.14–5.20: VDM across session sizes, with avg/max and leaf
/// breakdowns where the paper shows them.
pub fn nodes_family(effort: Effort, seed: u64) -> Vec<Table> {
    let sizes: Vec<usize> = match effort {
        Effort::Quick => vec![10, 25],
        _ => vec![20, 40, 60, 80, 100],
    };
    let series = |names: &[&str]| names.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    let mut startup = Table::new(
        "Fig 5.14",
        "Startup time (s)",
        "nodes",
        series(&["avg", "max"]),
    );
    let mut reconn = Table::new(
        "Fig 5.15",
        "Reconnection time (s)",
        "nodes",
        series(&["avg", "max"]),
    );
    let mut stretch = Table::new(
        "Fig 5.16",
        "Stretch",
        "nodes",
        series(&["min", "avg", "leaf-avg", "max"]),
    );
    let mut hop = Table::new(
        "Fig 5.17",
        "Hopcount",
        "nodes",
        series(&["avg", "leaf-avg", "max"]),
    );
    let mut usage = Table::new(
        "Fig 5.18",
        "Resource usage (normalized)",
        "nodes",
        series(&["avg"]),
    );
    let mut loss = Table::new("Fig 5.19", "Loss rate (%)", "nodes", series(&["avg"]));
    let mut overhead = Table::new(
        "Fig 5.20",
        "Overhead (per chunk)",
        "nodes",
        series(&["avg"]),
    );
    for n in sizes {
        let cfg = SessionConfig {
            nodes: n,
            churn_pct: 5.0,
            ..base_cfg(effort)
        };
        let m = run_sessions(Protocol::Vdm, &cfg, effort, seed ^ (n as u64 * 37));
        let c = |f: &dyn Fn(&RunMetrics) -> f64| CiStat::of(&column(&m, f));
        startup.push(n as f64, vec![c(&|x| x.startup), c(&|x| x.startup_max)]);
        reconn.push(
            n as f64,
            vec![c(&|x| x.reconnection), c(&|x| x.reconnection_max)],
        );
        stretch.push(
            n as f64,
            vec![
                c(&|x| x.stretch_min),
                c(&|x| x.stretch),
                c(&|x| x.stretch_leaf),
                c(&|x| x.stretch_max),
            ],
        );
        hop.push(
            n as f64,
            vec![
                c(&|x| x.hopcount),
                c(&|x| x.hopcount_leaf),
                c(&|x| x.hopcount_max),
            ],
        );
        usage.push(n as f64, vec![c(&|x| x.usage)]);
        loss.push(n as f64, vec![c(&|x| x.loss * 100.0)]);
        overhead.push(n as f64, vec![c(&|x| x.overhead_per_chunk)]);
    }
    vec![startup, reconn, stretch, hop, usage, loss, overhead]
}

/// Figs. 5.21–5.27: VDM across node degrees.
pub fn degree_family(effort: Effort, seed: u64) -> Vec<Table> {
    let degrees: Vec<u32> = match effort {
        Effort::Quick => vec![2, 5],
        _ => vec![2, 3, 4, 5, 6, 7, 8],
    };
    let mut tables = SevenTables::new(
        [
            "Fig 5.21", "Fig 5.22", "Fig 5.23", "Fig 5.24", "Fig 5.25", "Fig 5.26", "Fig 5.27",
        ],
        "degree",
        &[Protocol::Vdm.name()],
    );
    for d in degrees {
        let cfg = SessionConfig {
            degree: (d, d),
            churn_pct: 5.0,
            ..base_cfg(effort)
        };
        let m = run_sessions(Protocol::Vdm, &cfg, effort, seed ^ (d as u64 * 977));
        tables.push(d as f64, &[m]);
    }
    tables.into_vec()
}

/// Figs. 5.28–5.30: the refinement component, VDM vs VDM-R.
pub fn refine_family(effort: Effort, seed: u64) -> Vec<Table> {
    let sizes: Vec<usize> = match effort {
        Effort::Quick => vec![10, 20],
        _ => vec![10, 20, 30, 40, 50],
    };
    let protos = [Protocol::Vdm, Protocol::VdmR(300)];
    let names: Vec<String> = vec!["VDM".into(), "VDM-R".into()];
    let mut stretch = Table::new("Fig 5.28", "Stretch", "nodes", names.clone());
    let mut hop = Table::new("Fig 5.29", "Hopcount", "nodes", names.clone());
    let mut overhead = Table::new("Fig 5.30", "Overhead (per chunk)", "nodes", names);
    for n in sizes {
        let cfg = SessionConfig {
            nodes: n,
            churn_pct: 3.0,
            ..base_cfg(effort)
        };
        let per: Vec<Vec<RunMetrics>> = protos
            .iter()
            .map(|&p| run_sessions(p, &cfg, effort, seed ^ (n as u64 * 613)))
            .collect();
        let c = |s: &Vec<RunMetrics>, f: &dyn Fn(&RunMetrics) -> f64| CiStat::of(&column(s, f));
        stretch.push(n as f64, per.iter().map(|s| c(s, &|x| x.stretch)).collect());
        hop.push(
            n as f64,
            per.iter().map(|s| c(s, &|x| x.hopcount)).collect(),
        );
        overhead.push(
            n as f64,
            per.iter()
                .map(|s| c(s, &|x| x.overhead_per_chunk))
                .collect(),
        );
    }
    vec![stretch, hop, overhead]
}

/// Fig. 5.31: ratio of the VDM tree cost to the MST ("we don't apply
/// degree limitation").
pub fn mst_family(effort: Effort, seed: u64) -> Vec<Table> {
    let sizes: Vec<usize> = match effort {
        Effort::Quick => vec![10, 20],
        _ => vec![10, 20, 30, 40, 50],
    };
    let mut table = Table::new("Fig 5.31", "Ratio to MST", "nodes", vec!["VDM/MST".into()]);
    for n in sizes {
        let cfg = SessionConfig {
            nodes: n,
            degree: (64, 64), // effectively unconstrained
            churn_pct: 0.0,
            compute_mst_ratio: true,
            ..base_cfg(effort)
        };
        let m = run_sessions(Protocol::Vdm, &cfg, effort, seed ^ (n as u64 * 211));
        table.push(n as f64, vec![CiStat::of(&column(&m, |x| x.mst_ratio))]);
    }
    vec![table]
}

/// Figs. 5.5/5.6: sample trees — a US-only session and a world-wide
/// one — rendered as ASCII and DOT.
pub fn sample_trees(seed: u64) -> String {
    let mut out = String::new();
    for (fig, pool, nodes) in [
        ("Fig 5.5 (US pool)", PoolConfig::us_paper(), 30usize),
        ("Fig 5.6 (world pool)", PoolConfig::world(260), 40),
    ] {
        let cfg = SessionConfig {
            pool,
            nodes,
            warmup_s: 300.0,
            slots: 1,
            slot_s: 120.0,
            churn_pct: 0.0,
            chunk_interval_ms: 1000.0,
            ..SessionConfig::default()
        };
        let runner = SessionRunner::prepare(&cfg, seed);
        let run_out = run_on(&runner, Protocol::Vdm, seed);
        let snap = &run_out.final_snapshot;
        out.push_str(&format!("== {fig} ==\n"));
        out.push_str(&snap.to_ascii(|h| runner.label(h)));
        out.push('\n');
        out.push_str(&snap.to_dot(|h| runner.label(h)));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_churn_family_shapes() {
        let tables = churn_family(Effort::Quick, 5);
        assert_eq!(tables.len(), 7);
        // Stretch table: values near the paper's 1.5–2 band, VDM ≤ HMTP
        // within tolerance.
        let stretch = &tables[2];
        for (x, stats) in &stretch.rows {
            assert!(
                stats[0].mean > 0.9 && stats[0].mean < 4.0,
                "churn {x}: stretch {}",
                stats[0].mean
            );
        }
        // Overhead: HMTP (periodic refinement + root paths) must cost
        // more than VDM.
        let overhead = &tables[6];
        for (x, stats) in &overhead.rows {
            assert!(
                stats[1].mean > stats[0].mean,
                "churn {x}: HMTP overhead {} not above VDM {}",
                stats[1].mean,
                stats[0].mean
            );
        }
    }

    #[test]
    fn quick_mst_family_is_reasonable() {
        let tables = mst_family(Effort::Quick, 3);
        for (n, stats) in &tables[0].rows {
            let r = stats[0].mean;
            assert!(r >= 1.0 - 1e-9, "n={n}: ratio {r} below 1");
            assert!(r < 2.5, "n={n}: ratio {r} too far from MST");
        }
    }

    #[test]
    fn sample_trees_render() {
        let s = sample_trees(2);
        assert!(s.contains("Fig 5.5"));
        assert!(s.contains("Fig 5.6"));
        assert!(s.contains("digraph overlay"));
        assert!(s.contains("US"));
    }
}
