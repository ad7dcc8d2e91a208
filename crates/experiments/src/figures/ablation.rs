//! Ablations of VDM design choices (beyond the paper's figures).
//!
//! DESIGN.md calls out two under-specified knobs worth sweeping:
//!
//! * **directionality slack** — how much the winning distance must
//!   dominate before a triple counts as directional (0 = the paper's
//!   strict classifier). On jittery RTTs a small slack could stabilize
//!   trees — or cost stretch by degrading to Case I stars;
//! * **reconnection anchor** — §3.3 restarts the join at the
//!   grandparent; how much does that actually buy over restarting at
//!   the source? We measure reconnection time both ways.

use crate::ci::CiStat;
use crate::extract::{run_metrics, RunMetrics};
use crate::figures::{column, replicate};
use crate::proto::{Protocol, Session};
use crate::setup::{ch3_setup, degree_limits_range, powerlaw_setup, waxman_setup, Ch3Setup};
use crate::table::Table;
use crate::Effort;
use vdm_core::VdmFactory;
use vdm_netsim::SimTime;
use vdm_overlay::agent::{AgentConfig, HeartbeatConfig};
use vdm_overlay::driver::DriverConfig;
use vdm_overlay::scenario::{ChurnConfig, Scenario};
use vdm_planetlab::{SessionConfig, SessionRunner, UplinkModel};

fn base_cfg(effort: Effort) -> SessionConfig {
    let (nodes, warmup_s, slots) = effort.ch5_scale();
    SessionConfig {
        nodes: nodes.min(50),
        warmup_s,
        slots,
        churn_pct: 6.0,
        chunk_interval_ms: effort.ch5_chunk_ms(),
        ..SessionConfig::default()
    }
}

/// Every ablation table of `vdm-repro ablation`, A1–A6 in order.
pub fn ablation_family(effort: Effort, seed: u64) -> Vec<Table> {
    let mut t = slack_sweep(effort, seed);
    t.extend(reconnect_anchor(effort, seed));
    t.extend(crash_churn(effort, seed));
    t.extend(topology_sensitivity(effort, seed));
    t.extend(heterogeneity(effort, seed));
    t.extend(congestion(effort, seed));
    t
}

/// Sweep the directionality slack on the jittery PlanetLab-like space.
pub fn slack_sweep(effort: Effort, seed: u64) -> Vec<Table> {
    let slacks = [0.0, 0.02, 0.05, 0.1, 0.2];
    let cfg = base_cfg(effort);
    let mut table = Table::new(
        "Ablation A1",
        "Directionality slack (jittery RTTs)",
        "slack",
        vec!["stretch".into(), "usage".into(), "hopcount".into()],
    );
    for slack in slacks {
        let m = replicate(
            effort.reps().clamp(2, 5),
            seed ^ ((slack * 1000.0) as u64),
            |s| {
                let runner = SessionRunner::prepare(&cfg, s);
                let factory = VdmFactory {
                    slack,
                    ..VdmFactory::delay_based()
                };
                run_metrics(&runner.run(factory, s), 2)
            },
        );
        table.push(
            slack,
            vec![
                CiStat::of(&column(&m, |x| x.stretch)),
                CiStat::of(&column(&m, |x| x.usage)),
                CiStat::of(&column(&m, |x| x.hopcount)),
            ],
        );
    }
    vec![table]
}

/// Quantify what the §3.3 grandparent anchor buys: reconnection walks
/// start deep in the tree instead of at the source, so reconnection
/// times should sit clearly below startup times. This ablation reports
/// both side by side under churn.
pub fn reconnect_anchor(effort: Effort, seed: u64) -> Vec<Table> {
    let cfg = base_cfg(effort);
    let mut table = Table::new(
        "Ablation A2",
        "Startup vs reconnection time (grandparent anchor)",
        "churn (%)",
        vec!["startup (s)".into(), "reconnection (s)".into()],
    );
    for churn in [4.0, 8.0] {
        let cfg = SessionConfig {
            churn_pct: churn,
            ..cfg.clone()
        };
        let m = replicate(effort.reps().clamp(2, 5), seed ^ (churn as u64), |s| {
            let runner = SessionRunner::prepare(&cfg, s);
            run_metrics(&runner.run(VdmFactory::delay_based(), s), 2)
        });
        table.push(
            churn,
            vec![
                CiStat::of(&column(&m, |x| x.startup)),
                CiStat::of(&column(&m, |x| x.reconnection)),
            ],
        );
    }
    vec![table]
}

/// Ungraceful churn (extension): the same session with all leaves
/// turned into silent crashes. Orphans must discover the failure via
/// the stream watchdog and parents must prune dead children via
/// heartbeats, so recovery is slower and loss higher — this quantifies
/// the cost of losing the paper's graceful-leave assumption.
pub fn crash_churn(effort: Effort, seed: u64) -> Vec<Table> {
    let mut table = Table::new(
        "Ablation A3",
        "Graceful leaves vs silent crashes (VDM)",
        "churn (%)",
        vec![
            "loss% (graceful)".into(),
            "loss% (crash)".into(),
            "recovery_s (graceful)".into(),
            "recovery_s (crash)".into(),
        ],
    );
    for churn in [4.0, 8.0] {
        let g = replicate(effort.reps().clamp(2, 5), seed ^ (churn as u64), |s| {
            run_crash_point(effort, churn, 0.0, s)
        });
        let c = replicate(
            effort.reps().clamp(2, 5),
            seed ^ (churn as u64) ^ 0xc,
            |s| run_crash_point(effort, churn, 1.0, s),
        );
        table.push(
            churn,
            vec![
                CiStat::of(&column(&g, |m| m.loss * 100.0)),
                CiStat::of(&column(&c, |m| m.loss * 100.0)),
                CiStat::of(&column(&g, |m| m.reconnection)),
                CiStat::of(&column(&c, |m| m.reconnection)),
            ],
        );
    }
    vec![table]
}

/// Topology sensitivity (extension): the same protocols on the paper's
/// transit-stub hierarchy and on a flat Waxman graph. VDM's
/// directionality abstraction assumes *some* geometry in the distances;
/// this checks it does not depend on the transit-stub hierarchy
/// specifically.
pub fn topology_sensitivity(effort: Effort, seed: u64) -> Vec<Table> {
    let members = effort.ch3_members().min(100);
    let mut table = Table::new(
        "Ablation A4",
        format!("Topology sensitivity ({members} nodes, churn 5%)"),
        "row (0=ts,1=waxman,2=powerlaw)",
        vec![
            "VDM stress".into(),
            "HMTP stress".into(),
            "VDM stretch".into(),
            "HMTP stretch".into(),
        ],
    );
    let setups: Vec<(f64, Ch3Setup)> = vec![
        (0.0, ch3_setup(members, 0.0, seed)),
        (1.0, waxman_setup(members, (members + 1) * 3, seed)),
        (2.0, powerlaw_setup(members, (members + 1) * 3, seed)),
    ];
    for (row, setup) in setups {
        let limits = degree_limits_range(members + 1, 2, 5, seed);
        let run = |proto: Protocol, base: u64| {
            replicate(effort.reps().clamp(2, 6), base, |s| {
                let scenario = Scenario::churn(
                    &ChurnConfig {
                        members,
                        warmup_s: 400.0,
                        slot_s: 200.0,
                        slots: 3,
                        churn_pct: 5.0,
                    },
                    &setup.candidates,
                    s,
                );
                let out = proto.run(Session::new(
                    setup.underlay.clone(),
                    Some(setup.underlay.clone()),
                    setup.source,
                    &scenario,
                    limits.clone(),
                    DriverConfig {
                        data_interval: Some(SimTime::from_secs(2)),
                        compute_stress: true,
                        compute_mst_ratio: false,
                        loss_probe_noise: 0.0,
                        data_plane: false,
                    },
                    s,
                ));
                run_metrics(&out, 2)
            })
        };
        let vdm = run(Protocol::Vdm, seed ^ 0x10);
        let hmtp = run(Protocol::Hmtp(300), seed ^ 0x20);
        table.push(
            row,
            vec![
                CiStat::of(&column(&vdm, |m| m.stress)),
                CiStat::of(&column(&hmtp, |m| m.stress)),
                CiStat::of(&column(&vdm, |m| m.stretch)),
                CiStat::of(&column(&hmtp, |m| m.stretch)),
            ],
        );
    }
    vec![table]
}

/// Heterogeneous degrees (extension, §6.2 future work): degree limits
/// derived from an uplink-capacity mix instead of the paper's uniform
/// 2–5. Many degree-1 DSL nodes force deep chains; a few fat nodes
/// compensate.
pub fn heterogeneity(effort: Effort, seed: u64) -> Vec<Table> {
    let cfg = base_cfg(effort);
    let mut table = Table::new(
        "Ablation A5",
        "Uplink-derived degrees vs uniform degree 4 (VDM)",
        "row (0=uniform4,1=uplink)",
        vec!["stretch".into(), "hopcount".into(), "loss%".into()],
    );
    for (row, uplink) in [(0.0, None), (1.0, Some(UplinkModel::residential_2011()))] {
        let cfg = SessionConfig {
            uplink: uplink.clone(),
            ..cfg.clone()
        };
        let m = replicate(effort.reps().clamp(2, 5), seed ^ (row as u64 + 3), |s| {
            let runner = SessionRunner::prepare(&cfg, s);
            run_metrics(&runner.run(VdmFactory::delay_based(), s), 2)
        });
        table.push(
            row,
            vec![
                CiStat::of(&column(&m, |x| x.stretch)),
                CiStat::of(&column(&m, |x| x.hopcount)),
                CiStat::of(&column(&m, |x| x.loss * 100.0)),
            ],
        );
    }
    vec![table]
}

/// Congestion (extension, §2.1.1): with the queueing data plane on,
/// rising stream rates saturate shared links. The unicast star pushes
/// every copy through the source's access link and collapses first;
/// VDM's tree spreads the load — the quantitative version of the
/// paper's core motivation ("a packet is transmitted many times on a
/// link which overloads the network").
pub fn congestion(effort: Effort, seed: u64) -> Vec<Table> {
    let members = match effort {
        Effort::Quick => 20,
        _ => 60,
    };
    let setup = ch3_setup(members, 0.0, seed);
    // VDM runs with the paper's degree limits; the star needs an
    // unconstrained source (that concentration is exactly what the
    // experiment measures).
    let limits = degree_limits_range(members + 1, 2, 5, seed);
    let mut star_limits = limits.clone();
    star_limits[setup.source.idx()] = members as u32;
    let mut table = Table::new(
        "Ablation A6",
        format!("Congestion loss vs stream rate ({members} nodes, 10 Mbit access links)"),
        "chunks/s",
        vec!["VDM loss%".into(), "Star loss%".into()],
    );
    // 10 kbit chunks over a 10 Mbit/s access link: one chunk costs 1 ms
    // of serialization per crossing; the star crosses the source access
    // link `members` times per chunk.
    let rates = match effort {
        Effort::Quick => vec![10.0, 60.0],
        _ => vec![5.0, 10.0, 20.0, 40.0, 60.0, 80.0],
    };
    for rate in rates {
        let run = |proto: Protocol, limits: &[u32], base: u64| {
            let limits = limits.to_vec();
            replicate(effort.reps().clamp(2, 6), base, |s| {
                let scenario = Scenario::churn(
                    &ChurnConfig {
                        members,
                        warmup_s: 60.0,
                        slot_s: 60.0,
                        slots: 2,
                        churn_pct: 0.0,
                    },
                    &setup.candidates,
                    s,
                );
                let out = proto.run(Session::new(
                    setup.underlay.clone(),
                    Some(setup.underlay.clone()),
                    setup.source,
                    &scenario,
                    limits.clone(),
                    DriverConfig {
                        data_interval: Some(SimTime::from_ms(1_000.0 / rate)),
                        compute_stress: false,
                        compute_mst_ratio: false,
                        loss_probe_noise: 0.0,
                        data_plane: true,
                    },
                    s,
                ));
                run_metrics(&out, 1)
            })
        };
        let vdm = run(Protocol::Vdm, &limits, seed ^ (rate as u64));
        let star = run(Protocol::Star, &star_limits, seed ^ (rate as u64) ^ 0x5);
        table.push(
            rate,
            vec![
                CiStat::of(&column(&vdm, |m| m.loss * 100.0)),
                CiStat::of(&column(&star, |m| m.loss * 100.0)),
            ],
        );
    }
    vec![table]
}

/// One A3 session: the A2 shape with `crash_frac` of its leaves
/// turned into silent crashes, watchdog and heartbeats on.
fn run_crash_point(effort: Effort, churn_pct: f64, crash_frac: f64, seed: u64) -> RunMetrics {
    let cfg = SessionConfig {
        churn_pct,
        ..base_cfg(effort)
    };
    let runner = SessionRunner::prepare(&cfg, seed);
    let scenario = runner.scenario(seed).with_crashes(crash_frac);
    let out = Protocol::Vdm.run(Session {
        agent: &|a| AgentConfig {
            data_timeout: Some(SimTime::from_secs(15)),
            heartbeat: Some(HeartbeatConfig {
                period: SimTime::from_secs(10),
                timeout: SimTime::from_secs(30),
            }),
            ..a
        },
        ..Session::new(
            runner.space.clone(),
            None,
            runner.source,
            &scenario,
            runner.limits.clone(),
            DriverConfig {
                data_interval: Some(SimTime::from_ms(1000.0)),
                ..DriverConfig::default()
            },
            seed,
        )
    });
    run_metrics(&out, 2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slack_sweep_runs() {
        let t = &slack_sweep(Effort::Quick, 9)[0];
        assert_eq!(t.rows.len(), 5);
        for (slack, stats) in &t.rows {
            assert!(
                stats[0].mean > 0.5,
                "slack {slack}: stretch {}",
                stats[0].mean
            );
        }
    }

    #[test]
    fn topology_sensitivity_runs_on_all_underlays() {
        let t = &topology_sensitivity(Effort::Quick, 8)[0];
        assert_eq!(t.rows.len(), 3);
        for (_, stats) in &t.rows {
            for s in stats {
                assert!(s.mean > 0.9, "metric {s}");
            }
        }
    }

    #[test]
    fn heterogeneous_degrees_still_connect() {
        let t = &heterogeneity(Effort::Quick, 2)[0];
        assert_eq!(t.rows.len(), 2);
        // Deep chains from degree-1 nodes: hopcount under the uplink
        // model is at least that of uniform degree 4.
        let uniform = &t.rows[0].1;
        let uplink = &t.rows[1].1;
        assert!(uplink[1].mean >= uniform[1].mean * 0.8);
    }

    #[test]
    fn star_collapses_under_congestion_before_vdm() {
        let t = &congestion(Effort::Quick, 12)[0];
        // At the highest rate, the star must lose far more than VDM.
        let (rate, stats) = t.rows.last().unwrap();
        assert!(
            stats[1].mean > stats[0].mean + 5.0,
            "at {rate} chunks/s: star loss {} vs VDM {}",
            stats[1].mean,
            stats[0].mean
        );
        // At the lowest rate both should be essentially lossless.
        let (_, low) = t.rows.first().unwrap();
        assert!(low[0].mean < 5.0, "VDM low-rate loss {}", low[0].mean);
    }

    #[test]
    fn crashes_cost_more_than_graceful_leaves() {
        let t = &crash_churn(Effort::Quick, 6)[0];
        for (churn, stats) in &t.rows {
            // Crash recovery waits out the watchdog, so it must be
            // slower than notification-driven recovery.
            assert!(
                stats[3].mean >= stats[2].mean,
                "churn {churn}: crash recovery {} vs graceful {}",
                stats[3].mean,
                stats[2].mean
            );
        }
    }

    #[test]
    fn reconnection_is_not_slower_than_startup() {
        let t = &reconnect_anchor(Effort::Quick, 4)[0];
        for (churn, stats) in &t.rows {
            // §3.3: "Since the reconnection starts at the grandparent,
            // we expect that it is accomplished in a very short period
            // of time compared to regular join".
            assert!(
                stats[1].mean <= stats[0].mean * 1.5 + 0.2,
                "churn {churn}: reconnection {} vs startup {}",
                stats[1].mean,
                stats[0].mean
            );
        }
    }
}
