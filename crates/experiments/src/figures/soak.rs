//! Ablation A8 — soak: proactive resilience under sustained churn.
//!
//! Runs VDM, HMTP and BTP through identical seeded soak schedules
//! (Poisson individual departures plus correlated crash bursts with
//! staggered rejoin storms — [`Scenario::soak`]) and measures what the
//! proactive-resilience mechanisms buy: backup-parent failover and
//! ancestor-list recovery (`ResilienceConfig`), token-bucket rejoin
//! admission (`AdmissionConfig`), and NACK gap repair (`RepairConfig`).
//! Correlated bursts are the adversarial case for the paper's
//! grandparent-only recovery: when a subtree crashes together, an
//! orphan's grandparent is likely dead too, and the orphan pays a full
//! walk from the source. A8a compares the three protocols with the
//! mechanisms off vs all on; A8b sweeps the mechanisms one at a time on
//! VDM. All rows are deterministic per seed.

use crate::ci::CiStat;
use crate::figures::{column, replicate};
use crate::proto::{Protocol, Session};
use crate::setup::{ch3_setup, Ch3Setup};
use crate::table::Table;
use crate::Effort;
use vdm_overlay::agent::{AdmissionConfig, AgentConfig, ResilienceConfig};
use vdm_overlay::driver::RunOutput;
use vdm_overlay::repair::RepairConfig;
use vdm_overlay::scenario::{Scenario, SoakConfig};

/// Which proactive-resilience mechanisms a run enables.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Mechanisms {
    /// Backup-parent failover + ancestor-list recovery.
    pub failover: bool,
    /// Token-bucket rejoin admission control.
    pub admission: bool,
    /// Sequence-gap NACK repair.
    pub repair: bool,
}

impl Mechanisms {
    /// Everything on.
    pub const ALL: Mechanisms = Mechanisms {
        failover: true,
        admission: true,
        repair: true,
    };

    /// Short display name for table captions.
    pub fn name(self) -> &'static str {
        match (self.failover, self.admission, self.repair) {
            (false, false, false) => "off",
            (true, false, false) => "+failover",
            (false, true, false) => "+admission",
            (false, false, true) => "+repair",
            (true, true, true) => "all",
            _ => "mixed",
        }
    }
}

/// The chaos-grade control plane ([`AgentConfig::hardened`]) plus the
/// selected proactive-resilience mechanisms.
fn resilient(base: AgentConfig, m: Mechanisms) -> AgentConfig {
    AgentConfig {
        resilience: m.failover.then(ResilienceConfig::default),
        // Stricter than the protocol default so the token bucket is
        // observable at the small soak scales too: rejoin bursts of even
        // 2-3 peers at one target get smoothed out.
        admission: m.admission.then_some(AdmissionConfig {
            rate_per_s: 0.5,
            burst: 1.0,
        }),
        repair: m.repair.then(RepairConfig::default),
        ..base.hardened()
    }
}

/// Per-run soak metrics pulled from [`RunOutput`].
#[derive(Clone, Copy, Debug, Default)]
struct SoakMetrics {
    reconnect_med_s: f64,
    gap_med_s: f64,
    loss_pct: f64,
    ctrl_per_chunk: f64,
    violations: f64,
    failovers: f64,
    repaired: f64,
    shed: f64,
}

fn soak_metrics(out: &RunOutput) -> SoakMetrics {
    let r = &out.stats.recovery;
    SoakMetrics {
        reconnect_med_s: r.reconnect_median(),
        gap_med_s: r.gap_median(),
        loss_pct: out.stats.overall_loss() * 100.0,
        ctrl_per_chunk: out.stats.tail_mean(3, |m| m.overhead_per_chunk),
        violations: r.total_violations() as f64,
        failovers: r.failover_successes as f64,
        repaired: r.chunks_repaired as f64,
        shed: (r.joins_throttled + r.joins_shed) as f64,
    }
}

fn soak_shape(effort: Effort, members: usize) -> SoakConfig {
    let (warmup_s, duration_s, burst_every_s, quiet_tail_s) = match effort {
        Effort::Quick => (60.0, 180.0, 60.0, 60.0),
        Effort::Paper => (200.0, 800.0, 120.0, 100.0),
    };
    SoakConfig {
        members,
        warmup_s,
        duration_s,
        churn_rate_per_s: 0.03,
        burst_every_s,
        burst_frac: 0.25,
        measure_every_s: 50.0,
        quiet_tail_s,
    }
}

fn members(effort: Effort) -> usize {
    match effort {
        Effort::Quick => 14,
        Effort::Paper => 80,
    }
}

/// The protocols A8a compares.
const PROTOS: [Protocol; 3] = [Protocol::Vdm, Protocol::Hmtp(300), Protocol::Btp(300)];

/// Run one protocol through one soak schedule with the given mechanism
/// set. Same scenario + seed across mechanism sets, so differences are
/// the mechanisms alone.
fn run_point(
    setup: &Ch3Setup,
    shape: &SoakConfig,
    proto: Protocol,
    m: Mechanisms,
    seed: u64,
) -> SoakMetrics {
    let scenario = Scenario::soak(shape, &setup.candidates, seed);
    let out = proto.run(Session {
        agent: &|a| resilient(a, m),
        ..setup.session(&scenario, seed)
    });
    soak_metrics(&out)
}

/// The A8 soak ablation: protocols × mechanisms (A8a) and the VDM
/// mechanism sweep (A8b).
pub fn soak_resilience(effort: Effort, seed: u64) -> Vec<Table> {
    let n = members(effort);
    let shape = soak_shape(effort, n);
    let setup = ch3_setup(n, 0.0, seed);
    let reps = effort.reps().clamp(2, 6);

    let protos = PROTOS
        .iter()
        .enumerate()
        .map(|(i, p)| format!("{i}={}", p.name()))
        .collect::<Vec<_>>()
        .join(",");
    let mut a = Table::new(
        "Ablation A8a",
        format!("Soak churn, resilience off vs all-on ({protos})"),
        "protocol",
        vec![
            "off reconnect_s".into(),
            "on reconnect_s".into(),
            "off loss%".into(),
            "on loss%".into(),
            "off ctrl/chunk".into(),
            "on ctrl/chunk".into(),
            "on violations".into(),
        ],
    );
    for (row, proto) in PROTOS.into_iter().enumerate() {
        let base = seed ^ ((row as u64 + 1) << 8);
        let off = replicate(reps, base, |s| {
            run_point(&setup, &shape, proto, Mechanisms::default(), s)
        });
        let on = replicate(reps, base, |s| {
            run_point(&setup, &shape, proto, Mechanisms::ALL, s)
        });
        a.push(
            row as f64,
            vec![
                CiStat::of(&column(&off, |m| m.reconnect_med_s)),
                CiStat::of(&column(&on, |m| m.reconnect_med_s)),
                CiStat::of(&column(&off, |m| m.loss_pct)),
                CiStat::of(&column(&on, |m| m.loss_pct)),
                CiStat::of(&column(&off, |m| m.ctrl_per_chunk)),
                CiStat::of(&column(&on, |m| m.ctrl_per_chunk)),
                CiStat::of(&column(&on, |m| m.violations)),
            ],
        );
    }

    const SWEEP: [Mechanisms; 5] = [
        Mechanisms {
            failover: false,
            admission: false,
            repair: false,
        },
        Mechanisms {
            failover: true,
            admission: false,
            repair: false,
        },
        Mechanisms {
            failover: false,
            admission: true,
            repair: false,
        },
        Mechanisms {
            failover: false,
            admission: false,
            repair: true,
        },
        Mechanisms::ALL,
    ];
    let combos = SWEEP
        .iter()
        .enumerate()
        .map(|(i, m)| format!("{i}={}", m.name()))
        .collect::<Vec<_>>()
        .join(",");
    let mut b = Table::new(
        "Ablation A8b",
        format!("VDM mechanism sweep under soak churn ({combos})"),
        "mechanisms",
        vec![
            "reconnect_s".into(),
            "gap_s".into(),
            "loss%".into(),
            "ctrl/chunk".into(),
            "failovers".into(),
            "repaired".into(),
            "throttled+shed".into(),
        ],
    );
    for (row, m) in SWEEP.into_iter().enumerate() {
        // Same seed base across rows: each mechanism set sees the same
        // churn schedules, so the rows differ by the mechanisms alone.
        let v = replicate(reps, seed ^ 0xa8b, |s| {
            run_point(&setup, &shape, Protocol::Vdm, m, s)
        });
        b.push(
            row as f64,
            vec![
                CiStat::of(&column(&v, |x| x.reconnect_med_s)),
                CiStat::of(&column(&v, |x| x.gap_med_s)),
                CiStat::of(&column(&v, |x| x.loss_pct)),
                CiStat::of(&column(&v, |x| x.ctrl_per_chunk)),
                CiStat::of(&column(&v, |x| x.failovers)),
                CiStat::of(&column(&v, |x| x.repaired)),
                CiStat::of(&column(&v, |x| x.shed)),
            ],
        );
    }
    vec![a, b]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soak_point_is_deterministic() {
        let n = members(Effort::Quick);
        let shape = soak_shape(Effort::Quick, n);
        let setup = ch3_setup(n, 0.0, 21);
        let a = run_point(&setup, &shape, Protocol::Vdm, Mechanisms::ALL, 21);
        let b = run_point(&setup, &shape, Protocol::Vdm, Mechanisms::ALL, 21);
        assert_eq!(a.reconnect_med_s, b.reconnect_med_s);
        assert_eq!(a.loss_pct, b.loss_pct);
        assert_eq!(a.repaired, b.repaired);
    }

    #[test]
    fn mechanisms_improve_recovery_under_burst_churn() {
        // The acceptance check of the proactive-resilience PR: with
        // correlated crash bursts, failover+repair must strictly beat
        // grandparent-only recovery on median time-to-reconnect and
        // post-repair loss, reproducibly per seed.
        let n = members(Effort::Quick);
        let shape = soak_shape(Effort::Quick, n);
        let setup = ch3_setup(n, 0.0, 77);
        let reps = 3;
        let off = replicate(reps, 77, |s| {
            run_point(&setup, &shape, Protocol::Vdm, Mechanisms::default(), s)
        });
        let on = replicate(reps, 77, |s| {
            run_point(&setup, &shape, Protocol::Vdm, Mechanisms::ALL, s)
        });
        let med = |xs: &[SoakMetrics], f: fn(&SoakMetrics) -> f64| {
            let mut v: Vec<f64> = xs.iter().map(f).collect();
            v.sort_by(|a, b| a.total_cmp(b));
            v[v.len() / 2]
        };
        let off_rec = med(&off, |m| m.reconnect_med_s);
        let on_rec = med(&on, |m| m.reconnect_med_s);
        assert!(
            on_rec < off_rec,
            "failover did not speed reconnects: on {on_rec} vs off {off_rec}"
        );
        let off_loss = med(&off, |m| m.loss_pct);
        let on_loss = med(&on, |m| m.loss_pct);
        assert!(
            on_loss < off_loss,
            "repair did not cut post-repair loss: on {on_loss} vs off {off_loss}"
        );
        for m in &on {
            assert_eq!(
                m.violations, 0.0,
                "tree invariant violated with mechanisms on"
            );
            assert!(m.failovers > 0.0, "no failover succeeded under bursts");
            assert!(m.repaired > 0.0, "no chunk was repaired under bursts");
        }
    }

    #[test]
    fn soak_tables_are_deterministic() {
        let a = soak_resilience(Effort::Quick, 9);
        let b = soak_resilience(Effort::Quick, 9);
        assert_eq!(a.len(), 2);
        assert_eq!(a[0].rows.len(), PROTOS.len());
        assert_eq!(a[1].rows.len(), 5);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_csv(), y.to_csv(), "{} not reproducible", x.figure);
        }
    }
}
