//! Ablation A7 — chaos: recovery under deterministic fault injection.
//!
//! Runs VDM and HMTP through identical seeded fault schedules (link
//! flaps, a partition, message duplication/reordering, and all of them
//! combined) and reports how the hardened control plane rides them out:
//! time-to-reconnect per orphaning, orphan counts, stream delivery gaps
//! as receivers see them, tree-invariant violations, and whole-run
//! loss. The fault layer lives in the simulator
//! ([`vdm_netsim::FaultPlan`]) and draws from its own seeded RNG
//! stream, so two invocations of `vdm-repro chaos --seed N` produce
//! byte-identical output.

use crate::ci::CiStat;
use crate::figures::column;
use crate::proto::{Protocol, Session};
use crate::runner::two_series;
use crate::setup::{ch3_setup, Ch3Setup};
use crate::table::Table;
use crate::Effort;
use vdm_netsim::{ChaosSpec, FaultPlan, HostId, SimTime};
use vdm_overlay::agent::AgentConfig;
use vdm_overlay::driver::RunOutput;
use vdm_overlay::scenario::{ChurnConfig, Scenario};

/// The fault classes the ablation sweeps (one table row each).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultClass {
    /// Point-to-point link flaps (both directions dead for a window).
    LinkFlaps,
    /// One bisection partition: half the hosts unreachable for ~20–30 s.
    Partition,
    /// Message duplication + bounded reordering (no outright drops):
    /// exercises the idempotence/generation-stamp machinery.
    DupReorder,
    /// Everything at once, plus delay spikes, drops and node slowdowns.
    Combined,
}

impl FaultClass {
    /// All classes in row order.
    pub const ALL: [FaultClass; 4] = [
        FaultClass::LinkFlaps,
        FaultClass::Partition,
        FaultClass::DupReorder,
        FaultClass::Combined,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            FaultClass::LinkFlaps => "flap",
            FaultClass::Partition => "partition",
            FaultClass::DupReorder => "dup+reorder",
            FaultClass::Combined => "combined",
        }
    }

    /// The chaos spec for this class over `[start, end]`.
    fn spec(self, start: SimTime, end: SimTime) -> ChaosSpec {
        // One quiet template: default probabilities, zero event counts.
        let quiet = ChaosSpec {
            start,
            end,
            link_flaps: 0,
            partitions: 0,
            msg_windows: 0,
            slowdowns: 0,
            ..ChaosSpec::default()
        };
        match self {
            FaultClass::LinkFlaps => ChaosSpec {
                link_flaps: 6,
                ..quiet
            },
            FaultClass::Partition => ChaosSpec {
                partitions: 1,
                ..quiet
            },
            FaultClass::DupReorder => ChaosSpec {
                msg_windows: 2,
                drop_p: 0.0,
                dup_p: 0.15,
                reorder_p: 0.15,
                spike_p: 0.0,
                ..quiet
            },
            FaultClass::Combined => ChaosSpec {
                link_flaps: 4,
                partitions: 1,
                msg_windows: 2,
                slowdowns: 2,
                ..quiet
            },
        }
    }

    /// This class's seeded fault plan over `[start, end]` on every host
    /// of `setup`, source included.
    pub(crate) fn plan(
        self,
        setup: &Ch3Setup,
        start: SimTime,
        end: SimTime,
        seed: u64,
    ) -> FaultPlan {
        let hosts: Vec<HostId> = std::iter::once(setup.source)
            .chain(setup.candidates.iter().copied())
            .collect();
        FaultPlan::generate(&self.spec(start, end), &hosts, seed)
    }
}

/// The two series every row compares: VDM, then HMTP.
const PROTOS: [Protocol; 2] = [Protocol::Vdm, Protocol::Hmtp(300)];

/// Per-run recovery metrics pulled from [`RunOutput`].
#[derive(Clone, Copy, Debug, Default)]
struct ChaosMetrics {
    reconnect_s: f64,
    orphans: f64,
    gap_s: f64,
    violations: f64,
    loss_pct: f64,
}

fn chaos_metrics(out: &RunOutput) -> ChaosMetrics {
    let r = &out.stats.recovery;
    ChaosMetrics {
        reconnect_s: r.reconnect_summary().mean,
        orphans: r.orphan_events as f64,
        gap_s: r.gap_summary().mean,
        violations: r.total_violations() as f64,
        loss_pct: out.stats.overall_loss() * 100.0,
    }
}

/// Shape of one (churn-free) chaos session, from the effort preset.
fn scale(effort: Effort) -> ChurnConfig {
    let (members, warmup_s, slots) = match effort {
        Effort::Quick => (15, 60.0, 3),
        Effort::Paper => (80, 200.0, 8),
    };
    ChurnConfig {
        members,
        warmup_s,
        slot_s: 60.0,
        slots,
        churn_pct: 0.0,
    }
}

/// When faults may strike a churn session: after the warmup settles,
/// stopping one slot before the end, so the final measurement sees the
/// recovered tree.
pub(crate) fn fault_window(c: &ChurnConfig) -> (SimTime, SimTime) {
    let start = SimTime::from_ms((c.warmup_s + 10.0) * 1000.0);
    let end =
        SimTime::from_ms((c.warmup_s + (c.slots.max(2) - 1) as f64 * c.slot_s - 10.0) * 1000.0);
    (start, end)
}

/// Run one protocol through one fault class on the hardened control
/// plane ([`AgentConfig::hardened`]).
fn run_point(
    setup: &Ch3Setup,
    sc: &ChurnConfig,
    class: FaultClass,
    proto: Protocol,
    seed: u64,
) -> ChaosMetrics {
    let scenario = Scenario::churn(sc, &setup.candidates, seed);
    let (start, end) = fault_window(sc);
    let out = proto.run(Session {
        agent: &AgentConfig::hardened,
        faults: Some(class.plan(setup, start, end, seed)),
        ..setup.session(&scenario, seed)
    });
    chaos_metrics(&out)
}

/// The A7 chaos ablation: both protocols across every fault class.
pub fn chaos_recovery(effort: Effort, seed: u64) -> Vec<Table> {
    let sc = scale(effort);
    let setup = ch3_setup(sc.members, 0.0, seed);
    let classes = FaultClass::ALL
        .iter()
        .enumerate()
        .map(|(i, c)| format!("{i}={}", c.name()))
        .collect::<Vec<_>>()
        .join(",");
    let mut recovery = Table::new(
        "Ablation A7a",
        format!("Chaos recovery, VDM vs HMTP ({classes})"),
        "fault class",
        vec![
            "VDM reconnect_s".into(),
            "HMTP reconnect_s".into(),
            "VDM orphans".into(),
            "HMTP orphans".into(),
        ],
    );
    let mut stream = Table::new(
        "Ablation A7b",
        format!("Chaos stream impact, VDM vs HMTP ({classes})"),
        "fault class",
        vec![
            "VDM gap_s".into(),
            "HMTP gap_s".into(),
            "VDM loss%".into(),
            "HMTP loss%".into(),
            "VDM violations".into(),
            "HMTP violations".into(),
        ],
    );
    let reps = effort.reps().clamp(2, 6);
    let grid = two_series("A7", FaultClass::ALL.len(), reps, seed, |row, series, s| {
        run_point(
            &setup,
            &sc,
            FaultClass::ALL[row],
            PROTOS[series as usize],
            s,
        )
    });
    for (row, [v, h]) in grid.iter().enumerate() {
        recovery.push(
            row as f64,
            vec![
                CiStat::of(&column(v, |m| m.reconnect_s)),
                CiStat::of(&column(h, |m| m.reconnect_s)),
                CiStat::of(&column(v, |m| m.orphans)),
                CiStat::of(&column(h, |m| m.orphans)),
            ],
        );
        stream.push(
            row as f64,
            vec![
                CiStat::of(&column(v, |m| m.gap_s)),
                CiStat::of(&column(h, |m| m.gap_s)),
                CiStat::of(&column(v, |m| m.loss_pct)),
                CiStat::of(&column(h, |m| m.loss_pct)),
                CiStat::of(&column(v, |m| m.violations)),
                CiStat::of(&column(h, |m| m.violations)),
            ],
        );
    }
    vec![recovery, stream]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_chaos_point_recovers() {
        let sc = scale(Effort::Quick);
        let setup = ch3_setup(sc.members, 0.0, 11);
        let m = run_point(&setup, &sc, FaultClass::Partition, Protocol::Vdm, 11);
        // The partition orphaned someone, and they got back.
        assert!(m.orphans >= 1.0, "partition produced no orphans");
        let m2 = run_point(&setup, &sc, FaultClass::Partition, Protocol::Vdm, 11);
        assert_eq!(m.reconnect_s, m2.reconnect_s, "same seed, same run");
        assert_eq!(m.loss_pct, m2.loss_pct);
    }

    #[test]
    fn chaos_tables_are_deterministic() {
        let a = chaos_recovery(Effort::Quick, 9);
        let b = chaos_recovery(Effort::Quick, 9);
        assert_eq!(a.len(), 2);
        assert_eq!(a[0].rows.len(), FaultClass::ALL.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_csv(), y.to_csv(), "{} not reproducible", x.figure);
        }
    }
}
