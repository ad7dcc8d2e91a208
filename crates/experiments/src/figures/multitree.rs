//! Ablation A10 — multi-tree striped delivery with cross-tree repair.
//!
//! Sweeps the stripe count `k ∈ {1, 2, 3, 4}` through two series:
//!
//! * **crash** — a quiet session whose worst interior node (largest
//!   subtree in tree 0, preferably a leaf everywhere else; see
//!   [`vdm_overlay::interior_victim`]) is crashed mid-run. The headline
//!   number is the *loss spike*: the jump in slot loss across the crash
//!   boundary. Striping bounds the blast radius to one stripe, so the
//!   spike should shrink roughly like `1/k` — and cross-tree repair
//!   plus rejoin claw part of that stripe back too.
//! * **chaos** — the A7 "combined" fault cocktail (link flaps, a
//!   partition, message mangling, slowdowns) on top of churn, reporting
//!   delivered quality, interior disjointness, and the cross-repair
//!   economy (NACKs sent / chunks recovered / off-stripe violations,
//!   which must stay zero).
//!
//! Every cell is one [`Driver`] built with [`Driver::striped`]: the
//! same session world for every `k`, with `k = 1` simply running its
//! per-tree loops once. `k1_matches_single_tree` replays one cell
//! through [`Driver::new`] with unfolded limits and a raw fault plan
//! and byte-compares the outputs — pinning that the `k`-tree plumbing
//! around the world (limit striping, fault expansion) is the identity
//! at `k = 1` — and [`MultiTreeReport::report`] fails the run when they
//! diverge.

use crate::ci::CiStat;
use crate::figures::chaos::{fault_window, FaultClass};
use crate::figures::column;
use crate::report::{Fields, Report};
use crate::runner::two_series;
use crate::setup::{ch3_setup, degree_limits_range, Ch3Setup};
use crate::table::Table;
use crate::Effort;
use vdm_core::VdmFactory;
use vdm_netsim::{FaultPlan, SimTime};
use vdm_overlay::agent::{AdmissionConfig, AgentConfig};
use vdm_overlay::driver::{Driver, DriverConfig};
use vdm_overlay::repair::RepairConfig;
use vdm_overlay::scenario::{ChurnConfig, Scenario};
use vdm_overlay::walk::WalkConfig;
use vdm_overlay::{interior_overlap, interior_victim, striped_limits, MultiTreeOutput};

/// The stripe counts swept (table rows).
pub const KS: [usize; 4] = [1, 2, 3, 4];

/// Decorrelation amplitude of the per-tree virtual-distance
/// perturbation (tree 0 always runs the unperturbed metric).
const PERTURB_AMP: f64 = 0.25;

/// Shape of one A10 session, derived from the effort preset.
struct MtScale {
    members: usize,
    warmup_s: f64,
    slot_s: f64,
    slots: usize,
    reps: usize,
}

impl MtScale {
    /// The session shape at `churn_pct`.
    fn churn(&self, churn_pct: f64) -> ChurnConfig {
        ChurnConfig {
            members: self.members,
            warmup_s: self.warmup_s,
            slot_s: self.slot_s,
            slots: self.slots,
            churn_pct,
        }
    }
}

fn scale(effort: Effort) -> MtScale {
    let (members, warmup_s, slots, reps) = match effort {
        Effort::Quick => (14, 60.0, 4, 2),
        Effort::Paper => (60, 200.0, 7, 5),
    };
    MtScale {
        members,
        warmup_s,
        slot_s: 60.0,
        slots,
        reps,
    }
}

/// The chaos-grade control plane ([`AgentConfig::hardened`]) plus the
/// multi-tree extras: restart anchoring, a bounded NACK budget on this
/// tree's stripe, and token-bucket-admitted cross-tree repair.
fn mt_agent(base: AgentConfig, k: usize, tree: usize) -> AgentConfig {
    let base = base.hardened();
    AgentConfig {
        walk: WalkConfig {
            restart_anchor: true,
            ..base.walk
        },
        // A *bounded* repair budget: 8 stripe chunks of lookback, 3
        // NACKs each (the repair module's `NACK_RETRIES`). Deep enough
        // for reordering and short stalls, shallow enough that a 15 s
        // orphan outage at k = 1 shows up as real loss — which is
        // exactly the damage striping + cross-tree repair are supposed
        // to absorb.
        repair: Some(
            RepairConfig {
                window: 8,
                ..RepairConfig::default()
            }
            .striped(k as u64, tree as u64),
        ),
        cross_repair: Some(AdmissionConfig::default()),
        ..base
    }
}

/// One decorrelated factory per tree: tree `t` runs the delay metric
/// perturbed by a per-(session, tree) seed and repairs stripe `t` of
/// `k`.
fn build_factories(k: usize, seed: u64) -> Vec<VdmFactory> {
    (0..k)
        .map(|t| {
            let mut f = VdmFactory::delay_based().for_tree(t, seed, PERTURB_AMP);
            f.agent = mt_agent(f.agent, k, t);
            f
        })
        .collect()
}

/// Per-run metrics pulled from a [`MultiTreeOutput`].
#[derive(Clone, Copy, Debug, Default)]
struct MtMetrics {
    loss_pct: f64,
    spike_pct: f64,
    overlap: f64,
    stress_max: f64,
    cross_nacks: f64,
    cross_repaired: f64,
    stripe_violations: f64,
    reconnect_s: f64,
}

fn metrics(out: &MultiTreeOutput, crash_s: Option<f64>, overlap: f64) -> MtMetrics {
    let r = &out.stats.recovery;
    let spike_pct = crash_s.map_or(0.0, |c| {
        let pre = out
            .slots
            .iter()
            .rev()
            .find(|s| s.time_s < c)
            .map_or(0.0, |s| s.loss_rate);
        let post = out
            .slots
            .iter()
            .find(|s| s.time_s >= c)
            .map_or(0.0, |s| s.loss_rate);
        (post - pre).max(0.0) * 100.0
    });
    MtMetrics {
        loss_pct: out.stats.overall_loss() * 100.0,
        spike_pct,
        overlap,
        stress_max: out.slots.iter().fold(0.0, |a, s| a.max(s.stress_max)),
        cross_nacks: r.cross_nacks_sent as f64,
        cross_repaired: r.cross_repaired as f64,
        stripe_violations: r.cross_stripe_violations as f64,
        reconnect_s: r.reconnect_summary().mean,
    }
}

fn session_cfg() -> DriverConfig {
    DriverConfig {
        data_interval: Some(SimTime::from_secs(1)),
        compute_stress: true,
        ..DriverConfig::default()
    }
}

fn build_session(
    setup: &Ch3Setup,
    sc: &MtScale,
    k: usize,
    churn_pct: f64,
    seed: u64,
) -> Driver<VdmFactory> {
    let scenario = Scenario::churn(&sc.churn(churn_pct), &setup.candidates, seed);
    let base_limits = degree_limits_range(sc.members + 1, 2, 5, seed);
    let limits = striped_limits(&base_limits, k, setup.source, 1);
    Driver::striped(
        setup.underlay.clone(),
        Some(setup.underlay.clone()),
        setup.source,
        build_factories(k, seed),
        &scenario,
        limits,
        session_cfg(),
        seed,
    )
}

/// When the crash lands: mid-slot after the first post-warmup
/// measurement, so the spike is bracketed by a settled slot on each
/// side.
fn crash_time(sc: &MtScale) -> SimTime {
    SimTime::from_ms((sc.warmup_s + 1.5 * sc.slot_s) * 1000.0)
}

/// The crash series: run quiet to the crash point, kill the worst
/// interior node of tree 0, run out the clock.
fn run_crash_point(setup: &Ch3Setup, sc: &MtScale, k: usize, seed: u64) -> MtMetrics {
    let mut session = build_session(setup, sc, k, 0.0, seed);
    let crash_t = crash_time(sc);
    session.run_until(crash_t);
    let snaps = session.snapshots();
    let overlap = interior_overlap(&snaps);
    if let Some(victim) = interior_victim(&snaps) {
        session.crash_now(victim);
    }
    metrics(&session.run_trees(), Some(crash_t.as_secs()), overlap)
}

/// The chaos series: churn plus the combined fault cocktail, expanded
/// across the virtual id space.
fn run_chaos_point(setup: &Ch3Setup, sc: &MtScale, k: usize, seed: u64) -> MtMetrics {
    let mut session = build_session(setup, sc, k, 5.0, seed);
    let (start, end) = fault_window(&sc.churn(5.0));
    let plan = FaultClass::Combined.plan(setup, start, end, seed);
    session.set_fault_events(seed, plan.events().to_vec());
    let out = session.run_trees();
    let overlap = interior_overlap(&out.snapshots);
    metrics(&out, None, overlap)
}

/// Byte-compare a `k = 1` [`Driver::striped`] session against a bare
/// [`Driver::new`] fed identical inputs — same factory, scenario,
/// limits, fault schedule, and seed. Compares the full measurement
/// series, the final tree, and the engine/traffic counters through
/// their exact debug renderings.
fn k1_matches_single_tree(setup: &Ch3Setup, sc: &MtScale, seed: u64) -> bool {
    let f_start = SimTime::from_ms((sc.warmup_s + 10.0) * 1000.0);
    let f_end = SimTime::from_ms((sc.warmup_s + sc.slot_s) * 1000.0);
    let plan = FaultClass::Combined.plan(setup, f_start, f_end, seed);

    let mut session = build_session(setup, sc, 1, 5.0, seed);
    session.set_fault_events(seed, plan.events().to_vec());
    let mt = session.run_trees();

    let scenario = Scenario::churn(&sc.churn(5.0), &setup.candidates, seed);
    let limits = degree_limits_range(sc.members + 1, 2, 5, seed);
    let mut factories = build_factories(1, seed);
    let mut driver = Driver::new(
        setup.underlay.clone(),
        Some(setup.underlay.clone()),
        setup.source,
        factories.pop().expect("one factory"),
        &scenario,
        limits,
        session_cfg(),
        seed,
    );
    driver.set_fault_plan(FaultPlan::with_events(seed, plan.events().to_vec()));
    let single = driver.run();

    format!("{:?}", mt.stats.measurements) == format!("{:?}", single.stats.measurements)
        && format!("{:?}", mt.stats.recovery) == format!("{:?}", single.stats.recovery)
        && format!("{:?}", mt.snapshots) == format!("{:?}", vec![single.final_snapshot])
        && mt.events == single.events
        && mt.counters == single.counters
}

/// The A10 report: rendered tables, the raw per-cell points, and the
/// `k = 1` identity check.
pub struct MultiTreeReport {
    /// A10a (crash) and A10b (chaos) tables.
    pub tables: Vec<Table>,
    /// One `BENCH_multitree.json` point per (k, series, trial) cell:
    /// whole-run loss, the slot-loss jump across the interior crash (0
    /// for the chaos series), the trees' interior overlap, worst link
    /// stress, and the cross-repair counters.
    pub points: Vec<Fields>,
    /// Did the `k = 1` session reproduce the single-tree driver
    /// byte-for-byte?
    pub k1_identical: bool,
}

fn family(sc: &MtScale, ks: &[usize], seed: u64) -> MultiTreeReport {
    let setup = ch3_setup(sc.members, 0.0, seed);
    // Series 0 is the interior crash, series 1 the fault cocktail.
    let grid = two_series("A10", ks.len(), sc.reps, seed, |row, series, s| {
        if series == 0 {
            run_crash_point(&setup, sc, ks[row], s)
        } else {
            run_chaos_point(&setup, sc, ks[row], s)
        }
    });
    let mut crash = Table::new(
        "Ablation A10a",
        "Interior crash under k-tree striping",
        "k trees",
        vec![
            "spike%".into(),
            "loss%".into(),
            "overlap".into(),
            "stress_max".into(),
        ],
    );
    let mut chaos = Table::new(
        "Ablation A10b",
        "Combined faults + churn under k-tree striping",
        "k trees",
        vec![
            "loss%".into(),
            "overlap".into(),
            "reconnect_s".into(),
            "cross_nacks".into(),
            "cross_repaired".into(),
            "violations".into(),
        ],
    );
    let mut points = Vec::new();
    for (&k, [c, f]) in ks.iter().zip(&grid) {
        crash.push(
            k as f64,
            vec![
                CiStat::of(&column(c, |m| m.spike_pct)),
                CiStat::of(&column(c, |m| m.loss_pct)),
                CiStat::of(&column(c, |m| m.overlap)),
                CiStat::of(&column(c, |m| m.stress_max)),
            ],
        );
        chaos.push(
            k as f64,
            vec![
                CiStat::of(&column(f, |m| m.loss_pct)),
                CiStat::of(&column(f, |m| m.overlap)),
                CiStat::of(&column(f, |m| m.reconnect_s)),
                CiStat::of(&column(f, |m| m.cross_nacks)),
                CiStat::of(&column(f, |m| m.cross_repaired)),
                CiStat::of(&column(f, |m| m.stripe_violations)),
            ],
        );
        for (series, ms) in [("crash", c), ("chaos", f)] {
            for (trial, m) in ms.iter().enumerate() {
                points.push(
                    Fields::default()
                        .with("k", k)
                        .with("series", series)
                        .with("trial", trial)
                        .with("loss_pct", m.loss_pct)
                        .with("spike_pct", m.spike_pct)
                        .with("interior_overlap", m.overlap)
                        .with("stress_max", m.stress_max)
                        .with("cross_nacks", m.cross_nacks as u64)
                        .with("cross_repaired", m.cross_repaired as u64)
                        .with("stripe_violations", m.stripe_violations as u64),
                );
            }
        }
    }
    let k1_identical = k1_matches_single_tree(&setup, sc, seed);
    MultiTreeReport {
        tables: vec![crash, chaos],
        points,
        k1_identical,
    }
}

/// The full A10 family at an effort tier.
pub fn multitree_family(effort: Effort, seed: u64) -> MultiTreeReport {
    family(&scale(effort), &KS, seed)
}

impl MultiTreeReport {
    /// The `BENCH_multitree.json` document and the A10 gate.
    pub fn report(&self, effort: Effort, seed: u64) -> Report {
        let mut failures = Vec::new();
        if !self.k1_identical {
            failures.push(
                "k=1 multitree session diverged from the single-tree driver — delegation broken"
                    .into(),
            );
        }
        Report {
            name: "multitree",
            tables: self.tables.clone(),
            header: Fields::default()
                .with("effort", effort.name())
                .with("seed", seed)
                .with("perturb_amp", PERTURB_AMP)
                .with("k1_identical", self.k1_identical),
            points: self.points.clone(),
            failures,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Field;

    #[test]
    fn k1_session_is_byte_identical_to_driver() {
        let sc = scale(Effort::Quick);
        let setup = ch3_setup(sc.members, 0.0, 11);
        assert!(k1_matches_single_tree(&setup, &sc, 11));
    }

    #[test]
    fn crash_point_is_deterministic_and_striping_damps_the_spike() {
        let sc = scale(Effort::Quick);
        let setup = ch3_setup(sc.members, 0.0, 42);
        let k1 = run_crash_point(&setup, &sc, 1, 42);
        let k1b = run_crash_point(&setup, &sc, 1, 42);
        assert_eq!(k1.spike_pct, k1b.spike_pct, "same seed, same run");
        assert_eq!(k1.loss_pct, k1b.loss_pct);
        let k3 = run_crash_point(&setup, &sc, 3, 42);
        // Acceptance: an interior crash at k ≥ 2 costs at most ~1.5/k
        // of the single-tree spike.
        assert!(
            k3.spike_pct <= k1.spike_pct * 1.5 / 3.0 + 1e-9,
            "k=3 spike {} vs k=1 spike {}",
            k3.spike_pct,
            k1.spike_pct
        );
        assert!(k1.spike_pct > 0.0, "k=1 interior crash produced no spike");
        assert_eq!(k3.stripe_violations, 0.0);
    }

    #[test]
    fn chaos_point_repairs_across_trees_without_stripe_leaks() {
        let sc = scale(Effort::Quick);
        let setup = ch3_setup(sc.members, 0.0, 7);
        let m = run_chaos_point(&setup, &sc, 2, 7);
        assert_eq!(m.stripe_violations, 0.0, "off-stripe retransmissions");
        let m2 = run_chaos_point(&setup, &sc, 2, 7);
        assert_eq!(m.loss_pct, m2.loss_pct, "same seed, same run");
    }

    #[test]
    fn smoke_report_has_the_gate_shape() {
        let r = multitree_family(Effort::Quick, 3);
        assert!(r.k1_identical);
        assert_eq!(r.tables.len(), 2);
        assert_eq!(r.tables[0].rows.len(), KS.len());
        // k × {crash, chaos} × trials.
        assert_eq!(r.points.len(), KS.len() * 2 * 2);
        let doc = r.report(Effort::Quick, 3);
        assert_eq!(doc.name, "multitree");
        assert_eq!(doc.failures, Vec::<String>::new());
        assert_eq!(doc.header.get("effort"), Some(&Field::Str("quick".into())));
        assert_eq!(doc.header.get("k1_identical"), Some(&Field::Bool(true)));
        assert_eq!(doc.points[7].get("k"), Some(&Field::U64(2)));
        assert!(matches!(doc.points[7].get("series"), Some(Field::Str(s)) if s == "chaos"));
    }

    /// The A10 gate fires on a report doctored to break it.
    #[test]
    fn doctored_report_fails_its_gate() {
        let r = MultiTreeReport {
            tables: Vec::new(),
            points: Vec::new(),
            k1_identical: false,
        };
        let failures = r.report(Effort::Quick, 3).failures;
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].starts_with("k=1 multitree session diverged"));
    }
}
