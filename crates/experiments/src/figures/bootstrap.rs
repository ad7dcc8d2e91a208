//! Ablation A11 — decentralized bootstrap under a flash crowd.
//!
//! Every joiner starts from a `k`-entry bootstrap set instead of the
//! source address ([`Scenario::flash_crowd`] + the `vdm-overlay`
//! discovery subsystem): it probes the set with bounded fanout and
//! per-request deadlines, gossips a partial view, and starts its join
//! walk from the first live anchor that answers — falling back to the
//! source walk only when the view runs dry. Three sweeps stress the
//! three failure axes:
//!
//! * **A11a** — bootstrap-set size `k` (how few entry points are
//!   enough?) with 30 % stale entries and half the live seeds crashed
//!   mid-crowd.
//! * **A11b** — staleness fraction (entries pointing at hosts that
//!   never joined; probes to them time out and the entry is retired).
//! * **A11c** — seed churn (live seeds crashed *during* the crowd, so
//!   freshly gossiped entries go stale under the joiners' feet).
//!
//! Both series (VDM and HMTP) run the same hardened control plane with
//! token-bucket join admission on, so the crowd is smoothed rather
//! than stampeding any one target. Headline numbers per point: median
//! startup (join latency), median time-to-first-anchor, source
//! fallbacks, stale-probe hits, and the invariant-violation count —
//! which must stay zero.

use crate::ci::CiStat;
use crate::figures::column;
use crate::proto::{Protocol, Session};
use crate::report::{Fields, Report};
use crate::runner::two_series;
use crate::setup::{ch3_setup, Ch3Setup};
use crate::table::Table;
use crate::Effort;
use std::sync::{Mutex, OnceLock};
use vdm_overlay::agent::{AdmissionConfig, AgentConfig, ResilienceConfig};
use vdm_overlay::driver::RunOutput;
use vdm_overlay::repair::RepairConfig;
use vdm_overlay::scenario::{FlashCrowdConfig, Scenario};
use vdm_overlay::DiscoveryConfig;
use vdm_trace::MetricsRegistry;

/// Bootstrap-set sizes swept by A11a.
pub const KS: [usize; 4] = [2, 3, 4, 6];
/// Staleness fractions swept by A11b.
pub const STALES: [f64; 3] = [0.0, 0.3, 0.6];
/// Seed-churn fractions swept by A11c.
pub const CHURNS: [f64; 3] = [0.0, 0.5, 1.0];

/// Defaults for the axes a table does not sweep.
const STALE_DEFAULT: f64 = 0.3;
const CHURN_DEFAULT: f64 = 0.5;

/// Shape of one A11 session, derived from the effort preset.
struct BsScale {
    joiners: usize,
    warmup_s: f64,
    crowd_at_s: f64,
    spread_s: f64,
    settle_s: f64,
    measure_every_s: f64,
    reps: usize,
}

fn scale(effort: Effort) -> BsScale {
    let (joiners, warmup_s, crowd_at_s, spread_s, settle_s, reps) = match effort {
        Effort::Quick => (10, 30.0, 60.0, 5.0, 90.0, 2),
        Effort::Default => (20, 40.0, 80.0, 8.0, 150.0, 3),
        Effort::Paper => (40, 60.0, 120.0, 10.0, 240.0, 5),
    };
    BsScale {
        joiners,
        warmup_s,
        crowd_at_s,
        spread_s,
        settle_s,
        // Wider than the crash-detection window: a child that lost its
        // parent right after a data delivery needs up to 2× the 15 s
        // data timeout to notice, plus failover (3 × 2 s) and a walk.
        // Measuring inside that window would count the not-yet-detected
        // dead parent as a structural violation.
        measure_every_s: 60.0,
        reps,
    }
}

/// The A11 control plane, shared with the resilience and bootstrap
/// integration suites: [`AgentConfig::hardened`] with every
/// proactive-resilience mechanism at its default. Admission is
/// deliberately on: a flash crowd is exactly the burst the token bucket
/// exists to smooth, so the ablation measures discovery *under*
/// admission control, not instead of it.
pub fn resilient(base: AgentConfig) -> AgentConfig {
    AgentConfig {
        resilience: Some(ResilienceConfig::default()),
        admission: Some(AdmissionConfig::default()),
        repair: Some(RepairConfig::default()),
        ..base.hardened()
    }
}

/// The two series A11 compares: VDM, then HMTP.
const PROTOS: [Protocol; 2] = [Protocol::Vdm, Protocol::Hmtp(300)];

/// Per-run metrics pulled from a [`RunOutput`].
#[derive(Clone, Copy, Debug, Default)]
struct BsMetrics {
    startup_med_s: f64,
    anchor_med_s: f64,
    fallbacks: f64,
    stale_hits: f64,
    contacts: f64,
    loss_pct: f64,
    stretch: f64,
    violations: f64,
    connected_frac: f64,
}

/// Median of a sample set; `NaN` when empty (CiStat skips NaNs).
fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

fn bs_metrics(out: &RunOutput) -> BsMetrics {
    let r = &out.stats.recovery;
    let snap = &out.final_snapshot;
    let connected = snap
        .members
        .iter()
        .filter(|h| snap.parent[h.idx()].is_some())
        .count();
    BsMetrics {
        startup_med_s: median(out.stats.startup_s.clone()),
        anchor_med_s: r.anchor_median(),
        fallbacks: r.discovery_fallbacks as f64,
        stale_hits: r.stale_peer_hits as f64,
        contacts: r.bootstrap_contacts as f64,
        loss_pct: out.stats.overall_loss() * 100.0,
        stretch: out.stats.tail_mean(3, |m| m.stretch.mean),
        violations: r.total_violations() as f64,
        connected_frac: if snap.members.is_empty() {
            1.0
        } else {
            connected as f64 / snap.members.len() as f64
        },
    }
}

/// Aggregated counters across every run this process executed, for the
/// `vdm-repro trace bootstrap` metrics snapshot. Cells run on rayon
/// workers, hence the mutex; counter merges are order-independent so
/// the snapshot stays deterministic even under parallel execution.
fn acc() -> &'static Mutex<MetricsRegistry> {
    static ACC: OnceLock<Mutex<MetricsRegistry>> = OnceLock::new();
    ACC.get_or_init(|| Mutex::new(MetricsRegistry::new()))
}

/// Merge the accumulated `run.*` / `recovery.*` / `discovery.*`
/// counters of every A11 cell into `m`.
pub fn export_metrics(m: &mut MetricsRegistry) {
    m.merge(&acc().lock().expect("bootstrap metrics lock"));
}

/// Run one protocol through one flash-crowd schedule.
fn run_point(
    setup: &Ch3Setup,
    sc: &BsScale,
    proto: Protocol,
    k: usize,
    stale_frac: f64,
    churn_frac: f64,
    seed: u64,
) -> BsMetrics {
    let fc = FlashCrowdConfig {
        seeds: k,
        stale_frac,
        joiners: sc.joiners,
        warmup_s: sc.warmup_s,
        crowd_at_s: sc.crowd_at_s,
        spread_s: sc.spread_s,
        seed_churn_frac: churn_frac,
        churn_delay_s: 2.0,
        settle_s: sc.settle_s,
        measure_every_s: sc.measure_every_s,
        discovery: DiscoveryConfig::default(),
    };
    let scenario = Scenario::flash_crowd(&fc, &setup.candidates, seed);
    let out = proto.run(Session {
        agent: &resilient,
        ..setup.session(&scenario, seed)
    });
    out.stats
        .export_metrics(&mut acc().lock().expect("bootstrap metrics lock"));
    bs_metrics(&out)
}

/// The A11 report: rendered tables, raw per-cell points, and the two
/// headline aggregates [`BootstrapReport::report`] gates on.
pub struct BootstrapReport {
    /// A11a (k), A11b (staleness), A11c (seed churn) tables.
    pub tables: Vec<Table>,
    /// One `BENCH_bootstrap.json` point per (sweep, x, proto, trial)
    /// cell: `table` is `"k"`, `"stale"` or `"churn"` and `x` the swept
    /// value; then the median join and first-anchor latencies (`NaN`
    /// when nobody anchored), source-walk fallbacks, probes that timed
    /// out on a stale peer, `PeerReq` probes sent, whole-run loss,
    /// steady-state stretch, invariant violations (must stay 0) and the
    /// fraction of end-of-run members with an established parent.
    pub points: Vec<Fields>,
    /// Invariant violations summed over every cell — the gate number.
    pub total_violations: u64,
    /// Pooled median time-to-first-anchor across all cells, seconds.
    pub anchor_median_s: f64,
}

/// One sweep row: (table tag, x, k, stale fraction, churn fraction).
type RowSpec = (&'static str, f64, usize, f64, f64);

fn row_specs(ks: &[usize], stales: &[f64], churns: &[f64]) -> Vec<RowSpec> {
    let k_mid = ks[ks.len() / 2];
    let mut specs: Vec<RowSpec> = Vec::new();
    for &k in ks {
        specs.push(("k", k as f64, k, STALE_DEFAULT, CHURN_DEFAULT));
    }
    for &s in stales {
        specs.push(("stale", s, k_mid, s, CHURN_DEFAULT));
    }
    for &c in churns {
        specs.push(("churn", c, k_mid, STALE_DEFAULT, c));
    }
    specs
}

fn family(
    sc: &BsScale,
    ks: &[usize],
    stales: &[f64],
    churns: &[f64],
    seed: u64,
) -> BootstrapReport {
    let max_k = ks.iter().copied().max().expect("at least one k");
    let setup = ch3_setup(max_k + sc.joiners, 0.0, seed);
    let specs = row_specs(ks, stales, churns);
    let grid = two_series("A11", specs.len(), sc.reps, seed, |row, series, s| {
        let (_, _, k, stale, churn) = specs[row];
        run_point(&setup, sc, PROTOS[series as usize], k, stale, churn, s)
    });

    let columns = || -> Vec<String> {
        vec![
            "vdm_startup_s".into(),
            "hmtp_startup_s".into(),
            "vdm_anchor_s".into(),
            "hmtp_anchor_s".into(),
            "vdm_fallbacks".into(),
            "vdm_stale_hits".into(),
            "violations".into(),
        ]
    };
    let mut table_a = Table::new(
        "Ablation A11a",
        "Flash crowd vs bootstrap-set size (stale 30%, seed churn 50%)",
        "bootstrap k",
        columns(),
    );
    let mut table_b = Table::new(
        "Ablation A11b",
        "Flash crowd vs bootstrap staleness (mid k, seed churn 50%)",
        "stale fraction",
        columns(),
    );
    let mut table_c = Table::new(
        "Ablation A11c",
        "Flash crowd vs seed churn (mid k, stale 30%)",
        "seed churn",
        columns(),
    );

    let mut points = Vec::new();
    let mut total_violations = 0;
    let mut anchor_meds = Vec::new();
    for (&(tag, x, ..), [v, h]) in specs.iter().zip(&grid) {
        let both: Vec<BsMetrics> = v.iter().chain(h).copied().collect();
        let table = match tag {
            "k" => &mut table_a,
            "stale" => &mut table_b,
            _ => &mut table_c,
        };
        table.push(
            x,
            vec![
                CiStat::of(&column(v, |m| m.startup_med_s)),
                CiStat::of(&column(h, |m| m.startup_med_s)),
                CiStat::of(&column(v, |m| m.anchor_med_s)),
                CiStat::of(&column(h, |m| m.anchor_med_s)),
                CiStat::of(&column(v, |m| m.fallbacks)),
                CiStat::of(&column(v, |m| m.stale_hits)),
                CiStat::of(&column(&both, |m| m.violations)),
            ],
        );
        for (proto, ms) in [("VDM", v), ("HMTP", h)] {
            for (trial, m) in ms.iter().enumerate() {
                if m.anchor_med_s.is_finite() {
                    anchor_meds.push(m.anchor_med_s);
                }
                total_violations += m.violations as u64;
                points.push(
                    Fields::default()
                        .with("table", tag)
                        .with("x", x)
                        .with("proto", proto)
                        .with("trial", trial)
                        .with("startup_med_s", m.startup_med_s)
                        .with("anchor_med_s", m.anchor_med_s)
                        .with("fallbacks", m.fallbacks as u64)
                        .with("stale_hits", m.stale_hits as u64)
                        .with("contacts", m.contacts as u64)
                        .with("loss_pct", m.loss_pct)
                        .with("stretch", m.stretch)
                        .with("violations", m.violations as u64)
                        .with("connected_frac", m.connected_frac),
                );
            }
        }
    }
    let tables = [table_a, table_b, table_c]
        .into_iter()
        .filter(|t| !t.rows.is_empty())
        .collect();
    BootstrapReport {
        tables,
        points,
        total_violations,
        anchor_median_s: median(anchor_meds),
    }
}

/// The full A11 family at an effort tier.
pub fn bootstrap_family(effort: Effort, seed: u64) -> BootstrapReport {
    family(&scale(effort), &KS, &STALES, &CHURNS, seed)
}

/// The acceptance cell's session shape: 8 joiners, one trial.
fn smoke_scale() -> BsScale {
    BsScale {
        joiners: 8,
        warmup_s: 30.0,
        crowd_at_s: 60.0,
        spread_s: 4.0,
        settle_s: 60.0,
        measure_every_s: 60.0,
        reps: 1,
    }
}

/// The CI smoke variant: exactly the acceptance cell — `k = 3`, 30 %
/// stale entries, half the live seeds crashed mid-crowd — one trial
/// per protocol.
pub fn bootstrap_family_smoke(seed: u64) -> BootstrapReport {
    family(&smoke_scale(), &[3], &[], &[], seed)
}

impl BootstrapReport {
    /// The `BENCH_bootstrap.json` document and the A11 gates.
    pub fn report(&self, smoke: bool, seed: u64) -> Report {
        let mut failures = Vec::new();
        if self.total_violations > 0 {
            failures.push(format!(
                "{} structural invariant violations under the flash crowd — discovery broke the tree",
                self.total_violations
            ));
        }
        if smoke && !self.anchor_median_s.is_finite() {
            failures.push(
                "no joiner anchored via discovery in the smoke cell — bootstrap path dead".into(),
            );
        }
        Report {
            name: "bootstrap",
            tables: self.tables.clone(),
            header: Fields::default()
                .with("smoke", smoke)
                .with("seed", seed)
                .with("total_violations", self.total_violations)
                .with("anchor_median_s", self.anchor_median_s),
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
    fn point_is_deterministic_per_seed() {
        let sc = smoke_scale();
        let setup = ch3_setup(3 + sc.joiners, 0.0, 42);
        let a = run_point(&setup, &sc, Protocol::Vdm, 3, 0.3, 0.5, 42);
        let b = run_point(&setup, &sc, Protocol::Vdm, 3, 0.3, 0.5, 42);
        assert_eq!(a.startup_med_s, b.startup_med_s, "same seed, same run");
        assert_eq!(a.contacts, b.contacts);
        assert_eq!(a.loss_pct, b.loss_pct);
    }

    #[test]
    fn acceptance_cell_joins_succeed_without_violations() {
        let sc = smoke_scale();
        let setup = ch3_setup(3 + sc.joiners, 0.0, 42);
        let m = run_point(&setup, &sc, Protocol::Vdm, 3, 0.3, 0.5, 42);
        assert_eq!(m.violations, 0.0, "structural invariants broke");
        assert!(
            m.connected_frac >= 0.99,
            "crowd failed to connect: {} connected",
            m.connected_frac
        );
        assert!(m.contacts > 0.0, "discovery never probed the seeds");
        assert!(
            m.anchor_med_s.is_finite(),
            "no joiner ever anchored via discovery"
        );
    }

    #[test]
    fn smoke_report_has_the_gate_shape() {
        let r = bootstrap_family_smoke(42);
        assert_eq!(r.total_violations, 0);
        assert!(r.anchor_median_s.is_finite());
        assert_eq!(r.tables.len(), 1, "smoke sweeps only the k table");
        assert_eq!(r.points.len(), 2, "one VDM and one HMTP point");
        let doc = r.report(true, 42);
        assert_eq!(doc.name, "bootstrap");
        assert_eq!(doc.failures, Vec::<String>::new());
        assert_eq!(doc.header.get("total_violations"), Some(&Field::U64(0)));
        assert!(matches!(doc.header.get("anchor_median_s"), Some(Field::F64(m)) if m.is_finite()));
        assert_eq!(doc.points[1].get("proto"), Some(&Field::Str("HMTP".into())));
    }

    /// Each A11 gate fires on a report doctored to break it; a run that
    /// anchored nobody only fails the smoke cell.
    #[test]
    fn doctored_report_fails_its_gates() {
        let r = BootstrapReport {
            tables: Vec::new(),
            points: Vec::new(),
            total_violations: 1,
            anchor_median_s: f64::NAN,
        };
        let failures = r.report(false, 42).failures;
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].starts_with("1 structural invariant violations"));
        let failures = r.report(true, 42).failures;
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures[1].starts_with("no joiner anchored via discovery"));
    }

    #[test]
    fn metrics_accumulator_sees_discovery_counters() {
        let sc = BsScale {
            joiners: 6,
            crowd_at_s: 50.0,
            spread_s: 3.0,
            settle_s: 50.0,
            ..smoke_scale()
        };
        let setup = ch3_setup(3 + sc.joiners, 0.0, 11);
        let before = {
            let mut m = MetricsRegistry::new();
            export_metrics(&mut m);
            m.counter("discovery.bootstrap_contacts")
        };
        let m0 = run_point(&setup, &sc, Protocol::Vdm, 3, 0.3, 0.0, 11);
        let mut m = MetricsRegistry::new();
        export_metrics(&mut m);
        assert_eq!(
            m.counter("discovery.bootstrap_contacts"),
            before + m0.contacts as u64,
            "run counters did not reach the trace accumulator"
        );
    }
}
