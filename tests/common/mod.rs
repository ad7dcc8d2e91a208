//! Shared integration-test harness: the chaos-grade agent preset, the
//! fixed-seed scenario builders the suites repeat, the golden-CSV diff
//! helper (goldens live in `tests/goldens/`, regenerated with
//! `UPDATE_GOLDENS=1`), and the smoke-report shape assertions.
//!
//! Every `[[test]]` target that declares `mod common;` compiles its own
//! copy, so helpers unused by one target are expected dead code there.
#![allow(dead_code)]

use std::path::PathBuf;
use vdm_core::VdmFactory;
use vdm_experiments::report::{Field, Report};
use vdm_experiments::setup::Ch3Setup;
use vdm_netsim::HostId;
use vdm_netsim::SimTime;
use vdm_overlay::agent::{AdmissionConfig, AgentConfig, HeartbeatConfig, ResilienceConfig};
use vdm_overlay::driver::{Driver, DriverConfig, RunOutput};
use vdm_overlay::repair::RepairConfig;
use vdm_overlay::scenario::{Action, Scenario};
use vdm_overlay::walk::WalkConfig;

/// Chaos-grade control plane with every proactive-resilience mechanism
/// enabled (the A11 preset shared by the resilience and bootstrap
/// suites).
pub fn resilient() -> AgentConfig {
    AgentConfig {
        walk: WalkConfig::hardened(),
        retry_backoff: 2.0,
        data_timeout: Some(SimTime::from_secs(15)),
        heartbeat: Some(HeartbeatConfig {
            period: SimTime::from_secs(10),
            timeout: SimTime::from_secs(30),
        }),
        gap_threshold: Some(SimTime::from_secs(5)),
        resilience: Some(ResilienceConfig::default()),
        admission: Some(AdmissionConfig::default()),
        repair: Some(RepairConfig::default()),
        ..AgentConfig::default()
    }
}

/// VDM-D with the chaos-grade agent preset.
pub fn resilient_factory() -> VdmFactory {
    VdmFactory {
        agent: resilient(),
        ..VdmFactory::delay_based()
    }
}

/// One driver run over `setup` with uniform degree limits and the
/// default driver config — the shape every fixed-seed gate repeats.
pub fn run_driver(
    setup: &Ch3Setup,
    factory: VdmFactory,
    scenario: &Scenario,
    limits: Vec<u32>,
    seed: u64,
) -> RunOutput {
    Driver::new(
        setup.underlay.clone(),
        None,
        setup.source,
        factory,
        scenario,
        limits,
        DriverConfig::default(),
        seed,
    )
    .run()
}

/// Staggered joins: `candidates[i]` joins at `first_s + i * every_s`.
pub fn staggered_joins(
    candidates: &[HostId],
    first_s: u64,
    every_s: u64,
) -> Vec<(SimTime, Action)> {
    candidates
        .iter()
        .enumerate()
        .map(|(i, &h)| {
            (
                SimTime::from_secs(first_s + i as u64 * every_s),
                Action::Join(h),
            )
        })
        .collect()
}

/// The committed golden for `name` (`tests/goldens/<name>`).
pub fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/goldens")
        .join(name)
}

/// Byte-diff `actual` against the committed golden. Set
/// `UPDATE_GOLDENS=1` to (re)write the golden instead of asserting —
/// review the diff before committing.
pub fn assert_matches_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e} (run with UPDATE_GOLDENS=1)", name));
    assert!(
        golden == actual,
        "`{name}` diverged from its golden ({}); \
         first differing line: {:?} vs {:?} — if the change is intended, \
         regenerate with UPDATE_GOLDENS=1 and commit the diff",
        path.display(),
        golden
            .lines()
            .zip(actual.lines())
            .find(|(g, a)| g != a)
            .map(|(g, _)| g),
        golden
            .lines()
            .zip(actual.lines())
            .find(|(g, a)| g != a)
            .map(|(_, a)| a),
    );
}

/// What every smoke [`Report`] must carry: the right bench tag, the
/// smoke flag and seed stamped, at least one point, no failed gate, and
/// a rendered document that ends with a newline.
pub fn assert_smoke_report(report: &Report, bench: &str, seed: u64) {
    assert_eq!(report.name, bench);
    assert_eq!(report.header.get("smoke"), Some(&Field::Bool(true)));
    assert_eq!(report.header.get("seed"), Some(&Field::U64(seed)));
    assert!(!report.points.is_empty(), "no data points");
    assert_eq!(report.failures, Vec::<String>::new());
    assert!(
        report.render().ends_with("]}\n"),
        "document must end with a newline"
    );
}
