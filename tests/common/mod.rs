//! Shared integration-test harness: the fixed-seed session runner and
//! scenario builders the suites repeat, the golden-CSV diff
//! helper (goldens live in `tests/goldens/`, regenerated with
//! `UPDATE_GOLDENS=1`), and the quick-report shape assertions.
//!
//! Every `[[test]]` target that declares `mod common;` compiles its own
//! copy, so helpers unused by one target are expected dead code there.
#![allow(dead_code)]

use std::path::PathBuf;
use vdm_experiments::report::{Field, Report};
use vdm_experiments::setup::Ch3Setup;
use vdm_experiments::{Protocol, Session};
use vdm_netsim::HostId;
use vdm_netsim::SimTime;
use vdm_overlay::agent::AgentConfig;
use vdm_overlay::driver::{DriverConfig, RunOutput};
use vdm_overlay::scenario::{Action, Scenario};

/// One VDM-D run over `setup` on the `agent` control plane (e.g.
/// `bootstrap::resilient`) with the default driver config — the shape
/// every fixed-seed gate repeats.
pub fn run_driver(
    setup: &Ch3Setup,
    agent: &dyn Fn(AgentConfig) -> AgentConfig,
    scenario: &Scenario,
    limits: Vec<u32>,
    seed: u64,
) -> RunOutput {
    Protocol::Vdm.run(Session {
        agent,
        ..Session::new(
            setup.underlay.clone(),
            None,
            setup.source,
            scenario,
            limits,
            DriverConfig::default(),
            seed,
        )
    })
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

/// What every quick-tier [`Report`] must carry: the right bench tag,
/// the effort tier and seed stamped, at least one point, no failed
/// gate, and a rendered document that ends with a newline.
pub fn assert_smoke_report(report: &Report, bench: &str, seed: u64) {
    assert_eq!(report.name, bench);
    assert_eq!(
        report.header.get("effort"),
        Some(&Field::Str("quick".into()))
    );
    assert_eq!(report.header.get("seed"), Some(&Field::U64(seed)));
    assert!(!report.points.is_empty(), "no data points");
    assert_eq!(report.failures, Vec::<String>::new());
    assert!(
        report.render().ends_with("]}\n"),
        "document must end with a newline"
    );
}
