//! Golden-output equivalence: every ablation family must produce
//! byte-identical CSVs whether its cells run sequentially or fanned
//! across the thread pool.
//!
//! Each family runs at `Effort::Quick` on two fixed seeds; the
//! sequential path is the reference (it matches the pre-runner code's
//! loop nesting and seed schedule bit-for-bit), so these tests pin the
//! parallel runner's merge order and seed derivation. CI runs this
//! suite with `RAYON_NUM_THREADS=4` so the parallel path genuinely
//! interleaves.

use vdm_experiments::figures::{ablation, chaos, soak};
use vdm_experiments::runner::{with_mode, ExecMode};
use vdm_experiments::{Effort, Table};

const SEEDS: [u64; 2] = [11, 42];

fn assert_equivalent(name: &str, f: impl Fn(u64) -> Vec<Table>) {
    for seed in SEEDS {
        let seq = with_mode(ExecMode::Sequential, || f(seed));
        let par = with_mode(ExecMode::Parallel, || f(seed));
        assert_eq!(seq.len(), par.len(), "{name} seed {seed}: table count");
        for (a, b) in seq.iter().zip(&par) {
            assert!(!a.to_csv().is_empty(), "{name} produced an empty CSV");
            assert_eq!(
                a.to_csv(),
                b.to_csv(),
                "{name} seed {seed}: `{}` differs between sequential and parallel",
                a.figure
            );
        }
    }
}

#[test]
fn a1_slack_sweep_parallel_matches_sequential() {
    assert_equivalent("A1 slack", |s| ablation::slack_sweep(Effort::Quick, s));
}

#[test]
fn a2_reconnect_anchor_parallel_matches_sequential() {
    assert_equivalent("A2 anchor", |s| {
        ablation::reconnect_anchor(Effort::Quick, s)
    });
}

#[test]
fn a3_crash_churn_parallel_matches_sequential() {
    assert_equivalent("A3 crash", |s| ablation::crash_churn(Effort::Quick, s));
}

#[test]
fn a4_topology_sensitivity_parallel_matches_sequential() {
    assert_equivalent("A4 topology", |s| {
        ablation::topology_sensitivity(Effort::Quick, s)
    });
}

#[test]
fn a5_heterogeneity_parallel_matches_sequential() {
    assert_equivalent("A5 heterogeneity", |s| {
        ablation::heterogeneity(Effort::Quick, s)
    });
}

#[test]
fn a6_congestion_parallel_matches_sequential() {
    assert_equivalent("A6 congestion", |s| ablation::congestion(Effort::Quick, s));
}

#[test]
fn a7_chaos_parallel_matches_sequential() {
    assert_equivalent("A7 chaos", |s| chaos::chaos_recovery(Effort::Quick, s));
}

#[test]
fn a8_soak_parallel_matches_sequential() {
    assert_equivalent("A8 soak", |s| soak::soak_resilience(Effort::Quick, s));
}
