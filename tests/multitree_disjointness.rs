//! Multi-tree decorrelation properties (ablation A10, satellite
//! checks): per-tree metric perturbation plus striped degree limits
//! must drive the trees' interior-node sets apart on realistic
//! underlays, and cross-tree repair must never request a chunk outside
//! the stripe that owns it — property-tested over seeds, with the
//! paper's fixed seeds 11 and 42 pinned explicitly.

mod common;

use common::{assert_matches_golden, staggered_joins};
use proptest::{prop_assert, prop_assert_eq, proptest};
use vdm_core::{perturb_vdist, VdmFactory, VdmPolicy};
use vdm_experiments::figures::multitree::multitree_family;
use vdm_experiments::setup::{powerlaw_setup, waxman_setup, Ch3Setup};
use vdm_experiments::Effort;
use vdm_netsim::{HostId, SimTime, Underlay};
use vdm_overlay::agent::{AdmissionConfig, AgentConfig};
use vdm_overlay::driver::{Driver, DriverConfig};
use vdm_overlay::repair::RepairConfig;
use vdm_overlay::scenario::{Action, Scenario};
use vdm_overlay::sync::SyncOverlay;
use vdm_overlay::tree::TreeSnapshot;
use vdm_overlay::{interior_overlap, interior_victim, striped_limits, walk::WalkConfig};

const AMP: f64 = 0.25;

/// The per-(session, tree) perturbation seed `VdmFactory::for_tree`
/// derives (tree 0 stays unperturbed).
fn tree_seed(tree: usize, session_seed: u64) -> Option<u64> {
    (tree > 0).then_some(session_seed ^ ((tree as u64) << 48) ^ 0x6d74_7265)
}

/// Build `k` trees over one underlay with `SyncOverlay` joins and
/// return their snapshots. `decorrelate` switches on both levers
/// (perturbed metrics + striped degree limits); off, every tree is
/// built identically.
fn build_trees(setup: &Ch3Setup, k: usize, seed: u64, decorrelate: bool) -> Vec<TreeSnapshot> {
    build_trees_mode(setup, k, seed, if decorrelate { 3 } else { 0 })
}
fn build_trees_mode(setup: &Ch3Setup, k: usize, seed: u64, mode: u8) -> Vec<TreeSnapshot> {
    let perturb = mode & 1 != 0;
    let stripe = mode & 2 != 0;
    let n = setup.candidates.len() + 1;
    let base: Vec<u32> = (0..n)
        .map(|h| 2 + ((seed ^ h as u64) % 4) as u32) // 2..=5, seed-mixed
        .collect();
    let limits = if stripe {
        striped_limits(&base, k, setup.source, 1)
    } else {
        striped_limits(&base, 1, setup.source, 1)
            .iter()
            .cycle()
            .take(k * n)
            .copied()
            .collect()
    };
    (0..k)
        .map(|t| {
            let u = setup.underlay.clone();
            // The sync walk probes virtual distances straight from this
            // closure (the async path routes measured RTT through
            // `WalkPolicy::vdist` instead), so the per-tree perturbation
            // composes here.
            let ts = if perturb { tree_seed(t, seed) } else { None };
            let dist = move |a: HostId, b: HostId| {
                let d = u.rtt_ms(a, b);
                ts.map_or(d, |ts| perturb_vdist(d, ts, AMP))
            };
            let tl = &limits[t * n..(t + 1) * n];
            let mut ov = SyncOverlay::new(n, setup.source, tl[setup.source.idx()], dist);
            let policy = VdmPolicy::delay_based();
            for &h in &setup.candidates {
                ov.join(h, tl[h.idx()], &policy);
            }
            ov.snapshot()
        })
        .collect()
}

fn overlap_on(setup: &Ch3Setup, k: usize, seed: u64) -> (f64, f64) {
    let same = build_trees(setup, k, seed, false);
    let decorrelated = build_trees(setup, k, seed, true);
    for snaps in [&same, &decorrelated] {
        for s in snaps.iter() {
            assert!(
                !s.interior_members().is_empty(),
                "degenerate tree (no interiors) at seed {seed}"
            );
        }
    }
    (interior_overlap(&same), interior_overlap(&decorrelated))
}

/// The paper's fixed seeds on both sensitivity underlays: identically
/// built trees are identical (overlap 1), each decorrelation lever
/// moves the interiors on its own, and both together keep the shared
/// fraction well below clone level (0.42–0.62 observed here).
#[test]
fn fixed_seeds_decorrelate_interiors_on_waxman_and_powerlaw() {
    for seed in [11u64, 42] {
        for (name, setup) in [
            ("waxman", waxman_setup(16, 40, seed)),
            ("powerlaw", powerlaw_setup(16, 40, seed)),
        ] {
            for k in [2usize, 3] {
                let clones = interior_overlap(&build_trees_mode(&setup, k, seed, 0));
                let perturb = interior_overlap(&build_trees_mode(&setup, k, seed, 1));
                let limits = interior_overlap(&build_trees_mode(&setup, k, seed, 2));
                let both = interior_overlap(&build_trees_mode(&setup, k, seed, 3));
                assert_eq!(clones, 1.0, "{name} k={k} seed={seed}: clones must overlap");
                assert!(
                    perturb < 1.0,
                    "{name} k={k} seed={seed}: metric perturbation alone changed nothing"
                );
                assert!(
                    limits < 1.0,
                    "{name} k={k} seed={seed}: striped limits alone changed nothing"
                );
                assert!(
                    both < 0.7,
                    "{name} k={k} seed={seed}: combined overlap {both} too high"
                );
            }
        }
    }
}

proptest! {
    /// Over arbitrary underlays: identically built trees always clone
    /// each other, and decorrelation keeps the *mean* interior overlap
    /// (across three sessions on the same underlay) well below clone
    /// level. A single tiny session may degenerate to identical
    /// interiors, which is why the property averages.
    #[test]
    fn decorrelation_lowers_interior_overlap(
        seed in 0u64..1u64 << 48,
        k in 2usize..=3,
        topo in 0u32..2,
    ) {
        let setup = if topo == 1 {
            powerlaw_setup(12, 30, seed)
        } else {
            waxman_setup(12, 30, seed)
        };
        let sessions = [seed, seed ^ 0xa5a5, seed.wrapping_add(77)];
        let mut dec_sum = 0.0;
        for s in sessions {
            let (same, dec) = overlap_on(&setup, k, s);
            prop_assert_eq!(same, 1.0);
            prop_assert!(dec <= same, "overlap {} above clone level (seed {})", dec, s);
            dec_sum += dec;
        }
        let mean = dec_sum / sessions.len() as f64;
        prop_assert!(mean <= 0.85, "mean overlap {} too high (seed {})", mean, seed);
    }
}

/// A full striped session with an interior crash: cross-tree repair
/// engages, and no receiver ever accepts (or requests) a chunk from
/// outside its stripe.
fn crash_session(k: usize, seed: u64) -> vdm_overlay::MultiTreeOutput {
    let members = 10usize;
    let setup = waxman_setup(members, 30, seed);
    let mut actions = staggered_joins(&setup.candidates, 2, 2);
    actions.push((SimTime::from_secs(120), Action::Measure));
    let scenario = Scenario::from_actions(actions, SimTime::from_secs(125));
    let base = vec![3u32; members + 1];
    let limits = striped_limits(&base, k, setup.source, 1);
    let factories: Vec<VdmFactory> = (0..k)
        .map(|t| {
            let mut f = VdmFactory::delay_based().for_tree(t, seed, AMP);
            f.agent = AgentConfig {
                walk: WalkConfig::hardened(),
                data_timeout: Some(SimTime::from_secs(15)),
                repair: Some(
                    RepairConfig {
                        window: 8,
                        ..RepairConfig::default()
                    }
                    .striped(k as u64, t as u64),
                ),
                cross_repair: Some(AdmissionConfig::default()),
                ..f.agent
            };
            f
        })
        .collect();
    let mut session = Driver::striped(
        setup.underlay.clone(),
        None,
        setup.source,
        factories,
        &scenario,
        limits,
        DriverConfig::default(),
        seed,
    );
    session.run_until(SimTime::from_secs(60));
    if let Some(victim) = interior_victim(&session.snapshots()) {
        session.crash_now(victim);
    }
    session.run_trees()
}

#[test]
fn fixed_seed_crash_engages_cross_repair_without_stripe_leaks() {
    for seed in [11u64, 42] {
        let out = crash_session(2, seed);
        let r = &out.stats.recovery;
        assert_eq!(
            r.cross_stripe_violations, 0,
            "seed {seed}: off-stripe retransmission accepted"
        );
        assert!(
            r.cross_nacks_sent > 0,
            "seed {seed}: interior crash never engaged cross-tree repair"
        );
    }
}

/// Golden pin over the striped path: the two A10 tables
/// (k ∈ {1, 2, 3, 4}, crash and chaos series) must reproduce their
/// committed CSVs byte-for-byte at the fixed seed. Before this only the
/// k = 1 identity gate pinned the session world; any reordering of the
/// per-tree join/leave/crash loops, the stripe bookkeeping or the
/// cross-repair sweep shifts these numbers.
#[test]
fn a10_tables_match_goldens() {
    let r = multitree_family(Effort::Quick, 42);
    assert!(r.k1_identical);
    for (golden, table) in [
        ("a10a_multitree_quick_seed42.csv", &r.tables[0]),
        ("a10b_multitree_quick_seed42.csv", &r.tables[1]),
    ] {
        assert_matches_golden(golden, &table.to_csv());
    }
}

proptest! {
    /// Over arbitrary seeds and stripe counts, cross-tree repair may or
    /// may not fire (the victim's children sometimes rejoin first) but
    /// an off-stripe request/retransmission is never accepted.
    #[test]
    fn cross_repair_never_requests_off_stripe(
        seed in 0u64..1u64 << 48,
        k in 2usize..=4,
    ) {
        let out = crash_session(k, seed);
        prop_assert_eq!(
            out.stats.recovery.cross_stripe_violations,
            0,
            "seed {} k {}: off-stripe retransmission accepted",
            seed,
            k
        );
    }
}
