//! The VDM join policy (§3.2) and agent factory.
//!
//! Per walk iteration at node `P` with newcomer `N`:
//!
//! 1. classify every child `E` of `P` by [`classify_with_slack`];
//! 2. any Case III children → descend into the *closest* one (by the
//!    newcomer's measured distance) — this also wins when Case II and
//!    Case III coexist (§3.2, Scenario III);
//! 3. else any Case II children → attach at `P`, adopting the Case II
//!    children closest-first ("as long as the new node allows");
//! 4. else (all Case I, or no children) → attach at `P` (a full `P`
//!    redirects to its closest child, handled by the walk mechanics).

use crate::direction::{classify_with_slack, Case};
use crate::metric::VirtualMetric;
use rand::rngs::StdRng;
use vdm_netsim::HostId;
use vdm_overlay::agent::{AgentConfig, AgentFactory, ProtocolAgent};
use vdm_overlay::peer::PeerState;
use vdm_overlay::walk::{ProbeResult, WalkPolicy, WalkPurpose, WalkStep};
use vdm_overlay::VDist;
use vdm_topology::splitmix64;

/// Deterministic per-tree jitter on a virtual distance (multi-tree
/// sessions, A10): hash the distance's bits with the tree's seed
/// ([`splitmix64`]) into `h ∈ [-1, 1)` and scale by `1 + amp·h`.
/// Every agent of a tree perturbs a given distance identically (the
/// walk stays coherent), different trees rank candidate parents
/// differently (their interiors decorrelate), and per-session
/// determinism is preserved. Zero stays zero and the sign never flips.
pub fn perturb_vdist(d: VDist, tree_seed: u64, amp: f64) -> VDist {
    let z = splitmix64(d.to_bits() ^ tree_seed);
    let h = (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0; // [-1, 1)
    d * (1.0 + amp * h)
}

/// The VDM protocol policy.
#[derive(Clone, Copy, Debug)]
pub struct VdmPolicy {
    metric: VirtualMetric,
    /// Directionality slack (0 = the paper's strict classifier).
    slack: f64,
    /// Per-tree `(seed, amplitude)` distance jitter (multi-tree
    /// sessions); `None` = the paper's unperturbed metric.
    perturb: Option<(u64, f64)>,
}

impl VdmPolicy {
    /// VDM with an explicit metric and slack.
    pub fn new(metric: VirtualMetric, slack: f64) -> Self {
        assert!(slack >= 0.0);
        Self {
            metric,
            slack,
            perturb: None,
        }
    }

    /// Jitter every virtual distance by up to `±amp` (relative),
    /// keyed on `tree_seed` — see [`perturb_vdist`].
    pub fn with_perturbation(mut self, tree_seed: u64, amp: f64) -> Self {
        assert!((0.0..1.0).contains(&amp));
        self.perturb = Some((tree_seed, amp));
        self
    }

    /// VDM-D (the paper's default): RTT virtual distances.
    pub fn delay_based() -> Self {
        Self::new(VirtualMetric::Delay, 0.0)
    }

    /// VDM-L: loss-based virtual distances (Chapter 4).
    pub fn loss_based() -> Self {
        Self::new(VirtualMetric::loss(), 0.0)
    }

    /// The configured metric.
    pub fn metric(&self) -> VirtualMetric {
        self.metric
    }
}

impl WalkPolicy for VdmPolicy {
    fn vdist(&self, rtt_ms: f64, loss_est: f64) -> VDist {
        let d = self.metric.vdist(rtt_ms, loss_est);
        match self.perturb {
            Some((seed, amp)) => perturb_vdist(d, seed, amp),
            None => d,
        }
    }

    fn needs_loss(&self) -> bool {
        self.metric.needs_loss()
    }

    fn decide(&self, p: &ProbeResult, _purpose: WalkPurpose) -> WalkStep {
        let mut best_case3: Option<(HostId, VDist)> = None;
        let mut case2: Vec<(HostId, VDist)> = Vec::new();
        for c in &p.children {
            match classify_with_slack(p.d_current, c.d_parent_child, c.d_new_child, self.slack) {
                Case::III => {
                    if best_case3.is_none_or(|(_, d)| {
                        c.d_new_child < d || (c.d_new_child == d && c.child < best_case3.unwrap().0)
                    }) {
                        best_case3 = Some((c.child, c.d_new_child));
                    }
                }
                Case::II => case2.push((c.child, c.d_new_child)),
                Case::I => {}
            }
        }
        if let Some((next, _)) = best_case3 {
            // "If we find CaseII and CaseIII together, we continue with
            // CaseIII by selecting the closest one" (§3.2).
            return WalkStep::Descend(next);
        }
        if !case2.is_empty() {
            // Adopt closest-first; the walk trims to the joiner's free
            // degree.
            case2.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            return WalkStep::Attach {
                splice: case2.into_iter().map(|(h, _)| h).collect(),
            };
        }
        WalkStep::Attach { splice: Vec::new() }
    }

    fn refine_start(&self, _state: &PeerState, source: HostId, _rng: &mut StdRng) -> HostId {
        // §3.4: "An existing node repeats the join process [at the
        // source]".
        source
    }

    fn restart_anchor(
        &self,
        visited: &[HostId],
        coord_dist: Option<&[VDist]>,
        fallback: HostId,
    ) -> HostId {
        // Coordinate damping: a Case-III restart resumes from the
        // visited ancestor whose virtual coordinate is nearest the
        // joiner, deepest on ties, instead of unconditionally backing
        // up to the deepest one. Without coordinates (or with none
        // finite) this is exactly the deepest-visited default.
        let Some(dists) = coord_dist else {
            return visited.last().copied().unwrap_or(fallback);
        };
        let mut best: Option<(VDist, usize)> = None;
        for (i, &d) in dists.iter().enumerate().take(visited.len()) {
            if d.is_finite() && best.is_none_or(|(bd, _)| d <= bd) {
                best = Some((d, i));
            }
        }
        match best {
            Some((_, i)) => visited[i],
            None => visited.last().copied().unwrap_or(fallback),
        }
    }

    fn classify_for_trace(&self, p: &ProbeResult) -> Vec<(HostId, vdm_trace::CaseClass)> {
        p.children
            .iter()
            .map(|c| {
                let case = match classify_with_slack(
                    p.d_current,
                    c.d_parent_child,
                    c.d_new_child,
                    self.slack,
                ) {
                    Case::I => vdm_trace::CaseClass::I,
                    Case::II => vdm_trace::CaseClass::II,
                    Case::III => vdm_trace::CaseClass::III,
                };
                (c.child, case)
            })
            .collect()
    }
}

/// Builds VDM agents for the simulation driver.
///
/// `agent` controls reconnection/refinement behaviour: the paper's plain
/// VDM uses `refine_period: None`; VDM-R (§5.4.5) sets it to 5 minutes.
#[derive(Clone, Copy, Debug)]
pub struct VdmFactory {
    /// Agent mechanics (timeouts, refinement, watchdog).
    pub agent: AgentConfig,
    /// The virtual-distance metric.
    pub metric: VirtualMetric,
    /// Directionality slack.
    pub slack: f64,
    /// Per-tree distance jitter for multi-tree sessions (see
    /// [`VdmPolicy::with_perturbation`]); `None` = plain VDM.
    pub perturb: Option<(u64, f64)>,
}

impl VdmFactory {
    /// Plain VDM-D with default agent mechanics.
    pub fn delay_based() -> Self {
        Self {
            agent: AgentConfig::default(),
            metric: VirtualMetric::Delay,
            slack: 0.0,
            perturb: None,
        }
    }

    /// VDM-L with default agent mechanics.
    pub fn loss_based() -> Self {
        Self {
            agent: AgentConfig::default(),
            metric: VirtualMetric::loss(),
            slack: 0.0,
            perturb: None,
        }
    }

    /// This factory serving tree `tree` of a `session_seed`-keyed
    /// multi-tree session: tree 0 keeps the unperturbed metric (the
    /// backbone tree is exactly the single-tree overlay), sibling trees
    /// jitter distances by up to `±amp` under distinct seeds so their
    /// interiors decorrelate.
    pub fn for_tree(mut self, tree: usize, session_seed: u64, amp: f64) -> Self {
        self.perturb = if tree == 0 {
            None
        } else {
            Some((session_seed ^ ((tree as u64) << 48) ^ 0x6d74_7265, amp))
        };
        self
    }

    /// VDM-R: VDM-D plus periodic refinement (period in seconds;
    /// §5.4.5 uses 300 s).
    pub fn with_refinement(period_s: u64) -> Self {
        let mut f = Self::delay_based();
        f.agent.refine_period = Some(vdm_netsim::SimTime::from_secs(period_s));
        f
    }
}

impl AgentFactory for VdmFactory {
    type Agent = ProtocolAgent<VdmPolicy>;

    fn make(
        &self,
        host: HostId,
        source: HostId,
        degree_limit: u32,
        incarnation: u32,
    ) -> Self::Agent {
        let mut policy = VdmPolicy::new(self.metric, self.slack);
        if let Some((seed, amp)) = self.perturb {
            policy = policy.with_perturbation(seed, amp);
        }
        ProtocolAgent::new(host, source, degree_limit, incarnation, self.agent, policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use vdm_overlay::sync::SyncOverlay;
    use vdm_overlay::walk::ChildProbe;

    /// Virtual line: distance = |position difference|.
    fn line(positions: &'static [f64]) -> impl Fn(HostId, HostId) -> f64 {
        move |a: HostId, b: HostId| (positions[a.idx()] - positions[b.idx()]).abs()
    }

    trait DecideT {
        fn decide_t(&self, p: &ProbeResult) -> WalkStep;
    }
    impl DecideT for VdmPolicy {
        fn decide_t(&self, p: &ProbeResult) -> WalkStep {
            self.decide(p, WalkPurpose::Join)
        }
    }

    /// Every member holds one agent per tree, so the agent's inline
    /// size is paid per member per tree. The walk and the optional
    /// sub-machines live behind boxes, 560 bytes in all; the walk back
    /// inline breaks this bound.
    #[test]
    fn agent_keeps_optional_parts_out_of_line() {
        assert!(std::mem::size_of::<ProtocolAgent<VdmPolicy>>() <= 576);
    }

    fn probe(d_current: f64, children: &[(u32, f64, f64)]) -> ProbeResult {
        ProbeResult {
            current: HostId(0),
            d_current,
            children: children
                .iter()
                .map(|&(c, d_pc, d_nc)| ChildProbe {
                    child: HostId(c),
                    d_parent_child: d_pc,
                    d_new_child: d_nc,
                })
                .collect(),
            iteration: 0,
        }
    }

    #[test]
    fn empty_children_attach() {
        let p = VdmPolicy::delay_based();
        assert_eq!(
            p.decide_t(&probe(5.0, &[])),
            WalkStep::Attach { splice: vec![] }
        );
    }

    #[test]
    fn case3_beats_case2_and_picks_closest() {
        let p = VdmPolicy::delay_based();
        // Child 1: Case III (d_pn=10 dominates). Child 2: Case II.
        // Child 3: Case III but farther from N than child 1.
        let step = p.decide_t(&probe(
            10.0,
            &[(1, 6.0, 4.0), (2, 12.0, 3.0), (3, 5.0, 5.5)],
        ));
        assert_eq!(step, WalkStep::Descend(HostId(1)));
    }

    #[test]
    fn case2_adopts_closest_first() {
        let p = VdmPolicy::delay_based();
        // Both children are Case II (d_pe dominates).
        let step = p.decide_t(&probe(2.0, &[(1, 9.0, 7.0), (2, 8.0, 6.0)]));
        assert_eq!(
            step,
            WalkStep::Attach {
                splice: vec![HostId(2), HostId(1)]
            }
        );
    }

    #[test]
    fn equal_distance_candidates_resolve_by_host_id_regardless_of_order() {
        let p = VdmPolicy::delay_based();
        // Two Case III children at identical distance from N: the
        // lower host id must win in both probe arrival orders.
        let fwd = probe(10.0, &[(5, 4.0, 6.0), (2, 4.0, 6.0)]);
        let rev = probe(10.0, &[(2, 4.0, 6.0), (5, 4.0, 6.0)]);
        assert_eq!(p.decide_t(&fwd), p.decide_t(&rev));
        assert_eq!(p.decide_t(&fwd), WalkStep::Descend(HostId(2)));
        // Two equal Case II children: the splice (adoption) order is
        // host-id stable too.
        let fwd = probe(2.0, &[(7, 9.0, 6.0), (3, 9.0, 6.0)]);
        let rev = probe(2.0, &[(3, 9.0, 6.0), (7, 9.0, 6.0)]);
        assert_eq!(p.decide_t(&fwd), p.decide_t(&rev));
        assert_eq!(
            p.decide_t(&fwd),
            WalkStep::Attach {
                splice: vec![HostId(3), HostId(7)]
            }
        );
    }

    #[test]
    fn classify_for_trace_matches_decide() {
        let p = VdmPolicy::delay_based();
        // Child 1 Case III, child 2 Case II, child 3 Case I.
        let pr = probe(10.0, &[(1, 6.0, 4.0), (2, 12.0, 3.0), (3, 5.0, 12.0)]);
        let cases = p.classify_for_trace(&pr);
        assert_eq!(
            cases,
            vec![
                (HostId(1), vdm_trace::CaseClass::III),
                (HostId(2), vdm_trace::CaseClass::II),
                (HostId(3), vdm_trace::CaseClass::I),
            ]
        );
        assert_eq!(p.decide_t(&pr), WalkStep::Descend(HostId(1)));
    }

    #[test]
    fn restart_anchor_picks_coord_nearest_deepest_on_ties() {
        let p = VdmPolicy::delay_based();
        let visited = [HostId(1), HostId(2), HostId(3), HostId(4)];
        // No coordinates: deepest visited (pre-coordinate behavior).
        assert_eq!(p.restart_anchor(&visited, None, HostId(0)), HostId(4));
        // Nearest-by-coordinate wins over deepest.
        let d = [3.0, 1.0, 9.0, 2.0];
        assert_eq!(p.restart_anchor(&visited, Some(&d), HostId(0)), HostId(2));
        // Tie on distance: the deeper (later-visited) ancestor wins.
        let d = [3.0, 1.0, 9.0, 1.0];
        assert_eq!(p.restart_anchor(&visited, Some(&d), HostId(0)), HostId(4));
        // All-unknown distances fall back to deepest visited.
        let d = [f64::INFINITY; 4];
        assert_eq!(p.restart_anchor(&visited, Some(&d), HostId(0)), HostId(4));
        // Empty history falls back to the supplied anchor.
        assert_eq!(p.restart_anchor(&[], Some(&[]), HostId(7)), HostId(7));
    }

    // ------------------------------------------------------------------
    // The paper's worked join examples, §3.2.1 / §3.2.2, replayed on a
    // virtual line through the synchronous executor.
    // ------------------------------------------------------------------

    #[test]
    fn example_1_fig_3_8_case_i() {
        // S at 0 with children C1 at +6 and C2 at -5; N at... a point
        // not "in the same direction" as either child: a position
        // whose distances make every triple Case I is impossible on a
        // pure line, so use a star-ish metric: N equidistant-ish.
        // Simplest faithful rendering: N at 3 with C1 at 6 gives Case
        // II; instead place children at +6, -6 and N at tiny offset 1
        // toward neither: use explicit distances.
        let p = VdmPolicy::delay_based();
        // d(S,N)=4; child C1: d(S,C1)=5, d(N,C1)=9 (opposite side);
        // child C2: d(S,C2)=6, d(N,C2)=10 (opposite side).
        let step = p.decide_t(&probe(4.0, &[(1, 5.0, 9.0), (2, 6.0, 10.0)]));
        assert_eq!(step, WalkStep::Attach { splice: vec![] });
    }

    #[test]
    fn example_2_fig_3_9_case_iii_then_case_i() {
        // Line: S=0, C1=5; N=8. N detects C1 in its direction,
        // descends, and attaches to the childless C1.
        static POS: [f64; 3] = [0.0, 5.0, 8.0];
        let policy = VdmPolicy::delay_based();
        let mut ov = SyncOverlay::new(3, HostId(0), 4, line(&POS));
        ov.join(HostId(1), 4, &policy);
        let tr = ov.join(HostId(2), 4, &policy);
        assert_eq!(tr.parent, HostId(1));
        assert_eq!(tr.iterations, 2); // S then C1
        assert_eq!(ov.peer(HostId(2)).grandparent, Some(HostId(0)));
    }

    #[test]
    fn example_3_figs_3_10_3_11_case_iii_then_case_ii() {
        // Line: S=0, C1=5 (child of S), C2=9 (child of C1); N=7.
        // At S: C1 is Case III -> descend. At C1: N lies between C1
        // and C2 -> Case II: N attaches to C1 and adopts C2.
        static POS: [f64; 4] = [0.0, 5.0, 9.0, 7.0];
        let policy = VdmPolicy::delay_based();
        let mut ov = SyncOverlay::new(4, HostId(0), 4, line(&POS));
        ov.join(HostId(1), 4, &policy);
        let t2 = ov.join(HostId(2), 4, &policy);
        assert_eq!(t2.parent, HostId(1));
        let t3 = ov.join(HostId(3), 4, &policy);
        assert_eq!(t3.parent, HostId(1));
        // C2's parent changed from C1 to N; grandparent updated.
        assert_eq!(ov.peer(HostId(2)).parent, Some(HostId(3)));
        assert_eq!(ov.peer(HostId(2)).grandparent, Some(HostId(1)));
        assert!(ov.peer(HostId(1)).has_child(HostId(3)));
        assert!(!ov.peer(HostId(1)).has_child(HostId(2)));
    }

    #[test]
    fn scenario_i_fig_3_13_double_case_ii() {
        // P=0 with children C1=+8 and C2=-7... on a line both children
        // cannot be Case II for one N; the paper's Scenario I uses a
        // 2-D layout where N sits between P and both children. Encode
        // with explicit distances: d(P,N)=2, d(P,C1)=8 > max(2, d(N,C1)=6),
        // d(P,C2)=7 > max(2, d(N,C2)=5.5).
        let p = VdmPolicy::delay_based();
        let step = p.decide_t(&probe(2.0, &[(1, 8.0, 6.0), (2, 7.0, 5.5)]));
        // Adopt both, closest (C2) first.
        assert_eq!(
            step,
            WalkStep::Attach {
                splice: vec![HostId(2), HostId(1)]
            }
        );
    }

    #[test]
    fn scenario_ii_fig_3_14_double_case_iii_takes_closest() {
        let p = VdmPolicy::delay_based();
        // d(P,N)=10 dominates both triples; child 2 is closer to N.
        let step = p.decide_t(&probe(10.0, &[(1, 4.0, 7.0), (2, 5.0, 6.0)]));
        assert_eq!(step, WalkStep::Descend(HostId(2)));
    }

    #[test]
    fn scenario_iii_fig_3_15_case_iii_preferred_over_case_ii() {
        let p = VdmPolicy::delay_based();
        // Child 1: Case III (10 > 6, 10 > 5). Child 2: Case II (11 > 10).
        let step = p.decide_t(&probe(10.0, &[(1, 6.0, 5.0), (2, 11.0, 3.0)]));
        assert_eq!(step, WalkStep::Descend(HostId(1)));
    }

    #[test]
    fn degree_constrained_join_goes_to_closest_free_child() {
        // S=0 limit 1, child C1=5. N=-4 is Case I but S is full:
        // redirect to C1 (its only child).
        static POS: [f64; 3] = [0.0, 5.0, -4.0];
        let policy = VdmPolicy::delay_based();
        let mut ov = SyncOverlay::new(3, HostId(0), 1, line(&POS));
        ov.join(HostId(1), 4, &policy);
        let tr = ov.join(HostId(2), 4, &policy);
        assert_eq!(tr.parent, HostId(1));
    }

    #[test]
    fn splice_respects_newcomer_degree() {
        // N with degree limit 1 can adopt only the closest Case II
        // child; the other stays with P.
        let policy = VdmPolicy::delay_based();
        // P=0, C1=8, C2=10 (both children of P, same side); N=6.
        // d(P,C1)=8 > d(P,N)=6, d(N,C1)=2 -> Case II.
        // d(P,C2)=10 > 6, d(N,C2)=4 -> Case II.
        static POS: [f64; 4] = [0.0, 8.0, 10.0, 6.0];
        let dist = line(&POS);
        let mut ov = SyncOverlay::new(4, HostId(0), 4, dist);
        ov.join(HostId(1), 4, &policy);
        // Make C2 a direct child of P too: joining C2=10 normally gives
        // Case III via C1; instead force the shape by joining C2 first.
        let mut ov = SyncOverlay::new(4, HostId(0), 4, line(&POS));
        ov.join(HostId(2), 4, &policy); // C2 under S
        ov.join(HostId(1), 4, &policy); // C1: between S and C2 -> adopts C2
                                        // Tree: S -> C1 -> C2. Now N=6 with limit 1:
        let tr = ov.join(HostId(3), 1, &policy);
        // At S: C1 Case II (8 > 6 > 2). N attaches to S adopting C1.
        assert_eq!(tr.parent, HostId(0));
        assert_eq!(ov.peer(HostId(3)).children.len(), 1);
        assert_eq!(ov.peer(HostId(1)).parent, Some(HostId(3)));
        let snap = ov.snapshot();
        assert!(snap.validate(&ov.limits()).is_empty());
    }

    proptest! {
        /// Joining any permutation of points on a random virtual line
        /// yields a structurally valid tree with every member
        /// connected.
        #[test]
        fn random_line_joins_build_valid_trees(
            mut points in proptest::collection::vec(-1e3..1e3f64, 2..24),
            limit in 1u32..5,
            seed in 0u64..1000,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            points.insert(0, 0.0); // source position
            let pts = points.clone();
            let n = pts.len();
            let dist = move |a: HostId, b: HostId| (pts[a.idx()] - pts[b.idx()]).abs().max(1e-9);
            let policy = VdmPolicy::delay_based();
            let mut ov = SyncOverlay::new(n, HostId(0), limit, dist);
            let mut order: Vec<u32> = (1..n as u32).collect();
            for i in (1..order.len()).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            for h in order {
                ov.join(HostId(h), limit, &policy);
            }
            let snap = ov.snapshot();
            prop_assert!(snap.validate(&ov.limits()).is_empty());
            prop_assert_eq!(snap.connected_members().len(), n - 1);
        }

        /// With churn (random leaves) the tree stays valid and fully
        /// connected after each operation.
        #[test]
        fn random_churn_keeps_tree_valid(
            seed in 0u64..500,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let n = 20;
            let positions: Vec<f64> = (0..n).map(|_| rng.gen_range(-100.0..100.0)).collect();
            let pts = positions.clone();
            let dist = move |a: HostId, b: HostId| (pts[a.idx()] - pts[b.idx()]).abs().max(1e-9);
            let policy = VdmPolicy::delay_based();
            let mut ov = SyncOverlay::new(n, HostId(0), 3, dist);
            let mut inside: Vec<u32> = Vec::new();
            for _ in 0..60 {
                let join = inside.len() < 3 || (rng.gen_bool(0.6) && inside.len() < n - 1);
                if join {
                    let candidates: Vec<u32> =
                        (1..n as u32).filter(|h| !inside.contains(h)).collect();
                    if candidates.is_empty() { continue; }
                    let h = candidates[rng.gen_range(0..candidates.len())];
                    ov.join(HostId(h), 3, &policy);
                    inside.push(h);
                } else {
                    let i = rng.gen_range(0..inside.len());
                    let h = inside.swap_remove(i);
                    ov.leave(HostId(h), &policy);
                }
                let snap = ov.snapshot();
                let errors = snap.validate(&ov.limits());
                prop_assert!(errors.is_empty(), "errors {errors:?}");
                prop_assert_eq!(snap.connected_members().len(), inside.len());
            }
        }
    }
}

/// The paper's *known* limitations (§3.2.2 Scenarios III & IV): cases
/// where VDM intentionally misses the locally optimal tree. These tests
/// document the misses so a future "fix" cannot silently change the
/// protocol semantics.
#[cfg(test)]
mod paper_limitations {
    use super::*;
    use vdm_overlay::sync::SyncOverlay;
    use vdm_overlay::walk::WalkPurpose;

    /// §3.2.2 Scenario III (Figs. 3.15/3.16): when Case III and Case II
    /// coexist, VDM prefers Case III even though splicing (Case II)
    /// would give the better local MST. "We intentionally leave
    /// Scenario III as it is."
    #[test]
    fn scenario_iii_prefers_descent_over_better_splice() {
        let p = VdmPolicy::delay_based();
        let probe = ProbeResult {
            current: vdm_netsim::HostId(0),
            d_current: 10.0,
            children: vec![
                // C1: Case III (d_pn = 10 dominates its triple).
                vdm_overlay::walk::ChildProbe {
                    child: vdm_netsim::HostId(1),
                    d_parent_child: 6.0,
                    d_new_child: 5.0,
                },
                // C2: Case II with a *very* close newcomer — the
                // locally optimal move would be to splice here.
                vdm_overlay::walk::ChildProbe {
                    child: vdm_netsim::HostId(2),
                    d_parent_child: 11.0,
                    d_new_child: 0.5,
                },
            ],
            iteration: 0,
        };
        // VDM still descends into C1, forgoing the cheap C2 splice.
        assert_eq!(
            p.decide(&probe, WalkPurpose::Join),
            WalkStep::Descend(vdm_netsim::HostId(1))
        );
    }

    /// §3.2.2 Scenario IV (Fig. 3.17): the best potential parent can be
    /// a *grandchild* of the current node; the walk only inspects
    /// children, so it misses it. "This situation can be prevented only
    /// by contacting grandchildren of P which increases the overhead."
    #[test]
    fn scenario_iv_misses_grandchild_parent() {
        // Line: P = 0, C3 = -6 (child of P), C2 = -3 (child of C3);
        // N = -2. N's best parent is C2 (distance 1), but at P the
        // triple with C3 is Case II-ish/Case I and the walk never sees
        // C2.
        static POS: [f64; 4] = [0.0, -6.0, -3.0, -2.0];
        let dist =
            |a: vdm_netsim::HostId, b: vdm_netsim::HostId| (POS[a.idx()] - POS[b.idx()]).abs();
        let policy = VdmPolicy::delay_based();
        let mut ov = SyncOverlay::new(4, vdm_netsim::HostId(0), 4, dist);
        ov.join(vdm_netsim::HostId(1), 4, &policy); // C3 under P
        ov.join(vdm_netsim::HostId(2), 4, &policy); // C2 spliced between P and C3
                                                    // Sanity: P -> C2 -> C3 after the splice.
        assert_eq!(
            ov.peer(vdm_netsim::HostId(2)).parent,
            Some(vdm_netsim::HostId(0))
        );
        assert_eq!(
            ov.peer(vdm_netsim::HostId(1)).parent,
            Some(vdm_netsim::HostId(2))
        );
        // N at -2: at P, the C2 triple is Case II (d(P,C2)=3 > d(P,N)=2
        // > d(N,C2)=1): N splices at P adopting C2 — which here IS the
        // good outcome. To expose the Scenario-IV miss we need C2 deeper:
        // rebuild with C2 as grandchild whose parent triple hides it.
        static POS2: [f64; 4] = [0.0, 8.0, 5.0, 4.9];
        let dist2 =
            |a: vdm_netsim::HostId, b: vdm_netsim::HostId| (POS2[a.idx()] - POS2[b.idx()]).abs();
        let mut ov = SyncOverlay::new(4, vdm_netsim::HostId(0), 4, dist2);
        ov.join(vdm_netsim::HostId(1), 4, &policy); // C at 8 under P
        ov.join(vdm_netsim::HostId(2), 4, &policy); // C2 at 5: between P and C -> splice
        assert_eq!(
            ov.peer(vdm_netsim::HostId(2)).parent,
            Some(vdm_netsim::HostId(0))
        );
        // N at 4.9 joins: at P, C2's triple (d_pn=4.9, d_pc=5, d_nc=0.1)
        // -> Case II; N adopts C2 instead of becoming its child. The
        // edge P->N costs 4.9 whereas the optimal C2->N edge costs 0.1.
        let tr = ov.join(vdm_netsim::HostId(3), 4, &policy);
        assert_eq!(tr.parent, vdm_netsim::HostId(0));
        assert_eq!(
            ov.peer(vdm_netsim::HostId(2)).parent,
            Some(vdm_netsim::HostId(3))
        );
        // The tree is valid regardless — the miss is a quality issue,
        // not a correctness one.
        assert!(ov.snapshot().validate(&ov.limits()).is_empty());
    }
}

/// VDM on *non-metric* spaces: the PlanetLab chapter's RTTs violate the
/// triangle inequality, so the 1-D line abstraction is knowingly wrong
/// sometimes — the protocol must stay structurally correct anyway.
#[cfg(test)]
mod non_metric_proptests {
    use super::*;
    use proptest::prelude::*;
    use vdm_overlay::sync::SyncOverlay;

    proptest! {
        #[test]
        #[allow(clippy::needless_range_loop)]
        fn arbitrary_symmetric_distances_build_valid_trees(seed in 0u64..400) {
            use rand::{rngs::StdRng, Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(3..20usize);
            // Completely random symmetric positive "distances": no
            // triangle inequality whatsoever.
            let mut m = vec![vec![0.0; n]; n];
            for i in 0..n {
                for j in (i + 1)..n {
                    let w = rng.gen_range(0.1..100.0);
                    m[i][j] = w;
                    m[j][i] = w;
                }
            }
            let dist = move |a: HostId, b: HostId| m[a.idx()][b.idx()];
            let policy = VdmPolicy::delay_based();
            let limit = rng.gen_range(1..4u32);
            let mut ov = SyncOverlay::new(n, HostId(0), limit.max(2), dist);
            for h in 1..n as u32 {
                ov.join(HostId(h), limit, &policy);
            }
            let snap = ov.snapshot();
            prop_assert!(snap.validate(&ov.limits()).is_empty());
            prop_assert_eq!(snap.connected_members().len(), n - 1);
            // And random leaves keep it valid.
            for h in (1..n as u32).step_by(3) {
                if ov.in_tree(HostId(h)) {
                    ov.leave(HostId(h), &policy);
                    let snap = ov.snapshot();
                    prop_assert!(snap.validate(&ov.limits()).is_empty());
                }
            }
        }
    }
}
