//! Multi-tree striped delivery with cross-tree repair (ablation A10):
//! the pieces a `k`-tree session is composed from.
//!
//! A [`Driver`](crate::driver::Driver) built with
//! [`Driver::striped`](crate::driver::Driver::striped) runs `k` overlay
//! trees for one stream and stripes the chunk sequence round-robin
//! across them (`seq % k` is the owning tree), so an interior-node
//! failure in one tree costs at most ~`1/k` of the stream while the
//! other stripes keep flowing. The resilience is only real when the
//! trees do not share interior nodes; callers decorrelate them with
//! per-tree walk policies (perturbed virtual-direction metrics) and
//! [`striped_limits`] degree biasing, and [`interior_overlap`] reports
//! how disjoint the interiors actually are.
//!
//! There is no second session world: the driver's one `World` owns
//! `k` trees × `n` physical hosts, and `k = 1` is that same code with
//! the loops running once. This module holds what `k ≥ 2` adds around
//! it — the virtual id space, the underlay fold, the fault expansion,
//! the trace retagging and the disjointness measures.
//!
//! ## Virtual hosts
//!
//! Tree `t` of a session over `n` physical hosts runs its agents under
//! *virtual* host ids `t*n + h` ([`fold_vid`]) on one shared engine; a
//! [`StripedUnderlay`] folds every virtual pair back onto the physical
//! RTT/loss model, so the `k` trees contend for the same network while
//! the per-tree protocol state stays fully isolated. At `k = 1` virtual
//! and physical ids coincide and the engine runs over the bare
//! underlay.
//!
//! ## Cross-tree repair
//!
//! A receiver cut off from stripe `t` (orphaned, or silent past a
//! stall threshold) cannot NACK its dead parent. Instead, each sweep of
//! the driver's cross-repair tick finds the host's parent in a
//! *sibling* tree, maps that physical host back into tree `t`, and
//! pulls the missing stripe-`t` chunks from there (`CrossNack` /
//! `CrossData`, token-bucket bounded at the server). Requests therefore
//! never leave the stripe that owns the sequence numbers — a property
//! the receiver enforces by dropping and counting off-stripe
//! retransmissions.

use crate::stats::RunStats;
use crate::tree::TreeSnapshot;
use rand::RngCore;
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};
use vdm_netsim::dataplane::LinkSpec;
use vdm_netsim::engine::Counters;
use vdm_netsim::{FaultEvent, HostId, Underlay};
use vdm_topology::{EdgeId, Millis};
use vdm_trace::{EventSink, TraceEvent, Tracer};

/// `k` copies of a physical underlay under virtual host ids: virtual
/// host `t*n + h` is physical host `h` participating in tree `t`.
/// Every latency/loss/route query folds back onto the physical pair,
/// so tree traffic from all `k` trees shares one network model.
pub struct StripedUnderlay {
    inner: Arc<dyn Underlay + Send + Sync>,
    k: usize,
    n: usize,
}

/// Fold `(tree, physical host)` into the virtual id space of a `k`-tree
/// session over `n` physical hosts. Checked: a 100k-host, many-tree
/// session folds ids well past 32 bits of headroom's comfort zone, and
/// the old `(t * n + h) as u32` cast silently wrapped there — wrong
/// *physical* hosts would have received every fault and message. Panics
/// with a config diagnosis instead of truncating.
pub fn fold_vid(t: usize, n: usize, h: HostId) -> HostId {
    let v = t
        .checked_mul(n)
        .and_then(|tn| tn.checked_add(h.idx()))
        .and_then(|v| u32::try_from(v).ok())
        .unwrap_or_else(|| {
            panic!("virtual id {t}*{n}+{h} overflows the u32 host-id space; lower k or n")
        });
    HostId(v)
}

impl StripedUnderlay {
    /// Wrap `inner` for a `k`-tree session.
    pub fn new(inner: Arc<dyn Underlay + Send + Sync>, k: usize) -> Self {
        let n = inner.num_hosts();
        assert!(k >= 1 && n >= 1);
        // Reject sessions whose virtual id space does not fit u32 up
        // front, so every later fold is infallible.
        let _ = fold_vid(k - 1, n, HostId(n as u32 - 1));
        Self { inner, k, n }
    }

    fn phys(&self, v: HostId) -> HostId {
        HostId((v.idx() % self.n) as u32)
    }
}

impl Underlay for StripedUnderlay {
    fn num_hosts(&self) -> usize {
        self.k * self.n
    }

    fn rtt_ms(&self, a: HostId, b: HostId) -> Millis {
        self.inner.rtt_ms(self.phys(a), self.phys(b))
    }

    fn one_way_ms(&self, a: HostId, b: HostId) -> Millis {
        self.inner.one_way_ms(self.phys(a), self.phys(b))
    }

    fn sample_one_way_ms(&self, a: HostId, b: HostId, rng: &mut dyn RngCore) -> Millis {
        self.inner
            .sample_one_way_ms(self.phys(a), self.phys(b), rng)
    }

    fn path_loss(&self, a: HostId, b: HostId) -> f64 {
        self.inner.path_loss(self.phys(a), self.phys(b))
    }

    fn path_edges(&self, a: HostId, b: HostId) -> Option<Vec<EdgeId>> {
        self.inner.path_edges(self.phys(a), self.phys(b))
    }

    fn num_links(&self) -> usize {
        self.inner.num_links()
    }

    fn link_specs(&self) -> Vec<LinkSpec> {
        self.inner.link_specs()
    }
}

/// One multi-tree measurement point (alongside the tree-0 shaped
/// [`SlotMeasurement`](crate::stats::SlotMeasurement) pushed into
/// [`RunStats::measurements`]).
#[derive(Clone, Debug)]
pub struct MtSlot {
    /// Simulated time of the measurement, seconds.
    pub time_s: f64,
    /// Session members (identical across trees by construction).
    pub members: usize,
    /// Connected members per tree.
    pub connected: Vec<usize>,
    /// Mean pairwise Jaccard overlap of the trees' interior-node sets
    /// (0 = fully interior-disjoint).
    pub interior_overlap: f64,
    /// Worst per-link stress across the trees (0 when stress is not
    /// computed).
    pub stress_max: f64,
    /// Slot loss over every stripe combined.
    pub loss_rate: f64,
}

/// Result of a session run, every tree included
/// ([`Driver::run_trees`](crate::driver::Driver::run_trees)).
#[derive(Clone, Debug)]
pub struct MultiTreeOutput {
    /// Statistics over all `k*n` virtual receivers (for `k = 1`,
    /// exactly [`RunOutput::stats`](crate::driver::RunOutput::stats)).
    pub stats: RunStats,
    /// Final snapshot of each tree, in physical host ids.
    pub snapshots: Vec<TreeSnapshot>,
    /// Per-measurement multi-tree series.
    pub slots: Vec<MtSlot>,
    /// Engine events processed.
    pub events: u64,
    /// Whole-run traffic counters.
    pub counters: Counters,
}

/// Mean pairwise Jaccard overlap of the interior-node sets of `snaps`
/// (physical ids, source excluded). 0 for fewer than two trees or when
/// no tree has interior nodes.
pub fn interior_overlap(snaps: &[TreeSnapshot]) -> f64 {
    if snaps.len() < 2 {
        return 0.0;
    }
    let sets: Vec<BTreeSet<HostId>> = snaps
        .iter()
        .map(|s| s.interior_members().into_iter().collect())
        .collect();
    let mut acc = 0.0;
    let mut pairs = 0usize;
    for i in 0..sets.len() {
        for j in (i + 1)..sets.len() {
            let inter = sets[i].intersection(&sets[j]).count();
            let union = sets[i].union(&sets[j]).count();
            if union > 0 {
                acc += inter as f64 / union as f64;
            }
            pairs += 1;
        }
    }
    if pairs == 0 {
        0.0
    } else {
        acc / pairs as f64
    }
}

/// The deterministic crash target of the A10 fault schedule: the
/// interior node of the *first* tree with the largest subtree,
/// preferring nodes that are leaves in every sibling tree (those
/// isolate the measured damage to one stripe), tie-broken toward the
/// lowest host id.
pub fn interior_victim(snaps: &[TreeSnapshot]) -> Option<HostId> {
    let first = snaps.first()?;
    let sizes = first.subtree_sizes();
    let sibling_interior: BTreeSet<HostId> = snaps[1..]
        .iter()
        .flat_map(|s| s.interior_members())
        .collect();
    first.interior_members().into_iter().max_by_key(|h| {
        (
            !sibling_interior.contains(h),
            sizes[h.idx()],
            std::cmp::Reverse(h.0),
        )
    })
}

/// Virtual-id degree limits that bias each tree's fan-out onto its own
/// residue class: in tree `t`, host `h` keeps `base[h]` when
/// `h % k == t` (or when it is the source, which roots every tree) and
/// is capped at `off_stripe_cap` otherwise. This is what decorrelates
/// the interiors — a host mostly relays in one tree and leafs in the
/// others.
pub fn striped_limits(base: &[u32], k: usize, source: HostId, off_stripe_cap: u32) -> Vec<u32> {
    let n = base.len();
    let mut out = Vec::with_capacity(k * n);
    for t in 0..k {
        for (h, &limit) in base.iter().enumerate() {
            let full = k <= 1 || h == source.idx() || h % k == t;
            out.push(if full {
                limit
            } else {
                limit.min(off_stripe_cap).max(1)
            });
        }
    }
    out
}

/// Expand a physical-host fault schedule to the virtual id space of a
/// `k`-tree session over `n` physical hosts, so a physical link outage
/// or host slowdown hits every tree exactly like it would hit one.
pub fn expand_faults(events: &[FaultEvent], k: usize, n: usize) -> Vec<FaultEvent> {
    let vid = |t: usize, h: HostId| fold_vid(t, n, h);
    let mut out = Vec::new();
    for ev in events {
        match ev {
            FaultEvent::LinkFlap { a, b, from, until } => {
                // The physical pair blacks out for every tree-pair
                // combination of its endpoints.
                for ta in 0..k {
                    for tb in 0..k {
                        out.push(FaultEvent::LinkFlap {
                            a: vid(ta, *a),
                            b: vid(tb, *b),
                            from: *from,
                            until: *until,
                        });
                    }
                }
            }
            FaultEvent::Partition { side, from, until } => {
                let mut vs = Vec::with_capacity(side.len() * k);
                for t in 0..k {
                    for h in side {
                        vs.push(vid(t, *h));
                    }
                }
                out.push(FaultEvent::Partition {
                    side: vs,
                    from: *from,
                    until: *until,
                });
            }
            ev @ FaultEvent::MsgFaults { .. } => out.push(ev.clone()),
            FaultEvent::Slowdown {
                host,
                factor,
                from,
                until,
            } => {
                for t in 0..k {
                    out.push(FaultEvent::Slowdown {
                        host: vid(t, *host),
                        factor: *factor,
                        from: *from,
                        until: *until,
                    });
                }
            }
        }
    }
    out
}

/// An [`EventSink`] that rewrites virtual-id trace events into
/// physical-id events wrapped in [`TraceEvent::Tagged`] (carrying the
/// tree index), then forwards them to the tracer the process had
/// installed. Installed on the session engine only when tracing is on,
/// so traced multi-tree runs stay analyzable with single-tree tooling.
struct RetagSink {
    inner: Tracer,
    n: u32,
}

impl EventSink for RetagSink {
    fn record(&mut self, t_us: u64, ev: &TraceEvent) {
        let tree = ev.primary_host() / self.n;
        let n = self.n;
        self.inner.emit(t_us, || TraceEvent::Tagged {
            tree,
            inner: Box::new(ev.clone().map_hosts(&|h| h % n)),
        });
    }

    fn flush(&mut self) {
        self.inner.flush();
    }
}

/// The tracer a `k ≥ 2` session installs on its engine: when the
/// process has tracing on, virtual-id events are retagged to physical
/// ids + tree index before they reach the global sink.
pub(crate) fn retag_tracer(n: usize) -> Option<Tracer> {
    let inner = vdm_trace::global();
    inner
        .enabled()
        .then(|| Tracer::with_sink(Arc::new(Mutex::new(RetagSink { inner, n: n as u32 }))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::{
        AdmissionConfig, AgentConfig, AgentFactory, Ctx, OverlayAgent, ProtocolAgent,
    };
    use crate::discovery::DiscoveryConfig;
    use crate::driver::{Driver, DriverConfig};
    use crate::msg::Msg;
    use crate::repair::RepairConfig;
    use crate::scenario::{Action, ChurnConfig, Scenario};
    use crate::walk::{ProbeResult, WalkPolicy, WalkPurpose, WalkStep};
    use vdm_netsim::{LatencySpace, SimTime};

    #[test]
    fn fold_vid_reaches_the_top_of_the_id_space() {
        assert_eq!(fold_vid(0, 4, HostId(3)), HostId(3));
        assert_eq!(fold_vid(2, 4, HostId(1)), HostId(9));
        // t*n+h may legally land anywhere in u32.
        let n = (u32::MAX as usize).div_ceil(2);
        assert_eq!(fold_vid(1, n, HostId(n as u32 - 1)), HostId(u32::MAX));
    }

    #[test]
    #[should_panic(expected = "overflows the u32 host-id space")]
    fn fold_vid_rejects_overflow_instead_of_truncating() {
        // 100k hosts at 43k trees folds past u32::MAX; the old cast
        // wrapped this onto low physical ids.
        let _ = fold_vid(43_000, 100_000, HostId(0));
    }

    #[test]
    #[should_panic(expected = "overflows the u32 host-id space")]
    fn expand_faults_rejects_overflowing_sessions() {
        let ev = FaultEvent::Slowdown {
            host: HostId(1),
            factor: 2.0,
            from: SimTime::ZERO,
            until: SimTime::from_secs(1),
        };
        let _ = expand_faults(&[ev], 2, u32::MAX as usize);
    }

    /// Depth-greedy policy: always descend into the first child —
    /// builds chains, so every non-tail member is interior.
    struct Chain;
    impl WalkPolicy for Chain {
        fn vdist(&self, rtt_ms: f64, _loss: f64) -> f64 {
            rtt_ms
        }
        fn decide(&self, p: &ProbeResult, _purpose: WalkPurpose) -> WalkStep {
            match p.children.first() {
                Some(c) => WalkStep::Descend(c.child),
                None => WalkStep::Attach { splice: vec![] },
            }
        }
    }

    /// Breadth-greedy policy: always attach where the walk stands —
    /// builds a star under the source, so members are all leaves.
    struct Star;
    impl WalkPolicy for Star {
        fn vdist(&self, rtt_ms: f64, _loss: f64) -> f64 {
            rtt_ms
        }
        fn decide(&self, _p: &ProbeResult, _purpose: WalkPurpose) -> WalkStep {
            WalkStep::Attach { splice: vec![] }
        }
    }

    /// One factory, two shapes: trees pick their policy by index.
    struct ShapeFactory {
        cfg: AgentConfig,
        n: usize,
        chain_trees: Vec<bool>,
    }

    enum Either {
        Chain(ProtocolAgent<Chain>),
        Star(ProtocolAgent<Star>),
    }

    impl OverlayAgent for Either {
        fn on_join_cmd(&mut self, ctx: &mut Ctx<'_>) {
            match self {
                Either::Chain(a) => a.on_join_cmd(ctx),
                Either::Star(a) => a.on_join_cmd(ctx),
            }
        }
        fn on_leave_cmd(&mut self, ctx: &mut Ctx<'_>) {
            match self {
                Either::Chain(a) => a.on_leave_cmd(ctx),
                Either::Star(a) => a.on_leave_cmd(ctx),
            }
        }
        fn on_msg(&mut self, ctx: &mut Ctx<'_>, from: HostId, msg: Msg) {
            match self {
                Either::Chain(a) => a.on_msg(ctx, from, msg),
                Either::Star(a) => a.on_msg(ctx, from, msg),
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            match self {
                Either::Chain(a) => a.on_timer(ctx, token),
                Either::Star(a) => a.on_timer(ctx, token),
            }
        }
        fn emit_data(&mut self, ctx: &mut Ctx<'_>, seq: u64) {
            match self {
                Either::Chain(a) => a.emit_data(ctx, seq),
                Either::Star(a) => a.emit_data(ctx, seq),
            }
        }
        fn parent(&self) -> Option<HostId> {
            match self {
                Either::Chain(a) => a.parent(),
                Either::Star(a) => a.parent(),
            }
        }
        fn children(&self) -> Vec<HostId> {
            match self {
                Either::Chain(a) => a.children(),
                Either::Star(a) => a.children(),
            }
        }
        fn connected(&self) -> bool {
            match self {
                Either::Chain(a) => a.connected(),
                Either::Star(a) => a.connected(),
            }
        }
        fn degree_limit(&self) -> u32 {
            match self {
                Either::Chain(a) => a.degree_limit(),
                Either::Star(a) => a.degree_limit(),
            }
        }
        fn cross_repair_tick(&mut self, ctx: &mut Ctx<'_>, sibling: HostId, latest: u64) {
            match self {
                Either::Chain(a) => a.cross_repair_tick(ctx, sibling, latest),
                Either::Star(a) => a.cross_repair_tick(ctx, sibling, latest),
            }
        }
        fn wants_cross_repair(&self, now: SimTime, stall: SimTime) -> bool {
            match self {
                Either::Chain(a) => a.wants_cross_repair(now, stall),
                Either::Star(a) => a.wants_cross_repair(now, stall),
            }
        }
    }

    impl AgentFactory for ShapeFactory {
        type Agent = Either;
        fn make(&self, h: HostId, src: HostId, limit: u32, inc: u32) -> Either {
            let tree = h.idx() / self.n;
            let k = self.chain_trees.len() as u64;
            let mut cfg = self.cfg;
            if let Some(rc) = cfg.repair {
                cfg.repair = Some(rc.striped(k, tree as u64));
            }
            if self.chain_trees[tree] {
                Either::Chain(ProtocolAgent::new(h, src, limit, inc, cfg, Chain))
            } else {
                Either::Star(ProtocolAgent::new(h, src, limit, inc, cfg, Star))
            }
        }
    }

    fn grid_space(n: usize) -> Arc<LatencySpace> {
        let mut rtt = vec![vec![0.0; n]; n];
        for (i, row) in rtt.iter_mut().enumerate() {
            for (j, v) in row.iter_mut().enumerate() {
                if i != j {
                    *v = 10.0 * (i as f64 - j as f64).abs();
                }
            }
        }
        Arc::new(LatencySpace::from_rtt_matrix(&rtt))
    }

    fn shape_factories(n: usize, shapes: &[bool], cfg: AgentConfig) -> Vec<ShapeFactory> {
        shapes
            .iter()
            .map(|_| ShapeFactory {
                cfg,
                n,
                chain_trees: shapes.to_vec(),
            })
            .collect()
    }

    #[test]
    fn striped_underlay_folds_virtual_pairs_onto_physical_hosts() {
        let s = StripedUnderlay::new(grid_space(4), 3);
        assert_eq!(s.num_hosts(), 12);
        // (tree 2, host 1) to (tree 0, host 3) is the physical 1-3 pair.
        assert_eq!(s.rtt_ms(HostId(9), HostId(3)), 20.0);
        // Same physical host across trees: zero distance.
        assert_eq!(s.rtt_ms(HostId(1), HostId(5)), 0.0);
        assert_eq!(s.path_loss(HostId(9), HostId(3)), 0.0);
    }

    #[test]
    fn striped_limits_bias_fanout_per_tree() {
        let lims = striped_limits(&[8, 4, 4, 4], 2, HostId(0), 1);
        // Tree 0: source full, even hosts full, odd hosts capped.
        // Tree 1: source full, odd hosts full, even hosts capped.
        assert_eq!(lims, vec![8, 1, 4, 1, 8, 4, 1, 4]);
        // k = 1 is a no-op.
        assert_eq!(striped_limits(&[8, 4], 1, HostId(0), 1), vec![8, 4]);
    }

    #[test]
    fn fault_expansion_covers_every_tree() {
        let t0 = SimTime::ZERO;
        let t1 = SimTime::from_secs(1);
        let events = vec![
            FaultEvent::LinkFlap {
                a: HostId(1),
                b: HostId(2),
                from: t0,
                until: t1,
            },
            FaultEvent::Partition {
                side: vec![HostId(1), HostId(3)],
                from: t0,
                until: t1,
            },
            FaultEvent::Slowdown {
                host: HostId(2),
                factor: 4.0,
                from: t0,
                until: t1,
            },
        ];
        let out = expand_faults(&events, 2, 4);
        let flaps = out
            .iter()
            .filter(|e| matches!(e, FaultEvent::LinkFlap { .. }))
            .count();
        assert_eq!(flaps, 4); // k² endpoint tree combinations
        let sides: Vec<_> = out
            .iter()
            .filter_map(|e| match e {
                FaultEvent::Partition { side, .. } => Some(side.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(sides.len(), 1);
        assert_eq!(sides[0], vec![HostId(1), HostId(3), HostId(5), HostId(7)]);
        let slow = out
            .iter()
            .filter(|e| matches!(e, FaultEvent::Slowdown { .. }))
            .count();
        assert_eq!(slow, 2);
    }

    #[test]
    fn interior_victim_prefers_sibling_leaves_with_big_subtrees() {
        // Tree 0: 0 -> 1 -> {2, 3}, 0 -> 4. Tree 1: 0 -> 2 -> {1, 3, 4}.
        let t0 = TreeSnapshot {
            source: HostId(0),
            members: vec![HostId(1), HostId(2), HostId(3), HostId(4)],
            parent: vec![
                None,
                Some(HostId(0)),
                Some(HostId(1)),
                Some(HostId(1)),
                Some(HostId(0)),
            ],
        };
        let t1 = TreeSnapshot {
            source: HostId(0),
            members: vec![HostId(1), HostId(2), HostId(3), HostId(4)],
            parent: vec![
                None,
                Some(HostId(2)),
                Some(HostId(0)),
                Some(HostId(2)),
                Some(HostId(2)),
            ],
        };
        // Host 1 is the only tree-0 interior, and a leaf in tree 1.
        assert_eq!(interior_victim(&[t0.clone(), t1.clone()]), Some(HostId(1)));
        // Overlap: interiors {1} vs {2} — fully disjoint.
        assert_eq!(interior_overlap(&[t0.clone(), t1]), 0.0);
        // A tree overlapping itself is fully overlapped.
        assert_eq!(interior_overlap(&[t0.clone(), t0]), 1.0);
    }

    fn join_scenario(hosts: &[HostId], slots: usize) -> Scenario {
        Scenario::churn(
            &ChurnConfig {
                members: hosts.len(),
                warmup_s: 10.0,
                slot_s: 10.0,
                slots,
                churn_pct: 0.0,
            },
            hosts,
            3,
        )
    }

    #[test]
    fn two_trees_form_their_own_shapes_and_stream_deterministically() {
        let space = grid_space(5);
        let hosts = [HostId(1), HostId(2), HostId(3), HostId(4)];
        let scenario = join_scenario(&hosts, 1);
        let cfg = AgentConfig::default();
        let run = |seed| {
            let out = Driver::striped(
                space.clone(),
                None,
                HostId(0),
                shape_factories(5, &[true, false], cfg),
                &scenario,
                vec![10; 10],
                DriverConfig::default(),
                seed,
            )
            .run_trees();
            (out.stats.received.clone(), out.events, out.snapshots)
        };
        let (received, events, snaps) = run(9);
        // Chain tree: a path (every non-tail member interior). Star
        // tree: all leaves under the source.
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[0].connected_members().len(), 4);
        assert_eq!(snaps[1].connected_members().len(), 4);
        let depths1 = snaps[1].depths();
        for &m in &snaps[1].members {
            assert_eq!(depths1[m.idx()], Some(1), "star member {m}");
        }
        assert!(snaps[0].depths().iter().flatten().any(|&d| d >= 2));
        assert_eq!(interior_overlap(&snaps), 0.0);
        // Both stripes delivered: every member saw chunks under both
        // virtual ids.
        for h in 1..5 {
            assert!(received[h] > 0, "stripe 0 starved host {h}");
            assert!(received[5 + h] > 0, "stripe 1 starved host {h}");
        }
        // Determinism per seed.
        let again = run(9);
        assert_eq!(again.0, received);
        assert_eq!(again.1, events);
    }

    #[test]
    fn cross_tree_repair_keeps_a_cut_stripe_flowing() {
        let space = grid_space(4);
        let hosts = [HostId(1), HostId(2), HostId(3)];
        let mut actions = Vec::new();
        for (i, &h) in hosts.iter().enumerate() {
            actions.push((SimTime::from_secs(1 + i as u64), Action::Join(h)));
        }
        // Crash the chain head: its tree-0 subtree loses the stripe.
        actions.push((SimTime::from_secs(15), Action::Crash(HostId(1))));
        actions.push((SimTime::from_secs(40), Action::Measure));
        let scenario = Scenario::from_actions(actions, SimTime::from_secs(41));
        // No watchdog: the orphaned subtree never rejoins, so *only*
        // cross-tree repair can keep stripe 0 alive.
        let cfg = AgentConfig {
            data_timeout: None,
            repair: Some(RepairConfig {
                nack_retries: 8,
                ..RepairConfig::default()
            }),
            cross_repair: Some(AdmissionConfig {
                rate_per_s: 10.0,
                burst: 10.0,
                ..AdmissionConfig::default()
            }),
            ..AgentConfig::default()
        };
        let run = |cfg: AgentConfig| {
            Driver::striped(
                space.clone(),
                None,
                HostId(0),
                shape_factories(4, &[true, false], cfg),
                &scenario,
                vec![10; 8],
                DriverConfig::default(),
                7,
            )
            .run_trees()
        };
        let with = run(cfg);
        // Hosts 2 and 3 sit under the crashed chain head in tree 0;
        // the star tree (stripe 1) is undisturbed, and its parent
        // relation is the repair route for stripe 0.
        let r = &with.stats.recovery;
        assert!(r.cross_nacks_sent > 0, "no cross NACKs: {r:?}");
        assert!(r.cross_repaired > 5, "little repaired: {r:?}");
        assert_eq!(r.cross_stripe_violations, 0);
        let without = run(AgentConfig {
            cross_repair: None,
            ..cfg
        });
        assert_eq!(without.stats.recovery.cross_nacks_sent, 0);
        // The repaired run delivers strictly more of stripe 0 to the
        // cut subtree (virtual ids 2 and 3).
        for h in [2usize, 3] {
            assert!(
                with.stats.received[h] > without.stats.received[h] + 5,
                "host {h}: {} vs {}",
                with.stats.received[h],
                without.stats.received[h]
            );
        }
        // Stripe 1 was never affected in either run.
        assert_eq!(with.stats.received[4 + 2], without.stats.received[4 + 2]);
    }

    /// Discovery seeds are physical ids and nothing folds them per
    /// tree, so a striped session must refuse the config rather than
    /// silently join omnisciently.
    #[test]
    #[should_panic(expected = "bootstrap discovery is single-tree only")]
    fn striped_session_rejects_bootstrap_discovery() {
        let hosts = [HostId(1), HostId(2), HostId(3)];
        let mut scenario = join_scenario(&hosts, 1);
        scenario.discovery = Some(DiscoveryConfig::default());
        let _ = Driver::striped(
            grid_space(4),
            None,
            HostId(0),
            shape_factories(4, &[true, false], AgentConfig::default()),
            &scenario,
            vec![10; 8],
            DriverConfig::default(),
            1,
        );
    }
}
