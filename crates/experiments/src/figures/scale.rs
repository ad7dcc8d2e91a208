//! A9: scaling the sim core past 10k-node overlays.
//!
//! The paper's own complexity claim (§3.2.3, Eq. 3.3: contacted peers
//! per join ≈ `n·log_n N`) is only interesting if it holds *at scale* —
//! overlay evaluations in the literature (Narada/ESM, NICE) routinely
//! go to 10k+ members. This family joins N members under VDM and HMTP
//! over power-law underlays routed by the memory-bounded
//! [`OnDemandRouter`] (no `O(n^2)` matrix is ever materialized),
//! recording per-N wall-clock, walk-contact counts against the
//! prediction, and the router's resident-row high-water mark (the peak
//! RSS proxy). `vdm-repro scale` renders the table and emits
//! `results/BENCH_scale.json`.
//!
//! [`OnDemandRouter`]: vdm_topology::OnDemandRouter

use crate::ci::CiStat;
use crate::setup;
use crate::table::Table;
use crate::Effort;
use std::sync::Arc;
use std::time::Instant;
use vdm_baselines::HmtpPolicy;
use vdm_core::VdmPolicy;
use vdm_netsim::{HostId, Underlay};
use vdm_overlay::coords::{CoordTable, CoordsConfig};
use vdm_overlay::sync::SyncOverlay;
use vdm_overlay::walk::WalkPolicy;
use vdm_overlay::VDist;
use vdm_topology::splitmix64;

/// Degree limit every A9 run uses (mid-range of the paper's 2–5).
const DEGREE: u32 = 4;

/// One protocol's full join sweep at one population size.
#[derive(Clone, Debug)]
pub struct ScalePoint {
    /// Overlay members joined (source excluded).
    pub n: usize,
    /// `"vdm"`, `"vdm_guided"` or `"hmtp"`.
    pub protocol: &'static str,
    /// Wall-clock of the N-join sweep, ms.
    pub wall_ms: f64,
    /// Mean contacted peers per join over all N joins.
    pub contacts_mean: f64,
    /// Mean over the last quarter of joins (near-final tree size — the
    /// Eq. 3.3 regime, matching the complexity family's convention).
    pub contacts_tail: f64,
    /// The paper's `n·log_n N` prediction at this N.
    pub predicted: f64,
    /// Router rows resident at peak — the peak RSS proxy.
    pub rows_peak: usize,
    /// Router row capacity (LRU bound).
    pub rows_capacity: usize,
    /// Router row-cache hits over the sweep.
    pub row_hits: u64,
    /// Router row-cache misses (Dijkstra runs) over the sweep.
    pub row_misses: u64,
    /// Rows evicted to stay within capacity.
    pub row_evictions: u64,
    /// Mean RTT stretch of the final tree: overlay path delay from the
    /// source over the direct source→member RTT, averaged over members.
    pub stretch_mean: f64,
}

/// Mean RTT stretch of the final tree (tree-path delay to the source
/// over the direct RTT, averaged over members). Each tree edge is
/// measured exactly once and path delays memoized root-down — a naive
/// per-member parent-chain walk is O(n·depth) RTT lookups, which
/// thrashes the on-demand router's row cache once trees degenerate
/// into deep chains at scale.
fn mean_stretch<D: Fn(HostId, HostId) -> VDist>(ov: &SyncOverlay<D>, n: usize) -> f64 {
    let source = ov.source();
    let mut path = vec![f64::NAN; n + 1];
    path[source.idx()] = 0.0;
    let mut pending = Vec::new();
    let mut sum = 0.0;
    for h in 1..=n as u32 {
        let member = HostId(h);
        let mut cur = member;
        while path[cur.idx()].is_nan() {
            pending.push(cur);
            cur = ov
                .peer(cur)
                .parent
                .expect("member not rooted at the source");
        }
        while let Some(c) = pending.pop() {
            let p = ov.peer(c).parent.expect("pending node has a parent");
            path[c.idx()] = path[p.idx()] + ov.vdist(c, p);
        }
        sum += path[member.idx()] / ov.vdist(source, member);
    }
    sum / n as f64
}

/// Join `n` members under `policy` on a fresh on-demand underlay (cold
/// router, so wall-clock comparisons between protocols are fair), then
/// validate the final tree.
fn run_protocol(
    n: usize,
    seed: u64,
    policy: &dyn WalkPolicy,
    protocol: &'static str,
) -> ScalePoint {
    let s = setup::scale_setup(n, seed);
    let underlay = Arc::clone(&s.underlay);
    let u = Arc::clone(&underlay);
    let dist = move |a: HostId, b: HostId| u.rtt_ms(a, b);
    let mut ov = SyncOverlay::new(n + 1, s.source, DEGREE, dist);
    let mut contacts = Vec::with_capacity(n);
    let t0 = Instant::now();
    for h in 1..=n as u32 {
        let tr = ov.join(HostId(h), DEGREE, policy);
        contacts.push(tr.contacted as f64);
    }
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    finish_point(n, protocol, wall_ms, &contacts, &ov, &underlay)
}

/// Validate the final tree and assemble the [`ScalePoint`].
fn finish_point<D: Fn(HostId, HostId) -> VDist>(
    n: usize,
    protocol: &'static str,
    wall_ms: f64,
    contacts: &[f64],
    ov: &SyncOverlay<D>,
    underlay: &vdm_netsim::RoutedUnderlay,
) -> ScalePoint {
    let snap = ov.snapshot();
    let errs = snap.validate(&ov.limits());
    assert!(errs.is_empty(), "{protocol} N={n}: invalid tree: {errs:?}");
    let tail = &contacts[(3 * n) / 4..];
    let stats = underlay
        .router()
        .expect("scale_setup always routes on demand")
        .stats();
    ScalePoint {
        n,
        protocol,
        wall_ms,
        contacts_mean: contacts.iter().sum::<f64>() / contacts.len() as f64,
        contacts_tail: tail.iter().sum::<f64>() / tail.len() as f64,
        predicted: DEGREE as f64 * ((n as f64).ln() / (DEGREE as f64).ln()),
        rows_peak: stats.peak_resident,
        rows_capacity: stats.capacity,
        row_hits: stats.hits,
        row_misses: stats.misses,
        row_evictions: stats.evictions,
        stretch_mean: mean_stretch(ov, n),
    }
}

/// Outcome of [`guided_join_sweep`]: the built overlay, per-join
/// contact counts and the join loop's wall-clock.
pub struct GuidedSweep {
    /// The overlay after all joins. The distance closure is boxed so
    /// the concrete overlay type is nameable by callers holding any
    /// underlay (the A12 shard bench reuses this sweep over a
    /// gateway-routed sharded underlay).
    pub ov: SyncOverlay<Box<dyn Fn(HostId, HostId) -> VDist>>,
    /// Contacts per join, in join order.
    pub contacts: Vec<f64>,
    /// Wall-clock of the join loop, ms.
    pub wall_ms: f64,
}

/// The coordinate-guided VDM sweep: every joiner draws a deterministic
/// `view_k`-member candidate view (the stand-in for PR 7's gossiped
/// membership view), ranks it by Vivaldi coordinate distance, probes
/// the `probe_k` nearest with real RTTs (each probe counted as a
/// contact and folded into both endpoints' coordinates), scores each
/// probed candidate by the root-path delay the joiner would inherit
/// by attaching under it (preferring candidates with a free slot),
/// and anchors its join walk at the best-scored candidate via
/// [`SyncOverlay::join_from`] instead of walking down from the
/// source. Entering beside a free slot is what kills the knee: the
/// walk attaches in place instead of redirecting down the hundreds of
/// levels of saturated core the source-rooted walk has to traverse at
/// N = 10k. The price is a modest stretch premium at toy sizes (the
/// guided tree's early generations compound small entry errors that
/// the source walk's global descent avoids); past the knee the plain
/// tree degenerates into deep chains and guided wins stretch too —
/// `tests/scale_knee.rs` pins both regimes.
///
/// Host 0 is the source; hosts `1..=n` join in id order. Works over
/// any underlay whose `rtt_ms` answers host pairs in `0..=n`.
pub fn guided_join_sweep(
    underlay: Arc<dyn Underlay + Send + Sync>,
    n: usize,
    degree: u32,
    seed: u64,
    policy: &dyn WalkPolicy,
) -> GuidedSweep {
    let source = HostId(0);
    let u = Arc::clone(&underlay);
    let dist: Box<dyn Fn(HostId, HostId) -> VDist> = Box::new(move |a, b| u.rtt_ms(a, b));
    let mut ov = SyncOverlay::new(n + 1, source, degree, dist);
    let cfg = CoordsConfig::default();
    let (view_k, probe_k) = (cfg.view_k, cfg.probe_k);
    let mut table = CoordTable::new(n + 1, cfg);
    let mut contacts = Vec::with_capacity(n);
    // Every member's root-path RTT as of its own attach (source = 0).
    let mut path_rtt = vec![0.0f64; n + 1];
    let t0 = Instant::now();
    for h in 1..=n as u32 {
        let joiner = HostId(h);
        // In-tree hosts are exactly 0..h (source plus earlier joiners).
        let mut view: Vec<HostId> = if (h as usize) <= view_k {
            (0..h).map(HostId).collect()
        } else {
            let mut picked = Vec::with_capacity(view_k);
            let mut i = 0u64;
            while picked.len() < view_k {
                let c = HostId((splitmix64(seed ^ ((h as u64) << 32) ^ i) % h as u64) as u32);
                i += 1;
                if !picked.contains(&c) {
                    picked.push(c);
                }
            }
            picked
        };
        table.rank_from(joiner, &mut view);
        // Probe the coordinate-nearest few with real RTTs (counted,
        // and folded into both endpoints' coordinates), then score
        // each candidate by the root-path delay the joiner would
        // inherit by attaching under it: `path_rtt(c) + rtt(c, me)`.
        // Members maintain their root-path RTT incrementally
        // (HMTP-style: learned at attach time, so stale across later
        // splices — exactly the lag a real gossiped value has) and
        // gossip it with their free degree, so reading both costs no
        // extra messages — only the RTT probes count. Candidates with
        // a free slot are preferred: entering at one lets the walk
        // attach in place instead of redirecting down the
        // saturated-core chains that cause the knee.
        let mut probed = 0.0;
        let mut best: Option<(HostId, f64, bool)> = None; // (entry, score, free)
        for &c in view.iter().take(probe_k) {
            let rtt = underlay.rtt_ms(joiner, c);
            table.observe(joiner, c, rtt);
            probed += 1.0;
            let path = path_rtt[c.idx()] + rtt;
            let free = ov.peer(c).free_degree() > 0;
            let better = match best {
                None => true,
                Some((_, s, f)) => (free && !f) || (free == f && path < s),
            };
            if better {
                best = Some((c, path, free));
            }
        }
        let entry = best.map_or(source, |(c, _, _)| c);
        let tr = ov.join_from(joiner, degree, policy, entry);
        path_rtt[joiner.idx()] = path_rtt[tr.parent.idx()] + underlay.rtt_ms(joiner, tr.parent);
        contacts.push(probed + tr.contacted as f64);
        // Background Vivaldi maintenance: the async protocol trains
        // the embedding piggyback on heartbeat/data traffic that flows
        // regardless of joins (DESIGN.md §11), so these observations
        // model messages the overlay already pays for and do NOT count
        // as join contacts. A handful of seeded member pairs per join
        // keeps the embedding tracking the growing membership.
        for i in 0..8u64 {
            let r = splitmix64(seed ^ 0xb16_c00d ^ ((h as u64) << 34) ^ i);
            let a = HostId((r % (h as u64 + 1)) as u32);
            let b = HostId(((r >> 32) % (h as u64 + 1)) as u32);
            if a != b {
                table.observe(a, b, underlay.rtt_ms(a, b));
            }
        }
    }
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    GuidedSweep {
        ov,
        contacts,
        wall_ms,
    }
}

/// The A9 guided series: the sweep above over the A9 on-demand-routed
/// power-law testbed, validated and folded into a [`ScalePoint`].
fn run_guided(n: usize, seed: u64, policy: &dyn WalkPolicy) -> ScalePoint {
    let s = setup::scale_setup(n, seed);
    let underlay = Arc::clone(&s.underlay);
    let sweep = guided_join_sweep(underlay.clone(), n, DEGREE, seed, policy);
    finish_point(
        n,
        "vdm_guided",
        sweep.wall_ms,
        &sweep.contacts,
        &sweep.ov,
        &underlay,
    )
}

/// Population sizes per effort tier. `--smoke` passes its own tiny
/// sizes instead (see [`scale_family_with_sizes`]).
pub fn scale_sizes(effort: Effort) -> Vec<usize> {
    match effort {
        Effort::Quick => vec![256, 512],
        Effort::Default => vec![1000, 5000, 10_000],
        Effort::Paper => vec![1000, 5000, 10_000, 20_000, 100_000],
    }
}

/// The A9 report: the rendered table plus the per-point raw data for
/// `BENCH_scale.json`.
pub struct ScaleReport {
    /// The "A9" figure table (VDM vs HMTP contacts, prediction,
    /// wall-clock, rows at peak).
    pub tables: Vec<Table>,
    /// All measured points, VDM and HMTP interleaved per N.
    pub points: Vec<ScalePoint>,
}

/// Run the A9 family at explicit population sizes.
pub fn scale_family_with_sizes(sizes: &[usize], seed: u64) -> ScaleReport {
    let mut points = Vec::with_capacity(sizes.len() * 3);
    let mut table = Table::new(
        "A9",
        format!("Scale: VDM vs guided VDM vs HMTP on power-law underlays (degree {DEGREE})"),
        "N",
        vec![
            "vdm_contacts".into(),
            "guided_contacts".into(),
            "hmtp_contacts".into(),
            "n*log_n(N)".into(),
            "vdm_stretch".into(),
            "guided_stretch".into(),
            "vdm_wall_ms".into(),
            "vdm_rows_peak".into(),
        ],
    );
    let exact = |v: f64| CiStat {
        mean: v,
        ci90: 0.0,
        n: 1,
    };
    for &n in sizes {
        let vdm = run_protocol(n, seed, &VdmPolicy::delay_based(), "vdm");
        let guided = run_guided(n, seed, &VdmPolicy::delay_based());
        let hmtp = run_protocol(n, seed, &HmtpPolicy, "hmtp");
        table.push(
            n as f64,
            vec![
                exact(vdm.contacts_tail),
                exact(guided.contacts_tail),
                exact(hmtp.contacts_tail),
                exact(vdm.predicted),
                exact(vdm.stretch_mean),
                exact(guided.stretch_mean),
                exact(vdm.wall_ms),
                exact(vdm.rows_peak as f64),
            ],
        );
        points.push(vdm);
        points.push(guided);
        points.push(hmtp);
    }
    ScaleReport {
        tables: vec![table],
        points,
    }
}

/// Run the A9 family at the effort tier's sizes.
pub fn scale_family(effort: Effort, seed: u64) -> ScaleReport {
    scale_family_with_sizes(&scale_sizes(effort), seed)
}

impl ScaleReport {
    /// Render as the `BENCH_scale.json` document.
    pub fn to_json(&self, smoke: bool, seed: u64) -> String {
        let mut out = format!(
            "{{\n  \"bench\": \"scale\",\n  \"smoke\": {smoke},\n  \"seed\": {seed},\n  \
             \"degree\": {DEGREE},\n  \"points\": [\n"
        );
        for (i, p) in self.points.iter().enumerate() {
            let sep = if i + 1 < self.points.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"n\": {}, \"protocol\": \"{}\", \"wall_ms\": {:.2}, \
                 \"contacts_mean\": {:.3}, \"contacts_tail\": {:.3}, \
                 \"predicted_nlogn\": {:.3}, \"stretch_mean\": {:.4}, \
                 \"rows_peak\": {}, \"rows_capacity\": {}, \
                 \"row_hits\": {}, \"row_misses\": {}, \"row_evictions\": {}}}{sep}\n",
                p.n,
                p.protocol,
                p.wall_ms,
                p.contacts_mean,
                p.contacts_tail,
                p.predicted,
                p.stretch_mean,
                p.rows_peak,
                p.rows_capacity,
                p.row_hits,
                p.row_misses,
                p.row_evictions,
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sizes_produce_valid_points() {
        let r = scale_family_with_sizes(&[48, 96], 7);
        assert_eq!(r.points.len(), 6);
        assert_eq!(r.tables[0].rows.len(), 2);
        for p in &r.points {
            assert!(p.contacts_tail > 0.0, "{:?}", p);
            assert!(p.rows_peak <= p.rows_capacity);
            assert!(p.row_misses > 0);
            assert!(p.stretch_mean >= 1.0 - 1e-9, "{:?}", p);
        }
        // Contacts grow sub-linearly: 2x members, far less than 2x contacts.
        let v48 = &r.points[0];
        let v96 = &r.points[3];
        assert_eq!((v48.protocol, v96.protocol), ("vdm", "vdm"));
        assert!(v96.contacts_tail < v48.contacts_tail * 2.0);
        // The guided series rides between them in each N block.
        assert_eq!(r.points[1].protocol, "vdm_guided");
        assert_eq!(r.points[2].protocol, "hmtp");
    }

    #[test]
    fn guided_joins_are_deterministic_per_seed() {
        let a = run_guided(40, 11, &VdmPolicy::delay_based());
        let b = run_guided(40, 11, &VdmPolicy::delay_based());
        assert_eq!(a.contacts_mean.to_bits(), b.contacts_mean.to_bits());
        assert_eq!(a.stretch_mean.to_bits(), b.stretch_mean.to_bits());
    }

    #[test]
    fn json_parses_shape() {
        let r = scale_family_with_sizes(&[32], 3);
        let json = r.to_json(true, 3);
        // The workspace has no JSON parser crate; the CI job validates
        // with `python3 -m json.tool`. Here: structural spot checks.
        assert!(json.contains("\"bench\": \"scale\""));
        assert!(json.contains("\"protocol\": \"vdm\""));
        assert!(json.contains("\"protocol\": \"vdm_guided\""));
        assert!(json.contains("\"protocol\": \"hmtp\""));
        assert!(json.contains("\"rows_peak\""));
        assert!(json.contains("\"stretch_mean\""));
        assert_eq!(json.matches("{\"n\":").count(), 3);
    }
}
