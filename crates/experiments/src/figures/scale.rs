//! A9: scaling the sim core past 10k-node overlays.
//!
//! The paper's own complexity claim (§3.2.3, Eq. 3.3: contacted peers
//! per join ≈ `n·log_n N`) is only interesting if it holds *at scale* —
//! overlay evaluations in the literature (Narada/ESM, NICE) routinely
//! go to 10k+ members. This family joins N members under VDM,
//! coordinate-guided VDM and HMTP over power-law underlays routed by
//! the memory-bounded [`OnDemandRouter`] (no `O(n^2)` matrix is ever
//! materialized), recording per-N wall-clock, walk-contact counts
//! against the prediction, and the router's resident-row high-water
//! mark (the peak RSS proxy). `vdm-repro scale` renders the table and
//! emits `results/BENCH_scale.json`.
//!
//! [`OnDemandRouter`]: vdm_topology::OnDemandRouter

use crate::ci::CiStat;
use crate::report::{Fields, Report};
use crate::setup;
use crate::table::Table;
use crate::Effort;
use std::sync::Arc;
use std::time::Instant;
use vdm_baselines::HmtpPolicy;
use vdm_core::VdmPolicy;
use vdm_netsim::{HostId, Underlay};
use vdm_overlay::coords::{CoordTable, PROBE_K, VIEW_K};
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
/// contact counts, the join loop's wall-clock and the embedding.
pub struct GuidedSweep {
    /// The overlay after all joins. The distance closure is boxed so
    /// the concrete overlay type is nameable by callers holding any
    /// underlay (the A12 shard bench reuses this sweep over a
    /// gateway-routed sharded underlay).
    pub ov: SyncOverlay<Box<dyn Fn(HostId, HostId) -> VDist>>,
    /// Contacts per join, in join order.
    pub contacts: Vec<f64>,
    /// Wall-clock of the join loop (planning the background reads
    /// included), ms.
    pub wall_ms: f64,
    /// Every host's Vivaldi state after the last join.
    pub coords: CoordTable,
}

/// Seeded member pairs observed per join as background Vivaldi
/// maintenance (see [`guided_join_sweep`]).
const BACKGROUND_PAIRS: u64 = 8;

/// The `i`-th background pair of join `h`: two members drawn from
/// `0..=h`, `None` when the draw lands on one host twice.
fn background_pair(seed: u64, h: u32, i: u64) -> Option<(HostId, HostId)> {
    let r = splitmix64(seed ^ 0xb16_c00d ^ ((h as u64) << 34) ^ i);
    let a = HostId((r % (h as u64 + 1)) as u32);
    let b = HostId(((r >> 32) % (h as u64 + 1)) as u32);
    (a != b).then_some((a, b))
}

/// Where the RTT of join `h`'s `i`-th background pair is kept.
fn background_slot(h: u32, i: u64) -> usize {
    (h as usize - 1) * BACKGROUND_PAIRS as usize + i as usize
}

/// A whole sweep's background pairs filed under their first endpoint,
/// so the sweep can ask for `rtt_ms(a, _)` only while `a` is the host
/// joining — when an on-demand router has `a`'s row resident anyway —
/// instead of at the pair's own join, where a uniformly random `a`
/// costs a fresh Dijkstra row read once. `O(8 n)` memory in three flat
/// arrays (a counting sort by `a`), dropped with the sweep.
struct BackgroundReads {
    /// Host `a`'s bucket is `entries[offsets[a]..offsets[a + 1]]`.
    offsets: Vec<u32>,
    /// `(b, slot)` of every pair `(a, b)`, grouped by `a`.
    entries: Vec<(HostId, u32)>,
    /// RTT per [`background_slot`]; NaN until [`Self::read_from`] its
    /// first endpoint (and forever for a draw without a pair).
    rtt: Vec<f64>,
}

impl BackgroundReads {
    /// Enumerate and bucket the pairs of joins `1..=n`.
    fn plan(seed: u64, n: usize) -> Self {
        let slots = n * BACKGROUND_PAIRS as usize;
        assert!(u32::try_from(slots).is_ok(), "{n} joins overflow a slot");
        let pairs = || {
            (1..=n as u32).flat_map(move |h| {
                (0..BACKGROUND_PAIRS).filter_map(move |i| {
                    background_pair(seed, h, i).map(|(a, b)| (a, b, background_slot(h, i) as u32))
                })
            })
        };
        let mut offsets = vec![0u32; n + 2];
        for (a, _, _) in pairs() {
            offsets[a.idx() + 1] += 1;
        }
        for a in 0..=n {
            offsets[a + 1] += offsets[a];
        }
        let mut next = offsets.clone();
        let mut entries = vec![(HostId(0), 0u32); offsets[n + 1] as usize];
        for (a, b, slot) in pairs() {
            entries[next[a.idx()] as usize] = (b, slot);
            next[a.idx()] += 1;
        }
        Self {
            offsets,
            entries,
            rtt: vec![f64::NAN; slots],
        }
    }

    /// Answer every pair whose first endpoint is `a`.
    fn read_from(&mut self, a: HostId, underlay: &dyn Underlay) {
        let bucket = self.offsets[a.idx()] as usize..self.offsets[a.idx() + 1] as usize;
        for &(b, slot) in &self.entries[bucket] {
            self.rtt[slot as usize] = underlay.rtt_ms(a, b);
        }
    }
}

/// The coordinate-guided VDM sweep: every joiner draws a deterministic
/// [`VIEW_K`]-member candidate view (the stand-in for discovery's
/// gossiped membership view), ranks it by Vivaldi coordinate distance,
/// probes the [`PROBE_K`] nearest with real RTTs (each probe counted as a
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
    let mut table = CoordTable::new(n + 1);
    let mut contacts = Vec::with_capacity(n);
    // Every member's root-path RTT as of its own attach (source = 0).
    let mut path_rtt = vec![0.0f64; n + 1];
    let t0 = Instant::now();
    let mut background = BackgroundReads::plan(seed, n);
    // The source's row is resident from the underlay's construction.
    background.read_from(source, &*underlay);
    for h in 1..=n as u32 {
        let joiner = HostId(h);
        // In-tree hosts are exactly 0..h (source plus earlier joiners).
        let mut view: Vec<HostId> = if (h as usize) <= VIEW_K {
            (0..h).map(HostId).collect()
        } else {
            let mut picked = Vec::with_capacity(VIEW_K);
            let mut i = 0u64;
            while picked.len() < VIEW_K {
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
        for &c in view.iter().take(PROBE_K) {
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
        // The joiner's row is the most recently used: answer every
        // background pair it is the first endpoint of, now.
        background.read_from(joiner, &*underlay);
        // Background Vivaldi maintenance: the async protocol trains
        // the embedding piggyback on heartbeat/data traffic that flows
        // regardless of joins (DESIGN.md §11), so these observations
        // model messages the overlay already pays for and do NOT count
        // as join contacts. A handful of seeded member pairs per join
        // keeps the embedding tracking the growing membership. Each
        // pair's RTT was read at its first endpoint's join (`a <= h`)
        // and is observed here, in the order an inline read would
        // give — an underlay's answers do not depend on when they are
        // asked, so coordinates, ranking and the tree are the same.
        for i in 0..BACKGROUND_PAIRS {
            if let Some((a, b)) = background_pair(seed, h, i) {
                table.observe(a, b, background.rtt[background_slot(h, i)]);
            }
        }
    }
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    GuidedSweep {
        ov,
        contacts,
        wall_ms,
        coords: table,
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
    /// The "A9" figure table (VDM vs guided VDM vs HMTP contacts,
    /// prediction, stretch, plain and guided wall-clock, rows at peak,
    /// guided row misses).
    pub tables: Vec<Table>,
    /// All measured points: VDM, guided VDM, HMTP per N, in that order.
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
            "guided_wall_ms".into(),
            "vdm_rows_peak".into(),
            "guided_misses".into(),
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
                exact(guided.wall_ms),
                exact(vdm.rows_peak as f64),
                exact(guided.row_misses as f64),
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
    /// The `BENCH_scale.json` document and the A9 gates, judged at the
    /// largest population in the sweep.
    pub fn report(&self, smoke: bool, seed: u64) -> Report {
        let points = self.points.iter().map(|p| {
            Fields::default()
                .with("n", p.n)
                .with("protocol", p.protocol)
                .with("wall_ms", p.wall_ms)
                .with("contacts_mean", p.contacts_mean)
                .with("contacts_tail", p.contacts_tail)
                .with("predicted_nlogn", p.predicted)
                .with("stretch_mean", p.stretch_mean)
                .with("rows_peak", p.rows_peak)
                .with("rows_capacity", p.rows_capacity)
                .with("row_hits", p.row_hits)
                .with("row_misses", p.row_misses)
                .with("row_evictions", p.row_evictions)
        });
        let mut failures = Vec::new();
        if let [.., vdm, guided, _] = self.points.as_slice() {
            assert_eq!((vdm.protocol, guided.protocol), ("vdm", "vdm_guided"));
            // Guided joins must cut contacts without degrading the tree
            // where the knee lives. At toy sizes they trade a small
            // stretch premium for the saving (the async stack ships
            // guidance default-off), so stretch is judged from 5k up; the
            // smoke sizes must still show the saving (they do at CI's
            // seed 42; at N = 128 not at every seed).
            let at_knee = vdm.n >= 5000;
            if (smoke || at_knee) && guided.contacts_mean >= vdm.contacts_mean {
                failures.push(format!(
                    "guided contacts regression at N={}: {:.1} per join vs plain {:.1}",
                    vdm.n, guided.contacts_mean, vdm.contacts_mean
                ));
            }
            if at_knee && guided.stretch_mean > vdm.stretch_mean * 1.02 {
                failures.push(format!(
                    "guided stretch regression at N={}: {:.4} vs plain {:.4}",
                    vdm.n, guided.stretch_mean, vdm.stretch_mean
                ));
            }
            // Both sweeps ask the oracle about the joining host only: one
            // routing row per host at any LRU capacity. A guided sweep that
            // needs more thrashes the LRU (8x the wall at N=10k last time).
            if guided.row_misses > vdm.row_misses {
                failures.push(format!(
                    "guided row-miss regression at N={}: {} vs plain {}",
                    vdm.n, guided.row_misses, vdm.row_misses
                ));
            }
        }
        Report {
            name: "scale",
            tables: self.tables.clone(),
            header: Fields::default()
                .with("smoke", smoke)
                .with("seed", seed)
                .with("degree", u64::from(DEGREE)),
            points: points.collect(),
            failures,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Field;
    use std::sync::Mutex;
    use vdm_netsim::RoutedUnderlay;
    use vdm_topology::EdgeId;

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

    /// FNV-1a over `words`, each as eight little-endian bytes, started
    /// as the retired artifact cache's pin hasher was (offset basis,
    /// then its version-2 salt), so the pins below keep their recorded
    /// values.
    fn fnv_pin(words: impl IntoIterator<Item = u64>) -> u64 {
        std::iter::once(0x7664_6d63_6163_6802)
            .chain(words)
            .flat_map(u64::to_le_bytes)
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }

    /// FNV-1a over everything a change to *when* the oracle is read
    /// could perturb: the final parent vector, every join's contact
    /// count and every member's Vivaldi coordinate and error, all by
    /// bit pattern. (`perf`'s `sim_digest` covers the first two only.)
    fn sweep_pin(sweep: &GuidedSweep) -> u64 {
        let parents = sweep.ov.snapshot().parent;
        let mut words: Vec<u64> = parents
            .iter()
            .map(|p| p.map_or(u64::MAX, |p| u64::from(p.0)))
            .collect();
        words.extend(sweep.contacts.iter().map(|c| c.to_bits()));
        for i in 0..parents.len() as u32 {
            let st = sweep.coords.state(HostId(i));
            words.extend(st.coord.0.iter().map(|x| x.to_bits()));
            words.push(st.err.to_bits());
        }
        fnv_pin(words)
    }

    /// The A9 testbed's graph and hosts behind a hand-sized row LRU.
    fn small_lru_underlay(n: usize, seed: u64, rows: usize) -> Arc<RoutedUnderlay> {
        let s = setup::scale_setup(n, seed);
        Arc::new(RoutedUnderlay::on_demand(
            Arc::new(s.underlay.graph().clone()),
            s.underlay.host_nodes().to_vec(),
            Some(rows),
            None,
        ))
    }

    /// Recorded at c35efa8, where every background RTT was read inline
    /// at its pair's own join: the reorder must leave tree, contacts
    /// and the whole embedding bit-identical, at the default LRU and
    /// through one far smaller than the membership.
    #[test]
    fn guided_sweep_matches_the_inline_read_build() {
        let policy = VdmPolicy::delay_based();
        for (n, seed, pin) in [
            (256, 1, 0x06ca_6775_7b84_1f7f),
            (256, 2, 0x71a1_a3ea_cf4b_6ed5),
            (256, 42, 0x7674_c415_7ed8_41fa),
            (512, 1, 0x81e5_6d42_66b7_2f50),
            (512, 2, 0x44e3_ff47_1ea2_f377),
            (512, 42, 0xf375_8113_14b4_90bb),
        ] {
            let u = setup::scale_setup(n, seed).underlay;
            let sweep = guided_join_sweep(u, n, DEGREE, seed, &policy);
            assert_eq!(sweep_pin(&sweep), pin, "n {n} seed {seed}");
        }
        let (n, seed) = (300, 42);
        let u = small_lru_underlay(n, seed, 8);
        let sweep = guided_join_sweep(u.clone(), n, DEGREE, seed, &policy);
        assert_eq!(sweep_pin(&sweep), 0xf504_9b55_d36f_8525);
        // One row per host plus the source's (inline reads: 2 377).
        let misses = u.router().expect("on-demand").stats().misses;
        assert_eq!(misses, n as u64 + 1);
    }

    /// Logs every `rtt_ms(a, b)` the sweep issues, in call order.
    struct Recording {
        inner: Arc<RoutedUnderlay>,
        calls: Mutex<Vec<(HostId, HostId)>>,
    }

    impl Underlay for Recording {
        fn num_hosts(&self) -> usize {
            self.inner.num_hosts()
        }
        fn rtt_ms(&self, a: HostId, b: HostId) -> f64 {
            self.calls.lock().expect("log poisoned").push((a, b));
            self.inner.rtt_ms(a, b)
        }
        fn path_loss(&self, a: HostId, b: HostId) -> f64 {
            self.inner.path_loss(a, b)
        }
        fn path_edges(&self, a: HostId, b: HostId) -> Option<Vec<EdgeId>> {
            self.inner.path_edges(a, b)
        }
    }

    /// The invariant behind "one row per join at any LRU capacity":
    /// the source is asked before the loop, then every `rtt_ms(x, _)`
    /// has `x` = the host joining, whose background reads follow its
    /// own. And the reorder neither drops nor repeats a read.
    #[test]
    fn every_read_asks_the_host_that_is_joining() {
        let (n, seed) = (300, 42);
        let rec = Arc::new(Recording {
            inner: setup::scale_setup(n, seed).underlay,
            calls: Mutex::default(),
        });
        guided_join_sweep(rec.clone(), n, DEGREE, seed, &VdmPolicy::delay_based());
        let mut calls = rec.calls.lock().expect("log poisoned").clone();

        // What inline reads would ask, filed under the first endpoint.
        let mut bucket = vec![Vec::new(); n + 1];
        for h in 1..=n as u32 {
            for (a, b) in (0..BACKGROUND_PAIRS).filter_map(|i| background_pair(seed, h, i)) {
                bucket[a.idx()].push((a, b));
            }
        }
        let turns: Vec<_> = calls.chunk_by(|x, y| x.0 == y.0).collect();
        assert_eq!(turns.len(), n + 1, "a host was asked in two turns");
        for (h, (turn, bucket)) in turns.iter().zip(&bucket).enumerate() {
            assert_eq!(turn[0].0.idx(), h);
            assert!(
                turn.ends_with(bucket),
                "turn {h} does not end with its bucket"
            );
            // Before them the joiner measures in-tree hosts only.
            let own = &turn[..turn.len() - bucket.len()];
            assert!(own.iter().all(|&(_, b)| b.idx() < h), "turn {h}: {own:?}");
        }

        // The same multiset of calls as with inline reads (recorded at
        // c35efa8 through this wrapper, where they made 2 615 turns).
        calls.sort();
        let pin = fnv_pin(
            calls
                .iter()
                .flat_map(|(a, b)| [u64::from(a.0), u64::from(b.0)]),
        );
        assert_eq!((calls.len(), pin), (6014, 0x7f01_472a_fc80_d186));
    }

    #[test]
    fn json_parses_shape() {
        let r = scale_family_with_sizes(&[32], 3).report(true, 3);
        assert_eq!((r.name, r.points.len()), ("scale", 3));
        assert_eq!(r.header.get("smoke"), Some(&Field::Bool(true)));
        assert_eq!(r.header.get("seed"), Some(&Field::U64(3)));
        let guided = &r.points[1];
        assert_eq!(guided.get("n"), Some(&Field::U64(32)));
        assert!(matches!(guided.get("protocol"), Some(Field::Str(p)) if p == "vdm_guided"));
        assert!(matches!(guided.get("stretch_mean"), Some(Field::F64(s)) if *s >= 1.0));
    }

    /// Each A9 gate fires on a report doctored to break it — and only
    /// where it is judged (contacts in smoke or from 5k, stretch from
    /// 5k, row misses everywhere).
    #[test]
    fn doctored_reports_fail_their_gates() {
        // CI's smoke seed at its larger smoke size: passes as measured.
        let honest = scale_family_with_sizes(&[128], 42);
        assert_eq!(honest.report(true, 42).failures, Vec::<String>::new());
        let failures = |smoke: bool, edit: fn(&mut [ScalePoint])| {
            let mut r = ScaleReport {
                tables: Vec::new(),
                points: honest.points.clone(),
            };
            edit(&mut r.points);
            r.report(smoke, 42).failures
        };

        let f = failures(false, |p| p[1].row_misses = p[0].row_misses + 1);
        assert!(f.len() == 1 && f[0].starts_with("guided row-miss regression at N=128"));

        let worse_contacts: fn(&mut [ScalePoint]) = |p| p[1].contacts_mean = p[0].contacts_mean;
        assert_eq!(failures(false, worse_contacts), Vec::<String>::new());
        let f = failures(true, worse_contacts);
        assert!(f.len() == 1 && f[0].starts_with("guided contacts regression at N=128"));

        assert_eq!(
            failures(true, |p| p[1].stretch_mean = p[0].stretch_mean * 1.03),
            Vec::<String>::new()
        );
        let f = failures(false, |p| {
            p[1].stretch_mean = p[0].stretch_mean * 1.03;
            p[1].contacts_mean = p[0].contacts_mean;
            p.iter_mut().for_each(|p| p.n = 5000);
        });
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f[0].starts_with("guided contacts regression at N=5000"));
        assert!(f[1].starts_with("guided stretch regression at N=5000"));
    }
}
