//! Decentralized bootstrap membership: iterative peer discovery over a
//! gossiped partial view.
//!
//! The paper's scenarios hand every newcomer the source address — an
//! omniscient rendezvous no deployed overlay has. With discovery
//! enabled, a joiner instead knows only a small *bootstrap set* of seed
//! peers ([`DiscoveryConfig::seeds`]) and runs iterative peer discovery
//! before its join walk: it fires [`crate::msg::Msg::PeerReq`] probes at
//! the freshest entries of its partial view (bounded fanout), responders
//! answer with [`crate::msg::Msg::PeerList`] samples of their own view
//! under a token-bucket serving budget, and the first verified-live
//! responder becomes the walk's *entry anchor* in place of the source.
//! Unanswered probes retire their view entry (stale/dead peers are
//! detected by age and timeout, never trusted forever), per-request
//! deadlines grow exponentially across rounds (the PR 1 retry
//! machinery, `walk::scaled_delay`), and when the whole view
//! is exhausted the join falls back to the plain source walk — from
//! where the existing candidate → ancestor → source recovery hierarchy
//! applies unchanged.
//!
//! Everything here is inert unless a [`DiscoveryConfig`] is installed:
//! no RNG draws, timers, or messages happen otherwise, so runs without
//! discovery stay byte-identical per seed.

use crate::agent::{next_stamp, Ctx};
use crate::bucket::TokenBucket;
use crate::coords::{Coord, CoordSample};
use crate::msg::{Msg, PeerEntry};
use crate::peer::PeerState;
use vdm_netsim::{HostId, SimTime};

/// Timer-token namespace bit for bootstrap-discovery probe deadlines
/// (the low bits carry the probe nonce, which stays far below this
/// bit).
pub const DISCOVERY_TOKEN_BIT: u64 = 1 << 54;

/// Concurrent `PeerReq` probes per discovery round.
const FANOUT: usize = 2;
/// Deadline of a round-0 probe; later rounds scale it by [`BACKOFF`]
/// per round.
const REQUEST_TIMEOUT: SimTime = SimTime(2_000_000);
/// Exponential deadline multiplier per round (the flash-crowd absorber:
/// re-probes of a budget-shedding seed space out exponentially, giving
/// its token bucket time to refill).
const BACKOFF: f64 = 2.0;
/// Probe rounds before giving up and falling back to the source walk.
const MAX_ROUNDS: u32 = 4;
/// Partial-view capacity (freshest entries win).
const VIEW_SIZE: usize = 12;
/// View entries unseen for longer than this are evicted as stale.
const MAX_AGE: SimTime = SimTime(120_000_000);
/// Responder serving budget: sustained `PeerList` replies per second. A
/// dry bucket drops the request silently — the requester's
/// timeout+backoff spreads the crowd out.
const SERVE_RATE_PER_S: f64 = 4.0;
/// Serving-budget burst capacity.
const SERVE_BURST: f64 = 8.0;
/// Peers shared per `PeerList` reply.
const GOSSIP_FANOUT: usize = 6;

/// The seed peer set plus the one ranking switch. Carried by
/// [`crate::scenario::Scenario`] and distributed to every agent by the
/// driver; `None` (the default everywhere) keeps the omniscient joins.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DiscoveryConfig {
    /// The bootstrap set: peers a newcomer knows before joining. May
    /// contain stale entries (departed or never-joining hosts) — that
    /// is the point of the hardening.
    pub seeds: Vec<HostId>,
    /// Rank probe targets by virtual-coordinate distance instead of
    /// freshness (coordinate-embedding extension). Only effective when
    /// the agent also runs an embedding; the joiner then probes its
    /// coordinate-nearest view entries first, so the first live
    /// responder — the walk anchor — is already near the joiner's
    /// predicted tree region.
    pub coord_ranked: bool,
}

/// One partial-view entry.
#[derive(Clone, Copy, Debug)]
struct ViewEntry {
    host: HostId,
    /// When we last heard of this peer (directly or via gossip).
    seen_at: SimTime,
    /// Probed in the current pass over the view (cleared when every
    /// entry has been tried and rounds remain).
    tried: bool,
    /// The peer's last gossiped coordinate sample (`None` when the
    /// embedding is off or no sample has arrived yet).
    coord: Option<CoordSample>,
}

/// Per-agent discovery state: the gossiped partial view, the in-flight
/// probe set, and the responder serving bucket. The agent holds one
/// once a [`DiscoveryConfig`] is installed and hands it probe answers,
/// probe requests and probe deadlines.
#[derive(Clone, Debug)]
pub struct DiscoveryState {
    cfg: DiscoveryConfig,
    view: Vec<ViewEntry>,
    /// In-flight probes as `(nonce, target)`.
    inflight: Vec<(u64, HostId)>,
    /// Rounds fired so far.
    round: u32,
    /// When the first round fired (time-to-first-anchor zero point).
    started_at: Option<SimTime>,
    /// Anchor chosen or fallback taken; further replies only refresh
    /// the view.
    finished: bool,
    /// Responder serving bucket.
    serve: TokenBucket,
}

impl DiscoveryState {
    /// Fresh state for `me`, with the bootstrap set stamped `now`.
    pub fn new(cfg: &DiscoveryConfig, me: HostId, now: SimTime) -> Self {
        let mut s = Self {
            cfg: cfg.clone(),
            view: Vec::new(),
            inflight: Vec::new(),
            round: 0,
            started_at: None,
            finished: false,
            serve: TokenBucket::full(SERVE_BURST, now),
        };
        for &h in &cfg.seeds {
            s.observe_at(h, me, now);
        }
        s
    }

    /// Whether a cold join has anyone to ask at all (after age
    /// eviction). A configured-but-empty view joins exactly like the
    /// discovery-off path, with no counters touched.
    pub fn has_candidates(&mut self, now: SimTime) -> bool {
        self.evict_stale(now);
        !self.view.is_empty()
    }

    /// Record that `host` was seen (gossip or direct contact) at `at`.
    /// The view keeps the freshest `VIEW_SIZE` entries; `me` is never
    /// inserted.
    pub fn observe_at(&mut self, host: HostId, me: HostId, at: SimTime) {
        if host == me {
            return;
        }
        if let Some(e) = self.view.iter_mut().find(|e| e.host == host) {
            e.seen_at = e.seen_at.max(at);
            return;
        }
        self.view.push(ViewEntry {
            host,
            seen_at: at,
            tried: false,
            coord: None,
        });
        if self.view.len() > VIEW_SIZE {
            // Evict the oldest entry (ties broken by host id so the
            // view is deterministic regardless of insertion order).
            let mut oldest = 0;
            for (i, e) in self.view.iter().enumerate() {
                let o = &self.view[oldest];
                if (e.seen_at, e.host.0) < (o.seen_at, o.host.0) {
                    oldest = i;
                }
            }
            self.view.remove(oldest);
        }
    }

    /// Record a gossiped peer whose reported age is `age_s` seconds.
    pub fn observe_aged(&mut self, host: HostId, me: HostId, age_s: f64, now: SimTime) {
        let age = SimTime::from_ms((age_s * 1000.0).max(0.0));
        self.observe_at(host, me, now.saturating_sub(age));
    }

    /// Attach a gossiped coordinate sample to `host`'s view entry, if
    /// one exists (silently dropped otherwise — the view's capacity
    /// policy is freshness-only and coordinates never pin an entry).
    pub fn note_coord(&mut self, host: HostId, sample: CoordSample) {
        if let Some(e) = self.view.iter_mut().find(|e| e.host == host) {
            e.coord = Some(sample);
        }
    }

    /// The last gossiped coordinate sample of `host`, if any.
    pub fn coord_of(&self, host: HostId) -> Option<CoordSample> {
        self.view
            .iter()
            .find(|e| e.host == host)
            .and_then(|e| e.coord)
    }

    /// Drop entries unseen for longer than [`MAX_AGE`].
    fn evict_stale(&mut self, now: SimTime) {
        self.view
            .retain(|e| now.saturating_sub(e.seen_at) <= MAX_AGE);
    }

    /// Begin a probe round: evict stale entries and pick up to `FANOUT`
    /// untried entries, freshest first (host id breaks ties). When
    /// every live entry has been tried and rounds remain, the tried
    /// flags reset — a later pass re-probes seeds that shed us under
    /// load, after the backoff gave their budget time to refill.
    /// With `coord_ranked` set and a joiner coordinate supplied,
    /// untried entries go nearest-first instead (entries without a
    /// sample last, freshest-first among equals), so the first live
    /// responder is already near the joiner's predicted region.
    /// Returns the empty vector when the round budget or the view is
    /// exhausted: the caller falls back to the source walk.
    pub fn begin_round(&mut self, now: SimTime, self_coord: Option<Coord>) -> Vec<HostId> {
        if self.round >= MAX_ROUNDS {
            return Vec::new();
        }
        self.evict_stale(now);
        if self.view.is_empty() {
            return Vec::new();
        }
        if self.view.iter().all(|e| e.tried) {
            for e in &mut self.view {
                e.tried = false;
            }
        }
        let mut order: Vec<usize> = (0..self.view.len())
            .filter(|&i| !self.view[i].tried)
            .collect();
        let ranked = self_coord.filter(|_| self.cfg.coord_ranked);
        let dist = |e: &ViewEntry| match (ranked, e.coord) {
            (Some(c), Some(s)) => c.dist(s.coord),
            _ => f64::INFINITY,
        };
        order.sort_by(|&a, &b| {
            let (ea, eb) = (&self.view[a], &self.view[b]);
            dist(ea).total_cmp(&dist(eb)).then(freshest_first(ea, eb))
        });
        order.truncate(FANOUT);
        let targets: Vec<HostId> = order
            .iter()
            .map(|&i| {
                self.view[i].tried = true;
                self.view[i].host
            })
            .collect();
        self.round += 1;
        if self.started_at.is_none() {
            self.started_at = Some(now);
        }
        targets
    }

    /// A `PeerList` arrived: true iff `(nonce, from)` matched an
    /// in-flight probe (which is then cleared). Stale replies from
    /// earlier rounds or other hosts are ignored.
    pub fn resolve_inflight(&mut self, nonce: u64, from: HostId) -> bool {
        let before = self.inflight.len();
        self.inflight.retain(|&(n, t)| !(n == nonce && t == from));
        self.inflight.len() < before
    }

    /// A probe deadline fired: returns the target if the probe was
    /// still unanswered (and clears it), `None` if a reply won the
    /// race.
    pub fn timeout_inflight(&mut self, nonce: u64) -> Option<HostId> {
        let i = self.inflight.iter().position(|&(n, _)| n == nonce)?;
        Some(self.inflight.swap_remove(i).1)
    }

    /// Take one serving token (refilled at `SERVE_RATE_PER_S` up to
    /// `SERVE_BURST`); `false` means the request should be dropped.
    pub fn serve_take(&mut self, now: SimTime) -> bool {
        self.serve.refill(now, SERVE_RATE_PER_S, SERVE_BURST);
        self.serve.take()
    }

    /// Sample peers to share with `asker`: tree neighbours first (our
    /// parent and children are verified live), then the freshest view
    /// entries, capped at `GOSSIP_FANOUT`. Ages are attached so the
    /// receiver can stamp the entries into its own view.
    pub fn share(
        &self,
        me: HostId,
        asker: HostId,
        parent: Option<HostId>,
        children: &[HostId],
        now: SimTime,
    ) -> Vec<(HostId, f64)> {
        let mut out: Vec<(HostId, f64)> = Vec::new();
        let push = |h: HostId, age_s: f64, out: &mut Vec<(HostId, f64)>| {
            if h != asker && h != me && !out.iter().any(|&(x, _)| x == h) {
                out.push((h, age_s));
            }
        };
        if let Some(p) = parent {
            push(p, 0.0, &mut out);
        }
        for &c in children {
            push(c, 0.0, &mut out);
        }
        let mut by_age: Vec<&ViewEntry> = self.view.iter().collect();
        by_age.sort_by(|a, b| freshest_first(a, b));
        for e in by_age {
            push(e.host, now.saturating_sub(e.seen_at).as_secs(), &mut out);
        }
        out.truncate(GOSSIP_FANOUT);
        out
    }
}

/// Freshest first, host id breaking ties.
fn freshest_first(a: &ViewEntry, b: &ViewEntry) -> std::cmp::Ordering {
    (b.seen_at, a.host.0).cmp(&(a.seen_at, b.host.0))
}

/// The agent-facing half: probe rounds, probe deadlines and both
/// message handlers. Nonces come from the agent's stamp counter `gen`;
/// every send, timer and counter goes through `ctx`.
impl DiscoveryState {
    /// Begin discovery on a join command. Returns whether the join walk
    /// should start from the source right away: discovery already
    /// ended, the bootstrap set is empty (then nothing is counted or
    /// traced, so an empty-seed config stays byte-identical to
    /// discovery off), or the first round found nobody to ask.
    pub(crate) fn begin(&mut self, ctx: &mut Ctx<'_>, coord: Option<Coord>, gen: &mut u64) -> bool {
        if self.finished || (self.cfg.seeds.is_empty() && !self.has_candidates(ctx.now())) {
            return true;
        }
        self.fire(ctx, coord, gen)
    }

    /// Fire one probe round at the freshest (or, coordinate-ranked,
    /// nearest) untried view entries. When the view or the round budget
    /// is exhausted, record the fallback and return `true`: the caller
    /// starts the plain source-anchored walk, from where the candidate
    /// → ancestor → source recovery hierarchy applies unchanged.
    fn fire(&mut self, ctx: &mut Ctx<'_>, coord: Option<Coord>, gen: &mut u64) -> bool {
        let targets = self.begin_round(ctx.now(), coord);
        if targets.is_empty() {
            self.finished = true;
            ctx.stats.recovery.discovery_fallbacks += 1;
            ctx.trace(|| vdm_trace::TraceEvent::DiscoveryFallback { host: ctx.me.0 });
            return true;
        }
        let (round, fanout) = (self.round, targets.len() as u32);
        ctx.trace(|| vdm_trace::TraceEvent::DiscoveryRound {
            host: ctx.me.0,
            round,
            fanout,
        });
        for t in targets {
            let nonce = next_stamp(gen);
            self.inflight.push((nonce, t));
            ctx.stats.recovery.bootstrap_contacts += 1;
            ctx.send(t, Msg::PeerReq { nonce });
            // Deadlines stretch exponentially across rounds — the same
            // retry machinery as failed walks — which is what lets a
            // shedding seed's serving bucket refill between re-probes.
            // No jitter, so no RNG draw.
            let d = crate::walk::scaled_delay(
                REQUEST_TIMEOUT,
                BACKOFF,
                round.saturating_sub(1),
                0.0,
                ctx,
            );
            ctx.timer(d, DISCOVERY_TOKEN_BIT | nonce);
        }
        false
    }

    /// A probe deadline fired. An unanswered probe marks its target
    /// stale: retire it so later rounds (and gossip we forward) stop
    /// pointing at a departed host, and fire the next round once the
    /// current one is settled. Returns `true` when this ended discovery
    /// in the source fallback.
    pub(crate) fn on_timeout(
        &mut self,
        ctx: &mut Ctx<'_>,
        nonce: u64,
        coord: Option<Coord>,
        gen: &mut u64,
    ) -> bool {
        let Some(dead) = self.timeout_inflight(nonce) else {
            return false;
        };
        ctx.stats.recovery.stale_peer_hits += 1;
        self.view.retain(|e| e.host != dead);
        !self.finished && self.inflight.is_empty() && self.fire(ctx, coord, gen)
    }

    /// Answer a bootstrap probe out of the serving budget. Nodes that
    /// are not yet attached to the tree (or whose budget is dry) drop
    /// the request silently — the prober's timeout+backoff spreads the
    /// flash crowd out instead of amplifying it. `coords` is the
    /// responder's own sample cache when its embedding runs; only then
    /// are samples attached, so a coords-off responder gossips
    /// byte-identical entries.
    pub(crate) fn serve_probe(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: HostId,
        nonce: u64,
        state: &PeerState,
        coords: Option<&[(HostId, CoordSample)]>,
    ) {
        let (now, me) = (ctx.now(), ctx.me);
        // The prober is demonstrably alive: gossip it onward.
        self.observe_at(from, me, now);
        if !state.connected() || !self.serve_take(now) {
            ctx.stats.recovery.peer_reqs_dropped += 1;
            return;
        }
        ctx.stats.recovery.peer_reqs_served += 1;
        let children: Vec<HostId> = state.children.iter().map(|&(c, _)| c).collect();
        let peers = self
            .share(me, from, state.parent, &children, now)
            .into_iter()
            .map(|(host, age_s)| PeerEntry {
                host,
                age_s,
                coord: coords.and_then(|cache| {
                    cache
                        .iter()
                        .find(|(p, _)| *p == host)
                        .map(|&(_, s)| s)
                        .or_else(|| self.coord_of(host))
                }),
            })
            .collect();
        ctx.send(from, Msg::PeerList { nonce, peers });
    }

    /// A probe answer arrived: fold the gossip into the view and, the
    /// first time, record the responder as the anchor — an answered
    /// probe proves it alive, which is exactly what makes it a safe
    /// entry point. Returns `true` when the waiting join (`joining`)
    /// should now start its walk at `from`. `guided_ok` says whether
    /// our embedding runs, so coordinate-ranked probing was in force.
    pub(crate) fn on_peer_list(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: HostId,
        nonce: u64,
        peers: Vec<PeerEntry>,
        guided_ok: bool,
        joining: bool,
    ) -> bool {
        let (now, me) = (ctx.now(), ctx.me);
        if !self.resolve_inflight(nonce, from) {
            return false; // stale reply from an earlier round or incarnation
        }
        self.observe_at(from, me, now);
        for p in peers {
            self.observe_aged(p.host, me, p.age_s, now);
            if let Some(s) = p.coord {
                self.note_coord(p.host, s);
            }
        }
        if self.finished {
            return false; // late answer: keep the gossip, anchor already chosen
        }
        self.finished = true;
        let took = now.saturating_sub(self.started_at.unwrap_or(now)).as_secs();
        ctx.stats
            .recovery
            .discovery_anchors
            .push((now.as_secs(), took));
        ctx.trace(|| vdm_trace::TraceEvent::DiscoveryAnchor {
            host: ctx.me.0,
            anchor: from.0,
            took_s: took,
        });
        if joining && self.cfg.coord_ranked && guided_ok {
            // The probe order was coordinate-ranked, so the first live
            // responder is the nearest anchor the view offers.
            ctx.stats.recovery.guided_entries += 1;
            ctx.trace(|| vdm_trace::TraceEvent::GuidedEntry {
                host: ctx.me.0,
                anchor: from.0,
            });
        }
        joining
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(seeds: &[u32]) -> DiscoveryConfig {
        DiscoveryConfig {
            seeds: seeds.iter().map(|&h| HostId(h)).collect(),
            ..DiscoveryConfig::default()
        }
    }

    const ME: HostId = HostId(99);

    /// The view's hosts, freshest first.
    fn view_hosts(d: &DiscoveryState) -> Vec<HostId> {
        let mut view = d.view.clone();
        view.sort_by(freshest_first);
        view.iter().map(|e| e.host).collect()
    }

    #[test]
    fn seeds_populate_the_view_excluding_self() {
        let d = DiscoveryState::new(&cfg(&[1, 2, 99]), ME, SimTime::from_secs(5));
        assert_eq!(view_hosts(&d), vec![HostId(1), HostId(2)]);
    }

    #[test]
    fn rounds_walk_the_view_then_exhaust() {
        let mut d = DiscoveryState::new(&cfg(&[1, 2, 3]), ME, SimTime::ZERO);
        let t = SimTime::from_secs(1);
        let r1 = d.begin_round(t, None);
        assert_eq!(r1.len(), 2, "fanout-bounded");
        let r2 = d.begin_round(t, None);
        assert_eq!(r2.len(), 1, "remaining untried entry");
        // A third pass re-probes (tried flags reset) until max_rounds.
        let r3 = d.begin_round(t, None);
        assert_eq!(r3.len(), 2);
        let r4 = d.begin_round(t, None);
        assert_eq!(r4.len(), 1);
        assert_eq!(d.begin_round(t, None), Vec::new(), "round budget exhausted");
    }

    #[test]
    fn age_eviction_retires_stale_entries() {
        let mut d = DiscoveryState::new(&cfg(&[1, 2]), ME, SimTime::ZERO);
        d.observe_at(HostId(7), ME, SimTime::from_secs(100));
        assert!(d.has_candidates(SimTime::from_secs(130)));
        // Seeds stamped at 0 are now older than max_age (120 s); only
        // the fresh gossip survives.
        assert_eq!(view_hosts(&d), vec![HostId(7)]);
        assert!(!d.has_candidates(SimTime::from_secs(500)));
    }

    #[test]
    fn gossiped_ages_backdate_entries() {
        let mut d = DiscoveryState::new(&cfg(&[]), ME, SimTime::ZERO);
        let now = SimTime::from_secs(200);
        d.observe_aged(HostId(5), ME, 30.0, now);
        d.observe_aged(HostId(6), ME, 500.0, now);
        assert!(d.has_candidates(now));
        assert_eq!(view_hosts(&d), vec![HostId(5)], "too-old gossip evicted");
    }

    #[test]
    fn view_caps_at_view_size_keeping_freshest() {
        let mut d = DiscoveryState::new(&cfg(&[]), ME, SimTime::ZERO);
        for i in 1..=VIEW_SIZE as u32 + 3 {
            d.observe_at(HostId(i), ME, SimTime::from_secs(i as u64));
        }
        // Fifteen hosts seen one second apart: the three oldest go.
        let freshest: Vec<HostId> = (4..=15).rev().map(HostId).collect();
        assert_eq!(view_hosts(&d), freshest);
    }

    #[test]
    fn inflight_resolution_and_timeout_race() {
        let mut d = DiscoveryState::new(&cfg(&[1]), ME, SimTime::ZERO);
        d.inflight.push((10, HostId(1)));
        d.inflight.push((11, HostId(2)));
        assert!(d.resolve_inflight(10, HostId(1)));
        assert!(!d.resolve_inflight(10, HostId(1)), "already resolved");
        assert!(!d.resolve_inflight(11, HostId(3)), "wrong responder");
        assert_eq!(d.timeout_inflight(11), Some(HostId(2)));
        assert_eq!(d.timeout_inflight(11), None, "already timed out");
        assert!(d.inflight.is_empty());
    }

    #[test]
    fn serve_bucket_drains_and_refills() {
        let mut d = DiscoveryState::new(&cfg(&[]), ME, SimTime::ZERO);
        for i in 0..8 {
            assert!(d.serve_take(SimTime::ZERO), "burst token {i}");
        }
        assert!(!d.serve_take(SimTime::ZERO), "burst of 8 spent");
        // 4 tokens/s: one token takes 250 ms to refill.
        assert!(!d.serve_take(SimTime::from_ms(249.0)), "not yet refilled");
        assert!(d.serve_take(SimTime::from_ms(250.0)), "refilled");
        assert!(!d.serve_take(SimTime::from_ms(250.0)));
    }

    #[test]
    fn share_prefers_live_tree_neighbours() {
        let mut d = DiscoveryState::new(&cfg(&[4, 5]), ME, SimTime::from_secs(50));
        d.observe_at(HostId(6), ME, SimTime::from_secs(60));
        let peers = d.share(
            ME,
            HostId(4),
            Some(HostId(2)),
            &[HostId(3)],
            SimTime::from_secs(60),
        );
        // Parent and child lead with age 0; the asker itself is
        // excluded; gossiped view entries follow with their ages.
        assert_eq!(peers[0], (HostId(2), 0.0));
        assert_eq!(peers[1], (HostId(3), 0.0));
        assert!(peers.contains(&(HostId(6), 0.0)));
        assert!(peers.iter().any(|&(h, a)| h == HostId(5) && a == 10.0));
        assert!(!peers.iter().any(|&(h, _)| h == HostId(4)));
    }

    #[test]
    fn coord_ranked_rounds_probe_nearest_first() {
        let mut c = cfg(&[1, 2, 3]);
        c.coord_ranked = true;
        let mut d = DiscoveryState::new(&c, ME, SimTime::ZERO);
        let at = |x: f64| CoordSample {
            coord: Coord([x, 0.0, 0.0, 0.0]),
            err: 0.3,
        };
        d.note_coord(HostId(2), at(1.0));
        d.note_coord(HostId(3), at(5.0));
        // Host 1 has no sample and must sort last despite equal age.
        let t = SimTime::from_secs(1);
        let r = d.begin_round(t, Some(Coord::ZERO));
        assert_eq!(r, vec![HostId(2), HostId(3)]);
        assert_eq!(d.begin_round(t, Some(Coord::ZERO)), vec![HostId(1)]);
        // Without a joiner coordinate the freshest-first order stands.
        let mut d2 = DiscoveryState::new(&c, ME, SimTime::ZERO);
        d2.note_coord(HostId(3), at(0.1));
        assert_eq!(d2.begin_round(t, None), vec![HostId(1), HostId(2)]);
        assert_eq!(d2.coord_of(HostId(3)), Some(at(0.1)));
        assert_eq!(d2.coord_of(HostId(1)), None);
    }
}
