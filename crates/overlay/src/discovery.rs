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
//! machinery, [`crate::walk::scaled_delay`]), and when the whole view
//! is exhausted the join falls back to the plain source walk — from
//! where the existing candidate → ancestor → source recovery hierarchy
//! applies unchanged.
//!
//! Everything here is inert unless a [`DiscoveryConfig`] is installed:
//! no RNG draws, timers, or messages happen otherwise, so runs without
//! discovery stay byte-identical per seed.

use crate::bucket::TokenBucket;
use crate::coords::{Coord, CoordSample};
use vdm_netsim::{HostId, SimTime};

/// Bootstrap-discovery tunables plus the seed peer set. Carried by
/// [`crate::scenario::Scenario`] and distributed to every agent by the
/// driver; `None` (the default everywhere) keeps the omniscient joins.
#[derive(Clone, Debug, PartialEq)]
pub struct DiscoveryConfig {
    /// The bootstrap set: peers a newcomer knows before joining. May
    /// contain stale entries (departed or never-joining hosts) — that
    /// is the point of the hardening.
    pub seeds: Vec<HostId>,
    /// Concurrent `PeerReq` probes per discovery round.
    pub fanout: usize,
    /// Deadline of a round-0 probe; later rounds scale it by
    /// [`DiscoveryConfig::backoff`] per round.
    pub request_timeout: SimTime,
    /// Exponential deadline multiplier per round (the flash-crowd
    /// absorber: re-probes of a budget-shedding seed space out
    /// exponentially, giving its token bucket time to refill).
    pub backoff: f64,
    /// Uniform ± jitter fraction on probe deadlines (0 draws no RNG).
    pub jitter_frac: f64,
    /// Probe rounds before giving up and falling back to the source
    /// walk.
    pub max_rounds: u32,
    /// Partial-view capacity (freshest entries win).
    pub view_size: usize,
    /// View entries unseen for longer than this are evicted as stale.
    pub max_age: SimTime,
    /// Responder serving budget: sustained `PeerList` replies per
    /// second. A dry bucket drops the request silently — the
    /// requester's timeout+backoff spreads the crowd out.
    pub serve_rate_per_s: f64,
    /// Serving-budget burst capacity.
    pub serve_burst: f64,
    /// Peers shared per `PeerList` reply.
    pub gossip_fanout: usize,
    /// Rank probe targets by virtual-coordinate distance instead of
    /// freshness (coordinate-embedding extension). Only effective when
    /// the agent also runs an embedding; the joiner then probes its
    /// coordinate-nearest view entries first, so the first live
    /// responder — the walk anchor — is already near the joiner's
    /// predicted tree region.
    pub coord_ranked: bool,
}

impl Default for DiscoveryConfig {
    fn default() -> Self {
        Self {
            seeds: Vec::new(),
            fanout: 2,
            request_timeout: SimTime::from_secs(2),
            backoff: 2.0,
            jitter_frac: 0.0,
            max_rounds: 4,
            view_size: 12,
            max_age: SimTime::from_secs(120),
            serve_rate_per_s: 4.0,
            serve_burst: 8.0,
            gossip_fanout: 6,
            coord_ranked: false,
        }
    }
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
/// probe set, and the responder serving bucket. Pure bookkeeping — the
/// agent owns all message/timer side effects.
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
            serve: TokenBucket::full(cfg.serve_burst, now),
        };
        for &h in &cfg.seeds {
            s.observe_at(h, me, now);
        }
        s
    }

    /// The installed tunables.
    pub fn cfg(&self) -> &DiscoveryConfig {
        &self.cfg
    }

    /// Rounds fired so far.
    pub fn round(&self) -> u32 {
        self.round
    }

    /// When the first probe round fired.
    pub fn started_at(&self) -> Option<SimTime> {
        self.started_at
    }

    /// Anchor chosen or fallback taken.
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Mark the episode done (anchor found or fallback taken).
    pub fn finish(&mut self) {
        self.finished = true;
    }

    /// No probes awaiting an answer or deadline.
    pub fn idle(&self) -> bool {
        self.inflight.is_empty()
    }

    /// Whether a cold join has anyone to ask at all (after age
    /// eviction). A configured-but-empty view joins exactly like the
    /// discovery-off path, with no counters touched.
    pub fn has_candidates(&mut self, now: SimTime) -> bool {
        self.evict_stale(now);
        !self.view.is_empty()
    }

    /// Record that `host` was seen (gossip or direct contact) at `at`.
    /// The view keeps the freshest `view_size` entries; `me` is never
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
        if self.view.len() > self.cfg.view_size {
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

    /// Drop entries unseen for longer than `max_age`.
    fn evict_stale(&mut self, now: SimTime) {
        let max_age = self.cfg.max_age;
        self.view
            .retain(|e| now.saturating_sub(e.seen_at) <= max_age);
    }

    /// Remove a dead/stale peer outright (probe deadline expired).
    pub fn retire(&mut self, host: HostId) {
        self.view.retain(|e| e.host != host);
    }

    /// Begin a probe round: evict stale entries and pick up to `fanout`
    /// untried entries, freshest first (host id breaks ties). When
    /// every live entry has been tried and rounds remain, the tried
    /// flags reset — a later pass re-probes seeds that shed us under
    /// load, after the backoff gave their budget time to refill.
    /// Returns the empty vector when the round budget or the view is
    /// exhausted: the caller falls back to the source walk.
    pub fn begin_round(&mut self, now: SimTime) -> Vec<HostId> {
        self.begin_round_from(now, None)
    }

    /// [`DiscoveryState::begin_round`] with an optional joiner
    /// coordinate: when `coord_ranked` is set and a coordinate is
    /// supplied, untried entries are probed nearest-first (entries
    /// without a sample last, freshest-first among equals) instead of
    /// purely freshest-first, so the first live responder is already
    /// near the joiner's predicted region.
    pub fn begin_round_from(&mut self, now: SimTime, self_coord: Option<Coord>) -> Vec<HostId> {
        if self.round >= self.cfg.max_rounds {
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
        let ranked = if self.cfg.coord_ranked {
            self_coord
        } else {
            None
        };
        order.sort_by(|&a, &b| {
            let (ea, eb) = (&self.view[a], &self.view[b]);
            if let Some(c) = ranked {
                let da = ea.coord.map_or(f64::INFINITY, |s| c.dist(s.coord));
                let db = eb.coord.map_or(f64::INFINITY, |s| c.dist(s.coord));
                if let o @ (std::cmp::Ordering::Less | std::cmp::Ordering::Greater) =
                    da.total_cmp(&db)
                {
                    return o;
                }
            }
            (eb.seen_at, ea.host.0).cmp(&(ea.seen_at, eb.host.0))
        });
        order.truncate(self.cfg.fanout.max(1));
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

    /// Track an in-flight probe.
    pub fn note_inflight(&mut self, nonce: u64, target: HostId) {
        self.inflight.push((nonce, target));
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

    /// Take one serving token (refilled at `serve_rate_per_s` up to
    /// `serve_burst`); `false` means the request should be dropped.
    pub fn serve_take(&mut self, now: SimTime) -> bool {
        self.serve
            .refill(now, self.cfg.serve_rate_per_s, self.cfg.serve_burst);
        self.serve.take()
    }

    /// Sample peers to share with `asker`: tree neighbours first (our
    /// parent and children are verified live), then the freshest view
    /// entries, capped at `gossip_fanout`. Ages are attached so the
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
        by_age.sort_by(|a, b| (b.seen_at, a.host.0).cmp(&(a.seen_at, b.host.0)));
        for e in by_age {
            push(e.host, now.saturating_sub(e.seen_at).as_secs(), &mut out);
        }
        out.truncate(self.cfg.gossip_fanout.max(1));
        out
    }

    /// Clear the per-join episode (a graceful leave keeps the warm
    /// view as membership knowledge for the next incarnation).
    pub fn reset_episode(&mut self) {
        self.inflight.clear();
        self.round = 0;
        self.started_at = None;
        self.finished = false;
        for e in &mut self.view {
            e.tried = false;
        }
    }

    /// Current view hosts, freshest first (diagnostics/tests).
    pub fn view_hosts(&self) -> Vec<HostId> {
        let mut by_age: Vec<&ViewEntry> = self.view.iter().collect();
        by_age.sort_by(|a, b| (b.seen_at, a.host.0).cmp(&(a.seen_at, b.host.0)));
        by_age.iter().map(|e| e.host).collect()
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

    #[test]
    fn seeds_populate_the_view_excluding_self() {
        let d = DiscoveryState::new(&cfg(&[1, 2, 99]), ME, SimTime::from_secs(5));
        assert_eq!(d.view_hosts(), vec![HostId(1), HostId(2)]);
    }

    #[test]
    fn rounds_walk_the_view_then_exhaust() {
        let mut d = DiscoveryState::new(&cfg(&[1, 2, 3]), ME, SimTime::ZERO);
        let t = SimTime::from_secs(1);
        let r1 = d.begin_round(t);
        assert_eq!(r1.len(), 2, "fanout-bounded");
        let r2 = d.begin_round(t);
        assert_eq!(r2.len(), 1, "remaining untried entry");
        // A third pass re-probes (tried flags reset) until max_rounds.
        let r3 = d.begin_round(t);
        assert_eq!(r3.len(), 2);
        let r4 = d.begin_round(t);
        assert_eq!(r4.len(), 1);
        assert_eq!(d.begin_round(t), Vec::new(), "round budget exhausted");
    }

    #[test]
    fn age_eviction_retires_stale_entries() {
        let mut d = DiscoveryState::new(&cfg(&[1, 2]), ME, SimTime::ZERO);
        d.observe_at(HostId(7), ME, SimTime::from_secs(100));
        assert!(d.has_candidates(SimTime::from_secs(130)));
        // Seeds stamped at 0 are now older than max_age (120 s); only
        // the fresh gossip survives.
        assert_eq!(d.view_hosts(), vec![HostId(7)]);
        assert!(!d.has_candidates(SimTime::from_secs(500)));
    }

    #[test]
    fn gossiped_ages_backdate_entries() {
        let mut d = DiscoveryState::new(&cfg(&[]), ME, SimTime::ZERO);
        let now = SimTime::from_secs(200);
        d.observe_aged(HostId(5), ME, 30.0, now);
        d.observe_aged(HostId(6), ME, 500.0, now);
        assert!(d.has_candidates(now));
        assert_eq!(d.view_hosts(), vec![HostId(5)], "too-old gossip evicted");
    }

    #[test]
    fn view_caps_at_view_size_keeping_freshest() {
        let mut c = cfg(&[]);
        c.view_size = 3;
        let mut d = DiscoveryState::new(&c, ME, SimTime::ZERO);
        for i in 1..=5u32 {
            d.observe_at(HostId(i), ME, SimTime::from_secs(i as u64));
        }
        assert_eq!(d.view_hosts(), vec![HostId(5), HostId(4), HostId(3)]);
    }

    #[test]
    fn inflight_resolution_and_timeout_race() {
        let mut d = DiscoveryState::new(&cfg(&[1]), ME, SimTime::ZERO);
        d.note_inflight(10, HostId(1));
        d.note_inflight(11, HostId(2));
        assert!(d.resolve_inflight(10, HostId(1)));
        assert!(!d.resolve_inflight(10, HostId(1)), "already resolved");
        assert!(!d.resolve_inflight(11, HostId(3)), "wrong responder");
        assert_eq!(d.timeout_inflight(11), Some(HostId(2)));
        assert_eq!(d.timeout_inflight(11), None, "already timed out");
        assert!(d.idle());
    }

    #[test]
    fn serve_bucket_drains_and_refills() {
        let mut c = cfg(&[]);
        c.serve_rate_per_s = 1.0;
        c.serve_burst = 2.0;
        let mut d = DiscoveryState::new(&c, ME, SimTime::ZERO);
        assert!(d.serve_take(SimTime::ZERO));
        assert!(d.serve_take(SimTime::ZERO));
        assert!(!d.serve_take(SimTime::ZERO), "burst spent");
        assert!(d.serve_take(SimTime::from_secs(1)), "refilled");
        assert!(!d.serve_take(SimTime::from_secs(1)));
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
        c.fanout = 2;
        let mut d = DiscoveryState::new(&c, ME, SimTime::ZERO);
        let at = |x: f64| CoordSample {
            coord: Coord([x, 0.0, 0.0, 0.0]),
            err: 0.3,
        };
        d.note_coord(HostId(2), at(1.0));
        d.note_coord(HostId(3), at(5.0));
        // Host 1 has no sample and must sort last despite equal age.
        let t = SimTime::from_secs(1);
        let r = d.begin_round_from(t, Some(Coord::ZERO));
        assert_eq!(r, vec![HostId(2), HostId(3)]);
        assert_eq!(d.begin_round_from(t, Some(Coord::ZERO)), vec![HostId(1)]);
        // Without a joiner coordinate the freshest-first order stands.
        let mut d2 = DiscoveryState::new(&c, ME, SimTime::ZERO);
        d2.note_coord(HostId(3), at(0.1));
        assert_eq!(d2.begin_round(t), vec![HostId(1), HostId(2)]);
        assert_eq!(d2.coord_of(HostId(3)), Some(at(0.1)));
        assert_eq!(d2.coord_of(HostId(1)), None);
    }

    #[test]
    fn reset_episode_keeps_the_view_warm() {
        let mut d = DiscoveryState::new(&cfg(&[1, 2]), ME, SimTime::ZERO);
        let t = SimTime::from_secs(1);
        d.begin_round(t);
        d.note_inflight(7, HostId(1));
        d.finish();
        d.reset_episode();
        assert!(!d.finished());
        assert!(d.idle());
        assert_eq!(d.round(), 0);
        assert_eq!(d.begin_round(t).len(), 2, "view survived the reset");
    }
}
