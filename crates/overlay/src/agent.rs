//! The message-driven peer agent.
//!
//! [`ProtocolAgent`] is the generic peer: it runs the join walk of
//! [`crate::walk`] under a protocol-specific [`WalkPolicy`], answers
//! queries from other walkers, forwards the stream to its children,
//! reconnects at the grandparent when orphaned (§3.3), optionally
//! refines periodically (§3.4), and recovers from "dark" subtrees via a
//! data-timeout watchdog (a standard liveness mechanism real streaming
//! overlays need; the paper's simulator sidesteps it by making leaves
//! atomic).

use crate::bucket::TokenBucket;
use crate::coords::{CoordSample, CoordsConfig, VivaldiState};
use crate::core::CoreIo;
use crate::msg::{ChildEntry, ConnKind, ConnResult, Msg};
use crate::peer::PeerState;
use crate::repair::{ChunkClass, GapTracker, RepairConfig, RetransmitRing};
use crate::stats::RunStats;
use crate::walk::{Walk, WalkConfig, WalkOutcome, WalkPolicy, WalkPurpose, WALK_TOKEN_BIT};
use rand::Rng;
use std::collections::VecDeque;
use vdm_netsim::{HostId, SendClass, SimTime};

/// Timer token for the periodic refinement trigger.
pub const REFINE_TOKEN: u64 = 1 << 61;
/// Timer token for the data-timeout watchdog.
pub const DATA_WATCH_TOKEN: u64 = 1 << 60;
/// Timer token for retrying a failed walk.
pub const RETRY_TOKEN: u64 = 1 << 59;
/// Timer token for the heartbeat/pruning cycle.
pub const HEARTBEAT_TOKEN: u64 = 1 << 58;
/// Timer token for draining the admission queue.
pub const ADMIT_TOKEN: u64 = 1 << 57;
/// Timer-token namespace bit for failover attempt deadlines (the low
/// bits carry the attempt nonce, which stays far below this bit).
pub const FAILOVER_TOKEN_BIT: u64 = 1 << 56;
/// Timer token for the gap-repair NACK scheduler.
pub const REPAIR_TOKEN: u64 = 1 << 55;
/// Timer-token namespace bit for bootstrap-discovery probe deadlines
/// (the low bits carry the probe nonce, which stays far below this
/// bit).
pub const DISCOVERY_TOKEN_BIT: u64 = 1 << 54;

/// Delay before retrying after a completely failed walk, scaled by
/// [`AgentConfig::retry_backoff`] per consecutive failure.
pub const RETRY_DELAY: SimTime = SimTime(5_000_000);

/// Heartbeat settings for the ungraceful-failure extension: children
/// beacon their parent every `period`; parents prune children silent
/// for `timeout`.
#[derive(Clone, Copy, Debug)]
pub struct HeartbeatConfig {
    /// Beacon interval.
    pub period: SimTime,
    /// Silence threshold after which a child is presumed crashed.
    pub timeout: SimTime,
}

/// Proactive-resilience settings: the ancestor list gossiped down the
/// tree and the ranked backup-parent candidate set harvested from walk
/// probes. An orphan first tries direct connection requests at its
/// candidates/ancestors (milliseconds) and only falls back to the §3.3
/// grandparent walk when all of them are dead, full, or exhausted.
#[derive(Clone, Copy, Debug)]
pub struct ResilienceConfig {
    /// Ancestors retained (root-path suffix, nearest-first).
    pub max_ancestors: usize,
    /// Backup-parent candidates retained (cheapest-first).
    pub max_candidates: usize,
    /// Candidates unprobed for longer than this are dropped.
    pub candidate_ttl: SimTime,
    /// Per-attempt deadline of a direct failover connection request.
    pub failover_timeout: SimTime,
    /// Direct attempts before giving up and walking.
    pub max_attempts: usize,
    /// Order failover targets by virtual-coordinate distance instead of
    /// measured-vdist-then-ancestor order (coordinate-embedding
    /// extension; only effective when the agent runs an embedding).
    pub coord_ranked: bool,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        Self {
            max_ancestors: 4,
            max_candidates: 3,
            candidate_ttl: SimTime::from_secs(180),
            failover_timeout: SimTime::from_secs(2),
            max_attempts: 3,
            coord_ranked: false,
        }
    }
}

/// Rejoin-storm admission control: a token bucket over plain new-child
/// admissions plus a bounded wait queue. Correlated crashes produce a
/// thundering herd of rejoin walks; throttling smooths the herd into
/// the tree instead of letting every interior node thrash, and
/// overflow is shed to siblings via the normal redirect path.
#[derive(Clone, Copy, Debug)]
pub struct AdmissionConfig {
    /// Sustained admissions per second.
    pub rate_per_s: f64,
    /// Token-bucket burst capacity.
    pub burst: f64,
    /// Queue slots for joiners awaiting a token.
    pub queue: usize,
    /// Queued joiners older than this are shed (their walk has long
    /// timed out and restarted elsewhere).
    pub max_wait: SimTime,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            rate_per_s: 2.0,
            burst: 4.0,
            queue: 8,
            max_wait: SimTime::from_secs(3),
        }
    }
}

/// Agent-side tunables.
#[derive(Clone, Copy, Debug)]
pub struct AgentConfig {
    /// Join-walk mechanics (timeouts, retries).
    pub walk: WalkConfig,
    /// Refinement period (§3.4: 3 minutes in simulation, 5 minutes on
    /// PlanetLab); `None` disables refinement, which is the paper's
    /// default for VDM ("In our regular experiments, we don't use
    /// refinement").
    pub refine_period: Option<SimTime>,
    /// Maintain and propagate root paths (HMTP needs them for
    /// refinement; VDM does not and saves the overhead).
    pub maintain_root_path: bool,
    /// Declare the subtree dark and rejoin if no stream data arrives for
    /// this long while connected. `None` disables the watchdog (for
    /// runs without a stream).
    pub data_timeout: Option<SimTime>,
    /// Exponential multiplier on [`RETRY_DELAY`] per consecutive failed
    /// walk (`1.0` keeps the fixed delay; chaos runs back off so a
    /// partitioned node doesn't flood the cut). Jitter follows
    /// `walk.jitter_frac`.
    pub retry_backoff: f64,
    /// Record a delivery-gap sample when the spacing between two
    /// accepted stream chunks reaches this threshold (recovery
    /// observability for chaos runs); `None` disables recording.
    pub gap_threshold: Option<SimTime>,
    /// Child-liveness heartbeats (ungraceful-failure extension);
    /// `None` matches the paper's graceful-leave model.
    pub heartbeat: Option<HeartbeatConfig>,
    /// Backup-parent failover + ancestor-list recovery
    /// (proactive-resilience extension); `None` keeps the paper's pure
    /// grandparent-walk recovery and, crucially, the exact event
    /// sequence of earlier builds.
    pub resilience: Option<ResilienceConfig>,
    /// Rejoin-storm admission control; `None` admits every join
    /// immediately as before.
    pub admission: Option<AdmissionConfig>,
    /// NACK-based stream gap repair; `None` keeps the fire-and-forget
    /// data plane.
    pub repair: Option<RepairConfig>,
    /// Cross-tree repair serving budget (multi-tree extension): a
    /// token bucket over [`Msg::CrossNack`] retransmissions, reusing
    /// the admission-control shape so sibling-tree pulls cannot starve
    /// a parent's own subtree. `None` disables serving (and, with it,
    /// the whole cross-tree path in single-tree runs). Requires
    /// `repair` to be set as well.
    pub cross_repair: Option<AdmissionConfig>,
    /// Vivaldi-style virtual-coordinate embedding (coordinate-guided
    /// joins). `None` — the default — keeps every pre-coordinate byte
    /// sequence: no piggyback fields, no state, no extra RNG draws.
    pub coords: Option<CoordsConfig>,
}

impl Default for AgentConfig {
    fn default() -> Self {
        Self {
            walk: WalkConfig::default(),
            refine_period: None,
            maintain_root_path: false,
            data_timeout: Some(SimTime::from_secs(30)),
            retry_backoff: 1.0,
            gap_threshold: None,
            heartbeat: None,
            resilience: None,
            admission: None,
            repair: None,
            cross_repair: None,
            coords: None,
        }
    }
}

impl AgentConfig {
    /// The chaos-grade control plane over this (the protocol's own)
    /// config: the hardened walk, retry backoff 2, a 15 s data
    /// watchdog, 10 s / 30 s child heartbeats and delivery gaps recorded
    /// from 5 s. Every fault ablation (A7, A8, A10, A11) starts here and
    /// adds only its own mechanisms on top; HMTP keeps its root paths
    /// and refinement.
    pub fn hardened(self) -> Self {
        Self {
            walk: WalkConfig::hardened(),
            retry_backoff: 2.0,
            data_timeout: Some(SimTime::from_secs(15)),
            heartbeat: Some(HeartbeatConfig {
                period: SimTime::from_secs(10),
                timeout: SimTime::from_secs(30),
            }),
            gap_threshold: Some(SimTime::from_secs(5)),
            ..self
        }
    }
}

/// Everything an agent may touch during a callback.
pub struct Ctx<'a> {
    /// The agent's own host id.
    pub me: HostId,
    /// The effect sink (time, sends, timers, run RNG): the event
    /// engine in simulation, a buffered queue under a real runtime
    /// (see [`crate::core`]).
    pub io: &'a mut dyn CoreIo,
    /// Shared run statistics.
    pub stats: &'a mut RunStats,
    /// Noise amplitude for loss estimates (the driver copies
    /// [`crate::driver::DriverConfig::loss_probe_noise`] here).
    pub loss_probe_noise: f64,
}

impl Ctx<'_> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.io.now()
    }

    /// Send a message (control or data, classified automatically).
    pub fn send(&mut self, to: HostId, msg: Msg) {
        if to == self.me {
            return;
        }
        let class = if msg.is_data() {
            SendClass::Data
        } else {
            SendClass::Control
        };
        self.io.send_msg(self.me, to, msg, class);
    }

    /// Arm a timer for this host.
    pub fn timer(&mut self, delay: SimTime, token: u64) {
        self.io.set_timer(self.me, delay, token);
    }

    /// Emit a structured trace event stamped with the current
    /// simulation time. No-op (the closure never runs) unless the
    /// io carries an enabled [`vdm_trace::Tracer`].
    #[inline]
    pub fn trace(&self, f: impl FnOnce() -> vdm_trace::TraceEvent) {
        self.io.tracer().emit(self.io.now().0, f);
    }

    /// Estimate the path loss probability toward `to` (models a probe
    /// train: true path loss plus bounded uniform noise). Used only by
    /// loss-based virtual metrics (Chapter 4); the paper likewise
    /// obtains loss estimates from a measurement service in simulation.
    pub fn estimate_loss(&mut self, to: HostId) -> f64 {
        let p = self.io.path_loss(self.me, to);
        if self.loss_probe_noise > 0.0 {
            let n = self.loss_probe_noise;
            let noise = self.io.rng().gen_range(-n..n);
            (p + noise).clamp(0.0, 0.99)
        } else {
            p
        }
    }
}

/// The driver-facing agent interface.
pub trait OverlayAgent {
    /// The driver tells the peer to join the session.
    fn on_join_cmd(&mut self, ctx: &mut Ctx<'_>);
    /// The driver tells the peer to leave gracefully (notify parent and
    /// children, §3.3).
    fn on_leave_cmd(&mut self, ctx: &mut Ctx<'_>);
    /// A message arrived.
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, from: HostId, msg: Msg);
    /// A timer fired.
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64);
    /// Install bootstrap-discovery state (called by the driver before
    /// `on_join_cmd` when the scenario carries a
    /// [`crate::discovery::DiscoveryConfig`]). Default: ignore — agents
    /// without discovery support keep the omniscient source-anchored
    /// join.
    fn configure_discovery(&mut self, _cfg: &crate::discovery::DiscoveryConfig, _now: SimTime) {}
    /// Multi-tree sessions: should this receiver pull its stripe from
    /// a sibling tree right now — it once had a parent but lost it, or
    /// its stripe has been silent for at least `stall`? Default: never
    /// (agents without cross-tree repair just wait for the rejoin).
    fn wants_cross_repair(&self, _now: SimTime, _stall: SimTime) -> bool {
        false
    }
    /// Multi-tree sessions: one cross-repair opportunity — register the
    /// silent stripe holes up to `latest` and NACK the due ones at
    /// `sibling` (a same-tree virtual id the driver found through a
    /// sibling tree's parent relation). Default: ignore.
    fn cross_repair_tick(&mut self, _ctx: &mut Ctx<'_>, _sibling: HostId, _latest: u64) {}
    /// Source only: emit one stream chunk to the children.
    fn emit_data(&mut self, ctx: &mut Ctx<'_>, seq: u64);
    /// Current parent.
    fn parent(&self) -> Option<HostId>;
    /// Current children.
    fn children(&self) -> Vec<HostId>;
    /// Attached to the tree?
    fn connected(&self) -> bool;
    /// Out-degree limit.
    fn degree_limit(&self) -> u32;
}

/// Builds agents for the driver; one factory per protocol under test.
pub trait AgentFactory {
    /// The agent type this factory produces.
    type Agent: OverlayAgent;
    /// Create the agent for `host` (its `incarnation`-th session entry).
    fn make(
        &self,
        host: HostId,
        source: HostId,
        degree_limit: u32,
        incarnation: u32,
    ) -> Self::Agent;
}

/// One ranked backup-parent candidate (resilience extension).
#[derive(Clone, Copy, Debug)]
struct Candidate {
    host: HostId,
    vdist: crate::VDist,
    /// When the walk last measured this peer (freshness stamp).
    seen_at: SimTime,
}

/// An in-progress direct failover: one connection request in flight at
/// `target`, remaining targets queued behind it.
#[derive(Clone, Debug)]
struct Failover {
    /// Remaining targets as `(host, measured_vdist)`; unmeasured
    /// ancestors carry `VDist::INFINITY` (refreshed on repeat requests
    /// and refinement).
    targets: VecDeque<(HostId, crate::VDist)>,
    /// Host of the in-flight request.
    target: HostId,
    /// Nonce of the in-flight request (ties the response and the
    /// deadline timer to this attempt).
    nonce: u64,
    /// Measured distance of the in-flight request.
    pending_vdist: crate::VDist,
    /// Attempts fired so far.
    attempts: usize,
}

/// A joiner parked in the admission queue.
#[derive(Clone, Copy, Debug)]
struct QueuedJoin {
    from: HostId,
    nonce: u64,
    vdist: crate::VDist,
    at: SimTime,
}

/// The generic protocol peer; `P` supplies the protocol behaviour.
pub struct ProtocolAgent<P: WalkPolicy> {
    state: PeerState,
    cfg: AgentConfig,
    policy: P,
    source: HostId,
    walk: Option<Walk>,
    /// Next walk generation base (nonce namespace), unique across
    /// incarnations.
    gen_next: u64,
    /// Time of the original join command (startup timing anchor).
    join_cmd_at: Option<SimTime>,
    /// Time we were last orphaned (reconnection timing anchor).
    orphaned_at: Option<SimTime>,
    ever_connected: bool,
    refine_armed: bool,
    hb_armed: bool,
    last_data_at: SimTime,
    /// Last heartbeat (or admission) time per child.
    hb_seen: Vec<(HostId, SimTime)>,
    /// Consecutive failed walks (drives retry backoff).
    fail_streak: u32,
    /// Time of the last accepted stream chunk, across reconnections
    /// (delivery-gap observability; `last_data_at` is reset on adoption
    /// to give the watchdog a grace period, so it can't measure gaps).
    last_chunk_at: Option<SimTime>,
    /// Highest [`Msg::ParentChange`] generation stamp seen per sender:
    /// duplicated or stale reordered splice notices are dropped.
    pc_seen: Vec<(HostId, u64)>,
    /// Nearest-first ancestor anchors (resilience extension; empty when
    /// the mechanism is off).
    ancestors: Vec<HostId>,
    /// Ranked backup-parent candidates harvested from walk probes.
    candidates: Vec<Candidate>,
    /// In-progress direct failover (mutually exclusive with a walk).
    failover: Option<Failover>,
    /// Admission token bucket.
    admit: TokenBucket,
    /// Joiners awaiting an admission token.
    admit_queue: VecDeque<QueuedJoin>,
    /// Whether an [`ADMIT_TOKEN`] timer is in flight.
    admit_armed: bool,
    /// Recently forwarded chunks, for answering NACKs (gap repair).
    ring: RetransmitRing,
    /// Chunks we are missing ourselves (gap repair).
    gaps: GapTracker,
    /// Silent stripe holes pulled from a sibling tree (multi-tree cross
    /// repair). Kept apart from `gaps` so the regular repair timer never
    /// burns NACK retries on a dead or starving parent for holes only a
    /// sibling tree can fill.
    cross_gaps: GapTracker,
    /// Whether a [`REPAIR_TOKEN`] timer is in flight.
    repair_armed: bool,
    /// `gaps.lost + cross_gaps.lost` already pushed into the shared run
    /// stats.
    lost_reported: u64,
    /// Cross-tree serving bucket (multi-tree extension; inert without
    /// `cfg.cross_repair`).
    cross: TokenBucket,
    /// Bootstrap-discovery state (`None` keeps the omniscient
    /// source-anchored join byte-identical to pre-discovery runs).
    discovery: Option<crate::discovery::DiscoveryState>,
    /// The host's own Vivaldi state (`None` when the embedding is off).
    /// Handed to each walk by value and copied back on walk finish —
    /// only walks measure RTTs, so no updates race the copy.
    vivaldi: Option<VivaldiState>,
    /// Last piggybacked coordinate sample per peer, bounded; feeds
    /// failover-target ranking and gossip coord attachment.
    peer_coords: Vec<(HostId, CoordSample)>,
}

/// Bound on [`ProtocolAgent::peer_coords`]: oldest entries are evicted
/// first. Sized to a few view/candidate sets' worth of peers.
const PEER_COORD_CAP: usize = 64;

impl<P: WalkPolicy> ProtocolAgent<P> {
    /// New agent.
    pub fn new(
        host: HostId,
        source: HostId,
        degree_limit: u32,
        incarnation: u32,
        cfg: AgentConfig,
        policy: P,
    ) -> Self {
        Self {
            state: PeerState::new(host, degree_limit, host == source),
            cfg,
            policy,
            source,
            walk: None,
            gen_next: (incarnation as u64 + 1) << 32,
            join_cmd_at: None,
            orphaned_at: None,
            ever_connected: false,
            refine_armed: false,
            hb_armed: false,
            last_data_at: SimTime::ZERO,
            hb_seen: Vec::new(),
            fail_streak: 0,
            last_chunk_at: None,
            pc_seen: Vec::new(),
            ancestors: Vec::new(),
            candidates: Vec::new(),
            failover: None,
            admit: TokenBucket::full(cfg.admission.map_or(0.0, |a| a.burst), SimTime::ZERO),
            admit_queue: VecDeque::new(),
            admit_armed: false,
            ring: RetransmitRing::new(cfg.repair.map_or(1, |r| r.ring)),
            gaps: GapTracker::default(),
            cross_gaps: GapTracker::default(),
            repair_armed: false,
            lost_reported: 0,
            cross: TokenBucket::full(cfg.cross_repair.map_or(0.0, |a| a.burst), SimTime::ZERO),
            discovery: None,
            vivaldi: cfg.coords.map(|c| VivaldiState::new(&c)),
            peer_coords: Vec::new(),
        }
    }

    /// Fresh monotone generation stamp for outgoing control messages
    /// (shares the walk-nonce namespace, which `start_walk` re-bases
    /// past whatever we hand out here).
    fn stamp(&mut self) -> u64 {
        let g = self.gen_next;
        self.gen_next += 1;
        g
    }

    /// Retry delay with exponential backoff over the current fail
    /// streak and optional jitter.
    fn schedule_retry(&mut self, ctx: &mut Ctx<'_>) {
        let d = crate::walk::scaled_delay(
            RETRY_DELAY,
            self.cfg.retry_backoff,
            self.fail_streak,
            self.cfg.walk.jitter_frac,
            ctx,
        );
        self.fail_streak = self.fail_streak.saturating_add(1);
        ctx.timer(d, RETRY_TOKEN);
    }

    /// Record child liveness (admission counts as a beacon).
    fn note_child_alive(&mut self, c: HostId, now: SimTime) {
        if let Some(e) = self.hb_seen.iter_mut().find(|(h, _)| *h == c) {
            e.1 = now;
        } else {
            self.hb_seen.push((c, now));
        }
    }

    fn arm_heartbeat(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(hb) = self.cfg.heartbeat {
            if !self.hb_armed {
                self.hb_armed = true;
                ctx.timer(hb.period, HEARTBEAT_TOKEN);
            }
        }
    }

    /// Replace the ancestor list (nearest-first), dedup and truncate
    /// it, and gossip the change down to all children. No-op unless the
    /// resilience mechanism is on.
    fn set_ancestors(&mut self, ctx: &mut Ctx<'_>, proposal: Vec<HostId>) {
        let Some(r) = self.cfg.resilience else { return };
        let mut list: Vec<HostId> = Vec::new();
        for h in proposal {
            if h != self.state.host && !list.contains(&h) {
                list.push(h);
            }
        }
        list.truncate(r.max_ancestors);
        if list == self.ancestors {
            return;
        }
        self.ancestors = list;
        for &(c, _) in &self.state.children {
            ctx.send(
                c,
                Msg::AncestorList {
                    ancestors: self.ancestors.clone(),
                },
            );
        }
    }

    /// Send our current ancestor list to one (newly admitted) child.
    fn gossip_ancestors_to(&mut self, ctx: &mut Ctx<'_>, child: HostId) {
        if self.cfg.resilience.is_some() {
            ctx.send(
                child,
                Msg::AncestorList {
                    ancestors: self.ancestors.clone(),
                },
            );
        }
    }

    /// Our current coordinate sample for piggyback fields (`None` when
    /// the embedding is off — the field then serializes as absent and
    /// the message bytes match pre-coordinate builds).
    fn coord_sample(&self) -> Option<CoordSample> {
        self.vivaldi.map(|s| s.sample())
    }

    /// Cache a peer's piggybacked coordinate sample (bounded,
    /// most-recent wins) and mirror it into the discovery view so
    /// gossip forwards it.
    fn note_peer_coord(&mut self, h: HostId, sample: CoordSample) {
        if h == self.state.host {
            return;
        }
        if let Some(e) = self.peer_coords.iter_mut().find(|(p, _)| *p == h) {
            e.1 = sample;
        } else {
            if self.peer_coords.len() >= PEER_COORD_CAP {
                self.peer_coords.remove(0);
            }
            self.peer_coords.push((h, sample));
        }
        if let Some(d) = self.discovery.as_mut() {
            d.note_coord(h, sample);
        }
    }

    /// The last coordinate sample heard from `h`, if any.
    fn peer_coord_of(&self, h: HostId) -> Option<CoordSample> {
        self.peer_coords
            .iter()
            .find(|(p, _)| *p == h)
            .map(|&(_, s)| s)
    }

    /// Fold a walk's probe measurements into the ranked backup-parent
    /// candidate set (cheapest-first, freshness-stamped, bounded).
    fn merge_candidates(&mut self, harvest: &[(HostId, crate::VDist)], now: SimTime) {
        let Some(r) = self.cfg.resilience else { return };
        for &(h, d) in harvest {
            if h == self.state.host {
                continue;
            }
            if let Some(c) = self.candidates.iter_mut().find(|c| c.host == h) {
                c.vdist = d;
                c.seen_at = now;
            } else {
                self.candidates.push(Candidate {
                    host: h,
                    vdist: d,
                    seen_at: now,
                });
            }
        }
        self.candidates
            .retain(|c| now.saturating_sub(c.seen_at) <= r.candidate_ttl);
        self.candidates
            .sort_by(|a, b| a.vdist.total_cmp(&b.vdist).then(a.host.cmp(&b.host)));
        self.candidates.truncate(r.max_candidates);
    }

    /// Assemble the failover target list (fresh candidates cheapest
    /// first, then unmeasured ancestors nearest first) and fire the
    /// first direct connection request. Returns whether an attempt is
    /// now in flight; `false` means the caller should walk instead.
    fn start_failover(&mut self, ctx: &mut Ctx<'_>, dead: Option<HostId>) -> bool {
        let Some(r) = self.cfg.resilience else {
            return false;
        };
        let now = ctx.now();
        let me = self.state.host;
        let mut targets: VecDeque<(HostId, crate::VDist)> = VecDeque::new();
        for c in &self.candidates {
            if now.saturating_sub(c.seen_at) > r.candidate_ttl
                || c.host == me
                || Some(c.host) == dead
                || self.state.has_child(c.host)
                || targets.iter().any(|&(h, _)| h == c.host)
            {
                continue;
            }
            targets.push_back((c.host, c.vdist));
        }
        for &a in &self.ancestors {
            if a == me
                || Some(a) == dead
                || self.state.has_child(a)
                || targets.iter().any(|&(h, _)| h == a)
            {
                continue;
            }
            targets.push_back((a, crate::VDist::INFINITY));
        }
        if let (true, Some(v)) = (r.coord_ranked, self.vivaldi) {
            // Coordinate-ranked failover: try the target the embedding
            // predicts nearest first. Stable sort with unknown-sample
            // targets at INFINITY, so peers we never heard a coordinate
            // from keep their candidate/ancestor order among themselves.
            let me_coord = v.coord;
            let dist = |h: HostId| {
                self.peer_coords
                    .iter()
                    .find(|(p, _)| *p == h)
                    .map_or(f64::INFINITY, |&(_, s)| me_coord.dist(s.coord))
            };
            let mut v: Vec<(HostId, crate::VDist)> = targets.into();
            v.sort_by(|a, b| dist(a.0).total_cmp(&dist(b.0)));
            targets = v.into();
        }
        targets.truncate(r.max_attempts);
        if targets.is_empty() {
            return false;
        }
        self.failover = Some(Failover {
            targets,
            target: me,
            nonce: 0,
            pending_vdist: crate::VDist::INFINITY,
            attempts: 0,
        });
        self.failover_try_next(ctx)
    }

    /// Fire the next failover connection request. Clears the failover
    /// and returns `false` when targets or the attempt budget run out.
    fn failover_try_next(&mut self, ctx: &mut Ctx<'_>) -> bool {
        let Some(r) = self.cfg.resilience else {
            self.failover = None;
            return false;
        };
        loop {
            let (target, vdist) = match self.failover.as_mut() {
                Some(f) if f.attempts < r.max_attempts => match f.targets.pop_front() {
                    Some(t) => {
                        f.attempts += 1;
                        t
                    }
                    None => {
                        self.failover = None;
                        return false;
                    }
                },
                _ => {
                    self.failover = None;
                    return false;
                }
            };
            if target == self.state.host || self.state.has_child(target) {
                continue;
            }
            let nonce = self.stamp();
            if let Some(f) = self.failover.as_mut() {
                f.target = target;
                f.nonce = nonce;
                f.pending_vdist = vdist;
            }
            ctx.stats.recovery.failover_attempts += 1;
            let attempt = self.failover.as_ref().map_or(0, |f| f.attempts) as u32;
            ctx.trace(|| vdm_trace::TraceEvent::FailoverAttempt {
                host: ctx.me.0,
                target: target.0,
                attempt,
            });
            let coord = self.coord_sample();
            ctx.send(
                target,
                Msg::ConnReq {
                    nonce,
                    kind: ConnKind::Child,
                    vdist,
                    coord,
                },
            );
            ctx.timer(r.failover_timeout, FAILOVER_TOKEN_BIT | nonce);
            return true;
        }
    }

    /// Failover exhausted: fall back to the §3.3 reconnection walk.
    fn failover_fall_back_to_walk(&mut self, ctx: &mut Ctx<'_>) {
        self.failover = None;
        ctx.trace(|| vdm_trace::TraceEvent::FailoverResult {
            host: ctx.me.0,
            ok: false,
            parent: None,
        });
        let start = self.state.grandparent.unwrap_or(self.source);
        self.start_walk(ctx, WalkPurpose::Reconnect, start);
    }

    /// Handle the response to an in-flight failover request.
    fn on_failover_resp(&mut self, ctx: &mut Ctx<'_>, from: HostId, result: ConnResult) {
        match result {
            ConnResult::Accepted {
                grandparent,
                adopted: _,
                root_path,
            } => {
                let f = self.failover.take().expect("active failover");
                if self.state.has_child(from) {
                    // Mutual-adoption race, as in `finish_walk`: undo the
                    // acceptor's bookkeeping and keep trying elsewhere.
                    ctx.send(from, Msg::ChildLeave);
                    self.failover = Some(f);
                    if !self.failover_try_next(ctx) {
                        self.failover_fall_back_to_walk(ctx);
                    }
                    return;
                }
                let started = self.orphaned_at.unwrap_or_else(|| ctx.now());
                let took = (ctx.now() - started).as_secs();
                ctx.stats.reconnection_s.push(took);
                ctx.stats
                    .recovery
                    .reconnections
                    .push((ctx.now().as_secs(), took));
                ctx.stats.recovery.failover_successes += 1;
                ctx.stats.join_completions += 1;
                ctx.trace(|| vdm_trace::TraceEvent::FailoverResult {
                    host: ctx.me.0,
                    ok: true,
                    parent: Some(from.0),
                });
                self.adopt_parent(
                    ctx,
                    from,
                    grandparent,
                    root_path,
                    Vec::new(),
                    f.pending_vdist,
                );
            }
            ConnResult::Redirect { next } => {
                // The target is full but offered its closest child: try
                // it ahead of the remaining targets.
                if next != self.state.host {
                    if let Some(f) = self.failover.as_mut() {
                        f.targets.push_front((next, crate::VDist::INFINITY));
                    }
                }
                if !self.failover_try_next(ctx) {
                    self.failover_fall_back_to_walk(ctx);
                }
            }
            ConnResult::Rejected => {
                ctx.stats.rejected_conns += 1;
                if !self.failover_try_next(ctx) {
                    self.failover_fall_back_to_walk(ctx);
                }
            }
        }
    }

    /// Arm the queue-drain timer for roughly when the next token lands.
    fn arm_admit_timer(&mut self, ctx: &mut Ctx<'_>, a: &AdmissionConfig) {
        if self.admit_armed {
            return;
        }
        self.admit_armed = true;
        let deficit = (1.0 - self.admit.tokens()).max(0.0);
        let secs = if a.rate_per_s > 0.0 {
            deficit / a.rate_per_s
        } else {
            1.0
        };
        ctx.timer(SimTime::from_ms((secs * 1000.0).max(1.0)), ADMIT_TOKEN);
    }

    /// Admit queued joiners as tokens refill; shed stale or
    /// no-longer-valid entries.
    fn drain_admit_queue(&mut self, ctx: &mut Ctx<'_>, a: &AdmissionConfig) {
        let now = ctx.now();
        self.admit.refill(now, a.rate_per_s, a.burst);
        while let Some(&q) = self.admit_queue.front() {
            if now.saturating_sub(q.at) > a.max_wait {
                // The walker has long timed out and restarted; shed it
                // toward a sibling rather than ghost-admitting it.
                self.admit_queue.pop_front();
                ctx.stats.recovery.joins_shed += 1;
                ctx.trace(|| vdm_trace::TraceEvent::AdmissionShed {
                    host: ctx.me.0,
                    joiner: q.from.0,
                });
                self.redirect_or_reject(ctx, q.from, q.nonce);
                continue;
            }
            // Re-validate against current state: we may have filled up,
            // started a walk, or adopted the joiner as an ancestor
            // since it was queued.
            let ok = self.state.connected()
                && self.walk.is_none()
                && self.failover.is_none()
                && Some(q.from) != self.state.parent
                && !self.ancestors.contains(&q.from)
                && !self.state.has_child(q.from)
                && self.state.free_degree() > 0;
            if !ok {
                self.admit_queue.pop_front();
                ctx.send(
                    q.from,
                    Msg::ConnResp {
                        nonce: q.nonce,
                        result: ConnResult::Rejected,
                    },
                );
                continue;
            }
            if !self.admit.take() {
                break;
            }
            self.admit_queue.pop_front();
            self.accept_new_child(ctx, q.from, q.nonce, q.vdist);
        }
        if !self.admit_queue.is_empty() {
            self.arm_admit_timer(ctx, a);
        }
    }

    /// Admit `from` as a plain new child and acknowledge it.
    fn accept_new_child(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: HostId,
        nonce: u64,
        vdist: crate::VDist,
    ) {
        self.state.add_child(from, vdist);
        self.note_child_alive(from, ctx.now());
        self.arm_heartbeat(ctx);
        let root_path = if self.cfg.maintain_root_path {
            self.own_path()
        } else {
            Vec::new()
        };
        ctx.send(
            from,
            Msg::ConnResp {
                nonce,
                result: ConnResult::Accepted {
                    grandparent: self.state.parent,
                    adopted: Vec::new(),
                    root_path,
                },
            },
        );
        self.gossip_ancestors_to(ctx, from);
    }

    /// Point the requester at our closest child (§3.2), or reject when
    /// we have none to offer.
    fn redirect_or_reject(&mut self, ctx: &mut Ctx<'_>, from: HostId, nonce: u64) {
        match self.state.closest_child(&[from]) {
            Some((next, _)) => ctx.send(
                from,
                Msg::ConnResp {
                    nonce,
                    result: ConnResult::Redirect { next },
                },
            ),
            None => ctx.send(
                from,
                Msg::ConnResp {
                    nonce,
                    result: ConnResult::Rejected,
                },
            ),
        }
    }

    /// Push newly declared-lost chunks into the shared run stats.
    fn sync_lost(&mut self, ctx: &mut Ctx<'_>) {
        let total = self.gaps.lost + self.cross_gaps.lost;
        let d = total - self.lost_reported;
        if d > 0 {
            ctx.stats.recovery.chunks_lost += d;
            self.lost_reported = total;
        }
    }

    /// Arm the NACK scheduler for the earliest missing-chunk deadline,
    /// keeping at most one timer in flight.
    fn arm_repair_timer(&mut self, ctx: &mut Ctx<'_>) {
        if self.cfg.repair.is_none() || self.repair_armed {
            return;
        }
        if let Some(due) = self.gaps.next_due() {
            self.repair_armed = true;
            ctx.timer(due.saturating_sub(ctx.now()), REPAIR_TOKEN);
        }
    }

    /// Deliver one accepted chunk: count it, record gap observability
    /// (fresh arrivals only), refresh parent liveness, retain it for
    /// NACK answers, and forward downstream.
    fn deliver_chunk(&mut self, ctx: &mut Ctx<'_>, seq: u64, fresh: bool) {
        ctx.stats.received[ctx.me.idx()] += 1;
        let now = ctx.now();
        if fresh {
            if let (Some(thr), Some(prev)) = (self.cfg.gap_threshold, self.last_chunk_at) {
                let gap = now.saturating_sub(prev);
                if gap >= thr {
                    ctx.stats
                        .recovery
                        .delivery_gaps
                        .push((now.as_secs(), gap.as_secs()));
                }
            }
            self.last_chunk_at = Some(now);
        }
        self.last_data_at = now;
        if self.cfg.repair.is_some() {
            self.ring.record(seq);
        }
        self.forward_data(ctx, seq);
    }

    /// Peer state (for tests and diagnostics).
    pub fn state(&self) -> &PeerState {
        &self.state
    }

    /// Gap-repair bookkeeping (for tests and diagnostics).
    pub fn gaps(&self) -> &GapTracker {
        &self.gaps
    }

    /// Cross-tree gap bookkeeping (for tests and diagnostics).
    pub fn cross_gaps(&self) -> &GapTracker {
        &self.cross_gaps
    }

    /// The protocol policy.
    pub fn policy(&self) -> &P {
        &self.policy
    }

    fn start_walk(&mut self, ctx: &mut Ctx<'_>, purpose: WalkPurpose, start: HostId) {
        let started_at = match purpose {
            WalkPurpose::Join => self.join_cmd_at.unwrap_or_else(|| ctx.now()),
            WalkPurpose::Reconnect => self.orphaned_at.unwrap_or_else(|| ctx.now()),
            WalkPurpose::Refine => ctx.now(),
        };
        let baseline = if purpose == WalkPurpose::Refine {
            self.state.parent_dist
        } else {
            None
        };
        let coords = match (self.vivaldi, self.cfg.coords) {
            (Some(s), Some(c)) => Some((s, c)),
            _ => None,
        };
        let w = Walk::start(
            purpose,
            start,
            self.source,
            started_at,
            self.cfg.walk,
            self.gen_next,
            baseline,
            coords,
            ctx,
        );
        self.gen_next = w.generation() + 1_000_000; // room for this walk's nonces
        self.walk = Some(w);
    }

    /// Begin bootstrap discovery on a join command. Returns `true` when
    /// a probe round was fired (the walk waits for a discovered
    /// anchor); `false` falls through to the omniscient source-anchored
    /// walk — discovery is off, the episode already ended, or the
    /// bootstrap set is empty (in which case nothing is counted or
    /// traced, so an empty-seed config stays byte-identical to
    /// discovery off).
    fn discovery_begin(&mut self, ctx: &mut Ctx<'_>) -> bool {
        let now = ctx.now();
        let Some(d) = self.discovery.as_mut() else {
            return false;
        };
        if d.finished() {
            return false;
        }
        if d.cfg().seeds.is_empty() && !d.has_candidates(now) {
            return false;
        }
        self.discovery_fire(ctx);
        true
    }

    /// Fire one probe round at the freshest untried view entries; when
    /// the view or the round budget is exhausted, record the fallback
    /// and start the plain source-anchored join walk (from where the
    /// candidate → ancestor → source recovery hierarchy applies
    /// unchanged).
    fn discovery_fire(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let self_coord = self.vivaldi.map(|v| v.coord);
        let (targets, round, timeout, backoff, jitter) = {
            let d = self
                .discovery
                .as_mut()
                .expect("discovery_fire without state");
            let targets = d.begin_round_from(now, self_coord);
            let c = d.cfg();
            (
                targets,
                d.round(),
                c.request_timeout,
                c.backoff,
                c.jitter_frac,
            )
        };
        if targets.is_empty() {
            if let Some(d) = self.discovery.as_mut() {
                d.finish();
            }
            ctx.stats.recovery.discovery_fallbacks += 1;
            ctx.trace(|| vdm_trace::TraceEvent::DiscoveryFallback { host: ctx.me.0 });
            if self.walk.is_none() && !self.state.connected() {
                self.start_walk(ctx, WalkPurpose::Join, self.source);
            }
            return;
        }
        let fanout = targets.len() as u32;
        ctx.trace(|| vdm_trace::TraceEvent::DiscoveryRound {
            host: ctx.me.0,
            round,
            fanout,
        });
        for t in targets {
            let nonce = self.stamp();
            if let Some(d) = self.discovery.as_mut() {
                d.note_inflight(nonce, t);
            }
            ctx.stats.recovery.bootstrap_contacts += 1;
            ctx.send(t, Msg::PeerReq { nonce });
            // Deadlines stretch exponentially across rounds — the same
            // retry machinery as failed walks — which is what lets a
            // shedding seed's serving bucket refill between re-probes.
            let d =
                crate::walk::scaled_delay(timeout, backoff, round.saturating_sub(1), jitter, ctx);
            ctx.timer(d, DISCOVERY_TOKEN_BIT | nonce);
        }
    }

    /// Answer a bootstrap probe out of the serving budget. Nodes that
    /// are not yet attached to the tree (or whose budget is dry) drop
    /// the request silently — the prober's timeout+backoff spreads the
    /// flash crowd out instead of amplifying it.
    fn handle_peer_req(&mut self, ctx: &mut Ctx<'_>, from: HostId, nonce: u64) {
        let now = ctx.now();
        let me = ctx.me;
        let Some(d) = self.discovery.as_mut() else {
            return;
        };
        // The prober is demonstrably alive: gossip it onward.
        d.observe_at(from, me, now);
        if !self.state.connected() || !d.serve_take(now) {
            ctx.stats.recovery.peer_reqs_dropped += 1;
            return;
        }
        ctx.stats.recovery.peer_reqs_served += 1;
        let children: Vec<HostId> = self.state.children.iter().map(|&(c, _)| c).collect();
        let shared = d.share(me, from, self.state.parent, &children, now);
        let coords_on = self.vivaldi.is_some();
        let peers = shared
            .into_iter()
            .map(|(host, age_s)| crate::msg::PeerEntry {
                host,
                age_s,
                // Only attach samples when our own embedding runs, so a
                // coords-off responder gossips byte-identical entries.
                coord: if coords_on {
                    self.peer_coord_of(host)
                        .or_else(|| self.discovery.as_ref().and_then(|d| d.coord_of(host)))
                } else {
                    None
                },
            })
            .collect();
        ctx.send(from, Msg::PeerList { nonce, peers });
    }

    /// A probe answer arrived: fold the gossip into our view and, if
    /// the join is still waiting for an anchor, start the walk at the
    /// responder — an answered probe proves it alive, which is exactly
    /// what makes it a safe entry anchor.
    fn handle_peer_list(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: HostId,
        nonce: u64,
        peers: Vec<crate::msg::PeerEntry>,
    ) {
        let now = ctx.now();
        let me = ctx.me;
        let Some(d) = self.discovery.as_mut() else {
            return;
        };
        if !d.resolve_inflight(nonce, from) {
            return; // stale reply from an earlier round or incarnation
        }
        d.observe_at(from, me, now);
        for p in peers {
            d.observe_aged(p.host, me, p.age_s, now);
            if let Some(s) = p.coord {
                d.note_coord(p.host, s);
            }
        }
        if d.finished() {
            return; // late answer: keep the gossip, anchor already chosen
        }
        d.finish();
        let guided = d.cfg().coord_ranked && self.vivaldi.is_some();
        let took = now.saturating_sub(d.started_at().unwrap_or(now)).as_secs();
        ctx.stats
            .recovery
            .discovery_anchors
            .push((now.as_secs(), took));
        ctx.trace(|| vdm_trace::TraceEvent::DiscoveryAnchor {
            host: ctx.me.0,
            anchor: from.0,
            took_s: took,
        });
        if self.walk.is_none() && !self.state.connected() {
            if guided {
                // The probe order was coordinate-ranked, so the first
                // live responder is the nearest anchor the view offers.
                ctx.stats.recovery.guided_entries += 1;
                ctx.trace(|| vdm_trace::TraceEvent::GuidedEntry {
                    host: ctx.me.0,
                    anchor: from.0,
                });
            }
            self.start_walk(ctx, WalkPurpose::Join, from);
        }
    }

    fn become_orphan(&mut self, ctx: &mut Ctx<'_>, notify_parent: bool) {
        let dead = self.state.parent;
        if let (true, Some(p)) = (notify_parent, self.state.parent) {
            ctx.send(p, Msg::ChildLeave);
        }
        self.state.parent = None;
        self.orphaned_at = Some(ctx.now());
        ctx.stats.recovery.orphan_events += 1;
        ctx.trace(|| vdm_trace::TraceEvent::Orphaned {
            host: ctx.me.0,
            old_parent: dead.map(|p| p.0),
        });
        // Proactive path first: direct requests at pre-validated backup
        // parents cost one RTT instead of a full walk.
        if self.cfg.resilience.is_some() && self.start_failover(ctx, dead) {
            return;
        }
        let start = self.state.grandparent.unwrap_or(self.source);
        self.start_walk(ctx, WalkPurpose::Reconnect, start);
    }

    fn arm_refine(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(p) = self.cfg.refine_period {
            if !self.refine_armed {
                self.refine_armed = true;
                ctx.timer(p, REFINE_TOKEN);
            }
        }
    }

    fn arm_data_watch(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(t) = self.cfg.data_timeout {
            ctx.timer(t, DATA_WATCH_TOKEN);
        }
    }

    /// Our root path including ourselves (what children should prefix
    /// their own paths with), when maintained.
    fn own_path(&self) -> Vec<HostId> {
        let mut p = self.state.root_path.clone();
        p.push(self.state.host);
        p
    }

    fn broadcast_root_path(&mut self, ctx: &mut Ctx<'_>) {
        if !self.cfg.maintain_root_path {
            return;
        }
        let path = self.own_path();
        for &(c, _) in &self.state.children {
            ctx.send(c, Msg::RootPath { path: path.clone() });
        }
    }

    fn adopt_parent(
        &mut self,
        ctx: &mut Ctx<'_>,
        parent: HostId,
        grandparent: Option<HostId>,
        root_path: Vec<HostId>,
        adopted: Vec<(HostId, crate::VDist)>,
        vdist: crate::VDist,
    ) {
        self.state.parent = Some(parent);
        self.state.parent_dist = Some(vdist);
        self.state.grandparent = grandparent;
        ctx.trace(|| vdm_trace::TraceEvent::ParentChange {
            host: ctx.me.0,
            parent: parent.0,
            vdist,
        });
        if self.cfg.maintain_root_path {
            self.state.root_path = root_path;
        }
        // Children adopted via a splice: tell them, then treat them as
        // ordinary children. Transient over-degree is possible if we
        // gained a child while the request was in flight; we honour the
        // adoption anyway rather than orphaning the handed-over child.
        for (c, d) in adopted {
            if !self.state.has_child(c) {
                if self.state.free_degree() > 0 {
                    self.state.add_child(c, d);
                } else {
                    self.state.children.push((c, d));
                }
            }
            self.note_child_alive(c, ctx.now());
            let gen = self.stamp();
            ctx.send(
                c,
                Msg::ParentChange {
                    new_grandparent: Some(parent),
                    gen,
                },
            );
        }
        // Pre-existing children: their grandparent is our new parent.
        for &(c, _) in &self.state.children {
            ctx.send(
                c,
                Msg::GrandparentChange {
                    new_grandparent: parent,
                },
            );
        }
        self.broadcast_root_path(ctx);
        // The new parent cannot be its own backup; free its slot.
        self.candidates.retain(|c| c.host != parent);
        let mut anc = vec![parent];
        anc.extend(grandparent);
        self.set_ancestors(ctx, anc);
        self.ever_connected = true;
        self.fail_streak = 0;
        self.last_data_at = ctx.now();
        self.arm_refine(ctx);
        self.arm_data_watch(ctx);
        self.arm_heartbeat(ctx);
    }

    fn finish_walk(&mut self, ctx: &mut Ctx<'_>, outcome: WalkOutcome) {
        let walk = self.walk.take().expect("finishing an active walk");
        if self.cfg.resilience.is_some() {
            self.merge_candidates(walk.harvest(), ctx.now());
        }
        if let Some(s) = walk.coord_state() {
            self.vivaldi = Some(s);
            for &(h, sample) in walk.coord_harvest() {
                self.note_peer_coord(h, sample);
            }
        }
        match outcome {
            WalkOutcome::Connected {
                parent,
                grandparent,
                root_path,
                adopted,
                vdist_to_parent,
            } => {
                if self.state.has_child(parent) {
                    // Mutual-adoption race: while our request was in
                    // flight the accepted parent became (or stayed) our
                    // child — adopting it would close a cycle. Undo the
                    // acceptor's bookkeeping and treat the walk as
                    // failed.
                    ctx.send(parent, Msg::ChildLeave);
                    if walk.purpose != WalkPurpose::Refine {
                        self.schedule_retry(ctx);
                    }
                    return;
                }
                match walk.purpose {
                    WalkPurpose::Join => {
                        ctx.stats
                            .startup_s
                            .push((ctx.now() - walk.started_at).as_secs());
                        self.adopt_parent(
                            ctx,
                            parent,
                            grandparent,
                            root_path,
                            adopted,
                            vdist_to_parent,
                        );
                    }
                    WalkPurpose::Reconnect => {
                        let took = (ctx.now() - walk.started_at).as_secs();
                        ctx.stats.reconnection_s.push(took);
                        ctx.stats
                            .recovery
                            .reconnections
                            .push((ctx.now().as_secs(), took));
                        self.adopt_parent(
                            ctx,
                            parent,
                            grandparent,
                            root_path,
                            adopted,
                            vdist_to_parent,
                        );
                    }
                    WalkPurpose::Refine => {
                        if Some(parent) == self.state.parent {
                            // Already the best parent; nothing to change.
                            return;
                        }
                        if let Some(old) = self.state.parent {
                            ctx.send(old, Msg::ChildLeave);
                        }
                        self.adopt_parent(
                            ctx,
                            parent,
                            grandparent,
                            root_path,
                            adopted,
                            vdist_to_parent,
                        );
                    }
                }
            }
            WalkOutcome::Failed => {
                if walk.purpose != WalkPurpose::Refine {
                    self.schedule_retry(ctx);
                }
            }
        }
    }

    fn handle_conn_req(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: HostId,
        nonce: u64,
        kind: ConnKind,
        vdist: crate::VDist,
    ) {
        // Dark or detached peers must not accept newcomers; a node
        // mid-walk must not either (two refining siblings would accept
        // each other concurrently and close a 2-cycle — protocols
        // without root paths have no ancestor check to catch it); our
        // own parent as a child is a cycle outright; and a root-path
        // hit means the requester is our ancestor — accepting would
        // loop the tree.
        if !self.state.connected()
            || self.walk.is_some()
            || self.failover.is_some()
            || Some(from) == self.state.parent
            || (self.cfg.maintain_root_path && self.state.root_path.contains(&from))
            || (self.cfg.resilience.is_some() && self.ancestors.contains(&from))
        {
            ctx.send(
                from,
                Msg::ConnResp {
                    nonce,
                    result: ConnResult::Rejected,
                },
            );
            return;
        }
        let root_path = if self.cfg.maintain_root_path {
            self.own_path()
        } else {
            Vec::new()
        };
        let accept = |agent: &mut Self, adopted: Vec<HostId>| Msg::ConnResp {
            nonce,
            result: ConnResult::Accepted {
                grandparent: agent.state.parent,
                adopted,
                root_path: root_path.clone(),
            },
        };
        let displace = match kind {
            ConnKind::Splice { displace } => displace,
            ConnKind::Child => Vec::new(),
        };
        let actual: Vec<HostId> = displace
            .into_iter()
            .filter(|&c| c != from && self.state.has_child(c))
            .collect();
        if !actual.is_empty() {
            // Case II splice: swap the displaced children for the
            // requester; degree can only shrink.
            for &c in &actual {
                self.state.remove_child(c);
            }
            self.state.add_child(from, vdist);
            self.note_child_alive(from, ctx.now());
            self.arm_heartbeat(ctx);
            let msg = accept(self, actual);
            ctx.send(from, msg);
            self.gossip_ancestors_to(ctx, from);
            return;
        }
        if self.state.has_child(from) {
            // Repeat request (e.g. refinement landing on the current
            // parent): refresh the distance.
            self.state.add_child(from, vdist);
            self.note_child_alive(from, ctx.now());
            let msg = accept(self, Vec::new());
            ctx.send(from, msg);
            self.gossip_ancestors_to(ctx, from);
        } else if self.state.free_degree() > 0 {
            if let Some(a) = self.cfg.admission {
                // Rejoin-storm control: plain new-child admissions pay
                // a token; a dry bucket parks the joiner in a bounded
                // queue, and overflow is shed to a sibling.
                self.admit.refill(ctx.now(), a.rate_per_s, a.burst);
                if self.admit.take() {
                    self.accept_new_child(ctx, from, nonce, vdist);
                } else if self.admit_queue.len() < a.queue {
                    ctx.stats.recovery.joins_throttled += 1;
                    ctx.trace(|| vdm_trace::TraceEvent::AdmissionThrottled {
                        host: ctx.me.0,
                        joiner: from.0,
                    });
                    self.admit_queue.push_back(QueuedJoin {
                        from,
                        nonce,
                        vdist,
                        at: ctx.now(),
                    });
                    self.arm_admit_timer(ctx, &a);
                } else {
                    ctx.stats.recovery.joins_shed += 1;
                    ctx.trace(|| vdm_trace::TraceEvent::AdmissionShed {
                        host: ctx.me.0,
                        joiner: from.0,
                    });
                    self.redirect_or_reject(ctx, from, nonce);
                }
            } else {
                self.accept_new_child(ctx, from, nonce, vdist);
            }
        } else {
            // Full: point the requester at our closest child (§3.2 "it
            // connects to the closest free child"; the child redirects
            // again if it is itself full).
            self.redirect_or_reject(ctx, from, nonce);
        }
    }

    fn forward_data(&mut self, ctx: &mut Ctx<'_>, seq: u64) {
        for &(c, _) in &self.state.children {
            ctx.send(c, Msg::Data { seq });
        }
    }
}

impl<P: WalkPolicy> OverlayAgent for ProtocolAgent<P> {
    fn on_join_cmd(&mut self, ctx: &mut Ctx<'_>) {
        if self.state.is_source {
            return;
        }
        if self.join_cmd_at.is_none() {
            self.join_cmd_at = Some(ctx.now());
        }
        if self.walk.is_none() && !self.state.connected() {
            // Bootstrap discovery first: find a live mid-tree anchor to
            // walk from instead of assuming the source address.
            if self.discovery_begin(ctx) {
                return;
            }
            self.start_walk(ctx, WalkPurpose::Join, self.source);
        }
    }

    fn on_leave_cmd(&mut self, ctx: &mut Ctx<'_>) {
        for &(c, _) in &self.state.children {
            ctx.send(c, Msg::Leave);
        }
        if let Some(p) = self.state.parent {
            ctx.send(p, Msg::ChildLeave);
        }
        // Flush the admission queue so parked walkers fail fast instead
        // of timing out against a gone host.
        for q in std::mem::take(&mut self.admit_queue) {
            ctx.send(
                q.from,
                Msg::ConnResp {
                    nonce: q.nonce,
                    result: ConnResult::Rejected,
                },
            );
        }
        self.state.reset();
        self.walk = None;
        self.fail_streak = 0;
        self.last_chunk_at = None;
        self.pc_seen.clear();
        self.ancestors.clear();
        self.candidates.clear();
        self.failover = None;
        self.ring.clear();
        self.gaps.clear();
        self.cross_gaps.clear();
        if let Some(d) = self.discovery.as_mut() {
            // Keep the warm view as membership knowledge; drop the
            // per-join episode (in-flight probes, round counter).
            d.reset_episode();
        }
    }

    fn wants_cross_repair(&self, now: SimTime, stall: SimTime) -> bool {
        self.ever_connected
            && !self.state.is_source
            && (self.state.parent.is_none() || now.saturating_sub(self.last_data_at) >= stall)
    }

    // Multi-tree cross repair: while this peer is cut off from its
    // stripe tree, the driver points it at a connected parent of the
    // *sibling* tree (`sibling`, mapped into this peer's own tree) and
    // tells it how far the stripe has advanced (`latest`). Silent holes
    // are registered (an orphaned subtree sees no watermark jump —
    // without this, its gaps are invisible), then due NACKs go to the
    // sibling instead of the missing parent. No-op unless both repair
    // and cross-repair are configured.
    fn cross_repair_tick(&mut self, ctx: &mut Ctx<'_>, sibling: HostId, latest: u64) {
        let Some(rc) = self.cfg.repair else { return };
        if self.cfg.cross_repair.is_none() || !self.ever_connected || self.state.is_source {
            return;
        }
        self.cross_gaps
            .note_absent(latest, self.state.last_seq, ctx.now(), &rc);
        let batch = self.cross_gaps.due_nacks(ctx.now(), &rc);
        self.sync_lost(ctx);
        if !batch.is_empty() {
            ctx.stats.recovery.cross_nacks_sent += 1;
            ctx.trace(|| vdm_trace::TraceEvent::NackSent {
                host: ctx.me.0,
                parent: sibling.0,
                count: batch.len() as u32,
            });
            ctx.send(sibling, Msg::CrossNack { seqs: batch });
        }
    }

    fn on_msg(&mut self, ctx: &mut Ctx<'_>, from: HostId, msg: Msg) {
        match msg {
            Msg::Ping { nonce } => {
                let coord = self.coord_sample();
                ctx.send(from, Msg::Pong { nonce, coord })
            }
            Msg::InfoReq { nonce } => {
                let children = self
                    .state
                    .children
                    .iter()
                    .map(|&(child, vdist)| ChildEntry { child, vdist })
                    .collect();
                ctx.send(
                    from,
                    Msg::InfoResp {
                        nonce,
                        children,
                        parent: self.state.parent,
                        coord: self.coord_sample(),
                    },
                );
            }
            Msg::ConnReq {
                nonce,
                kind,
                vdist,
                coord,
            } => {
                if let Some(s) = coord {
                    self.note_peer_coord(from, s);
                }
                self.handle_conn_req(ctx, from, nonce, kind, vdist)
            }
            m @ (Msg::InfoResp { .. } | Msg::Pong { .. } | Msg::ConnResp { .. }) => {
                if let Msg::ConnResp { nonce, result } = &m {
                    if self
                        .failover
                        .as_ref()
                        .is_some_and(|f| f.nonce == *nonce && f.target == from)
                    {
                        self.on_failover_resp(ctx, from, result.clone());
                        return;
                    }
                }
                if let Some(mut walk) = self.walk.take() {
                    let free = self.state.free_degree();
                    let outcome = walk.on_msg(ctx, from, &m, &self.policy, free);
                    self.walk = Some(walk);
                    if let Some(out) = outcome {
                        self.finish_walk(ctx, out);
                    }
                }
            }
            Msg::ParentChange {
                new_grandparent,
                gen,
            } => {
                // A splice: `from` claims to be our new parent and our
                // old parent should now be our grandparent. The
                // generation stamp makes handling idempotent: a
                // duplicated or reordered-stale copy is dropped here
                // instead of being misread as a bogus splice (which
                // would make us ChildLeave our own parent).
                let seen = self.pc_seen.iter_mut().find(|(h, _)| *h == from);
                match seen {
                    Some(e) if gen <= e.1 => return,
                    Some(e) => e.1 = gen,
                    None => self.pc_seen.push((from, gen)),
                }
                if Some(from) == self.state.parent {
                    // Splice already applied (e.g. the first copy of a
                    // duplicated notice arrived out of stamp order):
                    // nothing to change.
                    return;
                }
                if new_grandparent == self.state.parent {
                    self.state.parent = Some(from);
                    self.state.parent_dist = None;
                    self.state.grandparent = new_grandparent;
                    if self.cfg.maintain_root_path {
                        self.state.root_path.push(from);
                        self.broadcast_root_path(ctx);
                    }
                    for &(c, _) in &self.state.children {
                        ctx.send(
                            c,
                            Msg::GrandparentChange {
                                new_grandparent: from,
                            },
                        );
                    }
                    // The splicer slots in directly above us.
                    let mut anc = vec![from];
                    anc.extend(self.ancestors.clone());
                    self.set_ancestors(ctx, anc);
                } else {
                    ctx.send(from, Msg::ChildLeave);
                }
            }
            Msg::GrandparentChange { new_grandparent } => {
                if Some(from) == self.state.parent {
                    self.state.grandparent = Some(new_grandparent);
                    // Deeper ancestors are stale until the parent's
                    // AncestorList gossip arrives.
                    self.set_ancestors(ctx, vec![from, new_grandparent]);
                }
            }
            Msg::AncestorList { ancestors } => {
                if self.cfg.resilience.is_some() && Some(from) == self.state.parent {
                    let mut anc = vec![from];
                    anc.extend(ancestors);
                    self.set_ancestors(ctx, anc);
                }
            }
            Msg::RootPath { path } => {
                if self.cfg.maintain_root_path && Some(from) == self.state.parent {
                    self.state.root_path = path;
                    self.broadcast_root_path(ctx);
                }
            }
            Msg::Leave => {
                if Some(from) == self.state.parent {
                    self.state.parent_dist = None;
                    self.become_orphan(ctx, false);
                }
            }
            Msg::Heartbeat => {
                if self.state.has_child(from) {
                    self.note_child_alive(from, ctx.now());
                } else {
                    // A peer beacons us as its parent, but we dropped it
                    // (e.g. pruned after a false alarm): tell it to
                    // re-home.
                    ctx.send(from, Msg::Leave);
                }
            }
            Msg::ChildLeave => {
                self.state.remove_child(from);
                self.hb_seen.retain(|(h, _)| *h != from);
            }
            Msg::Nack { seqs } => {
                if self.cfg.repair.is_some() && self.state.has_child(from) {
                    for seq in seqs {
                        if self.ring.contains(seq) {
                            ctx.send(from, Msg::Data { seq });
                        }
                    }
                }
            }
            Msg::Data { seq } => {
                if Some(from) != self.state.parent {
                    return;
                }
                if let Some(rc) = self.cfg.repair {
                    // A chunk a cross-tree NACK is chasing may race in
                    // through the recovered tree; stop re-asking.
                    self.cross_gaps.resolve(seq);
                    match self.gaps.on_chunk(seq, self.state.last_seq, ctx.now(), &rc) {
                        ChunkClass::Fresh => {
                            self.state.last_seq = Some(seq);
                            self.deliver_chunk(ctx, seq, true);
                            self.sync_lost(ctx);
                            self.arm_repair_timer(ctx);
                        }
                        ChunkClass::Repaired => {
                            ctx.stats.recovery.chunks_repaired += 1;
                            ctx.trace(|| vdm_trace::TraceEvent::ChunkRepaired {
                                host: ctx.me.0,
                                seq,
                            });
                            self.deliver_chunk(ctx, seq, false);
                        }
                        ChunkClass::Duplicate => {}
                    }
                } else if self.state.accept_seq(seq) {
                    self.deliver_chunk(ctx, seq, true);
                }
            }
            Msg::CrossNack { seqs } => {
                // Serve a sibling-tree orphan out of our ring, bounded
                // by the cross-repair token bucket so these pulls can
                // never starve our own subtree's repair traffic.
                let Some(a) = self.cfg.cross_repair else {
                    return;
                };
                if self.cfg.repair.is_none() || !self.state.connected() {
                    return;
                }
                self.cross.refill(ctx.now(), a.rate_per_s, a.burst);
                for seq in seqs {
                    if self.ring.contains(seq) {
                        if !self.cross.take() {
                            break;
                        }
                        ctx.send(from, Msg::CrossData { seq });
                    }
                }
            }
            Msg::CrossData { seq } => {
                let Some(rc) = self.cfg.repair else { return };
                if self.cfg.cross_repair.is_none() {
                    return;
                }
                // Stripe-ownership invariant: a cross retransmission
                // must carry a chunk of *our* stripe — anything else
                // means repair asked a tree that does not own the
                // sequence. Counted (and dropped) so tests can assert
                // it never happens.
                if rc.stride > 1 && seq % rc.stride != rc.stripe {
                    ctx.stats.recovery.cross_stripe_violations += 1;
                    return;
                }
                let was_pending = self.cross_gaps.resolve(seq);
                match self.gaps.on_chunk(seq, self.state.last_seq, ctx.now(), &rc) {
                    ChunkClass::Fresh => {
                        self.state.last_seq = Some(seq);
                        ctx.stats.recovery.cross_repaired += 1;
                        ctx.trace(|| vdm_trace::TraceEvent::ChunkRepaired {
                            host: ctx.me.0,
                            seq,
                        });
                        self.deliver_chunk(ctx, seq, true);
                        self.sync_lost(ctx);
                        self.arm_repair_timer(ctx);
                    }
                    ChunkClass::Repaired => {
                        ctx.stats.recovery.cross_repaired += 1;
                        ctx.trace(|| vdm_trace::TraceEvent::ChunkRepaired {
                            host: ctx.me.0,
                            seq,
                        });
                        self.deliver_chunk(ctx, seq, false);
                    }
                    // The watermark advanced past this hole while its
                    // cross NACK was in flight (retransmissions landing
                    // out of order); it is still a first delivery.
                    ChunkClass::Duplicate if was_pending => {
                        ctx.stats.recovery.cross_repaired += 1;
                        ctx.trace(|| vdm_trace::TraceEvent::ChunkRepaired {
                            host: ctx.me.0,
                            seq,
                        });
                        self.deliver_chunk(ctx, seq, false);
                    }
                    ChunkClass::Duplicate => {}
                }
            }
            Msg::PeerReq { nonce } => self.handle_peer_req(ctx, from, nonce),
            Msg::PeerList { nonce, peers } => self.handle_peer_list(ctx, from, nonce, peers),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token & WALK_TOKEN_BIT != 0 {
            if let Some(mut walk) = self.walk.take() {
                let free = self.state.free_degree();
                let outcome = walk.on_timer(ctx, token, &self.policy, free);
                self.walk = Some(walk);
                if let Some(out) = outcome {
                    self.finish_walk(ctx, out);
                }
            }
            return;
        }
        if token & FAILOVER_TOKEN_BIT != 0 {
            let nonce = token & !FAILOVER_TOKEN_BIT;
            if self.failover.as_ref().is_some_and(|f| f.nonce == nonce) && !self.state.connected() {
                // The attempt timed out (target crashed or unreachable).
                if !self.failover_try_next(ctx) {
                    self.failover_fall_back_to_walk(ctx);
                }
            }
            return;
        }
        if token & DISCOVERY_TOKEN_BIT != 0 {
            let nonce = token & !DISCOVERY_TOKEN_BIT;
            let mut fire = false;
            if let Some(d) = self.discovery.as_mut() {
                if let Some(dead) = d.timeout_inflight(nonce) {
                    // An unanswered probe marks its target stale: retire
                    // it so later rounds (and gossip we forward) stop
                    // pointing at a departed host.
                    ctx.stats.recovery.stale_peer_hits += 1;
                    d.retire(dead);
                    fire = !d.finished() && d.idle();
                }
            }
            if fire {
                self.discovery_fire(ctx);
            }
            return;
        }
        match token {
            REFINE_TOKEN => {
                if let Some(p) = self.cfg.refine_period {
                    if self.state.connected() && !self.state.is_source && self.walk.is_none() {
                        let start =
                            self.policy
                                .refine_start(&self.state, self.source, ctx.io.rng());
                        self.start_walk(ctx, WalkPurpose::Refine, start);
                    }
                    ctx.timer(p, REFINE_TOKEN);
                }
            }
            DATA_WATCH_TOKEN => {
                if let Some(t) = self.cfg.data_timeout {
                    if self.state.connected() && !self.state.is_source {
                        let silent = ctx.now().saturating_sub(self.last_data_at);
                        if silent >= t && self.walk.is_none() {
                            // Dark subtree: abandon the parent and rejoin.
                            self.become_orphan(ctx, true);
                        }
                        ctx.timer(t, DATA_WATCH_TOKEN);
                    }
                }
            }
            HEARTBEAT_TOKEN => {
                if let Some(hb) = self.cfg.heartbeat {
                    // Beacon our parent.
                    if let Some(p) = self.state.parent {
                        ctx.send(p, Msg::Heartbeat);
                    }
                    // Prune silent children (presumed crashed) so their
                    // degree slots become available again.
                    let now = ctx.now();
                    let stale: Vec<HostId> = self
                        .hb_seen
                        .iter()
                        .filter(|&&(_, t)| now.saturating_sub(t) >= hb.timeout)
                        .map(|&(h, _)| h)
                        .collect();
                    for c in stale {
                        self.state.remove_child(c);
                        self.hb_seen.retain(|(h, _)| *h != c);
                    }
                    ctx.timer(hb.period, HEARTBEAT_TOKEN);
                }
            }
            ADMIT_TOKEN => {
                if let Some(a) = self.cfg.admission {
                    self.admit_armed = false;
                    self.drain_admit_queue(ctx, &a);
                }
            }
            REPAIR_TOKEN => {
                if let Some(rc) = self.cfg.repair {
                    self.repair_armed = false;
                    if self.state.parent.is_none() && self.cfg.cross_repair.is_some() {
                        // Orphaned in a multi-tree session: leave the
                        // due state to the cross-repair ticks instead
                        // of burning NACK retries on a missing parent.
                        return;
                    }
                    let batch = self.gaps.due_nacks(ctx.now(), &rc);
                    self.sync_lost(ctx);
                    if !batch.is_empty() {
                        // Orphans hold their NACKs; the retry state was
                        // bumped, so they re-fire after reconnecting.
                        if let Some(p) = self.state.parent {
                            ctx.stats.recovery.nacks_sent += 1;
                            ctx.trace(|| vdm_trace::TraceEvent::NackSent {
                                host: ctx.me.0,
                                parent: p.0,
                                count: batch.len() as u32,
                            });
                            ctx.send(p, Msg::Nack { seqs: batch });
                        }
                    }
                    self.arm_repair_timer(ctx);
                }
            }
            RETRY_TOKEN
                if !self.state.connected()
                    && !self.state.is_source
                    && self.walk.is_none()
                    && self.failover.is_none() =>
            {
                let purpose = if self.ever_connected {
                    WalkPurpose::Reconnect
                } else {
                    WalkPurpose::Join
                };
                // With resilience on, rotate the anchor deeper into the
                // ancestor list as the fail streak grows: a dead
                // grandparent stops costing a full walk timeout on
                // every single retry.
                let start = match self.cfg.resilience {
                    Some(_) if !self.ancestors.is_empty() => {
                        let i = (self.fail_streak as usize).min(self.ancestors.len() - 1);
                        self.ancestors[i]
                    }
                    _ => self.state.grandparent.unwrap_or(self.source),
                };
                self.start_walk(ctx, purpose, start);
            }
            _ => {}
        }
    }

    fn emit_data(&mut self, ctx: &mut Ctx<'_>, seq: u64) {
        debug_assert!(self.state.is_source);
        if self.cfg.repair.is_some() {
            self.ring.record(seq);
        }
        self.forward_data(ctx, seq);
    }

    fn parent(&self) -> Option<HostId> {
        self.state.parent
    }

    fn children(&self) -> Vec<HostId> {
        self.state.children.iter().map(|&(c, _)| c).collect()
    }

    fn connected(&self) -> bool {
        self.state.connected()
    }

    fn degree_limit(&self) -> u32 {
        self.state.degree_limit
    }

    fn configure_discovery(&mut self, cfg: &crate::discovery::DiscoveryConfig, now: SimTime) {
        // Every agent gets the state: joiners probe out of it, and any
        // attached node (the source included) answers probes out of its
        // serving budget.
        self.discovery = Some(crate::discovery::DiscoveryState::new(
            cfg,
            self.state.host,
            now,
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{ChildEntry, ConnKind, ConnResult};
    use crate::walk::{ProbeResult, WalkStep};
    use std::sync::Arc;
    use vdm_netsim::{Engine, LatencySpace, World};

    /// Minimal policy: always attach to the node under examination.
    struct Attach;
    impl WalkPolicy for Attach {
        fn vdist(&self, rtt_ms: f64, _l: f64) -> f64 {
            rtt_ms
        }
        fn decide(&self, _p: &ProbeResult, _purpose: WalkPurpose) -> WalkStep {
            WalkStep::Attach { splice: vec![] }
        }
    }

    /// Records everything the agent under test (host 0) sends out.
    struct Recorder {
        agent: ProtocolAgent<Attach>,
        outbox: Vec<(HostId, Msg)>,
    }

    impl World for Recorder {
        type Msg = Msg;
        fn on_deliver(&mut self, eng: &mut Engine<Msg>, to: HostId, from: HostId, msg: Msg) {
            if to == HostId(0) {
                let mut stats = RunStats::new(8);
                let mut ctx = Ctx {
                    me: HostId(0),
                    io: eng,
                    stats: &mut stats,
                    loss_probe_noise: 0.0,
                };
                self.agent.on_msg(&mut ctx, from, msg);
            } else {
                self.outbox.push((to, msg));
            }
        }
        fn on_timer(&mut self, eng: &mut Engine<Msg>, host: HostId, token: u64) {
            if host == HostId(0) {
                let mut stats = RunStats::new(8);
                let mut ctx = Ctx {
                    me: HostId(0),
                    io: eng,
                    stats: &mut stats,
                    loss_probe_noise: 0.0,
                };
                self.agent.on_timer(&mut ctx, token);
            }
        }
        fn on_external(&mut self, _: &mut Engine<Msg>, _: u64) {}
    }

    fn space() -> Arc<LatencySpace> {
        let n = 8;
        let mut rtt = vec![vec![0.0; n]; n];
        for (i, row) in rtt.iter_mut().enumerate() {
            for (j, v) in row.iter_mut().enumerate() {
                if i != j {
                    *v = 10.0;
                }
            }
        }
        Arc::new(LatencySpace::from_rtt_matrix(&rtt))
    }

    /// Agent for host 0 with the given config; not the source unless
    /// `source` says so.
    fn harness(cfg: AgentConfig, is_source: bool) -> (Engine<Msg>, Recorder) {
        let eng = Engine::new(space(), 1);
        let source = if is_source { HostId(0) } else { HostId(7) };
        let agent = ProtocolAgent::new(HostId(0), source, 2, 0, cfg, Attach);
        (
            eng,
            Recorder {
                agent,
                outbox: Vec::new(),
            },
        )
    }

    /// Deliver a message to the agent "from" another host and run the
    /// engine for a bounded window (the agent retries failed joins
    /// forever by design, so running to idle would never return).
    fn inject(eng: &mut Engine<Msg>, world: &mut Recorder, from: HostId, msg: Msg) {
        world.on_deliver(eng, HostId(0), from, msg);
        let until = eng.now() + SimTime::from_ms(300.0);
        eng.run(world, until);
    }

    fn take_to(world: &mut Recorder, to: HostId) -> Vec<Msg> {
        let (mine, rest): (Vec<_>, Vec<_>) = std::mem::take(&mut world.outbox)
            .into_iter()
            .partition(|(t, _)| *t == to);
        world.outbox = rest;
        mine.into_iter().map(|(_, m)| m).collect()
    }

    /// Wire host 0 up as: parent 1, grandparent 2, child 3 (dist 4.0).
    fn connected_agent() -> (Engine<Msg>, Recorder) {
        let (eng, mut w) = harness(AgentConfig::default(), false);
        w.agent.state.parent = Some(HostId(1));
        w.agent.state.grandparent = Some(HostId(2));
        w.agent.state.parent_dist = Some(10.0);
        w.agent.state.add_child(HostId(3), 4.0);
        (eng, w)
    }

    #[test]
    fn info_req_reports_children_and_parent() {
        let (mut eng, mut w) = connected_agent();
        inject(&mut eng, &mut w, HostId(5), Msg::InfoReq { nonce: 9 });
        let sent = take_to(&mut w, HostId(5));
        assert_eq!(
            sent,
            vec![Msg::InfoResp {
                nonce: 9,
                children: vec![ChildEntry {
                    child: HostId(3),
                    vdist: 4.0
                }],
                parent: Some(HostId(1)),
                coord: None,
            }]
        );
    }

    #[test]
    fn ping_pong() {
        let (mut eng, mut w) = connected_agent();
        inject(&mut eng, &mut w, HostId(4), Msg::Ping { nonce: 3 });
        assert_eq!(
            take_to(&mut w, HostId(4)),
            vec![Msg::Pong {
                nonce: 3,
                coord: None
            }]
        );
    }

    #[test]
    fn conn_req_accepts_until_full_then_redirects() {
        let (mut eng, mut w) = connected_agent();
        // One slot free (limit 2, child 3 present): accept host 5.
        inject(
            &mut eng,
            &mut w,
            HostId(5),
            Msg::ConnReq {
                nonce: 1,
                kind: ConnKind::Child,
                vdist: 6.0,
                coord: None,
            },
        );
        let sent = take_to(&mut w, HostId(5));
        assert!(matches!(
            &sent[0],
            Msg::ConnResp {
                nonce: 1,
                result: ConnResult::Accepted { grandparent: Some(p), .. }
            } if *p == HostId(1)
        ));
        assert!(w.agent.state.has_child(HostId(5)));
        // Now full: host 6 gets redirected to the closest child (3).
        inject(
            &mut eng,
            &mut w,
            HostId(6),
            Msg::ConnReq {
                nonce: 2,
                kind: ConnKind::Child,
                vdist: 8.0,
                coord: None,
            },
        );
        let sent = take_to(&mut w, HostId(6));
        assert_eq!(
            sent,
            vec![Msg::ConnResp {
                nonce: 2,
                result: ConnResult::Redirect { next: HostId(3) }
            }]
        );
    }

    #[test]
    fn unconnected_peers_reject_conn_requests() {
        let (mut eng, mut w) = harness(AgentConfig::default(), false);
        inject(
            &mut eng,
            &mut w,
            HostId(5),
            Msg::ConnReq {
                nonce: 7,
                kind: ConnKind::Child,
                vdist: 1.0,
                coord: None,
            },
        );
        assert_eq!(
            take_to(&mut w, HostId(5)),
            vec![Msg::ConnResp {
                nonce: 7,
                result: ConnResult::Rejected
            }]
        );
    }

    #[test]
    fn splice_swaps_children_even_when_full() {
        let (mut eng, mut w) = connected_agent();
        w.agent.state.add_child(HostId(4), 9.0); // now full (limit 2)
        inject(
            &mut eng,
            &mut w,
            HostId(5),
            Msg::ConnReq {
                nonce: 1,
                kind: ConnKind::Splice {
                    displace: vec![HostId(3), HostId(6)], // 6 is not ours
                },
                vdist: 2.0,
                coord: None,
            },
        );
        let sent = take_to(&mut w, HostId(5));
        match &sent[0] {
            Msg::ConnResp {
                result: ConnResult::Accepted { adopted, .. },
                ..
            } => assert_eq!(adopted, &vec![HostId(3)]),
            other => panic!("unexpected {other:?}"),
        }
        assert!(!w.agent.state.has_child(HostId(3)));
        assert!(w.agent.state.has_child(HostId(5)));
        assert!(w.agent.state.has_child(HostId(4)));
    }

    #[test]
    fn parent_change_validates_grandparent() {
        let (mut eng, mut w) = connected_agent();
        // Valid splice: claimed grandparent equals our current parent.
        inject(
            &mut eng,
            &mut w,
            HostId(6),
            Msg::ParentChange {
                new_grandparent: Some(HostId(1)),
                gen: 1,
            },
        );
        assert_eq!(w.agent.state.parent, Some(HostId(6)));
        assert_eq!(w.agent.state.grandparent, Some(HostId(1)));
        // Our child was told about its new grandparent.
        let to_child = take_to(&mut w, HostId(3));
        assert!(to_child.contains(&Msg::GrandparentChange {
            new_grandparent: HostId(6)
        }));
        // Stale splice: claimed grandparent no longer matches -> refuse.
        inject(
            &mut eng,
            &mut w,
            HostId(4),
            Msg::ParentChange {
                new_grandparent: Some(HostId(9)),
                gen: 1,
            },
        );
        assert_eq!(w.agent.state.parent, Some(HostId(6)));
        assert_eq!(take_to(&mut w, HostId(4)), vec![Msg::ChildLeave]);
    }

    /// A duplicated ParentChange must not make the child ChildLeave its
    /// own (new) parent: the second copy carries the same stamp and is
    /// dropped.
    #[test]
    fn duplicated_parent_change_is_idempotent() {
        let (mut eng, mut w) = connected_agent();
        let splice = Msg::ParentChange {
            new_grandparent: Some(HostId(1)),
            gen: 7,
        };
        inject(&mut eng, &mut w, HostId(6), splice.clone());
        assert_eq!(w.agent.state.parent, Some(HostId(6)));
        let _ = take_to(&mut w, HostId(3));
        // The duplicate: no state change, and crucially no ChildLeave
        // to host 6.
        inject(&mut eng, &mut w, HostId(6), splice);
        assert_eq!(w.agent.state.parent, Some(HostId(6)));
        assert!(take_to(&mut w, HostId(6)).is_empty());
        // A stale lower-stamped splice from the same sender is dropped
        // too.
        inject(
            &mut eng,
            &mut w,
            HostId(6),
            Msg::ParentChange {
                new_grandparent: Some(HostId(9)),
                gen: 3,
            },
        );
        assert_eq!(w.agent.state.parent, Some(HostId(6)));
        assert!(take_to(&mut w, HostId(6)).is_empty());
    }

    /// A node with an active walk must reject connection requests:
    /// accepting while adopting elsewhere is how two refining siblings
    /// close a 2-cycle.
    #[test]
    fn walking_node_rejects_conn_requests() {
        let (mut eng, mut w) = connected_agent();
        let mut stats = RunStats::new(8);
        let mut ctx = Ctx {
            me: HostId(0),
            io: &mut eng,
            stats: &mut stats,
            loss_probe_noise: 0.0,
        };
        w.agent.start_walk(&mut ctx, WalkPurpose::Refine, HostId(7));
        inject(
            &mut eng,
            &mut w,
            HostId(5),
            Msg::ConnReq {
                nonce: 4,
                kind: ConnKind::Child,
                vdist: 1.0,
                coord: None,
            },
        );
        assert_eq!(
            take_to(&mut w, HostId(5)),
            vec![Msg::ConnResp {
                nonce: 4,
                result: ConnResult::Rejected
            }]
        );
    }

    /// Our own parent asking to become our child is a cycle outright.
    #[test]
    fn conn_request_from_own_parent_is_rejected() {
        let (mut eng, mut w) = connected_agent();
        inject(
            &mut eng,
            &mut w,
            HostId(1),
            Msg::ConnReq {
                nonce: 4,
                kind: ConnKind::Child,
                vdist: 1.0,
                coord: None,
            },
        );
        assert_eq!(
            take_to(&mut w, HostId(1)),
            vec![Msg::ConnResp {
                nonce: 4,
                result: ConnResult::Rejected
            }]
        );
        assert!(!w.agent.state.has_child(HostId(1)));
    }

    #[test]
    fn leave_from_parent_triggers_grandparent_walk() {
        let (mut eng, mut w) = connected_agent();
        w.agent.on_msg(
            &mut Ctx {
                me: HostId(0),
                io: &mut eng,
                stats: &mut RunStats::new(8),
                loss_probe_noise: 0.0,
            },
            HostId(1),
            Msg::Leave,
        );
        assert_eq!(w.agent.state.parent, None);
        assert!(w.agent.walk.is_some());
        // The reconnection walk starts at the grandparent (host 2).
        let mut found = false;
        eng.run(&mut w, vdm_netsim::SimTime::from_ms(20.0));
        for m in take_to(&mut w, HostId(2)) {
            if matches!(m, Msg::InfoReq { .. }) {
                found = true;
            }
        }
        assert!(found, "expected an InfoReq at the grandparent");
    }

    #[test]
    fn leave_from_non_parent_is_ignored() {
        let (mut eng, mut w) = connected_agent();
        inject(&mut eng, &mut w, HostId(4), Msg::Leave);
        assert_eq!(w.agent.state.parent, Some(HostId(1)));
        assert!(w.agent.walk.is_none());
    }

    #[test]
    fn data_only_accepted_from_parent_and_forwarded() {
        let (mut eng, mut w) = connected_agent();
        // From a stranger: dropped.
        inject(&mut eng, &mut w, HostId(4), Msg::Data { seq: 1 });
        assert!(take_to(&mut w, HostId(3)).is_empty());
        // From the parent: accepted and forwarded to the child.
        inject(&mut eng, &mut w, HostId(1), Msg::Data { seq: 2 });
        assert_eq!(take_to(&mut w, HostId(3)), vec![Msg::Data { seq: 2 }]);
        // Duplicate: dropped.
        inject(&mut eng, &mut w, HostId(1), Msg::Data { seq: 2 });
        assert!(take_to(&mut w, HostId(3)).is_empty());
    }

    #[test]
    fn heartbeat_from_unknown_child_gets_a_leave() {
        let (mut eng, mut w) = connected_agent();
        inject(&mut eng, &mut w, HostId(6), Msg::Heartbeat);
        assert_eq!(take_to(&mut w, HostId(6)), vec![Msg::Leave]);
        // From a real child: silently noted.
        inject(&mut eng, &mut w, HostId(3), Msg::Heartbeat);
        assert!(take_to(&mut w, HostId(3)).is_empty());
    }

    /// Drive a full join handshake by scripting the remote side from
    /// the recorded outbox (source = host 7).
    #[test]
    fn scripted_join_walk_completes() {
        let (mut eng, mut w) = harness(AgentConfig::default(), false);
        let mut stats = RunStats::new(8);
        w.agent.on_join_cmd(&mut Ctx {
            me: HostId(0),
            io: &mut eng,
            stats: &mut stats,
            loss_probe_noise: 0.0,
        });
        eng.run(&mut w, SimTime::from_ms(50.0));
        // The walk sent an InfoReq to the source.
        let info = take_to(&mut w, HostId(7));
        let Some(Msg::InfoReq { nonce }) = info.first() else {
            panic!("expected InfoReq, got {info:?}");
        };
        // Source answers: one child (host 3, distance 12).
        inject(
            &mut eng,
            &mut w,
            HostId(7),
            Msg::InfoResp {
                nonce: *nonce,
                children: vec![ChildEntry {
                    child: HostId(3),
                    vdist: 12.0,
                }],
                parent: None,
                coord: None,
            },
        );
        // The walk pings the child.
        let ping = take_to(&mut w, HostId(3));
        let Some(Msg::Ping { nonce: ping_nonce }) = ping.first() else {
            panic!("expected Ping, got {ping:?}");
        };
        inject(
            &mut eng,
            &mut w,
            HostId(3),
            Msg::Pong {
                nonce: *ping_nonce,
                coord: None,
            },
        );
        // Policy (Attach) fires a ConnReq at the source.
        let conn = take_to(&mut w, HostId(7));
        let Some(Msg::ConnReq {
            nonce: cn, kind, ..
        }) = conn.first()
        else {
            panic!("expected ConnReq, got {conn:?}");
        };
        assert_eq!(*kind, ConnKind::Child);
        inject(
            &mut eng,
            &mut w,
            HostId(7),
            Msg::ConnResp {
                nonce: *cn,
                result: ConnResult::Accepted {
                    grandparent: None,
                    adopted: vec![],
                    root_path: vec![],
                },
            },
        );
        assert_eq!(w.agent.state.parent, Some(HostId(7)));
        assert!(w.agent.walk.is_none());
        assert_eq!(stats.startup_s.len(), 0, "stats captured per-dispatch here");
    }

    /// No one ever answers: the walk must retry, restart at the
    /// fallback, and eventually give up (scheduling a later retry)
    /// without wedging the agent.
    #[test]
    fn silent_network_exhausts_walk_restarts() {
        let cfg = AgentConfig {
            walk: crate::walk::WalkConfig {
                timeout: SimTime::from_ms(500.0),
                info_retries: 1,
                max_restarts: 2,
                ..crate::walk::WalkConfig::default()
            },
            ..AgentConfig::default()
        };
        let (mut eng, mut w) = harness(cfg, false);
        let mut stats = RunStats::new(8);
        w.agent.on_join_cmd(&mut Ctx {
            me: HostId(0),
            io: &mut eng,
            stats: &mut stats,
            loss_probe_noise: 0.0,
        });
        // Run long enough for all timeouts to fire.
        eng.run(&mut w, SimTime::from_secs(20));
        let info_reqs = take_to(&mut w, HostId(7))
            .into_iter()
            .filter(|m| matches!(m, Msg::InfoReq { .. }))
            .count();
        // initial + 1 retry, then per restart (2) another 2 each, and
        // the scheduled RETRY walks add more: at least 4 attempts.
        assert!(info_reqs >= 4, "only {info_reqs} info requests");
        assert!(!w.agent.state.connected());
        assert!(w.agent.state.parent.is_none());
    }

    /// Probe timeouts exclude silent children instead of stalling:
    /// source answers with two children, only one pongs.
    #[test]
    fn silent_children_are_excluded_from_the_decision() {
        let (mut eng, mut w) = harness(AgentConfig::default(), false);
        let mut stats = RunStats::new(8);
        w.agent.on_join_cmd(&mut Ctx {
            me: HostId(0),
            io: &mut eng,
            stats: &mut stats,
            loss_probe_noise: 0.0,
        });
        eng.run(&mut w, SimTime::from_ms(50.0));
        let info = take_to(&mut w, HostId(7));
        let Some(Msg::InfoReq { nonce }) = info.first() else {
            panic!("expected InfoReq");
        };
        inject(
            &mut eng,
            &mut w,
            HostId(7),
            Msg::InfoResp {
                nonce: *nonce,
                children: vec![
                    ChildEntry {
                        child: HostId(3),
                        vdist: 5.0,
                    },
                    ChildEntry {
                        child: HostId(4),
                        vdist: 6.0,
                    },
                ],
                parent: None,
                coord: None,
            },
        );
        // Only child 3 pongs; child 4 stays silent.
        let pings3 = take_to(&mut w, HostId(3));
        let Some(Msg::Ping { nonce: n3 }) = pings3.first() else {
            panic!("expected Ping to h3");
        };
        let _ = take_to(&mut w, HostId(4));
        inject(
            &mut eng,
            &mut w,
            HostId(3),
            Msg::Pong {
                nonce: *n3,
                coord: None,
            },
        );
        // Let the probe deadline fire; the walk proceeds with child 3
        // only and (policy = Attach) sends a ConnReq to the source.
        eng.run(&mut w, SimTime::from_secs(5));
        let conn: Vec<Msg> = take_to(&mut w, HostId(7))
            .into_iter()
            .filter(|m| matches!(m, Msg::ConnReq { .. }))
            .collect();
        assert!(!conn.is_empty(), "walk stalled on the silent child");
    }

    #[test]
    fn root_path_propagates_when_maintained() {
        let cfg = AgentConfig {
            maintain_root_path: true,
            ..AgentConfig::default()
        };
        let (mut eng, mut w) = harness(cfg, false);
        w.agent.state.parent = Some(HostId(1));
        w.agent.state.add_child(HostId(3), 4.0);
        inject(
            &mut eng,
            &mut w,
            HostId(1),
            Msg::RootPath {
                path: vec![HostId(7), HostId(1)],
            },
        );
        assert_eq!(w.agent.state.root_path, vec![HostId(7), HostId(1)]);
        assert_eq!(
            take_to(&mut w, HostId(3)),
            vec![Msg::RootPath {
                path: vec![HostId(7), HostId(1), HostId(0)]
            }]
        );
    }

    fn resilient_cfg() -> AgentConfig {
        AgentConfig {
            resilience: Some(ResilienceConfig::default()),
            ..AgentConfig::default()
        }
    }

    /// An orphan with a fresh backup candidate sends it a direct
    /// ConnReq instead of walking, and attaches on acceptance.
    #[test]
    fn orphan_fails_over_to_backup_candidate_without_a_walk() {
        let (mut eng, mut w) = harness(resilient_cfg(), false);
        w.agent.state.parent = Some(HostId(1));
        w.agent.state.grandparent = Some(HostId(2));
        w.agent.candidates.push(Candidate {
            host: HostId(5),
            vdist: 3.0,
            seen_at: SimTime::ZERO,
        });
        inject(&mut eng, &mut w, HostId(1), Msg::Leave);
        assert!(w.agent.walk.is_none(), "failover must not start a walk");
        assert!(w.agent.failover.is_some());
        let sent = take_to(&mut w, HostId(5));
        let Some(Msg::ConnReq {
            nonce,
            kind: ConnKind::Child,
            ..
        }) = sent.first()
        else {
            panic!("expected a direct ConnReq at the candidate, got {sent:?}");
        };
        inject(
            &mut eng,
            &mut w,
            HostId(5),
            Msg::ConnResp {
                nonce: *nonce,
                result: ConnResult::Accepted {
                    grandparent: Some(HostId(2)),
                    adopted: vec![],
                    root_path: vec![],
                },
            },
        );
        assert_eq!(w.agent.state.parent, Some(HostId(5)));
        assert!(w.agent.failover.is_none());
        assert!(w.agent.walk.is_none());
    }

    /// When every failover target refuses, the orphan falls back to the
    /// §3.3 grandparent walk.
    #[test]
    fn failover_rejection_falls_back_to_grandparent_walk() {
        let (mut eng, mut w) = harness(resilient_cfg(), false);
        w.agent.state.parent = Some(HostId(1));
        w.agent.state.grandparent = Some(HostId(2));
        w.agent.candidates.push(Candidate {
            host: HostId(5),
            vdist: 3.0,
            seen_at: SimTime::ZERO,
        });
        inject(&mut eng, &mut w, HostId(1), Msg::Leave);
        let sent = take_to(&mut w, HostId(5));
        let Some(Msg::ConnReq { nonce, .. }) = sent.first() else {
            panic!("expected ConnReq, got {sent:?}");
        };
        inject(
            &mut eng,
            &mut w,
            HostId(5),
            Msg::ConnResp {
                nonce: *nonce,
                result: ConnResult::Rejected,
            },
        );
        assert!(w.agent.failover.is_none());
        assert!(w.agent.walk.is_some(), "exhausted failover must walk");
        let to_gp = take_to(&mut w, HostId(2));
        assert!(
            to_gp.iter().any(|m| matches!(m, Msg::InfoReq { .. })),
            "walk must anchor at the grandparent, got {to_gp:?}"
        );
    }

    /// Ancestor gossip from the parent is prefixed with the parent and
    /// forwarded down to children.
    #[test]
    fn ancestor_gossip_propagates_down() {
        let (mut eng, mut w) = harness(resilient_cfg(), false);
        w.agent.state.parent = Some(HostId(1));
        w.agent.state.add_child(HostId(3), 4.0);
        inject(
            &mut eng,
            &mut w,
            HostId(1),
            Msg::AncestorList {
                ancestors: vec![HostId(2), HostId(7)],
            },
        );
        assert_eq!(w.agent.ancestors, vec![HostId(1), HostId(2), HostId(7)]);
        assert_eq!(
            take_to(&mut w, HostId(3)),
            vec![Msg::AncestorList {
                ancestors: vec![HostId(1), HostId(2), HostId(7)],
            }]
        );
    }

    /// With the bucket dry, a plain join is queued and admitted once a
    /// token refills — never silently dropped.
    #[test]
    fn admission_throttles_then_admits_queued_join() {
        let cfg = AgentConfig {
            admission: Some(AdmissionConfig {
                rate_per_s: 1.0,
                burst: 1.0,
                queue: 2,
                max_wait: SimTime::from_secs(10),
            }),
            ..AgentConfig::default()
        };
        let (mut eng, mut w) = harness(cfg, false);
        w.agent.state.parent = Some(HostId(1));
        inject(
            &mut eng,
            &mut w,
            HostId(4),
            Msg::ConnReq {
                nonce: 1,
                kind: ConnKind::Child,
                vdist: 5.0,
                coord: None,
            },
        );
        assert!(
            w.agent.state.has_child(HostId(4)),
            "first join takes the token"
        );
        inject(
            &mut eng,
            &mut w,
            HostId(5),
            Msg::ConnReq {
                nonce: 2,
                kind: ConnKind::Child,
                vdist: 6.0,
                coord: None,
            },
        );
        assert!(
            take_to(&mut w, HostId(5)).is_empty(),
            "second join is parked"
        );
        assert_eq!(w.agent.admit_queue.len(), 1);
        // A token refills after ~1 s and the queue drains.
        let until = eng.now() + SimTime::from_secs(2);
        eng.run(&mut w, until);
        assert!(w.agent.state.has_child(HostId(5)));
        let sent = take_to(&mut w, HostId(5));
        assert!(sent.iter().any(|m| matches!(
            m,
            Msg::ConnResp {
                nonce: 2,
                result: ConnResult::Accepted { .. }
            }
        )));
    }

    /// A watermark jump NACKs the missing chunks to the parent, and a
    /// retransmission fills the hole and is forwarded downstream.
    #[test]
    fn gap_triggers_nack_and_repair_fills_hole() {
        let cfg = AgentConfig {
            repair: Some(RepairConfig::default()),
            ..AgentConfig::default()
        };
        let (mut eng, mut w) = harness(cfg, false);
        w.agent.state.parent = Some(HostId(1));
        w.agent.state.add_child(HostId(3), 4.0);
        inject(&mut eng, &mut w, HostId(1), Msg::Data { seq: 1 });
        inject(&mut eng, &mut w, HostId(1), Msg::Data { seq: 4 });
        // inject() runs 300 ms per call, past the 250 ms NACK delay.
        let to_parent = take_to(&mut w, HostId(1));
        assert!(
            to_parent.contains(&Msg::Nack { seqs: vec![2, 3] }),
            "expected a NACK for the hole, got {to_parent:?}"
        );
        let _ = take_to(&mut w, HostId(3));
        // The parent retransmits chunk 2: delivered and forwarded.
        inject(&mut eng, &mut w, HostId(1), Msg::Data { seq: 2 });
        assert_eq!(take_to(&mut w, HostId(3)), vec![Msg::Data { seq: 2 }]);
        assert_eq!(w.agent.state.last_seq, Some(4));
        assert_eq!(w.agent.gaps.pending(), 1);
        // A duplicate of the repaired chunk is dropped.
        inject(&mut eng, &mut w, HostId(1), Msg::Data { seq: 2 });
        assert!(take_to(&mut w, HostId(3)).is_empty());
    }

    /// The parent side: NACKed chunks present in the retransmit ring
    /// are resent to the requesting child.
    #[test]
    fn parent_answers_nack_from_its_ring() {
        let cfg = AgentConfig {
            repair: Some(RepairConfig::default()),
            ..AgentConfig::default()
        };
        let (mut eng, mut w) = harness(cfg, false);
        w.agent.state.parent = Some(HostId(1));
        w.agent.state.add_child(HostId(3), 4.0);
        for seq in 1..=3 {
            inject(&mut eng, &mut w, HostId(1), Msg::Data { seq });
        }
        let _ = take_to(&mut w, HostId(3));
        inject(&mut eng, &mut w, HostId(3), Msg::Nack { seqs: vec![2, 99] });
        // 2 is in the ring, 99 is not.
        assert_eq!(take_to(&mut w, HostId(3)), vec![Msg::Data { seq: 2 }]);
        // NACKs from non-children are ignored.
        inject(&mut eng, &mut w, HostId(6), Msg::Nack { seqs: vec![2] });
        assert!(take_to(&mut w, HostId(6)).is_empty());
    }

    /// A sibling-tree orphan's CrossNack is served out of the ring,
    /// bounded by the cross-repair token bucket; peers without the
    /// budget ignore the message entirely.
    #[test]
    fn cross_nack_is_served_within_token_budget() {
        let cfg = AgentConfig {
            repair: Some(RepairConfig::default()),
            cross_repair: Some(AdmissionConfig {
                rate_per_s: 1.0,
                burst: 2.0,
                queue: 0,
                max_wait: SimTime::from_secs(1),
            }),
            ..AgentConfig::default()
        };
        let (mut eng, mut w) = harness(cfg, false);
        w.agent.state.parent = Some(HostId(1));
        for seq in 1..=4 {
            inject(&mut eng, &mut w, HostId(1), Msg::Data { seq });
        }
        // Host 6 is NOT our child — cross pulls are not child-gated.
        inject(
            &mut eng,
            &mut w,
            HostId(6),
            Msg::CrossNack {
                seqs: vec![1, 2, 3],
            },
        );
        // Burst 2 (plus ~0.9 s of refill at 1/s): exactly two served.
        let served: Vec<Msg> = take_to(&mut w, HostId(6))
            .into_iter()
            .filter(|m| matches!(m, Msg::CrossData { .. }))
            .collect();
        assert_eq!(
            served,
            vec![Msg::CrossData { seq: 1 }, Msg::CrossData { seq: 2 }]
        );
    }

    /// The orphan side: a cross-repair tick registers the silent
    /// stripe holes and NACKs them at the sibling parent; the answered
    /// chunk is delivered and cascades to our own children, and an
    /// off-stripe retransmission is dropped and counted.
    #[test]
    fn cross_repair_tick_pulls_stripe_from_sibling_and_cascades() {
        let rc = RepairConfig::default().striped(2, 1);
        let cfg = AgentConfig {
            repair: Some(rc),
            cross_repair: Some(AdmissionConfig::default()),
            ..AgentConfig::default()
        };
        let (mut eng, mut w) = harness(cfg, false);
        w.agent.state.add_child(HostId(3), 4.0);
        w.agent.ever_connected = true; // orphaned, not a newcomer
        let mut stats = RunStats::new(8);
        w.agent.cross_repair_tick(
            &mut Ctx {
                me: HostId(0),
                io: &mut eng,
                stats: &mut stats,
                loss_probe_noise: 0.0,
            },
            HostId(5),
            5,
        );
        // Holes registered (in the cross tracker, so the regular repair
        // timer cannot burn their retries), but the NACK delay has not
        // elapsed.
        assert!(take_to(&mut w, HostId(5)).is_empty());
        assert_eq!(w.agent.cross_gaps().pending(), 3);
        assert_eq!(w.agent.gaps().pending(), 0);
        // An inert timer carries the clock past the NACK delay (the
        // engine clock only moves when events are processed).
        let until = eng.now() + SimTime::from_ms(400.0);
        eng.set_timer(HostId(0), SimTime::from_ms(400.0), 0);
        eng.run(&mut w, until);
        w.agent.cross_repair_tick(
            &mut Ctx {
                me: HostId(0),
                io: &mut eng,
                stats: &mut stats,
                loss_probe_noise: 0.0,
            },
            HostId(5),
            5,
        );
        // Let the engine deliver the in-flight NACK to the sibling.
        let until = eng.now() + SimTime::from_ms(100.0);
        eng.run(&mut w, until);
        assert_eq!(
            take_to(&mut w, HostId(5)),
            vec![Msg::CrossNack {
                seqs: vec![1, 3, 5]
            }]
        );
        assert_eq!(stats.recovery.cross_nacks_sent, 1);
        // The sibling answers chunk 3: delivered fresh (first delivery
        // of this stripe) and forwarded to our child.
        inject(&mut eng, &mut w, HostId(5), Msg::CrossData { seq: 3 });
        assert_eq!(w.agent.state.last_seq, Some(3));
        assert_eq!(take_to(&mut w, HostId(3)), vec![Msg::Data { seq: 3 }]);
        // An off-stripe chunk (seq 2 is stripe 0) violates ownership:
        // dropped, counted, watermark untouched.
        let mut stats2 = RunStats::new(8);
        w.agent.on_msg(
            &mut Ctx {
                me: HostId(0),
                io: &mut eng,
                stats: &mut stats2,
                loss_probe_noise: 0.0,
            },
            HostId(5),
            Msg::CrossData { seq: 2 },
        );
        assert_eq!(stats2.recovery.cross_stripe_violations, 1);
        assert_eq!(w.agent.state.last_seq, Some(3));
    }

    #[test]
    fn ancestors_are_rejected_when_root_paths_are_on() {
        let cfg = AgentConfig {
            maintain_root_path: true,
            ..AgentConfig::default()
        };
        let (mut eng, mut w) = harness(cfg, false);
        w.agent.state.parent = Some(HostId(1));
        w.agent.state.root_path = vec![HostId(7), HostId(2), HostId(1)];
        // Host 2 is our ancestor: accepting it as a child would loop.
        inject(
            &mut eng,
            &mut w,
            HostId(2),
            Msg::ConnReq {
                nonce: 5,
                kind: ConnKind::Child,
                vdist: 1.0,
                coord: None,
            },
        );
        assert_eq!(
            take_to(&mut w, HostId(2)),
            vec![Msg::ConnResp {
                nonce: 5,
                result: ConnResult::Rejected
            }]
        );
    }
}
