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
//!
//! This module is the membership core: join, leave, the walk, the
//! three connection cases and the grandparent rule. Every optional
//! mechanism is a sub-machine that owns its state and timer token and
//! exists only when its config is set:
//!
//! * `resilience` — ancestor gossip, backup candidates and direct
//!   failover ([`ResilienceConfig`]);
//! * `admission` — the rejoin-storm token bucket and wait queue
//!   ([`AdmissionConfig`]);
//! * `repair` — NACK gap repair and cross-tree repair
//!   ([`crate::repair::RepairConfig`]);
//! * `liveness` — child heartbeats, the refinement tick and the data
//!   watchdog ([`HeartbeatConfig`]);
//! * `piggyback` — the Vivaldi coordinate piggyback
//!   ([`AgentConfig::coords`]);
//! * bootstrap discovery, whose agent-facing half lives beside
//!   [`DiscoveryState`] in [`crate::discovery`].

mod admission;
mod config;
mod ctx;
mod liveness;
mod piggyback;
mod repair;
mod resilience;

pub use self::admission::{AdmissionConfig, ADMIT_TOKEN};
pub use self::config::AgentConfig;
pub use self::ctx::Ctx;
pub use self::liveness::{HeartbeatConfig, DATA_WATCH_TOKEN, HEARTBEAT_TOKEN, REFINE_TOKEN};
pub use self::repair::REPAIR_TOKEN;
pub use self::resilience::{ResilienceConfig, FAILOVER_TOKEN_BIT};
pub use crate::discovery::DISCOVERY_TOKEN_BIT;

use self::admission::{Admission, Verdict};
use self::liveness::{Heartbeat, Periodic};
use self::piggyback::Piggyback;
use self::repair::Repair;
use self::resilience::Resilience;
use crate::coords::CoordSample;
use crate::discovery::{DiscoveryConfig, DiscoveryState};
use crate::msg::{ChildEntry, ConnKind, ConnResult, Msg};
use crate::peer::PeerState;
use crate::walk::{Walk, WalkOutcome, WalkPolicy, WalkPurpose, WALK_TOKEN_BIT};
use crate::VDist;
use vdm_netsim::{HostId, SimTime};

/// Timer token for retrying a failed walk.
pub const RETRY_TOKEN: u64 = 1 << 59;

/// Delay before retrying after a completely failed walk, scaled by
/// [`AgentConfig::retry_backoff`] per consecutive failure.
pub const RETRY_DELAY: SimTime = SimTime(5_000_000);

/// The driver-facing agent interface.
pub trait OverlayAgent {
    /// The driver tells the peer to join the session.
    fn on_join_cmd(&mut self, ctx: &mut Ctx<'_>);
    /// The driver tells the peer to leave gracefully (notify parent and
    /// children, §3.3). Leave is the agent's last input: the runtime
    /// drops the agent right after, and a host that rejoins gets a
    /// fresh agent for its next incarnation.
    fn on_leave_cmd(&mut self, ctx: &mut Ctx<'_>);
    /// A message arrived.
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, from: HostId, msg: Msg);
    /// A timer fired.
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64);
    /// Install bootstrap-discovery state (called by the driver before
    /// `on_join_cmd` when the scenario carries a [`DiscoveryConfig`]).
    /// Default: ignore — agents without discovery support keep the
    /// omniscient source-anchored join.
    fn configure_discovery(&mut self, _cfg: &DiscoveryConfig, _now: SimTime) {}
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

/// Take the next monotone stamp from `gen` (nonces of walks, failover
/// attempts and discovery probes, and generation stamps of splice
/// notices all share this namespace).
pub(crate) fn next_stamp(gen: &mut u64) -> u64 {
    let g = *gen;
    *gen += 1;
    g
}

/// Record one reconnection that started at `started`.
fn record_reconnect(ctx: &mut Ctx<'_>, started: SimTime) {
    let (now, took) = (ctx.now().as_secs(), (ctx.now() - started).as_secs());
    ctx.stats.reconnection_s.push(took);
    ctx.stats.recovery.reconnections.push((now, took));
}

/// The generic protocol peer; `P` supplies the protocol behaviour.
pub struct ProtocolAgent<P: WalkPolicy> {
    state: PeerState,
    cfg: AgentConfig,
    policy: P,
    source: HostId,
    walk: Option<Box<Walk>>,
    /// Next stamp (walk generation base and nonce namespace), unique
    /// across incarnations.
    gen_next: u64,
    /// Time of the original join command (startup timing anchor).
    join_cmd_at: Option<SimTime>,
    /// Time we were last orphaned (reconnection timing anchor).
    orphaned_at: Option<SimTime>,
    ever_connected: bool,
    /// When stream data last arrived (reset on adoption to give the
    /// watchdog a grace period).
    last_data_at: SimTime,
    /// Consecutive failed walks (drives retry backoff).
    fail_streak: u32,
    /// Time of the last accepted stream chunk, across reconnections
    /// (delivery-gap observability; `last_data_at` can't measure gaps).
    last_chunk_at: Option<SimTime>,
    /// Highest [`Msg::ParentChange`] generation stamp seen per sender:
    /// duplicated or stale reordered splice notices are dropped.
    pc_seen: Vec<(HostId, u64)>,
    // The walk and every sub-machine below but `refine` live out of
    // line: each is `None` for most of an agent's life or most
    // configurations, and inline they would size every agent for all of
    // them (DESIGN.md §8.1).
    refine: Option<Periodic>,
    heartbeat: Option<Box<Heartbeat>>,
    resilience: Option<Box<Resilience>>,
    admission: Option<Box<Admission>>,
    repair: Option<Box<Repair>>,
    /// `None` keeps the omniscient source-anchored join byte-identical
    /// to pre-discovery runs.
    discovery: Option<Box<DiscoveryState>>,
    coords: Option<Box<Piggyback>>,
}

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
            last_data_at: SimTime::ZERO,
            fail_streak: 0,
            last_chunk_at: None,
            pc_seen: Vec::new(),
            refine: cfg.refine_period.map(|p| Periodic::new(p, REFINE_TOKEN)),
            heartbeat: cfg.heartbeat.map(|c| Box::new(Heartbeat::new(c))),
            resilience: cfg.resilience.map(|c| Box::new(Resilience::new(c))),
            admission: cfg.admission.map(|c| Box::new(Admission::new(c))),
            repair: cfg
                .repair
                .map(|r| Box::new(Repair::new(r, cfg.cross_repair))),
            discovery: None,
            coords: cfg.coords.then(Box::default),
        }
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
        if let Some(hb) = self.heartbeat.as_mut() {
            hb.note_alive(c, now);
        }
    }

    /// Our coordinate sample for piggyback fields (`None` when the
    /// embedding is off — the field then serializes as absent and the
    /// message bytes match pre-coordinate builds).
    fn coord_sample(&self) -> Option<CoordSample> {
        self.coords.as_deref().map(Piggyback::sample)
    }

    /// May `from` become our child right now? Dark or detached peers
    /// must not accept newcomers; a node mid-walk or mid-failover must
    /// not either (two refining siblings would accept each other
    /// concurrently and close a 2-cycle — protocols without root paths
    /// have no ancestor check to catch it); our own parent as a child
    /// is a cycle outright; and a root-path or ancestor-list hit means
    /// the requester is our ancestor — accepting would loop the tree.
    /// Root paths stay empty unless they are maintained.
    fn admissible(&self, from: HostId) -> bool {
        self.state.connected()
            && self.walk.is_none()
            && Some(from) != self.state.parent
            && !self.state.root_path.contains(&from)
            && !self.resilience.as_ref().is_some_and(|r| r.refuses(from))
    }

    /// Take `from` on as a child — new, refreshed, or splicing in above
    /// the `adopted` children it displaced — acknowledge it and send it
    /// our ancestor list.
    fn accept_child(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: HostId,
        nonce: u64,
        vdist: VDist,
        adopted: Vec<HostId>,
    ) {
        self.state.add_child(from, vdist);
        self.note_child_alive(from, ctx.now());
        if let Some(hb) = self.heartbeat.as_mut() {
            hb.tick.start(ctx);
        }
        let result = ConnResult::Accepted {
            grandparent: self.state.parent,
            adopted,
            root_path: self.own_path(),
        };
        ctx.send(from, Msg::ConnResp { nonce, result });
        if let Some(r) = &self.resilience {
            r.gossip_to(ctx, from);
        }
    }

    /// Point the requester at our closest child (§3.2), or reject when
    /// we have none to offer.
    fn redirect_or_reject(&mut self, ctx: &mut Ctx<'_>, from: HostId, nonce: u64) {
        let result = match self.state.closest_child(&[from]) {
            Some((next, _)) => ConnResult::Redirect { next },
            None => ConnResult::Rejected,
        };
        ctx.send(from, Msg::ConnResp { nonce, result });
    }

    fn start_walk(&mut self, ctx: &mut Ctx<'_>, purpose: WalkPurpose, start: HostId) {
        let started_at = match purpose {
            WalkPurpose::Join => self.join_cmd_at.unwrap_or_else(|| ctx.now()),
            WalkPurpose::Reconnect => self.orphaned_at.unwrap_or_else(|| ctx.now()),
            WalkPurpose::Refine => ctx.now(),
        };
        let baseline = self
            .state
            .parent_dist
            .filter(|_| purpose == WalkPurpose::Refine);
        let w = Walk::start(
            purpose,
            start,
            self.source,
            started_at,
            self.cfg.walk,
            self.gen_next,
            baseline,
            self.coords.as_ref().map(|c| c.state),
            ctx,
        );
        self.gen_next = w.generation() + 1_000_000; // room for this walk's nonces
        self.walk = Some(Box::new(w));
    }

    /// Start the join walk at `anchor`, unless a walk already runs or we
    /// are attached.
    fn join_walk(&mut self, ctx: &mut Ctx<'_>, anchor: HostId) {
        if self.walk.is_none() && !self.state.connected() {
            self.start_walk(ctx, WalkPurpose::Join, anchor);
        }
    }

    /// The §3.3 reconnection walk, anchored at the grandparent.
    fn reconnect_walk(&mut self, ctx: &mut Ctx<'_>) {
        let start = self.state.grandparent.unwrap_or(self.source);
        self.start_walk(ctx, WalkPurpose::Reconnect, start);
    }

    /// Feed the active walk one event; finish it when it decides.
    fn step_walk(
        &mut self,
        ctx: &mut Ctx<'_>,
        step: impl FnOnce(&mut Walk, &mut Ctx<'_>, &P, u32) -> Option<WalkOutcome>,
    ) {
        if let Some(mut walk) = self.walk.take() {
            let outcome = step(&mut walk, ctx, &self.policy, self.state.free_degree());
            self.walk = Some(walk);
            if let Some(out) = outcome {
                self.finish_walk(ctx, out);
            }
        }
    }

    fn become_orphan(&mut self, ctx: &mut Ctx<'_>, notify_parent: bool) {
        let dead = self.state.parent;
        if let (true, Some(p)) = (notify_parent, dead) {
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
        if let Some(r) = self.resilience.as_mut() {
            let coords = self.coords.as_deref();
            if r.start(ctx, &self.state, dead, coords, &mut self.gen_next) {
                return;
            }
        }
        self.reconnect_walk(ctx);
    }

    /// Our root path including ourselves (what children should prefix
    /// their own paths with); empty unless root paths are maintained.
    fn own_path(&self) -> Vec<HostId> {
        if !self.cfg.maintain_root_path {
            return Vec::new();
        }
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

    fn tell_children_grandparent(&self, ctx: &mut Ctx<'_>, new_grandparent: HostId) {
        for &(c, _) in &self.state.children {
            ctx.send(c, Msg::GrandparentChange { new_grandparent });
        }
    }

    fn adopt_parent(
        &mut self,
        ctx: &mut Ctx<'_>,
        parent: HostId,
        grandparent: Option<HostId>,
        root_path: Vec<HostId>,
        adopted: Vec<(HostId, VDist)>,
        vdist: VDist,
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
            let gen = next_stamp(&mut self.gen_next);
            ctx.send(
                c,
                Msg::ParentChange {
                    new_grandparent: Some(parent),
                    gen,
                },
            );
        }
        // Pre-existing children: their grandparent is our new parent.
        self.tell_children_grandparent(ctx, parent);
        self.broadcast_root_path(ctx);
        if let Some(r) = self.resilience.as_mut() {
            r.adopted(ctx, &self.state, parent, grandparent);
        }
        self.ever_connected = true;
        self.fail_streak = 0;
        self.last_data_at = ctx.now();
        if let Some(t) = self.refine.as_mut() {
            t.start(ctx);
        }
        if let Some(t) = self.cfg.data_timeout {
            ctx.timer(t, DATA_WATCH_TOKEN);
        }
        if let Some(hb) = self.heartbeat.as_mut() {
            hb.tick.start(ctx);
        }
    }

    fn finish_walk(&mut self, ctx: &mut Ctx<'_>, outcome: WalkOutcome) {
        let walk = self.walk.take().expect("finishing an active walk");
        let me = self.state.host;
        if let Some(r) = self.resilience.as_mut() {
            r.merge_candidates(me, &walk.seen.harvest, ctx.now());
        }
        if let Some(c) = self.coords.as_mut() {
            c.absorb(&walk.seen, me, self.discovery.as_deref_mut());
        }
        let retry = walk.purpose != WalkPurpose::Refine;
        let WalkOutcome::Connected {
            parent,
            grandparent,
            root_path,
            adopted,
            vdist_to_parent: vdist,
        } = outcome
        else {
            if retry {
                self.schedule_retry(ctx);
            }
            return;
        };
        if self.state.has_child(parent) {
            // Mutual-adoption race: while our request was in flight the
            // accepted parent became (or stayed) our child — adopting it
            // would close a cycle. Undo the acceptor's bookkeeping and
            // treat the walk as failed.
            ctx.send(parent, Msg::ChildLeave);
            if retry {
                self.schedule_retry(ctx);
            }
            return;
        }
        match walk.purpose {
            WalkPurpose::Join => ctx
                .stats
                .startup_s
                .push((ctx.now() - walk.started_at).as_secs()),
            WalkPurpose::Reconnect => record_reconnect(ctx, walk.started_at),
            // Already the best parent: nothing to change.
            WalkPurpose::Refine if Some(parent) == self.state.parent => return,
            WalkPurpose::Refine => {
                if let Some(old) = self.state.parent {
                    ctx.send(old, Msg::ChildLeave);
                }
            }
        }
        self.adopt_parent(ctx, parent, grandparent, root_path, adopted, vdist);
    }

    fn handle_conn_req(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: HostId,
        nonce: u64,
        kind: ConnKind,
        vdist: VDist,
    ) {
        if !self.admissible(from) {
            let result = ConnResult::Rejected;
            return ctx.send(from, Msg::ConnResp { nonce, result });
        }
        let displace = match kind {
            ConnKind::Splice { displace } => displace,
            ConnKind::Child => Vec::new(),
        };
        let adopted: Vec<HostId> = displace
            .into_iter()
            .filter(|&c| c != from && self.state.has_child(c))
            .collect();
        // A plain newcomer (not splicing in, not already our child)
        // needs a free slot and, under admission control, a token.
        if adopted.is_empty() && !self.state.has_child(from) {
            let verdict = match self.admission.as_mut() {
                _ if self.state.free_degree() == 0 => Verdict::Shed,
                Some(a) => a.request(ctx, from, nonce, vdist),
                None => Verdict::Admit,
            };
            match verdict {
                Verdict::Admit => {}
                Verdict::Parked => return,
                // Full — §3.2 "it connects to the closest free child";
                // the child redirects again if it is itself full — or
                // shed by admission control.
                Verdict::Shed => return self.redirect_or_reject(ctx, from, nonce),
            }
        }
        // Case II splice: swap the displaced children for the requester;
        // degree can only shrink. A repeat request (e.g. refinement
        // landing on the current parent) just refreshes the distance.
        for &c in &adopted {
            self.state.remove_child(c);
        }
        self.accept_child(ctx, from, nonce, vdist, adopted);
    }

    /// A splice: `from` claims to be our new parent and our old parent
    /// should now be our grandparent. The generation stamp makes
    /// handling idempotent: a duplicated or reordered-stale copy is
    /// dropped here instead of being misread as a bogus splice (which
    /// would make us ChildLeave our own parent).
    fn on_parent_change(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: HostId,
        new_grandparent: Option<HostId>,
        gen: u64,
    ) {
        match self.pc_seen.iter_mut().find(|(h, _)| *h == from) {
            Some(e) if gen <= e.1 => return,
            Some(e) => e.1 = gen,
            None => self.pc_seen.push((from, gen)),
        }
        if Some(from) == self.state.parent {
            // Splice already applied (e.g. the first copy of a
            // duplicated notice arrived out of stamp order).
            return;
        }
        if new_grandparent != self.state.parent {
            ctx.send(from, Msg::ChildLeave);
            return;
        }
        self.state.parent = Some(from);
        self.state.parent_dist = None;
        self.state.grandparent = new_grandparent;
        if self.cfg.maintain_root_path {
            self.state.root_path.push(from);
            self.broadcast_root_path(ctx);
        }
        self.tell_children_grandparent(ctx, from);
        if let Some(r) = self.resilience.as_mut() {
            r.prepend(ctx, &self.state, from);
        }
    }

    /// Accept a stream chunk — plain watermark delivery, or through the
    /// repair machinery when it runs (`cross` marks a sibling tree's
    /// retransmission, which only repair accepts) — then count it,
    /// record gap observability (fresh arrivals only), refresh parent
    /// liveness and forward it downstream.
    fn on_chunk(&mut self, ctx: &mut Ctx<'_>, seq: u64, cross: bool) {
        let fresh = match self.repair.as_mut() {
            Some(r) => r.accept(ctx, seq, self.state.last_seq, cross),
            None => (!cross && self.state.accept_seq(seq)).then_some(true),
        };
        let Some(fresh) = fresh else { return };
        ctx.stats.received[ctx.me.idx()] += 1;
        let now = ctx.now();
        if fresh {
            self.state.last_seq = Some(seq);
            if let (Some(thr), Some(prev)) = (self.cfg.gap_threshold, self.last_chunk_at) {
                let gap = now.saturating_sub(prev);
                if gap >= thr {
                    let gaps = &mut ctx.stats.recovery.delivery_gaps;
                    gaps.push((now.as_secs(), gap.as_secs()));
                }
            }
            self.last_chunk_at = Some(now);
        }
        self.last_data_at = now;
        self.forward_data(ctx, seq);
        if let (true, Some(r)) = (fresh, self.repair.as_mut()) {
            r.settle(ctx);
        }
    }

    /// Retain `seq` for NACK answers and send it to every child.
    fn forward_data(&mut self, ctx: &mut Ctx<'_>, seq: u64) {
        if let Some(r) = self.repair.as_mut() {
            r.record(seq);
        }
        for &(c, _) in &self.state.children {
            ctx.send(c, Msg::Data { seq });
        }
    }

    fn answer_info(&self, ctx: &mut Ctx<'_>, from: HostId, nonce: u64) {
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
                coord: self.coord_sample().map(Box::new),
            },
        );
    }

    fn on_retry(&mut self, ctx: &mut Ctx<'_>) {
        let busy = self.walk.is_some() || self.failover_in_flight().is_some();
        if busy || self.state.connected() || self.state.is_source {
            return;
        }
        let purpose = if self.ever_connected {
            WalkPurpose::Reconnect
        } else {
            WalkPurpose::Join
        };
        let start = self
            .resilience
            .as_ref()
            .and_then(|r| r.retry_anchor(self.fail_streak))
            .unwrap_or_else(|| self.state.grandparent.unwrap_or(self.source));
        self.start_walk(ctx, purpose, start);
    }
}

impl<P: WalkPolicy> OverlayAgent for ProtocolAgent<P> {
    fn on_join_cmd(&mut self, ctx: &mut Ctx<'_>) {
        if self.state.is_source {
            return;
        }
        self.join_cmd_at.get_or_insert(ctx.now());
        if self.walk.is_some() || self.state.connected() {
            return;
        }
        // Bootstrap discovery first: find a live mid-tree anchor to walk
        // from instead of assuming the source address.
        let coord = self.coords.as_ref().map(|c| c.state.coord);
        let d = self.discovery.as_mut();
        if d.is_none_or(|d| d.begin(ctx, coord, &mut self.gen_next)) {
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
        if let Some(a) = self.admission.as_mut() {
            a.flush(ctx);
        }
    }

    fn wants_cross_repair(&self, now: SimTime, stall: SimTime) -> bool {
        self.ever_connected
            && !self.state.is_source
            && (self.state.parent.is_none() || now.saturating_sub(self.last_data_at) >= stall)
    }

    // Multi-tree cross repair: while this peer is cut off from its
    // stripe tree, the driver points it at a connected parent of the
    // *sibling* tree and tells it how far the stripe has advanced.
    fn cross_repair_tick(&mut self, ctx: &mut Ctx<'_>, sibling: HostId, latest: u64) {
        if !self.ever_connected || self.state.is_source {
            return;
        }
        if let Some(r) = self.repair.as_mut() {
            r.cross_tick(ctx, sibling, latest, self.state.last_seq);
        }
    }

    fn on_msg(&mut self, ctx: &mut Ctx<'_>, from: HostId, msg: Msg) {
        let is_parent = Some(from) == self.state.parent;
        match msg {
            Msg::Ping { nonce } => {
                let coord = self.coord_sample();
                ctx.send(from, Msg::Pong { nonce, coord })
            }
            Msg::InfoReq { nonce } => self.answer_info(ctx, from, nonce),
            Msg::ConnReq {
                nonce,
                kind,
                vdist,
                coord,
            } => {
                if let (Some(c), Some(s)) = (self.coords.as_mut(), coord) {
                    c.note(self.state.host, from, *s, self.discovery.as_deref_mut());
                }
                self.handle_conn_req(ctx, from, nonce, kind, vdist)
            }
            Msg::ConnResp { nonce, result } if self.failover_in_flight() == Some((nonce, from)) => {
                self.on_failover_resp(ctx, from, result)
            }
            m @ (Msg::InfoResp { .. } | Msg::Pong { .. } | Msg::ConnResp { .. }) => self
                .step_walk(ctx, |w, ctx, policy, free| {
                    w.on_msg(ctx, from, &m, policy, free)
                }),
            Msg::ParentChange {
                new_grandparent,
                gen,
            } => self.on_parent_change(ctx, from, new_grandparent, gen),
            Msg::GrandparentChange { new_grandparent } if is_parent => {
                self.state.grandparent = Some(new_grandparent);
                // Deeper ancestors are stale until the parent's
                // AncestorList gossip arrives.
                if let Some(r) = self.resilience.as_mut() {
                    r.set_ancestors(ctx, &self.state, [from, new_grandparent]);
                }
            }
            Msg::AncestorList { ancestors } if is_parent => {
                if let Some(r) = self.resilience.as_mut() {
                    r.set_ancestors(ctx, &self.state, std::iter::once(from).chain(ancestors));
                }
            }
            Msg::RootPath { path } if is_parent && self.cfg.maintain_root_path => {
                self.state.root_path = path;
                self.broadcast_root_path(ctx);
            }
            Msg::Leave if is_parent => {
                self.state.parent_dist = None;
                self.become_orphan(ctx, false);
            }
            Msg::Heartbeat if self.state.has_child(from) => self.note_child_alive(from, ctx.now()),
            // A peer beacons us as its parent, but we dropped it (e.g.
            // pruned after a false alarm): tell it to re-home.
            Msg::Heartbeat => ctx.send(from, Msg::Leave),
            Msg::ChildLeave => {
                self.state.remove_child(from);
                if let Some(hb) = self.heartbeat.as_mut() {
                    hb.forget(from);
                }
            }
            Msg::Nack { seqs } if self.state.has_child(from) => {
                if let Some(r) = self.repair.as_ref() {
                    r.serve_nack(ctx, from, seqs);
                }
            }
            Msg::Data { seq } if is_parent => self.on_chunk(ctx, seq, false),
            Msg::CrossNack { seqs } if self.state.connected() => {
                if let Some(r) = self.repair.as_mut() {
                    r.serve_cross(ctx, from, seqs);
                }
            }
            Msg::CrossData { seq } => self.on_chunk(ctx, seq, true),
            Msg::PeerReq { nonce } => {
                if let Some(d) = self.discovery.as_mut() {
                    let coords = self.coords.as_ref().map(|c| c.peers.as_slice());
                    d.serve_probe(ctx, from, nonce, &self.state, coords);
                }
            }
            Msg::PeerList { nonce, peers } => {
                let guided_ok = self.coords.is_some();
                let joining = self.walk.is_none() && !self.state.connected();
                let d = self.discovery.as_mut();
                if d.is_some_and(|d| d.on_peer_list(ctx, from, nonce, peers, guided_ok, joining)) {
                    self.join_walk(ctx, from);
                }
            }
            Msg::GrandparentChange { .. }
            | Msg::AncestorList { .. }
            | Msg::RootPath { .. }
            | Msg::Leave
            | Msg::Nack { .. }
            | Msg::Data { .. }
            | Msg::CrossNack { .. } => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token & WALK_TOKEN_BIT != 0 {
            self.step_walk(ctx, |w, ctx, policy, free| {
                w.on_timer(ctx, token, policy, free)
            });
        } else if token & FAILOVER_TOKEN_BIT != 0 {
            self.on_failover_timeout(ctx, token & !FAILOVER_TOKEN_BIT);
        } else if token & DISCOVERY_TOKEN_BIT != 0 {
            let nonce = token & !DISCOVERY_TOKEN_BIT;
            let coord = self.coords.as_ref().map(|c| c.state.coord);
            let d = self.discovery.as_mut();
            if d.is_some_and(|d| d.on_timeout(ctx, nonce, coord, &mut self.gen_next)) {
                self.join_walk(ctx, self.source);
            }
        } else {
            match token {
                REFINE_TOKEN => self.on_refine_tick(ctx),
                DATA_WATCH_TOKEN => self.on_data_watch(ctx),
                HEARTBEAT_TOKEN => {
                    if let Some(hb) = self.heartbeat.as_mut() {
                        hb.on_tick(ctx, &mut self.state);
                    }
                }
                ADMIT_TOKEN => {
                    if let Some(mut a) = self.admission.take() {
                        a.drain(ctx, self);
                        self.admission = Some(a);
                    }
                }
                REPAIR_TOKEN => {
                    if let Some(r) = self.repair.as_mut() {
                        r.on_timer(ctx, self.state.parent);
                    }
                }
                RETRY_TOKEN => self.on_retry(ctx),
                _ => {}
            }
        }
    }

    fn emit_data(&mut self, ctx: &mut Ctx<'_>, seq: u64) {
        debug_assert!(self.state.is_source);
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

    fn configure_discovery(&mut self, cfg: &DiscoveryConfig, now: SimTime) {
        // Every agent gets the state: joiners probe out of it, and any
        // attached node (the source included) answers probes out of its
        // serving budget.
        self.discovery = Some(Box::new(DiscoveryState::new(cfg, self.state.host, now)));
    }
}

#[cfg(test)]
mod testkit;
#[cfg(test)]
mod tests;
