//! The iterative top-down join walk shared by VDM and HMTP.
//!
//! Both protocols join the same way mechanically (§3.2, §2.4.7): starting
//! at the source, the newcomer sends an information request to the
//! current node, pings the reported children, and then decides — per its
//! own policy — whether to descend into a child, or to attach here
//! (possibly splicing between the current node and some of its children,
//! VDM's Case II). This module owns that mechanics: probe rounds,
//! timeouts, retries, redirects on full targets, and restart at the
//! fallback node; the protocol supplies a [`WalkPolicy`].

use crate::agent::Ctx;
use crate::coords::{pair_seed, CoordSample, VivaldiState};
use crate::msg::{ChildEntry, ConnKind, ConnResult, Msg};
use crate::VDist;
use vdm_netsim::{HostId, SimTime};

/// One probed child of the current node.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChildProbe {
    /// The child.
    pub child: HostId,
    /// The current node's stored virtual distance to this child (from
    /// the information response).
    pub d_parent_child: VDist,
    /// The walker's measured virtual distance to this child.
    pub d_new_child: VDist,
}

/// Everything the policy sees about one walk iteration.
#[derive(Clone, Debug)]
pub struct ProbeResult {
    /// The node being examined.
    pub current: HostId,
    /// The walker's measured virtual distance to `current`.
    pub d_current: VDist,
    /// Probed children (walker itself excluded; children that did not
    /// answer in time excluded).
    pub children: Vec<ChildProbe>,
    /// 0-based iteration of this walk (0 = the start node). Policies
    /// whose refinement is single-level (HMTP probes one root-path
    /// node, §2.4.7) use this to stop descending.
    pub iteration: usize,
}

/// The policy's verdict for one iteration.
#[derive(Clone, Debug, PartialEq)]
pub enum WalkStep {
    /// Continue the walk at this child (VDM Case III, HMTP "closer
    /// child").
    Descend(HostId),
    /// Attach to the current node. `splice` lists children of the
    /// current node to adopt (VDM Case II), closest-first; empty for a
    /// plain connection (Case I).
    Attach {
        /// Children of the current node to adopt.
        splice: Vec<HostId>,
    },
}

/// A protocol's join behaviour: how to turn raw measurements into
/// virtual distances (Chapter 4's generalization) and which step to take
/// given a probe round.
pub trait WalkPolicy {
    /// Virtual distance from a measured RTT (ms) and estimated path loss
    /// probability. Delay-based protocols ignore `loss_est`.
    fn vdist(&self, rtt_ms: f64, loss_est: f64) -> VDist;

    /// Whether [`WalkPolicy::vdist`] needs a loss estimate (triggers
    /// loss probing during the walk).
    fn needs_loss(&self) -> bool {
        false
    }

    /// Decide the next step. `purpose` lets protocols whose initial
    /// join differs from their optimization pass (e.g. BTP: join at the
    /// root, improve via switches) branch on why the walk runs.
    fn decide(&self, probe: &ProbeResult, purpose: WalkPurpose) -> WalkStep;

    /// Whether a refinement walk may only switch parents when the new
    /// parent is strictly closer than the current one (HMTP/BTP switch
    /// on improvement; VDM's §3.4 refinement switches whenever the
    /// re-join lands elsewhere).
    fn refine_requires_improvement(&self) -> bool {
        false
    }

    /// Where a periodic refinement walk should start. Default: the
    /// source (VDM §3.4); HMTP picks a random node on its root path.
    fn refine_start(
        &self,
        state: &crate::peer::PeerState,
        source: HostId,
        _rng: &mut rand::rngs::StdRng,
    ) -> HostId {
        let _ = state;
        source
    }

    /// Classify each probed child for trace output, using the
    /// protocol's own directionality test (VDM overrides this with its
    /// Case I/II/III classifier). Only called when tracing is enabled;
    /// must be a pure function of the probe round. Default: every
    /// child is [`vdm_trace::CaseClass::Unknown`].
    fn classify_for_trace(&self, probe: &ProbeResult) -> Vec<(HostId, vdm_trace::CaseClass)> {
        probe
            .children
            .iter()
            .map(|c| (c.child, vdm_trace::CaseClass::Unknown))
            .collect()
    }

    /// Pick the anchor a damped restart resumes from. `visited` is the
    /// walk's responsive descent chain, shallowest-first, with the node
    /// that just failed already removed; `coord_dist` estimates the
    /// walker's virtual distance to each visited entry out of an active
    /// coordinate embedding (`None` when no embedding runs, `INFINITY`
    /// entries where no sample was piggybacked). Only called when
    /// [`WalkConfig::restart_anchor`] damping is on. Default: the
    /// deepest visited ancestor, else the fallback — exactly the
    /// pre-coordinate damping. VDM overrides this to resume from the
    /// coordinate-nearest visited ancestor (deepest on ties), so a
    /// restart lands in the joiner's predicted tree region instead of
    /// blindly at the frontier.
    fn restart_anchor(
        &self,
        visited: &[HostId],
        coord_dist: Option<&[VDist]>,
        fallback: HostId,
    ) -> HostId {
        let _ = coord_dist;
        visited.last().copied().unwrap_or(fallback)
    }
}

/// Stable trace label for a walk purpose.
pub(crate) fn purpose_label(p: WalkPurpose) -> &'static str {
    match p {
        WalkPurpose::Join => "join",
        WalkPurpose::Reconnect => "rejoin",
        WalkPurpose::Refine => "refine",
    }
}

/// Why the walk is running; determines timing stats and the start node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalkPurpose {
    /// First join of this incarnation (startup time).
    Join,
    /// Recovery after the parent left (reconnection time, §3.3).
    Reconnect,
    /// Periodic refinement (§3.4); does not disturb the current
    /// connection until a better parent accepts.
    Refine,
}

/// Final result of a walk, handed back to the agent.
#[derive(Clone, Debug)]
pub enum WalkOutcome {
    /// A parent accepted us.
    Connected {
        /// The new parent.
        parent: HostId,
        /// Our new grandparent (the parent's parent).
        grandparent: Option<HostId>,
        /// Parent's root path (empty unless the protocol maintains
        /// root paths).
        root_path: Vec<HostId>,
        /// Children adopted through a splice, with our measured
        /// distances to them.
        adopted: Vec<(HostId, VDist)>,
        /// Our measured virtual distance to the parent.
        vdist_to_parent: VDist,
    },
    /// Restarts exhausted; the agent should retry later.
    Failed,
}

#[allow(clippy::enum_variant_names)] // the phases genuinely all await something
enum Phase {
    AwaitInfo {
        sent_at: SimTime,
        retries: u32,
    },
    AwaitProbes {
        d_current: VDist,
        /// Stored parent->child distances from the info response.
        reported: Vec<ChildEntry>,
        /// Outstanding pings: (nonce, child, sent_at).
        pending: Vec<(u64, HostId, SimTime)>,
        results: Vec<ChildProbe>,
    },
    AwaitConn {
        target: HostId,
        vdist: VDist,
        /// Requested splice children with our distances to them.
        splice: Vec<(HostId, VDist)>,
        /// Distances to the current node's probed children, for
        /// redirect handling.
        probed: Vec<(HostId, VDist)>,
    },
}

/// Deadline for each probe/connect round (before backoff).
pub(crate) const TIMEOUT: SimTime = SimTime(2_000_000);
/// Info-request retries per node before restarting the walk.
pub(crate) const INFO_RETRIES: u32 = 1;

/// Tunables of the walk mechanics. Each round's deadline is `TIMEOUT`
/// and a silent node gets `INFO_RETRIES` more info requests.
#[derive(Clone, Copy, Debug)]
pub struct WalkConfig {
    /// Walk restarts (from the fallback node) before giving up.
    pub max_restarts: u32,
    /// Per-restart exponential multiplier on the round deadline (`1.0`
    /// keeps the paper's fixed deadlines; chaos runs use `> 1.0` so a
    /// walk under partition backs off instead of hammering a dead
    /// path).
    pub backoff: f64,
    /// Uniform ± fraction of jitter applied to every deadline. `0.0`
    /// draws no randomness at all, leaving the RNG streams of existing
    /// runs untouched.
    pub jitter_frac: f64,
    /// Restart-anchor damping: restart a failed walk from the deepest
    /// *visited* responsive ancestor instead of always the fallback
    /// node. A Case-III descent that dies near the frontier then
    /// resumes near the frontier — restart depth is monotonically
    /// non-decreasing within one join — instead of re-walking the whole
    /// tree from the source. `false` keeps the paper's source-anchored
    /// restarts (and the event sequence of existing runs) exactly.
    pub restart_anchor: bool,
}

impl Default for WalkConfig {
    fn default() -> Self {
        Self {
            max_restarts: 4,
            backoff: 1.0,
            jitter_frac: 0.0,
            restart_anchor: false,
        }
    }
}

impl WalkConfig {
    /// Hardened variant for chaos runs: exponential backoff with
    /// jittered deadlines and a larger restart budget.
    pub fn hardened() -> Self {
        Self {
            max_restarts: 6,
            backoff: 2.0,
            jitter_frac: 0.1,
            ..Self::default()
        }
    }
}

/// Timer-token namespace bit for walk deadlines (the agent routes these
/// tokens back into [`Walk::on_timer`]).
pub const WALK_TOKEN_BIT: u64 = 1 << 62;

/// Exponential backoff with optional jitter: `base * backoff^attempt`
/// (exponent capped at 6), then a uniform ± `jitter_frac` factor.
/// Draws randomness only when `jitter_frac > 0`, so default configs
/// leave the RNG streams of existing runs byte-identical.
pub(crate) fn scaled_delay(
    base: SimTime,
    backoff: f64,
    attempt: u32,
    jitter_frac: f64,
    ctx: &mut Ctx<'_>,
) -> SimTime {
    let mut ms = base.as_ms();
    if backoff > 1.0 && attempt > 0 {
        ms *= backoff.powi(attempt.min(6) as i32);
    }
    if jitter_frac > 0.0 {
        use rand::Rng;
        let f = 1.0 + ctx.io.rng().gen_range(-jitter_frac..jitter_frac);
        ms *= f.max(0.1);
    }
    SimTime::from_ms(ms)
}

/// What a walk learns from the replies it measures; the agent reads it
/// back when the walk finishes.
pub(crate) struct Measured {
    /// Every peer measured (examined nodes and probed children alike,
    /// duplicates possible). Pure bookkeeping with no events of its
    /// own; the resilience extension harvests it as backup-parent
    /// candidates.
    pub(crate) harvest: Vec<(HostId, VDist)>,
    /// The walker's own embedding state, updated from every measured
    /// RTT whose reply piggybacked a remote sample. `None` (coords off)
    /// makes every coordinate branch in this walk a no-op.
    pub(crate) coords: Option<VivaldiState>,
    /// Remote samples learned this walk, for the agent's peer-coord
    /// cache (dedup is the agent's job).
    pub(crate) coord_harvest: Vec<(HostId, CoordSample)>,
}

impl Measured {
    /// Turn `from`'s reply to a request sent at `sent_at` into a virtual
    /// distance (probing loss only when the policy needs it), record it,
    /// and fold the piggybacked `remote` sample into the embedding. The
    /// embedding step draws no events, counters or RNG unless an
    /// embedding runs *and* the reply carried a sample.
    fn measure(
        &mut self,
        ctx: &mut Ctx<'_>,
        policy: &dyn WalkPolicy,
        from: HostId,
        sent_at: SimTime,
        remote: Option<CoordSample>,
    ) -> VDist {
        let rtt_ms = (ctx.now() - sent_at).as_ms();
        let loss = policy.needs_loss().then(|| ctx.estimate_loss(from));
        let d = policy.vdist(rtt_ms, loss.unwrap_or(0.0));
        self.harvest.push((from, d));
        if let (Some(state), Some(sample)) = (self.coords.as_mut(), remote) {
            let step = state.update(sample, rtt_ms, pair_seed(ctx.me, from));
            let err = state.err;
            self.coord_harvest.push((from, sample));
            ctx.stats.recovery.coord_updates += 1;
            ctx.trace(|| vdm_trace::TraceEvent::CoordUpdate {
                host: ctx.me.0,
                err,
                step,
            });
        }
        d
    }
}

/// The walk state machine. One instance per in-progress (re)join or
/// refinement.
pub struct Walk {
    /// Why we are walking.
    pub purpose: WalkPurpose,
    /// When the walk was triggered (join command / orphaning).
    pub started_at: SimTime,
    current: HostId,
    fallback: HostId,
    restarts: u32,
    cfg: WalkConfig,
    /// Monotone generation; stale timers/replies carry older values.
    generation: u64,
    /// Completed probe rounds in the current attempt.
    iteration: usize,
    /// Distance to the current parent (refinement baseline), if known.
    refine_baseline: Option<VDist>,
    pub(crate) seen: Measured,
    /// Responsive descent chain, shallowest-first: every node that
    /// answered an info request on the way down (the same bookkeeping
    /// the backup-candidate harvest draws from). Restart-anchor damping
    /// resumes at its deepest entry that is not the node that just
    /// failed. Unused (and empty) unless `cfg.restart_anchor` is on.
    visited: Vec<HostId>,
    /// Piggybacked coordinate of each `visited` entry (parallel vector;
    /// `None` where the info response carried no sample). Feeds the
    /// [`WalkPolicy::restart_anchor`] coordinate ranking.
    visited_coords: Vec<Option<CoordSample>>,
    phase: Phase,
}

impl Walk {
    /// Start a walk at `start`, falling back to `fallback` (the source)
    /// on trouble. Sends the first info request immediately.
    #[allow(clippy::too_many_arguments)]
    pub fn start(
        purpose: WalkPurpose,
        start: HostId,
        fallback: HostId,
        started_at: SimTime,
        cfg: WalkConfig,
        gen_base: u64,
        refine_baseline: Option<VDist>,
        coords: Option<VivaldiState>,
        ctx: &mut Ctx<'_>,
    ) -> Self {
        let mut w = Self {
            purpose,
            started_at,
            current: start,
            fallback,
            restarts: 0,
            cfg,
            generation: gen_base,
            iteration: 0,
            refine_baseline,
            seen: Measured {
                harvest: Vec::new(),
                coords,
                coord_harvest: Vec::new(),
            },
            visited: Vec::new(),
            visited_coords: Vec::new(),
            phase: Phase::AwaitInfo {
                sent_at: SimTime::ZERO,
                retries: 0,
            },
        };
        ctx.trace(|| vdm_trace::TraceEvent::WalkStart {
            host: ctx.me.0,
            purpose: purpose_label(purpose),
            start: start.0,
        });
        w.begin_info(ctx, 0);
        w
    }

    fn bump(&mut self) -> u64 {
        self.generation += 1;
        self.generation
    }

    /// Current walk generation (also the nonce of in-flight requests).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The walker's sample for outgoing piggyback fields.
    fn coord_sample(&self) -> Option<Box<CoordSample>> {
        self.seen.coords.map(|s| Box::new(s.sample()))
    }

    fn arm_deadline(&self, ctx: &mut Ctx<'_>) {
        let t = scaled_delay(
            TIMEOUT,
            self.cfg.backoff,
            self.restarts,
            self.cfg.jitter_frac,
            ctx,
        );
        ctx.timer(t, WALK_TOKEN_BIT | self.generation);
    }

    /// Send an info request to the current node; `retries` counts the
    /// earlier unanswered ones (0 for a node we just moved to).
    fn begin_info(&mut self, ctx: &mut Ctx<'_>, retries: u32) {
        let nonce = self.bump();
        self.phase = Phase::AwaitInfo {
            sent_at: ctx.now(),
            retries,
        };
        if self.current == ctx.me {
            // Degenerate: walking to ourselves (e.g. stale grandparent
            // pointer). Restart from the fallback instead.
            self.current = self.fallback;
        }
        ctx.send(self.current, Msg::InfoReq { nonce });
        self.arm_deadline(ctx);
    }

    fn restart(&mut self, ctx: &mut Ctx<'_>, policy: &dyn WalkPolicy) -> Option<WalkOutcome> {
        self.restarts += 1;
        ctx.stats.walk_restarts += 1;
        let anchor = if self.cfg.restart_anchor {
            // Restart-anchor damping: drop the node that just failed
            // from the responsive chain, then let the policy pick the
            // resume point. Without an embedding that is the deepest
            // remaining visited ancestor (the chain only ever grows
            // except for that one pop, so restart depth is monotone
            // non-decreasing while failures stay at the frontier); with
            // one, VDM resumes from the coordinate-nearest ancestor.
            while self.visited.last() == Some(&self.current) {
                self.visited.pop();
                self.visited_coords.pop();
            }
            let coord_dist: Option<Vec<VDist>> = self.seen.coords.as_ref().map(|state| {
                self.visited_coords
                    .iter()
                    .map(|c| c.map_or(VDist::INFINITY, |s| state.coord.dist(s.coord)))
                    .collect()
            });
            policy.restart_anchor(&self.visited, coord_dist.as_deref(), self.fallback)
        } else {
            self.fallback
        };
        ctx.trace(|| vdm_trace::TraceEvent::WalkRestart {
            host: ctx.me.0,
            restarts: self.restarts,
            anchor: anchor.0,
        });
        if self.restarts > self.cfg.max_restarts {
            return Some(WalkOutcome::Failed);
        }
        self.current = anchor;
        self.iteration = 0;
        self.begin_info(ctx, 0);
        None
    }

    /// Feed a message to the walk. Returns an outcome when it finishes.
    pub fn on_msg(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: HostId,
        msg: &Msg,
        policy: &dyn WalkPolicy,
        free_degree: u32,
    ) -> Option<WalkOutcome> {
        match (&mut self.phase, msg) {
            (
                Phase::AwaitInfo { sent_at, .. },
                Msg::InfoResp {
                    nonce,
                    children,
                    coord,
                    ..
                },
            ) if *nonce == self.generation && from == self.current => {
                let coord = coord.as_deref().copied();
                let d_current = self.seen.measure(ctx, policy, from, *sent_at, coord);
                if self.cfg.restart_anchor && self.visited.last() != Some(&self.current) {
                    self.visited.push(self.current);
                    self.visited_coords.push(coord);
                }
                // Probe every reported child except ourselves.
                let reported: Vec<ChildEntry> = children
                    .iter()
                    .copied()
                    .filter(|e| e.child != ctx.me)
                    .collect();
                if reported.is_empty() {
                    return self.decide(ctx, d_current, Vec::new(), policy, free_degree);
                }
                let mut pending = Vec::with_capacity(reported.len());
                for e in &reported {
                    let nonce = self.bump();
                    pending.push((nonce, e.child, ctx.now()));
                    ctx.send(e.child, Msg::Ping { nonce });
                }
                self.phase = Phase::AwaitProbes {
                    d_current,
                    reported,
                    pending,
                    results: Vec::new(),
                };
                self.arm_deadline(ctx);
                None
            }
            (
                Phase::AwaitProbes {
                    d_current,
                    reported,
                    pending,
                    results,
                },
                Msg::Pong { nonce, coord },
            ) => {
                // A stale pong matches no outstanding ping.
                let pos = pending
                    .iter()
                    .position(|(n, c, _)| *n == *nonce && *c == from)?;
                let (_, child, sent_at) = pending.swap_remove(pos);
                let d_parent_child = reported
                    .iter()
                    .find(|e| e.child == child)
                    .map_or(VDist::INFINITY, |e| e.vdist);
                let d_new_child = self.seen.measure(ctx, policy, child, sent_at, *coord);
                results.push(ChildProbe {
                    child,
                    d_parent_child,
                    d_new_child,
                });
                if pending.is_empty() {
                    let d = *d_current;
                    let res = std::mem::take(results);
                    return self.decide(ctx, d, res, policy, free_degree);
                }
                None
            }
            (
                Phase::AwaitConn {
                    target,
                    vdist,
                    splice,
                    probed,
                },
                Msg::ConnResp { nonce, result },
            ) if *nonce == self.generation && from == *target => {
                match result {
                    ConnResult::Accepted {
                        grandparent,
                        adopted,
                        root_path,
                    } => {
                        let adopted_with_dist = adopted
                            .iter()
                            .filter_map(|&c| splice.iter().find(|(h, _)| *h == c).copied())
                            .collect();
                        ctx.stats.join_completions += 1;
                        ctx.trace(|| vdm_trace::TraceEvent::WalkConnected {
                            host: ctx.me.0,
                            parent: from.0,
                            purpose: purpose_label(self.purpose),
                        });
                        Some(WalkOutcome::Connected {
                            parent: from,
                            grandparent: *grandparent,
                            root_path: root_path.clone(),
                            adopted: adopted_with_dist,
                            vdist_to_parent: *vdist,
                        })
                    }
                    ConnResult::Redirect { next } => {
                        let next = *next;
                        if next == ctx.me {
                            return self.restart(ctx, policy);
                        }
                        // Connect directly if we probed the redirect
                        // target this round; otherwise walk from it.
                        if let Some(&(_, d)) = probed.iter().find(|(h, _)| *h == next) {
                            self.request_conn(ctx, next, d, Vec::new(), Vec::new());
                        } else {
                            self.current = next;
                            self.begin_info(ctx, 0);
                        }
                        None
                    }
                    ConnResult::Rejected => {
                        ctx.stats.rejected_conns += 1;
                        self.restart(ctx, policy)
                    }
                }
            }
            _ => None,
        }
    }

    /// Feed a deadline timer. Returns an outcome when the walk dies.
    pub fn on_timer(
        &mut self,
        ctx: &mut Ctx<'_>,
        token: u64,
        policy: &dyn WalkPolicy,
        free_degree: u32,
    ) -> Option<WalkOutcome> {
        if token & WALK_TOKEN_BIT == 0 || (token & !WALK_TOKEN_BIT) != self.generation {
            return None; // stale deadline from an earlier phase
        }
        match &mut self.phase {
            Phase::AwaitInfo { retries, .. } if *retries < INFO_RETRIES => {
                let retries = *retries + 1;
                self.begin_info(ctx, retries);
                None
            }
            Phase::AwaitProbes {
                d_current, results, ..
            } => {
                // Children that answered are enough; the silent ones are
                // treated as gone.
                let d = *d_current;
                let res = std::mem::take(results);
                self.decide(ctx, d, res, policy, free_degree)
            }
            Phase::AwaitInfo { .. } | Phase::AwaitConn { .. } => self.restart(ctx, policy),
        }
    }

    /// Run the policy over a completed probe round and act on it.
    fn decide(
        &mut self,
        ctx: &mut Ctx<'_>,
        d_current: VDist,
        children: Vec<ChildProbe>,
        policy: &dyn WalkPolicy,
        free_degree: u32,
    ) -> Option<WalkOutcome> {
        let probe = ProbeResult {
            current: self.current,
            d_current,
            children,
            iteration: self.iteration,
        };
        self.iteration += 1;
        let purpose = self.purpose;
        let step = policy.decide(&probe, purpose);
        ctx.trace(|| {
            let cases: Vec<(u32, vdm_trace::CaseClass)> = policy
                .classify_for_trace(&probe)
                .into_iter()
                .map(|(h, c)| (h.0, c))
                .collect();
            let (action, next, splice): (&'static str, u32, Option<u32>) = match &step {
                WalkStep::Descend(n) => ("descend", n.0, None),
                WalkStep::Attach { splice } => {
                    ("attach", probe.current.0, splice.first().map(|h| h.0))
                }
            };
            vdm_trace::TraceEvent::WalkDecision {
                host: ctx.me.0,
                at: probe.current.0,
                cases: vdm_trace::encode_cases(&cases),
                action,
                next,
                splice,
            }
        });
        match step {
            WalkStep::Descend(next) => {
                debug_assert!(probe.children.iter().any(|c| c.child == next));
                self.current = next;
                self.begin_info(ctx, 0);
                None
            }
            WalkStep::Attach { mut splice } => {
                // Improvement-gated refinement (HMTP/BTP): abandon the
                // pass unless the candidate parent is strictly closer
                // than the current one.
                if purpose == WalkPurpose::Refine && policy.refine_requires_improvement() {
                    if let Some(baseline) = self.refine_baseline {
                        if d_current >= baseline {
                            return Some(WalkOutcome::Failed);
                        }
                    }
                }
                // Trim the adoption list to our free degree (the paper:
                // "we make connections as long as the new node allows").
                splice.truncate(free_degree as usize);
                let splice_with_dist: Vec<(HostId, VDist)> = splice
                    .iter()
                    .filter_map(|&c| {
                        probe
                            .children
                            .iter()
                            .find(|p| p.child == c)
                            .map(|p| (c, p.d_new_child))
                    })
                    .collect();
                let probed: Vec<(HostId, VDist)> = probe
                    .children
                    .iter()
                    .map(|p| (p.child, p.d_new_child))
                    .collect();
                self.request_conn(ctx, self.current, d_current, splice_with_dist, probed);
                None
            }
        }
    }

    /// Ask `target` to take us as its child at distance `vdist` — a
    /// Case II splice when `splice` names children to displace — and
    /// await the answer.
    fn request_conn(
        &mut self,
        ctx: &mut Ctx<'_>,
        target: HostId,
        vdist: VDist,
        splice: Vec<(HostId, VDist)>,
        probed: Vec<(HostId, VDist)>,
    ) {
        let kind = if splice.is_empty() {
            ConnKind::Child
        } else {
            ConnKind::Splice {
                displace: splice.iter().map(|&(h, _)| h).collect(),
            }
        };
        let nonce = self.bump();
        self.phase = Phase::AwaitConn {
            target,
            vdist,
            splice,
            probed,
        };
        let coord = self.coord_sample();
        ctx.send(
            target,
            Msg::ConnReq {
                nonce,
                kind,
                vdist,
                coord,
            },
        );
        self.arm_deadline(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::RunStats;
    use std::sync::Arc;
    use vdm_netsim::{Engine, LatencySpace};

    /// Descend into the first reported child; attach at leaves.
    struct DescendFirst;
    impl WalkPolicy for DescendFirst {
        fn vdist(&self, rtt_ms: f64, _loss: f64) -> VDist {
            rtt_ms
        }
        fn decide(&self, p: &ProbeResult, _purpose: WalkPurpose) -> WalkStep {
            match p.children.first() {
                Some(c) => WalkStep::Descend(c.child),
                None => WalkStep::Attach { splice: vec![] },
            }
        }
    }

    fn engine() -> Engine<Msg> {
        let n = 8;
        let mut rtt = vec![vec![0.0; n]; n];
        for (i, row) in rtt.iter_mut().enumerate() {
            for (j, v) in row.iter_mut().enumerate() {
                if i != j {
                    *v = 10.0;
                }
            }
        }
        Engine::new(Arc::new(LatencySpace::from_rtt_matrix(&rtt)), 1)
    }

    /// Feed an info response from `from` reporting `children` (then the
    /// matching pong, if any), driving the walk one level.
    fn step_info(
        walk: &mut Walk,
        eng: &mut Engine<Msg>,
        stats: &mut RunStats,
        from: u32,
        children: &[u32],
    ) {
        let msg = Msg::InfoResp {
            nonce: walk.generation(),
            children: children
                .iter()
                .map(|&c| ChildEntry {
                    child: HostId(c),
                    vdist: 1.0,
                })
                .collect(),
            parent: None,
            coord: None,
        };
        let mut ctx = Ctx {
            me: HostId(0),
            io: eng,
            stats,
            loss_probe_noise: 0.0,
        };
        walk.on_msg(&mut ctx, HostId(from), &msg, &DescendFirst, 2);
        // At most one child per round keeps the ping nonce predictable.
        for &c in children {
            let pong = Msg::Pong {
                nonce: walk.generation(),
                coord: None,
            };
            walk.on_msg(&mut ctx, HostId(c), &pong, &DescendFirst, 2);
        }
    }

    fn reject(walk: &mut Walk, eng: &mut Engine<Msg>, stats: &mut RunStats, from: u32) {
        let msg = Msg::ConnResp {
            nonce: walk.generation(),
            result: ConnResult::Rejected,
        };
        let mut ctx = Ctx {
            me: HostId(0),
            io: eng,
            stats,
            loss_probe_noise: 0.0,
        };
        walk.on_msg(&mut ctx, HostId(from), &msg, &DescendFirst, 2);
    }

    /// Restart-anchor damping: a Case-III descent that dies at the
    /// frontier resumes from the deepest visited responsive ancestor,
    /// and the restart depth never decreases within one join.
    #[test]
    fn damped_restarts_resume_at_deepest_visited_ancestor() {
        let mut eng = engine();
        let mut stats = RunStats::new(8);
        let cfg = WalkConfig {
            restart_anchor: true,
            ..WalkConfig::default()
        };
        let mut walk = {
            let mut ctx = Ctx {
                me: HostId(0),
                io: &mut eng,
                stats: &mut stats,
                loss_probe_noise: 0.0,
            };
            Walk::start(
                WalkPurpose::Join,
                HostId(7),
                HostId(7),
                SimTime::ZERO,
                cfg,
                0,
                None,
                None,
                &mut ctx,
            )
        };
        // Chain depth per host in this scripted tree: 7 -> 1 -> leaf.
        let depth = |h: HostId| match h.0 {
            7 => 0usize,
            1 => 1,
            _ => 2,
        };
        // Descend 7 -> 1 -> 2; 2 rejects the attach.
        step_info(&mut walk, &mut eng, &mut stats, 7, &[1]);
        step_info(&mut walk, &mut eng, &mut stats, 1, &[2]);
        step_info(&mut walk, &mut eng, &mut stats, 2, &[]);
        reject(&mut walk, &mut eng, &mut stats, 2);
        assert_eq!(walk.restarts, 1);
        assert_eq!(walk.current, HostId(1), "resume below the source");
        let mut depths = vec![depth(walk.current)];
        // Second attempt: 1 -> 3; 3 rejects too.
        step_info(&mut walk, &mut eng, &mut stats, 1, &[3]);
        step_info(&mut walk, &mut eng, &mut stats, 3, &[]);
        reject(&mut walk, &mut eng, &mut stats, 3);
        assert_eq!(walk.restarts, 2);
        assert_eq!(walk.current, HostId(1));
        depths.push(depth(walk.current));
        assert!(
            depths.windows(2).all(|w| w[1] >= w[0]),
            "restart depth must be monotone non-decreasing, got {depths:?}"
        );
        // Walk 3: 1 -> 4 accepts; the damped walk still completes.
        step_info(&mut walk, &mut eng, &mut stats, 1, &[4]);
        step_info(&mut walk, &mut eng, &mut stats, 4, &[]);
        let msg = Msg::ConnResp {
            nonce: walk.generation(),
            result: ConnResult::Accepted {
                grandparent: Some(HostId(1)),
                adopted: vec![],
                root_path: vec![],
            },
        };
        let mut ctx = Ctx {
            me: HostId(0),
            io: &mut eng,
            stats: &mut stats,
            loss_probe_noise: 0.0,
        };
        let out = walk.on_msg(&mut ctx, HostId(4), &msg, &DescendFirst, 2);
        assert!(matches!(
            out,
            Some(WalkOutcome::Connected { parent, .. }) if parent == HostId(4)
        ));
    }

    /// The flag off keeps the paper's behaviour: every restart goes back
    /// to the fallback node.
    #[test]
    fn undamped_restarts_return_to_the_fallback() {
        let mut eng = engine();
        let mut stats = RunStats::new(8);
        let mut walk = {
            let mut ctx = Ctx {
                me: HostId(0),
                io: &mut eng,
                stats: &mut stats,
                loss_probe_noise: 0.0,
            };
            Walk::start(
                WalkPurpose::Join,
                HostId(7),
                HostId(7),
                SimTime::ZERO,
                WalkConfig::default(),
                0,
                None,
                None,
                &mut ctx,
            )
        };
        step_info(&mut walk, &mut eng, &mut stats, 7, &[1]);
        step_info(&mut walk, &mut eng, &mut stats, 1, &[2]);
        step_info(&mut walk, &mut eng, &mut stats, 2, &[]);
        reject(&mut walk, &mut eng, &mut stats, 2);
        assert_eq!(walk.restarts, 1);
        assert_eq!(
            walk.current,
            HostId(7),
            "undamped walks restart at the fallback"
        );
    }
}
