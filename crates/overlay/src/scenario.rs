//! Seeded join/leave/churn schedules.
//!
//! §3.6.2: "We give 2000s for join process at the beginning. We take
//! 400s as a time interval and define the churn based on that interval.
//! Based on the churn rate, a number of nodes join and leave the tree.
//! [...] At the end of every time slot, we give 100s for tree to come to
//! steady state, then we do the measurements." [`Scenario::churn`]
//! reproduces exactly that; [`Scenario::growth`] reproduces the Chapter 4
//! shape ("At each interval 50 nodes join, and then we do the
//! measurement").

use crate::discovery::DiscoveryConfig;
use rand::{rngs::StdRng, Rng, SeedableRng};
use vdm_netsim::{HostId, SimTime};

/// One scheduled driver action.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Action {
    /// Host joins the session.
    Join(HostId),
    /// Host leaves the session (gracefully, notifying neighbours).
    Leave(HostId),
    /// Host crashes: it vanishes without notifying anyone (ungraceful
    /// churn; neighbours must detect it via heartbeats / the stream
    /// watchdog).
    Crash(HostId),
    /// Take a measurement snapshot.
    Measure,
}

/// A full run schedule.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Time-ordered actions (stable order within equal times).
    pub actions: Vec<(SimTime, Action)>,
    /// Simulation horizon.
    pub end: SimTime,
    /// Seed for randomness derived *from* the schedule (crash
    /// selection): drawn from the generating scenario RNG, so the
    /// scenario seed alone fully determines [`Scenario::with_crashes`].
    pub crash_seed: u64,
    /// Bootstrap-discovery config for every joining agent; `None` (the
    /// default for all generators) keeps the omniscient source-anchored
    /// joins byte-identical to pre-discovery runs.
    pub discovery: Option<DiscoveryConfig>,
}

/// Parameters for [`Scenario::soak`] (sustained-churn robustness runs,
/// ablation A8).
#[derive(Clone, Copy, Debug)]
pub struct SoakConfig {
    /// Steady-state overlay population.
    pub members: usize,
    /// Initial join phase length, seconds.
    pub warmup_s: f64,
    /// Churn phase length, seconds (starts after the warmup).
    pub duration_s: f64,
    /// Rate of the Poisson process of individual graceful departures
    /// during the churn phase, events per second (0 disables).
    pub churn_rate_per_s: f64,
    /// Interval between correlated crash bursts, seconds (0 disables).
    /// Every burst crashes `burst_frac` of the in-session members at the
    /// *same* timestamp — the pathological case for grandparent-only
    /// recovery, since a crashed peer's grandparent is likely dead too.
    pub burst_every_s: f64,
    /// Fraction of in-session members crashed per burst, in `[0, 1]`.
    pub burst_frac: f64,
    /// Measurement cadence, seconds.
    pub measure_every_s: f64,
    /// Quiet tail after the churn phase, seconds: no departures, rejoins
    /// drain, measurements continue (post-repair state is read here).
    pub quiet_tail_s: f64,
}

/// Parameters for [`Scenario::churn`].
#[derive(Clone, Copy, Debug)]
pub struct ChurnConfig {
    /// Steady-state overlay population.
    pub members: usize,
    /// Initial join phase length, seconds (paper: 2000 s).
    pub warmup_s: f64,
    /// Churn slot length, seconds (paper: 400 s).
    pub slot_s: f64,
    /// Number of churn slots.
    pub slots: usize,
    /// Per-slot churn as a percentage of the population (paper: 1–20 %);
    /// at 10 % with 200 members, 20 leave and 20 join each slot.
    pub churn_pct: f64,
}

/// Parameters for [`Scenario::flash_crowd`] (decentralized-bootstrap
/// robustness runs, ablation A11): `joiners` newcomers hit a cold
/// `seeds`-sized bootstrap set nearly simultaneously, a fraction of the
/// set is stale (hosts that never join), and part of the live seeds
/// crash shortly after the crowd arrives.
#[derive(Clone, Debug)]
pub struct FlashCrowdConfig {
    /// Bootstrap-set size `k` (live + stale entries).
    pub seeds: usize,
    /// Fraction of the bootstrap set that is stale — entries pointing
    /// at hosts that never join the session, in `[0, 1)`. At least one
    /// seed stays live.
    pub stale_frac: f64,
    /// Newcomers arriving in the flash crowd.
    pub joiners: usize,
    /// Initial phase, seconds: the live seeds join (bootstrapping via
    /// each other) and settle before the crowd.
    pub warmup_s: f64,
    /// When the flash crowd starts, seconds.
    pub crowd_at_s: f64,
    /// Crowd arrival window, seconds: joiners land at uniform times in
    /// `[crowd_at_s, crowd_at_s + spread_s)`.
    pub spread_s: f64,
    /// Fraction of the *live* seeds crashed mid-bootstrap, in `[0, 1]`
    /// (the crashed seeds do not rejoin — their view entries go stale).
    pub seed_churn_frac: f64,
    /// Seconds after `crowd_at_s` at which the seed churn strikes.
    pub churn_delay_s: f64,
    /// Observation window after the crowd, seconds.
    pub settle_s: f64,
    /// Measurement cadence over the settle window, seconds.
    pub measure_every_s: f64,
    /// Discovery tunables for every agent; the generator fills in
    /// [`DiscoveryConfig::seeds`] with the (shuffled) bootstrap set.
    pub discovery: DiscoveryConfig,
}

impl Scenario {
    /// The paper's churn scenario over the candidate host pool
    /// (`candidates` must exclude the source and contain at least
    /// `members` hosts; with extra candidates, joiners rotate through
    /// the pool as the paper describes — "Some nodes may join and leave
    /// several times while some never join").
    pub fn churn(cfg: &ChurnConfig, candidates: &[HostId], seed: u64) -> Self {
        assert!(cfg.members >= 1 && candidates.len() >= cfg.members);
        assert!(cfg.slot_s > 0.0 && cfg.warmup_s >= 0.0);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7363_656e);
        let mut actions = Vec::new();

        // Initial population: first `members` of a shuffled pool, joining
        // at uniform times over the warmup.
        let mut pool = candidates.to_vec();
        shuffle(&mut pool, &mut rng);
        let mut inside: Vec<HostId> = pool[..cfg.members].to_vec();
        let mut outside: Vec<HostId> = pool[cfg.members..].to_vec();
        for &h in &inside {
            let t = rng.gen_range(0.0..cfg.warmup_s.max(1.0));
            actions.push((SimTime::from_ms(t * 1000.0), Action::Join(h)));
        }
        actions.push((SimTime::from_ms(cfg.warmup_s * 1000.0), Action::Measure));

        let per_slot = ((cfg.churn_pct / 100.0) * cfg.members as f64).round() as usize;
        for slot in 0..cfg.slots {
            let start = cfg.warmup_s + slot as f64 * cfg.slot_s;
            let t_churn = SimTime::from_ms(start * 1000.0);
            // Leaves: random current members.
            for _ in 0..per_slot.min(inside.len().saturating_sub(1)) {
                let i = rng.gen_range(0..inside.len());
                let h = inside.swap_remove(i);
                outside.push(h);
                actions.push((t_churn, Action::Leave(h)));
            }
            // Joins: random outsiders, restoring the population.
            while inside.len() < cfg.members && !outside.is_empty() {
                let i = rng.gen_range(0..outside.len());
                let h = outside.swap_remove(i);
                // Stagger re-joins a little so the walk traffic is not
                // one synchronized burst.
                let jitter = rng.gen_range(0.0..(cfg.slot_s * 0.1));
                actions.push((SimTime::from_ms((start + jitter) * 1000.0), Action::Join(h)));
                inside.push(h);
            }
            // Measure at the end of the slot (≥ 100 s after the churn
            // burst for the paper's parameters).
            let t_measure = SimTime::from_ms((start + cfg.slot_s) * 1000.0);
            actions.push((t_measure, Action::Measure));
        }

        let end = SimTime::from_ms((cfg.warmup_s + cfg.slots as f64 * cfg.slot_s + 1.0) * 1000.0);
        let crash_seed = rng.gen();
        Self::finish(actions, end, crash_seed)
    }

    /// Sustained-churn soak schedule (ablation A8): after a warmup join
    /// phase, individual members depart as a Poisson process
    /// (`churn_rate_per_s`) and every `burst_every_s` a correlated burst
    /// crashes `burst_frac` of the in-session members at one timestamp.
    /// Every departed member schedules a staggered rejoin a few seconds
    /// later (the rejoin *storm* that admission control absorbs).
    /// Measurements run every `measure_every_s` through the churn phase
    /// and the quiet tail. Fully determined by `cfg` and `seed`.
    pub fn soak(cfg: &SoakConfig, candidates: &[HostId], seed: u64) -> Self {
        assert!(cfg.members >= 2 && candidates.len() >= cfg.members);
        assert!(cfg.warmup_s >= 0.0 && cfg.duration_s > 0.0);
        assert!((0.0..=1.0).contains(&cfg.burst_frac));
        assert!(cfg.measure_every_s > 0.0);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x736f_616b);
        let mut actions = Vec::new();

        // Initial population joins at uniform times over the warmup.
        let mut pool = candidates.to_vec();
        shuffle(&mut pool, &mut rng);
        let mut inside: Vec<HostId> = pool[..cfg.members].to_vec();
        for &h in &inside {
            let t = rng.gen_range(0.0..cfg.warmup_s.max(1.0));
            actions.push((SimTime::from_ms(t * 1000.0), Action::Join(h)));
        }

        let churn_end = cfg.warmup_s + cfg.duration_s;
        let horizon = churn_end + cfg.quiet_tail_s;

        // Event timeline of the churn phase, merged in time order so the
        // RNG draws (member selection, rejoin stagger) happen in a
        // deterministic order.
        #[derive(Clone, Copy, PartialEq)]
        enum Ev {
            Depart,
            Burst,
        }
        let mut events: Vec<(f64, Ev)> = Vec::new();
        if cfg.churn_rate_per_s > 0.0 {
            let mut t = cfg.warmup_s;
            loop {
                let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                t += -u.ln() / cfg.churn_rate_per_s;
                if t >= churn_end {
                    break;
                }
                events.push((t, Ev::Depart));
            }
        }
        if cfg.burst_every_s > 0.0 && cfg.burst_frac > 0.0 {
            let mut k = 1usize;
            loop {
                let t = cfg.warmup_s + k as f64 * cfg.burst_every_s;
                if t >= churn_end {
                    break;
                }
                events.push((t, Ev::Burst));
                k += 1;
            }
        }
        events.sort_by(|a, b| a.0.total_cmp(&b.0));

        // Pending rejoins, kept sorted by (time, host) and drained into
        // the membership set as the cursor passes them. The Join action
        // itself is pushed at scheduling time; this queue only tracks
        // *membership* so later selections see the right inside-set.
        let mut rejoins: Vec<(f64, HostId)> = Vec::new();
        let schedule_rejoin =
            |h: HostId, now: f64, rng: &mut StdRng, actions: &mut Vec<(SimTime, Action)>| {
                let back = now + rng.gen_range(1.0..5.0);
                actions.push((SimTime::from_ms(back * 1000.0), Action::Join(h)));
                (back, h)
            };
        for (t, ev) in events {
            // Drain rejoins due by now (sorted insertion keeps order).
            while rejoins.first().is_some_and(|&(rt, _)| rt <= t) {
                inside.push(rejoins.remove(0).1);
            }
            match ev {
                Ev::Depart => {
                    if inside.len() < 2 {
                        continue;
                    }
                    let i = rng.gen_range(0..inside.len());
                    let h = inside.swap_remove(i);
                    actions.push((SimTime::from_ms(t * 1000.0), Action::Leave(h)));
                    let r = schedule_rejoin(h, t, &mut rng, &mut actions);
                    let at = rejoins.partition_point(|&(rt, rh)| (rt, rh) < r);
                    rejoins.insert(at, r);
                }
                Ev::Burst => {
                    let n = ((cfg.burst_frac * inside.len() as f64).round() as usize)
                        .min(inside.len().saturating_sub(1));
                    let t_burst = SimTime::from_ms(t * 1000.0);
                    for _ in 0..n {
                        let i = rng.gen_range(0..inside.len());
                        let h = inside.swap_remove(i);
                        actions.push((t_burst, Action::Crash(h)));
                        let r = schedule_rejoin(h, t, &mut rng, &mut actions);
                        let at = rejoins.partition_point(|&(rt, rh)| (rt, rh) < r);
                        rejoins.insert(at, r);
                    }
                }
            }
        }

        // Measurements: every `measure_every_s` from the end of the
        // warmup through the quiet tail, plus one final snapshot.
        let mut k = 0usize;
        let mut last_measure = f64::NEG_INFINITY;
        loop {
            let t = cfg.warmup_s + k as f64 * cfg.measure_every_s;
            if t > horizon {
                break;
            }
            actions.push((SimTime::from_ms(t * 1000.0), Action::Measure));
            last_measure = t;
            k += 1;
        }
        if last_measure < horizon {
            actions.push((SimTime::from_ms(horizon * 1000.0), Action::Measure));
        }

        let end = SimTime::from_ms((horizon + 1.0) * 1000.0);
        let crash_seed = rng.gen();
        Self::finish(actions, end, crash_seed)
    }

    /// Chapter 4 growth scenario: `batches` batches of `batch_size`
    /// joins, one every `interval_s`, measuring after each batch.
    pub fn growth(
        batch_size: usize,
        batches: usize,
        interval_s: f64,
        candidates: &[HostId],
        seed: u64,
    ) -> Self {
        assert!(candidates.len() >= batch_size * batches);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6772_6f77);
        let mut pool = candidates.to_vec();
        shuffle(&mut pool, &mut rng);
        let mut actions = Vec::new();
        for b in 0..batches {
            let start = b as f64 * interval_s;
            for i in 0..batch_size {
                let h = pool[b * batch_size + i];
                let t = start + rng.gen_range(0.0..(interval_s * 0.5));
                actions.push((SimTime::from_ms(t * 1000.0), Action::Join(h)));
            }
            let t_measure = SimTime::from_ms((start + interval_s) * 1000.0);
            actions.push((t_measure, Action::Measure));
        }
        let end = SimTime::from_ms((batches as f64 * interval_s + 1.0) * 1000.0);
        let crash_seed = rng.gen();
        Self::finish(actions, end, crash_seed)
    }

    /// Decentralized-bootstrap flash-crowd schedule (ablation A11).
    ///
    /// The candidate pool is shuffled and split into live seeds, stale
    /// seeds (never join; their bootstrap entries point at dead air)
    /// and the crowd. Live seeds join over the warmup, the crowd lands
    /// in a `spread_s` window at `crowd_at_s`, and `seed_churn_frac` of
    /// the live seeds crash `churn_delay_s` later — so part of every
    /// joiner's view goes stale *mid-bootstrap*. Every agent receives
    /// the same shuffled bootstrap set via [`Scenario::discovery`].
    /// Fully determined by `cfg` and `seed`.
    pub fn flash_crowd(cfg: &FlashCrowdConfig, candidates: &[HostId], seed: u64) -> Self {
        assert!(cfg.seeds >= 1 && cfg.joiners >= 1);
        assert!((0.0..1.0).contains(&cfg.stale_frac));
        assert!((0.0..=1.0).contains(&cfg.seed_churn_frac));
        assert!(candidates.len() >= cfg.seeds + cfg.joiners);
        assert!(cfg.warmup_s > 0.0 && cfg.crowd_at_s >= cfg.warmup_s);
        assert!(cfg.spread_s >= 0.0 && cfg.settle_s > 0.0 && cfg.measure_every_s > 0.0);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x666c_6173);
        let mut pool = candidates.to_vec();
        shuffle(&mut pool, &mut rng);

        let n_stale = ((cfg.seeds as f64 * cfg.stale_frac).round() as usize).min(cfg.seeds - 1);
        let n_live = cfg.seeds - n_stale;
        let live: Vec<HostId> = pool[..n_live].to_vec();
        let stale: Vec<HostId> = pool[n_live..cfg.seeds].to_vec();
        let crowd: Vec<HostId> = pool[cfg.seeds..cfg.seeds + cfg.joiners].to_vec();

        let mut actions = Vec::new();
        // Live seeds join over the warmup. The first one bootstraps via
        // fallback (nobody to discover yet); the rest discover through
        // the already-joined seeds.
        for &h in &live {
            let t = rng.gen_range(0.0..cfg.warmup_s);
            actions.push((SimTime::from_ms(t * 1000.0), Action::Join(h)));
        }
        actions.push((SimTime::from_ms(cfg.warmup_s * 1000.0), Action::Measure));

        // The flash crowd.
        for &h in &crowd {
            let t = cfg.crowd_at_s + rng.gen_range(0.0..cfg.spread_s.max(1e-3));
            actions.push((SimTime::from_ms(t * 1000.0), Action::Join(h)));
        }

        // Seed churn mid-bootstrap: crash a fraction of the live seeds
        // while the crowd is still discovering through them.
        let n_churn = ((n_live as f64 * cfg.seed_churn_frac).round() as usize).min(n_live - 1);
        let t_churn = SimTime::from_ms((cfg.crowd_at_s + cfg.churn_delay_s) * 1000.0);
        let mut churnable = live.clone();
        shuffle(&mut churnable, &mut rng);
        for &h in &churnable[..n_churn] {
            actions.push((t_churn, Action::Crash(h)));
        }

        // Measurements over the settle window, plus a final snapshot.
        let horizon = cfg.crowd_at_s + cfg.settle_s;
        let mut k = 1usize;
        let mut last_measure = cfg.warmup_s;
        loop {
            let t = cfg.crowd_at_s + k as f64 * cfg.measure_every_s;
            if t > horizon {
                break;
            }
            actions.push((SimTime::from_ms(t * 1000.0), Action::Measure));
            last_measure = t;
            k += 1;
        }
        if last_measure < horizon {
            actions.push((SimTime::from_ms(horizon * 1000.0), Action::Measure));
        }

        let end = SimTime::from_ms((horizon + 1.0) * 1000.0);
        let crash_seed = rng.gen();
        let mut sc = Self::finish(actions, end, crash_seed);
        // Everyone gets the same bootstrap set, stale entries mixed in.
        let mut bootstrap: Vec<HostId> = live.into_iter().chain(stale).collect();
        shuffle(&mut bootstrap, &mut rng);
        sc.discovery = Some(DiscoveryConfig {
            seeds: bootstrap,
            ..cfg.discovery.clone()
        });
        sc
    }

    /// Hand-built schedule from explicit actions (sorted and finalized
    /// like the generated scenarios). Hand-built scenarios have no
    /// generating RNG, so `crash_seed` starts at 0; set the field
    /// directly if a different crash stream is wanted.
    pub fn from_actions(actions: Vec<(SimTime, Action)>, end: SimTime) -> Self {
        Self::finish(actions, end, 0)
    }

    /// Convert a fraction of the leave actions into ungraceful crashes.
    /// Crash selection draws from the scenario's own RNG stream
    /// ([`Scenario::crash_seed`]), so the seed that generated the
    /// schedule fully determines the result. `frac` in `[0, 1]`.
    pub fn with_crashes(mut self, frac: f64) -> Self {
        assert!((0.0..=1.0).contains(&frac));
        let mut rng = StdRng::seed_from_u64(self.crash_seed ^ 0x0063_7261_7368);
        for (_, a) in self.actions.iter_mut() {
            if let Action::Leave(h) = *a {
                if rng.gen::<f64>() < frac {
                    *a = Action::Crash(h);
                }
            }
        }
        self
    }

    /// Number of crash actions.
    pub fn num_crashes(&self) -> usize {
        self.actions
            .iter()
            .filter(|(_, a)| matches!(a, Action::Crash(_)))
            .count()
    }

    fn finish(mut actions: Vec<(SimTime, Action)>, end: SimTime, crash_seed: u64) -> Self {
        // Stable sort keeps leave-before-join ordering at equal times.
        actions.sort_by_key(|(t, _)| *t);
        Self {
            actions,
            end,
            crash_seed,
            discovery: None,
        }
    }

    /// Number of join actions.
    pub fn num_joins(&self) -> usize {
        self.actions
            .iter()
            .filter(|(_, a)| matches!(a, Action::Join(_)))
            .count()
    }

    /// Number of leave actions.
    pub fn num_leaves(&self) -> usize {
        self.actions
            .iter()
            .filter(|(_, a)| matches!(a, Action::Leave(_)))
            .count()
    }

    /// Number of measurement points.
    pub fn num_measures(&self) -> usize {
        self.actions
            .iter()
            .filter(|(_, a)| matches!(a, Action::Measure))
            .count()
    }
}

fn shuffle(v: &mut [HostId], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hosts(n: u32) -> Vec<HostId> {
        (1..=n).map(HostId).collect()
    }

    #[test]
    fn churn_counts_and_membership() {
        let cfg = ChurnConfig {
            members: 20,
            warmup_s: 100.0,
            slot_s: 50.0,
            slots: 5,
            churn_pct: 10.0,
        };
        let sc = Scenario::churn(&cfg, &hosts(40), 1);
        // 20 initial joins + 2 per slot; 2 leaves per slot.
        assert_eq!(sc.num_joins(), 20 + 2 * 5);
        assert_eq!(sc.num_leaves(), 2 * 5);
        assert_eq!(sc.num_measures(), 6);
        // Replay membership: a host never leaves unless in, never joins
        // while in.
        let mut inside = std::collections::HashSet::new();
        for (_, a) in &sc.actions {
            match a {
                Action::Join(h) => assert!(inside.insert(*h), "double join {h}"),
                Action::Leave(h) | Action::Crash(h) => {
                    assert!(inside.remove(h), "phantom leave {h}")
                }
                Action::Measure => {}
            }
        }
        assert_eq!(inside.len(), 20);
        // Time-ordered.
        for w in sc.actions.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
        assert!(sc.end >= sc.actions.last().unwrap().0);
    }

    #[test]
    fn churn_is_deterministic_per_seed() {
        let cfg = ChurnConfig {
            members: 10,
            warmup_s: 10.0,
            slot_s: 10.0,
            slots: 3,
            churn_pct: 20.0,
        };
        let a = Scenario::churn(&cfg, &hosts(30), 7);
        let b = Scenario::churn(&cfg, &hosts(30), 7);
        assert_eq!(a.actions, b.actions);
        let c = Scenario::churn(&cfg, &hosts(30), 8);
        assert_ne!(a.actions, c.actions);
    }

    #[test]
    fn zero_churn_has_no_leaves() {
        let cfg = ChurnConfig {
            members: 10,
            warmup_s: 10.0,
            slot_s: 10.0,
            slots: 4,
            churn_pct: 0.0,
        };
        let sc = Scenario::churn(&cfg, &hosts(10), 3);
        assert_eq!(sc.num_leaves(), 0);
        assert_eq!(sc.num_joins(), 10);
        assert_eq!(sc.num_measures(), 5);
    }

    #[test]
    fn crashes_derive_from_the_scenario_seed_alone() {
        let cfg = ChurnConfig {
            members: 12,
            warmup_s: 10.0,
            slot_s: 10.0,
            slots: 4,
            churn_pct: 25.0,
        };
        let a = Scenario::churn(&cfg, &hosts(24), 5).with_crashes(0.5);
        let b = Scenario::churn(&cfg, &hosts(24), 5).with_crashes(0.5);
        assert_eq!(a.actions, b.actions, "one seed, one schedule");
        assert!(a.num_crashes() > 0);
        // A different scenario seed flips the crash stream too.
        let c = Scenario::churn(&cfg, &hosts(24), 6);
        assert_ne!(a.crash_seed, c.crash_seed);
        // Extremes are exact regardless of the stream.
        let none = Scenario::churn(&cfg, &hosts(24), 5).with_crashes(0.0);
        assert_eq!(none.num_crashes(), 0);
        let all = Scenario::churn(&cfg, &hosts(24), 5).with_crashes(1.0);
        assert_eq!(all.num_leaves(), 0);
        assert_eq!(all.num_crashes(), none.num_leaves());
    }

    #[test]
    fn from_actions_sorts_and_is_crashable() {
        let acts = vec![
            (SimTime::from_secs(10), Action::Leave(HostId(1))),
            (SimTime::from_secs(5), Action::Join(HostId(1))),
        ];
        let sc = Scenario::from_actions(acts, SimTime::from_secs(20));
        assert!(matches!(sc.actions[0].1, Action::Join(_)));
        let crashed = sc.with_crashes(1.0);
        assert_eq!(crashed.num_crashes(), 1);
    }

    fn soak_cfg() -> SoakConfig {
        SoakConfig {
            members: 16,
            warmup_s: 60.0,
            duration_s: 300.0,
            churn_rate_per_s: 0.05,
            burst_every_s: 100.0,
            burst_frac: 0.25,
            measure_every_s: 50.0,
            quiet_tail_s: 60.0,
        }
    }

    #[test]
    fn soak_membership_replay_is_consistent() {
        let sc = Scenario::soak(&soak_cfg(), &hosts(16), 11);
        // Every departure is eventually matched by a rejoin, so joins =
        // initial population + departures.
        assert_eq!(
            sc.num_joins(),
            16 + sc.num_leaves() + sc.num_crashes(),
            "every departed member rejoins"
        );
        assert!(sc.num_crashes() > 0, "bursts produce crashes");
        assert!(sc.num_leaves() > 0, "poisson churn produces leaves");
        // Replay: never join while in, never depart while out.
        let mut inside = std::collections::HashSet::new();
        for (_, a) in &sc.actions {
            match a {
                Action::Join(h) => assert!(inside.insert(*h), "double join {h}"),
                Action::Leave(h) | Action::Crash(h) => {
                    assert!(inside.remove(h), "phantom departure {h}")
                }
                Action::Measure => {}
            }
        }
        // Quiet tail lets every rejoin land: full population at the end.
        assert_eq!(inside.len(), 16);
        for w in sc.actions.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
        assert!(sc.end >= sc.actions.last().unwrap().0);
    }

    #[test]
    fn soak_bursts_are_correlated_in_time() {
        let sc = Scenario::soak(&soak_cfg(), &hosts(16), 3);
        // Crashes from one burst share a timestamp; with 16 members and
        // burst_frac 0.25 each burst crashes several at once.
        let mut by_time = std::collections::HashMap::new();
        for (t, a) in &sc.actions {
            if matches!(a, Action::Crash(_)) {
                *by_time.entry(*t).or_insert(0usize) += 1;
            }
        }
        assert!(
            by_time.values().any(|&n| n >= 2),
            "no same-timestamp crash burst found: {by_time:?}"
        );
    }

    #[test]
    fn soak_is_deterministic_per_seed() {
        let a = Scenario::soak(&soak_cfg(), &hosts(16), 7);
        let b = Scenario::soak(&soak_cfg(), &hosts(16), 7);
        assert_eq!(a.actions, b.actions);
        assert_eq!(a.crash_seed, b.crash_seed);
        let c = Scenario::soak(&soak_cfg(), &hosts(16), 8);
        assert_ne!(a.actions, c.actions);
    }

    #[test]
    fn soak_mechanism_knobs_disable_cleanly() {
        let cfg = SoakConfig {
            churn_rate_per_s: 0.0,
            burst_every_s: 0.0,
            ..soak_cfg()
        };
        let sc = Scenario::soak(&cfg, &hosts(16), 5);
        assert_eq!(sc.num_leaves(), 0);
        assert_eq!(sc.num_crashes(), 0);
        assert_eq!(sc.num_joins(), 16);
        assert!(sc.num_measures() > 0);
    }

    fn flash_cfg() -> FlashCrowdConfig {
        FlashCrowdConfig {
            seeds: 4,
            stale_frac: 0.25,
            joiners: 12,
            warmup_s: 30.0,
            crowd_at_s: 60.0,
            spread_s: 5.0,
            seed_churn_frac: 0.5,
            churn_delay_s: 2.0,
            settle_s: 90.0,
            measure_every_s: 30.0,
            discovery: DiscoveryConfig::default(),
        }
    }

    #[test]
    fn flash_crowd_shape_and_bootstrap_set() {
        let sc = Scenario::flash_crowd(&flash_cfg(), &hosts(30), 11);
        // 3 live seeds + 12 crowd joiners; 1 stale seed never joins.
        assert_eq!(sc.num_joins(), 3 + 12);
        // Half the live seeds (rounded) crash mid-bootstrap.
        assert_eq!(sc.num_crashes(), 2);
        assert_eq!(sc.num_leaves(), 0);
        assert!(sc.num_measures() >= 3);
        let dc = sc.discovery.as_ref().expect("bootstrap set installed");
        assert_eq!(dc.seeds.len(), 4, "k seeds, stale included");
        // The stale entry is in the bootstrap set but never joins.
        let joined: std::collections::HashSet<HostId> = sc
            .actions
            .iter()
            .filter_map(|(_, a)| match a {
                Action::Join(h) => Some(*h),
                _ => None,
            })
            .collect();
        let stale: Vec<&HostId> = dc.seeds.iter().filter(|h| !joined.contains(h)).collect();
        assert_eq!(stale.len(), 1);
        for w in sc.actions.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
        assert!(sc.end >= sc.actions.last().unwrap().0);
    }

    #[test]
    fn flash_crowd_is_deterministic_per_seed() {
        let a = Scenario::flash_crowd(&flash_cfg(), &hosts(30), 7);
        let b = Scenario::flash_crowd(&flash_cfg(), &hosts(30), 7);
        assert_eq!(a.actions, b.actions);
        assert_eq!(a.discovery, b.discovery);
        let c = Scenario::flash_crowd(&flash_cfg(), &hosts(30), 8);
        assert_ne!(a.actions, c.actions);
    }

    #[test]
    fn flash_crowd_keeps_a_live_seed_at_extremes() {
        // stale_frac near 1 and full seed churn must still leave one
        // live, uncrashed seed (the assertions clamp).
        let cfg = FlashCrowdConfig {
            seeds: 3,
            stale_frac: 0.9,
            seed_churn_frac: 1.0,
            ..flash_cfg()
        };
        let sc = Scenario::flash_crowd(&cfg, &hosts(30), 5);
        // 2 stale (clamped to k-1), 1 live seed, 0 crashes (clamped to
        // n_live-1 = 0).
        assert_eq!(sc.num_joins(), 1 + 12);
        assert_eq!(sc.num_crashes(), 0);
    }

    #[test]
    fn generated_scenarios_carry_no_discovery_by_default() {
        let sc = Scenario::growth(5, 2, 100.0, &hosts(10), 1);
        assert!(sc.discovery.is_none());
        let sc = Scenario::soak(&soak_cfg(), &hosts(16), 1);
        assert!(sc.discovery.is_none());
    }

    #[test]
    fn growth_scenario_shape() {
        let sc = Scenario::growth(50, 10, 500.0, &hosts(500), 2);
        assert_eq!(sc.num_joins(), 500);
        assert_eq!(sc.num_leaves(), 0);
        assert_eq!(sc.num_measures(), 10);
        // Measures come after the joins of their batch.
        let mut joins_seen = 0;
        let mut measures_seen = 0;
        for (_, a) in &sc.actions {
            match a {
                Action::Join(_) => joins_seen += 1,
                Action::Measure => {
                    measures_seen += 1;
                    assert!(joins_seen >= measures_seen * 50);
                }
                _ => {}
            }
        }
    }
}
