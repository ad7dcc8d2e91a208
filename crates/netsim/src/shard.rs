//! Conservative parallel DES: shard one simulation across cores.
//!
//! A [`ShardedEngine`] partitions the host space into `S` contiguous id
//! blocks (a [`ShardMap`], atm0s-sdn-style: the high range of a host id
//! names its shard the way geo/group prefixes name a zone). Each shard is
//! a complete, unmodified [`Engine`] — its own event queue, sequence
//! counter and RNG stream — and the shards advance in lock-step
//! *lookahead windows*:
//!
//! 1. pick the earliest pending event time across shards, open a window
//!    of `lookahead` from there;
//! 2. run every shard (in parallel, one thread each) up to the window
//!    end — safe because no event generated inside the window can affect
//!    another shard earlier than `lookahead` later, the classic
//!    conservative-DES argument, with the underlay's minimum cross-shard
//!    link delay as the natural lookahead lower bound;
//! 3. at the barrier, drain every shard's per-destination outbox of
//!    cross-shard `Deliver` events and inject them into the target
//!    queues in `(at, src_shard, seq)` order.
//!
//! That drain order is what makes runs **bit-reproducible at a fixed
//! shard count**, independent of thread scheduling: the merge key is a
//! pure function of simulation state, never of wall-clock interleaving.
//! Reproducibility across *different* shard counts is deliberately not
//! the contract — each shard owns an RNG stream, so `S` changes the
//! random universe (see DESIGN.md §12). The one exception is `S = 1`,
//! which installs no shard context at all and delegates straight to the
//! inner [`Engine`], byte-identical to an unsharded run per seed.

use crate::engine::{Counters, Engine, World};
use crate::time::SimTime;
use crate::underlay::{HostId, Underlay};
use std::sync::Arc;
use vdm_topology::splitmix64;

/// Partition of the host id space into contiguous shard blocks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardMap {
    /// Host-id boundaries: shard `s` owns `bounds[s]..bounds[s + 1]`.
    bounds: Vec<u32>,
}

impl ShardMap {
    /// Split `num_hosts` into `shards` near-equal contiguous blocks
    /// (the remainder spread over the first shards).
    pub fn contiguous(num_hosts: usize, shards: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        assert!(
            num_hosts >= shards,
            "need at least one host per shard ({num_hosts} hosts, {shards} shards)"
        );
        // Host ids are u32 on the wire; a host count past that space
        // used to truncate the upper boundaries silently, folding the
        // tail of the id space onto the head.
        let top = u32::try_from(num_hosts)
            .unwrap_or_else(|_| panic!("{num_hosts} hosts exceed the u32 host-id space"));
        let base = top / shards as u32;
        let extra = top as usize % shards;
        let mut bounds = Vec::with_capacity(shards + 1);
        bounds.push(0u32);
        let mut at = 0u32;
        for s in 0..shards {
            at += base + u32::from(s < extra);
            bounds.push(at);
        }
        Self { bounds }
    }

    /// Build from explicit boundaries (`bounds[0] = 0`, strictly
    /// ascending, last entry = host count).
    pub fn from_bounds(bounds: Vec<u32>) -> Self {
        assert!(bounds.len() >= 2, "need at least one shard");
        assert_eq!(bounds[0], 0, "first boundary must be zero");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "boundaries must be strictly ascending"
        );
        Self { bounds }
    }

    /// Coarsen this map by merging its blocks into `groups` contiguous
    /// groups (near-equal in block count). Because every new boundary is
    /// an existing one, any lookahead valid for `self` stays valid for
    /// the coarser map — used to sweep `S` over one generated underlay.
    pub fn grouped(&self, groups: usize) -> Self {
        let s = self.num_shards();
        assert!(
            groups >= 1 && groups <= s,
            "cannot group {s} shards into {groups}"
        );
        let base = s / groups;
        let extra = s % groups;
        let mut bounds = Vec::with_capacity(groups + 1);
        bounds.push(0u32);
        let mut block = 0usize;
        for g in 0..groups {
            block += base + usize::from(g < extra);
            bounds.push(self.bounds[block]);
        }
        Self { bounds }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Number of hosts covered.
    pub fn num_hosts(&self) -> usize {
        *self.bounds.last().unwrap() as usize
    }

    /// Shard owning host `h`.
    #[inline]
    pub fn shard_of(&self, h: HostId) -> u32 {
        debug_assert!(h.0 < *self.bounds.last().unwrap(), "host {h} out of range");
        (self.bounds.partition_point(|&b| b <= h.0) - 1) as u32
    }

    /// Host-id range owned by shard `s`.
    pub fn range(&self, s: u32) -> std::ops::Range<u32> {
        self.bounds[s as usize]..self.bounds[s as usize + 1]
    }

    /// The raw boundaries (`num_shards + 1` entries).
    pub fn bounds(&self) -> &[u32] {
        &self.bounds
    }
}

/// A cross-shard delivery parked in a sender-side outbox until the next
/// window barrier.
pub(crate) struct OutboundEvent<M> {
    pub(crate) at: SimTime,
    pub(crate) to: HostId,
    pub(crate) from: HostId,
    pub(crate) msg: M,
    /// Per-source-shard monotone counter; with `(at, src_shard)` it
    /// makes the barrier merge order a total, scheduling-independent
    /// order.
    pub(crate) seq: u64,
}

/// Shard identity + outboxes installed into each member [`Engine`].
pub(crate) struct ShardCtx<M> {
    pub(crate) map: Arc<ShardMap>,
    pub(crate) id: u32,
    /// Outgoing events, indexed by destination shard.
    pub(crate) outbox: Vec<Vec<OutboundEvent<M>>>,
    pub(crate) sent: u64,
}

/// `S` engines advancing in lookahead-bounded lock-step windows.
///
/// Drives one [`World`] per shard (each world owns its shard's slice of
/// per-host state and must only originate sends/timers for its own
/// hosts). `S = 1` is the plain [`Engine`], byte-identical per seed.
pub struct ShardedEngine<M> {
    engines: Vec<Engine<M>>,
    map: Arc<ShardMap>,
    lookahead: SimTime,
    parallel: bool,
    windows: u64,
    cross_events: u64,
}

impl<M: Clone + Send> ShardedEngine<M> {
    /// New sharded engine: shard 0 is seeded with `seed` itself (so
    /// `S = 1` reproduces [`Engine::new`] exactly), every further shard
    /// with a splitmix-derived stream. `lookahead` must lower-bound the
    /// delay of every cross-shard message (use the underlay's
    /// `min_cross_shard_delay` oracle); the engine hard-errors at drain
    /// time if a cross-shard event ever lands inside a closed window.
    pub fn new(
        underlay: Arc<dyn Underlay + Send + Sync>,
        seed: u64,
        map: ShardMap,
        lookahead: SimTime,
    ) -> Self {
        let s = map.num_shards();
        assert_eq!(
            map.num_hosts(),
            underlay.num_hosts(),
            "shard map covers {} hosts, underlay has {}",
            map.num_hosts(),
            underlay.num_hosts()
        );
        if s > 1 {
            assert!(
                lookahead > SimTime::ZERO,
                "a multi-shard run needs a positive lookahead"
            );
        }
        let map = Arc::new(map);
        let mut engines = Vec::with_capacity(s);
        for i in 0..s {
            let shard_seed = if i == 0 {
                seed
            } else {
                splitmix64(seed ^ 0x7368_6172_6421 ^ ((i as u64) << 32))
            };
            let mut e = Engine::new(Arc::clone(&underlay), shard_seed);
            if s > 1 {
                e.install_shard_ctx(ShardCtx {
                    map: Arc::clone(&map),
                    id: i as u32,
                    outbox: (0..s).map(|_| Vec::new()).collect(),
                    sent: 0,
                });
            }
            engines.push(e);
        }
        Self {
            engines,
            map,
            lookahead,
            parallel: true,
            windows: 0,
            cross_events: 0,
        }
    }

    /// Single-shard engine over the whole host space — the delegation
    /// baseline the determinism gate compares against [`Engine`].
    pub fn single(underlay: Arc<dyn Underlay + Send + Sync>, seed: u64) -> Self {
        let n = underlay.num_hosts();
        Self::new(underlay, seed, ShardMap::contiguous(n, 1), SimTime::MAX)
    }

    /// The shard partition.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.engines.len()
    }

    /// The synchronization window length.
    pub fn lookahead(&self) -> SimTime {
        self.lookahead
    }

    /// Run windows sequentially on the calling thread instead of one
    /// thread per shard. Results are identical either way (the
    /// determinism suite pins this); sequential mode exists for that
    /// test and for debugging.
    pub fn set_parallel(&mut self, parallel: bool) {
        self.parallel = parallel;
    }

    /// Shard `s`'s engine (schedule external events / timers, install
    /// tracers, read per-shard counters).
    pub fn engine(&self, s: usize) -> &Engine<M> {
        &self.engines[s]
    }

    /// Mutable access to shard `s`'s engine.
    pub fn engine_mut(&mut self, s: usize) -> &mut Engine<M> {
        &mut self.engines[s]
    }

    /// Current simulated time: the front of the slowest shard.
    pub fn now(&self) -> SimTime {
        self.engines.iter().map(|e| e.now()).min().unwrap()
    }

    /// Traffic counters summed over shards.
    pub fn counters(&self) -> Counters {
        let mut sum = Counters::default();
        for e in &self.engines {
            let c = e.counters();
            sum.control_sent += c.control_sent;
            sum.data_sent += c.data_sent;
            sum.data_dropped += c.data_dropped;
            sum.data_congestion_dropped += c.data_congestion_dropped;
            sum.delivered += c.delivered;
            sum.faults_dropped += c.faults_dropped;
            sum.faults_duplicated += c.faults_duplicated;
            sum.faults_delayed += c.faults_delayed;
        }
        sum
    }

    /// Events processed, summed over shards.
    pub fn events_processed(&self) -> u64 {
        self.engines.iter().map(|e| e.events_processed()).sum()
    }

    /// Synchronization windows executed so far (0 for `S = 1`).
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// Cross-shard events exchanged at barriers so far.
    pub fn cross_events(&self) -> u64 {
        self.cross_events
    }

    /// True when no shard has pending events (outboxes are always empty
    /// between [`ShardedEngine::run`] calls).
    pub fn is_idle(&self) -> bool {
        self.engines.iter().all(|e| e.is_idle())
    }

    /// Run all shards until no event at or before `until` remains
    /// (events at exactly `until` are processed, matching
    /// [`Engine::run`]). Returns the number of events processed.
    pub fn run<W: World<Msg = M> + Send>(&mut self, worlds: &mut [W], until: SimTime) -> u64 {
        assert_eq!(
            worlds.len(),
            self.engines.len(),
            "need exactly one world per shard"
        );
        if self.engines.len() == 1 {
            return self.engines[0].run(&mut worlds[0], until);
        }
        let mut total = 0u64;
        loop {
            let next = self
                .engines
                .iter_mut()
                .filter_map(|e| e.next_event_at())
                .min();
            let Some(next) = next else { break };
            if next > until {
                break;
            }
            // Open the window at the earliest pending event (skipping
            // dead time between bursts) and close it one lookahead
            // later: nothing scheduled inside can reach another shard
            // sooner, so the shards are causally independent until then.
            let w_end = until.min(next + self.lookahead);
            total += self.run_window(worlds, w_end);
            self.windows += 1;
            self.exchange();
        }
        if until != SimTime::MAX {
            // Advance every shard clock to the horizon so subsequent
            // relative scheduling is anchored like a plain engine's.
            for (e, w) in self.engines.iter_mut().zip(worlds.iter_mut()) {
                total += e.run(w, until);
            }
        }
        total
    }

    /// Run until every shard is idle.
    pub fn run_to_idle<W: World<Msg = M> + Send>(&mut self, worlds: &mut [W]) -> u64 {
        self.run(worlds, SimTime::MAX)
    }

    fn run_window<W: World<Msg = M> + Send>(&mut self, worlds: &mut [W], w_end: SimTime) -> u64 {
        if !self.parallel {
            let mut n = 0;
            for (e, w) in self.engines.iter_mut().zip(worlds.iter_mut()) {
                n += e.run(w, w_end);
            }
            return n;
        }
        let mut n = 0;
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(self.engines.len());
            for (e, w) in self.engines.iter_mut().zip(worlds.iter_mut()) {
                handles.push(scope.spawn(move || e.run(w, w_end)));
            }
            for h in handles {
                n += h.join().expect("shard thread panicked");
            }
        });
        n
    }

    /// Barrier step: move every outbox entry into its destination queue,
    /// per destination in `(at, src_shard, seq)` order — a total order
    /// over simulation state, so the result is independent of how the
    /// window's threads were scheduled.
    fn exchange(&mut self) {
        // (at, src_shard, seq, to, from, msg)
        type Inbound<M> = Vec<(SimTime, u32, u64, HostId, HostId, M)>;
        let s = self.engines.len();
        let mut inbound: Vec<Inbound<M>> = (0..s).map(|_| Vec::new()).collect();
        for (src, e) in self.engines.iter_mut().enumerate() {
            for (dst, q) in e.take_outboxes().into_iter().enumerate() {
                for ev in q {
                    inbound[dst].push((ev.at, src as u32, ev.seq, ev.to, ev.from, ev.msg));
                }
            }
        }
        for (dst, mut q) in inbound.into_iter().enumerate() {
            q.sort_unstable_by_key(|a| (a.0, a.1, a.2));
            for (at, _src, _seq, to, from, msg) in q {
                self.cross_events += 1;
                self.engines[dst].inject_remote(at, to, from, msg);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_blocks_are_near_equal() {
        let m = ShardMap::contiguous(10, 3);
        assert_eq!(m.num_shards(), 3);
        assert_eq!(m.num_hosts(), 10);
        assert_eq!(m.range(0), 0..4);
        assert_eq!(m.range(1), 4..7);
        assert_eq!(m.range(2), 7..10);
        assert_eq!(m.shard_of(HostId(0)), 0);
        assert_eq!(m.shard_of(HostId(3)), 0);
        assert_eq!(m.shard_of(HostId(4)), 1);
        assert_eq!(m.shard_of(HostId(9)), 2);
    }

    #[test]
    fn grouping_reuses_existing_boundaries() {
        let fine = ShardMap::contiguous(100, 8);
        let coarse = fine.grouped(3);
        assert_eq!(coarse.num_shards(), 3);
        assert_eq!(coarse.num_hosts(), 100);
        // Every coarse boundary is a fine boundary, so any lookahead
        // valid for the fine map stays valid for the coarse one.
        for &b in coarse.bounds() {
            assert!(fine.bounds().contains(&b), "boundary {b} not in fine map");
        }
        assert_eq!(fine.grouped(8), fine);
        assert_eq!(fine.grouped(1), ShardMap::contiguous(100, 1));
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn from_bounds_rejects_empty_blocks() {
        ShardMap::from_bounds(vec![0, 5, 5, 10]);
    }

    #[test]
    fn contiguous_covers_the_full_u32_id_space() {
        // The whole u32 space is a legal host count; the boundaries
        // used to truncate past it instead of refusing.
        let m = ShardMap::contiguous(u32::MAX as usize, 4);
        assert_eq!(m.num_hosts(), u32::MAX as usize);
        assert_eq!(m.range(3).end, u32::MAX);
        assert_eq!(m.shard_of(HostId(u32::MAX - 1)), 3);
    }

    #[test]
    #[should_panic(expected = "exceed the u32 host-id space")]
    fn contiguous_rejects_counts_past_u32() {
        ShardMap::contiguous(u32::MAX as usize + 1, 4);
    }
}
