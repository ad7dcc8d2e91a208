//! A12: the sharded engine at 100k-node scale.
//!
//! A9 established that coordinate-guided joins keep the *protocol* cost
//! (contacts per join) flat past 10k members; what still pinned the
//! ceiling was the simulator itself — one event heap, one thread. This
//! family runs the same A9 join point on the sharded stack and then
//! pushes a multicast stream through the built tree under the
//! [`ShardedEngine`], sweeping the shard count over one fixed underlay:
//!
//! 1. generate a shard-aware power-law underlay
//!    ([`vdm_topology::shard::generate_sharded`]): per-shard router
//!    clusters joined by a gateway backbone, answered through the O(1)
//!    up/core/up oracle ([`ShardedUnderlay`]) — no Dijkstra row ever
//!    materializes, which is what lets 100k hosts fit;
//! 2. join all `n` members with the A9 coordinate-guided sweep
//!    ([`super::scale::guided_join_sweep`]) and time it — the "A9 join
//!    point" acceptance number;
//! 3. for each `S` in the sweep (fine shard blocks grouped so every
//!    coarse boundary is a fine one, keeping the lookahead valid),
//!    stream `chunks` chunks down the tree, every delivery fan-out
//!    forwarded by the owning shard's world, and record wall-clock,
//!    events/sec, window count and cross-shard traffic.
//!
//! Two determinism gates ride along: the `S = 1` run must match a plain
//! [`Engine`] byte-for-byte (fingerprint, deliveries, events, counters),
//! and — because the sharded underlay samples no per-delivery
//! randomness — the delivery fingerprint must agree across *all* shard
//! counts, a stronger check than the engine's general fixed-`S`
//! contract (DESIGN.md §12). `vdm-repro scale --shards N` renders the
//! table and emits `results/BENCH_shard.json`.

use crate::ci::CiStat;
use crate::report::{Fields, Report};
use crate::table::Table;
use crate::Effort;
use std::sync::Arc;
use std::time::Instant;
use vdm_core::VdmPolicy;
use vdm_netsim::engine::Counters;
use vdm_netsim::{
    Engine, HostId, SendClass, ShardMap, ShardedEngine, ShardedUnderlay, SimTime, Underlay, World,
};
use vdm_overlay::HostArena;
use vdm_topology::shard::{generate_sharded, ShardedPowerLawConfig};
use vdm_topology::splitmix64;

/// Degree limit, matching A9.
const DEGREE: u32 = 4;

/// Stream tick interval: one chunk per simulated second.
const CHUNK_INTERVAL: SimTime = SimTime(1_000_000);

/// One shard count's stream run.
#[derive(Clone, Debug)]
pub struct ShardPoint {
    /// Shard (and thread) count of this run.
    pub shards: usize,
    /// Wall-clock of the stream phase, ms.
    pub wall_ms: f64,
    /// Engine events processed.
    pub events: u64,
    /// Throughput: events per wall-clock second.
    pub events_per_sec: f64,
    /// Deliveries that crossed a shard boundary at a window barrier.
    pub cross_events: u64,
    /// Lookahead windows executed (0 for `S = 1`).
    pub windows: u64,
    /// Wall-clock speedup over the `S = 1` run.
    pub speedup: f64,
    /// Chunks delivered over all members.
    pub delivered: u64,
    /// Order-independent delivery fingerprint (commutative sum over
    /// `(time, host, chunk)` hashes).
    pub fingerprint: u64,
}

/// The A12 report.
pub struct ShardReport {
    /// The rendered table.
    pub tables: Vec<Table>,
    /// One point per shard count, ascending.
    pub points: Vec<ShardPoint>,
    /// Overlay members joined (source excluded).
    pub n: usize,
    /// Largest shard count in the sweep.
    pub max_shards: usize,
    /// Lookahead used, ms (the underlay's min cross-shard delay).
    pub lookahead_ms: f64,
    /// Wall-clock of the guided join sweep — the A9 join point.
    pub join_wall_ms: f64,
    /// Mean contacts over the last quarter of joins (A9 convention).
    pub join_contacts_tail: f64,
    /// `S = 1` matched a plain [`Engine`] run exactly.
    pub s1_identical: bool,
    /// Delivery fingerprints agreed across every shard count.
    pub fingerprints_match: bool,
}

/// Hash one delivery into the commutative fingerprint.
fn delivery_hash(at: SimTime, to: HostId, chunk: u64) -> u64 {
    splitmix64(at.0 ^ ((to.0 as u64) << 40) ^ chunk.rotate_left(17))
}

/// One shard's slice of the stream workload: forwards each delivered
/// chunk to the tree children it owns; the shard holding the source
/// also emits the chunk ticks.
struct StreamWorld {
    /// Tree children of every owned host.
    hosts: HostArena<Vec<HostId>>,
    source: HostId,
    chunks: u64,
    emitted: u64,
    delivered: u64,
    fingerprint: u64,
}

impl StreamWorld {
    fn forward(&mut self, eng: &mut Engine<u64>, from: HostId, chunk: u64) {
        if let Some(children) = self.hosts.get(from) {
            for &c in children {
                eng.send(from, c, chunk, SendClass::Data);
            }
        }
    }
}

impl World for StreamWorld {
    type Msg = u64;

    fn on_deliver(&mut self, eng: &mut Engine<u64>, to: HostId, _from: HostId, chunk: u64) {
        self.delivered += 1;
        self.fingerprint = self
            .fingerprint
            .wrapping_add(delivery_hash(eng.now(), to, chunk));
        self.forward(eng, to, chunk);
    }

    fn on_timer(&mut self, _eng: &mut Engine<u64>, _host: HostId, _token: u64) {}

    fn on_external(&mut self, eng: &mut Engine<u64>, _token: u64) {
        self.emitted += 1;
        let chunk = self.emitted;
        let src = self.source;
        self.forward(eng, src, chunk);
        if self.emitted < self.chunks {
            let next = eng.now() + CHUNK_INTERVAL;
            eng.schedule_external(next, 0);
        }
    }
}

/// The run signature the determinism gates compare.
type RunSig = (u64, u64, u64, Counters);

/// Build one world per shard of `map`, each owning its contiguous
/// slice of the tree's child lists.
fn make_worlds(map: &ShardMap, children: &[Vec<HostId>], chunks: u64) -> Vec<StreamWorld> {
    (0..map.num_shards())
        .map(|s| {
            let r = map.range(s as u32);
            let mut hosts = HostArena::for_range(r.start, vec![DEGREE; (r.end - r.start) as usize]);
            for h in r {
                hosts.insert(HostId(h), children[h as usize].clone());
            }
            StreamWorld {
                hosts,
                source: HostId(0),
                chunks,
                emitted: 0,
                delivered: 0,
                fingerprint: 0,
            }
        })
        .collect()
}

/// Stream `chunks` chunks through the tree on a sharded engine; returns
/// the point (speedup unfilled) and the comparison signature.
fn run_stream(
    underlay: &Arc<ShardedUnderlay>,
    map: ShardMap,
    lookahead: SimTime,
    children: &[Vec<HostId>],
    chunks: u64,
    seed: u64,
) -> (ShardPoint, RunSig) {
    let shards = map.num_shards();
    let mut worlds = make_worlds(&map, children, chunks);
    let mut se = ShardedEngine::new(
        Arc::clone(underlay) as Arc<dyn Underlay + Send + Sync>,
        seed,
        map,
        lookahead,
    );
    se.engine_mut(0).schedule_external(SimTime::ZERO, 0);
    let t0 = Instant::now();
    se.run_to_idle(&mut worlds);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let delivered: u64 = worlds.iter().map(|w| w.delivered).sum();
    let fingerprint = worlds
        .iter()
        .fold(0u64, |acc, w| acc.wrapping_add(w.fingerprint));
    let events = se.events_processed();
    let sig = (fingerprint, delivered, events, se.counters());
    let point = ShardPoint {
        shards,
        wall_ms,
        events,
        events_per_sec: if wall_ms > 0.0 {
            events as f64 / (wall_ms / 1e3)
        } else {
            0.0
        },
        cross_events: se.cross_events(),
        windows: se.windows(),
        speedup: 0.0,
        delivered,
        fingerprint,
    };
    (point, sig)
}

/// The same workload on a plain [`Engine`] — the `S = 1` identity
/// baseline.
fn run_plain(
    underlay: &Arc<ShardedUnderlay>,
    children: &[Vec<HostId>],
    chunks: u64,
    seed: u64,
) -> RunSig {
    let n = children.len();
    let map = ShardMap::contiguous(n, 1);
    let mut worlds = make_worlds(&map, children, chunks);
    let mut eng: Engine<u64> = Engine::new(
        Arc::clone(underlay) as Arc<dyn Underlay + Send + Sync>,
        seed,
    );
    eng.schedule_external(SimTime::ZERO, 0);
    eng.run(&mut worlds[0], SimTime::MAX);
    let w = &worlds[0];
    (
        w.fingerprint,
        w.delivered,
        eng.events_processed(),
        eng.counters(),
    )
}

/// Shard counts swept: powers of two up to and including `max`.
fn shard_sweep(max: usize) -> Vec<usize> {
    let mut sweep = Vec::new();
    let mut s = 1;
    while s < max {
        sweep.push(s);
        s *= 2;
    }
    sweep.push(max);
    sweep
}

/// Members per effort tier.
pub fn shard_size(effort: Effort) -> usize {
    match effort {
        Effort::Quick => 2000,
        Effort::Paper => 100_000,
    }
}

/// Stream chunks per effort tier.
pub fn shard_chunks(effort: Effort) -> u64 {
    match effort {
        Effort::Quick => 20,
        Effort::Paper => 30,
    }
}

/// Run the A12 family: join `n` members (guided, timed), then sweep
/// shard counts `1, 2, 4, …, max_shards` over the same underlay/tree.
pub fn shard_family(n: usize, max_shards: usize, chunks: u64, seed: u64) -> ShardReport {
    assert!(max_shards >= 1);
    let topo = generate_sharded(
        &ShardedPowerLawConfig {
            shards: max_shards,
            hosts: n + 1,
            ..ShardedPowerLawConfig::default()
        },
        seed,
    );
    let underlay = Arc::new(ShardedUnderlay::new(&topo));
    let lookahead_ms = if max_shards > 1 {
        underlay.min_cross_shard_delay_ms()
    } else {
        // Unused by a single-shard engine; keep the report finite.
        0.0
    };
    let lookahead = SimTime::from_ms(lookahead_ms.max(1.0));
    let fine = ShardMap::from_bounds(underlay.shard_bounds().to_vec());

    // The A9 join point, timed: the guided sweep over the O(1) oracle.
    let sweep = super::scale::guided_join_sweep(
        Arc::clone(&underlay) as Arc<dyn Underlay + Send + Sync>,
        n,
        DEGREE,
        seed,
        &VdmPolicy::delay_based(),
    );
    let snap = sweep.ov.snapshot();
    let errs = snap.validate(&sweep.ov.limits());
    assert!(errs.is_empty(), "A12 N={n}: invalid tree: {errs:?}");
    let tail = &sweep.contacts[(3 * n) / 4..];
    let join_contacts_tail = tail.iter().sum::<f64>() / tail.len() as f64;

    // Child lists from the final tree, in host-id order.
    let mut children: Vec<Vec<HostId>> = vec![Vec::new(); n + 1];
    for (i, p) in snap.parent.iter().enumerate() {
        if let Some(p) = p {
            children[p.idx()].push(HostId(i as u32));
        }
    }

    let plain = run_plain(&underlay, &children, chunks, seed);
    let mut points = Vec::new();
    let mut sigs = Vec::new();
    for s in shard_sweep(max_shards) {
        let (point, sig) = run_stream(
            &underlay,
            fine.grouped(s),
            lookahead,
            &children,
            chunks,
            seed,
        );
        points.push(point);
        sigs.push(sig);
    }
    let base_wall = points[0].wall_ms;
    for p in &mut points {
        p.speedup = if p.wall_ms > 0.0 {
            base_wall / p.wall_ms
        } else {
            0.0
        };
    }
    let s1_identical = sigs[0] == plain;
    let fingerprints_match = sigs.iter().all(|s| (s.0, s.1) == (plain.0, plain.1));

    let mut table = Table::new(
        "A12",
        format!(
            "Sharded engine: {n}-member stream, {chunks} chunks (lookahead {lookahead_ms:.1} ms)"
        ),
        "shards",
        vec![
            "wall_ms".into(),
            "events_per_sec".into(),
            "speedup".into(),
            "cross_events".into(),
            "windows".into(),
        ],
    );
    let exact = |v: f64| CiStat {
        mean: v,
        ci90: 0.0,
        n: 1,
    };
    for p in &points {
        table.push(
            p.shards as f64,
            vec![
                exact(p.wall_ms),
                exact(p.events_per_sec),
                exact(p.speedup),
                exact(p.cross_events as f64),
                exact(p.windows as f64),
            ],
        );
    }
    ShardReport {
        tables: vec![table],
        points,
        n,
        max_shards,
        lookahead_ms,
        join_wall_ms: sweep.wall_ms,
        join_contacts_tail,
        s1_identical,
        fingerprints_match,
    }
}

impl ShardReport {
    /// The `BENCH_shard.json` document and the A12 gates. `cores` is
    /// recorded because the wall-clock columns only show parallel
    /// speedup when the host actually has cores to run the shard
    /// threads on.
    pub fn report(&self, effort: Effort, seed: u64) -> Report {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let points = self.points.iter().map(|p| {
            Fields::default()
                .with("shards", p.shards)
                .with("wall_ms", p.wall_ms)
                .with("events", p.events)
                .with("events_per_sec", p.events_per_sec)
                .with("cross_events", p.cross_events)
                .with("windows", p.windows)
                .with("speedup", p.speedup)
                .with("delivered", p.delivered)
        });
        let mut failures = Vec::new();
        if !self.s1_identical {
            failures
                .push("S=1 sharded run diverged from the plain engine — delegation broken".into());
        }
        if !self.fingerprints_match {
            failures.push(
                "delivery fingerprints diverged across shard counts — barrier merge broken".into(),
            );
        }
        // The sweep's shape: one shard to `max_shards`, every multi-shard
        // run crossing a boundary and delivering what `S = 1` delivered.
        let swept = (
            self.points[0].shards,
            self.points[self.points.len() - 1].shards,
        );
        if swept != (1, self.max_shards) {
            failures.push(format!(
                "shard sweep {swept:?} does not span 1..={}",
                self.max_shards
            ));
        }
        for p in self.points.iter().filter(|p| p.shards > 1) {
            if p.cross_events == 0 || p.windows == 0 {
                failures.push(format!(
                    "S={} never crossed a shard boundary ({} cross events, {} windows)",
                    p.shards, p.cross_events, p.windows
                ));
            }
            if p.delivered != self.points[0].delivered {
                failures.push(format!(
                    "S={} delivered {} chunks, S={} delivered {}",
                    p.shards, p.delivered, self.points[0].shards, self.points[0].delivered
                ));
            }
        }
        Report {
            name: "shard",
            tables: self.tables.clone(),
            header: Fields::default()
                .with("effort", effort.name())
                .with("seed", seed)
                .with("cores", cores)
                .with("n", self.n)
                .with("degree", u64::from(DEGREE))
                .with("max_shards", self.max_shards)
                .with("lookahead_ms", self.lookahead_ms)
                .with("join_wall_ms", self.join_wall_ms)
                .with("join_contacts_tail", self.join_contacts_tail)
                .with("s1_identical", self.s1_identical)
                .with("fingerprints_match", self.fingerprints_match),
            points: points.collect(),
            failures,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Field;

    #[test]
    fn smoke_family_gates_hold() {
        let r = shard_family(96, 4, 10, 7);
        assert_eq!(r.n, 96);
        assert_eq!(r.report(Effort::Quick, 7).failures, Vec::<String>::new());
        assert_eq!(
            r.points.iter().map(|p| p.shards).collect::<Vec<_>>(),
            vec![1, 2, 4]
        );
        assert!(
            r.lookahead_ms >= 20.0,
            "cross range floor: {}",
            r.lookahead_ms
        );
        assert!(r.join_wall_ms >= 0.0 && r.join_contacts_tail > 0.0);
        let s1 = &r.points[0];
        assert_eq!((s1.cross_events, s1.windows), (0, 0));
        assert!((s1.speedup - 1.0).abs() < 1e-9);
        // Every member sees every chunk: the tree spans all 96.
        assert_eq!(s1.delivered, 96 * 10);
        assert!(s1.events > s1.delivered);
    }

    #[test]
    fn stream_runs_are_deterministic_per_seed() {
        let a = shard_family(40, 2, 5, 11);
        let b = shard_family(40, 2, 5, 11);
        for (x, y) in a.points.iter().zip(&b.points) {
            assert_eq!(x.fingerprint, y.fingerprint);
            assert_eq!(x.events, y.events);
            assert_eq!(x.cross_events, y.cross_events);
        }
    }

    #[test]
    fn json_parses_shape() {
        let r = shard_family(96, 2, 10, 3).report(Effort::Quick, 3);
        assert_eq!((r.name, r.points.len()), ("shard", 2));
        assert_eq!(r.failures, Vec::<String>::new());
        assert_eq!(r.header.get("s1_identical"), Some(&Field::Bool(true)));
        assert_eq!(r.header.get("max_shards"), Some(&Field::U64(2)));
        assert_eq!(r.points[1].get("shards"), Some(&Field::U64(2)));
        assert_eq!(r.points[1].get("delivered"), Some(&Field::U64(96 * 10)));
    }

    /// Each A12 gate fires on a report doctored to break it.
    #[test]
    fn doctored_reports_fail_their_gates() {
        let mut r = shard_family(96, 2, 10, 3);
        r.s1_identical = false;
        r.fingerprints_match = false;
        r.points[1].cross_events = 0;
        r.points[1].delivered -= 1;
        r.max_shards = 4;
        let failures = r.report(Effort::Quick, 3).failures;
        assert_eq!(failures.len(), 5, "{failures:?}");
        assert!(failures[0].starts_with("S=1 sharded run diverged"));
        assert!(failures[1].starts_with("delivery fingerprints diverged"));
        assert!(failures[2].starts_with("shard sweep (1, 2) does not span 1..=4"));
        assert!(failures[3].starts_with("S=2 never crossed a shard boundary"));
        assert!(failures[4].starts_with("S=2 delivered 959 chunks"));
    }
}
