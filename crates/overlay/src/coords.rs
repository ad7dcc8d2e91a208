//! Virtual-coordinate embedding (Vivaldi-style spring relaxation).
//!
//! At N = 10k the A9 family showed VDM's contacts-per-join blowing past
//! the `4·log₄N` curve because a saturated tree core forces repeated
//! Case-III restarts from the source. The fix — following the
//! virtual-geometric-coordinate tree construction of Andreica et al. —
//! is to let a newcomer *predict* its region of the tree: every host
//! maintains a low-dimensional virtual coordinate whose pairwise
//! Euclidean distances approximate measured RTTs, updated with the
//! standard Vivaldi spring-relaxation rule from samples the walk and
//! gossip traffic already produce. Joiners then rank candidate walk
//! anchors (discovered peers, gossiped ancestors, visited nodes) by
//! coordinate distance and enter the walk mid-tree instead of at the
//! source, and Case-III restarts resume from the coordinate-nearest
//! visited ancestor.
//!
//! Everything here is **default-off and byte-invisible when disabled**:
//! [`crate::agent::AgentConfig::coords`] unset means no state, no extra messages (the piggyback
//! fields on [`crate::msg::Msg`] stay `None`), no timers, and no RNG
//! draws — the degenerate-direction tie-break below hashes host ids
//! instead of consuming the shared engine stream, so enabling or
//! disabling the embedding never shifts another subsystem's randomness.
//! All updates are pure `f64` arithmetic over delivered samples:
//! deterministic per seed, and clamped so coordinates stay finite under
//! arbitrary RTT inputs.

use crate::VDist;
use vdm_netsim::HostId;
use vdm_topology::splitmix64;

/// Embedding dimensionality. Vivaldi converges well in 2–5 dimensions;
/// 4 keeps samples `Copy`-small while leaving room for the power-law
/// underlays' non-metric quirks.
pub const DIM: usize = 4;

/// A point in the virtual coordinate space.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Coord(pub [f64; DIM]);

impl Coord {
    /// The origin — every host starts here.
    pub const ZERO: Coord = Coord([0.0; DIM]);

    /// Euclidean distance to `other` (the RTT estimate, ms).
    pub fn dist(&self, other: Coord) -> f64 {
        self.0
            .iter()
            .zip(other.0.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    }

    /// Vector magnitude.
    pub fn norm(&self) -> f64 {
        self.dist(Coord::ZERO)
    }

    /// Every component finite?
    pub fn is_finite(&self) -> bool {
        self.0.iter().all(|v| v.is_finite())
    }
}

/// A host's coordinate plus its local error estimate — what the
/// piggyback fields on probes, connection requests, and gossip carry.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CoordSample {
    /// The remote host's current coordinate.
    pub coord: Coord,
    /// The remote host's confidence (relative error, lower = better).
    pub err: f64,
}

/// Error adaptation rate (Vivaldi's `c_e`).
const CE: f64 = 0.25;
/// Position step rate (Vivaldi's `c_c`).
const CC: f64 = 0.25;
/// Initial (and maximum) relative error.
pub const ERR_INIT: f64 = 1.0;
/// Relative error never drops below this (keeps the update responsive
/// to topology changes and the weight well-defined).
pub const ERR_FLOOR: f64 = 0.05;
/// Per-component coordinate clamp: updates never push any axis beyond
/// ±`MAX_COORD`, so coordinates stay finite under arbitrary (even
/// adversarial) RTT samples.
pub const MAX_COORD: f64 = 1e6;
/// RTT samples below this are clamped up (guards the relative error's
/// division and keeps zero-RTT self-loops harmless).
const MIN_RTT_MS: f64 = 0.01;
/// Guided join: candidate anchors probed (true RTT) per join, taken
/// from the coordinate-ranked view head.
pub const PROBE_K: usize = 6;
/// Guided join: membership-view size the joiner ranks.
pub const VIEW_K: usize = 32;

/// One host's Vivaldi state: coordinate plus local error.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct VivaldiState {
    /// Current coordinate.
    pub coord: Coord,
    /// Current relative error estimate.
    pub err: f64,
}

impl Default for VivaldiState {
    /// Fresh state at the origin with maximal error.
    fn default() -> Self {
        Self {
            coord: Coord::ZERO,
            err: ERR_INIT,
        }
    }
}

impl VivaldiState {
    /// The sample other hosts receive in piggyback fields.
    pub fn sample(&self) -> CoordSample {
        CoordSample {
            coord: self.coord,
            err: self.err,
        }
    }

    /// One spring-relaxation step against a measured RTT to `remote`.
    /// Deterministic: same state + same inputs ⇒ same result; when the
    /// two coordinates coincide the push-apart direction is hashed from
    /// `pair_seed` (never drawn from a shared RNG). Returns the step
    /// magnitude (trace/diagnostics).
    pub fn update(&mut self, remote: CoordSample, rtt_ms: f64, pair_seed: u64) -> f64 {
        let rtt = if rtt_ms.is_finite() {
            rtt_ms.max(MIN_RTT_MS)
        } else {
            return 0.0;
        };
        let remote_err = remote.err.clamp(ERR_FLOOR, ERR_INIT);
        // Sample weight: how much we trust ourselves vs the remote.
        let w = self.err / (self.err + remote_err);
        let dist = self.coord.dist(remote.coord);
        // Relative error of this sample, folded into our confidence.
        let es = (dist - rtt).abs() / rtt;
        let alpha = CE * w;
        self.err = (es * alpha + self.err * (1.0 - alpha)).clamp(ERR_FLOOR, ERR_INIT);
        // Unit vector from the remote toward us; coincident coordinates
        // get a deterministic pseudo-random direction so two hosts born
        // at the origin still separate.
        let dir = if dist > 1e-9 {
            let mut d = [0.0; DIM];
            for (i, v) in d.iter_mut().enumerate() {
                *v = (self.coord.0[i] - remote.coord.0[i]) / dist;
            }
            Coord(d)
        } else {
            unit_from_hash(pair_seed)
        };
        let step = CC * w * (rtt - dist);
        for (i, v) in self.coord.0.iter_mut().enumerate() {
            *v = (*v + step * dir.0[i]).clamp(-MAX_COORD, MAX_COORD);
        }
        step.abs()
    }
}

/// Deterministic seed for the degenerate-direction tie-break of an
/// update between two hosts. Order-sensitive on purpose: the two ends
/// of a coincident pair must push in *different* directions.
pub fn pair_seed(me: HostId, remote: HostId) -> u64 {
    splitmix64(((me.0 as u64) << 32) | remote.0 as u64)
}

/// A deterministic unit vector hashed from `seed` (components from
/// independent SplitMix64 outputs, normalized).
pub fn unit_from_hash(seed: u64) -> Coord {
    let mut c = [0.0; DIM];
    let mut s = seed;
    for v in c.iter_mut() {
        s = splitmix64(s);
        // Map to (-1, 1); 53-bit mantissa keeps this exact.
        *v = (s >> 11) as f64 / (1u64 << 52) as f64 - 1.0;
    }
    let coord = Coord(c);
    let n = coord.norm();
    if n > 1e-12 {
        for v in c.iter_mut() {
            *v /= n;
        }
        Coord(c)
    } else {
        let mut unit = [0.0; DIM];
        unit[0] = 1.0;
        Coord(unit)
    }
}

/// A whole-population coordinate table for the synchronous oracle path
/// (the A9 guided-join series): one [`VivaldiState`] per host, updated
/// symmetrically from the probe RTTs joins measure anyway.
pub struct CoordTable {
    states: Vec<VivaldiState>,
}

impl CoordTable {
    /// A table of `n` hosts, all at the origin.
    pub fn new(n: usize) -> Self {
        Self {
            states: vec![VivaldiState::default(); n],
        }
    }

    /// A host's current state.
    pub fn state(&self, h: HostId) -> &VivaldiState {
        &self.states[h.idx()]
    }

    /// Fold one measured RTT into both endpoints (each end sees the
    /// other's pre-update sample, exactly as two piggybacked updates
    /// from one probe exchange would).
    pub fn observe(&mut self, a: HostId, b: HostId, rtt_ms: f64) {
        if a == b {
            return;
        }
        let sa = self.states[a.idx()].sample();
        let sb = self.states[b.idx()].sample();
        self.states[a.idx()].update(sb, rtt_ms, pair_seed(a, b));
        self.states[b.idx()].update(sa, rtt_ms, pair_seed(b, a));
    }

    /// Estimated virtual distance between two hosts.
    pub fn est_dist(&self, a: HostId, b: HostId) -> VDist {
        self.states[a.idx()].coord.dist(self.states[b.idx()].coord)
    }

    /// Sort `candidates` by estimated distance from `from`, nearest
    /// first, host id breaking ties (deterministic regardless of input
    /// order).
    pub fn rank_from(&self, from: HostId, candidates: &mut [HostId]) {
        let c = self.states[from.idx()].coord;
        candidates.sort_by(|&x, &y| {
            let dx = c.dist(self.states[x.idx()].coord);
            let dy = c.dist(self.states[y.idx()].coord);
            dx.total_cmp(&dy).then(x.cmp(&y))
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_is_deterministic() {
        let mut a = VivaldiState::default();
        let mut b = VivaldiState::default();
        let remote = CoordSample {
            coord: Coord([3.0, -1.0, 0.5, 2.0]),
            err: 0.4,
        };
        let s1 = a.update(remote, 25.0, 77);
        let s2 = b.update(remote, 25.0, 77);
        assert_eq!(a, b);
        assert_eq!(s1, s2);
    }

    #[test]
    fn coincident_pairs_separate_deterministically() {
        let mut a = VivaldiState::default();
        let mut b = VivaldiState::default();
        let origin = CoordSample {
            coord: Coord::ZERO,
            err: 1.0,
        };
        a.update(origin, 10.0, pair_seed(HostId(1), HostId(2)));
        b.update(origin, 10.0, pair_seed(HostId(2), HostId(1)));
        assert!(a.coord.norm() > 0.0);
        assert!(b.coord.norm() > 0.0);
        assert_ne!(a.coord, b.coord, "the two ends must push apart");
    }

    #[test]
    fn pathological_rtts_keep_coordinates_finite() {
        let mut v = VivaldiState::default();
        let remote = CoordSample {
            coord: Coord([1e9, -1e9, 1e9, -1e9]),
            err: 0.0,
        };
        for rtt in [0.0, -5.0, f64::MAX, f64::INFINITY, f64::NAN, 1e300] {
            v.update(remote, rtt, 3);
            assert!(v.coord.is_finite(), "rtt={rtt}: {:?}", v.coord);
            assert!(v.err.is_finite() && v.err >= ERR_FLOOR);
        }
        assert!(v.coord.norm() <= MAX_COORD * (DIM as f64).sqrt());
    }

    #[test]
    fn embedding_converges_on_a_line() {
        // Hosts 0..4 on a line, RTT = 10·|i-j|. After enough symmetric
        // sweeps the coordinate distances should reflect the geometry:
        // the embedding must order 1's neighbours correctly.
        let n = 5;
        let mut t = CoordTable::new(n);
        let rtt = |a: u32, b: u32| 10.0 * (a as f64 - b as f64).abs();
        for _ in 0..60 {
            for i in 0..n as u32 {
                for j in 0..n as u32 {
                    if i != j {
                        t.observe(HostId(i), HostId(j), rtt(i, j));
                    }
                }
            }
        }
        let d01 = t.est_dist(HostId(0), HostId(1));
        let d04 = t.est_dist(HostId(0), HostId(4));
        assert!(
            d04 > d01 * 2.0,
            "far pair must embed farther: d01={d01:.2} d04={d04:.2}"
        );
        let mut cands = vec![HostId(4), HostId(2), HostId(1), HostId(3)];
        t.rank_from(HostId(0), &mut cands);
        assert_eq!(cands[0], HostId(1), "ranked order: {cands:?}");
        assert_eq!(cands[3], HostId(4));
    }

    #[test]
    fn unit_vectors_have_unit_norm() {
        for s in [0u64, 1, 42, u64::MAX] {
            let u = unit_from_hash(s);
            assert!((u.norm() - 1.0).abs() < 1e-9, "seed {s}: {:?}", u);
        }
    }
}
