//! Building the PlanetLab-like latency space.
//!
//! Pairwise RTT = (fiber-speed great circle + access delays) × an
//! *inflation factor* drawn per pair from a lognormal-shaped
//! distribution. Inflation models routing detours ("the Internet
//! backbones and routing within and between ISPs may result in
//! different distances between the nodes in contrast to geographic
//! distribution", §5.4.1) and is what makes the space violate the
//! triangle inequality, so directionality estimates can be wrong the
//! same way they were on PlanetLab. Per-path loss gets a small base
//! plus a heavy-ish tail of lossy paths.

use rand::{rngs::StdRng, Rng, SeedableRng};
use vdm_netsim::underlay::LazyProfile;
use vdm_netsim::{HostId, LatencySpace};
use vdm_topology::geo::{site_rtt_ms, Site};

/// Mean of `ln(inflation)`: 0.35 → median inflation ≈ 1.42 (real
/// Internet paths average ~1.5–2× the great-circle time).
const INFLATION_MU: f64 = 0.35;
/// Std-dev of `ln(inflation)`.
const INFLATION_SIGMA: f64 = 0.25;
/// Per-probe multiplicative jitter amplitude (±fraction).
const JITTER_FRAC: f64 = 0.08;
/// Base per-path loss probability.
const BASE_LOSS: f64 = 0.002;
/// Fraction of paths with extra loss.
const LOSSY_PATH_FRAC: f64 = 0.08;
/// Maximum extra loss on lossy paths.
const LOSSY_PATH_EXTRA: f64 = 0.04;
/// Extra response delay of lazy nodes, ms (tail).
const LAZY_EXTRA_MS: f64 = 800.0;
/// Probability a packet toward a lazy node hits the slow path.
const LAZY_PROB: f64 = 0.05;

/// Approximate standard normal via the sum of 12 uniforms (good enough
/// for synthesis; keeps us off extra dependencies).
fn gauss(rng: &mut StdRng) -> f64 {
    (0..12).map(|_| rng.gen::<f64>()).sum::<f64>() - 6.0
}

/// Build the latency space over `sites`; `lazy[i]` marks slow
/// responders. Deterministic in `seed`.
pub fn build_latency_space(sites: &[Site], lazy: &[bool], seed: u64) -> LatencySpace {
    assert_eq!(sites.len(), lazy.len());
    let n = sites.len();
    assert!(n >= 2, "need at least two sites");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0073_7061_6365);
    let mut rtt = vec![vec![0.0; n]; n];
    let mut loss = vec![vec![0.0; n]; n];
    for i in 0..n {
        for j in (i + 1)..n {
            let base = site_rtt_ms(&sites[i], &sites[j]);
            let inflation = (INFLATION_MU + INFLATION_SIGMA * gauss(&mut rng)).exp();
            let r = (base * inflation.max(1.0)).max(0.2);
            rtt[i][j] = r;
            rtt[j][i] = r;
            let mut p = BASE_LOSS;
            if rng.gen::<f64>() < LOSSY_PATH_FRAC {
                p += rng.gen::<f64>() * LOSSY_PATH_EXTRA;
            }
            loss[i][j] = p;
            loss[j][i] = p;
        }
    }
    let mut space = LatencySpace::from_rtt_matrix(&rtt)
        .with_loss_matrix(&loss)
        .with_jitter(JITTER_FRAC);
    for (i, &l) in lazy.iter().enumerate() {
        if l {
            space.set_lazy(
                HostId(i as u32),
                LazyProfile {
                    prob: LAZY_PROB,
                    extra_ms: LAZY_EXTRA_MS,
                },
            );
        }
    }
    space
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{NodePool, PoolConfig};
    use vdm_netsim::Underlay;

    fn us_space(seed: u64) -> (LatencySpace, usize) {
        let pool = NodePool::generate(&PoolConfig::us_paper(), seed);
        let (sites, lazy) = pool.working_sites();
        let n = sites.len();
        (build_latency_space(&sites, &lazy, seed), n)
    }

    #[test]
    fn rtts_look_like_us_planetlab() {
        let (space, n) = us_space(1);
        let mut min = f64::INFINITY;
        let mut max: f64 = 0.0;
        let mut sum = 0.0;
        let mut count = 0;
        for i in 0..n {
            for j in (i + 1)..n {
                let r = space.rtt_ms(HostId(i as u32), HostId(j as u32));
                min = min.min(r);
                max = max.max(r);
                sum += r;
                count += 1;
            }
        }
        let mean = sum / count as f64;
        // Continental US: a few ms nearby, under ~250 ms worst case
        // with detours, tens of ms on average.
        assert!(min > 0.2 && min < 30.0, "min {min}");
        assert!(max > 60.0 && max < 300.0, "max {max}");
        assert!((15.0..120.0).contains(&mean), "mean {mean}");
    }

    #[test]
    fn triangle_inequality_is_sometimes_violated() {
        let (space, n) = us_space(2);
        let mut violations = 0;
        let mut triples = 0;
        for a in 0..n.min(40) {
            for b in (a + 1)..n.min(40) {
                for c in (b + 1)..n.min(40) {
                    let (ha, hb, hc) = (HostId(a as u32), HostId(b as u32), HostId(c as u32));
                    let (ab, bc, ac) = (
                        space.rtt_ms(ha, hb),
                        space.rtt_ms(hb, hc),
                        space.rtt_ms(ha, hc),
                    );
                    triples += 1;
                    if ac > ab + bc || ab > ac + bc || bc > ab + ac {
                        violations += 1;
                    }
                }
            }
        }
        let frac = violations as f64 / triples as f64;
        assert!(frac > 0.005, "expected TIVs, got {frac}");
        assert!(frac < 0.5, "space should still be mostly metric: {frac}");
    }

    #[test]
    fn losses_have_base_and_tail() {
        let (space, n) = us_space(3);
        let mut lossy = 0;
        let mut total = 0;
        for i in 0..n {
            for j in (i + 1)..n {
                let p = space.path_loss(HostId(i as u32), HostId(j as u32));
                assert!((0.0019..0.05).contains(&p), "loss {p}");
                if p > 0.005 {
                    lossy += 1;
                }
                total += 1;
            }
        }
        let frac = lossy as f64 / total as f64;
        assert!((0.02..0.25).contains(&frac), "lossy fraction {frac}");
    }

    #[test]
    fn deterministic_per_seed() {
        let (a, n) = us_space(5);
        let (b, _) = us_space(5);
        for i in 0..n.min(20) {
            for j in 0..n.min(20) {
                if i != j {
                    assert_eq!(
                        a.rtt_ms(HostId(i as u32), HostId(j as u32)),
                        b.rtt_ms(HostId(i as u32), HostId(j as u32))
                    );
                }
            }
        }
    }
}
