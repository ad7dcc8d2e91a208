//! Experiment setup builders: Chapter 3 underlays and degree limits.
//!
//! Every underlay is a pure function of its generator parameters and
//! seed — topology synthesis plus one shortest-path row per host
//! (`vdm_topology::HostRoutes`) — and is built where it is used.

use crate::proto::Session;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::cell::Cell;
use std::sync::Arc;
use vdm_netsim::{HostId, RoutedUnderlay, SimTime};
use vdm_overlay::driver::DriverConfig;
use vdm_overlay::scenario::Scenario;
use vdm_topology::powerlaw::{self, PowerLawConfig};
use vdm_topology::transit_stub::{attach_hosts, generate, randomize_losses, TransitStubConfig};
use vdm_topology::waxman::{self, WaxmanConfig};
use vdm_topology::{Graph, NodeId};

/// Which routing oracle setup builders put behind `RoutedUnderlay`.
///
/// Both oracles hold the same host rows and answer host queries
/// bit-identically (see `vdm_topology::router`), so this is purely a
/// memory/time trade: eager host rows are `O(H² + H · n)` once,
/// on-demand is `O(capacity · (H + n))` resident.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum RouterChoice {
    /// Eager host rows (`vdm_topology::HostRoutes`: one Dijkstra per
    /// host, built up front) — the default.
    #[default]
    Dense,
    /// Memory-bounded on-demand rows (no `O(n^2)` materialization).
    OnDemand,
}

thread_local! {
    static ROUTER_CHOICE: Cell<RouterChoice> = const { Cell::new(RouterChoice::Dense) };
}

/// Run `f` with every setup builder on this thread using `choice`
/// (restored afterwards, including on unwind). The runner's sequential
/// mode executes cells on the calling thread, so wrapping a family run
/// switches its underlays wholesale.
pub fn with_router_choice<T>(choice: RouterChoice, f: impl FnOnce() -> T) -> T {
    struct Restore(RouterChoice);
    impl Drop for Restore {
        fn drop(&mut self) {
            ROUTER_CHOICE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(ROUTER_CHOICE.with(|c| c.replace(choice)));
    f()
}

/// Route `g` with the oracle [`with_router_choice`] selected on this
/// thread.
fn routed(g: Graph, hosts: Vec<NodeId>) -> Arc<RoutedUnderlay> {
    Arc::new(match ROUTER_CHOICE.with(|c| c.get()) {
        RouterChoice::Dense => RoutedUnderlay::new(g, hosts),
        RouterChoice::OnDemand => RoutedUnderlay::on_demand(Arc::new(g), hosts, None, None),
    })
}

/// A ready Chapter 3 testbed: transit-stub routers with attached hosts,
/// host 0 being the source.
pub struct Ch3Setup {
    /// Routed underlay (shared across replicated runs — the host-row
    /// build is the expensive part).
    pub underlay: Arc<RoutedUnderlay>,
    /// The streaming source.
    pub source: HostId,
    /// Overlay candidates (everyone but the source).
    pub candidates: Vec<HostId>,
}

impl Ch3Setup {
    /// A streamed session on this testbed: the paper's 2–5 degree
    /// limits drawn from `seed`, one chunk per second, no link stress,
    /// the protocol's own agent config.
    pub fn session<'a>(&self, scenario: &'a Scenario, seed: u64) -> Session<'a> {
        Session::new(
            self.underlay.clone(),
            None,
            self.source,
            scenario,
            degree_limits_range(self.candidates.len() + 1, 2, 5, seed),
            DriverConfig {
                data_interval: Some(SimTime::from_secs(1)),
                ..DriverConfig::default()
            },
            seed,
        )
    }
}

/// Build the §3.6.2 testbed for `members` overlay nodes.
///
/// Uses the paper's 792-router transit-stub topology whenever it has
/// enough stub routers; larger populations scale the topology up with
/// the same shape. `link_loss` (e.g. 0.02 for Chapter 4) assigns each
/// physical link an independent uniform error rate in `[0, link_loss)`.
pub fn ch3_setup(members: usize, link_loss: f64, topo_seed: u64) -> Ch3Setup {
    let needed = members + 1;
    let cfg = TransitStubConfig::for_hosts(needed);
    let mut g = generate(&cfg, topo_seed);
    if link_loss > 0.0 {
        randomize_losses(&mut g, link_loss, topo_seed);
    }
    let hosts = attach_hosts(&mut g, needed, topo_seed, 0.0);
    Ch3Setup {
        underlay: routed(g, hosts),
        source: HostId(0),
        candidates: (1..needed as u32).map(HostId).collect(),
    }
}

/// A flat Waxman underlay with attached hosts (topology-sensitivity
/// studies: the transit-stub hierarchy is one modelling choice; Waxman
/// graphs have no domain structure at all).
pub fn waxman_setup(members: usize, routers: usize, seed: u64) -> Ch3Setup {
    assert!(routers > members);
    let mut g = waxman::generate(
        &WaxmanConfig {
            nodes: routers,
            ..WaxmanConfig::default()
        },
        seed,
    )
    .graph;
    let hosts = attach_hosts(&mut g, members + 1, seed, 0.0);
    Ch3Setup {
        underlay: routed(g, hosts),
        source: HostId(0),
        candidates: (1..=members as u32).map(HostId).collect(),
    }
}

/// A power-law (Barabási–Albert) underlay with attached hosts: a few
/// router hubs, many leaves — the AS-level-Internet-like third topology
/// for sensitivity studies.
pub fn powerlaw_setup(members: usize, routers: usize, seed: u64) -> Ch3Setup {
    assert!(routers > members);
    let mut g = powerlaw::generate(
        &PowerLawConfig {
            nodes: routers,
            ..PowerLawConfig::default()
        },
        seed,
    );
    let hosts = attach_hosts(&mut g, members + 1, seed, 0.0);
    Ch3Setup {
        underlay: routed(g, hosts),
        source: HostId(0),
        candidates: (1..=members as u32).map(HostId).collect(),
    }
}

/// The A9 scaling testbed: a power-law underlay sized for `members`
/// overlay hosts, always routed on demand — no `O(n^2)` structure is
/// ever materialized, which is what lets A9 run 10k–20k members.
pub fn scale_setup(members: usize, seed: u64) -> Ch3Setup {
    let routers = members + members / 8 + 32;
    let mut g = powerlaw::generate(
        &PowerLawConfig {
            nodes: routers,
            ..PowerLawConfig::default()
        },
        seed,
    );
    let hosts = attach_hosts(&mut g, members + 1, seed, 0.0);
    let underlay = Arc::new(RoutedUnderlay::on_demand(Arc::new(g), hosts, None, None));
    Ch3Setup {
        underlay,
        source: HostId(0),
        candidates: (1..=members as u32).map(HostId).collect(),
    }
}

/// Degree limits drawn uniformly from `lo..=hi` (the paper's §3.6.2:
/// "Degree limits of nodes ranges from 2 to 5").
pub fn degree_limits_range(n: usize, lo: u32, hi: u32, seed: u64) -> Vec<u32> {
    assert!(lo >= 1 && hi >= lo);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0064_6567);
    (0..n).map(|_| rng.gen_range(lo..=hi)).collect()
}

/// Degree limits with a target *average* (the §3.6.4 node-degree sweep
/// uses fractional averages like 1.25): each node gets `floor(avg)` or
/// `ceil(avg)` with probabilities matching the mean, floored at 1.
pub fn degree_limits_avg(n: usize, avg: f64, seed: u64) -> Vec<u32> {
    assert!(avg >= 1.0);
    let lo = avg.floor() as u32;
    let hi = avg.ceil() as u32;
    let p_hi = avg - lo as f64;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0061_7667);
    (0..n)
        .map(|_| {
            if hi > lo && rng.gen::<f64>() < p_hi {
                hi
            } else {
                lo.max(1)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdm_netsim::Underlay;

    #[test]
    fn paper_scale_setup() {
        let s = ch3_setup(50, 0.0, 1);
        assert_eq!(s.underlay.num_hosts(), 51);
        assert_eq!(s.candidates.len(), 50);
        assert_eq!(s.underlay.graph().num_nodes(), 792 + 51);
        // Host-to-host RTTs are underlay routes, strictly positive.
        let r = s.underlay.rtt_ms(HostId(0), HostId(1));
        assert!(r > 0.0 && r.is_finite());
    }

    #[test]
    fn grows_for_large_populations() {
        let s = ch3_setup(1000, 0.0, 2);
        assert_eq!(s.underlay.num_hosts(), 1001);
        assert!(s.underlay.graph().num_nodes() > 1001);
    }

    #[test]
    fn link_loss_shows_up_on_paths() {
        let s = ch3_setup(30, 0.02, 3);
        let mut lossy = 0;
        for i in 1..31u32 {
            if s.underlay.path_loss(HostId(0), HostId(i)) > 0.0 {
                lossy += 1;
            }
        }
        assert!(lossy > 25, "most multi-hop paths must be lossy: {lossy}");
    }

    #[test]
    fn waxman_setup_is_usable() {
        let s = waxman_setup(20, 60, 5);
        assert_eq!(s.underlay.num_hosts(), 21);
        assert!(s.underlay.rtt_ms(HostId(0), HostId(20)) > 0.0);
    }

    #[test]
    fn powerlaw_setup_is_usable() {
        let s = powerlaw_setup(20, 60, 5);
        assert_eq!(s.underlay.num_hosts(), 21);
        assert!(s.underlay.rtt_ms(HostId(0), HostId(20)) > 0.0);
        assert!(s.underlay.graph().is_connected());
    }

    #[test]
    fn on_demand_override_matches_dense() {
        let dense = waxman_setup(12, 40, 7);
        let od = with_router_choice(RouterChoice::OnDemand, || waxman_setup(12, 40, 7));
        assert!(dense.underlay.router().is_none());
        assert!(od.underlay.router().is_some());
        for a in 0..13u32 {
            for b in 0..13u32 {
                assert_eq!(
                    od.underlay.rtt_ms(HostId(a), HostId(b)).to_bits(),
                    dense.underlay.rtt_ms(HostId(a), HostId(b)).to_bits(),
                    "rtt h{a}->h{b}"
                );
            }
        }
        // The override is scoped: after the closure, builds are dense again.
        assert!(waxman_setup(12, 40, 7).underlay.router().is_none());
    }

    #[test]
    fn scale_setup_is_on_demand() {
        let s = scale_setup(40, 9);
        assert_eq!(s.underlay.num_hosts(), 41);
        assert_eq!(s.candidates.len(), 40);
        let r = s.underlay.rtt_ms(HostId(0), HostId(40));
        assert!(r > 0.0 && r.is_finite());
        let stats = s
            .underlay
            .router()
            .expect("scale must never build eager rows")
            .stats();
        assert!(stats.resident <= stats.capacity);
    }

    #[test]
    fn degree_limit_helpers() {
        let r = degree_limits_range(1000, 2, 5, 4);
        assert!(r.iter().all(|&d| (2..=5).contains(&d)));
        let avg = degree_limits_avg(4000, 1.25, 5);
        assert!(avg.iter().all(|&d| d == 1 || d == 2));
        let mean = avg.iter().sum::<u32>() as f64 / avg.len() as f64;
        assert!((mean - 1.25).abs() < 0.05, "mean {mean}");
        let whole = degree_limits_avg(100, 3.0, 6);
        assert!(whole.iter().all(|&d| d == 3));
    }
}
