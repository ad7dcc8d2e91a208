//! The two join storms over the power-law testbed behind the
//! memory-bounded `OnDemandRouter`: real-stack joins through `Driver`,
//! and the coordinate-guided synchronous sweep.

use std::sync::Arc;
use std::time::Instant;

use vdm_core::{VdmFactory, VdmPolicy};
use vdm_experiments::figures::scale::guided_join_sweep;
use vdm_experiments::setup::Ch3Setup;
use vdm_netsim::{HostId, RoutedUnderlay, SimTime, Underlay};
use vdm_overlay::{DriverConfig, Scenario};
use vdm_topology::powerlaw::{self, PowerLawConfig};
use vdm_topology::transit_stub::attach_hosts;

use super::sim;
use super::{drive, Iter, Outcome, Params, Plan, Unit};
use crate::stat::{mean, Fnv};
use crate::trace::{Spans, TimedUnderlay};

/// Degree limit of every joiner (mid-range of the paper's 2–5).
const DEGREE: u32 = 4;

/// `setup::scale_setup`'s power-law testbed with the router's row LRU
/// sized by hand. At the 3 000 members the A9 family profiles, the
/// default 64 MiB budget keeps 654 rows for 3 001 hosts and the joins
/// thrash it; a run here has to fit several iterations into ten seconds,
/// so it takes fewer members and shrinks the LRU in the same proportion.
/// Below ~1 400 members the default budget would hold every row and the
/// workload would measure nothing but cold misses.
fn scale_testbed(members: usize, seed: u64) -> Ch3Setup {
    let routers = members + members / 8 + 32;
    let mut g = powerlaw::generate(
        &PowerLawConfig {
            nodes: routers,
            ..PowerLawConfig::default()
        },
        seed,
    );
    let hosts = attach_hosts(&mut g, members + 1, seed, 0.0);
    let rows = (members + 1) * 654 / 3_001;
    Ch3Setup {
        underlay: Arc::new(RoutedUnderlay::on_demand(
            Arc::new(g),
            hosts,
            Some(rows),
            None,
        )),
        source: HostId(0),
        candidates: (1..=members as u32).map(HostId).collect(),
    }
}

/// `join_ondemand`: `n` `Action::Join`s 50 ms apart through `Driver`,
/// no stream, on a cold row LRU.
pub fn join_ondemand(p: &Params) -> Result<Outcome, String> {
    let n: usize = if p.smoke { 256 } else { 1_000 };
    let gap_ms = 50.0;
    let plan = Plan {
        fixed: if p.smoke { 1 } else { 2 },
        warmup: false,
        rounds: 0,
        overhead_rerun: true,
        unclaimed: "netsim.engine_self_s",
    };
    drive(p, &plan, |spans: &mut Spans, seed, traced, _| {
        let mut it = Iter::default();
        spans.open("setup");
        let t = Instant::now();
        let (setup, build_s) = sim::build_setup(|| scale_testbed(n, seed));
        let limits = vec![DEGREE; n + 1];
        let joins = sim::staggered_joins(&setup, gap_ms);
        // Long enough after the last join for its walk to finish.
        let end = SimTime::from_ms(n as f64 * gap_ms + 60_000.0);
        let scenario = Scenario::from_actions(joins, end);
        let cfg = DriverConfig {
            data_interval: None,
            ..DriverConfig::default()
        };
        let mut factory = VdmFactory::delay_based();
        factory.agent.data_timeout = None;
        let mut s = sim::open(
            &setup, factory, &scenario, &limits, cfg, seed, false, traced,
        );
        it.setup_s = t.elapsed().as_secs_f64();
        spans.close();

        let ((), wall_s) = sim::timed(traced, || spans.scope("join", |_| s.run_until(end)));

        spans.open("measure");
        let snap = s.snapshot();
        it.ops = n as u64;
        it.ok_ops = snap.connected_members().len() as u64;
        it.units.push(Unit::of(wall_s, it.ops));
        it.digest = Some(sim::digest(&*s));
        sim::engine_layer(s.events() as f64, sim::sent(&s.counters()), wall_s, &mut it);
        sim::outcome_layer(s.stats(), &mut it);
        sim::gate_tree(&snap, &limits, &mut it);
        if snap.members.len() != n {
            it.errors
                .push(format!("{} of {n} joins were issued", snap.members.len()));
        }
        sim::router_rows(&setup, &mut it);
        if traced {
            sim::topology_split(&setup, build_s, &mut it);
        }
        spans.close();
        Ok(it)
    })
}

/// `join_guided`: `guided_join_sweep` (SyncOverlay + `CoordTable`) over
/// the same testbed.
pub fn join_guided(p: &Params) -> Result<Outcome, String> {
    let n: usize = if p.smoke { 256 } else { 1_000 };
    let plan = Plan {
        fixed: if p.smoke { 1 } else { 2 },
        warmup: false,
        rounds: 0,
        overhead_rerun: true,
        // No engine here: what is not the underlay is the sync walk.
        unclaimed: "overlay.sync_walk_self_s",
    };
    drive(p, &plan, |spans: &mut Spans, seed, traced, _| {
        let mut it = Iter::default();
        spans.open("setup");
        let (setup, build_s) = sim::build_setup(|| scale_testbed(n, seed));
        let underlay: Arc<dyn Underlay + Send + Sync> = if traced {
            Arc::new(TimedUnderlay(setup.underlay.clone()))
        } else {
            setup.underlay.clone()
        };
        let policy = VdmPolicy::delay_based();
        it.setup_s = build_s;
        spans.close();

        let (sweep, wall_s) = sim::timed(traced, || {
            spans.scope("join", |_| {
                guided_join_sweep(underlay, n, DEGREE, seed, &policy)
            })
        });

        spans.open("measure");
        let snap = sweep.ov.snapshot();
        it.ops = n as u64;
        it.ok_ops = snap.connected_members().len() as u64;
        it.units.push(Unit::of(wall_s, it.ops));
        sim::gate_tree(&snap, &sweep.ov.limits(), &mut it);
        let mut d = Fnv::default();
        for p in &snap.parent {
            d.u64(p.map_or(u64::MAX, |h| u64::from(h.0)));
        }
        for &c in &sweep.contacts {
            d.f64(c);
        }
        it.digest = Some(d.0);
        it.layer
            .push(("contacts_per_join", mean(&sweep.contacts[3 * n / 4..])));
        sim::router_rows(&setup, &mut it);
        if traced {
            sim::topology_split(&setup, build_s, &mut it);
        }
        spans.close();
        Ok(it)
    })
}
