//! The six workloads and the loop that runs one of them for a time
//! budget and folds its iterations into the reported metrics.

pub mod joins;
pub mod relay;
pub mod sessions;
pub mod sim;

use std::collections::BTreeMap;
use std::path::PathBuf;

use crate::spec;
use crate::stat::{mean, median, percentile, Fnv};
use crate::trace::{self, Spans, Totals};

/// What one invocation was asked to do.
pub struct Params {
    pub workload: String,
    pub seed: u64,
    /// Wall seconds of timed work.
    pub seconds: f64,
    pub traced: bool,
    /// Shrink every workload to well under a second per iteration.
    pub smoke: bool,
    /// Where the traced run writes `trace_<workload>.json`.
    pub out_dir: PathBuf,
    /// The `vdm-node` binary (`node_relay` only).
    pub node_bin: PathBuf,
}

/// One timed unit of work.
pub struct Unit {
    pub wall_s: f64,
    pub ops: u64,
    /// Wall microseconds per operation of this unit.
    pub op_us: f64,
}

impl Unit {
    /// A unit whose per-operation time is its wall time over its operations.
    pub fn of(wall_s: f64, ops: u64) -> Self {
        Unit {
            wall_s,
            ops,
            op_us: wall_s * 1e6 / ops.max(1) as f64,
        }
    }
}

/// One iteration: a cold set-up followed by one or more timed units.
#[derive(Default)]
pub struct Iter {
    pub setup_s: f64,
    pub units: Vec<Unit>,
    /// Operations the delivery ratio counts, and how many succeeded.
    pub ops: u64,
    pub ok_ops: u64,
    /// Operations the correctness gates checked, and how many failed.
    pub attempted: u64,
    pub failed: u64,
    /// Digest of the simulated outcome (`None` where nothing is
    /// simulated: `node_relay`).
    pub digest: Option<u64>,
    /// Peak resident set of a process other than this one that did the
    /// work (`node_relay`: the daemon), MB.
    pub peak_rss_mb: Option<f64>,
    /// Per-layer values of this iteration, by metric name.
    pub layer: Vec<(&'static str, f64)>,
    /// Gate failures, in words.
    pub errors: Vec<String>,
}

/// How a workload's iterations are scheduled.
pub struct Plan {
    /// Iterations that always run and that alone feed the simulated
    /// statistics and the digest, so both repeat exactly per seed
    /// however many more iterations the time budget allows.
    pub fixed: usize,
    /// Run iteration 0 once untimed first.
    pub warmup: bool,
    /// Each iteration gets this share of the time budget for its units
    /// (workloads with several units per set-up); 0 = one unit each.
    pub rounds: usize,
    /// Re-run iteration 0 untraced after a traced run, for the tracing
    /// overhead and the proof that tracing changes no outcome.
    pub overhead_rerun: bool,
    /// The per-layer metric that receives the traced time no wrapper
    /// claimed: the engine's self time under `Driver`, the synchronous
    /// walk's where there is no engine.
    pub unclaimed: &'static str,
}

/// The metrics of one invocation.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Vec<(&'static str, f64)>,
    pub per_layer: BTreeMap<&'static str, f64>,
    pub sim_digest: Option<u64>,
    pub errors: Vec<String>,
    /// Raw samples behind the medians, for the human-readable report.
    pub setup_samples: Vec<f64>,
    pub op_us_samples: Vec<f64>,
}

/// Seed of iteration `r`: the harness's historical replicate schedule.
pub fn iter_seed(seed: u64, r: usize) -> u64 {
    seed.wrapping_add(1000 * r as u64).wrapping_add(17)
}

/// Peak resident set of this process, MB.
pub fn self_peak_rss_mb() -> f64 {
    peak_rss_mb_of("self").unwrap_or(0.0)
}

/// `VmHWM` of `/proc/<pid>/status`, MB.
pub fn peak_rss_mb_of(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Run `one` until the time budget is spent (and at least `plan.fixed`
/// times), then fold the iterations into an [`Outcome`]. An `Err` from
/// `one` is an iteration that could not be run at all (as opposed to one
/// whose gates failed): it ends the run at once.
pub fn drive(
    p: &Params,
    plan: &Plan,
    mut one: impl FnMut(&mut Spans, u64, bool, f64) -> Result<Iter, String>,
) -> Result<Outcome, String> {
    let mut spans = Spans::new(p.traced);
    spans.open(&p.workload);
    let round_budget = if plan.rounds > 0 {
        p.seconds / plan.rounds as f64
    } else {
        0.0
    };
    if plan.warmup {
        spans.scope("warmup", |s| {
            one(s, iter_seed(p.seed, 0), false, round_budget)
        })?;
    }
    let mut iters: Vec<Iter> = Vec::new();
    let mut timed_s = 0.0;
    // Round-based plans run exactly their rounds; the others run until
    // the budget is spent, and at least the fixed iterations. A smoke
    // run stops at the fixed iterations.
    let timed_out = |timed_s: f64| plan.rounds > 0 || p.smoke || timed_s >= p.seconds;
    while iters.len() < plan.fixed.max(plan.rounds) || !timed_out(timed_s) {
        let r = iters.len();
        spans.open(&format!("iter{r}"));
        let it = one(&mut spans, iter_seed(p.seed, r), p.traced, round_budget)?;
        spans.close();
        timed_s += it.units.iter().map(|u| u.wall_s).sum::<f64>();
        iters.push(it);
    }
    let totals = trace::take();

    let mut errors: Vec<String> = Vec::new();
    let mut overhead = 1.0;
    let mut untraced_events_per_s = None;
    if p.traced && plan.overhead_rerun {
        let plain = spans.scope("untraced_rerun", |s| {
            one(s, iter_seed(p.seed, 0), false, round_budget)
        })?;
        let op =
            |it: &Iter| percentile(&it.units.iter().map(|u| u.op_us).collect::<Vec<_>>(), 10.0);
        overhead = op(&iters[0]) / op(&plain);
        // Throughput is only honest without the wrappers in the way.
        untraced_events_per_s = plain
            .layer
            .iter()
            .find(|(name, _)| *name == "netsim.events_per_s")
            .map(|&(_, v)| v);
        if plain.digest != iters[0].digest {
            errors.push(format!(
                "tracing changed the simulated outcome: digest {:x?} traced, {:x?} untraced",
                iters[0].digest, plain.digest
            ));
        }
    }
    spans.close();
    if p.traced {
        let path = p.out_dir.join(format!("trace_{}.json", p.workload));
        if let Err(e) = spans.write(&path) {
            errors.push(format!("cannot write {}: {e}", path.display()));
        }
    }

    let fixed = &iters[..plan.fixed.min(iters.len())];
    let (ops, ok): (u64, u64) = fixed
        .iter()
        .fold((0, 0), |(a, b), it| (a + it.ops, b + it.ok_ops));
    let attempted: u64 = iters.iter().map(|it| it.attempted).sum();
    let failed: u64 = iters.iter().map(|it| it.failed).sum();
    for (r, it) in iters.iter().enumerate() {
        errors.extend(it.errors.iter().map(|e| format!("iteration {r}: {e}")));
    }

    let setup_samples: Vec<f64> = iters.iter().map(|it| it.setup_s).collect();
    let units: Vec<&Unit> = iters.iter().flat_map(|it| &it.units).collect();
    let op_us_samples: Vec<f64> = units.iter().map(|u| u.op_us).collect();

    let mut per_layer: BTreeMap<&'static str, f64> =
        spec::PER_LAYER.iter().map(|m| (m.name, 0.0)).collect();
    // Outcome values: means over the fixed iterations.
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for it in fixed {
        for &(name, v) in &it.layer {
            by_name.entry(name).or_default().push(v);
        }
    }
    for (name, vs) in by_name {
        let slot = per_layer
            .get_mut(name)
            .unwrap_or_else(|| panic!("workload reported unknown per-layer metric {name}"));
        *slot = mean(&vs);
    }
    if p.traced {
        fold_totals(&mut per_layer, &totals, units.len(), plan.unclaimed);
    }
    let wall: Vec<f64> = units.iter().map(|u| u.wall_s).collect();
    if let Some(v) = untraced_events_per_s {
        per_layer.insert("netsim.events_per_s", v);
    }
    per_layer.insert("bench.trace_overhead_ratio", overhead);
    per_layer.insert("wall_s", median(&wall));
    per_layer.insert("bench.units", units.len() as f64);
    per_layer.insert(
        "bench.ops_per_unit",
        mean(&units.iter().map(|u| u.ops as f64).collect::<Vec<_>>()),
    );

    let sim_digest = fixed
        .iter()
        .map(|it| it.digest)
        .collect::<Option<Vec<u64>>>()
        .map(|ds| {
            let mut all = Fnv::default();
            ds.into_iter().for_each(|d| all.u64(d));
            all.0
        });

    let peak_rss_mb = iters
        .iter()
        .filter_map(|it| it.peak_rss_mb)
        .reduce(f64::max)
        .unwrap_or_else(self_peak_rss_mb);
    let end_to_end = vec![
        (spec::OP_US_P10, percentile(&op_us_samples, 10.0)),
        (
            spec::DELIVERY_RATIO,
            if ops > 0 { ok as f64 / ops as f64 } else { 0.0 },
        ),
        (spec::PEAK_RSS_MB, peak_rss_mb),
        (spec::SETUP_S, median(&setup_samples)),
    ];
    Ok(Outcome {
        correct: errors.is_empty() && failed == 0,
        attempted: attempted.max(1),
        failed,
        end_to_end,
        per_layer,
        sim_digest,
        errors,
        setup_samples,
        op_us_samples,
    })
}

/// Turn the exclusive-time totals of `n` traced units into the per-layer
/// timing metrics: counts and busy seconds are per-unit means, the
/// per-call figures are totals over totals.
fn fold_totals(out: &mut BTreeMap<&'static str, f64>, t: &Totals, n: usize, unclaimed: &str) {
    let n = n.max(1) as f64;
    let per_call = |secs: f64, calls: u64| {
        if calls > 0 {
            secs * 1e9 / calls as f64
        } else {
            0.0
        }
    };
    // Engine time per event and the row build time need counts the
    // workload reported; those were folded in before this call.
    let events = out["netsim.engine_events"];
    let misses = out["topology.row_misses"];
    let mut set = |name: &str, v: f64| {
        *out.get_mut(name).expect("known per-layer metric") = v;
    };
    let u = (t.calls[trace::UNDERLAY], t.secs(trace::UNDERLAY));
    set("netsim.underlay_calls", u.0 as f64 / n);
    set("netsim.underlay_busy_s", u.1 / n);
    set("netsim.underlay_ns_per_call", per_call(u.1, u.0));
    set(unclaimed, t.secs(trace::ENGINE) / n);
    let d = (t.calls[trace::DATA], t.secs(trace::DATA));
    set("overlay.data_calls", d.0 as f64 / n);
    set("overlay.data_busy_s", d.1 / n);
    set("overlay.data_ns_per_call", per_call(d.1, d.0));
    let msgs = t.sum(trace::MSG0..trace::NKEYS);
    set(
        "overlay.ctrl_calls",
        (msgs.0 + t.calls[trace::LEAVE_CMD]) as f64 / n,
    );
    set(
        "overlay.ctrl_busy_s",
        (msgs.1 + t.secs(trace::LEAVE_CMD)) / n,
    );
    set("overlay.timer_calls", t.calls[trace::TIMER] as f64 / n);
    set("overlay.timer_busy_s", t.secs(trace::TIMER) / n);
    set("overlay.join_cmd_busy_s", t.secs(trace::JOIN_CMD) / n);
    for (i, kind) in spec::MSG_KINDS.iter().enumerate() {
        let key = trace::MSG0 + i;
        set(
            &format!("overlay.msg_{kind}_calls"),
            t.calls[key] as f64 / n,
        );
        set(&format!("overlay.msg_{kind}_busy_s"), t.secs(key) / n);
    }
    if events > 0.0 {
        set(
            "netsim.engine_ns_per_event",
            t.secs(trace::ENGINE) / n * 1e9 / events,
        );
    }
    if misses > 0.0 {
        set("topology.row_build_us", u.1 / n * 1e6 / misses);
    }
}

/// Run the workload `p` names.
pub fn run(p: &Params) -> Result<Outcome, String> {
    match p.workload.as_str() {
        spec::CH3_CHURN => sessions::ch3_churn(p),
        spec::SOAK_RESILIENT => sessions::soak_resilient(p),
        spec::STREAM_FANOUT => sessions::stream_fanout(p),
        spec::JOIN_ONDEMAND => joins::join_ondemand(p),
        spec::JOIN_GUIDED => joins::join_guided(p),
        spec::NODE_RELAY => relay::node_relay(p),
        other => Err(format!("unknown workload {other:?}")),
    }
}
