//! `vdm-repro` — regenerate every table and figure of the paper's
//! evaluation.
//!
//! ```text
//! vdm-repro <family> [--quick|--paper] [--seed N] [--csv DIR]
//!                    [--cache DIR|--no-cache] [--sequential]
//! vdm-repro bench [--quick] [--smoke] [--seed N] [--csv DIR]
//! vdm-repro scale [--quick|--paper] [--smoke] [--shards N] [--seed N] [--csv DIR]
//! vdm-repro trace <family> [--quick|--paper] [--seed N] [--out DIR]
//!                          [--csv DIR] [--cache DIR|--no-cache]
//! vdm-repro trace filter    --input FILE [--host N] [--kind K]
//!                           [--t0 SECS] [--t1 SECS]
//! vdm-repro trace summarize --input FILE
//! vdm-repro trace dump      --input FILE [--limit N]
//!
//! families:
//!   fig3-churn    Figs 3.25–3.28  stress/stretch/loss/overhead vs churn (VDM vs HMTP)
//!   fig3-nodes    Figs 3.29–3.32  the same vs number of nodes
//!   fig3-degree   Figs 3.33–3.36  the same vs average node degree
//!   fig4-metric   Figs 4.6–4.9    VDM-D vs VDM-L over time
//!   fig5-tree     Figs 5.5/5.6    sample trees (ASCII + DOT)
//!   fig5-churn    Figs 5.7–5.13   PlanetLab metrics vs churn (VDM vs HMTP)
//!   fig5-nodes    Figs 5.14–5.20  PlanetLab metrics vs number of nodes
//!   fig5-degree   Figs 5.21–5.27  PlanetLab metrics vs node degree
//!   fig5-refine   Figs 5.28–5.30  refinement component (VDM vs VDM-R)
//!   fig5-mst      Fig 5.31        ratio to the MST
//!   complexity    Eq 3.3          contacted peers per join vs N
//!   ablation      extra           slack sweep, reconnection anchor
//!   chaos         extra (A7)      seeded fault injection: recovery, VDM vs HMTP
//!   soak          extra (A8)      sustained churn: proactive resilience on/off
//!   all           everything above
//!
//! `scale` (A9) is separate from `all` like `bench`: it joins N members
//! (up to 20k with --paper) under VDM, coordinate-guided VDM and HMTP
//! over power-law underlays routed by the memory-bounded on-demand
//! router — no O(n^2) matrix — and writes `BENCH_scale.json` (per-N
//! wall-clock, walk contacts vs the n·log N prediction, resident-row
//! peak). `--smoke` runs tiny sizes sequentially for CI gating.
//! `--shards N` (A12) additionally
//! sweeps the sharded engine from 1 to N shards over one shard-aware
//! power-law underlay — up to 100k members with `--paper` — and writes
//! `BENCH_shard.json`; the run fails unless the S = 1 run is
//! byte-identical to the plain engine and delivery fingerprints agree
//! across shard counts.
//!
//! `multitree` (A10) is likewise separate: it stripes the stream over
//! k ∈ {1..4} decorrelated trees, crashes interior nodes and replays
//! the A7 combined fault cocktail, and writes `BENCH_multitree.json`.
//! The run fails if the k = 1 session is not byte-identical to the
//! single-tree driver; `--smoke` runs a tiny grid sequentially for CI.
//!
//! `bootstrap` (A11) is likewise separate: joiners start from a
//! k-entry bootstrap set (gossip discovery instead of a known source
//! address) and a flash crowd lands on it under staleness and seed
//! churn; writes `BENCH_bootstrap.json`. The run fails on any
//! structural invariant violation; `--smoke` runs the k = 3 / 30 %
//! stale / 50 % seed-churn acceptance cell sequentially for CI.
//! ```
//!
//! Runs fan their simulation cells across a thread pool
//! (`RAYON_NUM_THREADS` controls the width; `--sequential` or
//! `VDM_SEQUENTIAL=1` forces the reference in-order path) and merge
//! results in cell-key order, so output is byte-identical either way.
//! Expensive pure inputs — generated topologies with their routing
//! tables, PlanetLab session extracts — are memoized in a
//! content-addressed artifact cache (default `results/cache`, `--cache
//! DIR` to move it, `--no-cache` to disable); identical seeds produce
//! byte-identical output whether artifacts hit or miss.
//!
//! `bench` times the runner itself: the A7 chaos grid sequential vs
//! parallel (asserting the CSVs match byte-for-byte) and a topology
//! build cold vs warm through a throwaway cache, then writes
//! `BENCH_runner.json` next to the CSVs.
//!
//! `trace <family>` re-runs a family with the structured tracer and
//! wall-clock profiler on (sequentially, so the event log is in
//! deterministic order), writing `trace_<family>.jsonl`,
//! `profile_<family>.json` (load in chrome://tracing or Perfetto) and
//! `metrics_<family>.json` under `--out` (default `results/trace`).
//! `trace filter/summarize/dump` then query the event log — e.g. every
//! event touching host 17 between t=100s and t=130s:
//! `vdm-repro trace filter --input F --host 17 --t0 100 --t1 130`.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use vdm_experiments::figures::{
    ablation, bootstrap, chaos, compare, complexity, fig3, fig4, fig5, multitree, scale, shard,
    soak,
};
use vdm_experiments::{runner, setup, Effort, Table};
use vdm_topology::cache;
use vdm_trace::json::Value;
use vdm_trace::{EventSink, JsonlSink, Tracer};

struct Opts {
    effort: Effort,
    seed: u64,
    csv_dir: Option<String>,
}

/// Wrap an I/O error with enough context ("what file, doing what") that
/// a read-only `results/` fails with an actionable message instead of a
/// panic backtrace.
fn io_ctx(what: impl std::fmt::Display) -> impl FnOnce(io::Error) -> io::Error {
    move |e| io::Error::new(e.kind(), format!("{what}: {e}"))
}

fn emit(tables: &[Table], opts: &Opts) -> io::Result<()> {
    let mut stdout = io::stdout().lock();
    for t in tables {
        writeln!(stdout, "{}", t.render()).map_err(io_ctx("writing to stdout"))?;
        if let Some(dir) = &opts.csv_dir {
            std::fs::create_dir_all(dir)
                .map_err(io_ctx(format!("creating CSV directory `{dir}`")))?;
            let path = format!("{dir}/{}.csv", t.slug());
            std::fs::write(&path, t.to_csv()).map_err(io_ctx(format!("writing CSV `{path}`")))?;
            writeln!(stdout, "  [csv] {path}").map_err(io_ctx("writing to stdout"))?;
        }
    }
    Ok(())
}

/// Print the runner/cache counter deltas accumulated since `r0`/`c0`.
fn print_counters(r0: runner::RunnerStats, c0: cache::CacheStats) {
    let r = runner::stats();
    let c = cache::stats();
    println!(
        "[runner] cells={} batches={} busy={:.1?}  [cache] hits={} misses={} write_errors={}",
        r.cells - r0.cells,
        r.batches - r0.batches,
        r.busy.saturating_sub(r0.busy),
        c.hits - c0.hits,
        c.misses - c0.misses,
        c.write_errors - c0.write_errors,
    );
}

fn run_family(name: &str, opts: &Opts) -> io::Result<bool> {
    let t0 = Instant::now();
    let (r0, c0) = (runner::stats(), cache::stats());
    let (e, s) = (opts.effort, opts.seed);
    let tables: Vec<Table> = match name {
        "fig3-churn" => fig3::churn_family(e, s),
        "fig3-nodes" => fig3::nodes_family(e, s),
        "fig3-degree" => fig3::degree_family(e, s),
        "fig4-metric" => fig4::metric_family(e, s),
        "fig5-churn" => fig5::churn_family(e, s),
        "fig5-nodes" => fig5::nodes_family(e, s),
        "fig5-degree" => fig5::degree_family(e, s),
        "fig5-refine" => fig5::refine_family(e, s),
        "fig5-mst" => fig5::mst_family(e, s),
        "complexity" => complexity::join_complexity(e, s),
        "compare" => compare::ch3_compare(e, 5.0, s),
        "chaos" => chaos::chaos_recovery(e, s),
        "soak" => soak::soak_resilience(e, s),
        // Reachable from `trace bootstrap` only: the `bootstrap`
        // subcommand proper goes through `run_bootstrap` for the JSON
        // report and its invariant gate.
        "bootstrap" => bootstrap::bootstrap_family(e, s).tables,
        "ablation" => {
            let mut t = ablation::slack_sweep(e, s);
            t.extend(ablation::reconnect_anchor(e, s));
            t.extend(ablation::crash_churn(e, s));
            t.extend(ablation::topology_sensitivity(e, s));
            t.extend(ablation::heterogeneity(e, s));
            t.extend(ablation::congestion(e, s));
            t
        }
        "fig5-tree" => {
            println!("{}", fig5::sample_trees(s));
            println!("[done fig5-tree in {:.1?}]", t0.elapsed());
            return Ok(true);
        }
        _ => return Ok(false),
    };
    emit(&tables, opts)?;
    print_counters(r0, c0);
    println!("[done {name} in {:.1?}]", t0.elapsed());
    Ok(true)
}

/// All tables of a family as one CSV blob, for byte-equality checks.
fn csv_blob(tables: &[Table]) -> String {
    tables
        .iter()
        .map(Table::to_csv)
        .collect::<Vec<_>>()
        .join("\n")
}

/// `vdm-repro bench`: time the chaos grid sequential vs parallel and a
/// topology build cold vs warm, emit `BENCH_runner.json`.
fn run_bench(opts: &Opts, smoke: bool) -> io::Result<()> {
    let effort = if smoke { Effort::Quick } else { opts.effort };
    let seed = opts.seed;
    let threads = rayon::current_num_threads();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Sequential vs parallel on the same grid. No artifact cache here:
    // a warm cache on the second run would skew the comparison.
    cache::set_global(None);
    let r0 = runner::stats();
    let t0 = Instant::now();
    let seq = runner::with_mode(runner::ExecMode::Sequential, || {
        chaos::chaos_recovery(effort, seed)
    });
    let seq_ms = t0.elapsed().as_secs_f64() * 1e3;
    let cells = runner::stats().cells - r0.cells;
    let t1 = Instant::now();
    let par = runner::with_mode(runner::ExecMode::Parallel, || {
        chaos::chaos_recovery(effort, seed)
    });
    let par_ms = t1.elapsed().as_secs_f64() * 1e3;
    let csv_identical = csv_blob(&seq) == csv_blob(&par);

    // Cold vs warm topology build through a throwaway cache directory.
    let bench_dir = std::env::temp_dir().join(format!("vdm-bench-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&bench_dir);
    cache::set_global(Some(cache::CacheStore::at(&bench_dir)));
    let c0 = cache::stats();
    let members = if smoke { 25 } else { effort.ch3_members() };
    let topo_seed = seed ^ 0xbe;
    let t2 = Instant::now();
    let cold = setup::ch3_setup(members, 0.0, topo_seed);
    let topo_cold_ms = t2.elapsed().as_secs_f64() * 1e3;
    let t3 = Instant::now();
    let warm = setup::ch3_setup(members, 0.0, topo_seed);
    let topo_warm_ms = t3.elapsed().as_secs_f64() * 1e3;
    let cache_delta = {
        let c = cache::stats();
        (c.hits - c0.hits, c.misses - c0.misses)
    };
    let artifacts_identical = warm.underlay.graph().to_bytes() == cold.underlay.graph().to_bytes();
    cache::set_global(None);
    let _ = std::fs::remove_dir_all(&bench_dir);

    let speedup = |slow: f64, fast: f64| if fast > 0.0 { slow / fast } else { 0.0 };
    let json = format!(
        "{{\n  \"bench\": \"runner\",\n  \"smoke\": {smoke},\n  \"effort\": \"{effort:?}\",\n  \
         \"seed\": {seed},\n  \"threads\": {threads},\n  \"cores\": {cores},\n  \
         \"workload\": \"chaos_recovery\",\n  \"cells\": {cells},\n  \
         \"seq_ms\": {seq_ms:.2},\n  \"par_ms\": {par_ms:.2},\n  \
         \"parallel_speedup\": {:.3},\n  \"csv_identical\": {csv_identical},\n  \
         \"topo_members\": {members},\n  \"topo_cold_ms\": {topo_cold_ms:.2},\n  \
         \"topo_warm_ms\": {topo_warm_ms:.2},\n  \"cache_speedup\": {:.3},\n  \
         \"cache_hits\": {},\n  \"cache_misses\": {},\n  \
         \"artifacts_identical\": {artifacts_identical}\n}}\n",
        speedup(seq_ms, par_ms),
        speedup(topo_cold_ms, topo_warm_ms),
        cache_delta.0,
        cache_delta.1,
    );
    let dir = opts.csv_dir.clone().unwrap_or_else(|| "results".into());
    std::fs::create_dir_all(&dir).map_err(io_ctx(format!("creating bench directory `{dir}`")))?;
    let path = format!("{dir}/BENCH_runner.json");
    std::fs::write(&path, &json).map_err(io_ctx(format!("writing bench report `{path}`")))?;
    print!("{json}");
    println!("  [json] {path}");
    if !csv_identical {
        return Err(io::Error::other(
            "parallel chaos CSVs differ from sequential — runner determinism broken",
        ));
    }
    Ok(())
}

/// `vdm-repro scale` (A9): join up to 20k members under VDM,
/// coordinate-guided VDM and HMTP over on-demand-routed power-law
/// underlays, emit `BENCH_scale.json`; fails when the guided series
/// regresses stretch or routing-row misses against plain VDM.
/// With `--shards N` (A12), also sweep the sharded engine up to `N`
/// shards over one shard-aware underlay and emit `BENCH_shard.json`;
/// outside smoke mode `--shards` runs *only* the sharded bench (the
/// plain A9 sweep at 100k would take hours on the single heap — the
/// point of A12 is not paying that).
fn run_scale(opts: &Opts, smoke: bool, shards: Option<usize>) -> io::Result<()> {
    if smoke {
        // Tiny and sequential: the CI gate only checks that the report
        // is produced, parses, and has the right shape.
        std::env::set_var("VDM_SEQUENTIAL", "1");
    }
    let seed = opts.seed;
    if smoke || shards.is_none() {
        let t0 = Instant::now();
        let report = if smoke {
            scale::scale_family_with_sizes(&[64, 128], seed)
        } else {
            scale::scale_family(opts.effort, seed)
        };
        emit(&report.tables, opts)?;
        let json = report.to_json(smoke, seed);
        let dir = opts.csv_dir.clone().unwrap_or_else(|| "results".into());
        std::fs::create_dir_all(&dir)
            .map_err(io_ctx(format!("creating scale directory `{dir}`")))?;
        let path = format!("{dir}/BENCH_scale.json");
        std::fs::write(&path, &json).map_err(io_ctx(format!("writing scale report `{path}`")))?;
        println!("  [json] {path}");
        // Coordinate-guided joins must cut contacts without degrading the
        // tree where the knee lives: fail the run when the guided series
        // costs more than 2% stretch over plain VDM at the largest
        // population in the sweep (at toy sizes guided deliberately trades
        // a small stretch premium for its contact savings — you would not
        // enable guidance there, and the async stack ships it default-off).
        if let [.., vdm, guided, _] = report.points.as_slice() {
            assert_eq!((vdm.protocol, guided.protocol), ("vdm", "vdm_guided"));
            if vdm.n >= 5000 && guided.stretch_mean > vdm.stretch_mean * 1.02 {
                return Err(io::Error::other(format!(
                    "guided stretch regression at N={}: {:.4} vs plain {:.4}",
                    vdm.n, guided.stretch_mean, vdm.stretch_mean
                )));
            }
            // Both sweeps ask the oracle about the joining host only, so
            // each builds one routing row per host at any LRU capacity; a
            // guided sweep that needs more has gone back to reads that
            // thrash the LRU (8x the wall at N=10k when it last did).
            if guided.row_misses > vdm.row_misses {
                return Err(io::Error::other(format!(
                    "guided row-miss regression at N={}: {} vs plain {}",
                    vdm.n, guided.row_misses, vdm.row_misses
                )));
            }
        }
        println!("[done scale in {:.1?}]", t0.elapsed());
    }
    let Some(max_shards) = shards else {
        return Ok(());
    };
    let t0 = Instant::now();
    let report = if smoke {
        shard::shard_family_smoke(max_shards, seed)
    } else {
        shard::shard_family(
            shard::shard_size(opts.effort),
            max_shards,
            shard::shard_chunks(opts.effort),
            seed,
        )
    };
    emit(&report.tables, opts)?;
    let json = report.to_json(smoke, seed);
    let dir = opts.csv_dir.clone().unwrap_or_else(|| "results".into());
    std::fs::create_dir_all(&dir).map_err(io_ctx(format!("creating shard directory `{dir}`")))?;
    let path = format!("{dir}/BENCH_shard.json");
    std::fs::write(&path, &json).map_err(io_ctx(format!("writing shard report `{path}`")))?;
    println!("  [json] {path}");
    println!("[done shard in {:.1?}]", t0.elapsed());
    if !report.s1_identical {
        return Err(io::Error::other(
            "S=1 sharded run diverged from the plain engine — delegation broken",
        ));
    }
    if !report.fingerprints_match {
        return Err(io::Error::other(
            "delivery fingerprints diverged across shard counts — barrier merge broken",
        ));
    }
    Ok(())
}

/// `vdm-repro multitree` (A10): stripe the stream over `k` decorrelated
/// trees, crash interiors and run the combined fault cocktail, emit
/// `BENCH_multitree.json`. Fails when the `k = 1` session diverges from
/// the single-tree driver.
fn run_multitree(opts: &Opts, smoke: bool) -> io::Result<()> {
    if smoke {
        // Tiny and sequential: the CI gate checks that the report is
        // produced, parses, and that k = 1 stayed byte-identical.
        std::env::set_var("VDM_SEQUENTIAL", "1");
    }
    let seed = opts.seed;
    let t0 = Instant::now();
    let report = if smoke {
        multitree::multitree_family_smoke(seed)
    } else {
        multitree::multitree_family(opts.effort, seed)
    };
    emit(&report.tables, opts)?;
    let json = report.to_json(smoke, seed);
    let dir = opts.csv_dir.clone().unwrap_or_else(|| "results".into());
    std::fs::create_dir_all(&dir)
        .map_err(io_ctx(format!("creating multitree directory `{dir}`")))?;
    let path = format!("{dir}/BENCH_multitree.json");
    std::fs::write(&path, &json).map_err(io_ctx(format!("writing multitree report `{path}`")))?;
    println!("  [json] {path}");
    println!("[done multitree in {:.1?}]", t0.elapsed());
    if !report.k1_identical {
        return Err(io::Error::other(
            "k=1 multitree session diverged from the single-tree driver — delegation broken",
        ));
    }
    Ok(())
}

/// `vdm-repro bootstrap` (A11): flash-crowd joins from a k-entry
/// bootstrap set under staleness and seed churn, VDM vs HMTP, emit
/// `BENCH_bootstrap.json`. Fails on any structural invariant violation
/// and, in smoke mode, when no joiner ever anchored via discovery.
fn run_bootstrap(opts: &Opts, smoke: bool) -> io::Result<()> {
    if smoke {
        // Tiny and sequential: the CI gate checks that the report is
        // produced, parses, and carries zero invariant violations.
        std::env::set_var("VDM_SEQUENTIAL", "1");
    }
    let seed = opts.seed;
    let t0 = Instant::now();
    let report = if smoke {
        bootstrap::bootstrap_family_smoke(seed)
    } else {
        bootstrap::bootstrap_family(opts.effort, seed)
    };
    emit(&report.tables, opts)?;
    let json = report.to_json(smoke, seed);
    let dir = opts.csv_dir.clone().unwrap_or_else(|| "results".into());
    std::fs::create_dir_all(&dir)
        .map_err(io_ctx(format!("creating bootstrap directory `{dir}`")))?;
    let path = format!("{dir}/BENCH_bootstrap.json");
    std::fs::write(&path, &json).map_err(io_ctx(format!("writing bootstrap report `{path}`")))?;
    println!("  [json] {path}");
    println!("[done bootstrap in {:.1?}]", t0.elapsed());
    if report.total_violations > 0 {
        return Err(io::Error::other(format!(
            "{} structural invariant violations under the flash crowd — discovery broke the tree",
            report.total_violations
        )));
    }
    if smoke && !report.anchor_median_s.is_finite() {
        return Err(io::Error::other(
            "no joiner anchored via discovery in the smoke cell — bootstrap path dead",
        ));
    }
    Ok(())
}

/// `vdm-repro trace <family>`: run a family with the structured tracer
/// and profiler on, then write the event log, chrome trace and metrics
/// snapshot. Exits the process (non-zero on any failure).
fn trace_run(family: &str, args: &[String]) -> ! {
    let mut opts = Opts {
        effort: Effort::Default,
        seed: 42,
        csv_dir: None,
    };
    let mut out_dir = String::from("results/trace");
    let mut cache_dir: Option<String> = None;
    let mut no_cache = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => opts.effort = Effort::Quick,
            "--paper" => opts.effort = Effort::Paper,
            "--no-cache" => no_cache = true,
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => opts.seed = v,
                None => {
                    eprintln!("error: --seed needs an integer");
                    std::process::exit(2);
                }
            },
            "--out" => match it.next() {
                Some(dir) => out_dir = dir.clone(),
                None => {
                    eprintln!("error: --out needs a directory");
                    std::process::exit(2);
                }
            },
            "--csv" => match it.next() {
                Some(dir) => opts.csv_dir = Some(dir.clone()),
                None => {
                    eprintln!("error: --csv needs a directory");
                    std::process::exit(2);
                }
            },
            "--cache" => match it.next() {
                Some(dir) => cache_dir = Some(dir.clone()),
                None => {
                    eprintln!("error: --cache needs a directory");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("unknown argument: {other}");
                print_usage();
                std::process::exit(2);
            }
        }
    }
    if (!ALL.contains(&family) && family != "bootstrap") || family == "fig5-tree" {
        eprintln!("unknown or untraceable family: {family}");
        print_usage();
        std::process::exit(2);
    }
    if no_cache {
        if cache_dir.is_some() {
            eprintln!("error: --cache and --no-cache are mutually exclusive");
            std::process::exit(2);
        }
    } else {
        let dir = cache_dir.unwrap_or_else(|| "results/cache".into());
        cache::set_global(Some(cache::CacheStore::at(dir)));
    }
    // Sequential execution: with parallel cells the shared JSONL sink
    // would interleave events in completion order, making the log
    // nondeterministic. The *results* are order-independent either
    // way; the event log is not.
    std::env::set_var("VDM_SEQUENTIAL", "1");

    let fail = |e: io::Error| -> ! {
        eprintln!("error: {e}");
        std::process::exit(1);
    };
    if let Err(e) =
        std::fs::create_dir_all(&out_dir).map_err(io_ctx(format!("creating `{out_dir}`")))
    {
        fail(e);
    }
    let trace_path = format!("{out_dir}/trace_{family}.jsonl");
    let file = match std::fs::File::create(&trace_path)
        .map_err(io_ctx(format!("creating trace log `{trace_path}`")))
    {
        Ok(f) => f,
        Err(e) => fail(e),
    };
    // Keep a typed handle on the sink so we can read the line count
    // after the run; the global tracer only sees `dyn EventSink`.
    let sink = Arc::new(Mutex::new(JsonlSink::new(io::BufWriter::new(file))));
    vdm_trace::set_global(Tracer::with_sink(sink.clone() as Arc<Mutex<dyn EventSink>>));
    vdm_trace::start_profiling();

    match run_family(family, &opts) {
        Ok(true) => {}
        Ok(false) => unreachable!("family validated against ALL above"),
        Err(e) => fail(e),
    }

    vdm_trace::set_global(Tracer::disabled());
    let events = {
        let mut s = sink.lock().expect("trace sink lock");
        s.flush();
        s.lines
    };
    if events == 0 {
        eprintln!("error: traced run of `{family}` emitted no events — tracer not wired?");
        std::process::exit(1);
    }
    let spans = vdm_trace::stop_profiling();
    let prof_path = format!("{out_dir}/profile_{family}.json");
    let write_profile = || -> io::Result<()> {
        let mut f = std::fs::File::create(&prof_path)
            .map_err(io_ctx(format!("creating profile `{prof_path}`")))?;
        vdm_trace::write_chrome_trace(&mut f, &spans)
            .map_err(io_ctx(format!("writing profile `{prof_path}`")))
    };
    if let Err(e) = write_profile() {
        fail(e);
    }
    let mut m = vdm_trace::MetricsRegistry::new();
    runner::export_metrics(&mut m);
    cache::export_metrics(&mut m);
    vdm_topology::router::export_metrics(&mut m);
    // Per-run overlay counters (discovery probes, anchors, fallbacks)
    // accumulated by the A11 cells; empty for other families.
    bootstrap::export_metrics(&mut m);
    let metrics_path = format!("{out_dir}/metrics_{family}.json");
    if let Err(e) = std::fs::write(&metrics_path, m.to_json())
        .map_err(io_ctx(format!("writing metrics `{metrics_path}`")))
    {
        fail(e);
    }
    println!("[trace] {events} events -> {trace_path}");
    println!("[profile] {} spans -> {prof_path}", spans.len());
    println!("[metrics] -> {metrics_path}");
    std::process::exit(0);
}

/// Parsed `(raw line, flat record)` pairs from a trace log; any
/// malformed line is a hard error.
fn load_trace(path: &str) -> io::Result<Vec<(String, BTreeMap<String, Value>)>> {
    let text =
        std::fs::read_to_string(path).map_err(io_ctx(format!("reading trace log `{path}`")))?;
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match vdm_trace::json::parse_flat_object(line) {
            Some(rec) => out.push((line.to_string(), rec)),
            None => {
                return Err(io::Error::other(format!(
                    "{path}:{}: malformed trace record",
                    i + 1
                )))
            }
        }
    }
    if out.is_empty() {
        return Err(io::Error::other(format!("{path}: no trace events")));
    }
    Ok(out)
}

/// Timestamp of a parsed record, in seconds.
fn rec_t_s(rec: &BTreeMap<String, Value>) -> f64 {
    rec.get("t_us").and_then(Value::as_num).unwrap_or(0.0) / 1e6
}

/// `vdm-repro trace filter|summarize|dump`: query an event log written
/// by `trace <family>`. Exits the process (non-zero on any failure).
fn trace_inspect(mode: &str, args: &[String]) -> ! {
    let mut input: Option<String> = None;
    let mut host: Option<u32> = None;
    let mut kind: Option<String> = None;
    let mut t0: Option<f64> = None;
    let mut t1: Option<f64> = None;
    let mut limit: Option<usize> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut next_parsed = |flag: &str, what: &str| -> String {
            match it.next() {
                Some(v) => v.clone(),
                None => {
                    eprintln!("error: {flag} needs {what}");
                    std::process::exit(2);
                }
            }
        };
        match a.as_str() {
            "--input" => input = Some(next_parsed("--input", "a file")),
            "--host" => match next_parsed("--host", "a host id").parse() {
                Ok(v) => host = Some(v),
                Err(_) => {
                    eprintln!("error: --host needs an integer host id");
                    std::process::exit(2);
                }
            },
            "--kind" => kind = Some(next_parsed("--kind", "an event kind")),
            "--t0" => match next_parsed("--t0", "seconds").parse() {
                Ok(v) => t0 = Some(v),
                Err(_) => {
                    eprintln!("error: --t0 needs seconds");
                    std::process::exit(2);
                }
            },
            "--t1" => match next_parsed("--t1", "seconds").parse() {
                Ok(v) => t1 = Some(v),
                Err(_) => {
                    eprintln!("error: --t1 needs seconds");
                    std::process::exit(2);
                }
            },
            "--limit" => match next_parsed("--limit", "a count").parse() {
                Ok(v) => limit = Some(v),
                Err(_) => {
                    eprintln!("error: --limit needs a count");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("unknown argument: {other}");
                print_usage();
                std::process::exit(2);
            }
        }
    }
    let Some(input) = input else {
        eprintln!("error: trace {mode} needs --input FILE");
        std::process::exit(2);
    };
    let recs = match load_trace(&input) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let total = recs.len();
    let keep = |rec: &BTreeMap<String, Value>| -> bool {
        let t = rec_t_s(rec);
        host.is_none_or(|h| vdm_trace::record_touches_host(rec, h))
            && kind
                .as_deref()
                .is_none_or(|k| rec.get("kind").and_then(Value::as_str) == Some(k))
            && t0.is_none_or(|lo| t >= lo)
            && t1.is_none_or(|hi| t <= hi)
    };
    let mut stdout = io::stdout().lock();
    match mode {
        "filter" => {
            let mut matched = 0usize;
            for (line, rec) in &recs {
                if keep(rec) {
                    matched += 1;
                    let _ = writeln!(stdout, "{line}");
                }
            }
            // Stats go to stderr so stdout stays pure JSONL.
            eprintln!("[filter] matched {matched} of {total} events");
        }
        "dump" => {
            let mut shown = 0usize;
            for (_, rec) in &recs {
                if !keep(rec) {
                    continue;
                }
                if limit.is_some_and(|l| shown >= l) {
                    eprintln!("[dump] truncated at {shown} of {total} events (--limit)");
                    break;
                }
                shown += 1;
                let kind = rec.get("kind").and_then(Value::as_str).unwrap_or("?");
                let mut line = format!("t={:>10.6}s  {kind:<20}", rec_t_s(rec));
                for (k, v) in rec {
                    if k == "t_us" || k == "kind" {
                        continue;
                    }
                    match v {
                        Value::Str(s) => line.push_str(&format!(" {k}={s}")),
                        Value::Bool(b) => line.push_str(&format!(" {k}={b}")),
                        Value::Num(n) if n.fract() == 0.0 && n.abs() < 1e15 => {
                            line.push_str(&format!(" {k}={n:.0}"));
                        }
                        Value::Num(n) => line.push_str(&format!(" {k}={n}")),
                    }
                }
                let _ = writeln!(stdout, "{line}");
            }
        }
        "summarize" => {
            let mut by_kind: BTreeMap<&str, usize> = BTreeMap::new();
            let mut hosts = std::collections::BTreeSet::new();
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            let mut kept = 0usize;
            for (_, rec) in &recs {
                if !keep(rec) {
                    continue;
                }
                kept += 1;
                *by_kind
                    .entry(rec.get("kind").and_then(Value::as_str).unwrap_or("?"))
                    .or_default() += 1;
                let t = rec_t_s(rec);
                (lo, hi) = (lo.min(t), hi.max(t));
                for f in vdm_trace::HOST_FIELDS {
                    if let Some(h) = rec.get(*f).and_then(Value::as_num) {
                        hosts.insert(h as u64);
                    }
                }
            }
            let span = if kept == 0 {
                "t=-".to_string()
            } else {
                format!("t={lo:.3}s..{hi:.3}s")
            };
            let _ = writeln!(
                stdout,
                "{input}: {kept} events ({total} total), {span}, {} hosts",
                hosts.len()
            );
            for (k, n) in &by_kind {
                let _ = writeln!(stdout, "  {k:<22} {n:>8}");
            }
        }
        _ => unreachable!("mode validated by caller"),
    }
    std::process::exit(0);
}

const ALL: &[&str] = &[
    "fig3-churn",
    "fig3-nodes",
    "fig3-degree",
    "fig4-metric",
    "fig5-tree",
    "fig5-churn",
    "fig5-nodes",
    "fig5-degree",
    "fig5-refine",
    "fig5-mst",
    "complexity",
    "ablation",
    "chaos",
    "soak",
    "compare",
];

/// `vdm-repro loopback`: spawn a fleet of real `vdm-node` daemons on
/// 127.0.0.1, stream a session through the UDP overlay, and gate the
/// aggregated stats against an in-process simulator run of the same
/// scenario (see `vdm_experiments::loopback`). Emits
/// `BENCH_loopback.json`; any gate failure exits non-zero.
fn run_loopback(args: &[String]) -> io::Result<()> {
    use vdm_experiments::loopback;
    let mut cfg = loopback::LoopbackConfig::full();
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => {
                smoke = true;
                let keep = (cfg.node_bin.clone(), cfg.out_dir.clone(), cfg.seed);
                cfg = loopback::LoopbackConfig::smoke();
                (cfg.node_bin, cfg.out_dir, cfg.seed) = keep;
            }
            "--nodes" => {
                cfg.nodes = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 2)
                    .ok_or_else(|| io::Error::other("--nodes needs an integer >= 2"))?;
            }
            "--seed" => {
                cfg.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| io::Error::other("--seed needs an integer"))?;
            }
            "--node-bin" => {
                cfg.node_bin = Some(
                    it.next()
                        .ok_or_else(|| io::Error::other("--node-bin needs a path"))?
                        .clone(),
                );
            }
            "--csv" => {
                cfg.out_dir = it
                    .next()
                    .ok_or_else(|| io::Error::other("--csv needs a directory"))?
                    .clone();
            }
            other => {
                return Err(io::Error::other(format!(
                    "unknown loopback argument: {other}"
                )));
            }
        }
    }
    let t0 = Instant::now();
    let report = loopback::run(&cfg)?;
    let json = report.to_json(smoke, cfg.seed);
    std::fs::create_dir_all(&cfg.out_dir).map_err(io_ctx(format!(
        "creating loopback directory `{}`",
        cfg.out_dir
    )))?;
    let path = format!("{}/BENCH_loopback.json", cfg.out_dir);
    std::fs::write(&path, &json).map_err(io_ctx(format!("writing loopback report `{path}`")))?;
    println!("  [json] {path}");
    println!(
        "  [loopback] {} nodes: delivery daemon {:.4} vs sim {:.4}, joins {}/{}, \
         reconnects {} (sim {}), violations {}",
        report.nodes,
        report.daemon_delivery,
        report.sim_delivery,
        report.daemon_joins,
        report.nodes - 1,
        report.daemon_reconnects,
        report.sim_reconnects,
        report.daemon_violations,
    );
    println!("[done loopback in {:.1?}]", t0.elapsed());
    if !report.failures.is_empty() {
        return Err(io::Error::other(format!(
            "loopback gates failed: {}",
            report.failures.join("; ")
        )));
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `loopback` owns its own argument grammar (fleet controls).
    if args.first().is_some_and(|a| a == "loopback") {
        if let Err(e) = run_loopback(&args[1..]) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
        return;
    }
    // `trace` owns its own argument grammar (run vs inspect modes).
    if args.first().is_some_and(|a| a == "trace") {
        match args.get(1).map(String::as_str) {
            Some(mode @ ("filter" | "summarize" | "dump")) => trace_inspect(mode, &args[2..]),
            Some(family) if !family.starts_with('-') => trace_run(family, &args[2..]),
            _ => {
                eprintln!("error: `trace` needs a family or filter|summarize|dump");
                print_usage();
                std::process::exit(2);
            }
        }
    }
    let mut family: Option<String> = None;
    let mut opts = Opts {
        effort: Effort::Default,
        seed: 42,
        csv_dir: None,
    };
    let mut cache_dir: Option<String> = None;
    let mut no_cache = false;
    let mut sequential = false;
    let mut smoke = false;
    let mut shards: Option<usize> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => opts.effort = Effort::Quick,
            "--paper" => opts.effort = Effort::Paper,
            "--sequential" => sequential = true,
            "--no-cache" => no_cache = true,
            "--smoke" => smoke = true,
            "--seed" => {
                opts.seed = match it.next().and_then(|v| v.parse().ok()) {
                    Some(v) => v,
                    None => {
                        eprintln!("error: --seed needs an integer");
                        std::process::exit(2);
                    }
                };
            }
            "--shards" => {
                shards = match it.next().and_then(|v| v.parse().ok()) {
                    Some(v) if v >= 1 => Some(v),
                    _ => {
                        eprintln!("error: --shards needs a positive integer");
                        std::process::exit(2);
                    }
                };
            }
            "--csv" => {
                let Some(dir) = it.next() else {
                    eprintln!("error: --csv needs a directory");
                    std::process::exit(2);
                };
                opts.csv_dir = Some(dir.clone());
            }
            "--cache" => {
                let Some(dir) = it.next() else {
                    eprintln!("error: --cache needs a directory");
                    std::process::exit(2);
                };
                cache_dir = Some(dir.clone());
            }
            "--help" | "-h" => {
                print_usage();
                return;
            }
            other if family.is_none() && !other.starts_with('-') => {
                family = Some(other.to_string());
            }
            other => {
                eprintln!("unknown argument: {other}");
                print_usage();
                std::process::exit(2);
            }
        }
    }
    let Some(family) = family else {
        eprintln!("error: missing <family>");
        print_usage();
        std::process::exit(2);
    };
    if sequential {
        // The thread-local override only covers this (main) thread, so
        // use the process-wide env hook instead; it is read per fan-out.
        std::env::set_var("VDM_SEQUENTIAL", "1");
    }
    if family == "bench" {
        // `bench` manages its own cache stores (cold/warm comparisons).
        if let Err(e) = run_bench(&opts, smoke) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
        return;
    }
    if smoke && family != "scale" && family != "multitree" && family != "bootstrap" {
        eprintln!("error: --smoke only applies to `bench`, `scale`, `multitree` and `bootstrap`");
        std::process::exit(2);
    }
    if shards.is_some() && family != "scale" {
        eprintln!("error: --shards only applies to `scale`");
        std::process::exit(2);
    }
    // The chaos and soak families always leave a CSV audit trail (their
    // whole point is reproducible recovery numbers).
    if (family == "chaos" || family == "soak") && opts.csv_dir.is_none() {
        opts.csv_dir = Some("results".into());
    }
    if !no_cache {
        let dir = cache_dir.unwrap_or_else(|| "results/cache".into());
        cache::set_global(Some(cache::CacheStore::at(dir)));
    } else if cache_dir.is_some() {
        eprintln!("error: --cache and --no-cache are mutually exclusive");
        std::process::exit(2);
    }
    if family == "scale" {
        // A9 sizes its own underlays; small ones persist routing rows
        // through the cache installed above, large ones stay in-memory.
        if let Err(e) = run_scale(&opts, smoke, shards) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
        return;
    }
    if family == "multitree" {
        if let Err(e) = run_multitree(&opts, smoke) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
        return;
    }
    if family == "bootstrap" {
        if let Err(e) = run_bootstrap(&opts, smoke) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
        return;
    }
    let run = |name: &str| -> bool {
        match run_family(name, &opts) {
            Ok(known) => known,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    };
    if family == "all" {
        for f in ALL {
            assert!(run(f));
        }
        return;
    }
    if !run(&family) {
        eprintln!("unknown family: {family}");
        print_usage();
        std::process::exit(2);
    }
}

fn print_usage() {
    println!(
        "usage: vdm-repro <family> [--quick|--paper] [--seed N] [--csv DIR]\n\
         \x20                  [--cache DIR|--no-cache] [--sequential]\n\
         \x20      vdm-repro bench [--quick] [--smoke] [--seed N] [--csv DIR]\n\
         \x20      vdm-repro scale [--quick|--paper] [--smoke] [--shards N] [--seed N] [--csv DIR]\n\
         \x20      vdm-repro multitree [--quick|--paper] [--smoke] [--seed N] [--csv DIR]\n\
         \x20      vdm-repro bootstrap [--quick|--paper] [--smoke] [--seed N] [--csv DIR]\n\
         \x20      vdm-repro loopback [--smoke] [--nodes N] [--seed N] [--node-bin PATH] [--csv DIR]\n\
         \x20      vdm-repro trace <family> [--quick|--paper] [--seed N] [--out DIR]\n\
         \x20                  [--csv DIR] [--cache DIR|--no-cache]\n\
         \x20      vdm-repro trace filter|summarize|dump --input FILE\n\
         \x20                  [--host N] [--kind K] [--t0 S] [--t1 S] [--limit N]\n\n\
         families: {}  all",
        ALL.join("  ")
    );
}
