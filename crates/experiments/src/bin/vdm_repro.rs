//! `vdm-repro` — regenerate every table and figure of the paper's
//! evaluation.
//!
//! `vdm-repro --help` prints the command grammar.
//!
//! ```text
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
//! ```
//!
//! `scale` (A9; A12 with `--shards N`, which outside smoke mode runs
//! *only* the sharded sweep — the plain one at 100k would take hours on
//! the single heap), `multitree` (A10), `bootstrap` (A11) and `loopback`
//! (a fleet of real `vdm-node` daemons against the simulator) stay out
//! of `all` because they gate as well as measure. Each builds a
//! `vdm_experiments::Report`, written to `BENCH_<name>.json` under
//! `--csv` (default `results`): run parameters and whole-run results,
//! one flat object per point under `points`, and `failures` /
//! `failure_detail` — the gates the family's library code judged and
//! the run did not pass (EXPERIMENTS.md lists them). Any failure exits
//! 1. `--smoke` runs a tiny fixed grid sequentially, for CI.
//!
//! Runs fan their simulation cells across a thread pool
//! (`RAYON_NUM_THREADS` controls the width; `--sequential` forces the
//! reference in-order path) and merge results in cell-key order, so
//! output is byte-identical either way.
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
use std::num::NonZeroUsize;
use std::str::FromStr;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use vdm_experiments::figures::{self, bootstrap, multitree, scale, shard, Family, Render};
use vdm_experiments::loopback::{self, LoopbackConfig};
use vdm_experiments::{runner, Effort, Report, Table};
use vdm_trace::json::Value;
use vdm_trace::{EventSink, JsonlSink, Tracer};

/// Everything the flags of a run or `trace <family>` command can say.
#[derive(Default)]
struct Opts {
    effort: Effort,
    seed: u64,
    csv_dir: Option<String>,
    sequential: bool,
    smoke: bool,
    shards: Option<NonZeroUsize>,
    out_dir: Option<String>,
    nodes: Option<usize>,
    node_bin: Option<String>,
}

/// The one exit for a malformed command line: message, usage, status 2.
fn usage_error(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    print_usage();
    std::process::exit(2);
}

/// The value of `flag`: the next argument, parsed.
fn value<T: FromStr>(it: &mut std::slice::Iter<'_, String>, flag: &str, what: &str) -> T {
    it.next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage_error(format!("{flag} needs {what}")))
}

/// Whether subcommand `cmd` takes `flag` (any flag `parse_args` knows).
fn takes(cmd: &str, flag: &str) -> bool {
    match flag {
        "--seed" | "--csv" => true,
        "--smoke" => matches!(cmd, "scale" | "multitree" | "bootstrap" | "loopback"),
        "--shards" => cmd == "scale",
        "--nodes" | "--node-bin" => cmd == "loopback",
        "--out" => cmd == "trace",
        "--sequential" => !matches!(cmd, "trace" | "loopback"),
        // --quick, --paper
        _ => cmd != "loopback",
    }
}

/// The command line as (words, options, the flags that set them).
fn parse_args(args: &[String]) -> (Vec<&str>, Opts, Vec<&str>) {
    let mut opts = Opts {
        seed: 42,
        ..Opts::default()
    };
    let (mut words, mut flags) = (Vec::new(), Vec::new());
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let a = a.as_str();
        match a {
            "--quick" => opts.effort = Effort::Quick,
            "--paper" => opts.effort = Effort::Paper,
            "--sequential" => opts.sequential = true,
            "--smoke" => opts.smoke = true,
            "--seed" => opts.seed = value(&mut it, a, "an integer"),
            "--shards" => opts.shards = Some(value(&mut it, a, "a positive integer")),
            "--nodes" => opts.nodes = Some(value(&mut it, a, "an integer >= 2")),
            "--csv" => opts.csv_dir = Some(value(&mut it, a, "a directory")),
            "--out" => opts.out_dir = Some(value(&mut it, a, "a directory")),
            "--node-bin" => opts.node_bin = Some(value(&mut it, a, "a path")),
            "--help" | "-h" => {
                print_usage();
                std::process::exit(0);
            }
            _ if a.starts_with('-') => usage_error(format!("unknown argument: {a}")),
            _ => {
                words.push(a);
                continue;
            }
        }
        flags.push(a);
    }
    if opts.nodes.is_some_and(|n| n < 2) {
        usage_error("--nodes needs an integer >= 2");
    }
    (words, opts, flags)
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

/// Print the runner counter deltas accumulated since `r0`.
fn print_counters(r0: runner::RunnerStats) {
    let r = runner::stats();
    println!(
        "[runner] cells={} batches={} busy={:.1?}",
        r.cells - r0.cells,
        r.batches - r0.batches,
        r.busy.saturating_sub(r0.busy),
    );
}

fn run_family(family: &Family, opts: &Opts) -> io::Result<()> {
    let t0 = Instant::now();
    let r0 = runner::stats();
    match family.render {
        Render::Tables(f) => {
            emit(&f(opts.effort, opts.seed), opts)?;
            print_counters(r0);
        }
        Render::Text(f) => println!("{}", f(opts.seed)),
    }
    println!("[done {} in {:.1?}]", family.name, t0.elapsed());
    Ok(())
}

/// Run a gated family: print its tables, write `BENCH_<name>.json`
/// and fail when the report lists a failed gate.
fn run_report(opts: &Opts, build: impl FnOnce() -> io::Result<Report>) -> io::Result<()> {
    let t0 = Instant::now();
    let report = build()?;
    emit(&report.tables, opts)?;
    let dir = opts.csv_dir.as_deref().unwrap_or("results");
    std::fs::create_dir_all(dir).map_err(io_ctx(format!("creating report directory `{dir}`")))?;
    let path = format!("{dir}/BENCH_{}.json", report.name);
    std::fs::write(&path, report.render()).map_err(io_ctx(format!("writing report `{path}`")))?;
    println!("  [json] {path}");
    println!("[done {} in {:.1?}]", report.name, t0.elapsed());
    let failed = report.failures.join("; ");
    if failed.is_empty() {
        return Ok(());
    }
    Err(io::Error::other(format!(
        "{} gates failed: {failed}",
        report.name
    )))
}

/// `vdm-repro trace <family>`: run a family with the structured tracer
/// and profiler on, then write the event log, chrome trace and metrics
/// snapshot. `run` forces sequential execution: parallel cells would
/// interleave events in the shared JSONL sink in completion order. The
/// *results* are order-independent either way; the event log is not.
fn trace_run(family: &Family, opts: &Opts) -> io::Result<()> {
    let name = family.name;
    let out_dir = opts.out_dir.as_deref().unwrap_or("results/trace");
    std::fs::create_dir_all(out_dir).map_err(io_ctx(format!("creating `{out_dir}`")))?;
    let trace_path = format!("{out_dir}/trace_{name}.jsonl");
    let file = std::fs::File::create(&trace_path)
        .map_err(io_ctx(format!("creating trace log `{trace_path}`")))?;
    // Keep a typed handle on the sink so we can read the line count
    // after the run; the global tracer only sees `dyn EventSink`.
    let sink = Arc::new(Mutex::new(JsonlSink::new(io::BufWriter::new(file))));
    vdm_trace::set_global(Tracer::with_sink(sink.clone() as Arc<Mutex<dyn EventSink>>));
    vdm_trace::start_profiling();

    run_family(family, opts)?;

    vdm_trace::set_global(Tracer::disabled());
    let events = {
        let mut s = sink.lock().expect("trace sink lock");
        s.flush();
        s.lines
    };
    if events == 0 {
        return Err(io::Error::other(format!(
            "traced run of `{name}` emitted no events — tracer not wired?"
        )));
    }
    let spans = vdm_trace::stop_profiling();
    let prof_path = format!("{out_dir}/profile_{name}.json");
    let mut f = std::fs::File::create(&prof_path)
        .map_err(io_ctx(format!("creating profile `{prof_path}`")))?;
    vdm_trace::write_chrome_trace(&mut f, &spans)
        .map_err(io_ctx(format!("writing profile `{prof_path}`")))?;
    let mut m = vdm_trace::MetricsRegistry::new();
    runner::export_metrics(&mut m);
    // Per-run overlay counters (discovery probes, anchors, fallbacks)
    // accumulated by the A11 cells; empty for other families.
    bootstrap::export_metrics(&mut m);
    let metrics_path = format!("{out_dir}/metrics_{name}.json");
    std::fs::write(&metrics_path, m.to_json())
        .map_err(io_ctx(format!("writing metrics `{metrics_path}`")))?;
    println!("[trace] {events} events -> {trace_path}");
    println!("[profile] {} spans -> {prof_path}", spans.len());
    println!("[metrics] -> {metrics_path}");
    Ok(())
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
/// by `trace <family>`.
fn trace_inspect(mode: &str, args: &[String]) -> io::Result<()> {
    let mut input: Option<String> = None;
    let mut host: Option<u32> = None;
    let mut kind: Option<String> = None;
    let mut t0: Option<f64> = None;
    let mut t1: Option<f64> = None;
    let mut limit: Option<usize> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--input" => input = Some(value(&mut it, a, "a file")),
            "--host" => host = Some(value(&mut it, a, "an integer host id")),
            "--kind" => kind = Some(value(&mut it, a, "an event kind")),
            "--t0" => t0 = Some(value(&mut it, a, "seconds")),
            "--t1" => t1 = Some(value(&mut it, a, "seconds")),
            "--limit" => limit = Some(value(&mut it, a, "a count")),
            other => usage_error(format!("unknown argument: {other}")),
        }
    }
    let Some(input) = input else {
        usage_error(format!("trace {mode} needs --input FILE"));
    };
    let recs = load_trace(&input)?;
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
    Ok(())
}

/// The families that write a `BENCH_<name>.json` report and gate on it.
const REPORTS: &[&str] = &["scale", "multitree", "bootstrap", "loopback"];

fn dispatch(cmd: &str, family: &str, opts: &Opts) -> io::Result<()> {
    let (e, s, smoke) = (opts.effort, opts.seed, opts.smoke);
    match cmd {
        "scale" => {
            if smoke || opts.shards.is_none() {
                run_report(opts, || {
                    let r = if smoke {
                        scale::scale_family_with_sizes(&[64, 128], s)
                    } else {
                        scale::scale_family(e, s)
                    };
                    Ok(r.report(smoke, s))
                })?;
            }
            let Some(max_shards) = opts.shards else {
                return Ok(());
            };
            run_report(opts, || {
                let r = if smoke {
                    shard::shard_family_smoke(max_shards.get(), s)
                } else {
                    let (n, chunks) = (shard::shard_size(e), shard::shard_chunks(e));
                    shard::shard_family(n, max_shards.get(), chunks, s)
                };
                Ok(r.report(smoke, s))
            })
        }
        "multitree" => run_report(opts, || {
            let r = if smoke {
                multitree::multitree_family_smoke(s)
            } else {
                multitree::multitree_family(e, s)
            };
            Ok(r.report(smoke, s))
        }),
        "bootstrap" => run_report(opts, || {
            let r = if smoke {
                bootstrap::bootstrap_family_smoke(s)
            } else {
                bootstrap::bootstrap_family(e, s)
            };
            Ok(r.report(smoke, s))
        }),
        "loopback" => run_report(opts, || {
            let mut cfg = if smoke {
                LoopbackConfig::smoke()
            } else {
                LoopbackConfig::full()
            };
            cfg.seed = s;
            cfg.node_bin = opts.node_bin.clone();
            cfg.nodes = opts.nodes.unwrap_or(cfg.nodes);
            Ok(loopback::run(&cfg)?.report(smoke, s))
        }),
        "all" => figures::ALL.iter().try_for_each(|f| run_family(f, opts)),
        _ => {
            let f = figures::family(family).expect("family validated by `run`");
            if cmd == "trace" {
                trace_run(f, opts)
            } else {
                run_family(f, opts)
            }
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        // The inspect modes own their argument grammar.
        ["trace", mode @ ("filter" | "summarize" | "dump"), ..] => trace_inspect(mode, &args[2..]),
        _ => run(&args),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

/// Parse, validate and run a family or `trace <family>` command.
fn run(args: &[String]) -> io::Result<()> {
    let (words, mut opts, flags) = parse_args(args);
    let traced = words.first() == Some(&"trace");
    let family = match words[traced as usize..] {
        [family] => family,
        [] if traced => usage_error("`trace` needs a family or filter|summarize|dump"),
        [] => usage_error("missing <family>"),
        [_, extra, ..] => usage_error(format!("unknown argument: {extra}")),
    };
    let cmd = if traced { "trace" } else { family };
    if traced {
        if figures::family(family).is_none() || family == "fig5-tree" {
            usage_error(format!("unknown or untraceable family: {family}"));
        }
    } else if figures::family(family).is_none() && !REPORTS.contains(&family) && family != "all" {
        usage_error(format!("unknown family: {family}"));
    }
    if let Some(flag) = flags.iter().find(|f| !takes(cmd, f)) {
        usage_error(format!("{flag} does not apply to `{cmd}`"));
    }
    // The chaos and soak families always leave a CSV audit trail (their
    // whole point is reproducible recovery numbers).
    if matches!(cmd, "chaos" | "soak") && opts.csv_dir.is_none() {
        opts.csv_dir = Some("results".into());
    }
    let go = || dispatch(cmd, family, &opts);
    // Sequential mode runs every cell — and so every nested fan-out —
    // on this thread, which is all the thread-local override covers.
    if opts.sequential || opts.smoke || traced {
        runner::with_mode(runner::ExecMode::Sequential, go)
    } else {
        go()
    }
}

fn print_usage() {
    let families: Vec<&str> = figures::ALL.iter().map(|f| f.name).collect();
    println!(
        "usage: vdm-repro <family> [--quick|--paper] [--seed N] [--csv DIR] [--sequential]\n\
         \x20      vdm-repro scale [--quick|--paper] [--smoke] [--shards N] [--seed N] [--csv DIR]\n\
         \x20      vdm-repro multitree|bootstrap [--quick|--paper] [--smoke] [--seed N] [--csv DIR]\n\
         \x20      vdm-repro loopback [--smoke] [--nodes N] [--seed N] [--node-bin PATH] [--csv DIR]\n\
         \x20      vdm-repro trace <family> [--quick|--paper] [--seed N] [--out DIR] [--csv DIR]\n\
         \x20      vdm-repro trace filter|summarize|dump --input FILE\n\
         \x20                  [--host N] [--kind K] [--t0 S] [--t1 S] [--limit N]\n\n\
         families: {}  all",
        families.join("  ")
    );
}
