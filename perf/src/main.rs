//! `vdm-perf`: run one workload, run them all, or compare two result
//! files. `perf/run.sh` builds the binaries and calls this.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use vdm_perf::report::{self, Env};
use vdm_perf::spec::{self, WORKLOADS};
use vdm_perf::workloads::{self, Params};
use vdm_perf::{compare, stat};

const USAGE: &str = "\
usage: vdm-perf --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
                [--out-dir DIR] [--node-bin FILE] [--results FILE]
           one run: every metric by name, then the driver's JSON line
       vdm-perf all [--seed N] [--seconds S] [--runs K] [--smoke] [--out-dir DIR]
           every workload, K untraced runs (seeds N..N+K) and one traced,
           into <out-dir>/results.jsonl, with each metric's run-to-run spread
       vdm-perf compare A.jsonl B.jsonl
           exit 1 if any row reads worse or unresolved, or a digest changed
       vdm-perf spec
           print BENCHMARK.json as generated from the metric tables";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    runs: usize,
    out_dir: PathBuf,
    node_bin: PathBuf,
    results: Option<PathBuf>,
    positional: Vec<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let sibling = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("vdm-node")))
        .unwrap_or_else(|| PathBuf::from("vdm-node"));
    let mut a = Args {
        workload: None,
        seed: 42,
        seconds: f64::from(spec::RUN_SECONDS),
        traced: false,
        smoke: false,
        runs: 1,
        out_dir: PathBuf::from("perf/out"),
        node_bin: sibling,
        results: None,
        positional: Vec::new(),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("missing value for {flag}"));
        fn num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
            v.parse().map_err(|_| format!("bad value {v:?} for {flag}"))
        }
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?.clone()),
            "--seed" => a.seed = num(flag, value()?)?,
            "--seconds" => a.seconds = num(flag, value()?)?,
            "--trace" => {
                a.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad value {v:?} for --trace")),
                }
            }
            "--smoke" => a.smoke = true,
            "--runs" => a.runs = num(flag, value()?)?,
            "--out-dir" => a.out_dir = PathBuf::from(value()?),
            "--node-bin" => a.node_bin = PathBuf::from(value()?),
            "--results" => a.results = Some(PathBuf::from(value()?)),
            "--help" | "-h" => return Err(String::new()),
            f if f.starts_with("--") => return Err(format!("unknown flag {f}")),
            _ => a.positional.push(flag.clone()),
        }
    }
    if !(a.seconds > 0.0 && a.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

/// One workload, in this process. Metrics are withheld when a gate fails.
fn run_one(a: &Args, workload: &str) -> ExitCode {
    let p = Params {
        workload: workload.to_string(),
        seed: a.seed,
        seconds: a.seconds,
        traced: a.traced,
        smoke: a.smoke,
        out_dir: a.out_dir.clone(),
        node_bin: a.node_bin.clone(),
    };
    let outcome = match workloads::run(&p) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    let env = Env::capture();
    report::print_human(&p, &outcome, &env);
    if let Some(path) = &a.results {
        if let Err(e) = report::append_results(path, &p, &outcome, &env) {
            eprintln!("error: cannot append to {}: {e}", path.display());
            return ExitCode::from(1);
        }
    }
    if !outcome.correct {
        eprintln!("error: correctness gates failed; metrics withheld");
        return ExitCode::from(1);
    }
    println!("{}", report::driver_line(&p, &outcome));
    ExitCode::SUCCESS
}

/// Every workload as child processes of this binary, so that each one's
/// peak RSS is its own.
fn run_all(a: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: current_exe: {e}");
            return ExitCode::from(1);
        }
    };
    let results = a.out_dir.join("results.jsonl");
    let _ = std::fs::remove_file(&results);
    let mut failed = Vec::new();
    for w in &WORKLOADS {
        // Untraced runs give the end-to-end metrics, one traced run the
        // per-layer ones.
        let runs = (0..a.runs).map(|k| (a.seed + k as u64, false));
        for (seed, traced) in runs.chain([(a.seed, true)]) {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &a.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .arg("--out-dir")
                .arg(&a.out_dir)
                .arg("--node-bin")
                .arg(&a.node_bin)
                .arg("--results")
                .arg(&results);
            if a.smoke {
                cmd.arg("--smoke");
            }
            match cmd.status() {
                Ok(s) if s.success() => {}
                Ok(s) => failed.push(format!("{} seed {seed} trace {traced}: {s}", w.name)),
                Err(e) => failed.push(format!("{}: spawn: {e}", w.name)),
            }
        }
    }
    if let Err(e) = print_summary(&results) {
        eprintln!("error: {e}");
        return ExitCode::from(1);
    }
    println!("results: {}", results.display());
    for f in &failed {
        eprintln!("error: {f}");
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The acceptance rule on one set of runs: each end-to-end metric's
/// quartile distance as a share of its median, next to its bound.
fn print_summary(results: &Path) -> Result<(), String> {
    let text =
        std::fs::read_to_string(results).map_err(|e| format!("{}: {e}", results.display()))?;
    let r = compare::parse(&text)?;
    println!(
        "\n{:<15} {:<15} {:>14} {:>4} {:>10} {:>7}",
        "workload", "metric", "median", "n", "iqr/median", "bound"
    );
    for w in &WORKLOADS {
        for m in &spec::END_TO_END {
            let Some(xs) = r.end_to_end.get(&(w.name.to_string(), m.name.to_string())) else {
                continue;
            };
            let (q1, q3) = stat::quartiles(xs);
            let med = stat::median(xs);
            println!(
                "{:<15} {:<15} {:>14.6} {:>4} {:>10.4} {:>7}",
                w.name,
                m.name,
                med,
                xs.len(),
                (q3 - q1) / med,
                m.bound
            );
        }
    }
    Ok(())
}

fn run_compare(a: &Args) -> ExitCode {
    let [_, fa, fb] = a.positional.as_slice() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let load = |f: &String| {
        std::fs::read_to_string(f)
            .map_err(|e| format!("{f}: {e}"))
            .and_then(|t| compare::parse(&t).map_err(|e| format!("{f}: {e}")))
    };
    match (load(fa), load(fb)) {
        (Ok(ra), Ok(rb)) => {
            if compare::print(&ra, &rb) == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    // Nothing here is parallel; pin it so an ambient setting cannot
    // change a workload. (Set before any other thread exists.)
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match (
        a.workload.as_deref(),
        a.positional.first().map(String::as_str),
    ) {
        (Some(w), None) => run_one(&a, w),
        (None, Some("all")) => run_all(&a),
        (None, Some("compare")) => run_compare(&a),
        (None, Some("spec")) => {
            print!("{}", spec::benchmark_json());
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
