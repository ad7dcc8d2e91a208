//! Printing one run: every metric by name with its unit for people, the
//! one-line JSON object the driver reads, and flat JSON lines appended
//! to a results file for `vdm-perf compare`.

use std::io::Write;

use vdm_trace::json::ObjWriter;

use crate::spec::{self, END_TO_END, PER_LAYER};
use crate::stat::quartiles;
use crate::workloads::{Outcome, Params};

/// Where a run happened: recorded in the output so two result files can
/// be told apart.
pub struct Env {
    pub nproc: usize,
    pub rustc: String,
    pub commit: String,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

impl Env {
    pub fn capture() -> Self {
        Env {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
            commit: command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into()),
        }
    }
}

/// The metrics one run reports: all end-to-end ones untraced, all
/// per-layer ones traced.
fn reported(p: &Params, o: &Outcome) -> Vec<(&'static str, f64, &'static str)> {
    if p.traced {
        PER_LAYER
            .iter()
            .map(|m| (m.name, o.per_layer[m.name], m.unit))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| {
                let v = o.end_to_end.iter().find(|(n, _)| *n == m.name);
                (
                    m.name,
                    v.expect("every end-to-end metric is measured").1,
                    m.unit,
                )
            })
            .collect()
    }
}

/// The human-readable report.
pub fn print_human(p: &Params, o: &Outcome, env: &Env) {
    println!(
        "workload {}  seed {}  seconds {}  trace {}{}",
        p.workload,
        p.seed,
        p.seconds,
        u8::from(p.traced),
        if p.smoke { "  smoke" } else { "" }
    );
    println!(
        "env nproc {}  rustc {:?}  commit {}",
        env.nproc, env.rustc, env.commit
    );
    for (name, value, unit) in reported(p, o) {
        println!("  {name:<36} {value:>16.6} {unit}");
    }
    for (label, xs) in [("setup_s", &o.setup_samples), ("op_us", &o.op_us_samples)] {
        let (q1, q3) = quartiles(xs);
        println!(
            "  samples {label:<10} n {:<4} q1 {q1:.6} q3 {q3:.6}",
            xs.len()
        );
        let list: Vec<String> = xs.iter().take(32).map(|x| format!("{x:.4}")).collect();
        let more = if xs.len() > 32 { " ..." } else { "" };
        println!("    {}{more}", list.join(" "));
    }
    if let Some(d) = o.sim_digest {
        println!("  sim_digest {d:016x}");
    }
    println!(
        "  operations attempted {} failed {}  correct {}",
        o.attempted, o.failed, o.correct
    );
    for e in &o.errors {
        println!("  GATE FAILED: {e}");
    }
}

/// The driver's line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn driver_line(p: &Params, o: &Outcome) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.correct, o.attempted, o.failed
    );
    for (i, (name, value, unit)) in reported(p, o).into_iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&format!("\"{name}\": {{\"value\": "));
        vdm_trace::json::push_json_f64(&mut s, value);
        s.push_str(&format!(", \"unit\": \"{unit}\"}}"));
    }
    s.push_str("}}");
    s
}

/// Append this run to a results file: one flat JSON object per metric,
/// plus the digest and the environment.
pub fn append_results(
    path: &std::path::Path,
    p: &Params,
    o: &Outcome,
    env: &Env,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    let kind = if p.traced { "per_layer" } else { "end_to_end" };
    let base = || {
        let mut w = ObjWriter::new();
        w.str("workload", &p.workload).u64("seed", p.seed);
        w
    };
    let mut lines = Vec::new();
    for (name, value, unit) in reported(p, o) {
        let mut w = base();
        w.str("kind", kind)
            .str("metric", name)
            .f64("value", value)
            .str("unit", unit);
        lines.push(w.finish());
    }
    if let Some(d) = o.sim_digest {
        let mut w = base();
        w.str("kind", "digest")
            .bool("traced", p.traced)
            .str("sim_digest", &format!("{d:016x}"));
        lines.push(w.finish());
    }
    let mut w = base();
    w.str("kind", "run")
        .bool("traced", p.traced)
        .bool("correct", o.correct)
        .u64("attempted", o.attempted)
        .u64("failed", o.failed)
        .u64("nproc", env.nproc as u64)
        .str("rustc", &env.rustc)
        .str("commit", &env.commit)
        .u64("run_seconds", u64::from(spec::RUN_SECONDS));
    lines.push(w.finish());
    for l in lines {
        writeln!(f, "{l}")?;
    }
    f.flush()
}
