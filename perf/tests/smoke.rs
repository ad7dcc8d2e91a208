//! Runs the whole benchmark shrunk (`--smoke`) twice, through `run.sh` as
//! the driver does (it builds the workspace's `vdm-node`, which this
//! package cannot build itself), and checks what it prints: every workload and metric of `BENCHMARK.json` exactly once
//! per applicable run, well-formed names, identical `sim_digest`s across
//! the two runs, every gate passing, and the committed `BENCHMARK.json`
//! equal to the one generated from the metric tables.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use vdm_perf::spec::{self, END_TO_END, PER_LAYER, WORKLOADS};
use vdm_trace::json::{parse_flat_object, Value};

fn vdm_perf() -> Command {
    let mut c = Command::new("bash");
    c.arg(Path::new(env!("CARGO_MANIFEST_DIR")).join("run.sh"));
    c
}

fn scratch(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

type Lines = Vec<BTreeMap<String, Value>>;

/// `vdm-perf all --smoke` into `out_dir`; the parsed results file.
fn smoke_all(out_dir: &Path) -> Lines {
    let status = vdm_perf()
        .args(["all", "--smoke", "--seconds", "0.3", "--seed", "7"])
        .arg("--out-dir")
        .arg(out_dir)
        .status()
        .expect("spawn vdm-perf");
    assert!(
        status.success(),
        "vdm-perf all --smoke exited with {status}"
    );
    let text = std::fs::read_to_string(out_dir.join("results.jsonl")).expect("results file");
    text.lines()
        .map(|l| parse_flat_object(l).unwrap_or_else(|| panic!("not flat JSON: {l}")))
        .collect()
}

fn text<'a>(line: &'a BTreeMap<String, Value>, key: &str) -> &'a str {
    line.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("no {key} in {line:?}"))
}

/// (workload, traced) → digest.
fn digests(lines: &Lines) -> BTreeMap<(String, bool), String> {
    lines
        .iter()
        .filter(|l| text(l, "kind") == "digest")
        .map(|l| {
            let traced = l["traced"] == Value::Bool(true);
            (
                (text(l, "workload").to_string(), traced),
                text(l, "sim_digest").to_string(),
            )
        })
        .collect()
}

#[test]
fn smoke_runs_print_every_metric_once_and_repeat_exactly() {
    let (dir_a, dir_b) = (scratch("a"), scratch("b"));
    let a = smoke_all(&dir_a);
    let b = smoke_all(&dir_b);

    for w in &WORKLOADS {
        for (kind, names) in [
            (
                "end_to_end",
                END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>(),
            ),
            (
                "per_layer",
                PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>(),
            ),
        ] {
            let printed: Vec<&str> = a
                .iter()
                .filter(|l| text(l, "workload") == w.name && text(l, "kind") == kind)
                .map(|l| text(l, "metric"))
                .collect();
            let mut sorted = printed.clone();
            sorted.sort_unstable();
            let mut want = names.clone();
            want.sort_unstable();
            assert_eq!(sorted, want, "{} {kind}: each metric exactly once", w.name);
            for n in printed {
                assert!(
                    n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                    "metric name {n:?}"
                );
            }
        }
        // One traced and one untraced run, both correct.
        let runs: Vec<_> = a
            .iter()
            .filter(|l| text(l, "workload") == w.name && text(l, "kind") == "run")
            .collect();
        assert_eq!(runs.len(), 2, "{}", w.name);
        for r in runs {
            assert_eq!(r["correct"], Value::Bool(true), "{}: gates failed", w.name);
        }
        // Traced runs wrote their spans.
        assert!(
            dir_a.join(format!("trace_{}.json", w.name)).is_file(),
            "{}",
            w.name
        );
    }
    for l in &a {
        assert!(WORKLOADS.iter().any(|w| w.name == text(l, "workload")));
    }

    // Every simulated workload prints a digest; the relay has none.
    let (da, db) = (digests(&a), digests(&b));
    assert_eq!(da.len(), 2 * (WORKLOADS.len() - 1));
    assert_eq!(da, db, "sim_digest differs between two runs of one commit");
    for w in WORKLOADS.iter().filter(|w| w.name != spec::NODE_RELAY) {
        assert_eq!(
            da[&(w.name.to_string(), false)],
            da[&(w.name.to_string(), true)],
            "{}: tracing changed the outcome",
            w.name
        );
    }

    // `compare` on the two sets: same commit, so no digest may change.
    let out = vdm_perf()
        .arg("compare")
        .arg(dir_a.join("results.jsonl"))
        .arg(dir_b.join("results.jsonl"))
        .output()
        .expect("spawn vdm-perf compare");
    let table = String::from_utf8_lossy(&out.stdout);
    assert!(
        !table.contains("CHANGED") && !table.contains("gates failed"),
        "{table}"
    );
    for w in &WORKLOADS {
        assert!(table.contains(w.name), "{table}");
    }
    // The paper's statistics repeat exactly, so their bounded per-layer
    // rows read "within bound".
    let row = |w: &str, m: &str| {
        table
            .lines()
            .find(|l| l.starts_with(w) && l.contains(m))
            .unwrap_or_else(|| panic!("no {w} {m} row in\n{table}"))
    };
    for (w, m) in [
        (spec::CH3_CHURN, "stretch_mean"),
        (spec::SOAK_RESILIENT, "loss_pct"),
        (spec::JOIN_GUIDED, "contacts_per_join"),
    ] {
        assert!(row(w, m).contains("within bound"), "{}", row(w, m));
    }

    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

#[test]
fn a_single_run_ends_with_the_drivers_line() {
    let dir = scratch("one");
    for (trace, names) in [
        ("0", END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()),
        ("1", PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()),
    ] {
        let out = vdm_perf()
            .args(["--workload", "ch3_churn", "--smoke", "--seconds", "0.3"])
            .args(["--seed", "3", "--trace", trace])
            .arg("--out-dir")
            .arg(&dir)
            .output()
            .expect("spawn vdm-perf");
        assert!(out.status.success());
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().expect("output");
        assert!(
            last.starts_with("{\"correct\": true, \"attempted\": ") && last.ends_with("}}"),
            "{last}"
        );
        let keys = last.matches("\": {\"value\": ").count();
        assert_eq!(keys, names.len(), "{last}");
        for n in names {
            assert_eq!(
                last.matches(&format!("\"{n}\": {{\"value\": ")).count(),
                1,
                "{n}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_workloads_and_flags_fail_cleanly() {
    for args in [&["--workload", "nope"][..], &["--bogus"][..], &["nope"][..]] {
        let out = vdm_perf().args(args).output().expect("spawn vdm-perf");
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

#[test]
fn committed_benchmark_json_is_the_generated_one() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let committed = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
    assert_eq!(
        committed,
        spec::benchmark_json(),
        "regenerate with `perf/run.sh spec > BENCHMARK.json`"
    );
}
