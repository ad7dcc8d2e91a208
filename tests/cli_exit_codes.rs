//! Exit-code contract of the `vdm-repro` binary: every error branch
//! must terminate with a non-zero status (2 for usage errors, 1 for
//! runtime/I-O failures) and say something on stderr, so scripted
//! reproduction pipelines fail loudly instead of producing partial
//! results with status 0.

use std::path::PathBuf;
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_vdm-repro");

fn run(args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .output()
        .expect("spawn vdm-repro")
}

fn assert_usage_error(args: &[&str]) {
    let out = run(args);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{args:?} should exit 2, stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        !out.stderr.is_empty(),
        "{args:?} exited 2 silently — usage errors must explain themselves"
    );
}

/// A scratch path that does not exist and is cleaned up on drop.
fn scratch(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("vdm-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    let _ = std::fs::remove_file(&p);
    p
}

#[test]
fn usage_errors_exit_2() {
    assert_usage_error(&[]); // no family at all
    assert_usage_error(&["no-such-family"]);
    assert_usage_error(&["soak", "--bogus-flag"]);
    assert_usage_error(&["soak", "--seed"]); // missing value
    assert_usage_error(&["soak", "--seed", "not-a-number"]);
    assert_usage_error(&["soak", "--csv"]); // missing value
    assert_usage_error(&["soak", "--no-cache"]);
    // Retired: `--quick` is the CI size of every family.
    for family in ["soak", "scale", "multitree", "bootstrap", "loopback"] {
        assert_usage_error(&[family, "--smoke"]);
    }
    assert_usage_error(&["bench"]); // retired: perf/ measures, the tests gate
    assert_usage_error(&["loopback", "--bogus"]);
    assert_usage_error(&["loopback", "--nodes", "1"]); // source + a receiver
    assert_usage_error(&["loopback", "--seed"]); // missing value
}

#[test]
fn trace_usage_errors_exit_2() {
    assert_usage_error(&["trace"]); // needs a family or inspect mode
    assert_usage_error(&["trace", "no-such-family"]);
    assert_usage_error(&["trace", "fig5-tree"]); // prose-only family
    assert_usage_error(&["trace", "soak", "--out"]); // missing value
    assert_usage_error(&["trace", "filter"]); // needs --input
    assert_usage_error(&["trace", "summarize"]);
    assert_usage_error(&["trace", "dump", "--input", "x", "--limit", "NaN"]);
    assert_usage_error(&["trace", "filter", "--input", "x", "--host", "-1"]);
}

#[test]
fn help_exits_0() {
    let out = run(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage:"));
}

#[test]
fn unwritable_csv_dir_exits_1() {
    // A path that traverses a regular *file* cannot be created as a
    // directory (NotADirectory — robust even when running as root,
    // unlike permission-bit tricks).
    let blocker = scratch("csvblock");
    std::fs::write(&blocker, b"not a directory").unwrap();
    let csv = blocker.join("sub");
    let out = run(&["soak", "--quick", "--csv", csv.to_str().unwrap()]);
    let _ = std::fs::remove_file(&blocker);
    assert_eq!(
        out.status.code(),
        Some(1),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("creating CSV directory"),
        "error should name the failing operation, got: {err}"
    );
}

#[test]
fn unwritable_trace_out_dir_exits_1() {
    let blocker = scratch("traceblock");
    std::fs::write(&blocker, b"not a directory").unwrap();
    let out_dir = blocker.join("sub");
    // Fails fast: the out dir is created before any simulation runs.
    let out = run(&[
        "trace",
        "soak",
        "--quick",
        "--out",
        out_dir.to_str().unwrap(),
    ]);
    let _ = std::fs::remove_file(&blocker);
    assert_eq!(
        out.status.code(),
        Some(1),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn trace_inspect_io_and_parse_errors_exit_1() {
    // Nonexistent input file.
    let missing = scratch("missing");
    let out = run(&["trace", "summarize", "--input", missing.to_str().unwrap()]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Malformed JSONL must be a hard error, not a silent skip.
    let bad = scratch("badlog");
    std::fs::write(
        &bad,
        "{\"t_us\":1,\"kind\":\"orphaned\"}\nnot json at all\n",
    )
    .unwrap();
    let out = run(&["trace", "filter", "--input", bad.to_str().unwrap()]);
    let _ = std::fs::remove_file(&bad);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains(":2:"),
        "parse error should cite the line number, got: {err}"
    );

    // An empty log is an error for every inspect mode (nothing to
    // filter/summarize means the traced run went wrong upstream).
    let empty = scratch("emptylog");
    std::fs::write(&empty, "").unwrap();
    let out = run(&["trace", "summarize", "--input", empty.to_str().unwrap()]);
    let _ = std::fs::remove_file(&empty);
    assert_eq!(out.status.code(), Some(1));
}

/// Top-level keys of a `BENCH_*.json` document and the keys of each of
/// its points, read the way `vdm_experiments::Report` promises they can
/// be: the first line minus the `"points":[` opener and every point
/// line are flat objects.
fn report_keys(path: &std::path::Path) -> (Vec<String>, Vec<Vec<String>>, f64) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let lines: Vec<&str> = text.lines().collect();
    let head = lines[0]
        .strip_suffix(",\"points\":[")
        .unwrap_or_else(|| panic!("no points opener in {}", lines[0]));
    let head = vdm_trace::json::parse_flat_object(&format!("{head}}}")).expect("flat header");
    assert_eq!(lines.last(), Some(&"]}"));
    let points = lines[1..lines.len() - 1]
        .iter()
        .map(|l| {
            let p =
                vdm_trace::json::parse_flat_object(l.trim_end_matches(',')).expect("flat point");
            p.into_keys().collect()
        })
        .collect();
    let failures = head["failures"].as_num().expect("failures is a number");
    (head.into_keys().collect(), points, failures)
}

/// Schema pin for the committed `results/BENCH_{scale,shard}.json`
/// trajectory: the keys EXPERIMENTS.md and the roadmap cite, plus the
/// gate outcome. (`parse_flat_object` sorts keys.)
#[test]
fn scale_smoke_writes_both_reports_with_the_pinned_schema() {
    let dir = scratch("schema");
    let csv = dir.to_str().unwrap();
    for shards in [&[][..], &["--shards", "2"]] {
        let args = [&["scale", "--quick", "--seed", "42", "--csv", csv], shards].concat();
        let out = run(&args);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{args:?} stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    for name in ["BENCH_scale.json", "BENCH_shard.json"] {
        let text = std::fs::read_to_string(dir.join(name)).unwrap();
        assert!(text.contains("\"effort\":\"quick\""), "{name}: {text}");
    }
    let scale = report_keys(&dir.join("BENCH_scale.json"));
    let shard = report_keys(&dir.join("BENCH_shard.json"));
    let _ = std::fs::remove_dir_all(&dir);

    let sorted = |keys: &[&str]| {
        let mut keys: Vec<String> = keys.iter().map(|k| k.to_string()).collect();
        keys.sort();
        keys
    };
    let (head, points, failures) = scale;
    assert_eq!(failures, 0.0);
    assert_eq!(
        head,
        sorted(&[
            "bench",
            "effort",
            "seed",
            "degree",
            "failures",
            "failure_detail"
        ])
    );
    assert_eq!(points.len(), 6, "two sizes, three protocols");
    for p in &points {
        assert_eq!(
            *p,
            sorted(&[
                "n",
                "protocol",
                "wall_ms",
                "contacts_mean",
                "contacts_tail",
                "predicted_nlogn",
                "stretch_mean",
                "rows_peak",
                "rows_capacity",
                "row_hits",
                "row_misses",
                "row_evictions",
            ])
        );
    }
    let (head, points, failures) = shard;
    assert_eq!(failures, 0.0);
    assert_eq!(
        head,
        sorted(&[
            "bench",
            "effort",
            "seed",
            "cores",
            "n",
            "degree",
            "max_shards",
            "lookahead_ms",
            "join_wall_ms",
            "join_contacts_tail",
            "s1_identical",
            "fingerprints_match",
            "failures",
            "failure_detail",
        ])
    );
    assert_eq!(points.len(), 2, "S = 1 and S = 2");
    for p in &points {
        assert_eq!(
            *p,
            sorted(&[
                "shards",
                "wall_ms",
                "events",
                "events_per_sec",
                "cross_events",
                "windows",
                "speedup",
                "delivered",
            ])
        );
    }
}
