//! `vdm-perf compare <a> <b>`: two result files (each any number of runs
//! per workload, one seed per run) side by side. One row per (workload,
//! end-to-end metric) with both medians and quartiles, the ratio with its
//! base, the bound and a verdict; the per-layer diff underneath, where
//! the paper's statistics are held to their own bound.

use std::collections::BTreeMap;

use vdm_trace::json::{parse_flat_object, Value};

use crate::spec::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stat::{median, quartiles};

/// Everything one results file holds.
#[derive(Default)]
pub struct Results {
    /// (workload, metric) → one value per untraced run, in seed order.
    pub end_to_end: BTreeMap<(String, String), Vec<f64>>,
    /// (workload, metric) → one value per traced run.
    pub per_layer: BTreeMap<(String, String), Vec<f64>>,
    /// (workload, seed) → digests seen (traced and untraced runs agree).
    pub digests: BTreeMap<(String, u64), Vec<String>>,
    /// Runs whose gates failed, as "workload seed N".
    pub incorrect: Vec<String>,
}

pub fn parse(text: &str) -> Result<Results, String> {
    let mut r = Results::default();
    type Seeded = BTreeMap<(String, String), Vec<(u64, f64)>>;
    let (mut end_to_end, mut per_layer) = (Seeded::new(), Seeded::new());
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let obj =
            parse_flat_object(line).ok_or(format!("line {}: not a flat JSON object", i + 1))?;
        let text_of = |k: &str| obj.get(k).and_then(Value::as_str).map(str::to_string);
        let num = |k: &str| obj.get(k).and_then(Value::as_num);
        let (Some(workload), Some(kind)) = (text_of("workload"), text_of("kind")) else {
            return Err(format!("line {}: no workload or kind", i + 1));
        };
        let seed = num("seed").unwrap_or(0.0) as u64;
        match kind.as_str() {
            "end_to_end" | "per_layer" => {
                let metric = text_of("metric").ok_or(format!("line {}: no metric", i + 1))?;
                // A null value (NaN at the source) stays NaN: visibly wrong.
                let value = num("value").unwrap_or(f64::NAN);
                let map = if kind == "end_to_end" {
                    &mut end_to_end
                } else {
                    &mut per_layer
                };
                map.entry((workload, metric))
                    .or_default()
                    .push((seed, value));
            }
            "digest" => {
                let d = text_of("sim_digest").ok_or(format!("line {}: no digest", i + 1))?;
                r.digests.entry((workload, seed)).or_default().push(d);
            }
            "run" => {
                if obj.get("correct") != Some(&Value::Bool(true)) {
                    r.incorrect.push(format!("{workload} seed {seed}"));
                }
            }
            other => return Err(format!("line {}: unknown kind {other:?}", i + 1)),
        }
    }
    // In seed order, so that the runs of two files pair up by position.
    let by_seed = |m: Seeded| {
        m.into_iter()
            .map(|(k, mut v)| {
                v.sort_by_key(|&(seed, _)| seed);
                (k, v.into_iter().map(|(_, x)| x).collect())
            })
            .collect()
    };
    r.end_to_end = by_seed(end_to_end);
    r.per_layer = by_seed(per_layer);
    Ok(r)
}

/// How `b` stands against `a` on one end-to-end metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    WithinBound,
    Worse,
    /// The run-to-run spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The rule of the choosing-metrics guide. Worse: the median moved the
/// wrong way by more than the bound. Unresolved: either side's quartile
/// distance exceeds the bound, unless every run of `b` reads better than
/// every run of `a`. Better: `b` wins at least nine tenths of the pairs
/// (runs pair up by position, that is by seed; ties count for neither
/// side) and the medians differ by more than `a`'s own quartile distance.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    // Fold "higher is better" onto "lower is better".
    let sign = if better == Better::Lower { 1.0 } else { -1.0 };
    let (ma, mb) = (median(a), median(b));
    let iqr = |xs: &[f64]| {
        let (q1, q3) = quartiles(xs);
        q3 - q1
    };
    let all_better = {
        let worst_b = b.iter().map(|x| sign * x).fold(f64::MIN, f64::max);
        let best_a = a.iter().map(|x| sign * x).fold(f64::MAX, f64::min);
        worst_b < best_a
    };
    let pairs = a.len().min(b.len());
    let wins = (0..pairs).filter(|&i| sign * b[i] < sign * a[i]).count();
    let spread = (iqr(a) / ma.abs()).max(iqr(b) / mb.abs());
    let worsening = sign * (mb - ma) / ma.abs();
    if all_better {
        Verdict::Better
    } else if spread > bound {
        Verdict::Unresolved
    } else if worsening > bound {
        Verdict::Worse
    } else if 10 * wins >= 9 * pairs && sign * (ma - mb) > iqr(a) {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

/// Print the comparison; returns how many rows read worse or unresolved
/// (plus changed digests and incorrect runs), so the exit code can say so.
pub fn print(a: &Results, b: &Results) -> usize {
    let mut bad = 0;
    println!(
        "{:<15} {:<15} {:>12} {:>25} {:>12} {:>25} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "a median",
        "a [q1, q3] n",
        "b median",
        "b [q1, q3] n",
        "b/a",
        "bound"
    );
    let fmt_q = |xs: &[f64]| {
        let (q1, q3) = quartiles(xs);
        format!("[{q1:.4}, {q3:.4}] {}", xs.len())
    };
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let key = (w.name.to_string(), m.name.to_string());
            let (Some(xa), Some(xb)) = (a.end_to_end.get(&key), b.end_to_end.get(&key)) else {
                continue;
            };
            let v = verdict(xa, xb, m.better, m.bound);
            if matches!(v, Verdict::Worse | Verdict::Unresolved) {
                bad += 1;
            }
            println!(
                "{:<15} {:<15} {:>12.4} {:>25} {:>12.4} {:>25} {:>8.4} {:>6}  {}",
                w.name,
                m.name,
                median(xa),
                fmt_q(xa),
                median(xb),
                fmt_q(xb),
                median(xb) / median(xa),
                m.bound,
                v.as_str()
            );
        }
    }
    println!("\n{:<15} {:>6}  digest", "workload", "seeds");
    for w in &WORKLOADS {
        let seeds: Vec<&(String, u64)> = a.digests.keys().filter(|k| k.0 == w.name).collect();
        let shared: Vec<_> = seeds
            .iter()
            .filter(|k| b.digests.contains_key(**k))
            .collect();
        if shared.is_empty() {
            continue;
        }
        // One digest per (workload, seed), however many runs printed it.
        let one = |ds: &Vec<String>| ds.iter().all(|d| *d == ds[0]).then(|| ds[0].clone());
        let same = shared.iter().all(|k| {
            one(&a.digests[**k]).is_some() && one(&a.digests[**k]) == one(&b.digests[**k])
        });
        if !same {
            bad += 1;
        }
        println!(
            "{:<15} {:>6}  {}",
            w.name,
            shared.len(),
            if same { "same" } else { "CHANGED" }
        );
    }
    for (side, r) in [("a", a), ("b", b)] {
        for run in &r.incorrect {
            bad += 1;
            println!("gates failed in {side}: {run}");
        }
    }
    println!("\nper-layer (medians; rows where both sides read 0 are left out)");
    println!(
        "{:<15} {:<34} {:>16} {:>16} {:>8}  {:<6} {:<13} {:<12} should move",
        "workload", "metric", "a", "b", "b/a", "unit", "verdict", "layer"
    );
    for w in &WORKLOADS {
        for m in PER_LAYER {
            let key = (w.name.to_string(), m.name.to_string());
            let (Some(xa), Some(xb)) = (a.per_layer.get(&key), b.per_layer.get(&key)) else {
                continue;
            };
            let (ma, mb) = (median(xa), median(xb));
            if ma == 0.0 && mb == 0.0 {
                continue;
            }
            // Only the paper's statistics carry a bound down here.
            let v = m.bound.map(|bound| verdict(xa, xb, m.better, bound));
            if matches!(v, Some(Verdict::Worse | Verdict::Unresolved)) {
                bad += 1;
            }
            println!(
                "{:<15} {:<34} {:>16.6} {:>16.6} {:>8.4}  {:<6} {:<13} {:<12} {}",
                w.name,
                m.name,
                ma,
                mb,
                mb / ma,
                m.unit,
                v.map_or("", Verdict::as_str),
                m.layer,
                m.moves
            );
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_rule() {
        let a = [10.0, 10.1, 9.9, 10.05, 9.95];
        // Same numbers: within bound.
        assert_eq!(verdict(&a, &a, Better::Lower, 0.1), Verdict::WithinBound);
        // 20 % slower against a 10 % bound: worse.
        let slow: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        assert_eq!(verdict(&a, &slow, Better::Lower, 0.1), Verdict::Worse);
        // Every run faster: better, whatever the spread.
        let fast: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
        assert_eq!(verdict(&a, &fast, Better::Lower, 0.1), Verdict::Better);
        assert_eq!(verdict(&a, &slow, Better::Higher, 0.1), Verdict::Better);
        // A shift beyond a's quartile distance counts as better only when
        // b wins nine pairs in ten.
        let nine: Vec<f64> = a.iter().map(|x| x - 0.3).collect();
        assert_eq!(verdict(&a, &nine, Better::Lower, 0.1), Verdict::Better);
        let mut four = nine.clone();
        four[4] = a[4] + 0.01;
        assert_eq!(verdict(&a, &four, Better::Lower, 0.1), Verdict::WithinBound);
        // Spread wider than the bound and overlapping: unresolved.
        let noisy = [8.0, 12.0, 9.0, 11.0, 10.0];
        assert_eq!(verdict(&a, &noisy, Better::Lower, 0.1), Verdict::Unresolved);
        // One traced run a side, as the paper's statistics arrive: the
        // 0.1 % bound catches a stretch that moved in the third digit,
        // and a loss that appeared where there was none.
        let bound = 0.001;
        assert_eq!(
            verdict(&[2.53], &[2.53], Better::Lower, bound),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(&[2.53], &[2.54], Better::Lower, bound),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&[2.53], &[2.52], Better::Lower, bound),
            Verdict::Better
        );
        assert_eq!(
            verdict(&[0.0], &[0.2], Better::Lower, bound),
            Verdict::Worse
        );
    }

    #[test]
    fn parses_what_report_writes() {
        let text = concat!(
            "{\"workload\":\"ch3_churn\",\"seed\":42,\"kind\":\"end_to_end\",\"metric\":\"op_us_p10\",\"value\":0.5,\"unit\":\"us\"}\n",
            "{\"workload\":\"ch3_churn\",\"seed\":42,\"kind\":\"digest\",\"traced\":false,\"sim_digest\":\"00ff\"}\n",
            "{\"workload\":\"ch3_churn\",\"seed\":42,\"kind\":\"run\",\"traced\":false,\"correct\":false}\n",
        );
        let r = parse(text).unwrap();
        assert_eq!(
            r.end_to_end[&("ch3_churn".into(), "op_us_p10".into())],
            vec![0.5]
        );
        assert_eq!(
            r.digests[&("ch3_churn".into(), 42)],
            vec!["00ff".to_string()]
        );
        assert_eq!(r.incorrect, vec!["ch3_churn seed 42".to_string()]);
    }
}
