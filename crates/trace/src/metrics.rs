//! Unified metrics registry: counters, gauges, and fixed-bucket
//! histograms with one deterministic snapshot/serialize path.
//!
//! The registry *absorbs* the scattered counters that grew across the
//! repo (overlay `RecoveryStats`, the experiment runner): each
//! subsystem exports its counters into a registry under a stable
//! dotted namespace, and everything serializes
//! through [`MetricsRegistry::to_json`] — sorted keys, so output is
//! byte-stable for a given set of observations.

use crate::json::{push_json_f64, push_json_str};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Fixed-bucket histogram: counts per upper-bound bucket plus an
/// overflow bucket, with sum/count for mean recovery.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    /// Inclusive upper bounds of each bucket, ascending.
    bounds: Vec<f64>,
    /// `bounds.len() + 1` counts; the last is the overflow bucket.
    counts: Vec<u64>,
    /// Number of observations (finite samples only).
    count: u64,
    /// Sum of observations.
    sum: f64,
}

impl Histogram {
    /// A histogram with the given ascending bucket upper bounds.
    pub fn new(bounds: &[f64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must ascend");
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
        }
    }

    /// Record one sample. Non-finite samples are ignored (consistent
    /// with the repo-wide skip-NaN summary policy).
    pub fn observe(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        let idx = self
            .bounds
            .iter()
            .position(|b| v <= *b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += v;
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of recorded observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Per-bucket counts (last entry is the overflow bucket).
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    fn write_json(&self, out: &mut String) {
        out.push_str("{\"bounds\":[");
        for (i, b) in self.bounds.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_f64(out, *b);
        }
        out.push_str("],\"counts\":[");
        for (i, c) in self.counts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}", c);
        }
        let _ = write!(out, "],\"count\":{},\"sum\":", self.count);
        push_json_f64(out, self.sum);
        out.push('}');
    }
}

/// Counters, gauges, and histograms under stable dotted names.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `v` to counter `name` (creating it at 0).
    pub fn counter_add(&mut self, name: &str, v: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += v;
    }

    /// Current value of counter `name` (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Set gauge `name` to `v`.
    pub fn gauge_set(&mut self, name: &str, v: f64) {
        self.gauges.insert(name.to_string(), v);
    }

    /// Current value of gauge `name`.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// The histogram `name`, created with `bounds` when absent. The
    /// bounds of an existing histogram are kept (first writer wins).
    pub fn histogram(&mut self, name: &str, bounds: &[f64]) -> &mut Histogram {
        self.histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(bounds))
    }

    /// Look up a histogram without creating it.
    pub fn get_histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Fold `other` into `self`: counters add, gauges overwrite,
    /// histogram bucket counts add (bounds must match).
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, h) in &other.histograms {
            match self.histograms.get_mut(k) {
                None => {
                    self.histograms.insert(k.clone(), h.clone());
                }
                Some(mine) => {
                    assert_eq!(mine.bounds, h.bounds, "histogram {k}: bounds mismatch");
                    for (a, b) in mine.counts.iter_mut().zip(&h.counts) {
                        *a += b;
                    }
                    mine.count += h.count;
                    mine.sum += h.sum;
                }
            }
        }
    }

    /// Deterministic JSON snapshot: `{"counters":{...},"gauges":{...},
    /// "histograms":{...}}` with keys sorted.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(&mut out, k);
            let _ = write!(out, ":{}", v);
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(&mut out, k);
            out.push(':');
            push_json_f64(&mut out, *v);
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(&mut out, k);
            out.push(':');
            h.write_json(&mut out);
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let mut m = MetricsRegistry::new();
        m.counter_add("recovery.orphan_events", 3);
        m.counter_add("recovery.orphan_events", 2);
        m.gauge_set("run.overall_loss", 0.125);
        assert_eq!(m.counter("recovery.orphan_events"), 5);
        assert_eq!(m.gauge("run.overall_loss"), Some(0.125));
        assert_eq!(m.counter("missing"), 0);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new(&[1.0, 5.0, 10.0]);
        for v in [0.5, 0.9, 3.0, 7.0, 100.0] {
            h.observe(v);
        }
        assert_eq!(h.bucket_counts(), &[2, 1, 1, 1]);
        assert_eq!(h.count(), 5);
        assert!((h.mean() - 111.4 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_skips_non_finite() {
        let mut h = Histogram::new(&[1.0]);
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        h.observe(0.5);
        assert_eq!(h.count(), 1);
        assert_eq!(h.mean(), 0.5);
    }

    #[test]
    fn merge_adds_counters_and_buckets() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        a.counter_add("c", 1);
        b.counter_add("c", 2);
        b.counter_add("d", 7);
        a.histogram("h", &[1.0, 2.0]).observe(0.5);
        b.histogram("h", &[1.0, 2.0]).observe(1.5);
        a.merge(&b);
        assert_eq!(a.counter("c"), 3);
        assert_eq!(a.counter("d"), 7);
        assert_eq!(a.get_histogram("h").unwrap().bucket_counts(), &[1, 1, 0]);
    }

    #[test]
    fn json_snapshot_is_sorted_and_parser_friendly() {
        let mut m = MetricsRegistry::new();
        m.counter_add("z.last", 1);
        m.counter_add("a.first", 2);
        m.gauge_set("g", 1.5);
        m.histogram("h", &[1.0]).observe(0.5);
        let json = m.to_json();
        let a = json.find("a.first").unwrap();
        let z = json.find("z.last").unwrap();
        assert!(a < z, "{json}");
        assert!(json.contains("\"histograms\":{\"h\":{\"bounds\":[1.0],\"counts\":[1,0]"));
    }

    #[test]
    fn snapshot_is_deterministic_across_insertion_order() {
        let mut a = MetricsRegistry::new();
        a.counter_add("x", 1);
        a.counter_add("y", 2);
        let mut b = MetricsRegistry::new();
        b.counter_add("y", 2);
        b.counter_add("x", 1);
        assert_eq!(a.to_json(), b.to_json());
    }
}
