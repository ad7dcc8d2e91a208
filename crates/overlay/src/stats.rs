//! Run statistics and measurement records.

use std::fmt;

/// Mean/min/max summary of a sample set.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct Summary {
    /// Arithmetic mean (0 when empty).
    pub mean: f64,
    /// Minimum (0 when empty).
    pub min: f64,
    /// Maximum (0 when empty).
    pub max: f64,
    /// Number of samples.
    pub count: usize,
}

impl Summary {
    /// Summarize an iterator of samples.
    ///
    /// Non-finite samples (NaN, ±inf) are **skipped** and do not count:
    /// a NaN would otherwise poison the mean silently (and min/max
    /// depending on position), turning one degenerate measurement into
    /// a corrupted aggregate. Sources that can legitimately produce
    /// NaN (e.g. a 0/0 ratio over an empty slot) therefore simply
    /// contribute nothing, and `count` reports the samples actually
    /// summarized.
    pub fn of(values: impl IntoIterator<Item = f64>) -> Self {
        let mut sum = 0.0;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut count = 0usize;
        for v in values {
            if !v.is_finite() {
                continue;
            }
            sum += v;
            min = min.min(v);
            max = max.max(v);
            count += 1;
        }
        if count == 0 {
            Self::default()
        } else {
            Self {
                mean: sum / count as f64,
                min,
                max,
                count,
            }
        }
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mean {:.3} (min {:.3}, max {:.3}, n={})",
            self.mean, self.min, self.max, self.count
        )
    }
}

/// One measurement slot's worth of metrics (a point on the paper's
/// figures).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SlotMeasurement {
    /// Simulated time of the measurement, seconds.
    pub time_s: f64,
    /// Members in session.
    pub members: usize,
    /// Members with a parent (the rest are mid-join).
    pub connected: usize,
    /// Per-used-physical-link stress (routed underlays only; Eq. 3.4).
    pub stress: Option<Summary>,
    /// Per-receiver stretch (Eq. 3.5).
    pub stretch: Summary,
    /// Mean stretch over leaf members only (§5.4.3 shows this series).
    pub stretch_leaf_mean: f64,
    /// Per-receiver overlay hop count to the source (§5.3).
    pub hopcount: Summary,
    /// Mean hop count over leaf members only.
    pub hopcount_leaf_mean: f64,
    /// Sum of one-way latencies of the overlay links in use, ms (§5.3
    /// "network usage").
    pub usage_ms: f64,
    /// `usage_ms` normalized by the unicast star's usage.
    pub usage_normalized: f64,
    /// Slot loss rate: 1 - received/expected over the slot (Eq. 3.7),
    /// clamped at 0 (repair surplus is reported as `duplicates`).
    pub loss_rate: f64,
    /// Chunks delivered beyond the slot's expectation (NACK
    /// retransmits landing in this slot).
    pub duplicates: u64,
    /// Slot overhead: control messages / data messages sent (Eq. 3.6).
    pub overhead: f64,
    /// Slot overhead with the source's emitted chunk count as the
    /// denominator (the §5.4.2 PlanetLab variant of the metric).
    pub overhead_per_chunk: f64,
    /// Tree cost / MST cost over the same peers (§5.4.6), when computed.
    pub mst_ratio: Option<f64>,
    /// Structural errors found at this measurement (should be 0).
    pub tree_errors: usize,
}

/// Recovery observability under fault injection: how the control plane
/// rode out orphanings, partitions and message faults. Collected by the
/// agents during every run; only chaos runs read it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RecoveryStats {
    /// Times a connected peer lost its parent (graceful leave, watchdog
    /// firing, or heartbeat prune fallout).
    pub orphan_events: u64,
    /// Completed reconnections as `(completed_at_s, took_s)`: when the
    /// peer re-attached and how long it had been orphaned.
    pub reconnections: Vec<(f64, f64)>,
    /// Stream delivery gaps as `(resumed_at_s, gap_s)`, recorded when
    /// the spacing between two accepted chunks exceeded the agent's
    /// `gap_threshold` (measures per-fault outage as receivers see it).
    pub delivery_gaps: Vec<(f64, f64)>,
    /// Measurement slots that found structural tree errors, as
    /// `(time_s, error_count)` — tree-invariant violations over time.
    pub invariant_violations: Vec<(f64, usize)>,
    /// Direct failover attempts at pre-validated backup candidates
    /// (proactive-resilience extension; 0 when the mechanism is off).
    pub failover_attempts: u64,
    /// Failover attempts that re-attached without a walk.
    pub failover_successes: u64,
    /// NACK messages sent for stream gap repair.
    pub nacks_sent: u64,
    /// Stream chunks recovered through NACK repair.
    pub chunks_repaired: u64,
    /// Stream chunks declared unrecoverable after repair gave up
    /// (post-repair loss numerator).
    pub chunks_lost: u64,
    /// Join/rejoin requests delayed by token-bucket admission control.
    pub joins_throttled: u64,
    /// Join/rejoin requests shed to a sibling (or rejected) because the
    /// admission queue was full.
    pub joins_shed: u64,
    /// Cross-tree NACK messages sent (multi-tree extension: an orphaned
    /// stripe receiver pulling from a sibling-tree parent).
    pub cross_nacks_sent: u64,
    /// Stream chunks recovered through cross-tree repair.
    pub cross_repaired: u64,
    /// Cross-tree retransmissions whose sequence number did not belong
    /// to the receiver's stripe (must stay 0; counted rather than
    /// dropped silently so tests can assert the invariant).
    pub cross_stripe_violations: u64,
    /// Bootstrap-discovery probes sent (`PeerReq`; discovery extension,
    /// 0 when the mechanism is off).
    pub bootstrap_contacts: u64,
    /// Discovery episodes that found a live walk anchor, as
    /// `(found_at_s, took_s)`: when the anchor was chosen and how long
    /// after the first probe round (time-to-first-anchor).
    pub discovery_anchors: Vec<(f64, f64)>,
    /// Probes that timed out against a stale/dead view entry (the entry
    /// is retired on the spot).
    pub stale_peer_hits: u64,
    /// Discovery episodes that exhausted their view or round budget and
    /// fell back to the plain source-anchored walk.
    pub discovery_fallbacks: u64,
    /// `PeerReq` probes answered out of the serving budget.
    pub peer_reqs_served: u64,
    /// `PeerReq` probes shed (responder unattached or budget dry).
    pub peer_reqs_dropped: u64,
    /// Vivaldi spring-relaxation steps applied (coordinate-embedding
    /// extension; 0 when the embedding is off).
    pub coord_updates: u64,
    /// Joins that entered the walk at a coordinate-ranked anchor
    /// instead of the default entry point.
    pub guided_entries: u64,
}

fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        // NaN, not 0: per the aggregation policy, empty-sample medians
        // must be *skipped* by `Summary::of`/CI aggregation. Reporting 0
        // would conflate "no failovers happened" with "failover was
        // instant" in downstream CSV columns.
        return f64::NAN;
    }
    xs.sort_by(|a, b| a.total_cmp(b));
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

impl RecoveryStats {
    /// Summary of time-to-reconnect durations.
    pub fn reconnect_summary(&self) -> Summary {
        Summary::of(self.reconnections.iter().map(|&(_, d)| d))
    }

    /// Median time-to-reconnect (NaN when no reconnections happened —
    /// NaN-skipping aggregation drops the sample instead of reading an
    /// empty counter as an instant reconnect).
    pub fn reconnect_median(&self) -> f64 {
        median(self.reconnections.iter().map(|&(_, d)| d).collect())
    }

    /// Summary of delivery-gap durations.
    pub fn gap_summary(&self) -> Summary {
        Summary::of(self.delivery_gaps.iter().map(|&(_, d)| d))
    }

    /// Median delivery-gap duration (NaN when no gaps were recorded;
    /// see [`RecoveryStats::reconnect_median`]).
    pub fn gap_median(&self) -> f64 {
        median(self.delivery_gaps.iter().map(|&(_, d)| d).collect())
    }

    /// Median time-to-first-anchor (NaN when discovery never chose an
    /// anchor; see [`RecoveryStats::reconnect_median`]).
    pub fn anchor_median(&self) -> f64 {
        median(self.discovery_anchors.iter().map(|&(_, d)| d).collect())
    }

    /// Total structural errors observed across all measurement slots.
    pub fn total_violations(&self) -> usize {
        self.invariant_violations.iter().map(|&(_, n)| n).sum()
    }
}

/// Aggregate statistics of one simulation run.
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    /// Seconds from each join command to the established connection
    /// (§5.3 startup time).
    pub startup_s: Vec<f64>,
    /// Seconds from each orphaning to re-established connection (§5.3
    /// reconnection time).
    pub reconnection_s: Vec<f64>,
    /// Stream chunks emitted by the source.
    pub source_chunks: u64,
    /// Per-host chunks that should have been received (lifetime-based,
    /// Eq. 3.7 denominator).
    pub expected: Vec<u64>,
    /// Per-host chunks actually received (watermark-accepted).
    pub received: Vec<u64>,
    /// Join walks that had to restart (timeouts, rejections, departures
    /// mid-walk).
    pub walk_restarts: u64,
    /// Completed (re)connections.
    pub join_completions: u64,
    /// Connection requests rejected by targets.
    pub rejected_conns: u64,
    /// Measurements taken during the run.
    pub measurements: Vec<SlotMeasurement>,
    /// Fault-recovery observability (chaos runs).
    pub recovery: RecoveryStats,
}

impl RunStats {
    /// New stats block for `num_hosts` hosts.
    pub fn new(num_hosts: usize) -> Self {
        Self {
            expected: vec![0; num_hosts],
            received: vec![0; num_hosts],
            ..Self::default()
        }
    }

    /// Whole-run loss rate, Eq. 3.7, clamped at 0.
    ///
    /// NACK retransmits can push `received` above the lifetime-based
    /// `expected` denominator (a repaired chunk still counts as
    /// received even when the orphaned interval shrank `expected`);
    /// without the clamp the metric goes *negative*. The excess is
    /// reported separately by [`RunStats::duplicates_delivered`].
    pub fn overall_loss(&self) -> f64 {
        let exp: u64 = self.expected.iter().sum();
        let rcv: u64 = self.received.iter().sum();
        if exp == 0 {
            0.0
        } else {
            (1.0 - rcv as f64 / exp as f64).max(0.0)
        }
    }

    /// Chunks delivered beyond each host's lifetime-based expectation
    /// (summed per-host excess): the surplus that would otherwise
    /// drive [`RunStats::overall_loss`] negative, typically NACK
    /// retransmits landing after `expected` stopped accruing.
    pub fn duplicates_delivered(&self) -> u64 {
        self.received
            .iter()
            .zip(&self.expected)
            .map(|(&r, &e)| r.saturating_sub(e))
            .sum()
    }

    /// Mean of a per-slot metric over the last `n` measurements (the
    /// paper reports steady-state values).
    pub fn tail_mean(&self, n: usize, metric: impl Fn(&SlotMeasurement) -> f64) -> f64 {
        let slots = &self.measurements;
        let take = n.min(slots.len());
        if take == 0 {
            return 0.0;
        }
        slots[slots.len() - take..].iter().map(metric).sum::<f64>() / take as f64
    }

    /// Export this run's counters into the unified registry under the
    /// `run.*` / `recovery.*` namespaces (the single snapshot path for
    /// what used to live only in scattered struct fields).
    pub fn export_metrics(&self, m: &mut vdm_trace::MetricsRegistry) {
        m.counter_add("run.source_chunks", self.source_chunks);
        m.counter_add("run.walk_restarts", self.walk_restarts);
        m.counter_add("run.join_completions", self.join_completions);
        m.counter_add("run.rejected_conns", self.rejected_conns);
        m.counter_add("run.expected_chunks", self.expected.iter().sum());
        m.counter_add("run.received_chunks", self.received.iter().sum());
        m.counter_add("run.duplicates_delivered", self.duplicates_delivered());
        m.gauge_set("run.overall_loss", self.overall_loss());
        m.gauge_set("run.measurements", self.measurements.len() as f64);

        let r = &self.recovery;
        m.counter_add("recovery.orphan_events", r.orphan_events);
        m.counter_add("recovery.reconnections", r.reconnections.len() as u64);
        m.counter_add("recovery.delivery_gaps", r.delivery_gaps.len() as u64);
        m.counter_add("recovery.invariant_violations", r.total_violations() as u64);
        m.counter_add("recovery.failover_attempts", r.failover_attempts);
        m.counter_add("recovery.failover_successes", r.failover_successes);
        m.counter_add("recovery.nacks_sent", r.nacks_sent);
        m.counter_add("recovery.chunks_repaired", r.chunks_repaired);
        m.counter_add("recovery.chunks_lost", r.chunks_lost);
        m.counter_add("recovery.joins_throttled", r.joins_throttled);
        m.counter_add("recovery.joins_shed", r.joins_shed);
        m.counter_add("recovery.cross_nacks_sent", r.cross_nacks_sent);
        m.counter_add("recovery.cross_repaired", r.cross_repaired);
        m.counter_add(
            "recovery.cross_stripe_violations",
            r.cross_stripe_violations,
        );
        m.counter_add("discovery.bootstrap_contacts", r.bootstrap_contacts);
        m.counter_add("discovery.anchors", r.discovery_anchors.len() as u64);
        m.counter_add("discovery.stale_peer_hits", r.stale_peer_hits);
        m.counter_add("discovery.fallbacks", r.discovery_fallbacks);
        m.counter_add("discovery.peer_reqs_served", r.peer_reqs_served);
        m.counter_add("discovery.peer_reqs_dropped", r.peer_reqs_dropped);
        m.counter_add("coords.updates", r.coord_updates);
        m.counter_add("coords.guided_entries", r.guided_entries);
        // Fixed buckets in seconds: sub-second failover through
        // walk-scale (tens of seconds) recovery.
        const SECS: &[f64] = &[0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0];
        let h = m.histogram("recovery.reconnect_s", SECS);
        for &(_, d) in &r.reconnections {
            h.observe(d);
        }
        let h = m.histogram("recovery.gap_s", SECS);
        for &(_, d) in &r.delivery_gaps {
            h.observe(d);
        }
        let h = m.histogram("discovery.first_anchor_s", SECS);
        for &(_, d) in &r.discovery_anchors {
            h.observe(d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let s = Summary::of([1.0, 2.0, 3.0]);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert_eq!(s.count, 3);
        let e = Summary::of(std::iter::empty());
        assert_eq!(e, Summary::default());
        assert!(format!("{s}").contains("mean 2.000"));
    }

    #[test]
    fn overall_loss() {
        let mut rs = RunStats::new(3);
        rs.expected = vec![100, 50, 0];
        rs.received = vec![90, 45, 0];
        assert!((rs.overall_loss() - 0.1).abs() < 1e-9);
        let empty = RunStats::new(2);
        assert_eq!(empty.overall_loss(), 0.0);
    }

    #[test]
    fn summary_skips_non_finite_samples() {
        let s = Summary::of([1.0, f64::NAN, 3.0, f64::INFINITY, f64::NEG_INFINITY]);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert_eq!(s.count, 2);
        // All-NaN degenerates to the empty summary, not a NaN one.
        assert_eq!(Summary::of([f64::NAN, f64::NAN]), Summary::default());
    }

    #[test]
    fn overall_loss_clamps_and_counts_duplicates() {
        // NACK retransmits pushed host 0 above its lifetime-based
        // expectation; loss must clamp at 0, not go negative, and the
        // excess surfaces as duplicates.
        let mut rs = RunStats::new(3);
        rs.expected = vec![100, 50, 10];
        rs.received = vec![120, 48, 10];
        assert_eq!(rs.overall_loss(), 0.0);
        assert_eq!(rs.duplicates_delivered(), 20);
        // Per-host excess does not cancel against another host's loss
        // in the duplicates metric.
        rs.received = vec![120, 30, 10];
        assert_eq!(rs.duplicates_delivered(), 20);
        assert_eq!(rs.overall_loss(), 0.0);
        // Genuine loss is unaffected by the clamp.
        rs.received = vec![90, 45, 10];
        assert!(rs.overall_loss() > 0.0);
        assert_eq!(rs.duplicates_delivered(), 0);
    }

    #[test]
    fn export_metrics_absorbs_recovery_counters() {
        let mut rs = RunStats::new(2);
        rs.expected = vec![10, 10];
        rs.received = vec![12, 9];
        rs.walk_restarts = 4;
        rs.recovery.orphan_events = 3;
        rs.recovery.reconnections = vec![(10.0, 0.7), (20.0, 12.0)];
        rs.recovery.nacks_sent = 5;
        rs.recovery.bootstrap_contacts = 7;
        rs.recovery.discovery_anchors = vec![(5.0, 0.4)];
        rs.recovery.stale_peer_hits = 2;
        rs.recovery.discovery_fallbacks = 1;
        rs.recovery.peer_reqs_served = 6;
        rs.recovery.peer_reqs_dropped = 3;
        rs.recovery.coord_updates = 9;
        rs.recovery.guided_entries = 4;
        let mut m = vdm_trace::MetricsRegistry::new();
        rs.export_metrics(&mut m);
        assert_eq!(m.counter("recovery.orphan_events"), 3);
        assert_eq!(m.counter("recovery.nacks_sent"), 5);
        assert_eq!(m.counter("run.walk_restarts"), 4);
        assert_eq!(m.counter("run.duplicates_delivered"), 2);
        assert_eq!(m.gauge("run.overall_loss"), Some(0.0));
        let h = m.get_histogram("recovery.reconnect_s").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(m.counter("discovery.bootstrap_contacts"), 7);
        assert_eq!(m.counter("discovery.anchors"), 1);
        assert_eq!(m.counter("discovery.stale_peer_hits"), 2);
        assert_eq!(m.counter("discovery.fallbacks"), 1);
        assert_eq!(m.counter("discovery.peer_reqs_served"), 6);
        assert_eq!(m.counter("discovery.peer_reqs_dropped"), 3);
        assert_eq!(m.counter("coords.updates"), 9);
        assert_eq!(m.counter("coords.guided_entries"), 4);
        let h = m.get_histogram("discovery.first_anchor_s").unwrap();
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn recovery_summaries() {
        let r = RecoveryStats {
            orphan_events: 3,
            reconnections: vec![(100.0, 2.0), (150.0, 4.0)],
            delivery_gaps: vec![(101.0, 6.0)],
            invariant_violations: vec![(60.0, 1), (120.0, 2)],
            discovery_anchors: vec![(10.0, 1.0), (11.0, 3.0)],
            ..RecoveryStats::default()
        };
        assert_eq!(r.anchor_median(), 2.0);
        assert_eq!(r.reconnect_summary().mean, 3.0);
        assert_eq!(r.reconnect_summary().count, 2);
        assert_eq!(r.reconnect_median(), 3.0);
        assert_eq!(r.gap_summary().count, 1);
        assert_eq!(r.gap_median(), 6.0);
        assert_eq!(r.total_violations(), 3);
        assert_eq!(RecoveryStats::default().total_violations(), 0);
    }

    /// Zero-sample medians must be NaN (skipped by `Summary::of` and CI
    /// aggregation), never 0: "no failovers" is not "instant failover".
    #[test]
    fn empty_medians_are_nan_and_skipped_by_aggregation() {
        let empty = RecoveryStats::default();
        assert!(empty.reconnect_median().is_nan());
        assert!(empty.gap_median().is_nan());
        assert!(empty.anchor_median().is_nan());
        let s = Summary::of([empty.reconnect_median(), 2.0, 4.0]);
        assert_eq!(s.count, 2);
        assert_eq!(s.mean, 3.0);
    }

    #[test]
    fn median_handles_odd_counts() {
        let r = RecoveryStats {
            reconnections: vec![(1.0, 9.0), (2.0, 1.0), (3.0, 5.0)],
            ..RecoveryStats::default()
        };
        assert_eq!(r.reconnect_median(), 5.0);
    }

    #[test]
    fn tail_mean() {
        let mut rs = RunStats::new(1);
        for i in 0..5 {
            rs.measurements.push(SlotMeasurement {
                loss_rate: i as f64,
                ..SlotMeasurement::default()
            });
        }
        assert_eq!(rs.tail_mean(2, |m| m.loss_rate), 3.5);
        assert_eq!(rs.tail_mean(100, |m| m.loss_rate), 2.0);
        assert_eq!(RunStats::new(1).tail_mean(3, |m| m.loss_rate), 0.0);
    }
}
