//! The benchmark's fixed vocabulary: workload names, end-to-end metrics
//! with their regression bounds, per-layer metrics with the end-to-end
//! metric each should move. `BENCHMARK.json` is generated from these
//! tables (`vdm-perf spec`) and the smoke test pins the committed file
//! to them, so a name exists in exactly one place.

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One workload: its name and the one-line reason it exists.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const CH3_CHURN: &str = "ch3_churn";
pub const SOAK_RESILIENT: &str = "soak_resilient";
pub const JOIN_ONDEMAND: &str = "join_ondemand";
pub const JOIN_GUIDED: &str = "join_guided";
pub const STREAM_FANOUT: &str = "stream_fanout";
pub const NODE_RELAY: &str = "node_relay";

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: CH3_CHURN,
        why: "The paper's 200-member churn session through Driver + ProtocolAgent: the reference mix, 92% chunk deliveries plus ~1000 real join walks.",
    },
    Workload {
        name: SOAK_RESILIENT,
        why: "Same agent with failover, admission, NACK repair and heartbeats on under crash bursts: the timer and control path, not the steady data path.",
    },
    Workload {
        name: JOIN_ONDEMAND,
        why: "Real-stack joins over the row-LRU OnDemandRouter where rows are reused: the underlay oracle does nearly all the work.",
    },
    Workload {
        name: JOIN_GUIDED,
        why: "Coordinate-guided sync join sweep whose scattered probes thrash the row LRU: the standing guided-join perf debt.",
    },
    Workload {
        name: STREAM_FANOUT,
        why: "Pure forwarding, zero control traffic, on a large dense-routed tree: engine heap, the agent's Data fan-out and cache-missing route lookups, nothing else.",
    },
    Workload {
        name: NODE_RELAY,
        why: "One real vdm-node relaying an open-loop UDP stream on loopback: the only workload with syscalls, the reader-thread hop and the codec.",
    },
];

/// One end-to-end metric. Every workload reports every one of them.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const SETUP_S: &str = "setup_s";
pub const OP_US_P10: &str = "op_us_p10";
pub const PEAK_RSS_MB: &str = "peak_rss_mb";
pub const DELIVERY_RATIO: &str = "delivery_ratio";

pub const END_TO_END: [EndToEnd; 4] = [
    // 10th percentile over timed units of a unit's wall us per operation
    // (this box's noise is one-sided and lasts seconds: a unit is never
    // faster than the code allows, so the low percentile is the steady
    // estimate; the median is `wall_s`). Operation: one expected chunk
    // delivery (ch3_churn, soak_resilient, stream_fanout), one join
    // (join_ondemand, join_guided); node_relay: a round's median emit-due
    // to leaf-receive latency of one relayed copy.
    EndToEnd {
        name: OP_US_P10,
        unit: "us",
        better: Better::Lower,
        // The contract's ceiling: on the shared 2-vCPU box this was sized
        // on, ten-run quartile distances read 2-6 % of the median in quiet
        // spells and up to 15 % when a neighbour is busy for minutes.
        bound: 0.25,
    },
    // Succeeded / attempted operations (1 - fail_ratio): chunks delivered
    // / expected, joiners with a parent / joins issued, relayed copies
    // received / expected. Simulated or exact, so a run repeats it to the
    // last bit per seed.
    EndToEnd {
        name: DELIVERY_RATIO,
        unit: "ratio",
        better: Better::Higher,
        // The ratio is within 3 % of 1, so this is ISSUE 12's absolute
        // bound on `fail_ratio` to within that, widened from 0.001:
        // soak_resilient's crash bursts differ per seed and its ratio's
        // quartile distance across seeds is 0.10-0.13 %, a third of this.
        bound: 0.005,
    },
    // VmHWM of the workload's process (node_relay: of the daemon).
    EndToEnd {
        name: PEAK_RSS_MB,
        unit: "MB",
        better: Better::Lower,
        bound: 0.1,
    },
    // Median wall seconds of one cold set-up: topology + routing build +
    // scenario (ch3_churn, stream_fanout: plus the join phase; node_relay:
    // spawn to tree formed to the end of the untimed stream).
    EndToEnd {
        name: SETUP_S,
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// One per-layer metric. `BENCHMARK.json` may carry only its name, unit
/// and direction; `vdm-perf compare` prints the rest next to its diff.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The crate that does the work.
    pub layer: &'static str,
    /// The end-to-end metric and the workloads it is expected to move.
    pub moves: &'static str,
    /// Set on the paper's statistics, which the contract keeps out of the
    /// end-to-end list (a workload has to report every end-to-end metric,
    /// and none may read 0): `vdm-perf compare` holds them to this share
    /// of the parent's median on every workload that reports one.
    pub bound: Option<f64>,
}

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        layer,
        moves,
        bound: None,
    }
}

/// A simulated statistic of the paper: repeats exactly per seed, so
/// ISSUE 12's 0.1 % is a bound on behaviour, not on noise.
const fn paper(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Lower,
        layer: "vdm-overlay",
        moves,
        bound: Some(0.001),
    }
}

use Better::{Higher, Lower};

const TOPO_SETUP: &str = "setup_s on stream_fanout and ch3_churn; nothing on join_*";
const TOPO_ROWS: &str =
    "op_us_p10 on join_guided first, join_ondemand second; zero on dense workloads";
const UNDERLAY: &str =
    "op_us_p10 on join_ondemand and join_guided (over 90%); a third to a half on ch3_churn/stream_fanout";
const ENGINE: &str = "op_us_p10 on stream_fanout and ch3_churn; negligible on join_*";
const DATA: &str = "op_us_p10 on stream_fanout and ch3_churn";
const CTRL: &str = "op_us_p10 on soak_resilient and join_ondemand";
const OUTCOME: &str = "delivery_ratio on soak_resilient and ch3_churn; op_us_p10 on join_guided";
const PROTO: &str = "node.user_us_per_chunk, hence op_us_p10 on node_relay (small share)";
const NODE: &str = "op_us_p10 and delivery_ratio on node_relay; reported, not gated";
const BENCH: &str = "the benchmark itself";

/// Message kinds with a per-kind row (the rest fold into `other`).
pub const MSG_KINDS: [&str; 10] = [
    "info_req",
    "info_resp",
    "ping",
    "pong",
    "conn_req",
    "conn_resp",
    "parent_change",
    "heartbeat",
    "nack",
    "other",
];

pub const PER_LAYER: &[PerLayer] = &[
    // vdm-topology: set-up builds.
    pl(
        "topology.graph_gen_s",
        "s",
        Lower,
        "vdm-topology",
        TOPO_SETUP,
    ),
    pl("topology.apsp_s", "s", Lower, "vdm-topology", TOPO_SETUP),
    // vdm-topology: on-demand routing rows.
    pl(
        "topology.row_hits",
        "count",
        Higher,
        "vdm-topology",
        TOPO_ROWS,
    ),
    pl(
        "topology.row_misses",
        "count",
        Lower,
        "vdm-topology",
        TOPO_ROWS,
    ),
    pl(
        "topology.row_evictions",
        "count",
        Lower,
        "vdm-topology",
        TOPO_ROWS,
    ),
    pl(
        "topology.row_hit_ratio",
        "ratio",
        Higher,
        "vdm-topology",
        TOPO_ROWS,
    ),
    pl(
        "topology.row_build_us",
        "us",
        Lower,
        "vdm-topology",
        TOPO_ROWS,
    ),
    // vdm-netsim: the underlay oracle behind the `Underlay` trait.
    pl(
        "netsim.underlay_calls",
        "count",
        Lower,
        "vdm-netsim",
        UNDERLAY,
    ),
    pl("netsim.underlay_busy_s", "s", Lower, "vdm-netsim", UNDERLAY),
    pl(
        "netsim.underlay_ns_per_call",
        "ns",
        Lower,
        "vdm-netsim",
        UNDERLAY,
    ),
    // vdm-netsim: the event engine.
    pl("netsim.engine_events", "count", Lower, "vdm-netsim", ENGINE),
    pl("netsim.events_per_s", "1/s", Higher, "vdm-netsim", ENGINE),
    pl("netsim.engine_self_s", "s", Lower, "vdm-netsim", ENGINE),
    pl(
        "netsim.engine_ns_per_event",
        "ns",
        Lower,
        "vdm-netsim",
        ENGINE,
    ),
    pl("netsim.control_sent", "count", Lower, "vdm-netsim", ENGINE),
    pl("netsim.data_sent", "count", Lower, "vdm-netsim", ENGINE),
    pl("netsim.data_dropped", "count", Lower, "vdm-netsim", ENGINE),
    // vdm-overlay: data path.
    pl("overlay.data_calls", "count", Lower, "vdm-overlay", DATA),
    pl("overlay.data_busy_s", "s", Lower, "vdm-overlay", DATA),
    pl("overlay.data_ns_per_call", "ns", Lower, "vdm-overlay", DATA),
    // vdm-overlay: control path.
    pl("overlay.ctrl_calls", "count", Lower, "vdm-overlay", CTRL),
    pl("overlay.ctrl_busy_s", "s", Lower, "vdm-overlay", CTRL),
    pl("overlay.timer_calls", "count", Lower, "vdm-overlay", CTRL),
    pl("overlay.timer_busy_s", "s", Lower, "vdm-overlay", CTRL),
    pl("overlay.join_cmd_busy_s", "s", Lower, "vdm-overlay", CTRL),
    pl(
        "overlay.msg_info_req_calls",
        "count",
        Lower,
        "vdm-overlay",
        CTRL,
    ),
    pl(
        "overlay.msg_info_req_busy_s",
        "s",
        Lower,
        "vdm-overlay",
        CTRL,
    ),
    pl(
        "overlay.msg_info_resp_calls",
        "count",
        Lower,
        "vdm-overlay",
        CTRL,
    ),
    pl(
        "overlay.msg_info_resp_busy_s",
        "s",
        Lower,
        "vdm-overlay",
        CTRL,
    ),
    pl(
        "overlay.msg_ping_calls",
        "count",
        Lower,
        "vdm-overlay",
        CTRL,
    ),
    pl("overlay.msg_ping_busy_s", "s", Lower, "vdm-overlay", CTRL),
    pl(
        "overlay.msg_pong_calls",
        "count",
        Lower,
        "vdm-overlay",
        CTRL,
    ),
    pl("overlay.msg_pong_busy_s", "s", Lower, "vdm-overlay", CTRL),
    pl(
        "overlay.msg_conn_req_calls",
        "count",
        Lower,
        "vdm-overlay",
        CTRL,
    ),
    pl(
        "overlay.msg_conn_req_busy_s",
        "s",
        Lower,
        "vdm-overlay",
        CTRL,
    ),
    pl(
        "overlay.msg_conn_resp_calls",
        "count",
        Lower,
        "vdm-overlay",
        CTRL,
    ),
    pl(
        "overlay.msg_conn_resp_busy_s",
        "s",
        Lower,
        "vdm-overlay",
        CTRL,
    ),
    pl(
        "overlay.msg_parent_change_calls",
        "count",
        Lower,
        "vdm-overlay",
        CTRL,
    ),
    pl(
        "overlay.msg_parent_change_busy_s",
        "s",
        Lower,
        "vdm-overlay",
        CTRL,
    ),
    pl(
        "overlay.msg_heartbeat_calls",
        "count",
        Lower,
        "vdm-overlay",
        CTRL,
    ),
    pl(
        "overlay.msg_heartbeat_busy_s",
        "s",
        Lower,
        "vdm-overlay",
        CTRL,
    ),
    pl(
        "overlay.msg_nack_calls",
        "count",
        Lower,
        "vdm-overlay",
        CTRL,
    ),
    pl("overlay.msg_nack_busy_s", "s", Lower, "vdm-overlay", CTRL),
    pl(
        "overlay.msg_other_calls",
        "count",
        Lower,
        "vdm-overlay",
        CTRL,
    ),
    pl("overlay.msg_other_busy_s", "s", Lower, "vdm-overlay", CTRL),
    // vdm-overlay: outcomes (RunStats / RecoveryStats).
    pl(
        "overlay.join_completions",
        "count",
        Higher,
        "vdm-overlay",
        OUTCOME,
    ),
    pl(
        "overlay.walk_restarts",
        "count",
        Lower,
        "vdm-overlay",
        OUTCOME,
    ),
    pl("overlay.nacks_sent", "count", Lower, "vdm-overlay", OUTCOME),
    pl(
        "overlay.chunks_repaired",
        "count",
        Higher,
        "vdm-overlay",
        OUTCOME,
    ),
    pl(
        "overlay.failover_attempts",
        "count",
        Lower,
        "vdm-overlay",
        OUTCOME,
    ),
    pl(
        "overlay.failover_successes",
        "count",
        Higher,
        "vdm-overlay",
        OUTCOME,
    ),
    pl(
        "overlay.joins_throttled",
        "count",
        Lower,
        "vdm-overlay",
        OUTCOME,
    ),
    pl(
        "overlay.invariant_violations",
        "count",
        Lower,
        "vdm-overlay",
        OUTCOME,
    ),
    pl(
        "overlay.sync_walk_self_s",
        "s",
        Lower,
        "vdm-overlay",
        OUTCOME,
    ),
    // The paper's own statistics and the issue's workload-specific
    // outcomes (simulated; identical in traced and untraced runs): ISSUE
    // 12's bounded end-to-end metrics that the contract cannot hold.
    paper(
        "stretch_mean",
        "ratio",
        "itself: ch3_churn (tail slots), stream_fanout (final tree)",
    ),
    paper("stress_mean", "ratio", "itself: ch3_churn"),
    paper(
        "loss_pct",
        "%",
        "itself and delivery_ratio: ch3_churn (tail slots), soak_resilient (after repair)",
    ),
    paper("overhead_pct", "%", "itself: ch3_churn"),
    paper("reconnect_s_p50", "s", "itself: soak_resilient"),
    paper(
        "join_startup_s_p50",
        "s",
        "itself: ch3_churn, soak_resilient, join_ondemand, stream_fanout",
    ),
    paper("contacts_per_join", "count", "itself: join_guided"),
    // vdm-proto: the codec on a fixed corpus.
    pl("proto.encode_ns_data", "ns", Lower, "vdm-proto", PROTO),
    pl("proto.decode_ns_data", "ns", Lower, "vdm-proto", PROTO),
    pl("proto.encode_ns_inforesp4", "ns", Lower, "vdm-proto", PROTO),
    pl("proto.decode_ns_inforesp4", "ns", Lower, "vdm-proto", PROTO),
    pl("proto.frame_bytes_data", "B", Lower, "vdm-proto", PROTO),
    // vdm-overlay: the sans-io core on the relay hop.
    pl(
        "overlay.core_handle_ns_data",
        "ns",
        Lower,
        "vdm-overlay",
        PROTO,
    ),
    // vdm-node: the daemon process.
    pl("node.cpu_us_per_chunk", "us", Lower, "vdm-node", NODE),
    pl("node.user_us_per_chunk", "us", Lower, "vdm-node", NODE),
    pl("node.sys_us_per_chunk", "us", Lower, "vdm-node", NODE),
    pl("node.latency_us_p90", "us", Lower, "vdm-node", NODE),
    pl("node.latency_us_p99", "us", Lower, "vdm-node", NODE),
    pl("node.frames_in", "count", Higher, "vdm-node", NODE),
    pl("node.frames_out", "count", Higher, "vdm-node", NODE),
    pl("node.decode_errors", "count", Lower, "vdm-node", NODE),
    pl("node.send_errors", "count", Lower, "vdm-node", NODE),
    pl("node.startup_ms", "ms", Lower, "vdm-node", NODE),
    pl("node.gen_late_us_p99", "us", Lower, "vdm-node", NODE),
    pl("node.rounds_discarded", "count", Lower, "vdm-node", NODE),
    // The benchmark itself.
    pl("bench.trace_overhead_ratio", "ratio", Lower, "bench", BENCH),
    pl("wall_s", "s", Lower, "bench", BENCH),
    pl("bench.units", "count", Higher, "bench", BENCH),
    pl("bench.ops_per_unit", "count", Higher, "bench", BENCH),
];

/// Wall seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 10;

fn push_str(out: &mut String, s: &str) {
    vdm_trace::json::push_json_str(out, s);
}

/// Render `BENCHMARK.json` from the tables above.
pub fn benchmark_json() -> String {
    let mut o = String::from("{\n  \"command\": [\"bash\", \"perf/run.sh\"],\n");
    o.push_str("  \"paths\": [\"perf\"],\n");
    o.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    o.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        o.push_str("    {\"name\": ");
        push_str(&mut o, w.name);
        o.push_str(", \"why\": ");
        push_str(&mut o, w.why);
        o.push_str(if i + 1 < WORKLOADS.len() {
            "},\n"
        } else {
            "}\n"
        });
    }
    o.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        o.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound,
            if i + 1 < END_TO_END.len() { "," } else { "" }
        ));
    }
    o.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        o.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            if i + 1 < PER_LAYER.len() { "," } else { "" }
        ));
    }
    o.push_str("  ]\n}\n");
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str) -> bool {
        let mut cs = s.chars();
        cs.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.len() <= 64
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_meet_the_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(name_ok(n), "bad name {n:?}");
        }
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        for m in &END_TO_END {
            assert!(
                unit_ok(m.unit) && m.bound > 0.0 && m.bound <= 0.25,
                "{}",
                m.name
            );
        }
        for m in PER_LAYER {
            assert!(unit_ok(m.unit), "{}", m.name);
            assert!(!m.layer.is_empty() && !m.moves.is_empty(), "{}", m.name);
        }
        // ISSUE 12's seven workload-specific end-to-end metrics, bounded
        // down here because the contract keeps them out of the list above.
        let gated: Vec<&str> = PER_LAYER
            .iter()
            .filter(|m| m.bound.is_some())
            .map(|m| m.name)
            .collect();
        assert_eq!(
            gated,
            [
                "stretch_mean",
                "stress_mean",
                "loss_pct",
                "overhead_pct",
                "reconnect_s_p50",
                "join_startup_s_p50",
                "contacts_per_join"
            ]
        );
        let setup = END_TO_END.iter().find(|m| m.name == SETUP_S).unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "setup_s takes the largest bound");
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(benchmark_json().len() < 64 * 1024);
    }

    #[test]
    fn message_rows_follow_the_kind_table() {
        // `workloads::fold_totals` builds these names from the kinds.
        let rows: Vec<&str> = PER_LAYER
            .iter()
            .map(|m| m.name)
            .filter(|n| n.starts_with("overlay.msg_"))
            .collect();
        let want: Vec<String> = MSG_KINDS
            .iter()
            .flat_map(|k| {
                [
                    format!("overlay.msg_{k}_calls"),
                    format!("overlay.msg_{k}_busy_s"),
                ]
            })
            .collect();
        assert_eq!(rows, want);
    }
}
