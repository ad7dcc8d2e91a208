//! The loopback harness: spawn a fleet of real `vdm-node` processes on
//! 127.0.0.1, stream a session through the UDP overlay they build, and
//! check the aggregated delivery/loss/reconnect statistics against an
//! in-process simulator run of the same scenario.
//!
//! This is the sim-vs-daemon equivalence gate at system scale: the two
//! paths share the protocol core ([`vdm_overlay::ProtocolCore`]) but
//! nothing else — different clocks, different transports, different
//! schedulers — so agreement here means the sans-io seam holds end to
//! end, not just in unit tests.
//!
//! Comparison is tolerance-based, not exact: wall clocks jitter, UDP on
//! loopback is only *almost* lossless, and join walks race heartbeats.
//! The tolerances are documented in EXPERIMENTS.md and deliberately
//! tight — a lossless LAN should deliver essentially everything.

use std::collections::BTreeMap;
use std::io;
use std::net::UdpSocket;
use std::path::PathBuf;
use std::process::Command;
use std::sync::Arc;

use crate::proto::{Protocol, Session};
use crate::report::{Fields, Report};
use crate::Effort;
use vdm_netsim::{HostId, LatencySpace, SimTime};
use vdm_overlay::driver::DriverConfig;
use vdm_overlay::scenario::{Action, Scenario};

/// Absolute delivery-ratio gap allowed between the daemon fleet and the
/// simulator reference (both should sit at ~1.0 on a lossless
/// loopback).
pub const DELIVERY_TOL: f64 = 0.05;
/// Reconnections tolerated beyond the simulator's count: a join walk
/// racing a wall-clock heartbeat can produce a spurious failover the
/// virtual clock never sees.
pub const RECONNECT_SLACK: u64 = 2;

/// Harness parameters (one value per CLI flag).
pub struct LoopbackConfig {
    /// Fleet size (processes).
    pub nodes: usize,
    /// Wall-clock run length per process, seconds.
    pub run_s: f64,
    /// Stream chunk interval, ms.
    pub chunk_interval_ms: u64,
    /// Source starts emitting this many ms in (lets the tree form).
    pub emit_start_ms: u64,
    /// Source stops emitting this many seconds before the end (lets
    /// repairs drain).
    pub emit_stop_before_s: f64,
    /// Joins are staggered uniformly over this window, ms.
    pub join_spread_ms: u64,
    /// Per-host degree limit.
    pub degree_limit: u32,
    /// Session seed (node RNGs and the simulator reference).
    pub seed: u64,
    /// Path to the `vdm-node` binary; `None` = sibling of the current
    /// executable.
    pub node_bin: Option<String>,
}

impl LoopbackConfig {
    /// The fleet at an effort tier: 16 processes and a shorter session
    /// at `Quick`, the 100-process acceptance gate at `Paper`.
    pub fn new(effort: Effort) -> Self {
        let (nodes, run_s, emit_start_ms, emit_stop_before_s, join_spread_ms) = match effort {
            Effort::Quick => (16, 9.0, 2_000, 1.5, 1_000),
            Effort::Paper => (100, 14.0, 3_000, 2.0, 2_000),
        };
        Self {
            nodes,
            run_s,
            chunk_interval_ms: 100,
            emit_start_ms,
            emit_stop_before_s,
            join_spread_ms,
            degree_limit: 4,
            seed: 42,
            node_bin: None,
        }
    }
}

/// Aggregated outcome of one harness run (daemon fleet vs simulator).
#[derive(Default)]
pub struct LoopbackReport {
    /// Fleet size.
    pub nodes: usize,
    /// Chunks the daemon source emitted.
    pub daemon_chunks: u64,
    /// Fleet-wide delivery ratio (received / (chunks × receivers)).
    pub daemon_delivery: f64,
    /// Fleet-wide join completions.
    pub daemon_joins: u64,
    /// Fleet-wide reconnection events.
    pub daemon_reconnects: u64,
    /// Fleet-wide structural invariant violations.
    pub daemon_violations: u64,
    /// Fleet-wide frame decode errors at the UDP edge.
    pub daemon_decode_errors: u64,
    /// Nodes that finished detached from the tree.
    pub daemon_detached: u64,
    /// Simulator reference delivery ratio.
    pub sim_delivery: f64,
    /// Simulator reference join completions.
    pub sim_joins: u64,
    /// Simulator reference reconnections.
    pub sim_reconnects: u64,
    /// Simulator reference violations.
    pub sim_violations: u64,
    /// Nodes that exited with a failure status, as messages.
    pub node_failures: Vec<String>,
}

impl LoopbackReport {
    /// The `BENCH_loopback.json` document and the equivalence gates.
    pub fn report(&self, effort: Effort, seed: u64) -> Report {
        let receivers = (self.nodes - 1) as u64;
        let mut failures = self.node_failures.clone();
        if self.daemon_chunks == 0 {
            failures.push("source emitted no chunks".into());
        }
        if self.daemon_detached > 0 {
            failures.push(format!("{} nodes finished detached", self.daemon_detached));
        }
        if self.daemon_joins < receivers {
            failures.push(format!(
                "only {} of {receivers} joins completed",
                self.daemon_joins
            ));
        }
        if self.daemon_violations > 0 {
            failures.push(format!(
                "{} structural invariant violations",
                self.daemon_violations
            ));
        }
        if self.daemon_decode_errors > 0 {
            failures.push(format!(
                "{} wire/transport errors",
                self.daemon_decode_errors
            ));
        }
        if (self.daemon_delivery - self.sim_delivery).abs() > DELIVERY_TOL {
            failures.push(format!(
                "delivery gap: daemon {:.4} vs sim {:.4} (tol {DELIVERY_TOL})",
                self.daemon_delivery, self.sim_delivery
            ));
        }
        if self.daemon_reconnects > self.sim_reconnects + RECONNECT_SLACK {
            failures.push(format!(
                "reconnects: daemon {} vs sim {} (+{RECONNECT_SLACK} slack)",
                self.daemon_reconnects, self.sim_reconnects
            ));
        }
        if self.sim_violations > 0 {
            failures.push(format!(
                "{} violations in the sim reference",
                self.sim_violations
            ));
        }
        Report {
            name: "loopback",
            tables: Vec::new(),
            header: Fields::default()
                .with("effort", effort.name())
                .with("seed", seed)
                .with("nodes", self.nodes)
                .with("daemon_chunks", self.daemon_chunks)
                .with("daemon_delivery", self.daemon_delivery)
                .with("daemon_joins", self.daemon_joins)
                .with("daemon_reconnects", self.daemon_reconnects)
                .with("daemon_violations", self.daemon_violations)
                .with("daemon_decode_errors", self.daemon_decode_errors)
                .with("daemon_detached", self.daemon_detached)
                .with("sim_delivery", self.sim_delivery)
                .with("sim_joins", self.sim_joins)
                .with("sim_reconnects", self.sim_reconnects)
                .with("sim_violations", self.sim_violations)
                .with("delivery_tolerance", DELIVERY_TOL),
            points: Vec::new(),
            failures,
        }
    }
}

fn io_err(msg: String) -> io::Error {
    io::Error::other(msg)
}

/// Locate the `vdm-node` binary: explicit path, or sibling of the
/// running `vdm-repro`.
fn node_binary(cfg: &LoopbackConfig) -> io::Result<PathBuf> {
    if let Some(p) = &cfg.node_bin {
        let p = PathBuf::from(p);
        if !p.is_file() {
            return Err(io_err(format!("--node-bin {}: not a file", p.display())));
        }
        return Ok(p);
    }
    let me = std::env::current_exe()?;
    let sibling = me.with_file_name("vdm-node");
    if sibling.is_file() {
        return Ok(sibling);
    }
    Err(io_err(format!(
        "vdm-node not found next to {} — build it (`cargo build -p vdm-node`) or pass --node-bin",
        me.display()
    )))
}

/// Reserve `n` distinct loopback UDP ports (bind-then-drop; a reuse
/// race surfaces as a loud child bind failure, never silent data
/// corruption).
fn free_ports(n: usize) -> io::Result<Vec<u16>> {
    let sockets: Vec<UdpSocket> = (0..n)
        .map(|_| UdpSocket::bind("127.0.0.1:0"))
        .collect::<io::Result<_>>()?;
    sockets.iter().map(|s| Ok(s.local_addr()?.port())).collect()
}

fn join_delay_ms(cfg: &LoopbackConfig, i: usize) -> u64 {
    // Deterministic uniform stagger over the join window (node 0 is
    // the source; it "joins" immediately as a no-op).
    if i == 0 || cfg.nodes <= 2 {
        0
    } else {
        cfg.join_spread_ms * (i as u64 - 1) / (cfg.nodes as u64 - 2).max(1)
    }
}

fn parse_stats_file(path: &std::path::Path) -> io::Result<BTreeMap<String, f64>> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| io_err(format!("reading {}: {e}", path.display())))?;
    let obj = vdm_trace::json::parse_flat_object(&text)
        .ok_or_else(|| io_err(format!("unparseable stats file {}", path.display())))?;
    obj.into_iter()
        .map(|(k, v)| {
            let num = match v {
                vdm_trace::json::Value::Bool(b) => f64::from(u8::from(b)),
                other => other.as_num().ok_or_else(|| {
                    io_err(format!("non-numeric stat `{k}` in {}", path.display()))
                })?,
            };
            Ok((k, num))
        })
        .collect()
}

/// The simulator reference: same fleet size, same join stagger, same
/// stream schedule, uniform 1 ms LAN, lossless — the in-process twin of
/// the loopback run.
fn sim_reference(cfg: &LoopbackConfig) -> (f64, u64, u64, u64) {
    let n = cfg.nodes;
    let rtt: Vec<Vec<f64>> = (0..n)
        .map(|i| (0..n).map(|j| if i == j { 0.0 } else { 1.0 }).collect())
        .collect();
    let actions: Vec<(SimTime, Action)> = (1..n)
        .map(|i| {
            (
                SimTime::from_ms(join_delay_ms(cfg, i) as f64),
                Action::Join(HostId(i as u32)),
            )
        })
        .collect();
    let end = SimTime::from_ms(cfg.run_s * 1_000.0);
    let scenario = Scenario::from_actions(actions, end);
    let out = Protocol::Vdm.run(Session::new(
        Arc::new(LatencySpace::from_rtt_matrix(&rtt)),
        None,
        HostId(0),
        &scenario,
        vec![cfg.degree_limit; n],
        DriverConfig {
            data_interval: Some(SimTime::from_ms(cfg.chunk_interval_ms as f64)),
            ..DriverConfig::default()
        },
        cfg.seed,
    ));
    let expected: u64 = out.stats.expected.iter().sum();
    let received: u64 = out.stats.received.iter().sum();
    let delivery = if expected > 0 {
        (received as f64 / expected as f64).min(1.0)
    } else {
        0.0
    };
    (
        delivery,
        out.stats.join_completions,
        out.stats.recovery.reconnections.len() as u64,
        out.stats.recovery.total_violations() as u64,
    )
}

/// Run the full harness: fleet, reference, aggregation. The gates are
/// [`LoopbackReport::report`]'s.
pub fn run(cfg: &LoopbackConfig) -> io::Result<LoopbackReport> {
    assert!(cfg.nodes >= 2, "need a source and at least one receiver");
    let bin = node_binary(cfg)?;
    let dir = std::env::temp_dir().join(format!("vdm-loopback-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let ports = free_ports(cfg.nodes)?;

    let peers_path = dir.join("peers.txt");
    let peers: String = ports
        .iter()
        .enumerate()
        .map(|(i, p)| format!("{i} 127.0.0.1:{p}\n"))
        .collect();
    std::fs::write(&peers_path, peers)?;

    println!(
        "  [loopback] spawning {} vdm-node processes ({}s session)",
        cfg.nodes, cfg.run_s
    );
    let mut children = Vec::new();
    for i in 0..cfg.nodes {
        let child = Command::new(&bin)
            .args([
                "--id",
                &i.to_string(),
                "--source",
                "0",
                "--peers",
                &peers_path.display().to_string(),
                "--run-s",
                &cfg.run_s.to_string(),
                "--chunk-interval-ms",
                &cfg.chunk_interval_ms.to_string(),
                "--emit-start-ms",
                &cfg.emit_start_ms.to_string(),
                "--emit-stop-before-s",
                &cfg.emit_stop_before_s.to_string(),
                "--join-delay-ms",
                &join_delay_ms(cfg, i).to_string(),
                "--degree-limit",
                &cfg.degree_limit.to_string(),
                "--seed",
                &cfg.seed.to_string(),
                "--stats-out",
                &dir.join(format!("stats-{i}.json")).display().to_string(),
            ])
            .spawn()
            .map_err(|e| io_err(format!("spawning {}: {e}", bin.display())))?;
        children.push(child);
    }

    let mut node_failures = Vec::new();
    for (i, mut child) in children.into_iter().enumerate() {
        let status = child.wait()?;
        if !status.success() {
            node_failures.push(format!("node {i} exited with {status}"));
        }
    }

    // Aggregate the fleet.
    let mut daemon_chunks = 0u64;
    let mut received = 0u64;
    let mut joins = 0u64;
    let mut reconnects = 0u64;
    let mut violations = 0u64;
    let mut decode_errors = 0u64;
    let mut detached = 0u64;
    for i in 0..cfg.nodes {
        let s = parse_stats_file(&dir.join(format!("stats-{i}.json")))?;
        let get = |k: &str| s.get(k).copied().unwrap_or(0.0) as u64;
        if i == 0 {
            daemon_chunks = get("source_chunks");
        } else {
            received += get("received_chunks");
            joins += get("join_completions");
            if get("connected") == 0 {
                detached += 1;
            }
        }
        reconnects += get("reconnections");
        violations += get("invariant_violations");
        decode_errors += get("decode_errors") + get("unknown_dest_drops") + get("send_errors");
    }
    let _ = std::fs::remove_dir_all(&dir);

    let receivers = (cfg.nodes - 1) as u64;
    let daemon_delivery = if daemon_chunks > 0 {
        (received as f64 / (daemon_chunks * receivers) as f64).min(1.0)
    } else {
        0.0
    };

    println!("  [loopback] running the simulator reference in-process");
    let (sim_delivery, sim_joins, sim_reconnects, sim_violations) = sim_reference(cfg);

    Ok(LoopbackReport {
        nodes: cfg.nodes,
        daemon_chunks,
        daemon_delivery,
        daemon_joins: joins,
        daemon_reconnects: reconnects,
        daemon_violations: violations,
        daemon_decode_errors: decode_errors,
        daemon_detached: detached,
        sim_delivery,
        sim_joins,
        sim_reconnects,
        sim_violations,
        node_failures,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every loopback gate fires on a report doctored to break it, in
    /// the order the gates are listed.
    #[test]
    fn doctored_report_fails_its_gates() {
        let clean = LoopbackReport {
            nodes: 16,
            daemon_chunks: 90,
            daemon_joins: 15,
            daemon_delivery: 1.0,
            sim_delivery: 1.0,
            ..LoopbackReport::default()
        };
        assert_eq!(
            clean.report(Effort::Quick, 42).failures,
            Vec::<String>::new()
        );

        let r = LoopbackReport {
            daemon_chunks: 0,
            daemon_delivery: 0.9,
            daemon_joins: 14,
            daemon_reconnects: 3,
            daemon_violations: 1,
            daemon_decode_errors: 2,
            daemon_detached: 1,
            sim_violations: 4,
            node_failures: vec!["node 3 exited with signal 9".into()],
            ..clean
        };
        assert_eq!(
            r.report(Effort::Quick, 42).failures,
            [
                "node 3 exited with signal 9",
                "source emitted no chunks",
                "1 nodes finished detached",
                "only 14 of 15 joins completed",
                "1 structural invariant violations",
                "2 wire/transport errors",
                "delivery gap: daemon 0.9000 vs sim 1.0000 (tol 0.05)",
                "reconnects: daemon 3 vs sim 0 (+2 slack)",
                "4 violations in the sim reference",
            ]
        );
    }
}
