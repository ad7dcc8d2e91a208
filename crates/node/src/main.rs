//! `vdm-node`: one VDM overlay host as a real process.
//!
//! The deterministic simulator and this daemon run the *same* state
//! machine — [`vdm_overlay::ProtocolCore`] — the daemon just supplies
//! the io the engine supplies in simulation: a UDP socket instead of
//! the event queue, a [`WallClock`] instead of virtual time, and a
//! [`BinaryHeap`] timer wheel instead of the engine's event heap.
//!
//! Architecture (one process, one thread per overlay host):
//!
//! ```text
//!   UDP socket (recv_from) ──────────────┐
//!   timer wheel (BinaryHeap) ────────────┤
//!   emit schedule (source only) ─────────┼──▶ ProtocolCore::handle ──▶ Output::Send ──▶ sendto
//!   join command (once, staggered) ──────┘                            Output::Timer ──▶ wheel
//! ```
//!
//! The async runtimes this would normally ride on are not available
//! offline, so the daemon is a plain blocking loop on one thread. Each
//! turn it runs what is due, sets the socket's receive timeout to the
//! next deadline and blocks in `recv_from`: a datagram costs one
//! wake-up, and a burst the loop cannot keep up with waits in the
//! kernel's bounded socket buffer. The kernel rounds a receive timeout
//! up to whole scheduler ticks, so a timer fires a few milliseconds
//! late (up to two ticks, 8 ms at 250 Hz), never early; datagrams still
//! wake the loop at once.
//!
//! Observability: the node's [`vdm_trace::MetricsRegistry`] is dumped
//! as JSON to `--metrics-out` on SIGUSR1 and every
//! `--metrics-interval-s`; a flat single-object summary (the fields the
//! loopback harness aggregates) is written to `--stats-out` at exit.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::ErrorKind;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use vdm_core::VdmFactory;
use vdm_netsim::{HostId, SimTime, WallClock};
use vdm_overlay::agent::AgentFactory;
use vdm_overlay::{Input, Output, OverlayAgent, ProtocolCore};

/// SIGUSR1 arrived: dump metrics at the next loop turn. Kept to the
/// async-signal-safe minimum — the handler only stores a flag.
static DUMP_METRICS: AtomicBool = AtomicBool::new(false);

/// Longest single receive. A signal interrupts a receive that has a
/// timeout (`EINTR`, never restarted), but one that lands between the
/// flag check and the receive entering the kernel does not; this bounds
/// how long such a dump request waits.
const MAX_WAIT: Duration = Duration::from_millis(50);

extern "C" fn on_sigusr1(_sig: i32) {
    DUMP_METRICS.store(true, Ordering::Relaxed);
}

/// Install the SIGUSR1 handler through the libc `signal` that std
/// already links; the `libc` crate is not available offline.
fn install_sigusr1() {
    // SIGUSR1 is 10 on every Linux ABI this runs on.
    const SIGUSR1: i32 = 10;
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    unsafe {
        signal(SIGUSR1, on_sigusr1 as *const () as usize);
    }
}

#[derive(Debug)]
struct Args {
    id: HostId,
    source: HostId,
    peers_path: String,
    run_s: f64,
    chunk_interval_ms: u64,
    emit_start_ms: u64,
    emit_stop_before_s: f64,
    join_delay_ms: u64,
    degree_limit: u32,
    seed: u64,
    stats_out: Option<String>,
    metrics_out: Option<String>,
    metrics_interval_s: Option<f64>,
}

fn usage() -> ! {
    eprintln!(
        "usage: vdm-node --id N --source N --peers FILE --run-s SECS \\\n\
         \x20        [--chunk-interval-ms N] [--emit-start-ms N] [--emit-stop-before-s F] \\\n\
         \x20        [--join-delay-ms N] [--degree-limit N] [--seed N] \\\n\
         \x20        [--stats-out FILE] [--metrics-out FILE] [--metrics-interval-s F]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut id = None;
    let mut source = None;
    let mut peers_path = None;
    let mut run_s = None;
    let mut chunk_interval_ms = 100;
    let mut emit_start_ms = 2_000;
    let mut emit_stop_before_s = 2.0;
    let mut join_delay_ms = 0;
    let mut degree_limit = 4;
    let mut seed = 1;
    let mut stats_out = None;
    let mut metrics_out = None;
    let mut metrics_interval_s = None;

    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |flag: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {flag}");
                usage()
            })
        };
        match flag.as_str() {
            "--id" => id = Some(parse_num(&val("--id"), "--id")),
            "--source" => source = Some(parse_num(&val("--source"), "--source")),
            "--peers" => peers_path = Some(val("--peers")),
            "--run-s" => run_s = Some(parse_num(&val("--run-s"), "--run-s")),
            "--chunk-interval-ms" => {
                chunk_interval_ms = parse_num(&val("--chunk-interval-ms"), "--chunk-interval-ms")
            }
            "--emit-start-ms" => {
                emit_start_ms = parse_num(&val("--emit-start-ms"), "--emit-start-ms")
            }
            "--emit-stop-before-s" => {
                emit_stop_before_s = parse_num(&val("--emit-stop-before-s"), "--emit-stop-before-s")
            }
            "--join-delay-ms" => {
                join_delay_ms = parse_num(&val("--join-delay-ms"), "--join-delay-ms")
            }
            "--degree-limit" => degree_limit = parse_num(&val("--degree-limit"), "--degree-limit"),
            "--seed" => seed = parse_num(&val("--seed"), "--seed"),
            "--stats-out" => stats_out = Some(val("--stats-out")),
            "--metrics-out" => metrics_out = Some(val("--metrics-out")),
            "--metrics-interval-s" => {
                metrics_interval_s = Some(parse_num(
                    &val("--metrics-interval-s"),
                    "--metrics-interval-s",
                ))
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }

    Args {
        id: HostId(id.unwrap_or_else(|| {
            eprintln!("--id is required");
            usage()
        })),
        source: HostId(source.unwrap_or_else(|| {
            eprintln!("--source is required");
            usage()
        })),
        peers_path: peers_path.unwrap_or_else(|| {
            eprintln!("--peers is required");
            usage()
        }),
        run_s: run_s.unwrap_or_else(|| {
            eprintln!("--run-s is required");
            usage()
        }),
        chunk_interval_ms,
        emit_start_ms,
        emit_stop_before_s,
        join_delay_ms,
        degree_limit,
        seed,
        stats_out,
        metrics_out,
        metrics_interval_s,
    }
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("bad value {s:?} for {flag}");
        usage()
    })
}

/// Parse the peers file: one `<host-id> <socket-addr>` per line, `#`
/// comments and blank lines ignored. Every node of a session gets the
/// same file; a node finds its own bind address under its own id. The
/// table is indexed by host id, `None` where the file names no host.
fn parse_peers(path: &str) -> Vec<Option<SocketAddr>> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read peers file {path}: {e}");
        std::process::exit(2);
    });
    let mut peers = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(id), Some(addr), None) = (parts.next(), parts.next(), parts.next()) else {
            eprintln!("{path}:{}: expected '<id> <addr>'", lineno + 1);
            std::process::exit(2);
        };
        let id: u32 = parse_num(id, "peer id");
        let addr: SocketAddr = parse_num(addr, "peer addr");
        let slot = HostId(id).idx();
        if peers.len() <= slot {
            peers.resize(slot + 1, None);
        }
        if peers[slot].replace(addr).is_some() {
            eprintln!("{path}:{}: duplicate peer id {id}", lineno + 1);
            std::process::exit(2);
        }
    }
    peers
}

/// The io around the protocol core: the socket, the peers table, the
/// timer wheel, and the counters the core does not keep.
struct Edge {
    socket: UdpSocket,
    peers: Vec<Option<SocketAddr>>,
    wheel: BinaryHeap<Reverse<(u64, u64)>>,
    /// One input's outputs; reused so a datagram allocates no list.
    outputs: Vec<Output>,
    frames_in: u64,
    frames_out: u64,
    decode_errors: u64,
    unknown_dest_drops: u64,
    send_errors: u64,
}

impl Edge {
    /// Feed one input to the core and perform the resulting effects:
    /// encode+send frames, arm wheel timers.
    fn drive<A: OverlayAgent>(&mut self, core: &mut ProtocolCore<A>, now: SimTime, input: Input) {
        // `handle`'s iterator borrows `core`, whose clock a timer arm
        // reads: buffer the outputs first.
        self.outputs.extend(core.handle(now, input));
        for out in self.outputs.drain(..) {
            match out {
                Output::Send { to, msg, class: _ } => {
                    let Some(addr) = self.peers.get(to.idx()).copied().flatten() else {
                        self.unknown_dest_drops += 1;
                        continue;
                    };
                    match vdm_proto::encode_frame(core.host(), &msg) {
                        Ok(frame) => {
                            if self.socket.send_to(&frame, addr).is_err() {
                                self.send_errors += 1;
                            } else {
                                self.frames_out += 1;
                            }
                        }
                        Err(_) => self.send_errors += 1,
                    }
                }
                Output::Timer { delay, token } => {
                    self.wheel.push(Reverse(((core.now() + delay).0, token)));
                }
            }
        }
    }
}

fn main() {
    let args = parse_args();
    let peers = parse_peers(&args.peers_path);
    let Some(my_addr) = peers.get(args.id.idx()).copied().flatten() else {
        eprintln!("own id {} not in peers file", args.id.0);
        std::process::exit(2);
    };
    let num_hosts = peers.len();

    let socket = UdpSocket::bind(my_addr).unwrap_or_else(|e| {
        eprintln!("bind {my_addr}: {e}");
        std::process::exit(1);
    });
    install_sigusr1();

    // The protocol core: the exact factory the simulation driver uses.
    let factory = VdmFactory::delay_based();
    let agent = factory.make(args.id, args.source, args.degree_limit, 0);
    let mut core = ProtocolCore::new(args.id, agent, num_hosts, args.seed);

    let mut clock = WallClock::new();
    let mut edge = Edge {
        socket,
        peers,
        wheel: BinaryHeap::new(),
        outputs: Vec::new(),
        frames_in: 0,
        frames_out: 0,
        decode_errors: 0,
        unknown_dest_drops: 0,
        send_errors: 0,
    };
    let mut buf = [0u8; vdm_proto::MAX_PAYLOAD + 4];

    let end = SimTime::from_ms(args.run_s * 1_000.0);
    let join_at = SimTime::from_ms(args.join_delay_ms as f64);
    let emit_interval = SimTime::from_ms(args.chunk_interval_ms as f64);
    let emit_stop = end.saturating_sub(SimTime::from_ms(args.emit_stop_before_s * 1_000.0));
    let is_source = args.id == args.source;
    let mut next_emit = if is_source {
        Some(SimTime::from_ms(args.emit_start_ms as f64))
    } else {
        None
    };
    let mut next_seq = 0u64;
    let mut joined = false;
    let metrics_interval = args
        .metrics_interval_s
        .map(|s| SimTime::from_ms(s * 1_000.0));
    let mut next_metrics = metrics_interval;
    let mut failed = false;

    loop {
        let now = clock.now();
        if now >= end {
            break;
        }

        // Operator events first (join precedes any timer it arms).
        if !joined && now >= join_at {
            joined = true;
            edge.drive(&mut core, now, Input::Join);
        }

        // Due timers, in deadline order.
        while let Some(&Reverse((at, token))) = edge.wheel.peek() {
            if at > now.0 {
                break;
            }
            edge.wheel.pop();
            edge.drive(&mut core, now, Input::Timer { token });
        }

        // Source stream schedule.
        if let Some(at) = next_emit {
            if now >= at && at < emit_stop {
                let seq = next_seq;
                next_seq += 1;
                next_emit = Some(at + emit_interval);
                edge.drive(&mut core, now, Input::EmitData { seq });
            } else if at >= emit_stop {
                next_emit = None;
            }
        }

        // Metrics dumps: operator signal or schedule.
        let interval_due = next_metrics.is_some_and(|at| now >= at);
        if DUMP_METRICS.swap(false, Ordering::Relaxed) || interval_due {
            if interval_due {
                next_metrics = metrics_interval.map(|iv| now + iv);
            }
            if let Some(path) = &args.metrics_out {
                write_metrics(path, &core, &edge);
            }
        }

        // Receive until the nearest deadline. One that is already due
        // is run first: the socket rejects a zero timeout.
        let mut wake = end;
        if let Some(&Reverse((at, _))) = edge.wheel.peek() {
            wake = wake.min(SimTime(at));
        }
        if !joined {
            wake = wake.min(join_at);
        }
        if let Some(at) = next_emit {
            wake = wake.min(at);
        }
        if let Some(at) = next_metrics {
            wake = wake.min(at);
        }
        let wait = wake.0.saturating_sub(clock.now().0);
        if wait == 0 {
            continue;
        }
        let received = edge
            .socket
            .set_read_timeout(Some(Duration::from_micros(wait).min(MAX_WAIT)))
            .and_then(|()| edge.socket.recv_from(&mut buf));
        match received {
            Ok((len, _src)) => match vdm_proto::decode_frame(&buf[..len]) {
                Ok((from, msg)) => {
                    edge.frames_in += 1;
                    edge.drive(&mut core, clock.now(), Input::Packet { from, msg });
                }
                // Malformed datagrams are counted, never fatal.
                Err(_) => edge.decode_errors += 1,
            },
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::TimedOut | ErrorKind::WouldBlock | ErrorKind::Interrupted
                ) => {}
            Err(e) => {
                eprintln!("vdm-node {}: receive failed: {e}", args.id.0);
                failed = true;
                break;
            }
        }
    }

    if let Some(path) = &args.metrics_out {
        write_metrics(path, &core, &edge);
    }
    if let Some(path) = &args.stats_out {
        write_stats(path, &core, &edge);
    }
    if failed {
        std::process::exit(1);
    }
}

/// Dump the full metrics registry (counters, gauges, histograms) as
/// nested JSON — the SIGUSR1 / interval observability surface.
fn write_metrics<A: OverlayAgent>(path: &str, core: &ProtocolCore<A>, edge: &Edge) {
    let mut reg = vdm_trace::MetricsRegistry::new();
    core.stats().export_metrics(&mut reg);
    reg.counter_add("node.frames_in", edge.frames_in);
    reg.counter_add("node.decode_errors", edge.decode_errors);
    reg.counter_add("node.frames_out", edge.frames_out);
    reg.counter_add("node.unknown_dest_drops", edge.unknown_dest_drops);
    reg.counter_add("node.send_errors", edge.send_errors);
    reg.gauge_set("node.id", f64::from(core.host().0));
    reg.gauge_set("node.now_s", core.now().as_secs());
    write_atomically(path, &reg.to_json());
}

/// Write the flat end-of-run summary the loopback harness aggregates.
fn write_stats<A: OverlayAgent>(path: &str, core: &ProtocolCore<A>, edge: &Edge) {
    let s = core.stats();
    let agent = core.agent();
    let mut w = vdm_trace::json::ObjWriter::new();
    w.u64("id", u64::from(core.host().0))
        .bool("connected", agent.connected())
        .f64("parent", agent.parent().map_or(-1.0, |p| f64::from(p.0)))
        .u64("source_chunks", s.source_chunks)
        .u64("received_chunks", s.received.iter().sum())
        .u64("join_completions", s.join_completions)
        .u64("walk_restarts", s.walk_restarts)
        .u64("reconnections", s.recovery.reconnections.len() as u64)
        .u64("orphan_events", s.recovery.orphan_events)
        .u64("invariant_violations", s.recovery.total_violations() as u64)
        .u64("nacks_sent", s.recovery.nacks_sent)
        .u64("chunks_repaired", s.recovery.chunks_repaired)
        .u64("frames_in", edge.frames_in)
        .u64("frames_out", edge.frames_out)
        .u64("decode_errors", edge.decode_errors)
        .u64("unknown_dest_drops", edge.unknown_dest_drops)
        .u64("send_errors", edge.send_errors)
        .f64("now_s", core.now().as_secs());
    write_atomically(path, &w.finish());
}

/// Write-then-rename so a reader never observes a torn file.
fn write_atomically(path: &str, contents: &str) {
    let tmp = format!("{path}.tmp");
    if std::fs::write(&tmp, contents).is_ok() {
        let _ = std::fs::rename(&tmp, path);
    }
}
