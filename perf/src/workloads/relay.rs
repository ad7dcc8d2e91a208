//! `node_relay`: one real `vdm-node` process relaying an open-loop
//! stream over 127.0.0.1 UDP (the host's loopback, not a real link).
//!
//! The benchmark process is one thread on one non-blocking socket. It
//! plays the source (host 0) and the four leaf children (hosts 2–5) as
//! scripted wire peers: every id but the daemon's maps to this socket in
//! the peers file. Scripted, because real cores on the bench side splice
//! non-deterministically on noisy loopback RTTs; one daemon, because
//! more processes than cores would measure the scheduler.

use std::io::ErrorKind;
use std::net::UdpSocket;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use vdm_core::VdmFactory;
use vdm_netsim::{HostId, SimTime};
use vdm_overlay::agent::{AgentFactory, OverlayAgent};
use vdm_overlay::msg::{ConnKind, ConnResult, Msg};
use vdm_overlay::{Input, Output, ProtocolCore};
use vdm_proto::{decode_frame, encode_frame};

use super::{drive, peak_rss_mb_of, Iter, Outcome, Params, Plan, Unit};
use crate::stat::percentile;
use crate::trace::Spans;

const SOURCE: HostId = HostId(0);
const DAEMON: HostId = HostId(1);
const LEAVES: [HostId; 4] = [HostId(2), HostId(3), HostId(4), HostId(5)];
/// Wall seconds the daemon gets to start and join before the bench
/// gives up on it.
const STARTUP_ALLOWANCE_S: f64 = 0.3;
/// Untimed stream before the timed one: the daemon's first packets pay
/// page faults and socket-buffer growth that a relay in service does not.
const WARMUP_S: f64 = 0.25;
/// Wall seconds after the last chunk for its copies to come back.
const DRAIN_S: f64 = 0.05;
/// Linux reports process CPU time in 1/100 s ticks on every ABI.
const TICKS_PER_S: f64 = 100.0;
/// Rounds one run may discard because the bench itself stalled.
const MAX_DISCARDED: usize = 2;

/// How a round ended.
enum Round {
    Measured(Iter),
    /// The bench's own thread stalled (its sends ran late, or its socket
    /// overflowed while the daemon provably relayed every chunk): the
    /// numbers say nothing about the daemon, so the round is run again.
    Discarded(String),
}

/// What the scripted source answers to a request from the daemon.
fn answer_as_source(msg: &Msg) -> Option<Msg> {
    match msg {
        Msg::InfoReq { nonce } => Some(Msg::InfoResp {
            nonce: *nonce,
            children: Vec::new(),
            parent: None,
            coord: None,
        }),
        Msg::Ping { nonce } => Some(Msg::Pong {
            nonce: *nonce,
            coord: None,
        }),
        Msg::ConnReq { nonce, .. } => Some(Msg::ConnResp {
            nonce: *nonce,
            result: ConnResult::Accepted {
                grandparent: None,
                adopted: Vec::new(),
                root_path: Vec::new(),
            },
        }),
        _ => None,
    }
}

/// The connection request leaf `i` sends the daemon.
fn leaf_conn_req(i: usize) -> Msg {
    Msg::ConnReq {
        nonce: 0x1eaf_0000 + i as u64,
        kind: ConnKind::Child,
        vdist: 1.0,
        coord: None,
    }
}

/// Restrict the calling thread (and what it spawns from now on) to one
/// CPU. Through the libc `sched_setaffinity` that std already links; the
/// `libc` crate is not available offline. Best effort: a failure leaves
/// the scheduler free, which costs steadiness, not correctness.
fn pin_to_cpu(cpu: usize) {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mask: u64 = 1 << (cpu % 64);
    // SAFETY: `mask` is a live, aligned u64 and the size passed is its
    // size; pid 0 means the calling thread. The call reads the mask only.
    unsafe {
        sched_setaffinity(0, std::mem::size_of::<u64>(), &mask);
    }
}

/// Ask for a 4 MiB receive buffer (the kernel clamps the request to
/// `net.core.rmem_max`). The default holds ~8 ms of relayed copies at
/// this rate, less than the stalls a shared 2-CPU box deals out.
/// Best effort, like [`pin_to_cpu`]: an overflow is detected and the
/// round run again.
fn grow_recv_buffer(socket: &UdpSocket) {
    use std::os::fd::AsRawFd;
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
    }
    // Linux's generic socket ABI (x86, arm, riscv).
    const SOL_SOCKET: i32 = 1;
    const SO_RCVBUF: i32 = 8;
    let bytes: i32 = 4 << 20;
    // SAFETY: the fd is open for as long as `socket` is borrowed, `bytes`
    // is a live i32 and the length passed is its size. The call reads
    // the value only.
    unsafe {
        setsockopt(
            socket.as_raw_fd(),
            SOL_SOCKET,
            SO_RCVBUF,
            &bytes,
            std::mem::size_of::<i32>() as u32,
        );
    }
}

/// Kills and reaps the daemon if the bench leaves early.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// The bench's socket and the daemon's address.
struct Wire {
    socket: UdpSocket,
    daemon: std::net::SocketAddr,
    buf: Vec<u8>,
    /// Frames received that were not stream chunks (the handshake).
    control_in: u64,
}

impl Wire {
    fn send(&self, from: HostId, msg: &Msg) -> Result<(), String> {
        let frame = encode_frame(from, msg).map_err(|e| format!("encode: {e:?}"))?;
        self.socket
            .send_to(&frame, self.daemon)
            .map_err(|e| format!("send_to daemon: {e}"))?;
        Ok(())
    }

    /// One frame if one is waiting.
    fn try_recv(&mut self) -> Result<Option<(HostId, Msg)>, String> {
        match self.socket.recv_from(&mut self.buf) {
            Ok((len, _)) => {
                let frame = decode_frame(&self.buf[..len])
                    .map_err(|e| format!("daemon sent an undecodable frame: {e:?}"))?;
                if !frame.1.is_data() {
                    self.control_in += 1;
                }
                Ok(Some(frame))
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(format!("recv_from: {e}")),
        }
    }
}

/// `utime` and `stime` of a process, seconds.
fn cpu_seconds(pid: u32) -> Option<(f64, f64)> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name: state is the first.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut f = rest.split_whitespace();
    let utime: f64 = f.nth(11)?.parse().ok()?;
    let stime: f64 = f.next()?.parse().ok()?;
    Some((utime / TICKS_PER_S, stime / TICKS_PER_S))
}

/// What one open-loop stream measured.
#[derive(Default)]
struct Streamed {
    chunks: u64,
    copies: u64,
    /// Emit-due to receive, microseconds, one per received copy.
    latency_us: Vec<f64>,
    /// How late each send ran, microseconds.
    late_us: Vec<f64>,
    wall_s: f64,
}

/// Send `Data{seq}` for `seconds` at `rate` chunks/s on a fixed schedule
/// and receive the forwarded copies; each copy is timed from when its
/// chunk was due, so a stalled generator shows as latency, not as less
/// load. `first_seq` continues the numbering of an earlier stream.
fn stream(wire: &mut Wire, rate: f64, seconds: f64, first_seq: u64) -> Result<Streamed, String> {
    let interval = Duration::from_secs_f64(1.0 / rate);
    let chunks = (seconds * rate).ceil() as u64;
    let mut out = Streamed {
        chunks,
        latency_us: Vec::with_capacity(chunks as usize * LEAVES.len()),
        late_us: Vec::with_capacity(chunks as usize),
        ..Streamed::default()
    };
    let mut seen = vec![0u8; chunks as usize];
    let t0 = Instant::now() + interval;
    let due = |i: u64| t0 + interval.mul_f64(i as f64);
    let end = due(chunks) + Duration::from_secs_f64(DRAIN_S);
    let mut next = 0u64;
    let wanted = chunks * LEAVES.len() as u64;
    loop {
        let now = Instant::now();
        if next < chunks && now >= due(next) {
            out.late_us.push((now - due(next)).as_secs_f64() * 1e6);
            wire.send(
                SOURCE,
                &Msg::Data {
                    seq: first_seq + next,
                },
            )?;
            next += 1;
            continue;
        }
        if now >= end || (next == chunks && out.copies == wanted) {
            break;
        }
        match wire.try_recv()? {
            // A straggler of the warm-up stream is not this stream's.
            Some((DAEMON, Msg::Data { seq })) if seq >= first_seq => {
                let i = seq - first_seq;
                if i >= chunks {
                    return Err(format!("copy of chunk {seq} that was never sent"));
                }
                seen[i as usize] += 1;
                if seen[i as usize] as usize > LEAVES.len() {
                    return Err(format!("more than {} copies of chunk {seq}", LEAVES.len()));
                }
                out.copies += 1;
                let at = Instant::now();
                out.latency_us
                    .push(at.saturating_duration_since(due(i)).as_secs_f64() * 1e6);
            }
            Some(_) | None => {}
        }
    }
    out.wall_s = (Instant::now() - t0).as_secs_f64();
    Ok(out)
}

/// Spawn the daemon, form the tree 0→1→{2,3,4,5}, stream, reap.
fn relay_round(
    p: &Params,
    spans: &mut Spans,
    seed: u64,
    budget_s: f64,
    rate: f64,
) -> Result<Round, String> {
    let mut it = Iter::default();
    spans.open("setup");
    let t_spawn = Instant::now();
    let socket = UdpSocket::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    socket
        .set_nonblocking(true)
        .map_err(|e| format!("set_nonblocking: {e}"))?;
    grow_recv_buffer(&socket);
    let bench_addr = socket
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    // Bind-then-drop has a reuse race; a collision fails the daemon's
    // bind loudly instead of corrupting a measurement.
    let daemon_addr = UdpSocket::bind("127.0.0.1:0")
        .and_then(|s| s.local_addr())
        .map_err(|e| format!("bind: {e}"))?;

    let dir = p.out_dir.join(format!("relay-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    let peers_path = dir.join("peers.txt");
    let stats_path = dir.join("stats.json");
    let mut peers = format!("{} {daemon_addr}\n", DAEMON.0);
    for h in std::iter::once(SOURCE).chain(LEAVES) {
        peers.push_str(&format!("{} {bench_addr}\n", h.0));
    }
    std::fs::write(&peers_path, peers).map_err(|e| format!("write peers: {e}"))?;

    let run_s = STARTUP_ALLOWANCE_S + WARMUP_S + budget_s + 4.0 * DRAIN_S;
    // With two CPUs or more the daemon gets one to itself and the
    // spinning generator another: where the scheduler happens to put the
    // daemon's two threads otherwise moves the median latency by 2x from
    // one round to the next. The child inherits the mask set before it
    // is spawned.
    let pinned = std::thread::available_parallelism().map_or(1, |n| n.get()) >= 2;
    if pinned {
        pin_to_cpu(1);
    }
    let child = Command::new(&p.node_bin)
        .args(["--id", "1", "--source", "0", "--degree-limit", "4"])
        .arg("--peers")
        .arg(&peers_path)
        .arg("--stats-out")
        .arg(&stats_path)
        .args(["--run-s", &format!("{run_s:.3}")])
        .args(["--seed", &seed.to_string()])
        .stdin(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", p.node_bin.display()))?;
    if pinned {
        pin_to_cpu(0);
    }
    let pid = child.id();
    let mut daemon = Daemon(child);
    let mut wire = Wire {
        socket,
        daemon: daemon_addr,
        buf: vec![0u8; vdm_proto::MAX_PAYLOAD + 4],
        control_in: 0,
    };

    // The daemon walks from the source and attaches under it.
    let deadline = t_spawn + Duration::from_secs_f64(STARTUP_ALLOWANCE_S);
    let mut attached = false;
    while !attached {
        if Instant::now() > deadline {
            // A stall, or the daemon lost the race for its port: not a
            // verdict on the relay. Running out of retries is.
            spans.close();
            return Ok(Round::Discarded(
                "daemon did not attach to the source in time".into(),
            ));
        }
        if let Some((from, msg)) = wire.try_recv()? {
            if from != DAEMON {
                return Err(format!("frame from unexpected host {}", from.0));
            }
            if let Some(reply) = answer_as_source(&msg) {
                attached = matches!(reply, Msg::ConnResp { .. });
                wire.send(SOURCE, &reply)?;
            }
        }
    }
    // The four leaves attach under the daemon.
    for (i, &leaf) in LEAVES.iter().enumerate() {
        wire.send(leaf, &leaf_conn_req(i))?;
    }
    let mut accepted = 0;
    while accepted < LEAVES.len() {
        if Instant::now() > deadline {
            spans.close();
            return Ok(Round::Discarded(format!(
                "daemon accepted {accepted} of 4 leaves in time"
            )));
        }
        match wire.try_recv()? {
            Some((
                DAEMON,
                Msg::ConnResp {
                    result: ConnResult::Accepted { grandparent, .. },
                    ..
                },
            )) => {
                if grandparent != Some(SOURCE) {
                    return Err(format!(
                        "leaf's grandparent is {grandparent:?}, not the source"
                    ));
                }
                accepted += 1;
            }
            Some((_, Msg::ConnResp { result, .. })) => {
                return Err(format!("daemon refused a leaf: {result:?}"));
            }
            Some((_, msg)) => {
                if let Some(reply) = answer_as_source(&msg) {
                    wire.send(SOURCE, &reply)?;
                }
            }
            None => {}
        }
    }
    let startup_ms = t_spawn.elapsed().as_secs_f64() * 1e3;
    let warm = spans.scope("warmup_stream", |_| stream(&mut wire, rate, WARMUP_S, 0))?;
    it.setup_s = t_spawn.elapsed().as_secs_f64();
    spans.close();

    let cpu0 = cpu_seconds(pid);
    let s = spans.scope("stream", |_| stream(&mut wire, rate, budget_s, warm.chunks))?;
    let cpu1 = cpu_seconds(pid);
    it.peak_rss_mb = peak_rss_mb_of(&pid.to_string());

    spans.open("measure");
    // The daemon exits by itself at `--run-s` and then writes its stats.
    let reap_by = Instant::now() + Duration::from_secs_f64(run_s + 2.0);
    let status = loop {
        match daemon.0.try_wait().map_err(|e| format!("wait: {e}"))? {
            Some(status) => break status,
            None if Instant::now() > reap_by => return Err("daemon did not exit".into()),
            None => std::thread::sleep(Duration::from_millis(5)),
        }
    };
    let stats_text = std::fs::read_to_string(&stats_path);
    let _ = std::fs::remove_dir_all(&dir);
    if !status.success() {
        it.errors.push(format!("daemon exited with {status}"));
    }
    let stats = stats_text
        .ok()
        .and_then(|t| vdm_trace::json::parse_flat_object(&t))
        .ok_or("daemon wrote no readable stats file")?;
    let num = |k: &str| stats.get(k).and_then(|v| v.as_num()).unwrap_or(f64::NAN);
    for k in ["decode_errors", "send_errors", "unknown_dest_drops"] {
        if num(k) != 0.0 {
            it.errors.push(format!("daemon reports {k} = {}", num(k)));
        }
    }
    if num("parent") != f64::from(SOURCE.0) {
        it.errors.push(format!(
            "daemon's parent is {}, not the source",
            num("parent")
        ));
    }

    let late_p99 = percentile(&s.late_us, 99.0);
    if late_p99 > 1_000.0 {
        spans.close();
        return Ok(Round::Discarded(format!(
            "generator ran late: p99 {late_p99:.0} us > 1 ms"
        )));
    }
    let wanted = s.chunks * LEAVES.len() as u64;
    if s.copies != wanted {
        // Everything the daemon sent beyond the handshake is a copy.
        let relayed = num("frames_out") - wire.control_in as f64;
        if relayed == ((warm.chunks + s.chunks) * LEAVES.len() as u64) as f64 {
            spans.close();
            return Ok(Round::Discarded(format!(
                "bench socket overflowed: {} of {wanted} copies read, all relayed",
                s.copies
            )));
        }
        it.errors
            .push(format!("{} of {wanted} relayed copies received", s.copies));
    }
    it.ops = wanted;
    it.ok_ops = s.copies;
    it.attempted = wanted;
    it.failed = wanted - s.copies;
    it.units.push(Unit {
        wall_s: s.wall_s,
        ops: s.copies,
        op_us: percentile(&s.latency_us, 50.0),
    });
    it.layer.extend([
        ("node.latency_us_p90", percentile(&s.latency_us, 90.0)),
        ("node.latency_us_p99", percentile(&s.latency_us, 99.0)),
        ("node.gen_late_us_p99", late_p99),
        ("node.startup_ms", startup_ms),
        ("node.frames_in", num("frames_in")),
        ("node.frames_out", num("frames_out")),
        ("node.decode_errors", num("decode_errors")),
        ("node.send_errors", num("send_errors")),
    ]);
    if let (Some((u0, s0)), Some((u1, s1))) = (cpu0, cpu1) {
        let per_chunk = |secs: f64| secs * 1e6 / s.chunks as f64;
        it.layer.extend([
            ("node.user_us_per_chunk", per_chunk(u1 - u0)),
            ("node.sys_us_per_chunk", per_chunk(s1 - s0)),
            ("node.cpu_us_per_chunk", per_chunk(u1 - u0 + s1 - s0)),
        ]);
    }
    spans.close();
    Ok(Round::Measured(it))
}

/// Nanoseconds per call of `f`, over enough calls to swamp the clock.
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    const CALLS: u32 = 100_000;
    let t = Instant::now();
    for _ in 0..CALLS {
        f();
    }
    t.elapsed().as_secs_f64() * 1e9 / f64::from(CALLS)
}

/// The codec on a fixed corpus, and an in-process replica of the relay
/// hop: scripted attach, then decode → `ProtocolCore::handle` → encode
/// for each of the four children.
fn codec_and_core(seed: u64, it: &mut Iter) -> Result<(), String> {
    use std::hint::black_box;
    let data = Msg::Data { seq: 123_456 };
    let info = Msg::InfoResp {
        nonce: 7,
        children: LEAVES
            .iter()
            .map(|&child| vdm_overlay::msg::ChildEntry { child, vdist: 12.5 })
            .collect(),
        parent: Some(SOURCE),
        coord: None,
    };
    let data_frame = encode_frame(SOURCE, &data).map_err(|e| format!("{e:?}"))?;
    let info_frame = encode_frame(DAEMON, &info).map_err(|e| format!("{e:?}"))?;
    it.layer.extend([
        ("proto.frame_bytes_data", data_frame.len() as f64),
        (
            "proto.encode_ns_data",
            ns_per_call(|| drop(black_box(encode_frame(SOURCE, black_box(&data))))),
        ),
        (
            "proto.decode_ns_data",
            ns_per_call(|| drop(black_box(decode_frame(black_box(&data_frame))))),
        ),
        (
            "proto.encode_ns_inforesp4",
            ns_per_call(|| drop(black_box(encode_frame(DAEMON, black_box(&info))))),
        ),
        (
            "proto.decode_ns_inforesp4",
            ns_per_call(|| drop(black_box(decode_frame(black_box(&info_frame))))),
        ),
    ]);

    let agent = VdmFactory::delay_based().make(DAEMON, SOURCE, 4, 0);
    let mut core = ProtocolCore::new(DAEMON, agent, 6, seed);
    let mut now = SimTime::ZERO;
    let mut tick = || {
        now += SimTime::from_ms(0.1);
        now
    };
    // Attach under the source: answer what the core asks until it stops.
    let mut pending: Vec<Output> = core.handle(tick(), Input::Join).collect();
    while let Some(out) = pending.pop() {
        if let Output::Send {
            to: SOURCE, msg, ..
        } = out
        {
            if let Some(reply) = answer_as_source(&msg) {
                let input = Input::Packet {
                    from: SOURCE,
                    msg: reply,
                };
                pending.extend(core.handle(tick(), input));
            }
        }
    }
    for (i, &leaf) in LEAVES.iter().enumerate() {
        let input = Input::Packet {
            from: leaf,
            msg: leaf_conn_req(i),
        };
        core.handle(tick(), input).for_each(drop);
    }
    if core.agent().parent() != Some(SOURCE) || core.agent().children().len() != LEAVES.len() {
        return Err("in-process relay replica did not form 0→1→{2,3,4,5}".into());
    }
    let mut seq = 0u64;
    let mut sends = 0u64;
    let hop_ns = ns_per_call(|| {
        seq += 1;
        let frame = encode_frame(SOURCE, &Msg::Data { seq }).expect("encodable");
        let (from, msg) = decode_frame(&frame).expect("decodable");
        for out in core.handle(tick(), Input::Packet { from, msg }) {
            if let Output::Send { msg, .. } = out {
                black_box(encode_frame(DAEMON, &msg).expect("encodable"));
                sends += 1;
            }
        }
    });
    if sends != seq * LEAVES.len() as u64 {
        return Err(format!("replica forwarded {sends} copies of {seq} chunks"));
    }
    it.layer.push(("overlay.core_handle_ns_data", hop_ns));
    Ok(())
}

/// `node_relay`: one untimed daemon, then five in a row, each relaying a
/// fifth of the time budget.
pub fn node_relay(p: &Params) -> Result<Outcome, String> {
    let rate = if p.smoke { 1_000.0 } else { 8_000.0 };
    const ROUNDS: usize = 5;
    let plan = Plan {
        fixed: ROUNDS,
        // The first daemon of a run relays ~1.6x slower than the ones
        // after it, for as long as it runs (observed with either CPU
        // assignment; the hypervisor's halt polling adapting is the
        // likely cause), so one daemon runs untimed first.
        warmup: true,
        rounds: ROUNDS,
        overhead_rerun: false,
        unclaimed: "netsim.engine_self_s",
    };
    if !p.node_bin.is_file() {
        return Err(format!(
            "vdm-node binary not found at {}",
            p.node_bin.display()
        ));
    }
    let mut discarded = 0;
    let mut extras_done = false;
    let mut out = drive(p, &plan, |spans: &mut Spans, seed, traced, budget_s| {
        let mut it = loop {
            match relay_round(p, spans, seed, budget_s, rate)? {
                Round::Measured(it) => break it,
                Round::Discarded(why) if discarded < MAX_DISCARDED => {
                    discarded += 1;
                    eprintln!("note: round discarded and run again: {why}");
                }
                Round::Discarded(why) => return Err(why),
            }
        };
        if traced && !extras_done {
            extras_done = true;
            if let Err(e) = spans.scope("codec_and_core", |_| codec_and_core(seed, &mut it)) {
                it.errors.push(e);
            }
        }
        Ok(it)
    })?;
    // The run's total, the untimed first daemon's rounds included.
    out.per_layer
        .insert("node.rounds_discarded", discarded as f64);
    Ok(out)
}
