//! One daemon against one test-side socket: what the single-threaded
//! event loop must survive (hostile datagrams) and keep doing (answer
//! SIGUSR1 while parked in a long receive) on exactly one thread.

use std::io::ErrorKind;
use std::net::{SocketAddr, UdpSocket};
use std::path::PathBuf;
use std::process::{Child, Command};
use std::time::{Duration, Instant};

use vdm_netsim::HostId;
use vdm_overlay::msg::Msg;
use vdm_proto::{decode_frame, encode_frame, DecodeError, WIRE_VERSION};

/// The test socket plays host 0, the stream source; the daemon is host 1.
const TESTER: HostId = HostId(0);

/// A running daemon, killed and reaped if a test fails early.
struct Daemon {
    child: Child,
    addr: SocketAddr,
    socket: UdpSocket,
    dir: PathBuf,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Daemon {
    /// Spawn host 1 for `run_s` seconds with its join far past the end,
    /// so it sends nothing unprompted, and wait until it answers a ping.
    fn start(name: &str, run_s: f64) -> Daemon {
        let dir = std::env::temp_dir().join(format!("vdm-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let socket = UdpSocket::bind("127.0.0.1:0").expect("bind test socket");
        // Bind-then-drop has a reuse race; a collision fails the
        // daemon's bind loudly, and the readiness wait below with it.
        let addr = UdpSocket::bind("127.0.0.1:0")
            .and_then(|s| s.local_addr())
            .expect("pick daemon port");
        let peers = format!("0 {}\n1 {addr}\n", socket.local_addr().unwrap());
        std::fs::write(dir.join("peers.txt"), peers).unwrap();
        let child = Command::new(env!("CARGO_BIN_EXE_vdm-node"))
            .args(["--id", "1", "--source", "0", "--join-delay-ms", "600000"])
            .args(["--run-s", &run_s.to_string()])
            .arg("--peers")
            .arg(dir.join("peers.txt"))
            .arg("--stats-out")
            .arg(dir.join("stats.json"))
            .arg("--metrics-out")
            .arg(dir.join("metrics.json"))
            .spawn()
            .expect("spawn vdm-node");
        let d = Daemon {
            child,
            addr,
            socket,
            dir,
        };
        let ready_by = Instant::now() + Duration::from_secs(5);
        let mut nonce = 0xfeed_0000;
        loop {
            assert!(Instant::now() < ready_by, "daemon never answered a ping");
            nonce += 1;
            d.send(&encode_frame(TESTER, &Msg::Ping { nonce }).unwrap());
            if d.await_pong(nonce, Duration::from_millis(50)) {
                return d;
            }
        }
    }

    fn send(&self, datagram: &[u8]) {
        self.socket.send_to(datagram, self.addr).expect("send");
    }

    /// Whether `Pong { nonce }` arrives within `within`; other frames
    /// (late pongs of earlier pings) are skipped.
    fn await_pong(&self, nonce: u64, within: Duration) -> bool {
        let deadline = Instant::now() + within;
        let mut buf = [0u8; 2048];
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return false;
            }
            self.socket.set_read_timeout(Some(left)).unwrap();
            match self.socket.recv_from(&mut buf) {
                Ok((len, _)) => {
                    if let Ok((_, Msg::Pong { nonce: got, .. })) = decode_frame(&buf[..len]) {
                        if got == nonce {
                            return true;
                        }
                    }
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return false
                }
                Err(e) => panic!("test socket: {e}"),
            }
        }
    }

    /// Wait for the daemon to exit by itself at `--run-s`; assert it
    /// exited 0 and return its stats file.
    fn finish(mut self) -> std::collections::BTreeMap<String, vdm_trace::json::Value> {
        let status = self.child.wait().expect("wait vdm-node");
        assert!(status.success(), "daemon exited with {status}");
        let text = std::fs::read_to_string(self.dir.join("stats.json")).expect("stats file");
        vdm_trace::json::parse_flat_object(&text)
            .unwrap_or_else(|| panic!("unparseable stats: {text}"))
    }
}

/// A xorshift stream: random bytes without a dependency on the RNG.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// The malformed datagrams of round `round`, each checked to fail
/// decoding the way its name says.
fn hostile_datagrams(round: u64, rng: &mut u64) -> Vec<Vec<u8>> {
    let ping = encode_frame(TESTER, &Msg::Ping { nonce: round }).unwrap();

    let truncated = ping[..ping.len() - 3].to_vec();
    assert!(matches!(
        decode_frame(&truncated),
        Err(DecodeError::BadLength { .. })
    ));

    let mut wrong_version = ping.clone();
    wrong_version[4] = WIRE_VERSION.wrapping_add(1);
    assert!(matches!(
        decode_frame(&wrong_version),
        Err(DecodeError::BadVersion { .. })
    ));

    // Layout: [u32 len][u8 version][u32 from][u8 tag][fields].
    let mut unknown_tag = ping.clone();
    unknown_tag[9] = 0xee;
    assert!(matches!(
        decode_frame(&unknown_tag),
        Err(DecodeError::BadTag { .. })
    ));

    // An empty `InfoResp` whose child count claims four billion entries.
    let mut hostile_count = encode_frame(
        TESTER,
        &Msg::InfoResp {
            nonce: round,
            children: Vec::new(),
            parent: None,
            coord: None,
        },
    )
    .unwrap();
    hostile_count[18..22].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        decode_frame(&hostile_count),
        Err(DecodeError::BadCount { .. })
    ));

    let len = 1 + xorshift(rng) as usize % 200;
    let random: Vec<u8> = (0..len).map(|_| xorshift(rng) as u8).collect();
    assert!(decode_frame(&random).is_err());

    let empty = Vec::new();
    vec![
        truncated,
        wrong_version,
        unknown_tag,
        hostile_count,
        random,
        empty,
    ]
}

#[test]
fn hostile_datagrams_are_counted_and_every_ping_answered() {
    let daemon = Daemon::start("hostile", 2.0);
    let mut rng = 0x9e37_79b9_7f4a_7c15;
    let mut malformed = 0u64;
    for round in 0..4u64 {
        for datagram in hostile_datagrams(round, &mut rng) {
            daemon.send(&datagram);
            malformed += 1;
        }
        let nonce = 0x1000 + round;
        daemon.send(&encode_frame(TESTER, &Msg::Ping { nonce }).unwrap());
        assert!(
            daemon.await_pong(nonce, Duration::from_secs(2)),
            "no pong for ping {nonce} after {malformed} malformed datagrams"
        );
    }

    let stats = daemon.finish();
    let num = |k: &str| stats[k].as_num().unwrap_or_else(|| panic!("stat {k}"));
    assert_eq!(num("decode_errors"), malformed as f64, "{stats:?}");
    // The four pings plus at least one readiness ping, nothing else.
    assert!(num("frames_in") >= 5.0, "{stats:?}");
    assert_eq!(num("frames_out"), num("frames_in"), "one pong per ping");
    assert_eq!(num("send_errors"), 0.0, "{stats:?}");
    assert_eq!(num("unknown_dest_drops"), 0.0, "{stats:?}");
}

/// Send SIGUSR1 through the libc `kill` that std already links.
fn sigusr1(pid: u32) {
    const SIGUSR1: i32 = 10;
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    // SAFETY: `kill` takes two integers and touches no memory of ours.
    let rc = unsafe { kill(pid as i32, SIGUSR1) };
    assert_eq!(rc, 0, "kill({pid}, SIGUSR1) failed");
}

#[test]
fn sigusr1_dumps_metrics_from_a_long_receive_on_one_thread() {
    let daemon = Daemon::start("sigusr1", 2.0);
    let pid = daemon.child.id();
    let metrics = daemon.dir.join("metrics.json");

    let tasks = std::fs::read_dir(format!("/proc/{pid}/task"))
        .expect("read the daemon's task list")
        .count();
    assert_eq!(tasks, 1, "the daemon runs {tasks} threads");

    // Nothing is due before the end of the run: the loop is parked in
    // its receive when the signal lands.
    std::thread::sleep(Duration::from_millis(100));
    assert!(!metrics.exists(), "metrics written before any request");
    let sent = Instant::now();
    sigusr1(pid);
    while !metrics.exists() {
        assert!(
            sent.elapsed() < Duration::from_millis(200),
            "no metrics dump within 200 ms of SIGUSR1"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let text = std::fs::read_to_string(&metrics).unwrap();
    assert!(text.contains("node.frames_in"), "{text}");

    let stats = daemon.finish();
    assert_eq!(stats["decode_errors"].as_num(), Some(0.0), "{stats:?}");
}
