//! Tracing from outside the program: wrappers around the public layer
//! boundaries (`Underlay`, `AgentFactory`/`OverlayAgent`, `CoreIo`) that
//! attribute wall time to exactly one layer at a time, plus coarse
//! in-memory spans written as a chrome trace when the run ends.
//!
//! Fine-grained boundaries are crossed millions of times per second, so
//! they accumulate a call count and exclusive busy-ns per key instead of
//! one span each. Exclusive means: entering a nested layer stops the
//! enclosing layer's clock, so the per-key times add up to the wall time
//! between [`begin`] and [`end`].

use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::RngCore;
use vdm_netsim::{HostId, SendClass, SimTime, Underlay};
use vdm_overlay::agent::{AgentFactory, Ctx, OverlayAgent};
use vdm_overlay::msg::Msg;
use vdm_overlay::CoreIo;
use vdm_topology::EdgeId;

/// Everything not attributed elsewhere while a run is active: the
/// engine's heap pop/dispatch, its send/timer work on behalf of agents,
/// and the driver's scenario actions and measurements.
pub const ENGINE: usize = 0;
/// Calls through the `Underlay` trait, wherever they originate.
pub const UNDERLAY: usize = 1;
/// `on_msg(Data)` and `emit_data`.
pub const DATA: usize = 2;
/// `on_join_cmd`.
pub const JOIN_CMD: usize = 3;
/// `on_leave_cmd`.
pub const LEAVE_CMD: usize = 4;
/// `on_timer`.
pub const TIMER: usize = 5;
/// First control-message key; the kinds follow [`crate::spec::MSG_KINDS`].
pub const MSG0: usize = 6;
pub const NKEYS: usize = MSG0 + crate::spec::MSG_KINDS.len();

fn msg_key(msg: &Msg) -> usize {
    match msg {
        Msg::Data { .. } => DATA,
        Msg::InfoReq { .. } => MSG0,
        Msg::InfoResp { .. } => MSG0 + 1,
        Msg::Ping { .. } => MSG0 + 2,
        Msg::Pong { .. } => MSG0 + 3,
        Msg::ConnReq { .. } => MSG0 + 4,
        Msg::ConnResp { .. } => MSG0 + 5,
        Msg::ParentChange { .. } => MSG0 + 6,
        Msg::Heartbeat => MSG0 + 7,
        Msg::Nack { .. } => MSG0 + 8,
        _ => MSG0 + 9,
    }
}

/// Per-key call counts and exclusive nanoseconds.
#[derive(Clone, Copy, Debug)]
pub struct Totals {
    pub calls: [u64; NKEYS],
    pub ns: [u64; NKEYS],
}

impl Default for Totals {
    fn default() -> Self {
        Totals {
            calls: [0; NKEYS],
            ns: [0; NKEYS],
        }
    }
}

impl Totals {
    pub fn secs(&self, key: usize) -> f64 {
        self.ns[key] as f64 * 1e-9
    }

    /// Sum of calls / seconds over a key range.
    pub fn sum(&self, keys: std::ops::Range<usize>) -> (u64, f64) {
        (
            self.calls[keys.clone()].iter().sum(),
            self.ns[keys].iter().sum::<u64>() as f64 * 1e-9,
        )
    }
}

struct Acc {
    on: bool,
    cur: usize,
    last: Instant,
    stack: Vec<usize>,
    totals: Totals,
}

thread_local! {
    // The benchmark process is single-threaded; thread-local state lets
    // the `Send + Sync` underlay wrapper share it without locks.
    static ACC: RefCell<Option<Acc>> = const { RefCell::new(None) };
}

/// Start attributing time (to [`ENGINE`] until a wrapper says otherwise).
/// Totals keep accumulating across begin/end pairs until [`take`].
pub fn begin() {
    ACC.with(|a| {
        let mut a = a.borrow_mut();
        let acc = a.get_or_insert_with(|| Acc {
            on: false,
            cur: ENGINE,
            last: Instant::now(),
            stack: Vec::with_capacity(8),
            totals: Totals::default(),
        });
        acc.on = true;
        acc.cur = ENGINE;
        acc.stack.clear();
        acc.last = Instant::now();
    });
}

/// Stop attributing time; the tail since the last boundary is charged.
pub fn end() {
    ACC.with(|a| {
        if let Some(acc) = a.borrow_mut().as_mut() {
            if acc.on {
                let now = Instant::now();
                acc.totals.ns[acc.cur] += (now - acc.last).as_nanos() as u64;
                acc.on = false;
            }
        }
    });
}

/// Take and reset the accumulated totals.
pub fn take() -> Totals {
    ACC.with(|a| {
        a.borrow_mut()
            .as_mut()
            .map(|acc| std::mem::take(&mut acc.totals))
            .unwrap_or_default()
    })
}

/// Guard for one boundary crossing; leaving the layer on drop.
pub struct Scope(bool);

/// Enter layer `key`: one call counted, the enclosing layer's clock stops.
#[inline]
pub fn enter(key: usize) -> Scope {
    ACC.with(|a| {
        let mut a = a.borrow_mut();
        let Some(acc) = a.as_mut().filter(|acc| acc.on) else {
            return Scope(false);
        };
        let now = Instant::now();
        acc.totals.ns[acc.cur] += (now - acc.last).as_nanos() as u64;
        acc.totals.calls[key] += 1;
        acc.stack.push(acc.cur);
        acc.cur = key;
        acc.last = now;
        Scope(true)
    })
}

impl Drop for Scope {
    #[inline]
    fn drop(&mut self) {
        if !self.0 {
            return;
        }
        ACC.with(|a| {
            if let Some(acc) = a.borrow_mut().as_mut().filter(|acc| acc.on) {
                let now = Instant::now();
                acc.totals.ns[acc.cur] += (now - acc.last).as_nanos() as u64;
                acc.cur = acc.stack.pop().unwrap_or(ENGINE);
                acc.last = now;
            }
        });
    }
}

/// An `Underlay` that times every call into the real one.
pub struct TimedUnderlay<U>(pub Arc<U>);

impl<U: Underlay> Underlay for TimedUnderlay<U> {
    fn num_hosts(&self) -> usize {
        self.0.num_hosts()
    }

    fn rtt_ms(&self, a: HostId, b: HostId) -> f64 {
        let _s = enter(UNDERLAY);
        self.0.rtt_ms(a, b)
    }

    fn one_way_ms(&self, a: HostId, b: HostId) -> f64 {
        let _s = enter(UNDERLAY);
        self.0.one_way_ms(a, b)
    }

    fn sample_one_way_ms(&self, a: HostId, b: HostId, rng: &mut dyn RngCore) -> f64 {
        let _s = enter(UNDERLAY);
        self.0.sample_one_way_ms(a, b, rng)
    }

    fn path_loss(&self, a: HostId, b: HostId) -> f64 {
        let _s = enter(UNDERLAY);
        self.0.path_loss(a, b)
    }

    fn path_edges(&self, a: HostId, b: HostId) -> Option<Vec<EdgeId>> {
        let _s = enter(UNDERLAY);
        self.0.path_edges(a, b)
    }

    fn num_links(&self) -> usize {
        self.0.num_links()
    }

    fn link_specs(&self) -> Vec<vdm_netsim::dataplane::LinkSpec> {
        self.0.link_specs()
    }
}

/// The agent's effect sink, with the engine's send/timer work charged
/// back to [`ENGINE`] instead of the calling handler.
struct TimedIo<'a>(&'a mut dyn CoreIo);

impl CoreIo for TimedIo<'_> {
    fn now(&self) -> SimTime {
        self.0.now()
    }

    fn send_msg(&mut self, from: HostId, to: HostId, msg: Msg, class: SendClass) -> bool {
        let _s = enter(ENGINE);
        self.0.send_msg(from, to, msg, class)
    }

    fn set_timer(&mut self, host: HostId, delay: SimTime, token: u64) {
        let _s = enter(ENGINE);
        self.0.set_timer(host, delay, token)
    }

    fn rng(&mut self) -> &mut StdRng {
        self.0.rng()
    }

    fn path_loss(&mut self, from: HostId, to: HostId) -> f64 {
        self.0.path_loss(from, to)
    }

    fn tracer(&self) -> &vdm_trace::Tracer {
        self.0.tracer()
    }
}

/// An agent that times every entry point of the real one.
pub struct TimedAgent<A>(A);

fn timed<R>(key: usize, ctx: &mut Ctx<'_>, f: impl FnOnce(&mut Ctx<'_>) -> R) -> R {
    let _s = enter(key);
    let mut io = TimedIo(&mut *ctx.io);
    let mut inner = Ctx {
        me: ctx.me,
        io: &mut io,
        stats: &mut *ctx.stats,
        loss_probe_noise: ctx.loss_probe_noise,
    };
    f(&mut inner)
}

impl<A: OverlayAgent> OverlayAgent for TimedAgent<A> {
    fn on_join_cmd(&mut self, ctx: &mut Ctx<'_>) {
        timed(JOIN_CMD, ctx, |c| self.0.on_join_cmd(c))
    }

    fn on_leave_cmd(&mut self, ctx: &mut Ctx<'_>) {
        timed(LEAVE_CMD, ctx, |c| self.0.on_leave_cmd(c))
    }

    fn on_msg(&mut self, ctx: &mut Ctx<'_>, from: HostId, msg: Msg) {
        timed(msg_key(&msg), ctx, |c| self.0.on_msg(c, from, msg))
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        timed(TIMER, ctx, |c| self.0.on_timer(c, token))
    }

    fn configure_discovery(&mut self, cfg: &vdm_overlay::DiscoveryConfig, now: SimTime) {
        self.0.configure_discovery(cfg, now)
    }

    fn emit_data(&mut self, ctx: &mut Ctx<'_>, seq: u64) {
        timed(DATA, ctx, |c| self.0.emit_data(c, seq))
    }

    fn parent(&self) -> Option<HostId> {
        self.0.parent()
    }

    fn children(&self) -> Vec<HostId> {
        self.0.children()
    }

    fn connected(&self) -> bool {
        self.0.connected()
    }

    fn degree_limit(&self) -> u32 {
        self.0.degree_limit()
    }
}

/// A factory whose agents are [`TimedAgent`]s around the real ones.
pub struct TimedFactory<F>(pub F);

impl<F: AgentFactory> AgentFactory for TimedFactory<F> {
    type Agent = TimedAgent<F::Agent>;

    fn make(&self, host: HostId, source: HostId, limit: u32, incarnation: u32) -> Self::Agent {
        TimedAgent(self.0.make(host, source, limit, incarnation))
    }
}

/// One coarse span: workload → iteration → phase.
struct Span {
    name: String,
    start_us: u64,
    end_us: u64,
    parent: Option<usize>,
}

/// Coarse spans kept in memory and written when the run ends. Disabled
/// (every call a no-op) in untraced runs.
pub struct Spans {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    enabled: bool,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            enabled,
        }
    }

    /// Open a span under the innermost open one.
    pub fn open(&mut self, name: &str) {
        if !self.enabled {
            return;
        }
        let now = self.t0.elapsed().as_micros() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            start_us: now,
            end_us: now,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn close(&mut self) {
        if let Some(i) = self.open.pop() {
            self.spans[i].end_us = self.t0.elapsed().as_micros() as u64;
        }
    }

    /// Run `f` inside a span.
    pub fn scope<R>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> R) -> R {
        self.open(name);
        let r = f(self);
        self.close();
        r
    }

    /// Write the spans as a chrome trace; a span's name is its path from
    /// the root (`workload/iter3/stream`), which spells out its parent.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let full_name = |mut i: usize| {
            let mut parts = vec![self.spans[i].name.as_str()];
            while let Some(p) = self.spans[i].parent {
                parts.push(self.spans[p].name.as_str());
                i = p;
            }
            parts.reverse();
            parts.join("/")
        };
        let spans: Vec<vdm_trace::profile::ProfSpan> = (0..self.spans.len())
            .map(|i| vdm_trace::profile::ProfSpan {
                name: full_name(i),
                cat: "bench",
                ts_us: self.spans[i].start_us,
                dur_us: self.spans[i].end_us - self.spans[i].start_us,
                tid: 0,
            })
            .collect();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        vdm_trace::profile::write_chrome_trace(&mut w, &spans)?;
        std::io::Write::flush(&mut w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exclusive_times_add_up() {
        begin();
        let t0 = Instant::now();
        {
            let _a = enter(DATA);
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _u = enter(UNDERLAY);
                std::thread::sleep(std::time::Duration::from_millis(3));
            }
        }
        end();
        let wall = t0.elapsed().as_nanos() as u64;
        let t = take();
        assert_eq!(t.calls[DATA], 1);
        assert_eq!(t.calls[UNDERLAY], 1);
        assert!(t.ns[UNDERLAY] >= 3_000_000 && t.ns[DATA] >= 2_000_000);
        assert!(
            t.ns[DATA] < t.ns[UNDERLAY],
            "nested time is not charged twice"
        );
        let sum: u64 = t.ns.iter().sum();
        assert!(
            sum <= wall && wall - sum < 1_000_000,
            "sum {sum} wall {wall}"
        );
        // Off: nothing is recorded.
        drop(enter(DATA));
        assert_eq!(take().calls[DATA], 0);
    }

    #[test]
    fn span_names_spell_out_parents() {
        let mut s = Spans::new(true);
        s.scope("w", |s| s.scope("iter0", |s| s.scope("stream", |_| ())));
        let dir = std::env::temp_dir().join(format!("vdm-perf-spans-{}", std::process::id()));
        let path = dir.join("t.json");
        s.write(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert!(text.contains("\"name\":\"w/iter0/stream\""), "{text}");
    }
}
