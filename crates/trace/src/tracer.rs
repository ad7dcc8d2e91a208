//! The `Tracer` handle and event sinks.
//!
//! A [`Tracer`] is either disabled (the default — one `Option` branch
//! per emission site, no event construction, no locking) or carries a
//! shared sink. Emission sites pass a *closure* so the event is only
//! built when tracing is actually on; golden-output equivalence relies
//! on emission never touching RNG streams or simulation state.

use crate::event::TraceEvent;
use std::collections::VecDeque;
use std::io::Write;
use std::sync::{Arc, Mutex, OnceLock, RwLock};

/// Where recorded events go.
pub trait EventSink: Send {
    /// Record one timestamped event.
    fn record(&mut self, t_us: u64, ev: &TraceEvent);
    /// Flush buffered output, if any.
    fn flush(&mut self) {}
}

/// Bounded in-memory sink for tests: keeps the most recent `cap`
/// events.
pub struct RingSink {
    cap: usize,
    buf: VecDeque<(u64, TraceEvent)>,
    /// Total events offered, including any that were evicted.
    pub total: u64,
}

impl RingSink {
    /// A ring holding at most `cap` events.
    pub fn new(cap: usize) -> Self {
        RingSink {
            cap: cap.max(1),
            buf: VecDeque::new(),
            total: 0,
        }
    }

    /// Snapshot the retained `(t_us, event)` pairs, oldest first.
    pub fn events(&self) -> Vec<(u64, TraceEvent)> {
        self.buf.iter().cloned().collect()
    }
}

impl EventSink for RingSink {
    fn record(&mut self, t_us: u64, ev: &TraceEvent) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
        }
        self.buf.push_back((t_us, ev.clone()));
        self.total += 1;
    }
}

/// Buffered JSONL sink: one flat JSON object per line, suitable for
/// `vdm-repro trace` run logs.
pub struct JsonlSink<W: Write + Send> {
    w: W,
    /// Lines written so far.
    pub lines: u64,
}

impl<W: Write + Send> JsonlSink<W> {
    /// Wrap a writer (callers should pass something buffered).
    pub fn new(w: W) -> Self {
        JsonlSink { w, lines: 0 }
    }

    /// The wrapped writer — for tests capturing into memory.
    pub fn writer_mut(&mut self) -> &mut W {
        &mut self.w
    }
}

impl<W: Write + Send> EventSink for JsonlSink<W> {
    fn record(&mut self, t_us: u64, ev: &TraceEvent) {
        let line = ev.to_jsonl(t_us);
        // Trace output is best-effort: a full disk must not abort a
        // simulation that would otherwise complete.
        let _ = writeln!(self.w, "{line}");
        self.lines += 1;
    }

    fn flush(&mut self) {
        let _ = self.w.flush();
    }
}

/// Cheap, clonable handle through which the whole stack emits events.
///
/// Disabled (`Tracer::default()`) it is a single `Option::None` check;
/// the event-constructing closure is never called. Enabled, it locks
/// the shared sink per event.
#[derive(Clone, Default)]
pub struct Tracer {
    sink: Option<Arc<Mutex<dyn EventSink>>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled())
            .finish()
    }
}

impl Tracer {
    /// A disabled tracer (the default everywhere).
    pub fn disabled() -> Self {
        Tracer::default()
    }

    /// A tracer feeding the given shared sink.
    pub fn with_sink(sink: Arc<Mutex<dyn EventSink>>) -> Self {
        Tracer { sink: Some(sink) }
    }

    /// A tracer with a fresh ring buffer; returns the ring handle so
    /// tests can inspect what was captured.
    pub fn ring(cap: usize) -> (Self, Arc<Mutex<RingSink>>) {
        let ring = Arc::new(Mutex::new(RingSink::new(cap)));
        let sink: Arc<Mutex<dyn EventSink>> = ring.clone();
        (Tracer { sink: Some(sink) }, ring)
    }

    /// A tracer writing JSONL to `w`.
    pub fn jsonl<W: Write + Send + 'static>(w: W) -> Self {
        Tracer {
            sink: Some(Arc::new(Mutex::new(JsonlSink::new(w)))),
        }
    }

    /// Whether events will be recorded.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Emit an event at simulation (or process) time `t_us`. The
    /// closure runs only when the tracer is enabled.
    #[inline]
    pub fn emit(&self, t_us: u64, f: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = &self.sink {
            let ev = f();
            if let Ok(mut s) = sink.lock() {
                s.record(t_us, &ev);
            }
        }
    }

    /// Flush the underlying sink.
    pub fn flush(&self) {
        if let Some(sink) = &self.sink {
            if let Ok(mut s) = sink.lock() {
                s.flush();
            }
        }
    }
}

fn global_slot() -> &'static RwLock<Tracer> {
    static GLOBAL: OnceLock<RwLock<Tracer>> = OnceLock::new();
    GLOBAL.get_or_init(|| RwLock::new(Tracer::disabled()))
}

/// Install `tracer` as the process-global tracer, picked up by every
/// `Engine` constructed afterwards. Returns the previous tracer.
pub fn set_global(tracer: Tracer) -> Tracer {
    let mut slot = global_slot().write().expect("global tracer lock");
    std::mem::replace(&mut slot, tracer)
}

/// The current process-global tracer (disabled unless a run installed
/// one).
pub fn global() -> Tracer {
    global_slot().read().expect("global tracer lock").clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_never_builds_events() {
        let t = Tracer::disabled();
        let mut called = false;
        t.emit(0, || {
            called = true;
            TraceEvent::Orphaned {
                host: 0,
                old_parent: None,
            }
        });
        assert!(!called);
        assert!(!t.enabled());
    }

    #[test]
    fn ring_keeps_most_recent() {
        let (t, ring) = Tracer::ring(2);
        for i in 0..5u32 {
            t.emit(i as u64, || TraceEvent::Orphaned {
                host: i,
                old_parent: None,
            });
        }
        let r = ring.lock().unwrap();
        assert_eq!(r.total, 5);
        let evs = r.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].0, 3);
        assert_eq!(evs[1].0, 4);
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let buf: Vec<u8> = Vec::new();
        let sink = Arc::new(Mutex::new(JsonlSink::new(buf)));
        let t = Tracer::with_sink(sink.clone() as Arc<Mutex<dyn EventSink>>);
        t.emit(7, || TraceEvent::ChunkRepaired { host: 3, seq: 11 });
        t.flush();
        let guard = sink.lock().unwrap();
        let text = String::from_utf8(guard.w.clone()).unwrap();
        let rec = crate::json::parse_flat_object(text.trim()).expect("parseable");
        assert_eq!(rec["kind"].as_str(), Some("chunk_repaired"));
    }

    #[test]
    fn global_swap_restores() {
        let (t, ring) = Tracer::ring(8);
        let prev = set_global(t);
        global().emit(1, || TraceEvent::Orphaned {
            host: 9,
            old_parent: None,
        });
        set_global(prev);
        assert_eq!(ring.lock().unwrap().total, 1);
    }
}
