//! `vdm-trace`: structured observability for the VDM reproduction.
//!
//! Three pieces, all dependency-free and usable from every layer:
//!
//! * **Events** ([`TraceEvent`] + [`Tracer`]) — a structured record of
//!   what the protocol machinery *did*: walk steps and Case I/II/III
//!   decisions, parent changes, orphanings, failover attempts, NACK
//!   send/repair, admission throttle/shed, fault-plan activations,
//!   discovery and coordinate steps. Emission sites pass a closure, so a
//!   disabled tracer (the default) costs one `Option` branch and never
//!   constructs the event. Tracing is pure observation: it consumes no
//!   RNG and perturbs no simulation state, so golden outputs are
//!   byte-identical with tracing on or off.
//! * **Metrics** ([`MetricsRegistry`]) — counters, gauges, and
//!   fixed-bucket histograms with one deterministic JSON snapshot
//!   path, absorbing the scattered per-subsystem counters.
//! * **Profiling** ([`ProfScope`]) — wall-clock scopes around runner
//!   cell execution, exported as chrome://tracing JSON.
//!
//! See `DESIGN.md` (event taxonomy, zero-overhead-when-off guarantee)
//! and `EXPERIMENTS.md` (`vdm-repro trace` usage).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod tracer;

pub use event::{encode_cases, record_touches_host, CaseClass, TraceEvent, HOST_FIELDS};
pub use metrics::{Histogram, MetricsRegistry};
pub use profile::{
    profiling_enabled, start_profiling, stop_profiling, write_chrome_trace, ProfScope, ProfSpan,
};
pub use tracer::{global, set_global, EventSink, JsonlSink, RingSink, Tracer};
