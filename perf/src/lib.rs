//! `vdm-perf`: the repository benchmark. Six workloads on the real stack
//! (`Driver` + `ProtocolAgent` in simulation, `vdm-node` over sockets),
//! end-to-end metrics with regression bounds and a per-layer breakdown
//! measured from outside through public APIs only. See `README.md`.

pub mod compare;
pub mod report;
pub mod spec;
pub mod stat;
pub mod trace;
pub mod workloads;
