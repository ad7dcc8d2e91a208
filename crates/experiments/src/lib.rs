//! Figure-by-figure reproduction harness for the paper's evaluation.
//!
//! Every table and figure of the dissertation's Chapters 3–5 has a
//! runner here (see `DESIGN.md` for the full index); the `vdm-repro`
//! binary dispatches to them. Runs replicate each configuration over
//! several seeds in parallel (rayon) and report means with 90 %
//! confidence intervals, as §3.6.2 does ("We repeated the simulation
//! experiments 32 times for each churn rate, and we report 90%
//! confidence intervals").

pub mod ci;
pub mod extract;
pub mod figures;
pub mod loopback;
pub mod proto;
pub mod report;
pub mod runner;
pub mod setup;
pub mod table;

pub use ci::CiStat;
pub use proto::{Protocol, Session};
pub use report::Report;
pub use table::Table;

/// The two run sizes of the harness: `Quick`, which CI and the goldens
/// pin, and `Paper`, the dissertation's own parameters (792-router
/// topology, 32 repetitions, 10 000 s runs), which the committed
/// reproduction runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Effort {
    /// Seconds per figure; coarse.
    Quick,
    /// The paper's full scale; minutes (`vdm-repro all` ran in about
    /// 3 minutes on a 2-vCPU box).
    #[default]
    Paper,
}

impl Effort {
    /// The tier's name, as reports record it (`"quick"` or `"paper"`).
    pub fn name(self) -> &'static str {
        match self {
            Effort::Quick => "quick",
            Effort::Paper => "paper",
        }
    }

    /// Repetitions per configuration.
    pub fn reps(self) -> usize {
        match self {
            Effort::Quick => 2,
            Effort::Paper => 32,
        }
    }

    /// Chapter 3 overlay population.
    pub fn ch3_members(self) -> usize {
        match self {
            Effort::Quick => 40,
            Effort::Paper => 200,
        }
    }

    /// Chapter 3 churn slots per run.
    pub fn ch3_slots(self) -> usize {
        match self {
            Effort::Quick => 3,
            Effort::Paper => 20,
        }
    }

    /// Chapter 3 stream interval, seconds per chunk.
    pub fn ch3_chunk_s(self) -> f64 {
        match self {
            Effort::Quick => 5.0,
            Effort::Paper => 1.0,
        }
    }

    /// Chapter 5 session scale (members, warmup s, slots).
    pub fn ch5_scale(self) -> (usize, f64, usize) {
        match self {
            Effort::Quick => (25, 200.0, 3),
            Effort::Paper => (100, 2000.0, 10),
        }
    }

    /// Chapter 5 chunk interval, ms.
    pub fn ch5_chunk_ms(self) -> f64 {
        match self {
            Effort::Quick => 1000.0,
            Effort::Paper => 100.0,
        }
    }
}
