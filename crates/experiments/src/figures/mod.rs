//! One runner per paper figure family. See DESIGN.md §5 for the
//! figure-to-runner index.

pub mod ablation;
pub mod bootstrap;
pub mod chaos;
pub mod compare;
pub mod complexity;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod multitree;
pub mod scale;
pub mod shard;
pub mod soak;

use crate::table::Table;
use crate::Effort;
use Render::{Tables, Text};

/// How a family renders at an effort tier and seed.
#[derive(Clone, Copy)]
pub enum Render {
    /// Result tables, printed and written as one CSV each.
    Tables(fn(Effort, u64) -> Vec<Table>),
    /// Text (Figs 5.5/5.6: ASCII trees + Graphviz DOT); seed only.
    Text(fn(u64) -> String),
}

/// One `vdm-repro` table family: its command-line name and renderer.
pub struct Family {
    /// Command-line name, e.g. `"fig3-churn"`.
    pub name: &'static str,
    /// What running it produces.
    pub render: Render,
}

/// Every family `vdm-repro all` runs, in order. The binary dispatches
/// through this list and `tests/family_goldens.rs` pins each entry.
#[rustfmt::skip]
pub const ALL: &[Family] = &[
    Family { name: "fig3-churn", render: Tables(fig3::churn_family) },
    Family { name: "fig3-nodes", render: Tables(fig3::nodes_family) },
    Family { name: "fig3-degree", render: Tables(fig3::degree_family) },
    Family { name: "fig4-metric", render: Tables(fig4::metric_family) },
    Family { name: "fig5-tree", render: Text(fig5::sample_trees) },
    Family { name: "fig5-churn", render: Tables(fig5::churn_family) },
    Family { name: "fig5-nodes", render: Tables(fig5::nodes_family) },
    Family { name: "fig5-degree", render: Tables(fig5::degree_family) },
    Family { name: "fig5-refine", render: Tables(fig5::refine_family) },
    Family { name: "fig5-mst", render: Tables(fig5::mst_family) },
    Family { name: "complexity", render: Tables(complexity::join_complexity) },
    Family { name: "ablation", render: Tables(ablation::ablation_family) },
    Family { name: "chaos", render: Tables(chaos::chaos_recovery) },
    Family { name: "soak", render: Tables(soak::soak_resilience) },
    Family { name: "compare", render: Tables(|e, s| compare::ch3_compare(e, 5.0, s)) },
];

/// A11's tables alone, outside `all`: reachable from `vdm-repro trace
/// bootstrap`, while the `bootstrap` subcommand proper goes through
/// [`bootstrap::BootstrapReport::report`] for the JSON document and its
/// gates.
pub const BOOTSTRAP: Family = Family {
    name: "bootstrap",
    render: Tables(|e, s| bootstrap::bootstrap_family(e, s).tables),
};

/// The table family called `name`: an [`ALL`] entry or [`BOOTSTRAP`].
pub fn family(name: &str) -> Option<&'static Family> {
    ALL.iter().chain([&BOOTSTRAP]).find(|f| f.name == name)
}

/// Run `f` for `reps` independent seeds through the experiment runner
/// and collect the results in seed order (deterministic regardless of
/// thread count or execution mode — see [`crate::runner`]).
pub fn replicate<T: Send>(reps: usize, base_seed: u64, f: impl Fn(u64) -> T + Sync) -> Vec<T> {
    crate::runner::fan_out(reps, base_seed, f)
}

/// Pick per-column samples out of replicated metrics.
pub fn column<T, F: Fn(&T) -> f64>(samples: &[T], f: F) -> Vec<f64> {
    samples.iter().map(f).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replicate_is_ordered_and_parallel_safe() {
        let out = replicate(8, 100, |seed| seed);
        assert_eq!(out.len(), 8);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, 100 + 1000 * i as u64 + 17);
        }
    }

    #[test]
    fn column_extracts() {
        let v = vec![(1.0, 2.0), (3.0, 4.0)];
        assert_eq!(column(&v, |t| t.1), vec![2.0, 4.0]);
    }
}
