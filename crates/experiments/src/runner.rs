//! Parallel experiment runner: fan independent simulation cells across
//! a thread pool, deterministically.
//!
//! A *cell* is one fully-specified simulation run — (figure family,
//! sweep row, series, trial) plus the seed that drives every RNG stream
//! inside it. Cells never share mutable state (underlays are behind
//! `Arc`, each run builds its own driver and RNG streams from the
//! cell's seed), so they can execute in any order on any number of
//! threads. Results are merged **sorted by cell key** — never by
//! completion order — which makes aggregate CSV output byte-identical
//! to a sequential run of the same cells.
//!
//! Execution mode is [`ExecMode::Parallel`] unless a [`with_mode`]
//! scope on the calling thread says otherwise (the equivalence
//! test-suite and `vdm-repro --sequential` use one). Thread count is
//! rayon's (`RAYON_NUM_THREADS`, else available parallelism).

use rayon::prelude::*;
use std::cell::Cell as StdCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

/// How a batch of cells executes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// In-order on the calling thread (the reference path).
    Sequential,
    /// Fanned out across the rayon pool (the default).
    Parallel,
}

thread_local! {
    static MODE_OVERRIDE: StdCell<Option<ExecMode>> = const { StdCell::new(None) };
}

/// The execution mode fan-outs on this thread will use.
pub fn exec_mode() -> ExecMode {
    MODE_OVERRIDE
        .with(|m| m.get())
        .unwrap_or(ExecMode::Parallel)
}

/// Run `f` with every fan-out on this thread forced to `mode`; restores
/// the previous override afterwards (panic-safe).
pub fn with_mode<R>(mode: ExecMode, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<ExecMode>);
    impl Drop for Restore {
        fn drop(&mut self) {
            MODE_OVERRIDE.with(|m| m.set(self.0));
        }
    }
    let _restore = Restore(MODE_OVERRIDE.with(|m| m.replace(Some(mode))));
    f()
}

/// Identity of one simulation cell. The derived ordering (family, row,
/// series, trial) is the merge order, chosen to match the nesting of
/// the sequential reference loops: sweep row outermost, then series
/// (protocol/variant), then trial.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct CellKey {
    /// Figure family, e.g. `"A7"`.
    pub family: String,
    /// Sweep row index (x-axis position).
    pub row: u32,
    /// Series index within the row (protocol / variant).
    pub series: u32,
    /// Replication index.
    pub trial: u32,
    /// The seed driving every RNG stream of this cell.
    pub seed: u64,
}

/// One schedulable simulation cell.
pub struct Cell<'a, T> {
    /// Identity + merge position.
    pub key: CellKey,
    job: Box<dyn FnOnce() -> T + Send + 'a>,
}

impl<'a, T> Cell<'a, T> {
    /// A cell executing `job`.
    pub fn new(key: CellKey, job: impl FnOnce() -> T + Send + 'a) -> Self {
        Self {
            key,
            job: Box::new(job),
        }
    }
}

static CELLS_RUN: AtomicUsize = AtomicUsize::new(0);
static BATCHES_RUN: AtomicUsize = AtomicUsize::new(0);
static BUSY_NANOS: AtomicU64 = AtomicU64::new(0);

/// Process-global runner counters (cells executed, fan-out batches,
/// summed per-cell busy time), for run summaries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunnerStats {
    /// Cells executed since process start.
    pub cells: usize,
    /// Fan-out batches dispatched.
    pub batches: usize,
    /// Total busy time across all cells (exceeds wall-clock when
    /// parallelism helps).
    pub busy: Duration,
}

/// Snapshot the process-global runner counters.
pub fn stats() -> RunnerStats {
    RunnerStats {
        cells: CELLS_RUN.load(Ordering::Relaxed),
        batches: BATCHES_RUN.load(Ordering::Relaxed),
        busy: Duration::from_nanos(BUSY_NANOS.load(Ordering::Relaxed)),
    }
}

/// Export the process-global runner counters into the unified metrics
/// registry under the `runner.*` namespace.
pub fn export_metrics(m: &mut vdm_trace::MetricsRegistry) {
    let s = stats();
    m.counter_add("runner.cells", s.cells as u64);
    m.counter_add("runner.batches", s.batches as u64);
    m.gauge_set("runner.busy_s", s.busy.as_secs_f64());
}

fn execute<T: Send>(jobs: Vec<Box<dyn FnOnce() -> T + Send + '_>>) -> Vec<T> {
    let batch = BATCHES_RUN.fetch_add(1, Ordering::Relaxed) + 1;
    let run_one = |(cell, job): (usize, Box<dyn FnOnce() -> T + Send + '_>)| {
        let t0 = std::time::Instant::now();
        // Wall-clock profiling scope around each cell (chrome trace
        // export), labelled by the cell's index in its batch; ~free
        // unless `vdm_trace::start_profiling` ran.
        let _scope = vdm_trace::ProfScope::new("runner", || format!("batch{batch}/cell{cell}"));
        let out = job();
        CELLS_RUN.fetch_add(1, Ordering::Relaxed);
        BUSY_NANOS.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    };
    let jobs = jobs.into_iter().enumerate();
    match exec_mode() {
        ExecMode::Sequential => jobs.map(run_one).collect(),
        ExecMode::Parallel => jobs.into_par_iter().map(run_one).collect(),
    }
}

/// Execute a batch of cells and return `(key, result)` pairs sorted by
/// cell key — regardless of completion order or execution mode.
///
/// # Panics
/// Panics when two cells share a key: that means the grid was built
/// wrong and two runs would silently collapse into one merge slot.
pub fn run_cells<T: Send>(cells: Vec<Cell<'_, T>>) -> Vec<(CellKey, T)> {
    let (keys, jobs): (Vec<CellKey>, Vec<_>) = cells.into_iter().map(|c| (c.key, c.job)).unzip();
    {
        let mut sorted: Vec<&CellKey> = keys.iter().collect();
        sorted.sort();
        for w in sorted.windows(2) {
            assert!(w[0] != w[1], "duplicate cell key {:?}", w[0]);
        }
    }
    // Label each cell's profiling span with its key so the chrome
    // trace shows which (family, row, series, trial) ran where.
    let jobs: Vec<Box<dyn FnOnce() -> T + Send + '_>> = keys
        .iter()
        .cloned()
        .zip(jobs)
        .map(|(k, job)| {
            Box::new(move || {
                let _scope = vdm_trace::ProfScope::new("cell", || {
                    format!("{}/r{}/s{}/t{}", k.family, k.row, k.series, k.trial)
                });
                job()
            }) as Box<dyn FnOnce() -> T + Send + '_>
        })
        .collect();
    let results = execute(jobs);
    let mut out: Vec<(CellKey, T)> = keys.into_iter().zip(results).collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// The seed of trial `r` off `base`: `base + 1000·r + 17`. The schedule
/// predates the parallel runner and is kept bit-for-bit so historical
/// CSVs stay reproducible.
fn trial_seed(base: u64, r: u64) -> u64 {
    base.wrapping_add(1_000 * r).wrapping_add(17)
}

/// Trial-level fan-out: run `f` for `reps` trial seeds (`trial_seed`) off
/// `base_seed` and collect results in seed order. This is the engine
/// behind [`crate::figures::replicate`], which every figure family
/// calls.
pub fn fan_out<T: Send>(reps: usize, base_seed: u64, f: impl Fn(u64) -> T + Sync) -> Vec<T> {
    let jobs: Vec<Box<dyn FnOnce() -> T + Send + '_>> = (0..reps as u64)
        .map(|r| {
            let seed = trial_seed(base_seed, r);
            let f = &f;
            Box::new(move || f(seed)) as Box<dyn FnOnce() -> T + Send + '_>
        })
        .collect();
    execute(jobs)
}

/// A (row × two series × trial) sweep as one cell batch, so parallelism
/// crosses row boundaries instead of stalling on each row's slowest
/// trial. Row `row` bases its seeds on `seed ^ ((row+1) << 8)`, series 1
/// on that XOR `0x48`, and each series runs `trials` [`trial_seed`]s off
/// its base — the per-row `replicate` schedule A7, A10 and A11 were first
/// recorded with. `cell(row, series, seed)` runs one cell; the result is
/// one `[series 0, series 1]` pair of trial-ordered samples per row.
pub(crate) fn two_series<T: Send>(
    family: &str,
    rows: usize,
    trials: usize,
    seed: u64,
    cell: impl Fn(usize, u32, u64) -> T + Sync,
) -> Vec<[Vec<T>; 2]> {
    let cell = &cell;
    let mut cells = Vec::new();
    for row in 0..rows {
        let base = seed ^ ((row as u64 + 1) << 8);
        for (series, series_base) in [(0u32, base), (1, base ^ 0x48)] {
            for trial in 0..trials as u32 {
                let cell_seed = trial_seed(series_base, trial as u64);
                let key = CellKey {
                    family: family.into(),
                    row: row as u32,
                    series,
                    trial,
                    seed: cell_seed,
                };
                cells.push(Cell::new(key, move || cell(row, series, cell_seed)));
            }
        }
    }
    let mut out: Vec<[Vec<T>; 2]> = (0..rows).map(|_| [Vec::new(), Vec::new()]).collect();
    for (key, t) in run_cells(cells) {
        out[key.row as usize][key.series as usize].push(t);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(row: u32, series: u32, trial: u32) -> CellKey {
        CellKey {
            family: "T".into(),
            row,
            series,
            trial,
            seed: (row * 100 + series * 10 + trial) as u64,
        }
    }

    #[test]
    fn run_cells_merges_in_key_order_not_completion_order() {
        // Build cells in scrambled order; later keys do less work, so
        // under parallel execution they complete first.
        let mut cells = Vec::new();
        for (row, series, trial) in [(2, 0, 0), (0, 1, 1), (1, 0, 0), (0, 0, 0), (0, 0, 1)] {
            let k = key(row, series, trial);
            cells.push(Cell::new(k.clone(), move || {
                std::thread::sleep(std::time::Duration::from_millis(
                    (2u64.saturating_sub(row as u64)) * 3,
                ));
                k.seed * 2
            }));
        }
        let out = run_cells(cells);
        let keys: Vec<(u32, u32, u32)> = out
            .iter()
            .map(|(k, _)| (k.row, k.series, k.trial))
            .collect();
        assert_eq!(
            keys,
            vec![(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 0, 0), (2, 0, 0)]
        );
        for (k, v) in &out {
            assert_eq!(*v, k.seed * 2);
        }
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let build = || {
            (0..12u32)
                .map(|i| {
                    let k = key(i % 3, i % 2, i);
                    Cell::new(k, move || i * 7)
                })
                .collect::<Vec<_>>()
        };
        let seq = with_mode(ExecMode::Sequential, || run_cells(build()));
        let par = with_mode(ExecMode::Parallel, || run_cells(build()));
        assert_eq!(seq, par);
    }

    #[test]
    #[should_panic(expected = "duplicate cell key")]
    fn duplicate_keys_rejected() {
        let cells = vec![Cell::new(key(0, 0, 0), || 1), Cell::new(key(0, 0, 0), || 2)];
        run_cells(cells);
    }

    #[test]
    fn fan_out_keeps_the_replicate_seed_schedule() {
        let out = with_mode(ExecMode::Parallel, || fan_out(8, 100, |seed| seed));
        assert_eq!(out.len(), 8);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, 100 + 1_000 * i as u64 + 17);
        }
        let seq = with_mode(ExecMode::Sequential, || fan_out(8, 100, |seed| seed));
        assert_eq!(out, seq);
    }

    #[test]
    fn two_series_keeps_the_historical_cell_seeds() {
        let out = two_series("T", 2, 3, 42, |row, series, seed| (row, series, seed));
        assert_eq!(out.len(), 2);
        for (row, pair) in out.iter().enumerate() {
            let base = 42 ^ ((row as u64 + 1) << 8);
            for (series, samples) in pair.iter().enumerate() {
                let series_base = if series == 0 { base } else { base ^ 0x48 };
                let want: Vec<_> = (0..3)
                    .map(|r| (row, series as u32, series_base + 1_000 * r + 17))
                    .collect();
                assert_eq!(*samples, want);
            }
        }
    }

    #[test]
    fn mode_override_scopes_and_restores() {
        let before = exec_mode();
        with_mode(ExecMode::Sequential, || {
            assert_eq!(exec_mode(), ExecMode::Sequential);
            with_mode(ExecMode::Parallel, || {
                assert_eq!(exec_mode(), ExecMode::Parallel);
            });
            assert_eq!(exec_mode(), ExecMode::Sequential);
        });
        assert_eq!(exec_mode(), before);
    }

    /// Regression: every cell of a parallel batch used to be labelled
    /// with the cells-finished count read when it started, so cells
    /// started together shared one `runner` span name.
    #[test]
    fn runner_spans_are_named_once_each() {
        vdm_trace::start_profiling();
        let _ = with_mode(ExecMode::Parallel, || {
            fan_out(8, 1, |seed| {
                std::thread::sleep(Duration::from_millis(3));
                seed
            })
        });
        let spans = vdm_trace::stop_profiling();
        let mut names: Vec<&str> = spans
            .iter()
            .filter(|s| s.cat == "runner")
            .map(|s| s.name.as_str())
            .collect();
        assert!(names.len() >= 8, "{names:?}");
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate runner span names");
    }

    #[test]
    fn stats_count_cells_and_batches() {
        let before = stats();
        let _ = fan_out(3, 1, |s| s);
        let after = stats();
        assert!(after.cells >= before.cells + 3);
        assert!(after.batches > before.batches);
    }
}
