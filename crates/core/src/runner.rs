//! Experiment execution: one run path for every (program, scheme,
//! width) cell, with architectural verification after every run.
//!
//! [`run`] simulates one [`RunSpec`] — full detail (optionally observed)
//! or sampled — and [`run_matrix`] fans a workloads × schemes sweep out
//! over worker threads with `run` as the cell body.

use crate::pool::parallel_map_isolated;
use crate::scheme::{MachineWidth, Scheme};
use hpa_asm::Program;
use hpa_obs::Counters;
use hpa_sim::{
    PhaseTimes, PipeTrace, SampleUnits, SampledEstimate, SampledRunner, SimConfig, SimFault,
    SimStats, Simulator,
};
use hpa_workloads::{workload, Scale, Workload, CHECKSUM_REG};
use std::fmt;

/// Errors from [`run`] and [`run_matrix`].
#[derive(Clone, Debug)]
pub enum RunError {
    /// The workload name is not one of the built-in benchmarks.
    UnknownWorkload {
        /// The offending name.
        name: String,
    },
    /// The timing simulation changed the architectural result — a
    /// simulator bug, reported rather than panicking so sweeps can
    /// surface it.
    ChecksumMismatch {
        /// The run's label.
        name: String,
        /// Checksum computed under the timing simulator's emulator.
        actual: u64,
        /// Reference checksum.
        expected: u64,
    },
    /// The simulation itself faulted (emulator error, deadlock, invariant
    /// or commit-hook violation) instead of running to completion.
    Sim {
        /// The run's label.
        name: String,
        /// The structured fault.
        fault: SimFault,
    },
    /// A matrix cell's job panicked. The panic was caught at the job
    /// boundary, so the rest of the matrix still ran; the first panicking
    /// cell (row-major) is reported here.
    CellPanic {
        /// The workload of the panicking cell.
        name: String,
        /// The scheme of the panicking cell.
        scheme: Scheme,
        /// The panic payload rendered as text.
        message: String,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::UnknownWorkload { name } => write!(f, "unknown workload `{name}`"),
            RunError::ChecksumMismatch { name, actual, expected } => {
                write!(f, "{name}: timing run checksum {actual:#x} != reference {expected:#x}")
            }
            RunError::Sim { name, fault } => write!(f, "{name}: {fault}"),
            RunError::CellPanic { name, scheme, message } => {
                write!(f, "{name}/{}: cell panicked: {message}", scheme.key())
            }
        }
    }
}

impl std::error::Error for RunError {}

/// What a full-detail run records besides [`SimStats`]. Observation never
/// perturbs timing: `stats` are bit-identical whatever is switched on.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Observe {
    /// Record the observability registry (CPI stack, penalty histograms)
    /// into [`RunResult::counters`].
    pub counters: bool,
    /// Accumulate per-phase wall time into [`RunResult::phase_times`].
    /// The stopwatch reads slow the run, so keep timed runs apart from
    /// throughput measurements.
    pub phase_timing: bool,
    /// Record a pipeline trace of the first `trace` committed
    /// instructions into [`RunResult::pipetrace`]; 0 records none.
    pub trace: usize,
}

/// How a [`RunSpec`] is simulated.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RunMode {
    /// Every cycle of the whole program, with what to observe.
    Full(Observe),
    /// SMARTS-style sampling (see `hpa_sim::SampledRunner`): functional
    /// fast-forward with branch-table warming between short detailed
    /// windows, `units` = `W:D:F`, `seed` placing the first window.
    Sampled {
        /// Warmup, detail and fast-forward lengths of one sampling unit.
        units: SampleUnits,
        /// Shifts where the first unit begins.
        seed: u64,
    },
}

/// One cell to simulate. Build it with [`RunSpec::workload`] or
/// [`RunSpec::program`] and override fields with struct-update syntax:
///
/// ```
/// use hpa_core::{run, MachineWidth, Observe, RunMode, RunSpec, Scheme};
/// use hpa_core::workloads::{workload, Scale};
///
/// let w = workload("gcc", Scale::Tiny).expect("built-in");
/// let observed = RunSpec {
///     mode: RunMode::Full(Observe { counters: true, ..Observe::default() }),
///     ..RunSpec::workload(&w, Scheme::Combined, MachineWidth::Four)
/// };
/// let r = run(&observed).expect("checksum verified");
/// assert!(r.counters.is_some());
/// ```
#[derive(Clone, Debug)]
pub struct RunSpec<'a> {
    /// Names the run in results and errors: the workload name or the
    /// program's file path.
    pub label: &'a str,
    /// The program, borrowed: Long workloads carry data images of tens of
    /// MiB.
    pub program: &'a Program,
    /// The value the program must leave in [`CHECKSUM_REG`]; `None` runs
    /// unverified (programs without a reference model).
    pub checksum: Option<u64>,
    /// The paper scheme the run is reported under.
    pub scheme: Scheme,
    /// The machine width the run is reported under.
    pub width: MachineWidth,
    /// The configuration actually simulated: `scheme.configure(width)`
    /// unless overridden (ablations, per-request table sizes).
    pub config: SimConfig,
    /// Full-detail watchdog: the run fails with a deadlock fault if the
    /// machine is still active at this cycle (`u64::MAX` leaves it
    /// unarmed). Sampled windows have their own deadlock detector and
    /// ignore it.
    pub cycle_budget: u64,
    /// Full detail (with an observe set) or sampled.
    pub mode: RunMode,
}

impl<'a> RunSpec<'a> {
    /// A full-detail, unobserved, unverified run of `program` under
    /// `scheme` at `width`.
    #[must_use]
    pub fn program(
        label: &'a str,
        program: &'a Program,
        scheme: Scheme,
        width: MachineWidth,
    ) -> RunSpec<'a> {
        RunSpec {
            label,
            program,
            checksum: None,
            scheme,
            width,
            config: scheme.configure(width),
            cycle_budget: u64::MAX,
            mode: RunMode::Full(Observe::default()),
        }
    }

    /// [`RunSpec::program`] for a built-in workload, verified against its
    /// reference checksum.
    #[must_use]
    pub fn workload(w: &'a Workload, scheme: Scheme, width: MachineWidth) -> RunSpec<'a> {
        RunSpec {
            checksum: Some(w.expected_checksum),
            ..RunSpec::program(w.name, &w.program, scheme, width)
        }
    }
}

/// The outcome of simulating one [`RunSpec`].
#[derive(Clone, PartialEq, Debug)]
pub struct RunResult {
    /// The spec's label (workload name or file path).
    pub workload: String,
    /// Scheme that was simulated.
    pub scheme: Scheme,
    /// Machine width.
    pub width: MachineWidth,
    /// Full simulator statistics. For a sampled run these are the
    /// *summed* detailed-window `committed` and `cycles` only, not a
    /// whole-program simulation.
    pub stats: SimStats,
    /// Observability registry, when [`Observe::counters`] was set.
    pub counters: Option<Counters>,
    /// Per-phase wall time, when [`Observe::phase_timing`] was set.
    pub phase_times: Option<PhaseTimes>,
    /// Pipeline trace, when [`Observe::trace`] was nonzero.
    pub pipetrace: Option<PipeTrace>,
    /// Sampled-mode estimate (mean IPC ± confidence interval and the
    /// per-window samples), for [`RunMode::Sampled`] runs.
    pub sampled: Option<SampledEstimate>,
}

/// Simulates one cell and verifies its checksum.
///
/// A sampled run verifies the checksum on the runner's main emulator,
/// which functionally executes the complete program regardless of
/// sampling — sampled timing is approximate, sampled architecture is not.
///
/// # Errors
///
/// [`RunError::Sim`] if the simulation faulted (including an exhausted
/// cycle budget) and [`RunError::ChecksumMismatch`] if timing altered
/// semantics (never expected; would indicate a simulator bug).
pub fn run(spec: &RunSpec<'_>) -> Result<RunResult, RunError> {
    let fault = |fault| RunError::Sim { name: spec.label.to_string(), fault };
    let mut result = RunResult {
        workload: spec.label.to_string(),
        scheme: spec.scheme,
        width: spec.width,
        stats: SimStats::default(),
        counters: None,
        phase_times: None,
        pipetrace: None,
        sampled: None,
    };
    let actual = match spec.mode {
        RunMode::Full(observe) => {
            let mut sim = Simulator::new(spec.program, spec.config.clone());
            sim.set_cycle_budget(spec.cycle_budget);
            if observe.counters {
                sim.enable_counters();
            }
            if observe.phase_timing {
                sim.enable_phase_timing();
            }
            if observe.trace > 0 {
                sim.enable_trace(observe.trace);
            }
            sim.try_run().map_err(fault)?;
            result.stats = sim.stats().clone();
            result.counters = observe.counters.then(|| sim.counters().clone());
            result.phase_times = sim.phase_times().copied();
            result.pipetrace = sim.pipetrace().cloned();
            sim.emulator().reg(CHECKSUM_REG)
        }
        RunMode::Sampled { units, seed } => {
            let outcome = SampledRunner::new(spec.config.clone(), units)
                .with_seed(seed)
                .run(spec.program)
                .map_err(fault)?;
            let estimate = outcome.estimate;
            result.stats = SimStats {
                committed: estimate.samples.iter().map(|s| s.committed).sum(),
                cycles: estimate.samples.iter().map(|s| s.cycles).sum(),
                ..SimStats::default()
            };
            result.sampled = Some(estimate);
            outcome.emulator.reg(CHECKSUM_REG)
        }
    };
    match spec.checksum {
        Some(expected) if actual != expected => {
            Err(RunError::ChecksumMismatch { name: spec.label.to_string(), actual, expected })
        }
        _ => Ok(result),
    }
}

/// Results of a benchmarks × schemes sweep at one machine width.
#[derive(Clone, PartialEq, Debug)]
pub struct MatrixResult {
    /// The machine width the matrix was collected at.
    pub width: MachineWidth,
    /// One row per workload, in the order of the `workload_names`
    /// argument of [`run_matrix`], each holding one result per requested
    /// scheme (same order as its `schemes` argument).
    pub rows: Vec<Vec<RunResult>>,
}

impl MatrixResult {
    /// The result for `(workload, scheme)`, if present.
    #[must_use]
    pub fn get(&self, workload: &str, scheme: Scheme) -> Option<&RunResult> {
        self.rows.iter().flatten().find(|r| r.workload == workload && r.scheme == scheme)
    }

    /// Normalized IPC (scheme / base) for one workload; requires both runs
    /// to be present.
    #[must_use]
    pub fn normalized_ipc(&self, workload: &str, scheme: Scheme) -> Option<f64> {
        let base = self.get(workload, Scheme::Base)?.stats.ipc();
        let s = self.get(workload, scheme)?.stats.ipc();
        (base > 0.0).then(|| s / base)
    }

    /// Average IPC degradation of a scheme across all workloads, as a
    /// fraction (e.g. `0.022` for the paper's headline 2.2%).
    #[must_use]
    pub fn average_degradation(&self, scheme: Scheme) -> f64 {
        let mut sum = 0.0;
        let mut n = 0u32;
        for row in &self.rows {
            if let Some(base) = row.iter().find(|r| r.scheme == Scheme::Base) {
                if let Some(s) = row.iter().find(|r| r.scheme == scheme) {
                    sum += 1.0 - s.stats.ipc() / base.stats.ipc();
                    n += 1;
                }
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / f64::from(n)
        }
    }

    /// The worst (largest) per-workload degradation of a scheme, with the
    /// workload name.
    #[must_use]
    pub fn worst_degradation(&self, scheme: Scheme) -> Option<(&str, f64)> {
        let mut worst: Option<(&str, f64)> = None;
        for row in &self.rows {
            let base = row.iter().find(|r| r.scheme == Scheme::Base)?;
            let s = row.iter().find(|r| r.scheme == scheme)?;
            let d = 1.0 - s.stats.ipc() / base.stats.ipc();
            if worst.is_none_or(|(_, w)| d > w) {
                worst = Some((&s.workload, d));
            }
        }
        worst
    }
}

/// Runs `workload_names` × `schemes` at one width, each cell a full-detail
/// [`run`] with `observe`, fanned out across `jobs` worker threads.
///
/// The result does not depend on `jobs`: each cell is a self-contained
/// single-threaded simulation, rows and columns keep the input order, and
/// on failure the error of the *first* failing cell (in row-major order)
/// is returned, regardless of completion order. Each cell runs
/// panic-isolated, so a panicking cell becomes [`RunError::CellPanic`]
/// while every other cell still runs. `progress` fires after each
/// successful cell, from worker threads in completion order (`jobs = 1`
/// gives the serial order).
///
/// # Errors
///
/// [`RunError::UnknownWorkload`] for a bad name (checked up front, in
/// order) and the row-major-first [`RunError`] of any failed cell.
pub fn run_matrix(
    workload_names: &[&str],
    scale: Scale,
    width: MachineWidth,
    schemes: &[Scheme],
    jobs: usize,
    observe: Observe,
    progress: impl Fn(&RunResult) + Sync,
) -> Result<MatrixResult, RunError> {
    let workloads = workload_names
        .iter()
        .map(|name| {
            workload(name, scale)
                .ok_or_else(|| RunError::UnknownWorkload { name: (*name).to_string() })
        })
        .collect::<Result<Vec<_>, _>>()?;
    let cells: Vec<(usize, usize)> =
        (0..workloads.len()).flat_map(|wi| (0..schemes.len()).map(move |si| (wi, si))).collect();
    let results = parallel_map_isolated(&cells, jobs, |_, &(wi, si)| {
        let spec = RunSpec {
            mode: RunMode::Full(observe),
            ..RunSpec::workload(&workloads[wi], schemes[si], width)
        };
        let r = run(&spec);
        if let Ok(ref ok) = r {
            progress(ok);
        }
        r
    });
    let mut rows = Vec::with_capacity(workloads.len());
    let mut it = results.into_iter().zip(&cells);
    for _ in 0..workloads.len() {
        let row = it
            .by_ref()
            .take(schemes.len())
            .map(|(r, &(wi, si))| match r {
                Ok(cell) => cell,
                Err(e) => Err(RunError::CellPanic {
                    name: workloads[wi].name.to_string(),
                    scheme: schemes[si],
                    message: e.message,
                }),
            })
            .collect::<Result<Vec<_>, _>>()?;
        rows.push(row);
    }
    Ok(MatrixResult { width, rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(name: &str) -> Workload {
        workload(name, Scale::Tiny).expect("built-in workload")
    }

    fn matrix(names: &[&str], schemes: &[Scheme], jobs: usize) -> MatrixResult {
        run_matrix(
            names,
            Scale::Tiny,
            MachineWidth::Four,
            schemes,
            jobs,
            Observe::default(),
            |_| {},
        )
        .expect("runs")
    }

    #[test]
    fn unknown_workload_is_an_error() {
        let e = run_matrix(
            &["nonesuch"],
            Scale::Tiny,
            MachineWidth::Four,
            &[Scheme::Base],
            1,
            Observe::default(),
            |_| {},
        );
        assert!(matches!(e, Err(RunError::UnknownWorkload { .. })));
        assert!(e.unwrap_err().to_string().contains("nonesuch"));
    }

    #[test]
    fn sampled_run_estimates_ipc_and_verifies_checksum() {
        let w = tiny("gcc");
        let units = SampleUnits::parse("500:1000:4000").expect("valid units");
        let spec = RunSpec {
            mode: RunMode::Sampled { units, seed: 42 },
            ..RunSpec::workload(&w, Scheme::Base, MachineWidth::Four)
        };
        let sampled = run(&spec).expect("sampled run succeeds (checksum verified inside)");
        let estimate = sampled.sampled.as_ref().expect("sampled estimate present");
        assert!(estimate.mean_ipc > 0.0);
        assert!(!estimate.samples.is_empty());
        assert_eq!(
            sampled.stats.committed,
            estimate.samples.iter().map(|s| s.committed).sum::<u64>()
        );
        // Close to the full detailed run even at tiny scale.
        let full = run(&RunSpec::workload(&w, Scheme::Base, MachineWidth::Four)).unwrap();
        let err = estimate.rel_error(full.stats.ipc());
        assert!(err < 0.15, "sampled IPC off by {:.1}% from full", err * 100.0);
        // Deterministic: same (workload, units, seed) -> identical result.
        assert_eq!(sampled, run(&spec).unwrap());
    }

    /// A wrong reference checksum and an exhausted cycle budget are both
    /// structured errors naming the run's label.
    #[test]
    fn checksum_and_budget_failures_are_structured() {
        let w = tiny("gcc");
        let base = RunSpec::workload(&w, Scheme::Base, MachineWidth::Four);
        let wrong = RunSpec { checksum: Some(w.expected_checksum ^ 1), ..base.clone() };
        assert!(
            matches!(run(&wrong), Err(RunError::ChecksumMismatch { ref name, .. }) if name == "gcc")
        );
        let starved = RunSpec { cycle_budget: 10, ..base };
        match run(&starved) {
            Err(RunError::Sim { name, fault: SimFault::Deadlock { .. } }) => {
                assert_eq!(name, "gcc")
            }
            other => panic!("expected a deadlock fault, got {other:?}"),
        }
    }

    /// The observe set fills exactly the fields it names.
    #[test]
    fn observe_set_fills_its_fields() {
        let w = tiny("gcc");
        let plain = run(&RunSpec::workload(&w, Scheme::Base, MachineWidth::Four)).unwrap();
        assert!(plain.counters.is_none() && plain.phase_times.is_none());
        assert!(plain.pipetrace.is_none() && plain.sampled.is_none());
        let observe = Observe { counters: true, phase_timing: true, trace: 16 };
        let spec = RunSpec {
            mode: RunMode::Full(observe),
            ..RunSpec::workload(&w, Scheme::Base, MachineWidth::Four)
        };
        let r = run(&spec).unwrap();
        assert_eq!(r.stats, plain.stats, "observation perturbed timing");
        assert!(r.counters.is_some());
        assert_eq!(r.phase_times.expect("timed").cycles, r.stats.cycles);
        assert_eq!(r.pipetrace.expect("traced").records().len(), 16);
    }

    #[test]
    fn matrix_collects_and_normalizes() {
        let m = matrix(&["gcc"], &[Scheme::Base, Scheme::Combined], 1);
        let norm = m.normalized_ipc("gcc", Scheme::Combined).expect("both runs present");
        assert!(norm > 0.85 && norm <= 1.01, "normalized IPC = {norm}");
        let avg = m.average_degradation(Scheme::Combined);
        let (wname, worst) = m.worst_degradation(Scheme::Combined).expect("present");
        assert_eq!(wname, "gcc");
        assert!((avg - worst).abs() < 1e-12, "single workload: avg == worst");
    }

    /// The determinism guarantee: a parallel matrix is bit-identical to
    /// the serial one — every `SimStats` counter, every row/column
    /// position — at both machine widths.
    #[test]
    fn parallel_matrix_is_bit_identical_to_serial() {
        let names = ["gcc", "mcf"];
        let schemes = [Scheme::Base, Scheme::Combined];
        for width in MachineWidth::ALL {
            let run = |jobs| {
                run_matrix(&names, Scale::Tiny, width, &schemes, jobs, Observe::default(), |_| {})
                    .expect("runs")
            };
            let serial = run(1);
            assert_eq!(serial, run(3), "width={width:?}");
        }
    }

    /// Observation must be free: an observed matrix carries a balanced
    /// CPI stack per cell and exactly the same `SimStats` as an
    /// unobserved run.
    #[test]
    fn observed_matrix_balances_books_without_perturbing_stats() {
        let names = ["gcc"];
        let schemes = [Scheme::Base, Scheme::Combined];
        let plain = matrix(&names, &schemes, 1);
        let counters = Observe { counters: true, ..Observe::default() };
        let observed =
            run_matrix(&names, Scale::Tiny, MachineWidth::Four, &schemes, 2, counters, |_| {})
                .expect("runs");
        let width = u64::from(MachineWidth::Four.base_config().width);
        for (prow, orow) in plain.rows.iter().zip(&observed.rows) {
            for (p, o) in prow.iter().zip(orow) {
                assert_eq!(p.stats, o.stats, "observation perturbed timing");
                assert!(p.counters.is_none());
                let c = o.counters.as_ref().expect("observed cell has counters");
                assert_eq!(c.cpi.total(), o.stats.cycles * width, "books balance");
                if o.scheme == Scheme::Base {
                    assert_eq!(c.cpi.penalty_slots(), 0, "no penalties on the base machine");
                }
            }
        }
    }

    /// Error propagation is deterministic: the first failing cell in
    /// row-major order wins, regardless of completion order.
    #[test]
    fn parallel_matrix_propagates_unknown_workload() {
        let e = run_matrix(
            &["gcc", "nonesuch"],
            Scale::Tiny,
            MachineWidth::Four,
            &[Scheme::Base],
            4,
            Observe::default(),
            |_| {},
        );
        assert!(matches!(e, Err(RunError::UnknownWorkload { .. })));
    }

    /// A panicking cell surfaces as a structured `CellPanic` naming the
    /// cell, while the sibling cells still run to completion.
    #[test]
    fn parallel_matrix_isolates_a_panicking_cell() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let completed = AtomicUsize::new(0);
        let e = run_matrix(
            &["gcc", "gzip"],
            Scale::Tiny,
            MachineWidth::Four,
            &[Scheme::Base, Scheme::Combined],
            2,
            Observe::default(),
            |r| {
                assert!(
                    !(r.workload == "gzip" && r.scheme == Scheme::Combined),
                    "planted cell failure"
                );
                completed.fetch_add(1, Ordering::Relaxed);
            },
        );
        match e {
            Err(RunError::CellPanic { name, scheme, message }) => {
                assert_eq!(name, "gzip");
                assert_eq!(scheme, Scheme::Combined);
                assert!(message.contains("planted cell failure"), "message: {message}");
            }
            other => panic!("expected CellPanic, got {other:?}"),
        }
        assert_eq!(completed.load(Ordering::Relaxed), 3, "sibling cells all completed");
    }

    /// The progress callback fires exactly once per cell.
    #[test]
    fn parallel_progress_fires_per_cell() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let count = AtomicUsize::new(0);
        let m = run_matrix(
            &["gcc", "gzip"],
            Scale::Tiny,
            MachineWidth::Four,
            &[Scheme::Base, Scheme::SeqRegAccess],
            2,
            Observe::default(),
            |_| {
                count.fetch_add(1, Ordering::Relaxed);
            },
        )
        .expect("runs");
        assert_eq!(count.load(Ordering::Relaxed), 4);
        assert_eq!(m.rows.len(), 2);
        assert!(m.rows.iter().all(|r| r.len() == 2));
    }
}
