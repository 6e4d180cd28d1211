//! The deterministic fan-out: scoped worker threads over a job list,
//! with per-job panic isolation so one crashing point cannot take down
//! a whole grid.

use crate::grid::{SweepJob, SweepSpec};
use crate::record::SweepRecord;
use mango_net::TelemetryConfig;
use mango_telemetry::TelemetryReport;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The default worker count: the host's available parallelism.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The outcome of a graceful fan-out: per-job results, with panicked
/// jobs recorded instead of propagated.
#[derive(Debug)]
pub struct GracefulRun<R> {
    /// Element `i` is `Some(f(i, &jobs[i]))`, or `None` when that job's
    /// closure panicked.
    pub results: Vec<Option<R>>,
    /// Indices of jobs whose closure panicked, ascending.
    pub failed: Vec<usize>,
}

/// Runs `f` over every job on `threads` workers, catching panics
/// per job: a crashing point yields `None` in its slot (and its index
/// in `failed`) while the rest of the grid completes normally.
///
/// Results come back **in job order** — element `i` of the output is
/// `f(i, &jobs[i])`, no matter which worker computed it or when it
/// finished. Workers claim jobs from a shared atomic counter (dynamic
/// load balancing: a slow 16×16 point does not hold up a queue of 4×4
/// points), tag each result with its job index, and the merge step
/// reorders into expansion order. `f` must be a pure function of
/// `(index, job)` for the sweep determinism contract to hold.
pub fn run_parallel_graceful<J, R, F>(jobs: &[J], threads: usize, f: F) -> GracefulRun<R>
where
    J: Sync,
    R: Send,
    F: Fn(usize, &J) -> R + Sync,
{
    let threads = threads.max(1).min(jobs.len().max(1));
    // AssertUnwindSafe: `f` is a pure function of (index, job) under
    // the determinism contract, so a panic leaves no state worth
    // poisoning on our side.
    let call = |i: usize| catch_unwind(AssertUnwindSafe(|| f(i, &jobs[i]))).ok();

    let results: Vec<Option<R>> = if threads == 1 {
        (0..jobs.len()).map(call).collect()
    } else {
        let next = AtomicUsize::new(0);
        let mut slots: Vec<Option<Option<R>>> = Vec::with_capacity(jobs.len());
        slots.resize_with(jobs.len(), || None);

        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let next = &next;
                    let call = &call;
                    scope.spawn(move || {
                        let mut done = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= jobs.len() {
                                return done;
                            }
                            done.push((i, call(i)));
                        }
                    })
                })
                .collect();
            for handle in handles {
                // Worker threads cannot panic (every job is caught);
                // a join failure here is a harness bug, not a job bug.
                for (i, r) in handle.join().expect("sweep worker thread died") {
                    debug_assert!(slots[i].is_none(), "job {i} ran twice");
                    slots[i] = Some(r);
                }
            }
        });

        slots
            .into_iter()
            .enumerate()
            .map(|(i, r)| r.unwrap_or_else(|| panic!("job {i} never ran")))
            .collect()
    };

    let failed = results
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.is_none().then_some(i))
        .collect();
    GracefulRun { results, failed }
}

/// Runs `f` over every job on `threads` workers and returns the results
/// **in job order** (see [`run_parallel_graceful`] for the scheduling
/// contract). This is the strict variant: any job panic aborts the
/// sweep.
///
/// # Panics
///
/// Propagates a panic from any job, naming the failed job indices.
pub fn run_parallel<J, R, F>(jobs: &[J], threads: usize, f: F) -> Vec<R>
where
    J: Sync,
    R: Send,
    F: Fn(usize, &J) -> R + Sync,
{
    let run = run_parallel_graceful(jobs, threads, f);
    if !run.failed.is_empty() {
        panic!("sweep worker panicked on job(s) {:?}", run.failed);
    }
    run.results
        .into_iter()
        .map(|r| r.expect("no job failed"))
        .collect()
}

/// Runs `measure` over every job of an expanded grid on `threads`
/// workers, returning the records in expansion order (the
/// byte-identical-CSV contract of [`run_parallel`] applies). The churn,
/// fault and serving grids run through this with their spec's `measure`.
///
/// # Panics
///
/// Propagates a panic from any job.
pub fn run_grid<J, R, F>(jobs: &[J], threads: usize, measure: F) -> Vec<R>
where
    J: Sync,
    R: Send,
    F: Fn(&J) -> R + Sync,
{
    run_parallel(jobs, threads, |_, job| measure(job))
}

/// A sweep grid run to completion with per-job panic isolation.
#[derive(Debug)]
pub struct SweepRun {
    /// Records of the jobs that completed, in expansion order (failed
    /// jobs are simply absent).
    pub records: Vec<SweepRecord>,
    /// The telemetry of the same jobs in the same order, when the run
    /// collected it; empty otherwise.
    pub telemetry: Vec<TelemetryReport>,
    /// Jobs that panicked: `(expansion index, job)` pairs, ascending.
    pub failed: Vec<(usize, SweepJob)>,
}

/// Runs one job as [`mango_net::ScenarioSpec::run`] does — prepare,
/// start the measurement, run to its bound, finish — and, with
/// `telemetry`, collects the default [`TelemetryConfig`]'s report over
/// the measured run.
fn run_job(
    spec: &SweepSpec,
    job: &SweepJob,
    telemetry: bool,
) -> (SweepRecord, Option<TelemetryReport>) {
    let mut prepared = spec.scenario(job).prepare();
    if telemetry {
        prepared
            .sim_mut()
            .enable_telemetry(TelemetryConfig::default());
    }
    prepared.start_measurement();
    let outcome = prepared.run_to_bound();
    let report = telemetry.then(|| prepared.sim_mut().take_telemetry());
    let record = SweepRecord::measure(job.clone(), &prepared.finish(outcome));
    (record, report)
}

/// Expands `spec` to its job grid and runs every job on `threads`
/// workers, returning one [`SweepRecord`] per job in expansion order.
///
/// # Panics
///
/// Propagates a panic from any job; use [`run_sweep_graceful`] to keep
/// the rest of the grid when single points crash.
pub fn run_sweep(spec: &SweepSpec, threads: usize) -> Vec<SweepRecord> {
    let jobs = spec.expand();
    run_parallel(&jobs, threads, |_, job| run_job(spec, job, false).0)
}

/// Like [`run_sweep`], but a panicking point is dropped from the
/// results and reported in [`SweepRun::failed`] instead of aborting the
/// whole grid — the graceful-degradation mode the sweep CLI uses. With
/// `telemetry`, every job also collects its telemetry report
/// ([`SweepRun::telemetry`]).
pub fn run_sweep_graceful(spec: &SweepSpec, threads: usize, telemetry: bool) -> SweepRun {
    let jobs = spec.expand();
    let run = run_parallel_graceful(&jobs, threads, |_, job| run_job(spec, job, telemetry));
    let failed = run.failed.iter().map(|&i| (i, jobs[i].clone())).collect();
    let (records, reports): (Vec<_>, Vec<_>) = run.results.into_iter().flatten().unzip();
    SweepRun {
        records,
        telemetry: reports.into_iter().flatten().collect(),
        failed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_job_order() {
        let jobs: Vec<u64> = (0..64).collect();
        // Stagger job durations so completion order differs from claim
        // order on real parallelism (and exercises the merge path even
        // without it).
        let run = |threads| {
            run_parallel(&jobs, threads, |i, &j| {
                std::thread::sleep(std::time::Duration::from_micros((64 - i as u64) * 10));
                j * j
            })
        };
        let expected: Vec<u64> = jobs.iter().map(|j| j * j).collect();
        for threads in [1, 2, 3, 8] {
            assert_eq!(run(threads), expected, "threads = {threads}");
        }
    }

    #[test]
    fn thread_count_exceeding_jobs_is_fine() {
        let jobs = vec![1u32, 2, 3];
        let out = run_parallel(&jobs, 16, |_, &j| j + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn empty_job_list_returns_empty() {
        let jobs: Vec<u32> = Vec::new();
        let out = run_parallel(&jobs, 4, |_, &j| j);
        assert!(out.is_empty());
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let jobs = vec![5u32];
        assert_eq!(run_parallel(&jobs, 0, |_, &j| j), vec![5]);
    }

    #[test]
    #[should_panic(expected = "sweep worker panicked")]
    fn worker_panic_propagates() {
        let jobs = vec![0u32, 1];
        run_parallel(&jobs, 2, |i, _| {
            if i == 1 {
                panic!("boom");
            }
            i
        });
    }

    #[test]
    fn graceful_run_finishes_the_grid_around_failures() {
        let jobs: Vec<u32> = (0..16).collect();
        for threads in [1, 4] {
            let run = run_parallel_graceful(&jobs, threads, |i, &j| {
                if i % 5 == 2 {
                    panic!("job {i} crashed");
                }
                j * 10
            });
            assert_eq!(run.failed, vec![2, 7, 12], "threads = {threads}");
            for (i, r) in run.results.iter().enumerate() {
                if i % 5 == 2 {
                    assert!(r.is_none());
                } else {
                    assert_eq!(*r, Some(jobs[i] * 10), "job {i} must survive");
                }
            }
        }
    }
}
