//! Property tests for the sweep determinism contract: merged results are
//! a pure function of the job list, independent of worker count and
//! scheduling.

use mango_net::TopologySpec;
use mango_sweep::{run_parallel, CsvRecord, FaultSweepSpec, SweepSpec};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For any job list and any worker count, `run_parallel` returns
    /// exactly the serial map in job order — even when jobs finish out
    /// of claim order.
    #[test]
    fn merge_is_worker_count_independent(
        jobs in prop::collection::vec(0u64..1_000_000, 0..40),
        threads in 1usize..9,
        stagger in any::<bool>(),
    ) {
        let f = |i: usize, j: &u64| {
            if stagger {
                // Invert completion order relative to claim order.
                std::thread::sleep(std::time::Duration::from_micros(
                    (40 - i as u64).min(40) * 5,
                ));
            }
            j.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i as u64)
        };
        let serial: Vec<u64> = jobs.iter().enumerate().map(|(i, j)| f(i, j)).collect();
        let parallel = run_parallel(&jobs, threads, f);
        prop_assert_eq!(parallel, serial);
    }

    /// Grid expansion is stable: same spec, same jobs, ids sequential,
    /// and the count is the cartesian product of the dimension sizes.
    #[test]
    fn expansion_is_stable_and_counted(
        n_topo in 1usize..3,
        n_gaps in 0usize..4,
        n_seeds in 0usize..4,
    ) {
        let spec = SweepSpec {
            topologies: (0..n_topo).map(|i| TopologySpec::mesh(3 + i as u8, 3)).collect(),
            be_gaps_ns: (0..n_gaps).map(|i| Some(100 + 50 * i as u64)).collect(),
            seeds: (0..n_seeds).map(|i| i as u64).collect(),
            ..Default::default()
        };
        let jobs = spec.expand();
        prop_assert_eq!(jobs.len(), n_topo * n_gaps * n_seeds);
        prop_assert_eq!(jobs.len(), spec.len());
        for (i, j) in jobs.iter().enumerate() {
            prop_assert_eq!(j.id, i);
        }
        prop_assert_eq!(spec.expand(), jobs);
    }
}

/// The end-to-end form of the contract on real simulations: a small
/// real sweep produces identical records at 1, 2 and 5 workers.
#[test]
fn real_sweep_records_match_across_worker_counts() {
    let spec = SweepSpec {
        topologies: vec![TopologySpec::mesh(3, 3)],
        gs_conns: vec![0, 1],
        be_gaps_ns: vec![Some(400)],
        measures_us: vec![5],
        seeds: vec![7, 8],
        warmup_us: 2,
        ..Default::default()
    };
    let baseline = mango_sweep::run_sweep(&spec, 1);
    assert_eq!(baseline.len(), 4);
    for threads in [2, 5] {
        assert_eq!(
            mango_sweep::run_sweep(&spec, threads),
            baseline,
            "threads = {threads}"
        );
    }
}

/// Fault injection + recovery rides the same contract: the same
/// `FaultSchedule` seed yields byte-identical recovery records (break
/// counts, outcomes, latencies, CSV rows) at 1 and 4 workers — the
/// whole detect → teardown → re-admit → re-validate cycle is a pure
/// function of the spec.
#[test]
fn fault_recovery_records_match_across_worker_counts() {
    let spec = FaultSweepSpec {
        fault_counts: vec![0, 4],
        seeds: vec![3, 4],
        horizon_us: 50,
        ..Default::default()
    };
    let jobs = spec.expand();
    let run = |threads| mango_sweep::run_grid(&jobs, threads, |job| spec.measure(job));
    let baseline = run(1);
    assert_eq!(baseline.len(), 4);
    assert!(
        baseline.iter().any(|r| r.broken > 0),
        "the faulted points must demonstrate a break"
    );
    for threads in [2, 4] {
        assert_eq!(run(threads), baseline, "threads = {threads}");
    }
    let rows: Vec<String> = baseline.iter().map(CsvRecord::csv_row).collect();
    let again: Vec<String> = run(4).iter().map(CsvRecord::csv_row).collect();
    assert_eq!(rows, again, "CSV rows must be byte-identical");
}
