//! The properties the scale gate stands on (ISSUE: deterministic
//! multi-thread scalability sweep):
//!
//! * same-seed sweeps are **bit**-deterministic at 2 and 8 virtual
//!   threads — byte-identical serialized rows, not just equal headline
//!   numbers (`determinism.rs` pins the same for the figure cells);
//! * a phase's reported op total is exactly the sum of its per-task op
//!   counts;
//! * with the `InflateContention` canary armed (identity RMWs on a shared
//!   line) a cell does the same work but flips `compare_reports` to
//!   failure — the exact gate sees modelled contention, not just
//!   throughput noise (the check is `support/mod.rs`, shared with the
//!   `perf` and `service` gates).
//!
//! The canary is process-global, so the clean tests hold the canary
//! switchboard with nothing armed.

mod support;

use spash_bench::indexes::{roster, Geometry};
use spash_bench::scale::{run_cell, CellResult};
use spash_bench::suite::{Point, SuiteConfig, SCALE};
use spash_bench::{compare_reports, BenchReport, ExperimentRow};
use spash_pmem::canary;
use spash_pmem::PersistenceDomain;

fn tiny() -> SuiteConfig {
    SuiteConfig {
        keys: 400,
        ops: 160,
        ladder: &[2, 8],
        preemptions: 32,
        ..SCALE
    }
}

/// One eADR cell of the `ti`-th target at `threads` tasks.
fn one_cell(cfg: &SuiteConfig, ti: usize, threads: usize) -> Result<CellResult, String> {
    let target = &roster(Geometry::Suite)[ti];
    run_cell(&Point::new(
        cfg,
        target,
        ti,
        PersistenceDomain::Eadr,
        threads,
    ))
}

/// Wrap rows in a report for byte comparison.
fn report_from(rows: Vec<ExperimentRow>) -> BenchReport {
    let mut r = BenchReport::new("test");
    r.set_config("suite", "scale-test");
    r.rows = rows;
    r
}

#[test]
fn same_seed_sweeps_are_byte_identical_at_2_and_8_threads() {
    let _quiet = canary::disarmed();
    let cfg = tiny();
    // Spash at both ladder points, plus one lock-free baseline: the
    // byte-determinism claim is about the driver, not one index's luck.
    let cells: [(usize, usize); 3] = [(0, 2), (0, 8), (1, 2)];
    for (ti, threads) in cells {
        let a = one_cell(&cfg, ti, threads).unwrap();
        let b = one_cell(&cfg, ti, threads).unwrap();
        let (ja, jb) = (report_from(a.rows).to_json(), report_from(b.rows).to_json());
        assert_eq!(
            ja, jb,
            "{} t{threads}: same-seed runs serialized differently",
            roster(Geometry::Suite)[ti].name
        );
        let out = compare_reports(
            &BenchReport::from_json(&ja).unwrap(),
            &BenchReport::from_json(&jb).unwrap(),
        );
        assert!(out.ok(), "exact gate rejected identical runs: {:?}", out.regressions);
    }
}

#[test]
fn phase_ops_equal_sum_of_per_task_ops() {
    let _quiet = canary::disarmed();
    let cfg = tiny();
    for &threads in cfg.ladder {
        let cell = one_cell(&cfg, 0, threads).unwrap();
        assert_eq!(cell.rows.len(), cell.task_ops.len());
        for (row, (phase, per_task)) in cell.rows.iter().zip(&cell.task_ops) {
            assert_eq!(per_task.len(), threads, "{phase}: one op count per task");
            assert_eq!(
                row.ops,
                per_task.iter().sum::<u64>(),
                "t{threads}/{phase}: total != sum of per-task ops"
            );
            assert!(
                per_task.iter().all(|&n| n > 0),
                "t{threads}/{phase}: a task did no work: {per_task:?}"
            );
        }
        // Load splits the key space exactly; run phases do ops/threads each.
        assert_eq!(cell.rows[0].ops, cfg.keys);
        let per = (cfg.ops / threads as u64).max(1);
        assert_eq!(cell.rows[1].ops, per * threads as u64);
        assert_eq!(cell.rows[2].ops, per * threads as u64);
    }
}

#[test]
fn contention_inflation_flips_the_exact_gate() {
    support::inflation_flips_the_gate(&tiny(), 2, |p| run_cell(p).map(|c| c.rows));
}
