//! The properties the scale gate stands on (ISSUE: deterministic
//! multi-thread scalability sweep):
//!
//! * same-seed sweeps are **bit**-deterministic at 2 and 8 virtual
//!   threads — byte-identical serialized rows, not just equal headline
//!   numbers (`determinism.rs` pins the same for the figure cells);
//! * a phase's reported op total is exactly the sum of its per-task op
//!   counts;
//! * a deliberately injected contention inflation (identity RMWs on a
//!   shared line) flips `compare_reports` to failure — the exact gate
//!   sees modelled contention, not just throughput noise.
//!
//! The inflation hook is process-global, so every test that runs cells
//! holds `scale_test_lock`.

use spash_bench::experiments::set_contention_inflation;
use spash_bench::indexes::crash_targets;
use spash_bench::scale::{run_cell, ScaleConfig};
use spash_bench::{compare_reports, BenchReport, ExperimentRow};
use spash_pmem::PersistenceDomain;

/// Serializes cell-running tests: `set_contention_inflation` is
/// process-global state.
fn scale_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

fn tiny() -> ScaleConfig {
    ScaleConfig {
        keys: 400,
        ops: 160,
        threads: vec![2, 8],
        seed: 0x5eed,
        value_bytes: 16,
        preemptions: 32,
    }
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
    let _guard = scale_test_lock();
    let cfg = tiny();
    // Spash at both ladder points, plus one lock-free baseline: the
    // byte-determinism claim is about the driver, not one index's luck.
    let cells: [(usize, usize); 3] = [(0, 2), (0, 8), (1, 2)];
    for (ti, threads) in cells {
        let target = &crash_targets()[ti];
        let a = run_cell(target, ti, PersistenceDomain::Eadr, threads, &cfg).unwrap();
        let b = run_cell(target, ti, PersistenceDomain::Eadr, threads, &cfg).unwrap();
        let (ja, jb) = (report_from(a.rows).to_json(), report_from(b.rows).to_json());
        assert_eq!(
            ja, jb,
            "{} t{threads}: same-seed runs serialized differently",
            target.name
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
    let _guard = scale_test_lock();
    let cfg = tiny();
    let target = &crash_targets()[0];
    for &threads in &cfg.threads {
        let cell = run_cell(target, 0, PersistenceDomain::Eadr, threads, &cfg).unwrap();
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
    let _guard = scale_test_lock();
    let cfg = tiny();
    let target = &crash_targets()[0];
    let clean = run_cell(target, 0, PersistenceDomain::Eadr, 2, &cfg).unwrap();
    assert!(!set_contention_inflation(true), "hook already armed");
    let inflated = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_cell(target, 0, PersistenceDomain::Eadr, 2, &cfg)
    }));
    set_contention_inflation(false);
    let inflated = inflated.expect("inflated cell panicked").unwrap();

    // The inflation must not change how much work was done...
    for (c, i) in clean.rows.iter().zip(&inflated.rows) {
        assert_eq!(c.ops, i.ops, "{}: inflation changed op counts", c.phase);
    }
    // ...but the exact gate must reject the run: extra RMW line traffic
    // shows up in the deterministic counters.
    let out = compare_reports(&report_from(clean.rows), &report_from(inflated.rows));
    assert!(
        !out.ok(),
        "contention inflation slipped past the exact compare gate"
    );
}
