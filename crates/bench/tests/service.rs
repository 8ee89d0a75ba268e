//! The properties the service gate stands on (ISSUE: sharded, batched
//! KV front-end with a deterministic million-client test harness):
//!
//! * same-seed service cells are **byte**-deterministic — identical
//!   serialized rows including every p50/p99/p999 latency, because the
//!   open-loop arrival schedule, the batch formation, and the coalesced
//!   fences all run in virtual time under the cooperative scheduler;
//! * ack conservation — every enqueued request is acked exactly once
//!   (`enqueued == sum of per-shard acked`), across load, open-loop and
//!   saturation phases;
//! * the dispatch latency-inflation canary (identity RMWs on a shared
//!   line in `begin_batch`) leaves op counts untouched but flips the
//!   exact `compare` gate — tail-latency regressions cannot hide;
//! * the cross-shard misroute canary is caught by the executor-side
//!   routing audit (a consistent shift preserves per-key order, so the
//!   lin-check *cannot* see it — the audit is the only line of defense).
//!
//! The canary hooks are process-global, so every test that runs cells
//! holds `service_test_lock`.

use spash_bench::indexes::crash_targets;
use spash_bench::service::{run_cell, ServiceCellResult};
use spash_bench::suite::{Point, SuiteConfig, SERVICE};
use spash_bench::{compare_reports, BenchReport, ExperimentRow};
use spash_pmem::PersistenceDomain;
use spash_service::testhooks;

/// Serializes cell-running tests: the testhooks are process-global.
fn service_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

fn tiny() -> SuiteConfig {
    SuiteConfig {
        keys: 300,
        ops: 240,
        ladder: &[2],
        ..SERVICE
    }
}

/// One 2-shard cell of the `ti`-th target.
fn one_cell(
    cfg: &SuiteConfig,
    ti: usize,
    domain: PersistenceDomain,
) -> Result<ServiceCellResult, String> {
    let target = &crash_targets()[ti];
    run_cell(&Point::new(cfg, target, ti, domain, 2))
}

/// Wrap rows in a report for byte comparison.
fn report_from(rows: Vec<ExperimentRow>) -> BenchReport {
    let mut r = BenchReport::new("test");
    r.set_config("suite", "service-test");
    r.rows = rows;
    r
}

#[test]
fn same_seed_service_cells_are_byte_identical() {
    let _guard = service_test_lock();
    let cfg = tiny();
    // Spash plus one baseline: the determinism claim is about the
    // service driver, not one index's luck. ADR included — the fence
    // path differs per domain.
    for (ti, domain) in [
        (0, PersistenceDomain::Eadr),
        (0, PersistenceDomain::Adr),
        (1, PersistenceDomain::Eadr),
    ] {
        let a = one_cell(&cfg, ti, domain).unwrap();
        let b = one_cell(&cfg, ti, domain).unwrap();
        let (ja, jb) = (report_from(a.rows).to_json(), report_from(b.rows).to_json());
        let name = &crash_targets()[ti].name;
        assert_eq!(
            ja, jb,
            "{name}: same-seed service cells serialized differently"
        );
        let out = compare_reports(
            &BenchReport::from_json(&ja).unwrap(),
            &BenchReport::from_json(&jb).unwrap(),
        );
        assert!(out.ok(), "exact gate rejected identical runs: {:?}", out.regressions);
    }
}

#[test]
fn every_enqueued_request_is_acked_exactly_once() {
    let _guard = service_test_lock();
    let cfg = tiny();
    let cell = one_cell(&cfg, 0, PersistenceDomain::Eadr).unwrap();
    assert_eq!(cell.enqueued, cfg.keys + 2 * cfg.ops);
    assert_eq!(cell.acked, cell.enqueued, "acked != enqueued: lost or duplicated acks");
    // Row-level conservation: measured phase op totals must add up to
    // the same number (percentile rows echo the open-phase count).
    let measured: u64 = cell
        .rows
        .iter()
        .filter(|r| matches!(r.phase.as_str(), "load" | "open" | "saturate"))
        .map(|r| r.ops)
        .sum();
    assert_eq!(measured, cell.enqueued);
}

#[test]
fn latency_inflation_canary_flips_the_compare_gate() {
    let _guard = service_test_lock();
    let cfg = tiny();
    let clean = one_cell(&cfg, 0, PersistenceDomain::Eadr).unwrap();
    assert!(!testhooks::set_inflate_dispatch(true), "hook already armed");
    let inflated = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        one_cell(&cfg, 0, PersistenceDomain::Eadr)
    }));
    testhooks::set_inflate_dispatch(false);
    let inflated = inflated.expect("inflated cell panicked").unwrap();

    // The canary must not change how much work was done...
    for (c, i) in clean.rows.iter().zip(&inflated.rows) {
        assert_eq!(c.ops, i.ops, "{}: inflation changed op counts", c.phase);
    }
    // ...but the exact gate must reject the run: the dispatch-path RMW
    // traffic inflates virtual time and the deterministic counters.
    let out = compare_reports(&report_from(clean.rows), &report_from(inflated.rows));
    assert!(
        !out.ok(),
        "dispatch latency inflation slipped past the exact compare gate"
    );
}

#[test]
fn misroute_canary_is_caught_by_the_routing_audit() {
    let _guard = service_test_lock();
    let cfg = tiny();
    assert!(!testhooks::set_misroute(true), "hook already armed");
    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        one_cell(&cfg, 0, PersistenceDomain::Eadr)
    }));
    testhooks::set_misroute(false);
    let err = match out.expect("misrouted cell panicked") {
        Ok(_) => panic!("a consistently misrouted run passed the routing audit"),
        Err(e) => e,
    };
    assert!(
        err.contains("misrouted"),
        "routing audit failed for the wrong reason: {err}"
    );
}
