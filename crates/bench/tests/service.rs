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
//! * with the `InflateContention` canary armed (identity RMWs on a shared
//!   line after every task body, the dispatch path included) a cell does
//!   the same work but flips the exact `compare` gate — tail-latency
//!   regressions cannot hide (the check is `support/mod.rs`, shared with
//!   the `perf` and `scale` gates);
//! * the cross-shard misroute canary is caught by the executor-side
//!   routing audit (a consistent shift preserves per-key order, so the
//!   lin-check *cannot* see it — the audit is the only line of defense).
//!
//! The canaries are process-global, so the clean tests hold the canary
//! switchboard with nothing armed.

mod support;

use spash_bench::indexes::{roster, Geometry};
use spash_bench::service::{run_cell, ServiceCellResult};
use spash_bench::suite::{Point, SuiteConfig, SERVICE};
use spash_bench::{compare_reports, BenchReport, ExperimentRow};
use spash_pmem::canary::{self, Canary};
use spash_pmem::PersistenceDomain;

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
    let target = &roster(Geometry::Suite)[ti];
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
    let _quiet = canary::disarmed();
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
        let name = &roster(Geometry::Suite)[ti].name;
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
    let _quiet = canary::disarmed();
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
    support::inflation_flips_the_gate(&tiny(), 2, |p| run_cell(p).map(|c| c.rows));
}

#[test]
fn misroute_canary_is_caught_by_the_routing_audit() {
    let cfg = tiny();
    let out = {
        let _c = canary::arm(Canary::Misroute);
        one_cell(&cfg, 0, PersistenceDomain::Eadr)
    };
    let err = match out {
        Ok(_) => panic!("a consistently misrouted run passed the routing audit"),
        Err(e) => e,
    };
    assert!(
        err.contains("misrouted"),
        "routing audit failed for the wrong reason: {err}"
    );
}
