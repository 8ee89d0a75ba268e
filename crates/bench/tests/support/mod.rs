//! The check behind every suite gate's inflation canary, shared by the
//! `perf` (`inflation.rs`), `scale` and `service` test binaries.
//!
//! With [`Canary::InflateContention`] armed, every task of a measured
//! phase ends with a burst of identity RMWs on one shared PM line: no
//! data changes, but each RMW is a modelled line-ownership transfer. A
//! tiny cell runs clean and armed; the armed run must do exactly the same
//! work, and the exact `compare` gate must reject it — the gates see
//! modelled contention, not just throughput noise.

use spash_bench::indexes::{roster, Geometry};
use spash_bench::suite::{Point, SuiteConfig};
use spash_bench::{compare_reports, BenchReport, ExperimentRow};
use spash_pmem::canary::{self, Canary};
use spash_pmem::PersistenceDomain;

/// A cell's rows, or why it failed.
pub type Rows = Result<Vec<ExperimentRow>, String>;

/// Wrap rows in a report for comparison.
fn report_from(rows: Vec<ExperimentRow>) -> BenchReport {
    let mut r = BenchReport::new("test");
    r.set_config("suite", "inflation-test");
    r.rows = rows;
    r
}

/// Run one Spash/eADR cell of `cfg` at ladder value `n` clean and with
/// `InflateContention` armed; require equal op counts and a rejecting
/// exact `compare` gate.
pub fn inflation_flips_the_gate(cfg: &SuiteConfig, n: usize, run: fn(&Point) -> Rows) {
    let spash = &roster(Geometry::Suite)[0];
    let point = || Point::new(cfg, spash, 0, PersistenceDomain::Eadr, n);
    let clean = {
        let _quiet = canary::disarmed();
        run(&point())
    };
    let inflated = {
        let _c = canary::arm(Canary::InflateContention);
        run(&point())
    };
    let (clean, inflated) = (clean.unwrap(), inflated.unwrap());

    // The inflation must not change how much work was done...
    assert_eq!(clean.len(), inflated.len(), "{}: row count", cfg.suite);
    for (c, i) in clean.iter().zip(&inflated) {
        assert_eq!(
            c.ops, i.ops,
            "{}/{}: inflation changed op counts",
            cfg.suite, c.phase
        );
    }
    // ...but the exact gate must reject the run: the extra RMW line
    // traffic shows up in virtual time and the deterministic counters.
    let out = compare_reports(&report_from(clean), &report_from(inflated));
    assert!(
        !out.ok(),
        "{}: contention inflation slipped past the exact compare gate",
        cfg.suite
    );
}
