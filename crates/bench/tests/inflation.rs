//! The teeth of the `perf` gate: a tiny `perf` cell run with
//! [`Canary::InflateContention`](spash_pmem::canary::Canary) armed does the
//! same work as the clean run, and the exact `compare` gate rejects it.
//! `scale.rs` and `service.rs` run the same check (`support/mod.rs`) on
//! their own suite's cell.

mod support;

use spash_bench::perf;
use spash_bench::suite::{SuiteConfig, PERF};

#[test]
fn contention_inflation_flips_the_perf_gate() {
    let cfg = SuiteConfig {
        keys: 400,
        ops: 200,
        ..PERF
    };
    support::inflation_flips_the_gate(&cfg, 0, perf::run_cell);
}
