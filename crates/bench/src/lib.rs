//! The benchmark harness that regenerates every table and figure of the
//! paper's evaluation (§VI). See DESIGN.md for the experiment index and
//! EXPERIMENTS.md for paper-vs-measured results.
//!
//! Run everything: `cargo run --release -p spash-bench -- all`, or one
//! figure: `cargo run --release -p spash-bench -- fig10`. The
//! `SPASH_BENCH_KEYS` / `SPASH_BENCH_OPS` / `SPASH_BENCH_THREADS` knobs
//! set the scale.

pub mod experiments;
pub mod harness;
pub mod indexes;
pub mod knobs;
pub mod perf;
pub mod report;
pub mod scale;
pub mod service;
pub mod statskit;
pub mod suite;

// The hand-rolled JSON writer moved to `spash-analysis` so the linter's
// machine-readable reports can share it (bench already depends on
// analysis; the reverse edge would be a cycle). Same module, same path
// for downstream users.
pub use spash_analysis::json;

pub use harness::{print_table, PhaseResult, Scale};
pub use report::{compare_reports, BenchReport, ExperimentRow};
