//! Static analysis for the Spash reproduction, plus the one index roster
//! the dynamic harnesses share.
//!
//! * [`roster`] — Spash and the six baselines as crash targets. Which of
//!   them arm the persistence-ordering sanitizer in which domain is
//!   `CheckLevel::arms_sanitizer`. The sanitizer's clean-workload gate is
//!   the crash sweep's record pass (`spash_index_api::crashpoint`;
//!   `SPASH_CRASH_POINTS=0 spash-bench crashpoints` runs that pass alone).
//! * [`lint`] — `spash-lint`, a dependency-free source-level checker
//!   (handwritten tokenizer, no `syn`) for the workspace's cross-cutting
//!   invariants: no host sync primitives or host clocks in
//!   sched-instrumented code, busy-waits through `spin_wait()`,
//!   `// SAFETY:` on every `unsafe`, and no raw arena stores outside the
//!   instrumented platform.
//!
//! `spash-lint flow` layers a path-sensitive static analyzer on top of
//! the same tokenizer: [`parse`] recovers per-function statement/branch
//! structure, [`cfg`] lowers it to a control-flow graph of persistence
//! events, [`dataflow`] runs forward fixpoints over it, [`summaries`]
//! propagates obligations bottom-up across the call graph, and
//! [`flow_rules`] implements the three ordering rules (flush-fence
//! obligation, no clwb in HTM, publish-before-init) plus the waiver
//! cross-check against the dynamic sanitizer's `san_forgive` sites.
//!
//! `spash-lint conc` reuses the same CFG and call-graph summaries for
//! concurrency discipline: [`conc_rules`] computes interprocedural
//! locksets over the lock/HTM regions the lowering models, flags
//! unprotected shared-PM writes and check-then-act races, emits a
//! machine-readable shared-word inventory, and cross-checks every
//! waiver against the dynamic scheduler/sanitizer twins.

pub mod cfg;
pub mod conc_rules;
pub mod dataflow;
pub mod flow_rules;
pub mod json;
pub mod lint;
pub mod parse;
pub mod summaries;
pub mod tree;

use spash::{Spash, SpashConfig};
use spash_baselines::{CLevel, Cceh, Dash, Halo, Level, Plush};
use spash_index_api::crashpoint::CrashTarget;

/// How big the roster's two size-dependent members are built.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sizing {
    /// Crash sweeps (the sanitizer's record pass included) and schedule
    /// exploration: Spash's small test geometry and an 8 MiB Halo log, so
    /// splits, merges and GC happen within a few hundred ops.
    Sweep,
    /// The `perf`/`scale`/`service` suites: Spash's default geometry and
    /// a 64 MiB Halo log (the suites replay several write phases into it).
    Suite,
}

/// Which part of the roster to build (the `SPASH_*_TARGETS` choices).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Select {
    Spash,
    Baselines,
    All,
}

/// The one roster: Spash and the six baselines as [`CrashTarget`]s, in
/// report order. Fresh targets per call — `CrashTarget::format` must not
/// share volatile state across devices.
pub fn roster(sizing: Sizing, select: Select) -> Vec<CrashTarget> {
    let (spash, halo_log) = match sizing {
        Sizing::Sweep => (SpashConfig::test_default(), 8 << 20),
        Sizing::Suite => (SpashConfig::default(), 64 << 20),
    };
    let mut targets = Vec::new();
    if select != Select::Baselines {
        targets.push(Spash::crash_target(spash));
    }
    if select != Select::Spash {
        targets.extend([
            Cceh::crash_target(1),
            Dash::crash_target(1),
            Level::crash_target(4),
            CLevel::crash_target(4),
            Plush::crash_target(4),
            Halo::crash_target(halo_log, u64::MAX),
        ]);
    }
    targets
}

/// The full sweep-sized roster (the sanitizer suites' name for it).
pub fn all_targets() -> Vec<CrashTarget> {
    roster(Sizing::Sweep, Select::All)
}
