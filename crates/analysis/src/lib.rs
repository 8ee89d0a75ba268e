//! Static analysis for the Spash reproduction. It reads source text
//! only and links no other workspace crate.
//!
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
//!
//! [`json`] is the hand-rolled JSON value the linter's reports,
//! `spash-bench`'s reports and the standalone benchmark share.

pub mod cfg;
pub mod conc_rules;
pub mod dataflow;
pub mod flow_rules;
pub mod json;
pub mod lint;
pub mod parse;
pub mod structure;
pub mod summaries;
pub mod tree;
