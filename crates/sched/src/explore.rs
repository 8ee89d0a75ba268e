//! Multi-seed schedule exploration with record/replay of failures.
//!
//! Runs the same seeded workload under many random schedules, counts the
//! distinct interleavings actually explored (trace hashes), checks every
//! clean history for linearizability, and — when a violation or panic
//! surfaces — immediately replays the recorded decision trace to confirm
//! the failure is deterministic, capturing everything a developer needs
//! to reproduce it (`seed`, the trace itself, and the rendered history).

use std::collections::HashSet;

use spash_index_api::crashpoint::CrashTarget;
use spash_pmem::PmConfig;

use crate::lin::{run_schedule, LinConfig};
use crate::{SchedConfig, SchedMode, Trace};

/// Explorer parameters: a seed range over [`LinConfig`]-shaped runs.
#[derive(Clone, Debug)]
pub struct ExploreConfig {
    /// First schedule seed.
    pub seed0: u64,
    /// Number of consecutive seeds to run.
    pub seeds: u64,
    /// Per-run shape (threads / ops / keys / prefill). The `sched` field
    /// supplies the preemption budget and valves; its seed is overridden
    /// per run.
    pub lin: LinConfig,
}

impl ExploreConfig {
    pub fn ci(seeds: u64) -> Self {
        Self {
            seed0: 1,
            seeds,
            lin: LinConfig::small(0),
        }
    }
}

/// One failing seed, with everything needed to reproduce it.
#[derive(Debug)]
pub struct SeedFailure {
    pub seed: u64,
    /// Recorded decision trace of the failing run.
    pub trace: Trace,
    /// What went wrong (violation rendering or panic messages).
    pub detail: String,
    /// Did replaying the trace reproduce the same failure with a
    /// byte-identical history?
    pub replay_reproduces: bool,
}

/// Aggregate result of an exploration sweep over one target.
#[derive(Debug, Default)]
pub struct ExploreReport {
    pub name: String,
    /// Schedules executed.
    pub schedules: u64,
    /// Distinct decision traces among them.
    pub distinct: u64,
    /// Per-schedule trace hashes, in seed order (callers merging several
    /// batches dedup across them).
    pub trace_hashes: Vec<u64>,
    /// Linearizability violations found (empty on healthy code).
    pub violations: Vec<SeedFailure>,
    /// Real task panics found (empty on healthy code).
    pub panics: Vec<SeedFailure>,
    /// Runs halted by the step valve (livelock suspects).
    pub stopped: u64,
}

impl ExploreReport {
    pub fn clean(&self) -> bool {
        self.violations.is_empty() && self.panics.is_empty() && self.stopped == 0
    }
}

fn render_failure(seed: u64, trace: &Trace, detail: &str) -> String {
    format!(
        "schedule seed {seed} (trace: {} decisions) failed:\n{detail}\n\
         reproduce with SchedMode::Replay of the printed trace or the same seed\n\
         trace (task×count runs) = {trace:?}",
        trace.len(),
    )
}

/// Explore `cfg.seeds` random schedules of `target`'s concurrent
/// workload; verify every failure replays deterministically.
pub fn explore(target: &CrashTarget, pm: &PmConfig, cfg: &ExploreConfig) -> ExploreReport {
    let mut report = ExploreReport {
        name: target.name.clone(),
        ..Default::default()
    };
    let mut traces = HashSet::new();

    for seed in cfg.seed0..cfg.seed0 + cfg.seeds {
        let mut lin = cfg.lin.clone();
        lin.sched = SchedConfig {
            mode: match &cfg.lin.sched.mode {
                SchedMode::Random {
                    max_preemptions, ..
                } => SchedMode::Random {
                    seed,
                    max_preemptions: *max_preemptions,
                },
                // Exploration is random by construction.
                SchedMode::Replay(_) => SchedMode::Random {
                    seed,
                    max_preemptions: 24,
                },
            },
            ..cfg.lin.sched.clone()
        };
        let run = run_schedule(target, pm, &lin);
        report.schedules += 1;
        let h = run.outcome.trace_hash();
        traces.insert(h);
        report.trace_hashes.push(h);
        if run.outcome.stopped.is_some() {
            report.stopped += 1;
            continue;
        }

        let failed_detail = if let Some(v) = &run.violation {
            Some(v.to_string())
        } else if !run.outcome.panics.is_empty() {
            Some(run.outcome.panics.join("\n"))
        } else if !run.san_violations.is_empty() {
            Some(run.san_violations.join("\n"))
        } else {
            None
        };
        if let Some(detail) = failed_detail {
            // Replay the recorded trace: the failure must be a pure
            // function of the decisions, with a byte-identical history.
            let mut replay = lin.clone();
            replay.sched = SchedConfig::replay(run.outcome.trace.clone());
            let rerun = run_schedule(target, pm, &replay);
            let reproduces = rerun.outcome.trace == run.outcome.trace
                && rerun.encoded_history() == run.encoded_history()
                && (rerun.violation.is_some() == run.violation.is_some())
                && (rerun.outcome.panics.is_empty() == run.outcome.panics.is_empty())
                && rerun.san_violations == run.san_violations;
            let failure = SeedFailure {
                seed,
                trace: run.outcome.trace.clone(),
                detail: render_failure(seed, &run.outcome.trace, &detail),
                replay_reproduces: reproduces,
            };
            // Sanitizer findings are ordering violations too: they gate
            // the explorer exactly like a non-linearizable history.
            if run.violation.is_some() || !run.san_violations.is_empty() {
                report.violations.push(failure);
            } else {
                report.panics.push(failure);
            }
        }
    }

    report.distinct = traces.len() as u64;
    report
}
