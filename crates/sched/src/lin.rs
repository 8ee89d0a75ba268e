//! One scheduled concurrent run over a [`CrashTarget`], with history
//! recording and linearizability checking.
//!
//! The driver formats a fresh index, prefills it sequentially (building
//! the checker's initial model state), then runs `threads` tasks under
//! the deterministic scheduler, each applying its own seeded slice of the
//! same workload generator the crash-point sweep uses. Every completed
//! operation is timestamped and recorded; after the run the history is
//! checked against the sequential map model with
//! [`spash_index_api::history::check_linearizable`]. The same run with
//! [`SchedConfig::crash_at_decision`] set is the crash-at-decision
//! driver's workload ([`crate::crashsched`]).

use std::collections::HashMap;
use std::sync::Arc;

use spash_index_api::crashpoint::{gen_workload, CrashTarget, SweepOp};
use spash_index_api::history::{self, fingerprint, HistOp, Recorder, Violation};
use spash_index_api::PersistentIndex;
use spash_pmem::{PmConfig, PmDevice};

use crate::{run_tasks, SchedConfig, SchedOutcome};

/// Parameters of one concurrent linearizability run.
#[derive(Clone, Debug)]
pub struct LinConfig {
    /// Simulated threads (tasks). The checker is exponential in history
    /// width; 2–4 is the useful range.
    pub threads: usize,
    /// Operations per thread. Total history length must stay ≤ 128.
    pub ops_per_thread: u64,
    /// Key space for the workload generator — small, so tasks collide.
    pub key_space: u64,
    /// Keys `1..=prefill` are inserted sequentially before the run.
    pub prefill: u64,
    /// Base seed for per-thread workloads (thread `t` uses a whitened
    /// `workload_seed + t`).
    pub workload_seed: u64,
    /// Scheduler mode, budget, and valves.
    pub sched: SchedConfig,
}

impl LinConfig {
    /// A small CI-sized run: 3 tasks × 8 ops over 12 keys.
    pub fn small(schedule_seed: u64) -> Self {
        Self {
            threads: 3,
            ops_per_thread: 8,
            key_space: 12,
            prefill: 6,
            workload_seed: 0x51AA_5EED,
            sched: SchedConfig::random(schedule_seed, 24),
        }
    }
}

/// Everything one scheduled run produced.
pub struct LinRun {
    /// Completed operations (unordered; the checker sorts by timestamp).
    pub history: Vec<HistOp>,
    /// Scheduler outcome: decision trace, panics, valves.
    pub outcome: SchedOutcome,
    /// Prefill state the checker started from (key → value fingerprint).
    pub initial: HashMap<u64, u64>,
    /// `Some` if the history is not linearizable.
    pub violation: Option<Violation>,
    /// Persistence-ordering sanitizer findings, rendered (empty when the
    /// device ran without a sanitizer, or the run crashed/stalled).
    pub san_violations: Vec<String>,
    /// The device the run used, for a caller that power-fails it.
    pub device: Arc<PmDevice>,
}

impl LinRun {
    /// Did the run complete cleanly (no panics, no valve) and pass the
    /// linearizability check and the sanitizer?
    pub fn ok(&self) -> bool {
        self.violation.is_none()
            && self.outcome.panics.is_empty()
            && self.outcome.stopped.is_none()
            && self.san_violations.is_empty()
    }

    /// Deterministic byte encoding of the recorded history (for replay
    /// equality assertions).
    pub fn encoded_history(&self) -> Vec<u8> {
        history::encode(&self.history)
    }
}

/// Deterministic 6-byte prefill value for key `k` (inline-path sized).
pub fn prefill_value(k: u64) -> Vec<u8> {
    (0..6u64).map(|i| (k ^ (i.wrapping_mul(0xA5))) as u8).collect()
}

/// Per-thread workload: same generator as the crash-point sweep, whitened
/// per thread so slices differ but stay reproducible.
fn thread_workload(cfg: &LinConfig, t: usize) -> Vec<SweepOp> {
    gen_workload(
        cfg.workload_seed
            .wrapping_add((t as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
        cfg.ops_per_thread,
        cfg.key_space,
    )
}

/// Run one schedule against `target` and check the history.
///
/// When [`SchedConfig::crash_at_decision`] is set the device fault plan is
/// wired into the scheduler and the run ends in an injected crash (see
/// [`crate::crashsched`]); plain linearizability runs get no crash.
pub fn run_schedule(target: &CrashTarget, pm: &PmConfig, cfg: &LinConfig) -> LinRun {
    let dev = PmDevice::new(pm.clone());
    let mut ctx = dev.ctx();
    let idx = (target.format)(&mut ctx);

    // Sequential prefill on the formatting context; its results seed the
    // checker's initial model state.
    let mut initial = HashMap::new();
    for k in 1..=cfg.prefill {
        let v = prefill_value(k);
        if idx.insert(&mut ctx, k, &v).is_ok() {
            initial.insert(k, fingerprint(&v));
        }
    }
    // Crash ordinals are counted from the start of the *concurrent*
    // phase; the prefill's media writes are history.
    dev.faults().reset();

    let idx: Arc<dyn PersistentIndex> = Arc::from(idx);
    let recorder = Recorder::new();

    // Per-task contexts are created *before* spawning, in task order, so
    // simulated-thread ids (and thus any tid-dependent behaviour) are a
    // pure function of the configuration, not of spawn timing.
    let mut bodies: Vec<Box<dyn FnOnce() + Send>> = Vec::with_capacity(cfg.threads);
    for t in 0..cfg.threads {
        let ops = thread_workload(cfg, t);
        let idx = Arc::clone(&idx);
        let rec = recorder.clone();
        let mut tctx = dev.ctx();
        bodies.push(Box::new(move || {
            for op in &ops {
                rec.run_op(idx.as_ref(), &mut tctx, t, op);
            }
        }));
    }

    let crash_fn: Option<Box<dyn Fn() + Send + Sync>> = if cfg.sched.crash_at_decision.is_some() {
        let d = Arc::clone(&dev);
        Some(Box::new(move || d.faults().trip_now()))
    } else {
        None
    };

    let outcome = run_tasks(&cfg.sched, crash_fn, bodies);
    let history = recorder.take();

    // Only a clean, complete run has a checkable history: after a crash
    // or a valve stop, in-flight operations are missing by design (the
    // crash-schedule driver checks *recovery* instead).
    let complete = outcome.panics.is_empty()
        && outcome.stopped.is_none()
        && outcome.injected_crash.is_none();
    let violation = if complete {
        history::check_linearizable(&history, &initial).err()
    } else {
        None
    };

    // Persistence-ordering gate: only a complete run ends at a real
    // visibility edge. A crashed or valve-stopped run legitimately has
    // unflushed in-flight state (the crash-schedule driver checks its
    // recovery instead).
    let san_violations = match dev.san() {
        Some(san) if complete => {
            san.final_check();
            let r = san.report();
            let mut out: Vec<String> = r.violations.iter().map(|v| v.to_string()).collect();
            if r.dropped > 0 {
                out.push(format!("[san] {} further violation(s) dropped", r.dropped));
            }
            out
        }
        _ => Vec::new(),
    };

    LinRun {
        history,
        outcome,
        initial,
        violation,
        san_violations,
        device: dev,
    }
}
