//! Crash injection at scheduler decision points.
//!
//! The single-thread crash-point sweep (`spash_index_api::crashpoint`)
//! enumerates *when* a power failure hits along the media-write axis.
//! This module adds the *who*: a crash fired while several tasks are
//! mid-operation at a scheduler-chosen interleaving point. The task
//! holding the baton trips the device [`FaultPlan`] (same
//! `CrashPointHit` unwind as an armed media write), the scheduler stops
//! the world, the device simulates the power failure, and recovery runs
//! against the torn image.
//!
//! The check mirrors [`CheckLevel::NoCorruption`]: recovery and the
//! structural audit must complete without panicking on every reachable
//! post-crash image — declining to recover or reporting an audit
//! violation are statistics, not failures (ADR platforms legitimately
//! tear unflushed state).
//!
//! The run up to the crash *is* [`run_schedule`]: the same format,
//! prefill, task bodies and scheduler, with the fault plan wired in by
//! `crash_at_decision`. This module adds only the power failure and the
//! recovery.

use spash_index_api::crashpoint::{panic_text, CrashTarget};
use spash_pmem::PmConfig;

use crate::lin::{run_schedule, LinConfig};
use crate::Trace;

/// Outcome of one crash-at-decision run.
#[derive(Debug)]
pub struct CrashSchedOutcome {
    /// Did the injected crash actually fire? (`false` when the schedule
    /// finished before reaching the requested decision ordinal.)
    pub fired: bool,
    /// Media-write ordinal at the moment of the crash.
    pub write: Option<u64>,
    /// Scheduler decisions taken up to the stop.
    pub trace: Trace,
    /// `None` = the implementation declined to recover the torn image;
    /// `Some(audit_error)` = it recovered, with any audit violation.
    pub recovery: Option<Option<String>>,
    /// A panic *outside* the fault plan (in an operation or in recovery).
    /// Always a failure.
    pub unexpected_panic: Option<String>,
}

impl CrashSchedOutcome {
    /// The `NoCorruption` bar: nothing panicked outside the fault plan.
    pub fn no_corruption(&self) -> bool {
        self.unexpected_panic.is_none()
    }
}

/// Count the scheduler decisions a crash-free run of `cfg` takes, so
/// callers can sample `crash_at_decision` ordinals inside the schedule.
pub fn measure_decisions(target: &CrashTarget, pm: &PmConfig, cfg: &LinConfig) -> u64 {
    let mut probe = cfg.clone();
    probe.sched.crash_at_decision = None;
    run_schedule(target, pm, &probe).outcome.trace.len() as u64
}

/// Run `cfg` (whose `sched.crash_at_decision` must be set), crash at that
/// decision, simulate the power failure, and attempt recovery.
pub fn run_crash_schedule(target: &CrashTarget, pm: &PmConfig, cfg: &LinConfig) -> CrashSchedOutcome {
    assert!(
        cfg.sched.crash_at_decision.is_some(),
        "crash-schedule run without a crash point"
    );
    // A crashed schedule cares about durability, not outcomes: its
    // history is incomplete and goes unchecked. The volatile index state
    // died with the "machine" when the run returned.
    let run = run_schedule(target, pm, cfg);
    let mut result = CrashSchedOutcome {
        fired: run.outcome.injected_crash.is_some(),
        write: run.outcome.injected_crash,
        trace: run.outcome.trace,
        recovery: None,
        unexpected_panic: run.outcome.panics.first().cloned(),
    };
    if !result.fired {
        return result;
    }

    let dev = run.device;
    let _ = dev.simulate_power_failure();
    let mut rctx = dev.ctx();
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| target.recover_audited(&mut rctx))) {
        Ok(None) => result.recovery = None,
        Ok(Some(rec)) => result.recovery = Some(rec.audit_error),
        Err(p) => {
            result.unexpected_panic =
                Some(format!("recovery panicked: {}", panic_text(p.as_ref())));
        }
    }
    result
}
