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

use spash_index_api::crashpoint::{panic_text, CrashTarget};
use spash_pmem::{PmConfig, PmDevice};

use crate::lin::{prefill_value, thread_workload, LinConfig};
use crate::{run_tasks, SchedOutcome, Trace};

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
    crate::lin::run_schedule(target, pm, &probe).outcome.trace.len() as u64
}

/// Run `cfg` (whose `sched.crash_at_decision` must be set), crash at that
/// decision, simulate the power failure, and attempt recovery.
pub fn run_crash_schedule(target: &CrashTarget, pm: &PmConfig, cfg: &LinConfig) -> CrashSchedOutcome {
    assert!(
        cfg.sched.crash_at_decision.is_some(),
        "crash-schedule run without a crash point"
    );
    let dev = PmDevice::new(pm.clone());
    let mut ctx = dev.ctx();
    let idx = (target.format)(&mut ctx);
    for k in 1..=cfg.prefill {
        let _ = idx.insert(&mut ctx, k, &prefill_value(k));
    }
    // Crash ordinals are counted from the start of the *concurrent*
    // phase; the prefill's media writes are history.
    dev.faults().reset();

    let idx: std::sync::Arc<dyn spash_index_api::PersistentIndex> = std::sync::Arc::from(idx);
    let mut bodies: Vec<Box<dyn FnOnce() + Send>> = Vec::with_capacity(cfg.threads);
    for t in 0..cfg.threads {
        let ops = thread_workload(cfg, t);
        let idx = std::sync::Arc::clone(&idx);
        let mut tctx = dev.ctx();
        bodies.push(Box::new(move || {
            for op in &ops {
                // Expected refusals (duplicate, missing, full) are normal:
                // a crashed schedule cares about durability, not outcomes.
                let _ = op.apply(idx.as_ref(), &mut tctx);
            }
        }));
    }

    let d = std::sync::Arc::clone(&dev);
    let outcome: SchedOutcome = run_tasks(
        &cfg.sched,
        Some(Box::new(move || d.faults().trip_now())),
        bodies,
    );
    drop(idx); // volatile index state dies with the "machine"

    let mut result = CrashSchedOutcome {
        fired: outcome.injected_crash.is_some(),
        write: outcome.injected_crash,
        trace: outcome.trace,
        recovery: None,
        unexpected_panic: outcome.panics.first().cloned(),
    };
    if !result.fired {
        return result;
    }

    let _ = dev.simulate_power_failure();
    let mut rctx = dev.ctx();
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| (target.recover)(&mut rctx))) {
        Ok(None) => result.recovery = None,
        Ok(Some(rec)) => result.recovery = Some(rec.audit_error),
        Err(p) => {
            result.unexpected_panic =
                Some(format!("recovery panicked: {}", panic_text(p.as_ref())));
        }
    }
    result
}
