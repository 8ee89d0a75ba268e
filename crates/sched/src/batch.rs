//! Batch-run driver: N worker tasks run to completion under one
//! scheduler seed, each returning a result (op count, end-of-task virtual
//! clock, ...) that the caller aggregates.
//!
//! This is the scalability sweep's execution engine (`spash-bench scale`,
//! DESIGN.md "Deterministic scalability sweep"): [`crate::run_tasks`]
//! provides the cooperative interleaving machinery (record / replay /
//! crash injection); `run_batch` adds per-task result collection so a
//! measured phase can assert `total ops == sum of per-task ops` and
//! compute virtual-time throughput from the max per-task clock. The
//! decision trace in the returned [`SchedOutcome`] is a complete
//! reproducer: replaying it re-runs the whole multi-thread bench phase
//! byte-identically.

// lint:allow(std-sync): host-side result slots; each slot is written
// exactly once, by its own task, after its last sync point — the lock is
// never held across a sync point, so it cannot deadlock the scheduler.
use std::sync::Mutex as StdMutex;

use crate::{run_tasks, SchedConfig, SchedOutcome};

/// What one scheduled batch produced: the scheduler outcome (decision
/// trace, panics, valves) plus one result slot per task.
#[derive(Debug)]
pub struct BatchOutcome<T> {
    pub sched: SchedOutcome,
    /// `results[i]` is `Some` iff task `i` ran to completion. A task that
    /// unwound (injected crash, peer panic, valve stop) leaves `None` —
    /// callers decide whether a partial batch is an error.
    pub results: Vec<Option<T>>,
}

impl<T> BatchOutcome<T> {
    /// Did every task complete and the scheduler finish cleanly?
    pub fn complete(&self) -> bool {
        self.sched.panics.is_empty()
            && self.sched.stopped.is_none()
            && self.sched.injected_crash.is_none()
            && self.results.iter().all(Option::is_some)
    }

    /// Unwrap a fully completed batch into its per-task results, or say
    /// what went wrong (task panic, valve stop, injected crash, missing
    /// slot). The shared happy-path plumbing of every batch driver: the
    /// scale sweep's measured phases and the service front-end's
    /// lin-check both refuse partial batches through this.
    pub fn into_complete(self) -> Result<Vec<T>, String> {
        if !self.sched.panics.is_empty() {
            return Err(format!("task panic under schedule: {:?}", self.sched.panics));
        }
        if let Some(why) = self.sched.stopped {
            return Err(format!("scheduler stopped: {why}"));
        }
        if self.sched.injected_crash.is_some() {
            return Err("batch ended by injected crash".to_string());
        }
        self.results
            .into_iter()
            .map(|r| r.ok_or_else(|| "task finished without a result".to_string()))
            .collect()
    }
}

/// Run `bodies` to completion as cooperatively scheduled tasks and
/// collect their return values.
///
/// Semantics are exactly [`run_tasks`]'s (same decision trace for the
/// same `cfg`, same crash injection contract via `crash_fn`); the only
/// addition is the per-slot result. Task `i`'s body publishes its result
/// after its final sync point, so a completed slot is always consistent
/// with the recorded trace.
pub fn run_batch<'a, T: Send + 'a>(
    cfg: &SchedConfig,
    crash_fn: Option<Box<dyn Fn() + Send + Sync>>,
    bodies: Vec<Box<dyn FnOnce() -> T + Send + 'a>>,
) -> BatchOutcome<T> {
    let slots: Vec<StdMutex<Option<T>>> = bodies.iter().map(|_| StdMutex::new(None)).collect();
    let wrapped: Vec<Box<dyn FnOnce() + Send + '_>> = bodies
        .into_iter()
        .enumerate()
        .map(|(i, body)| {
            let slot = &slots[i];
            let b: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                let r = body();
                *slot.lock().unwrap() = Some(r);
            });
            b
        })
        .collect();
    let sched = run_tasks(cfg, crash_fn, wrapped);
    let results = slots
        .into_iter()
        .map(|s| s.into_inner().unwrap())
        .collect();
    BatchOutcome { sched, results }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spash_pmem::sync::Mutex;

    /// Tasks contend on a shared cooperative lock and return (ops, a
    /// checksum of the orders they observed).
    fn contended_batch(
        cfg: &SchedConfig,
        n_tasks: usize,
        per_task: u64,
    ) -> (BatchOutcome<(u64, u64)>, Vec<u32>) {
        let log = Mutex::new(Vec::new());
        let bodies: Vec<Box<dyn FnOnce() -> (u64, u64) + Send + '_>> = (0..n_tasks)
            .map(|t| {
                let log = &log;
                let b: Box<dyn FnOnce() -> (u64, u64) + Send + '_> = Box::new(move || {
                    let mut seen = 0u64;
                    for i in 0..per_task {
                        let mut g = log.lock();
                        g.push(t as u32);
                        seen = seen.wrapping_mul(31).wrapping_add(g.len() as u64 ^ i);
                    }
                    (per_task, seen)
                });
                b
            })
            .collect();
        let out = run_batch(cfg, None, bodies);
        let order = log.lock().clone();
        (out, order)
    }

    #[test]
    fn collects_every_result_and_sums_ops() {
        let (out, order) = contended_batch(&SchedConfig::random(11, 16), 4, 6);
        assert!(out.complete());
        let total: u64 = out.results.iter().map(|r| r.unwrap().0).sum();
        assert_eq!(total, 24);
        assert_eq!(order.len(), 24);
    }

    #[test]
    fn same_seed_same_results_and_trace() {
        let (a, oa) = contended_batch(&SchedConfig::random(5, 16), 3, 8);
        let (b, ob) = contended_batch(&SchedConfig::random(5, 16), 3, 8);
        assert_eq!(a.sched.trace, b.sched.trace);
        assert_eq!(a.results, b.results);
        assert_eq!(oa, ob);
    }

    #[test]
    fn replaying_the_trace_reproduces_results() {
        let (a, oa) = contended_batch(&SchedConfig::random(9, 16), 3, 8);
        assert!(a.complete());
        let (b, ob) = contended_batch(&SchedConfig::replay(a.sched.trace.clone()), 3, 8);
        assert_eq!(a.sched.trace, b.sched.trace);
        assert_eq!(a.results, b.results);
        assert_eq!(oa, ob);
    }

    /// What "bit-identical" means for the scheduler below the benchmark:
    /// the decision trace of one seeded batch that meets every arm of
    /// `Scheduler::pick` — forced switches (task 0 spins until task 3
    /// raises the flag), budgeted preemptions and, once the budget of 6
    /// is spent, stays at the remaining may-switch points, and task
    /// exits at four different times.
    #[test]
    fn decision_trace_of_a_seeded_batch_is_pinned() {
        use spash_pmem::schedhook::{self, SyncEvent};
        use std::sync::atomic::{AtomicU64, Ordering};

        let flag = AtomicU64::new(0);
        let log = Mutex::new(Vec::new());
        let bodies: Vec<Box<dyn FnOnce() -> u64 + Send + '_>> = (0..4u64)
            .map(|t| {
                let (flag, log) = (&flag, &log);
                let b: Box<dyn FnOnce() -> u64 + Send + '_> = Box::new(move || {
                    if t == 0 {
                        while flag.load(Ordering::SeqCst) == 0 {
                            schedhook::spin_wait();
                        }
                    }
                    for i in 0..10 * (t + 1) {
                        log.lock().push(t as u32);
                        schedhook::sync_point(SyncEvent::AtomicRmw(i));
                    }
                    if t == 3 {
                        flag.store(1, Ordering::SeqCst);
                    }
                    t
                });
                b
            })
            .collect();
        let out = run_batch(&SchedConfig::random(0x5eed, 6), None, bodies);
        assert!(out.complete());
        assert_eq!(out.results, vec![Some(0), Some(1), Some(2), Some(3)]);
        let trace: Vec<u16> = out.sched.trace.iter().collect();
        let switches = trace.windows(2).filter(|w| w[0] != w[1]).count();
        let stays = trace.windows(2).filter(|w| w[0] == w[1]).count();
        assert!(switches > 6, "forced switches on top of the 6 budgeted: {switches}");
        assert!(stays > 100, "may-switch points that stayed: {stays}");
        assert_eq!(
            (trace.len(), out.sched.trace_hash()),
            (208, 13_203_199_767_789_465_461),
            "trace {:?}",
            out.sched.trace
        );
    }

    #[test]
    fn stopped_runs_leave_incomplete_slots() {
        // One task spins forever: the deadlock valve stops the world and
        // its slot stays None.
        let bodies: Vec<Box<dyn FnOnce() -> u64 + Send>> = vec![Box::new(|| {
            loop {
                spash_pmem::schedhook::spin_wait();
            }
        })];
        let out = run_batch(&SchedConfig::random(1, 4), None, bodies);
        assert!(out.sched.stopped.is_some());
        assert!(!out.complete());
        assert_eq!(out.results, vec![None]);
    }
}
