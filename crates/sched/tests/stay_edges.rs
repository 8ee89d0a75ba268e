//! The edges of the scheduler's stay budget, from the outside.
//!
//! A sync point whose outcome is known in advance to be "stay" is a
//! counter bump (DESIGN.md §4); the step valve, an injected crash and a
//! replayed trace must still act at exactly the sync point they name,
//! with exactly the decisions recorded up to there. Everything asserted
//! here is observable behaviour of `run_tasks` that predates the budget:
//! this file, unchanged, also passes on the sources before it.

use std::sync::atomic::{AtomicU64, Ordering};

use spash_pmem::schedhook::{self, SyncEvent};
use spash_sched::{run_tasks, SchedConfig, SchedOutcome};

type Body<'a> = Box<dyn FnOnce() + Send + 'a>;

/// `n_tasks` tasks of `points` may-switch sync points each, counting in
/// `reached` every sync point a task is about to take.
fn stay_bodies(reached: &AtomicU64, n_tasks: usize, points: u64) -> Vec<Body<'_>> {
    (0..n_tasks)
        .map(|_| {
            let b: Body<'_> = Box::new(move || {
                for _ in 0..points {
                    reached.fetch_add(1, Ordering::SeqCst);
                    schedhook::sync_point(SyncEvent::LockAcquire);
                }
            });
            b
        })
        .collect()
}

/// No preemption budget: with or without live peers, every may-switch
/// point stays.
fn no_preemptions(seed: u64) -> SchedConfig {
    SchedConfig::random(seed, 0)
}

#[test]
fn the_step_valve_trips_at_the_same_sync_point_inside_a_stay_run() {
    for n_tasks in [1, 3] {
        let reached = AtomicU64::new(0);
        let cfg = SchedConfig {
            max_steps: 500,
            ..no_preemptions(9)
        };
        let out = run_tasks(&cfg, None, stay_bodies(&reached, n_tasks, 2_000));
        assert!(
            out.stopped.is_some_and(|why| why.contains("step valve")),
            "{n_tasks} tasks: {:?}",
            out.stopped
        );
        // Sync point 501 is the first past the valve: it halts the run
        // before deciding anything, so the trace holds the initial grant
        // and the 500 stays before it.
        assert_eq!(reached.load(Ordering::SeqCst), 501, "{n_tasks} tasks");
        assert_eq!(out.trace.len(), 501, "{n_tasks} tasks");
        assert!(out.panics.is_empty());
    }
}

#[test]
fn a_crash_ordinal_inside_a_stay_run_fires_at_that_decision() {
    for n_tasks in [1, 3] {
        for at in [1u64, 2, 777, 1_999] {
            let reached = AtomicU64::new(0);
            let cfg = SchedConfig {
                crash_at_decision: Some(at),
                ..no_preemptions(9)
            };
            let out = run_tasks(&cfg, None, stay_bodies(&reached, n_tasks, 2_000));
            // The initial grant is decision 0, so the sync point that
            // finds `at` decisions recorded is the `at`-th.
            let case = format!("{n_tasks} tasks, crash at {at}");
            assert_eq!(reached.load(Ordering::SeqCst), at, "{case}");
            assert_eq!(out.trace.len() as u64, at, "{case}");
            assert!(out.stopped.is_none() && out.panics.is_empty(), "{case}");
        }
    }
}

/// Task 0 spins until the last task has finished its appends; every task
/// appends its id under a cooperative lock. Forced switches, budgeted
/// preemptions, long stay runs and task exits all occur.
fn contended(cfg: &SchedConfig, n_tasks: u32, per_task: u32) -> (SchedOutcome, Vec<u32>) {
    let flag = AtomicU64::new(0);
    let log = spash_pmem::sync::Mutex::new(Vec::new());
    let bodies: Vec<Body<'_>> = (0..n_tasks)
        .map(|t| {
            let (flag, log) = (&flag, &log);
            let b: Body<'_> = Box::new(move || {
                if t == 0 {
                    while flag.load(Ordering::SeqCst) == 0 {
                        schedhook::spin_wait();
                    }
                }
                for i in 0..per_task {
                    log.lock().push(t);
                    schedhook::sync_point(SyncEvent::AtomicRmw(i as u64));
                }
                if t == n_tasks - 1 {
                    flag.store(1, Ordering::SeqCst);
                }
            });
            b
        })
        .collect();
    let out = run_tasks(cfg, None, bodies);
    assert!(out.panics.is_empty(), "{:?}", out.panics);
    assert!(out.stopped.is_none(), "{:?}", out.stopped);
    let order = log.lock().clone();
    (out, order)
}

#[test]
fn replay_reproduces_a_random_run_with_blocking_switches() {
    let (recorded, order) = contended(&SchedConfig::random(0x5eed, 4), 4, 300);
    assert_eq!(order.len(), 1_200);
    assert_eq!(
        (recorded.trace.len(), recorded.trace_hash()),
        (2_405, 5_467_032_607_254_309_768)
    );
    let (replayed, replayed_order) =
        contended(&SchedConfig::replay(recorded.trace.clone()), 4, 300);
    assert_eq!(replayed.trace, recorded.trace);
    assert_eq!(replayed_order, order);
}

#[test]
fn an_exhausted_or_diverged_replay_degrades_deterministically() {
    // Exhausted: the trace of a shorter run of the same shape ends while
    // this one still has sync points to take.
    let (short, _) = contended(&SchedConfig::random(0x5eed, 4), 4, 100);
    let exhausted = SchedConfig::replay(short.trace.clone());
    let (a, order_a) = contended(&exhausted, 4, 300);
    let (b, order_b) = contended(&exhausted, 4, 300);
    assert_eq!((&a.trace, &order_a), (&b.trace, &order_b));
    assert_eq!(
        (a.trace.len(), a.trace_hash()),
        (2_508, 3_156_619_524_692_058_393)
    );

    // Diverged: a five-task trace names a task that does not exist here,
    // and names live ones at points where they have already finished.
    let (wide, _) = contended(&SchedConfig::random(0x5eed, 4), 5, 300);
    let diverged = SchedConfig::replay(wide.trace.clone());
    let (a, order_a) = contended(&diverged, 4, 300);
    let (b, order_b) = contended(&diverged, 4, 300);
    assert_eq!((&a.trace, &order_a), (&b.trace, &order_b));
    assert_eq!(
        (a.trace.len(), a.trace_hash()),
        (2_408, 4_403_162_829_001_546_229)
    );
}
