//! Loom-style deterministic cooperative scheduler.
//!
//! Concurrency bugs in this workspace hide in interleavings of *modelled*
//! synchronization — HTM line acquire/commit/abort, `VLock` handoff,
//! atomic RMWs on PM cachelines — not in host-level data races (the
//! simulator's host locks already exclude those). So instead of running N
//! OS threads and hoping the kernel scheduler stumbles into the bad
//! window, this crate runs N *tasks* (real threads gated by a baton) of
//! which exactly one is runnable at any instant, and switches between
//! them only at the sync points published through
//! [`spash_pmem::schedhook`]. Every interleaving is then a pure function
//! of the scheduler's decision sequence:
//!
//! * **Explore** — a seeded RNG picks the next task at each sync point,
//!   with a bounded budget of preemptions at non-blocking points
//!   (Chess-style context-bounding: most bugs need only a few).
//! * **Record** — every decision is appended to a [`Trace`] (the chosen
//!   task ids, held as `(task, count)` runs).
//! * **Replay** — feeding a recorded trace back reproduces the
//!   interleaving exactly, byte-for-byte, on any machine. A failing seed
//!   printed by the explorer is a complete bug reproducer.
//!
//! The cooperative contract that makes this sound: while a scheduler hook
//! is installed, simulator code never blocks on a host primitive that a
//! *descheduled* task may hold — `spash_pmem::sync` locks spin on
//! `try_lock` with a yield between attempts, and every busy-wait loop in
//! the workspace routes through [`spash_pmem::schedhook::spin_wait`]. A
//! blocking event ([`SyncEvent::is_blocking`]) forces a switch to another
//! task, so spins terminate; everything else is a *may-switch* point.
//!
//! Crash composition: a crash can be injected at a chosen decision
//! ordinal ([`SchedConfig::crash_at_decision`]). The task holding the
//! baton fires the device's [`spash_pmem::fault::FaultPlan`] (unwinding
//! with `CrashPointHit`), the world stops, and every other task unwinds
//! with [`SchedCrash`] at its next sync point — modelling a power failure
//! while several operations are mid-flight at scheduler-controlled
//! points. See [`crashsched`].
//!
//! Host cost: almost every decision is "stay" (a benchmark phase takes
//! 13 million and switches 71 times), and for most of them that is known
//! beforehand. The scheduler therefore answers the baton holder with a
//! *stay budget* (`Decisions::stay_budget`), and a sync point inside it
//! is a decrement of the holder's own thread-local in
//! [`spash_pmem::schedhook`]: no lock, no peer count, no trace push. Only
//! a sync point the budget does not cover reaches the scheduler, and
//! only a switch touches the `Baton` and wakes a thread — the one
//! chosen.

pub mod batch;
pub mod crashsched;
pub mod explore;
pub mod lin;
mod trace;

pub use trace::Trace;

use std::panic::{self, AssertUnwindSafe};
// lint:allow(std-sync): the scheduler's baton is the one place that must
// block the host thread for real — it *implements* descheduling, so it
// cannot route through the cooperative primitives it coordinates.
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use spash_index_api::crashpoint::panic_text;
use spash_index_api::rng::Rng64;
use spash_pmem::fault::CrashPointHit;
use spash_pmem::schedhook::{self, SchedHook, SyncEvent};

use trace::Cursor;

/// `Baton::current` when every task has finished.
const NO_TASK: usize = usize::MAX;

/// Panic payload thrown into every still-running task once the world has
/// stopped (injected crash, peer panic, or step valve). Control flow, not
/// a failure; silenced by [`silence_sched_panics`].
pub struct SchedCrash;

/// Panic payload thrown when the scheduler halts the run itself (step
/// valve, cooperative-contract deadlock).
pub struct SchedStop(pub &'static str);

/// Install (once, process-wide) a panic hook that stays silent for
/// [`SchedCrash`] / [`SchedStop`] unwinds and delegates everything else
/// to the previously installed hook. Chains with
/// [`spash_pmem::fault::silence_crash_point_panics`].
pub fn silence_sched_panics() {
    use std::sync::Once;
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        spash_pmem::fault::silence_crash_point_panics();
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            let p = info.payload();
            if p.downcast_ref::<SchedCrash>().is_none() && p.downcast_ref::<SchedStop>().is_none()
            {
                prev(info);
            }
        }));
    });
}

/// How the scheduler chooses the next task at each decision point.
#[derive(Clone, Debug)]
pub enum SchedMode {
    /// Seeded random exploration with a bounded preemption budget.
    /// Blocking events always switch (and do not consume budget);
    /// non-blocking events preempt with probability 1/4 while budget
    /// remains.
    Random { seed: u64, max_preemptions: u32 },
    /// Follow a recorded decision trace verbatim. Replaying the trace of
    /// a previous run reproduces its interleaving exactly.
    Replay(Trace),
}

/// One schedule's configuration.
#[derive(Clone, Debug)]
pub struct SchedConfig {
    pub mode: SchedMode,
    /// Livelock valve: halt the run (as a failure) after this many sync
    /// points.
    pub max_steps: u64,
    /// Fire the device fault plan at the first task sync point at or
    /// after this decision ordinal (index into the trace). `None` = never.
    pub crash_at_decision: Option<u64>,
}

impl SchedConfig {
    pub fn random(seed: u64, max_preemptions: u32) -> Self {
        Self {
            mode: SchedMode::Random {
                seed,
                max_preemptions,
            },
            max_steps: 2_000_000,
            crash_at_decision: None,
        }
    }

    pub fn replay(trace: impl Into<Trace>) -> Self {
        Self {
            mode: SchedMode::Replay(trace.into()),
            max_steps: 2_000_000,
            crash_at_decision: None,
        }
    }
}

/// What one scheduled run produced.
#[derive(Debug)]
pub struct SchedOutcome {
    /// The full decision sequence: chosen task id at every decision
    /// point. Feeding this to [`SchedConfig::replay`] reproduces the run.
    pub trace: Trace,
    /// Media-write ordinal at which an injected crash fired, if one did.
    pub injected_crash: Option<u64>,
    /// Panic messages from tasks that failed for real (not control-flow
    /// unwinds). Non-empty = the run found a bug.
    pub panics: Vec<String>,
    /// Why the scheduler halted the run, if it did (step valve /
    /// cooperative deadlock).
    pub stopped: Option<&'static str>,
    /// Sync points that could not be settled from the stay budget.
    #[cfg(test)]
    slow_entries: u64,
}

impl SchedOutcome {
    /// Hash of the decision trace ([`Trace::hash`]) — the identity of the
    /// explored interleaving (used to count distinct schedules).
    pub fn trace_hash(&self) -> u64 {
        self.trace.hash()
    }
}

/// Who runs. The one thing tasks block on: its mutex is taken to hand
/// control over, to wait for it, and to stop the world or learn that it
/// has stopped — never to decide.
struct Baton {
    /// Task currently holding the baton.
    current: usize,
    /// World stop: unwound tasks must not keep running.
    crashed: bool,
    injected_crash: Option<u64>,
    panics: Vec<String>,
    stopped: Option<&'static str>,
}

/// What the next decision depends on. Only the task holding the baton
/// reads or writes it (its mutex is the safe spelling of that ownership:
/// it is contended only among tasks unwinding from a world stop, which
/// decide nothing).
struct Decisions {
    finished: Vec<bool>,
    trace: Trace,
    rng: Option<Rng64>,
    preemptions_left: u32,
    replay: Option<Cursor>,
    steps: u64,
    max_steps: u64,
    crash_at: Option<u64>,
    #[cfg(test)]
    slow_entries: u64,
}

/// One instance per scheduled run.
pub struct Scheduler {
    baton: Mutex<Baton>,
    /// `wake[t]` is signalled when task `t` is handed the baton, and all
    /// of them when the world stops.
    wake: Vec<Condvar>,
    decisions: Mutex<Decisions>,
    crash_fn: Option<Box<dyn Fn() + Send + Sync>>,
}

struct TaskHook {
    sched: Arc<Scheduler>,
    id: usize,
}

impl SchedHook for TaskHook {
    fn sync_point(&self, ev: SyncEvent, stays: u64) -> u64 {
        self.sched.sync_point(self.id, ev, stays)
    }
}

impl Decisions {
    /// Pick the next baton holder. `must_switch` excludes the current
    /// task (blocking event / task exit). Pushes the decision onto the
    /// trace. Returns `None` when no task can be chosen.
    fn pick(&mut self, id: usize, must_switch: bool) -> Option<usize> {
        let Decisions {
            finished,
            replay,
            rng,
            preemptions_left,
            trace,
            ..
        } = self;
        let n = finished.len();
        // The unfinished peers of `id`, in task order — counted and
        // indexed in place: a decision must not allocate.
        let others = || (0..n).filter(|&t| t != id && !finished[t]);
        let self_alive = id < n && !finished[id];
        let next = if let Some(cursor) = replay {
            match cursor.advance(1).map(usize::from) {
                // A recorded decision is trusted verbatim: replaying a
                // trace against the same seeded workload re-encounters
                // the same sync points in the same order.
                Some(t) if t < n && !finished[t] && !(must_switch && t == id) => t,
                // Trace exhausted or diverged (different binary/workload):
                // degrade to the deterministic fallback.
                _ => {
                    if must_switch || !self_alive {
                        others().next()?
                    } else {
                        id
                    }
                }
            }
        } else {
            let rng = rng.as_mut().expect("random mode");
            let must = must_switch || !self_alive;
            let n_others = others().count() as u64;
            if must && n_others == 0 {
                return None;
            }
            // One draw to choose a peer when forced; when not, a draw
            // for the 1-in-4 preemption only while there is a peer and
            // budget, then one to choose the peer.
            if must || (n_others > 0 && *preemptions_left > 0 && rng.below(4) == 0) {
                if !must {
                    *preemptions_left -= 1;
                }
                others()
                    .nth(rng.below(n_others) as usize)
                    .expect("indexed below the count")
            } else {
                id
            }
        };
        trace.push(next as u16);
        Some(next)
    }

    /// How many may-switch sync points `holder` can take from here whose
    /// handling is known now: [`Decisions::pick`] would return `holder`
    /// without a draw (no preemption budget or no live peer; in replay,
    /// the rest of the recorded run that names it), the step valve would
    /// not trip and the crash ordinal would not be reached. The valve and
    /// the crash therefore meet the same sync point, with the same trace
    /// behind it, as if every one of them had been decided singly.
    fn stay_budget(&self, holder: usize) -> u64 {
        let by_mode = match &self.replay {
            Some(cursor) => cursor.run_ahead(holder),
            None => {
                let peer = |t: usize| t != holder && !self.finished[t];
                if self.preemptions_left == 0 || !(0..self.finished.len()).any(peer) {
                    u64::MAX
                } else {
                    0
                }
            }
        };
        let by_valve = self.max_steps.saturating_sub(self.steps);
        let by_crash = match self.crash_at {
            Some(at) => at.saturating_sub(self.trace.len() as u64),
            None => u64::MAX,
        };
        by_mode.min(by_valve).min(by_crash)
    }

    /// Book the `stays` sync points `holder` took from its budget: as
    /// steps, as trace entries and as consumed replay decisions. First
    /// thing at every sync point that reaches the scheduler.
    fn settle(&mut self, holder: usize, stays: u64) {
        self.steps += stays;
        self.trace.push_run(holder as u16, stays);
        if let Some(cursor) = &mut self.replay {
            cursor.advance(stays);
        }
    }
}

impl Scheduler {
    fn new(n: usize, cfg: &SchedConfig, crash_fn: Option<Box<dyn Fn() + Send + Sync>>) -> Self {
        let (rng, preemptions, replay) = match &cfg.mode {
            SchedMode::Random {
                seed,
                max_preemptions,
            } => (
                // Whitened so explorer seed `i` decorrelates from a
                // workload generator also seeded with small integers.
                Some(Rng64::new(
                    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xd1b5_4a32_d192_ed03,
                )),
                *max_preemptions,
                None,
            ),
            SchedMode::Replay(t) => (None, 0, Some(Cursor::new(t.clone()))),
        };
        Self {
            baton: Mutex::new(Baton {
                current: NO_TASK,
                crashed: false,
                injected_crash: None,
                panics: Vec::new(),
                stopped: None,
            }),
            wake: (0..n).map(|_| Condvar::new()).collect(),
            decisions: Mutex::new(Decisions {
                finished: vec![false; n],
                trace: Trace::default(),
                rng,
                preemptions_left: preemptions,
                replay,
                steps: 0,
                max_steps: cfg.max_steps,
                crash_at: cfg.crash_at_decision,
                #[cfg(test)]
                slow_entries: 0,
            }),
            crash_fn,
        }
    }

    /// Stop the world: every task unwinds at its next sync point, or now
    /// if it is waiting for the baton. The only place that wakes them all.
    /// Takes the caller's `Decisions` guard because the caller unwinds
    /// next, and a guard dropped by an unwind poisons its mutex.
    fn stop_world(&self, d: MutexGuard<'_, Decisions>, why: Option<&'static str>) {
        drop(d);
        let mut b = self.baton.lock().unwrap();
        b.crashed = true;
        b.stopped = b.stopped.or(why);
        for cv in &self.wake {
            cv.notify_all();
        }
    }

    /// Sleep until `id` holds the baton; unwind if the world stops first.
    fn wait_for_baton<'a>(&self, mut b: MutexGuard<'a, Baton>, id: usize) {
        loop {
            if b.crashed {
                drop(b);
                panic::panic_any(SchedCrash);
            }
            if b.current == id {
                return;
            }
            b = self.wake[id].wait(b).unwrap();
        }
    }

    /// Block until this task holds the baton (used once, at task start).
    fn await_baton(&self, id: usize) {
        self.wait_for_baton(self.baton.lock().unwrap(), id);
    }

    /// A sync point the holder's stay budget did not cover, after `stays`
    /// that it did: maybe switch tasks, maybe fire the injected crash.
    /// Returns `id`'s next stay budget, once it holds the baton again.
    fn sync_point(&self, id: usize, ev: SyncEvent, stays: u64) -> u64 {
        let mut d = self.decisions.lock().unwrap();
        {
            let b = self.baton.lock().unwrap();
            if b.crashed {
                drop((b, d));
                panic::panic_any(SchedCrash);
            }
            debug_assert_eq!(b.current, id, "sync point from a task without the baton");
        }
        #[cfg(test)]
        {
            d.slow_entries += 1;
        }
        d.settle(id, stays);
        d.steps += 1;
        if d.steps > d.max_steps {
            self.stop_world(
                d,
                Some("step valve: schedule exceeded max_steps (livelock?)"),
            );
            panic::panic_any(SchedStop("step valve"));
        }
        // Injected crash: fire at the first sync point at or after the
        // requested decision ordinal, in task context so the unwind takes
        // down an operation mid-flight.
        if d.crash_at.is_some_and(|at| d.trace.len() as u64 >= at) {
            self.stop_world(d, None);
            if let Some(f) = &self.crash_fn {
                f(); // unwinds with CrashPointHit
            }
            panic::panic_any(SchedCrash);
        }
        let Some(next) = d.pick(id, ev.is_blocking()) else {
            // A blocking wait with no runnable peer can never make
            // progress under cooperative scheduling.
            self.stop_world(d, Some("deadlock: blocking wait with no runnable peer"));
            panic::panic_any(SchedStop("deadlock"));
        };
        if next != id {
            drop(d);
            let mut b = self.baton.lock().unwrap();
            b.current = next;
            self.wake[next].notify_one();
            self.wait_for_baton(b, id);
            d = self.decisions.lock().unwrap();
        }
        d.stay_budget(id)
    }

    /// Called by the worker wrapper after its body returned or unwound.
    /// `stays` is what it took from its last budget and never reported.
    fn task_finished(
        &self,
        id: usize,
        stays: u64,
        panic_msg: Option<String>,
        injected: Option<u64>,
    ) {
        let mut d = self.decisions.lock().unwrap();
        d.settle(id, stays);
        d.finished[id] = true;
        let mut b = self.baton.lock().unwrap();
        if let Some(w) = injected {
            b.injected_crash = Some(w);
        }
        if let Some(msg) = panic_msg {
            b.panics.push(format!("task {id}: {msg}"));
            drop(b);
            return self.stop_world(d, None);
        }
        if b.crashed {
            // Unwinding order is irrelevant to the interleaving being
            // reproduced, and nobody waits for a baton any more.
            return;
        }
        debug_assert_eq!(b.current, id, "only the baton holder runs to its end");
        // Hand the baton to the deterministic first unfinished task
        // (recorded like any other decision, so replay stays in
        // lock-step), or park it when everyone is done.
        match d.finished.iter().position(|&done| !done) {
            Some(t) => {
                if let Some(cursor) = &mut d.replay {
                    cursor.advance(1);
                }
                d.trace.push(t as u16);
                b.current = t;
                self.wake[t].notify_one();
            }
            None => b.current = NO_TASK,
        }
    }
}

/// Run `bodies` as cooperatively scheduled tasks under `cfg`.
///
/// Each body runs on its own OS thread with a [`TaskHook`] installed;
/// exactly one holds the baton at a time. `crash_fn`, when provided and
/// armed via [`SchedConfig::crash_at_decision`], is called in task
/// context and is expected to unwind with
/// [`spash_pmem::fault::CrashPointHit`] (e.g.
/// [`spash_pmem::fault::FaultPlan::trip_now`]).
pub fn run_tasks<'a>(
    cfg: &SchedConfig,
    crash_fn: Option<Box<dyn Fn() + Send + Sync>>,
    bodies: Vec<Box<dyn FnOnce() + Send + 'a>>,
) -> SchedOutcome {
    silence_sched_panics();
    let n = bodies.len();
    assert!(n >= 1 && n <= u16::MAX as usize, "1..=65535 tasks");
    let sched = Arc::new(Scheduler::new(n, cfg, crash_fn));

    // Initial baton grant is decision 0, recorded like every other.
    {
        let mut d = sched.decisions.lock().unwrap();
        let first = d.pick(NO_TASK, true).expect("n >= 1");
        sched.baton.lock().unwrap().current = first;
    }

    std::thread::scope(|s| {
        for (id, body) in bodies.into_iter().enumerate() {
            let sched = Arc::clone(&sched);
            s.spawn(move || {
                schedhook::install(Arc::new(TaskHook {
                    sched: Arc::clone(&sched),
                    id,
                }));
                let r = panic::catch_unwind(AssertUnwindSafe(|| {
                    sched.await_baton(id);
                    body();
                }));
                let stays = schedhook::clear();
                let (panic_msg, injected) = match r {
                    Ok(()) => (None, None),
                    Err(p) => {
                        if let Some(hit) = p.downcast_ref::<CrashPointHit>() {
                            (None, Some(hit.write))
                        } else if p.is::<SchedCrash>() || p.is::<SchedStop>() {
                            (None, None)
                        } else {
                            (Some(panic_text(p.as_ref())), None)
                        }
                    }
                };
                sched.task_finished(id, stays, panic_msg, injected);
            });
        }
    });

    let mut d = sched.decisions.lock().unwrap();
    let mut b = sched.baton.lock().unwrap();
    SchedOutcome {
        trace: std::mem::take(&mut d.trace),
        injected_crash: b.injected_crash,
        panics: std::mem::take(&mut b.panics),
        stopped: b.stopped,
        #[cfg(test)]
        slow_entries: d.slow_entries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn counter_bodies<'a>(
        shared: &'a spash_pmem::sync::Mutex<Vec<u32>>,
        n_tasks: usize,
        per_task: usize,
    ) -> Vec<Box<dyn FnOnce() + Send + 'a>> {
        (0..n_tasks)
            .map(|t| {
                let b: Box<dyn FnOnce() + Send + 'a> = Box::new(move || {
                    for _ in 0..per_task {
                        let mut g = shared.lock();
                        g.push(t as u32);
                    }
                });
                b
            })
            .collect()
    }

    #[test]
    fn same_seed_same_trace_and_order() {
        let run = |seed| {
            let log = spash_pmem::sync::Mutex::new(Vec::new());
            let out = run_tasks(
                &SchedConfig::random(seed, 16),
                None,
                counter_bodies(&log, 3, 8),
            );
            let order = log.lock().clone();
            (out.trace, order)
        };
        let (t1, l1) = run(42);
        let (t2, l2) = run(42);
        assert_eq!(t1, t2);
        assert_eq!(l1, l2);
        assert_eq!(l1.len(), 24);
    }

    #[test]
    fn different_seeds_explore_different_interleavings() {
        let mut hashes = std::collections::HashSet::new();
        for seed in 0..16 {
            let log = spash_pmem::sync::Mutex::new(Vec::new());
            let out = run_tasks(
                &SchedConfig::random(seed, 16),
                None,
                counter_bodies(&log, 3, 8),
            );
            assert!(out.panics.is_empty());
            hashes.insert(out.trace_hash());
        }
        assert!(hashes.len() > 4, "only {} distinct schedules", hashes.len());
    }

    #[test]
    fn replay_reproduces_the_recorded_trace() {
        let log1 = spash_pmem::sync::Mutex::new(Vec::new());
        let out1 = run_tasks(
            &SchedConfig::random(7, 16),
            None,
            counter_bodies(&log1, 3, 8),
        );
        let log2 = spash_pmem::sync::Mutex::new(Vec::new());
        let out2 = run_tasks(
            &SchedConfig::replay(out1.trace.clone()),
            None,
            counter_bodies(&log2, 3, 8),
        );
        assert_eq!(out1.trace, out2.trace);
        assert_eq!(*log1.lock(), *log2.lock());
    }

    #[test]
    fn blocking_events_always_switch() {
        // Task 0 spins until task 1 sets the flag: terminates only if
        // SpinWait hands the baton over.
        let flag = AtomicU64::new(0);
        let bodies: Vec<Box<dyn FnOnce() + Send + '_>> = vec![
            Box::new(|| {
                while flag.load(Ordering::SeqCst) == 0 {
                    schedhook::spin_wait();
                }
            }),
            Box::new(|| {
                schedhook::sync_point(SyncEvent::LockAcquire);
                flag.store(1, Ordering::SeqCst);
            }),
        ];
        let out = run_tasks(&SchedConfig::random(3, 4), None, bodies);
        assert!(out.panics.is_empty());
        assert!(out.stopped.is_none());
    }

    #[test]
    fn unsatisfiable_spin_trips_the_deadlock_valve() {
        let bodies: Vec<Box<dyn FnOnce() + Send>> = vec![Box::new(|| loop {
            schedhook::spin_wait();
        })];
        let out = run_tasks(&SchedConfig::random(1, 4), None, bodies);
        assert!(out.stopped.is_some());
    }

    #[test]
    fn a_lone_task_settles_its_sync_points_from_the_stay_budget() {
        let bodies: Vec<Box<dyn FnOnce() + Send>> = vec![Box::new(|| {
            for _ in 0..10_000 {
                schedhook::sync_point(SyncEvent::LockAcquire);
            }
        })];
        let out = run_tasks(&SchedConfig::random(1, 64), None, bodies);
        assert!(out.panics.is_empty() && out.stopped.is_none());
        assert_eq!(out.trace.runs(), [(0, 10_001)]);
        // No live peer, so the budget its first sync point is answered
        // with covers all the others.
        assert_eq!(out.slow_entries, 1);

        // The same with peers once the preemption budget is spent: what
        // is left to decide singly is the budgeted phase and the blocking
        // points, not the 30 000 sync points.
        let log = spash_pmem::sync::Mutex::new(Vec::new());
        let out = run_tasks(
            &SchedConfig::random(1, 8),
            None,
            counter_bodies(&log, 3, 10_000),
        );
        assert_eq!(out.trace.len(), 1 + 30_000 + 2);
        assert!(out.slow_entries < 200, "{} slow entries", out.slow_entries);
    }

    #[test]
    fn real_task_panics_are_reported_and_stop_the_world() {
        let bodies: Vec<Box<dyn FnOnce() + Send>> = vec![
            Box::new(|| panic!("boom")),
            Box::new(|| {
                for _ in 0..1000 {
                    schedhook::sync_point(SyncEvent::LockAcquire);
                }
            }),
        ];
        let out = run_tasks(&SchedConfig::random(5, 4), None, bodies);
        assert_eq!(out.panics.len(), 1);
        assert!(out.panics[0].contains("boom"));
    }
}
