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
//! * **Record** — every decision is appended to a trace (`Vec<u16>` of
//!   chosen task ids).
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

pub mod batch;
pub mod crashsched;
pub mod explore;
pub mod lin;

use std::panic::{self, AssertUnwindSafe};
// lint:allow(std-sync): the scheduler's baton is the one place that must
// block the host thread for real — it *implements* descheduling, so it
// cannot route through the cooperative primitives it coordinates.
use std::sync::{Arc, Condvar, Mutex};

use spash_index_api::rng::Rng64;
use spash_pmem::fault::CrashPointHit;
use spash_pmem::schedhook::{self, SchedHook, SyncEvent};

/// `State::current` when every task has finished.
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
    Replay(Vec<u16>),
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

    pub fn replay(trace: Vec<u16>) -> Self {
        Self {
            mode: SchedMode::Replay(trace),
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
    pub trace: Vec<u16>,
    /// Media-write ordinal at which an injected crash fired, if one did.
    pub injected_crash: Option<u64>,
    /// Panic messages from tasks that failed for real (not control-flow
    /// unwinds). Non-empty = the run found a bug.
    pub panics: Vec<String>,
    /// Why the scheduler halted the run, if it did (step valve /
    /// cooperative deadlock).
    pub stopped: Option<&'static str>,
}

impl SchedOutcome {
    /// FNV-1a hash of the decision trace — the identity of the explored
    /// interleaving (used to count distinct schedules).
    pub fn trace_hash(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &d in &self.trace {
            for b in d.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h ^ self.trace.len() as u64
    }
}

struct State {
    /// Task currently holding the baton.
    current: usize,
    finished: Vec<bool>,
    trace: Vec<u16>,
    rng: Option<Rng64>,
    preemptions_left: u32,
    replay: Option<(Vec<u16>, usize)>,
    steps: u64,
    max_steps: u64,
    crash_at: Option<u64>,
    crash_fired: bool,
    /// World stop: unwound tasks must not keep running.
    crashed: bool,
    injected_crash: Option<u64>,
    panics: Vec<String>,
    stopped: Option<&'static str>,
}

/// The baton holder. One instance per scheduled run.
pub struct Scheduler {
    state: Mutex<State>,
    cv: Condvar,
    crash_fn: Option<Box<dyn Fn() + Send + Sync>>,
}

struct TaskHook {
    sched: Arc<Scheduler>,
    id: usize,
}

impl SchedHook for TaskHook {
    fn sync_point(&self, ev: SyncEvent) {
        self.sched.yield_point(self.id, ev);
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
            SchedMode::Replay(t) => (None, 0, Some((t.clone(), 0usize))),
        };
        Self {
            state: Mutex::new(State {
                current: NO_TASK,
                finished: vec![false; n],
                trace: Vec::new(),
                rng,
                preemptions_left: preemptions,
                replay,
                steps: 0,
                max_steps: cfg.max_steps,
                crash_at: cfg.crash_at_decision,
                crash_fired: false,
                crashed: false,
                injected_crash: None,
                panics: Vec::new(),
                stopped: None,
            }),
            cv: Condvar::new(),
            crash_fn,
        }
    }

    /// Pick the next baton holder. `must_switch` excludes the current
    /// task (blocking event / task exit). Pushes the decision onto the
    /// trace. Returns `None` when no task can be chosen.
    fn pick(st: &mut State, id: usize, must_switch: bool) -> Option<usize> {
        let State {
            finished,
            replay,
            rng,
            preemptions_left,
            trace,
            ..
        } = st;
        let n = finished.len();
        // The unfinished peers of `id`, in task order — counted and
        // indexed in place: this runs at every sync point of a scheduled
        // run and must not allocate.
        let others = || (0..n).filter(|&t| t != id && !finished[t]);
        let self_alive = id < n && !finished[id];
        let next = if let Some((tr, pos)) = replay {
            let recorded = if *pos < tr.len() {
                Some(tr[*pos] as usize)
            } else {
                None
            };
            *pos += 1;
            match recorded {
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

    /// Block until this task holds the baton (used once, at task start).
    fn await_baton(&self, id: usize) {
        let mut st = self.state.lock().unwrap();
        loop {
            if st.crashed {
                drop(st);
                panic::panic_any(SchedCrash);
            }
            if st.current == id {
                return;
            }
            st = self.cv.wait(st).unwrap();
        }
    }

    /// The sync point: maybe switch tasks, maybe fire the injected crash.
    fn yield_point(&self, id: usize, ev: SyncEvent) {
        let mut st = self.state.lock().unwrap();
        if st.crashed {
            drop(st);
            panic::panic_any(SchedCrash);
        }
        debug_assert_eq!(st.current, id, "sync point from a task without the baton");
        st.steps += 1;
        if st.steps > st.max_steps {
            st.stopped = Some("step valve: schedule exceeded max_steps (livelock?)");
            st.crashed = true;
            self.cv.notify_all();
            drop(st);
            panic::panic_any(SchedStop("step valve"));
        }
        // Injected crash: fire at the first sync point at or after the
        // requested decision ordinal, in task context so the unwind takes
        // down an operation mid-flight.
        if let Some(at) = st.crash_at {
            if !st.crash_fired && st.trace.len() as u64 >= at {
                st.crash_fired = true;
                st.crashed = true;
                self.cv.notify_all();
                drop(st);
                if let Some(f) = &self.crash_fn {
                    f(); // unwinds with CrashPointHit
                }
                panic::panic_any(SchedCrash);
            }
        }
        let next = match Self::pick(&mut st, id, ev.is_blocking()) {
            Some(t) => t,
            None => {
                // A blocking wait with no runnable peer can never make
                // progress under cooperative scheduling.
                st.stopped = Some("deadlock: blocking wait with no runnable peer");
                st.crashed = true;
                self.cv.notify_all();
                drop(st);
                panic::panic_any(SchedStop("deadlock"));
            }
        };
        if next != id {
            st.current = next;
            self.cv.notify_all();
            loop {
                if st.crashed {
                    drop(st);
                    panic::panic_any(SchedCrash);
                }
                if st.current == id {
                    return;
                }
                st = self.cv.wait(st).unwrap();
            }
        }
    }

    /// Called by the worker wrapper after its body returned or unwound.
    fn task_finished(&self, id: usize, panic_msg: Option<String>, injected: Option<u64>) {
        let mut st = self.state.lock().unwrap();
        st.finished[id] = true;
        if let Some(w) = injected {
            st.injected_crash = Some(w);
        }
        if let Some(msg) = panic_msg {
            st.panics.push(format!("task {id}: {msg}"));
            st.crashed = true;
        }
        if st.current == id || st.crashed {
            // Hand the baton to the deterministic first unfinished task
            // (recorded like any other decision, so replay stays in
            // lock-step), or park it when everyone is done. Under a world
            // stop the pick is not recorded: unwinding order is
            // irrelevant to the interleaving being reproduced.
            let next = (0..st.finished.len()).find(|&t| !st.finished[t]);
            match next {
                Some(t) => {
                    if !st.crashed {
                        if let Some((_, pos)) = &mut st.replay {
                            *pos += 1;
                        }
                        st.trace.push(t as u16);
                    }
                    st.current = t;
                }
                None => st.current = NO_TASK,
            }
        }
        self.cv.notify_all();
    }
}

fn panic_text(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
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
        let mut st = sched.state.lock().unwrap();
        let first = Scheduler::pick(&mut st, NO_TASK, true).expect("n >= 1");
        st.current = first;
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
                schedhook::clear();
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
                sched.task_finished(id, panic_msg, injected);
            });
        }
    });

    let st = sched.state.lock().unwrap();
    SchedOutcome {
        trace: st.trace.clone(),
        injected_crash: st.injected_crash,
        panics: st.panics.clone(),
        stopped: st.stopped,
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
