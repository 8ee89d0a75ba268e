//! Pluggable scheduler hook: the seam between the platform's sync points
//! and the deterministic schedule explorer (`spash-sched`).
//!
//! Every concurrency-relevant instant in the workspace — HTM line
//! acquire/commit/abort, [`crate::VLock`]/[`crate::VRwLock`] critical
//! sections, [`crate::sync`] lock acquisitions, atomic RMWs on PM, and
//! every busy-wait spin — reports a [`SyncEvent`] here. Two behaviours:
//!
//! * **Real threads (no hook installed)** — [`sync_point`] is a no-op,
//!   except for [`SyncEvent::SpinWait`], which degrades to
//!   `std::thread::yield_now()`. This is the production path: spinning
//!   threads still cede the CPU on hosts with fewer cores than simulated
//!   threads (an owner preempted mid-transaction must get CPU time or the
//!   spinner livelocks), but nothing else changes.
//!
//! * **Under the deterministic scheduler** — a [`SchedHook`] installed in
//!   the calling thread receives every event and may *deschedule* the
//!   task (block it on a baton until the scheduler hands control back).
//!   One task runs at a time; every interleaving of the modelled sync
//!   points is then a pure function of the scheduler's seeded decisions,
//!   which is what makes schedules recordable and replayable.
//!
//! The hook is thread-local so concurrently running real threads (e.g.
//! benchmark harness threads) and scheduled tasks can coexist in one
//! process; installation costs nothing to threads that never install one.
//!
//! **Cooperative locking contract:** while a hook is installed, code MUST
//! NOT block on a host primitive another descheduled task may hold — the
//! scheduler runs one task at a time, so a host-level block deadlocks the
//! whole schedule. [`crate::sync::Mutex`]/[`crate::sync::RwLock`] honour
//! this by spinning on `try_lock` with a [`SyncEvent::SpinWait`] yield
//! between attempts whenever a hook is active (see `sync.rs`).

use std::cell::{Cell, RefCell};
use std::sync::Arc;

/// One modelled synchronization instant. The payload identifies the
/// contended resource where cheap to do so; the scheduler treats it as an
/// opaque label (it keys decisions off its RNG, not the event), but
/// traces and diagnostics print it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncEvent {
    /// The task is spinning on a condition only another task can change
    /// (lock owner release, doubling stage completion, seqlock writer
    /// exit). The scheduler MUST prefer running a different task, or the
    /// spin can never terminate under cooperative scheduling.
    SpinWait,
    /// About to acquire a mutual-exclusion lock (sync::Mutex, VLock,
    /// non-transactional HTM line lock).
    LockAcquire,
    /// Released a lock whose release other tasks may be waiting on.
    LockRelease,
    /// About to perform an atomic RMW (CAS / fetch-or / fetch-and) on the
    /// PM cacheline with this index — the publication points of every
    /// lock-free structure in the repo.
    AtomicRmw(u64),
    /// A software-HTM transaction attempt is starting.
    HtmBegin,
    /// About to acquire an HTM slot (read or write guard) — the window in
    /// which a conflicting commit invalidates this transaction.
    HtmAcquire(u64),
    /// About to validate + commit an HTM transaction.
    HtmCommit,
    /// An HTM transaction attempt aborted (conflict/capacity/explicit).
    HtmAbort,
    /// A test-only interleaving point inserted by a mutation canary (see
    /// [`crate::canary::Canary::HaloRacyInsert`]). Never emitted by
    /// production code.
    TestRace,
}

impl SyncEvent {
    /// Events at which the current task cannot make progress until some
    /// other task runs.
    #[inline]
    pub fn is_blocking(self) -> bool {
        matches!(self, SyncEvent::SpinWait)
    }
}

/// Receiver for sync points, installed per thread by the deterministic
/// scheduler. Implementations typically block the calling thread until
/// the scheduler hands control back.
pub trait SchedHook: Send + Sync {
    /// `ev` happened on the calling thread.
    ///
    /// The return value is a *stay budget*: that many of the thread's
    /// next non-blocking sync points are already decided — the thread
    /// just carries on — and are not reported one by one. They arrive as
    /// `stays`, the number taken from the last budget since the previous
    /// call, with the event that ends them: the first one past the
    /// budget, or a blocking one. A hook that wants every event returns 0
    /// and is always passed 0.
    fn sync_point(&self, ev: SyncEvent, stays: u64) -> u64;
}

thread_local! {
    static HOOK: RefCell<Option<Arc<dyn SchedHook>>> = const { RefCell::new(None) };
    /// Is `HOOK` occupied? Kept beside it so that a sync point on a
    /// thread without a hook — every modelled access of an unscheduled
    /// run takes one — reads two plain cells and never touches the slot
    /// (whose destructor costs a liveness check and a borrow per access).
    static HOOKED: Cell<bool> = const { Cell::new(false) };
    /// The calling thread's stay budget as `(granted, left)`: all a sync
    /// point inside the budget touches. (Written with `replace`:
    /// `spash-lint conc` resolves calls by name, and a `set` would be
    /// taken for `SegInfoTable::set`, a PM store.)
    static STAYS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Install `hook` for the calling thread. Panics if one is already
/// installed (nested schedulers are a bug).
pub fn install(hook: Arc<dyn SchedHook>) {
    HOOK.with(|h| {
        let mut h = h.borrow_mut();
        assert!(h.is_none(), "a scheduler hook is already installed on this thread");
        *h = Some(hook);
    });
    HOOKED.replace(true);
}

/// Remove the calling thread's hook (no-op if none). Returns the stays
/// taken from its last budget and not yet reported to it.
pub fn clear() -> u64 {
    HOOK.with(|h| h.borrow_mut().take());
    HOOKED.replace(false);
    let (granted, left) = STAYS.replace((0, 0));
    granted - left
}

/// Is a hook installed on the calling thread?
#[inline]
pub fn active() -> bool {
    HOOKED.get()
}

/// Report a sync point. Dispatches to the installed hook unless its stay
/// budget covers the event; without a hook, blocking events degrade to
/// `std::thread::yield_now()` and the rest cost nothing. Returns whether
/// a hook is installed, so a caller that must behave cooperatively under
/// one ([`crate::sync`]) learns that from the access that reports its
/// event.
///
/// The inline part touches only `STAYS` and `HOOKED`: destructor-less
/// cells are a direct thread-pointer access from any crate, whereas the
/// hook's slot goes through `LocalKey`'s accessor, which does not inline
/// across crates (two indirect calls, several times the cost of a stay).
#[inline]
pub fn sync_point(ev: SyncEvent) -> bool {
    // Visibility edges feed the persistence-ordering sanitizer first
    // (publication checks happen whether or not a scheduler is driving).
    crate::san::observe_event(ev);
    let (granted, left) = STAYS.get();
    if left > 0 && !ev.is_blocking() {
        STAYS.replace((granted, left - 1));
        return true;
    }
    if !HOOKED.get() {
        if ev.is_blocking() {
            std::thread::yield_now();
        }
        return false;
    }
    report(ev, granted - left);
    true
}

/// Hand `ev` to the installed hook with the `stays` not yet reported. Out
/// of line: compiled here, next to `HOOK` (see [`sync_point`]), and the
/// paths above save no registers for it.
#[inline(never)]
fn report(ev: SyncEvent, stays: u64) {
    // Called under a shared borrow of the slot: the hook may block for a
    // long time or unwind (`SchedCrash`), and neither hurts — only
    // `install`/`clear` borrow mutably, on this thread and never from
    // inside a hook, and an unwind drops the `Ref` like any other guard
    // (a `RefCell` has no poison state).
    HOOK.with(|h| {
        let hook = h.borrow();
        let hook = hook.as_deref().expect("HOOKED says a hook is installed");
        // Withdrawn first: a hook that unwinds leaves no budget.
        STAYS.replace((0, 0));
        let budget = hook.sync_point(ev, stays);
        STAYS.replace((budget, budget));
    });
}

/// Shorthand for the ubiquitous busy-wait yield: under real threads this
/// is exactly `std::thread::yield_now()`, under the scheduler it
/// deschedules the spinner in favour of a task that can unblock it.
#[inline]
pub fn spin_wait() {
    sync_point(SyncEvent::SpinWait);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    struct Counter(AtomicU64);
    impl SchedHook for Counter {
        fn sync_point(&self, _ev: SyncEvent, stays: u64) -> u64 {
            assert_eq!(stays, 0, "no budget was granted");
            self.0.fetch_add(1, Ordering::Relaxed);
            0
        }
    }

    /// Grants a budget of 3 at every report and logs what it was passed.
    struct Budgeted(std::sync::Mutex<Vec<(SyncEvent, u64)>>);
    impl SchedHook for Budgeted {
        fn sync_point(&self, ev: SyncEvent, stays: u64) -> u64 {
            self.0.lock().unwrap().push((ev, stays));
            3
        }
    }

    #[test]
    fn no_hook_degrades_to_yield() {
        assert!(!active());
        // Must not panic or block.
        sync_point(SyncEvent::SpinWait);
        sync_point(SyncEvent::LockAcquire);
        spin_wait();
    }

    #[test]
    fn hook_receives_events_and_clears() {
        let c = Arc::new(Counter(AtomicU64::new(0)));
        install(c.clone());
        assert!(active());
        sync_point(SyncEvent::HtmBegin);
        spin_wait();
        assert_eq!(c.0.load(Ordering::Relaxed), 2);
        clear();
        assert!(!active());
        sync_point(SyncEvent::HtmBegin);
        assert_eq!(c.0.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn a_hook_that_unwinds_leaves_the_slot_usable() {
        struct Crash;
        impl SchedHook for Crash {
            fn sync_point(&self, _ev: SyncEvent, _stays: u64) -> u64 {
                panic!("world stop");
            }
        }
        install(Arc::new(Crash));
        let r = std::panic::catch_unwind(|| sync_point(SyncEvent::HtmBegin));
        assert!(r.is_err());
        // The shared borrow the hook ran under was released by the
        // unwind: the slot can be cleared and reused.
        clear();
        assert!(!active());
        let c = Arc::new(Counter(AtomicU64::new(0)));
        install(c.clone());
        sync_point(SyncEvent::HtmBegin);
        clear();
        assert_eq!(c.0.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn a_stay_budget_covers_non_blocking_events_only_and_is_accounted() {
        use SyncEvent::*;
        let hook = Arc::new(Budgeted(Default::default()));
        install(hook.clone());
        // Reported (no budget yet); the next three ride the budget; the
        // fifth is the first past it.
        for _ in 0..5 {
            assert!(sync_point(LockAcquire));
        }
        // One stay, then a blocking event cuts the budget short.
        sync_point(HtmBegin);
        spin_wait();
        // Two stays left unreported when the hook goes.
        sync_point(HtmCommit);
        sync_point(LockRelease);
        assert_eq!(clear(), 2);
        assert_eq!(
            *hook.0.lock().unwrap(),
            [(LockAcquire, 0), (LockAcquire, 3), (SpinWait, 1)]
        );
        // Nothing is left behind for the next hook on this thread.
        let c = Arc::new(Counter(AtomicU64::new(0)));
        install(c.clone());
        sync_point(HtmBegin);
        assert_eq!((clear(), c.0.load(Ordering::Relaxed)), (0, 1));
    }

    #[test]
    fn hook_is_thread_local() {
        let c = Arc::new(Counter(AtomicU64::new(0)));
        install(c.clone());
        std::thread::spawn(|| {
            assert!(!active());
        })
        .join()
        .unwrap();
        clear();
    }

    #[test]
    fn blocking_classification() {
        assert!(SyncEvent::SpinWait.is_blocking());
        assert!(!SyncEvent::LockAcquire.is_blocking());
        assert!(!SyncEvent::AtomicRmw(3).is_blocking());
        assert!(!SyncEvent::HtmCommit.is_blocking());
    }
}
