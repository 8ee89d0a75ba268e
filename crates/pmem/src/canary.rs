//! The mutation canaries: one process-wide switchboard of test-only
//! switches, each of which plants one known bug that a named test or CI
//! gate must catch. A checker that has never caught a bug proves nothing.
//!
//! Every switch is off unless a test (or `spash-bench sched`'s
//! `SPASH_SCHED_MUTATE`) arms it. Data paths consult a switch with
//! [`armed`], one relaxed load. [`arm`] returns a guard that holds the
//! switchboard's lock for as long as it lives and disarms its canary
//! when dropped, a panic unwind included, so a canary test can never
//! leak its bug into another test. A test whose result would be wrong
//! with any canary armed (a clean-run gate, a healthy oracle battery)
//! holds [`disarmed`] instead.
//!
//! DESIGN.md § "Mutation canaries" tabulates each variant with the check
//! that must catch it.

use std::sync::atomic::{AtomicBool, Ordering};

use crate::sync::{Mutex, MutexGuard};

/// One planted bug. Each variant says what it breaks and which check
/// must catch it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Canary {
    /// Every fingerprint tag *written* to Spash's persistent fp table is
    /// corrupted (XOR 0x55, remapped away from the empty encoding),
    /// while probes keep computing the true tag. Fingerprint-filtered
    /// lookups then skip slots that hold the key: false negatives the
    /// fingerprint-blind oracle (`tests/fingerprint_oracle.rs`), the
    /// exact integrity tag check, the fallback path
    /// (`tests/lock_fallback.rs`) and the linearizability checker
    /// (`SPASH_SCHED_MUTATE=fp`) must all catch.
    FpWrongTag,
    /// `spash::slot::fp8` returns the constant tag 1 for every hash, so
    /// every slot of a bucket is a probe candidate. Results must stay
    /// *identical* to the unfiltered path (the filter may only ever
    /// produce candidate supersets); the oracle battery runs with this
    /// armed for maximal tag-collision pressure and must stay clean.
    FpCollide,
    /// Spash's segment split and merge skip the per-segment generation
    /// bumps that invalidate the DRAM overlay cache. A cached bucket
    /// then keeps serving its pre-split image, so reads of moved keys
    /// return stale values: the oracle battery and the linearizability
    /// checker (`tests/fingerprint_oracle.rs`) must catch it.
    OverlayStale,
    /// Halo's insert does its duplicate check under a *read* lock,
    /// yields at a [`crate::SyncEvent::TestRace`] sync point, then
    /// appends blindly under the write lock, breaking the
    /// check-then-append atomicity. Two concurrent inserts of one key
    /// can both return `Ok`, which no sequential map allows: the
    /// schedule explorer (`tests/sched.rs`, `tests/proptest_index.rs`,
    /// `SPASH_SCHED_MUTATE=halo`) must catch a replayable violation.
    HaloRacyInsert,
    /// `Header::stamp` (CCEH's and Dash's extendible-hash chassis) skips
    /// the flush that makes a committed segment header durable. Only an
    /// exact-recovery check sees the segments a volatile cache then
    /// loses: the ADR crash sweep (`tests/crashpoints.rs`) must.
    SkipStampFlush,
    /// The allocator stores a raised high-water mark without the ADR
    /// flush and fence that make it durable before the headers it
    /// covers. A crash then reverts the mark while headers above it
    /// survive, and recovery's bounded walk misses them: the ADR crash
    /// sweep (`tests/high_water_canary.rs`) must catch the lost keys.
    SkipMarkFlush,
    /// Each baseline's insert skips the last flush before the operation
    /// becomes visible. The persistence-ordering sanitizer must localize
    /// a `published-dirty` violation on a `DirtyUnflushed` line
    /// (`crates/bench/tests/sanitizer.rs`, one baseline per check).
    SkipInsertFlush,
    /// Each baseline's insert skips the last fence before the operation
    /// becomes visible. The sanitizer must catch the line in
    /// `FlushedUnfenced` and report `published-unfenced` at the next
    /// visibility edge (`crates/bench/tests/sanitizer.rs`).
    SkipInsertFence,
    /// The service's batch publication drops its barrier: the journal
    /// record is written but neither flushed nor fenced (the forgotten
    /// group-commit fence). Under ADR the acked record can sit dirty in
    /// the volatile cache and a power cut reverts it: acked-but-lost
    /// responses the service crash sweep's journal audit must flag
    /// (`tests/service_sweep.rs`).
    FenceDropped,
    /// The service shifts every route by one shard, so requests land on
    /// a shard that does not own their key. Per-key order is preserved,
    /// so linearizability cannot catch it; the executor's routing audit
    /// must, and the bench cell turns a nonzero audit into a hard gate
    /// failure (`crates/bench/tests/service.rs`).
    Misroute,
    /// The service's batch pool ignores consumer pins when recycling
    /// retired buffers: the premature-reclamation window. A pinned
    /// reader's `ValueRef` is recycled under its feet, and the pool's
    /// generation check must report it
    /// (`crates/service/tests/canaries.rs`).
    ReclaimEarly,
    /// Every task of a measured bench phase ends with a burst of 16
    /// identity RMWs on one shared PM line. No data changes, but each
    /// RMW is a modelled line-ownership transfer: extra sync points,
    /// cacheline traffic and virtual time, the signature of accidental
    /// contention. The exact `compare` gate of every suite must reject
    /// the run (`crates/bench/tests/support/mod.rs`, run on a `perf`,
    /// `scale` and `service` cell).
    InflateContention,
}

impl Canary {
    /// Every canary, in declaration order (`c as usize` indexes it).
    pub const ALL: [Canary; 12] = [
        Canary::FpWrongTag,
        Canary::FpCollide,
        Canary::OverlayStale,
        Canary::HaloRacyInsert,
        Canary::SkipStampFlush,
        Canary::SkipMarkFlush,
        Canary::SkipInsertFlush,
        Canary::SkipInsertFence,
        Canary::FenceDropped,
        Canary::Misroute,
        Canary::ReclaimEarly,
        Canary::InflateContention,
    ];
}

static ARMED: [AtomicBool; Canary::ALL.len()] =
    [const { AtomicBool::new(false) }; Canary::ALL.len()];

/// Held by every live guard: one canary test at a time, and no canary
/// while a test that needs none armed runs.
static SWITCHBOARD: Mutex<()> = Mutex::new(());

/// Is `c` armed? The one call on data paths: a relaxed load. The
/// switchboard lock orders arming before the test body that runs under
/// it, and thread spawns order it before the tasks they start.
#[inline]
pub fn armed(c: Canary) -> bool {
    ARMED[c as usize].load(Ordering::Relaxed)
}

/// The held switchboard: disarms its canary (if any), then releases the
/// lock, when dropped. Guards do not nest: taking a second one on a
/// thread that holds one deadlocks.
#[must_use = "the canary is disarmed as soon as the guard drops"]
pub struct CanaryGuard {
    canary: Option<Canary>,
    _switchboard: MutexGuard<'static, ()>,
}

/// Arm `c` until the returned guard drops. Blocks while another thread
/// holds a guard.
pub fn arm(c: Canary) -> CanaryGuard {
    let switchboard = SWITCHBOARD.lock();
    ARMED[c as usize].store(true, Ordering::Relaxed);
    CanaryGuard {
        canary: Some(c),
        _switchboard: switchboard,
    }
}

/// Hold the switchboard with nothing armed, for a test whose verdict a
/// concurrently armed canary would falsify.
pub fn disarmed() -> CanaryGuard {
    CanaryGuard {
        canary: None,
        _switchboard: SWITCHBOARD.lock(),
    }
}

impl Drop for CanaryGuard {
    fn drop(&mut self) {
        if let Some(c) = self.canary {
            ARMED[c as usize].store(false, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_lists_every_variant_at_its_index() {
        for (i, c) in Canary::ALL.into_iter().enumerate() {
            assert_eq!(c as usize, i, "{c:?}");
            // Exhaustive: a new variant fails to compile until it is
            // listed here, and so reminds its author of `ALL`.
            match c {
                Canary::FpWrongTag
                | Canary::FpCollide
                | Canary::OverlayStale
                | Canary::HaloRacyInsert
                | Canary::SkipStampFlush
                | Canary::SkipMarkFlush
                | Canary::SkipInsertFlush
                | Canary::SkipInsertFence
                | Canary::FenceDropped
                | Canary::Misroute
                | Canary::ReclaimEarly
                | Canary::InflateContention => {}
            }
        }
    }

    #[test]
    fn armed_until_the_guard_drops() {
        {
            let _c = arm(Canary::Misroute);
            assert!(armed(Canary::Misroute));
            assert!(!armed(Canary::ReclaimEarly));
        }
        let _quiet = disarmed();
        assert!(Canary::ALL.into_iter().all(|c| !armed(c)));
    }

    #[test]
    fn a_panic_disarms() {
        let r = std::panic::catch_unwind(|| {
            let _c = arm(Canary::FenceDropped);
            assert!(armed(Canary::FenceDropped));
            panic!("planted");
        });
        assert!(r.is_err());
        let _quiet = disarmed();
        assert!(!armed(Canary::FenceDropped));
    }

    #[test]
    fn two_canaries_in_a_row_do_not_deadlock() {
        for c in [Canary::FpCollide, Canary::OverlayStale] {
            let _c = arm(c);
            assert!(armed(c));
        }
        let _quiet = disarmed();
        assert!(!armed(Canary::FpCollide) && !armed(Canary::OverlayStale));
    }

    #[test]
    fn a_guard_excludes_other_threads() {
        let c = arm(Canary::SkipMarkFlush);
        let (tx, rx) = std::sync::mpsc::channel();
        let t = std::thread::spawn(move || {
            let _quiet = disarmed();
            tx.send(()).unwrap();
        });
        let waited = rx.recv_timeout(std::time::Duration::from_millis(50));
        assert!(waited.is_err(), "another thread took the switchboard");
        drop(c);
        rx.recv().unwrap();
        t.join().unwrap();
    }
}
