//! Test-only mutation switches for checker validation.
//!
//! A checker that has never caught a bug proves nothing. These
//! process-wide switches deliberately break a known atomicity or
//! durability property of a baseline so the schedule explorer or the
//! crash sweep can demonstrate it *finds* the resulting violation (and,
//! for the explorer, that the printed seed replays it). They are
//! compiled unconditionally (no cfg gymnastics across crates) but default
//! to off and are only flipped by `spash-bench sched --mutate` and the
//! harness's own tests.

use std::sync::atomic::{AtomicBool, Ordering};

/// When set, [`crate::Halo::insert`] performs its duplicate check under a
/// *read* lock, yields at a [`spash_pmem::SyncEvent::TestRace`] sync
/// point, then blindly appends under the write lock — breaking the
/// check-then-append atomicity the real implementation maintains. Two
/// concurrent inserts of the same key can then both return `Ok`, which no
/// sequential execution of a map allows: a guaranteed-reachable
/// linearizability violation.
static HALO_RACY_INSERT: AtomicBool = AtomicBool::new(false);

/// Enable or disable the Halo racy-insert mutation (returns the previous
/// value so tests can restore it).
pub fn set_halo_racy_insert(on: bool) -> bool {
    HALO_RACY_INSERT.swap(on, Ordering::SeqCst)
}

/// Is the Halo racy-insert mutation active?
pub fn halo_racy_insert() -> bool {
    HALO_RACY_INSERT.load(Ordering::SeqCst)
}

/// When set, `Header::stamp` (`exthash.rs`) skips the flush that makes
/// a CCEH or Dash segment's committed header durable — the ADR crash
/// sweep's check-level canary: only an exact-recovery check sees the
/// segments a volatile cache then loses.
static SKIP_STAMP_FLUSH: AtomicBool = AtomicBool::new(false);

/// Enable or disable the skipped header flush (returns the previous
/// value so tests can restore it).
pub fn set_skip_stamp_flush(on: bool) -> bool {
    SKIP_STAMP_FLUSH.swap(on, Ordering::SeqCst)
}

/// Is the skipped header flush active?
pub fn skip_stamp_flush() -> bool {
    SKIP_STAMP_FLUSH.load(Ordering::SeqCst)
}
