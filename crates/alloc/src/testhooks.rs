//! Test-only mutation switch for checker validation, like the baselines'
//! `testhooks`: compiled unconditionally, off by default, and flipped
//! only by the canary test that shows the ADR crash sweep catches it.

use std::sync::atomic::{AtomicBool, Ordering};

/// When set, the allocator stores a raised high-water mark without the
/// ADR flush and fence that make it durable before the headers it
/// covers: a crash then reverts the mark while headers above it survive.
static SKIP_MARK_FLUSH: AtomicBool = AtomicBool::new(false);

/// Enable or disable the skipped mark flush (returns the previous value
/// so tests can restore it).
pub fn set_skip_mark_flush(on: bool) -> bool {
    SKIP_MARK_FLUSH.swap(on, Ordering::SeqCst)
}

/// Is the skipped mark flush active?
pub fn skip_mark_flush() -> bool {
    SKIP_MARK_FLUSH.load(Ordering::SeqCst)
}
