//! Scoped per-phase PM attribution ("stats spans").
//!
//! A whole-run [`crate::stats::StatsSnapshot`] delta says *that* a workload
//! got more expensive, not *where*. Spans answer the second question: code
//! wraps a structural phase in [`crate::MemCtx::stats_span`] and every
//! counter increment the context charges while the span is active is also
//! counted in a per-span copy of [`PmStats`], alongside an entry count and
//! the inclusive virtual time spent inside. The perf-regression gate
//! (`spash-bench compare`) then localizes a counter regression to the phase
//! that caused it — a split that started writing twice as many XPLines shows
//! up in the `split` span, not as an anonymous whole-run delta.
//!
//! Design constraints, in order:
//!
//! * **Nothing shared on the data path.** The span set is *fixed*
//!   ([`SPAN_NAMES`]); every context owns one `SpanCounters` cell per
//!   span inside its counter block (`crate::counters`) and the active
//!   span is a field of the context, so entering a span and charging into
//!   it take no lock, no locked instruction and no thread-local lookup,
//!   and inject no sync point into HTM regions or deterministically
//!   scheduled interleavings. A span is its *context's*, not its thread's.
//! * **Unwind safety.** Crash-point fault injection ends runs by panicking
//!   out of arbitrary PM writes; the context's active-span field is
//!   restored by a drop guard so a caught unwind cannot leak a span into
//!   the next operation on that context.
//! * **Determinism.** Span cells are fed by the same increments as the
//!   context's totals; the device sums the cells of every context, live
//!   or dropped, so single-threaded runs produce bit-identical span
//!   snapshots, which is what lets the compare gate hold them to exact
//!   equality.
//!
//! Nesting attributes counters to the *innermost* span only (the inner
//! span's guard parks the outer one), while virtual time is inclusive —
//! a split entered from a probe charges its counters to `split` and its
//! wall of virtual time to both.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::stats::{PmStats, StatsSnapshot};

/// Segment split / directory doubling work.
pub const SPAN_SPLIT: &str = "split";
/// Merge/rehash/level-compaction work (Spash `try_merge`, Level rehash,
/// CLevel grow, Plush level merges).
pub const SPAN_COMPACTION: &str = "compaction";
/// Point-lookup probe path (`PersistentIndex::get`).
pub const SPAN_PROBE: &str = "probe";
/// Recovery-time log replay / structure rebuild.
pub const SPAN_LOG_REPLAY: &str = "log_replay";

/// The canonical span set. Fixed, so a span is an index into every
/// counter block; `stats_span` with any other name is a pass-through
/// no-op (debug builds assert, so typos are caught by tier-1 tests).
pub const SPAN_NAMES: [&str; 4] = [SPAN_SPLIT, SPAN_COMPACTION, SPAN_PROBE, SPAN_LOG_REPLAY];

/// Position of a canonical span name in [`SPAN_NAMES`].
pub(crate) fn index_of(name: &str) -> Option<usize> {
    SPAN_NAMES.iter().position(|n| *n == name)
}

/// One span's accumulators inside one counter block.
#[derive(Default)]
pub(crate) struct SpanCounters {
    pub(crate) entries: AtomicU64,
    pub(crate) vtime_ns: AtomicU64,
    pub(crate) stats: PmStats,
}

impl SpanCounters {
    /// Point-in-time copy of the accumulators.
    pub(crate) fn snapshot(&self) -> SpanSnapshot {
        SpanSnapshot {
            entries: self.entries.load(Ordering::Relaxed),
            vtime_ns: self.vtime_ns.load(Ordering::Relaxed),
            stats: self.stats.snapshot(),
        }
    }

    /// Add `s` with shared increments (folding a retired context's cell
    /// into the device's).
    pub(crate) fn absorb(&self, s: &SpanSnapshot) {
        self.entries.fetch_add(s.entries, Ordering::Relaxed);
        self.vtime_ns.fetch_add(s.vtime_ns, Ordering::Relaxed);
        self.stats.absorb(&s.stats);
    }
}

/// A point-in-time copy of one span's accumulators.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// Times the span was entered.
    pub entries: u64,
    /// Inclusive virtual nanoseconds spent inside the span.
    pub vtime_ns: u64,
    /// Counter increments charged while the span was innermost.
    pub stats: StatsSnapshot,
}

impl SpanSnapshot {
    /// Add `other` to this snapshot.
    pub(crate) fn accumulate(&mut self, other: &SpanSnapshot) {
        self.entries += other.entries;
        self.vtime_ns += other.vtime_ns;
        self.stats.accumulate(&other.stats);
    }

    /// What one benchmark phase spent inside this span. Saturating, like
    /// [`StatsSnapshot::since`].
    pub fn since(&self, earlier: &SpanSnapshot) -> SpanSnapshot {
        SpanSnapshot {
            entries: self.entries.saturating_sub(earlier.entries),
            vtime_ns: self.vtime_ns.saturating_sub(earlier.vtime_ns),
            stats: self.stats.since(&earlier.stats),
        }
    }

    /// True when the phase never touched the span.
    pub fn is_zero(&self) -> bool {
        *self == SpanSnapshot::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::PmAddr;
    use crate::config::PmConfig;
    use crate::device::PmDevice;

    #[test]
    fn span_attributes_counters_and_vtime() {
        let dev = PmDevice::new(PmConfig::small_test());
        let mut ctx = dev.ctx();
        // Outside any span: nothing attributed.
        ctx.write_u64(PmAddr(64), 1);
        let t = dev.span_totals();
        assert!(t.iter().all(|(_, s)| s.is_zero()));

        ctx.stats_span(SPAN_SPLIT, |ctx| {
            ctx.write_u64(PmAddr(4096), 2);
            ctx.flush(PmAddr(4096));
            ctx.fence();
        });
        let split = dev.span_totals()[0].1;
        assert_eq!(split.entries, 1);
        assert!(split.vtime_ns > 0);
        assert_eq!(split.stats.flushes, 1);
        // The global counters include both writes; the span only its own.
        assert!(dev.snapshot().cl_reads >= split.stats.cl_reads);
        // Other spans stay untouched.
        for (name, s) in dev.span_totals() {
            if name != SPAN_SPLIT {
                assert!(s.is_zero(), "span {name} unexpectedly non-zero");
            }
        }
    }

    #[test]
    fn nested_span_charges_innermost() {
        let dev = PmDevice::new(PmConfig::small_test());
        let mut ctx = dev.ctx();
        ctx.stats_span(SPAN_PROBE, |ctx| {
            ctx.read_u64(PmAddr(8192));
            ctx.stats_span(SPAN_SPLIT, |ctx| {
                ctx.read_u64(PmAddr(16384));
            });
            ctx.read_u64(PmAddr(8192 + 64));
        });
        let totals = dev.span_totals();
        let probe = totals.iter().find(|(n, _)| *n == SPAN_PROBE).unwrap().1;
        let split = totals.iter().find(|(n, _)| *n == SPAN_SPLIT).unwrap().1;
        assert_eq!(probe.stats.cl_reads, 2);
        assert_eq!(split.stats.cl_reads, 1);
        // Inclusive virtual time: the probe covers the nested split.
        assert!(probe.vtime_ns >= split.vtime_ns);
    }

    #[test]
    fn span_restored_after_unwind() {
        let dev = PmDevice::new(PmConfig::small_test());
        let mut ctx = dev.ctx();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ctx.stats_span(SPAN_COMPACTION, |_| panic!("injected"));
        }));
        assert!(r.is_err());
        // The slot must be clear again: this write attributes nowhere.
        ctx.write_u64(PmAddr(256), 9);
        let comp = dev
            .span_totals()
            .iter()
            .find(|(n, _)| *n == SPAN_COMPACTION)
            .unwrap()
            .1;
        assert_eq!(comp.entries, 1);
        assert_eq!(comp.stats.cl_reads, 0);
        assert_eq!(comp.stats.write_hits, 0);
    }

    #[test]
    fn snapshot_since() {
        let a = SpanSnapshot {
            entries: 1,
            vtime_ns: 100,
            ..Default::default()
        };
        let b = SpanSnapshot {
            entries: 4,
            vtime_ns: 350,
            ..Default::default()
        };
        let d = b.since(&a);
        assert_eq!(d.entries, 3);
        assert_eq!(d.vtime_ns, 250);
        assert!(SpanSnapshot::default().is_zero());
        assert!(!b.is_zero());
    }
}
