//! Counter blocks: who owns the counters a modelled event bumps.
//!
//! Every [`crate::MemCtx`] owns one [`CounterBlock`] — its share of the
//! device totals plus one [`SpanCounters`] cell per span of
//! [`SPAN_NAMES`] — that only it writes, with a relaxed load and a
//! relaxed store: no locked instruction and no line another context
//! writes. The device keeps the blocks of its live contexts in a
//! registry and one block of its own, so
//!
//! ```text
//! PmDevice::snapshot() / span_totals() = device block + Σ live blocks
//! ```
//!
//! and a dropped context folds its block into the device block exactly
//! once, under the same lock a snapshot sums under. The device block also
//! takes the accounting that belongs to no context (`quiesce`,
//! `flush_cache_all`, `invalidate_cache`, `simulate_power_failure`, the
//! sanitizer's two diagnostics), which is therefore attributed to no
//! span.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError};
// lint:allow(std-sync): host-side registry of counter blocks, taken only
// when a context is created or dropped and when a snapshot is summed;
// never held across a sync point (a `crate::sync::Mutex` would *be* one
// under a scheduler hook and move every recorded decision trace).
use std::sync::{Mutex as HostMutex, MutexGuard as HostGuard};

use crate::span::{SpanCounters, SpanSnapshot, SPAN_NAMES};
use crate::stats::{CounterSink, PmStats, StatsSnapshot};

/// One owner's counters: totals plus one cell per canonical span.
#[derive(Default)]
pub(crate) struct CounterBlock {
    totals: PmStats,
    spans: [SpanCounters; SPAN_NAMES.len()],
}

/// `cell += n` for a cell with exactly one writer: readers (snapshots)
/// see the old or the new value, and no `lock` prefix is paid.
#[inline]
fn add_owned(cell: &AtomicU64, n: u64) {
    cell.store(
        cell.load(Ordering::Relaxed).wrapping_add(n),
        Ordering::Relaxed,
    );
}

/// A context's handle on its block, plus the context's innermost active
/// span. Owned by exactly one [`crate::MemCtx`], whose charging methods
/// all take `&mut self`, so the block has one writer at a time.
pub(crate) struct CtxCounters {
    block: Arc<CounterBlock>,
    /// Index into [`SPAN_NAMES`] of the innermost active span.
    span: Option<usize>,
}

impl CounterSink for CtxCounters {
    #[inline]
    fn bump(&self, pick: impl Fn(&PmStats) -> &AtomicU64, n: u64) {
        add_owned(pick(&self.block.totals), n);
        if let Some(i) = self.span {
            add_owned(pick(&self.block.spans[i].stats), n);
        }
    }
}

impl CtxCounters {
    /// Make span `i` the innermost one and count the entry; returns the
    /// span it parks, for [`Self::leave_span`].
    pub(crate) fn enter_span(&mut self, i: usize) -> Option<usize> {
        add_owned(&self.block.spans[i].entries, 1);
        self.span.replace(i)
    }

    /// Restore the span [`Self::enter_span`] parked.
    pub(crate) fn leave_span(&mut self, parked: Option<usize>) {
        self.span = parked;
    }

    /// Charge `ns` of inclusive virtual time to span `i`.
    pub(crate) fn note_span_vtime(&self, i: usize, ns: u64) {
        add_owned(&self.block.spans[i].vtime_ns, ns);
    }
}

/// The device's side: its own block and the blocks of its live contexts.
#[derive(Default)]
pub(crate) struct CounterRegistry {
    device: CounterBlock,
    live: HostMutex<Vec<Arc<CounterBlock>>>,
}

impl CounterRegistry {
    fn live(&self) -> HostGuard<'_, Vec<Arc<CounterBlock>>> {
        // A poisoned registry is still a valid list: every update below
        // is a single push or swap_remove.
        self.live.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The sink for accounting that belongs to no context (and no span).
    pub(crate) fn device(&self) -> &PmStats {
        &self.device.totals
    }

    /// A fresh block for a new context.
    pub(crate) fn register(&self) -> CtxCounters {
        let block = Arc::new(CounterBlock::default());
        self.live().push(Arc::clone(&block));
        CtxCounters { block, span: None }
    }

    /// Fold a dropped context's block into the device block and forget
    /// it. Atomic with respect to the sums below, so the context's counts
    /// are seen exactly once before, during and after.
    pub(crate) fn retire(&self, ctx: &CtxCounters) {
        let mut live = self.live();
        if let Some(at) = live.iter().position(|b| Arc::ptr_eq(b, &ctx.block)) {
            live.swap_remove(at);
            self.device.totals.absorb(&ctx.block.totals.snapshot());
            for (dst, src) in self.device.spans.iter().zip(&ctx.block.spans) {
                dst.absorb(&src.snapshot());
            }
        }
    }

    /// Device totals: the device block plus every live context's.
    pub(crate) fn totals(&self) -> StatsSnapshot {
        let live = self.live();
        let mut sum = self.device.totals.snapshot();
        for b in live.iter() {
            sum.accumulate(&b.totals.snapshot());
        }
        sum
    }

    /// Every span, in [`SPAN_NAMES`] order, summed the same way.
    pub(crate) fn span_totals(&self) -> Vec<(&'static str, SpanSnapshot)> {
        let live = self.live();
        SPAN_NAMES
            .iter()
            .enumerate()
            .map(|(i, &name)| {
                let mut sum = self.device.spans[i].snapshot();
                for b in live.iter() {
                    sum.accumulate(&b.spans[i].snapshot());
                }
                (name, sum)
            })
            .collect()
    }

    /// Number of registered (live) context blocks.
    #[cfg(test)]
    pub(crate) fn live_blocks(&self) -> usize {
        self.live().len()
    }
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use crate::span::{SpanSnapshot, SPAN_COMPACTION, SPAN_NAMES, SPAN_PROBE, SPAN_SPLIT};
    use crate::{PmAddr, PmConfig, PmDevice};

    fn span(dev: &PmDevice, name: &str) -> SpanSnapshot {
        let at = SPAN_NAMES.iter().position(|n| *n == name).unwrap();
        dev.span_totals()[at].1
    }

    #[test]
    fn two_live_contexts_are_both_in_the_snapshot() {
        let dev = PmDevice::new(PmConfig::small_test());
        let (mut a, mut b) = (dev.ctx(), dev.ctx());
        a.read_u64(PmAddr(4096));
        b.read_u64(PmAddr(8192));
        b.stats_span(SPAN_PROBE, |b| b.read_u64(PmAddr(8192)));
        let s = dev.snapshot();
        assert_eq!((s.cl_reads, s.read_hits), (2, 1));
        assert_eq!(span(&dev, SPAN_PROBE).stats.read_hits, 1);
        // Nothing has been folded yet: both are live.
        assert_eq!(dev.counters.device().snapshot(), Default::default());
        assert_eq!(dev.counters.live_blocks(), 2);
    }

    #[test]
    fn a_dropped_context_is_folded_into_the_device_block_exactly_once() {
        let dev = PmDevice::new(PmConfig::small_test());
        let keeper = dev.ctx();
        let start = dev.counters.live_blocks();
        for i in 0..10_000u64 {
            let mut ctx = dev.ctx();
            // Every tenth context is lost to an unwind from inside a span.
            let r = catch_unwind(AssertUnwindSafe(move || {
                ctx.stats_span(SPAN_SPLIT, |ctx| {
                    ctx.charge_dram(1);
                    assert!(i % 10 != 0, "injected crash point");
                });
                ctx.charge_dram(1);
            }));
            assert_eq!(r.is_err(), i % 10 == 0);
        }
        assert_eq!(dev.counters.live_blocks(), start, "every block was retired");
        // 10 000 in the span, 9 000 after it; all in the device block now.
        let folded = dev.counters.device().snapshot();
        assert_eq!(folded.dram_accesses, 19_000);
        assert_eq!(dev.snapshot(), folded);
        let split = span(&dev, SPAN_SPLIT);
        assert_eq!((split.entries, split.stats.dram_accesses), (10_000, 10_000));
        drop(keeper);
        assert_eq!(dev.snapshot(), folded, "an idle context folds to nothing");
    }

    #[test]
    fn a_span_is_its_contexts_and_innermost_only() {
        let dev = PmDevice::new(PmConfig::small_test());
        let (mut a, mut b) = (dev.ctx(), dev.ctx());
        a.stats_span(SPAN_PROBE, |a| {
            a.charge_dram(1);
            // Another context charged on the same thread, inside a's span:
            // its own span, or none — never a's.
            b.charge_dram(10);
            b.stats_span(SPAN_COMPACTION, |b| b.charge_dram(100));
            let r = catch_unwind(AssertUnwindSafe(|| {
                a.stats_span(SPAN_SPLIT, |a| {
                    a.charge_dram(1_000);
                    panic!("injected crash point");
                })
            }));
            assert!(r.is_err());
            // The unwind restored the outer span, not "no span".
            a.charge_dram(10_000);
        });
        a.charge_dram(100_000);
        assert_eq!(span(&dev, SPAN_PROBE).stats.dram_accesses, 10_001);
        assert_eq!(span(&dev, SPAN_SPLIT).stats.dram_accesses, 1_000);
        assert_eq!(span(&dev, SPAN_COMPACTION).stats.dram_accesses, 100);
        assert_eq!(dev.snapshot().dram_accesses, 111_111);
    }

    #[test]
    fn device_level_accounting_lands_in_the_device_block_and_in_no_span() {
        let dev = PmDevice::new(PmConfig {
            san: true,
            ..PmConfig::small_test()
        });
        let mut ctx = dev.ctx();
        let device = || dev.counters.device().snapshot();
        ctx.stats_span(SPAN_SPLIT, |ctx| {
            // Each step leaves exactly one dirty line in the cache (and,
            // after the first, one XPLine in the XPBuffer).
            ctx.write_u64(PmAddr(4096), 1);
            ctx.flush(PmAddr(4096));
            dev.quiesce();
            assert_eq!(device().xp_writes, 1, "quiesce");

            ctx.write_u64(PmAddr(8192), 2);
            dev.flush_cache_all();
            let d = device();
            assert_eq!(
                (d.flushes, d.cl_writes, d.xp_writes),
                (1, 1, 2),
                "flush_cache_all"
            );

            ctx.write_u64(PmAddr(12288), 3);
            dev.invalidate_cache();
            let d = device();
            assert_eq!((d.cl_writes, d.xp_writes), (2, 3), "invalidate_cache");

            ctx.write_u64(PmAddr(16384), 4);
            dev.simulate_power_failure();
            let d = device();
            assert_eq!((d.cl_writes, d.xp_writes), (3, 4), "simulate_power_failure");

            ctx.flush(PmAddr(1 << 20));
            assert_eq!(device().san_redundant_flushes, 1);
            ctx.fence();
            let fenced = device().san_noop_fences;
            ctx.fence();
            assert_eq!(
                device().san_noop_fences,
                fenced + 1,
                "nothing left to order"
            );
        });
        // The span saw the context's own traffic and none of the above.
        let split = span(&dev, SPAN_SPLIT).stats;
        assert_eq!((split.flushes, split.cl_writes, split.xp_writes), (1, 1, 0));
        assert_eq!((split.san_redundant_flushes, split.san_noop_fences), (0, 0));
        assert_eq!(split.media_write_bytes, 0);
        // And the totals are the two blocks' sum.
        let s = dev.snapshot();
        assert_eq!((s.flushes, s.cl_writes, s.xp_writes), (2, 4, 4));
        assert_eq!(s.san_redundant_flushes, 1);
        assert_eq!(s.san_noop_fences, device().san_noop_fences);
    }
}
