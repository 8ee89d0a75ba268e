//! Access counters — the reproduction's replacement for `ipmctl` media
//! counters (paper §VI-B, Fig. 8).
//!
//! One [`PmStats`] is a set of counter cells; who owns a set decides how
//! it is written (`CounterSink`). Each [`crate::MemCtx`] owns one that
//! only it writes, without a locked instruction (`crate::counters`);
//! the device keeps one more for accounting that belongs to no context.

use std::sync::atomic::{AtomicU64, Ordering};

/// Declares every counter once — name and meaning, in the order reports
/// serialise them (`StatsSnapshot::FIELDS` is the JSON key order the bench
/// golden file pins). Adding a counter is one line here.
macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// One set of counter cells.
        ///
        /// "cacheline" counters track traffic between CPU cache and the DIMM
        /// controller; "xpline" counters track what the 3D-XPoint media actually
        /// services after XPBuffer write combining — the ratio between the two is
        /// the write amplification the paper's Observations 2–4 are about.
        #[derive(Debug, Default)]
        pub struct PmStats {
            $($(#[$doc])* pub $name: AtomicU64,)*
        }

        /// A point-in-time copy of [`PmStats`].
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct StatsSnapshot {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl PmStats {
            /// Capture a snapshot of all counters.
            pub fn snapshot(&self) -> StatsSnapshot {
                StatsSnapshot {
                    $($name: self.$name.load(Ordering::Relaxed),)*
                }
            }

            /// Add `s` to these cells with shared (`lock xadd`) increments.
            pub(crate) fn absorb(&self, s: &StatsSnapshot) {
                $(self.$name.fetch_add(s.$name, Ordering::Relaxed);)*
            }
        }

        impl StatsSnapshot {
            /// Every counter as `(name, getter, setter)`, in declaration
            /// order — the registry that serialisers and diffs iterate.
            pub const FIELDS: &'static [(
                &'static str,
                fn(&StatsSnapshot) -> u64,
                fn(&mut StatsSnapshot, u64),
            )] = &[$((stringify!($name), |s| s.$name, |s, v| s.$name = v),)*];

            /// Add every counter of `other` to this snapshot.
            pub(crate) fn accumulate(&mut self, other: &StatsSnapshot) {
                $(self.$name += other.$name;)*
            }

            /// Counter deltas since `earlier`. Saturating, so a racing counter can
            /// never panic a benchmark.
            pub fn since(&self, earlier: &StatsSnapshot) -> StatsDelta {
                StatsSnapshot {
                    $($name: self.$name.saturating_sub(earlier.$name),)*
                }
            }
        }
    };
}

counters! {
    /// Cacheline fetches from PM (read misses).
    cl_reads,
    /// Cacheline writebacks/flushes arriving at the DIMM.
    cl_writes,
    /// XPLines read from media (after read-buffer coalescing).
    xp_reads,
    /// XPLines written to media (after XPBuffer coalescing).
    xp_writes,
    /// Cache hits on loads.
    read_hits,
    /// Cache hits on stores.
    write_hits,
    /// Dirty lines evicted by capacity pressure (as opposed to explicit
    /// flushes).
    dirty_evictions,
    /// Explicit flush instructions that found a dirty line.
    flushes,
    /// Non-temporal stores.
    ntstores,
    /// DRAM accesses charged through `MemCtx::charge_dram`.
    dram_accesses,
    /// Bytes read from PM media.
    media_read_bytes,
    /// Bytes written to PM media.
    media_write_bytes,
    /// Sanitizer diagnostic: `clwb`s that found the line clean (wasted
    /// flush-issue cost; see [`crate::san`]). Zero when the sanitizer is
    /// off.
    san_redundant_flushes,
    /// Sanitizer diagnostic: `sfence`s with no outstanding flush or
    /// ntstore. Zero when the sanitizer is off.
    san_noop_fences,
}

/// The difference between two snapshots — what one benchmark phase cost.
pub type StatsDelta = StatsSnapshot;

/// Where a counter increment lands. The media model and the sanitizer
/// count into whatever sink they are handed: a context's own block on the
/// data path ([`crate::counters::CtxCounters`], which also attributes the
/// increment to the context's innermost span), the device's block for
/// everything that belongs to no context.
pub(crate) trait CounterSink {
    /// Add `n` to the counter selected by `pick`.
    fn bump(&self, pick: impl Fn(&PmStats) -> &AtomicU64, n: u64);
}

/// A shared set of cells (the device's block): any thread may count into
/// it, so increments are atomic RMWs. Attributed to no span.
impl CounterSink for PmStats {
    #[inline]
    fn bump(&self, pick: impl Fn(&PmStats) -> &AtomicU64, n: u64) {
        pick(self).fetch_add(n, Ordering::Relaxed);
    }
}

impl StatsSnapshot {
    /// The minimum virtual time this much media traffic can take given the
    /// platform's bandwidth (paper §II-A). Benchmarks report
    /// `elapsed = max(max per-thread clock, bandwidth_floor_ns)`, which is
    /// what makes write-heavy workloads bandwidth-bound in the model just
    /// as they are on real Optane. The bandwidths are [`crate::CostModel`]
    /// constants; the argument only keeps the signature callers use.
    pub fn bandwidth_floor_ns(&self, _cost: &crate::CostModel) -> u64 {
        type M = crate::CostModel;
        let w = self.media_write_bytes as f64 / M::PM_WRITE_BW * 1e9;
        let r = self.media_read_bytes as f64 / M::PM_READ_BW * 1e9;
        let d = (self.dram_accesses * crate::CACHELINE) as f64 / M::DRAM_BW * 1e9;
        w.max(r).max(d) as u64
    }

    /// Write amplification: media bytes written per cacheline's worth of
    /// writeback traffic. 1.0 means perfect XPLine coalescing on a
    /// 256-byte-aligned stream; 4.0 means every 64-byte writeback cost a
    /// full XPLine.
    pub fn write_amplification(&self) -> f64 {
        let logical = self.cl_writes.saturating_add(self.ntstores) * crate::CACHELINE;
        if logical == 0 {
            return 0.0;
        }
        self.media_write_bytes as f64 / logical as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_delta() {
        let s = PmStats::default();
        s.cl_reads.store(10, Ordering::Relaxed);
        let a = s.snapshot();
        s.cl_reads.store(25, Ordering::Relaxed);
        s.xp_writes.store(3, Ordering::Relaxed);
        let b = s.snapshot();
        let d = b.since(&a);
        assert_eq!(d.cl_reads, 15);
        assert_eq!(d.xp_writes, 3);
        assert_eq!(d.cl_writes, 0);
    }

    #[test]
    fn write_amplification_of_random_evictions() {
        // 4 cacheline writebacks that each cost a full XPLine: WA = 4.
        let d = StatsSnapshot {
            cl_writes: 4,
            media_write_bytes: 4 * crate::XPLINE,
            ..Default::default()
        };
        assert!((d.write_amplification() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn write_amplification_zero_when_no_writes() {
        assert_eq!(StatsSnapshot::default().write_amplification(), 0.0);
    }
}
