//! The virtual-time cost model.
//!
//! Every simulated thread owns a [`VClock`] that advances by charges taken
//! from the [`CostModel`]'s constants. Throughput is computed from virtual time, not
//! wall-clock, so the reproduction's scalability results do not depend on
//! how many physical cores the host has (see DESIGN.md §1/§4).
//!
//! The constants are calibrated against the numbers the paper
//! reports for its testbed (§II-A): ~15 GB/s PM write bandwidth, ~3× higher
//! PM read bandwidth, ~5× higher DRAM write bandwidth, and a loaded PM read
//! latency of a few hundred nanoseconds.

/// Latency and bandwidth constants for the simulated platform, in
/// nanoseconds and bytes/second. One platform is calibrated (the paper's
/// testbed), so the model is a set of associated constants; the type
/// itself carries no data.
#[derive(Clone, Copy, Debug)]
pub struct CostModel;

impl CostModel {
    /// L1/L2 hit, and the cost of a plain store that hits cache.
    pub const CACHE_HIT_NS: u64 = 4;
    /// A DRAM access (e.g. the volatile directory, hot-key list misses).
    pub const DRAM_NS: u64 = 80;
    /// A PM read miss under load (media read + on-DIMM controller).
    pub const PM_READ_MISS_NS: u64 = 300;
    /// Extra charge for a store that misses cache (read-for-ownership
    /// fetches the line from PM before the store).
    pub const PM_WRITE_MISS_NS: u64 = 240;
    /// Issuing a `clwb`-style flush (asynchronous; completion is awaited by
    /// the next fence).
    pub const FLUSH_ISSUE_NS: u64 = 25;
    /// Time for a flushed line to be acknowledged by the WPQ, i.e. the
    /// latency a fence pays per outstanding flush.
    pub const FLUSH_DRAIN_NS: u64 = 90;
    /// A non-temporal store (bypasses cache, goes straight to the WPQ).
    pub const NTSTORE_NS: u64 = 60;
    /// An `sfence` with no outstanding flushes.
    pub const FENCE_NS: u64 = 10;
    /// Starting a hardware transaction.
    pub const HTM_BEGIN_NS: u64 = 12;
    /// Committing a hardware transaction.
    pub const HTM_COMMIT_NS: u64 = 15;
    /// A transaction abort (rollback + restart overhead).
    pub const HTM_ABORT_NS: u64 = 60;
    /// Acquiring an uncontended lock (the contended cost emerges from
    /// virtual-time serialization).
    pub const LOCK_NS: u64 = 18;
    /// Transferring a contended cacheline between cores (coherence). This
    /// is what serializes lock-free CAS/HTM commits on one line — NOT the
    /// whole enclosing operation, which is the crucial physical difference
    /// from lock-based critical sections.
    pub const LINE_TRANSFER_NS: u64 = 60;
    /// PM media write bandwidth in bytes/second (paper: ~15 GB/s at 256 B
    /// granularity).
    pub const PM_WRITE_BW: f64 = 15.0e9;
    /// PM media read bandwidth in bytes/second (paper: ~3x the write BW).
    pub const PM_READ_BW: f64 = 45.0e9;
    /// DRAM bandwidth in bytes/second (paper: ~75 GB/s).
    pub const DRAM_BW: f64 = 75.0e9;
}

/// A per-thread virtual clock, in nanoseconds since the start of the
/// experiment.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct VClock {
    t_ns: u64,
}

impl VClock {
    /// A clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current virtual time in nanoseconds.
    #[inline]
    pub fn now(&self) -> u64 {
        self.t_ns
    }

    /// Advance the clock by `ns`.
    #[inline]
    pub fn advance(&mut self, ns: u64) {
        self.t_ns += ns;
    }

    /// Move the clock forward to `t` if `t` is later (used when waiting on
    /// a lock release, a prefetch completion, or a fence drain).
    #[inline]
    pub fn sync_to(&mut self, t: u64) {
        if t > self.t_ns {
            self.t_ns = t;
        }
    }

    /// Reset to time zero (between benchmark phases).
    pub fn reset(&mut self) {
        self.t_ns = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_and_syncs() {
        let mut c = VClock::new();
        assert_eq!(c.now(), 0);
        c.advance(10);
        assert_eq!(c.now(), 10);
        c.sync_to(5); // earlier: no-op
        assert_eq!(c.now(), 10);
        c.sync_to(50);
        assert_eq!(c.now(), 50);
        c.reset();
        assert_eq!(c.now(), 0);
    }

    #[test]
    fn default_model_matches_paper_ratios() {
        type M = CostModel;
        // Paper §II-A: PM read BW ~3x write BW; DRAM write ~5x PM write.
        assert!((M::PM_READ_BW / M::PM_WRITE_BW - 3.0).abs() < 0.5);
        assert!((M::DRAM_BW / M::PM_WRITE_BW - 5.0).abs() < 0.5);
        // PM read miss must be slower than DRAM, which is slower than cache.
        assert!(M::PM_READ_MISS_NS > M::DRAM_NS);
        assert!(M::DRAM_NS > M::CACHE_HIT_NS);
    }
}
