//! The 3D-XPoint media model: XPLine granularity plus a small
//! write-combining XPBuffer (paper §II-A/§II-B, after Yang et al., FAST'20).
//!
//! Every cacheline writeback arriving from the cache (eviction, explicit
//! flush, or ntstore) enters the XPBuffer. Writebacks that land in an
//! XPLine already buffered coalesce for free; when the buffer is full the
//! oldest slot is retired, costing one full 256-byte media write no matter
//! how few of its cachelines were actually dirty. This is precisely the
//! mechanism behind the paper's Observation 2 (random sub-XPLine evictions
//! amplify writes) and Observation 1 (XPLine-aligned streams hit peak
//! bandwidth).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::stats::CounterSink;
use crate::sync::WordLock;
use crate::{CACHELINE, XPLINE};

struct Slot {
    xpline: u64,
    /// Which of the 4 cachelines of this XPLine were written.
    mask: u8,
}

struct XpBuffer {
    slots: VecDeque<Slot>,
    capacity: usize,
}

/// The media model. One per [`crate::PmDevice`].
pub struct Media {
    /// No sync point inside any critical section, so a one-word lock.
    buf: WordLock<XpBuffer>,
    /// Virtual-time service token of the media's read port: each XPLine
    /// read occupies it for `XPLINE / read_bw`. Readers queue behind it —
    /// this is what makes PM latency inflate as bandwidth saturates
    /// (deterministic M/D/1-style queueing).
    read_token: AtomicU64,
    /// Service token of the write port (writebacks are asynchronous, so
    /// nothing waits on it, but it bounds elapsed time via the horizon).
    write_token: AtomicU64,
}

impl Media {
    pub fn new(xpbuffer_slots: usize) -> Self {
        Self {
            buf: WordLock::new(XpBuffer {
                slots: VecDeque::with_capacity(xpbuffer_slots),
                capacity: xpbuffer_slots,
            }),
            read_token: AtomicU64::new(0),
            write_token: AtomicU64::new(0),
        }
    }

    /// Maximum modelled queueing delay at the read port. Real devices have
    /// finite queues (WPQ slots, pending-read credits), so a request can
    /// only ever wait a bounded backlog. The cap also keeps the token —
    /// which is a single FIFO approximation — from dragging slow virtual
    /// clocks behind *later-arriving* fast threads; sustained overload is
    /// still enforced by the bandwidth floor in elapsed time.
    pub const MAX_READ_QUEUE_NS: u64 = 3_000;

    /// Reserve the read port at virtual time `now` for one XPLine;
    /// returns the service start (≥ `now`; the gap is bounded queueing
    /// delay).
    pub fn reserve_read(&self, now: u64, service_ns: u64) -> u64 {
        let t = self.read_token.load(Ordering::Acquire);
        let backlog = t.saturating_sub(now).min(Self::MAX_READ_QUEUE_NS);
        let start = now + backlog;
        self.read_token
            .fetch_max(start + service_ns, Ordering::AcqRel);
        start
    }

    /// Occupy the write port for one XPLine at `now`; returns the
    /// completion time for horizon accounting (no one waits on it).
    pub fn reserve_write(&self, now: u64, service_ns: u64) -> u64 {
        let t = self.write_token.load(Ordering::Acquire);
        let done = t.max(now) + service_ns;
        self.write_token.fetch_max(done, Ordering::AcqRel);
        done
    }

    /// A cacheline writeback arrives at the DIMM, counted into `stats`.
    /// Returns `true` if it was coalesced into an already-buffered XPLine.
    pub(crate) fn write_line(&self, line: u64, stats: &impl CounterSink) -> bool {
        stats.bump(|s| &s.cl_writes, 1);
        let xp = line / (XPLINE / CACHELINE);
        let bit = 1u8 << (line % (XPLINE / CACHELINE));
        let mut buf = self.buf.lock();
        if let Some(slot) = buf.slots.iter_mut().find(|s| s.xpline == xp) {
            let coalesced = slot.mask & bit != 0 || slot.mask != 0;
            slot.mask |= bit;
            return coalesced;
        }
        if buf.slots.len() == buf.capacity {
            buf.slots.pop_front();
            stats.bump(|s| &s.xp_writes, 1);
            stats.bump(|s| &s.media_write_bytes, XPLINE);
        }
        buf.slots.push_back(Slot { xpline: xp, mask: bit });
        false
    }

    /// A cacheline fetch that missed cache, counted into `stats`. The
    /// per-thread `recent` buffer models the on-DIMM read buffer:
    /// consecutive fetches within one XPLine cost a single media read.
    /// Returns `true` when a new XPLine was actually read from media (the
    /// caller reserves read bandwidth only then).
    pub(crate) fn read_line(
        &self,
        line: u64,
        recent: &mut RecentReads,
        stats: &impl CounterSink,
    ) -> bool {
        stats.bump(|s| &s.cl_reads, 1);
        let xp = line / (XPLINE / CACHELINE);
        if !recent.contains(xp) {
            recent.push(xp);
            stats.bump(|s| &s.xp_reads, 1);
            stats.bump(|s| &s.media_read_bytes, XPLINE);
            return true;
        }
        false
    }

    /// Retire every buffered XPLine (power failure, or quiescing before a
    /// stats readout).
    pub(crate) fn drain(&self, stats: &impl CounterSink) {
        let mut buf = self.buf.lock();
        let n = buf.slots.len() as u64;
        buf.slots.clear();
        stats.bump(|s| &s.xp_writes, n);
        stats.bump(|s| &s.media_write_bytes, n * XPLINE);
    }
}

/// Per-thread recent-XPLine read buffer (4 entries).
#[derive(Clone, Copy, Debug)]
pub struct RecentReads {
    slots: [u64; 4],
    pos: usize,
}

impl Default for RecentReads {
    fn default() -> Self {
        Self {
            slots: [u64::MAX; 4],
            pos: 0,
        }
    }
}

impl RecentReads {
    #[inline]
    fn contains(&self, xp: u64) -> bool {
        self.slots.contains(&xp)
    }

    #[inline]
    fn push(&mut self, xp: u64) {
        self.slots[self.pos] = xp;
        self.pos = (self.pos + 1) % self.slots.len();
    }

    /// Forget everything (between benchmark phases).
    pub fn clear(&mut self) {
        *self = Self::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::PmStats;

    fn setup() -> (Media, PmStats) {
        (Media::new(4), PmStats::default())
    }

    #[test]
    fn sequential_writes_within_xpline_coalesce() {
        let (m, s) = setup();
        // 4 cachelines of XPLine 0, then drain: exactly one media write.
        for line in 0..4 {
            m.write_line(line, &s);
        }
        m.drain(&s);
        let snap = s.snapshot();
        assert_eq!(snap.cl_writes, 4);
        assert_eq!(snap.xp_writes, 1);
        assert_eq!(snap.media_write_bytes, XPLINE);
        assert!((snap.write_amplification() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn random_single_line_writes_amplify() {
        let (m, s) = setup();
        // 8 writebacks to 8 distinct XPLines through a 4-slot buffer: every
        // one eventually costs a full XPLine.
        for i in 0..8 {
            m.write_line(i * 4, &s);
        }
        m.drain(&s);
        let snap = s.snapshot();
        assert_eq!(snap.cl_writes, 8);
        assert_eq!(snap.xp_writes, 8);
        // 64 logical bytes per writeback, 256 media bytes: WA = 4.
        assert!((snap.write_amplification() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn buffer_eviction_is_fifo() {
        let (m, s) = setup();
        for i in 0..4 {
            m.write_line(i * 4, &s); // fill slots with XPLines 0..4
        }
        assert_eq!(s.snapshot().xp_writes, 0); // nothing retired yet
        m.write_line(100, &s); // 5th XPLine retires the oldest
        assert_eq!(s.snapshot().xp_writes, 1);
        // Rewriting a still-buffered XPLine does not retire anything.
        m.write_line(4, &s);
        assert_eq!(s.snapshot().xp_writes, 1);
    }

    #[test]
    fn reads_within_xpline_coalesce() {
        let (m, s) = setup();
        let mut r = RecentReads::default();
        for line in 0..4 {
            m.read_line(line, &mut r, &s);
        }
        let snap = s.snapshot();
        assert_eq!(snap.cl_reads, 4);
        assert_eq!(snap.xp_reads, 1);
    }

    #[test]
    fn distant_reads_do_not_coalesce() {
        let (m, s) = setup();
        let mut r = RecentReads::default();
        for i in 0..10 {
            m.read_line(i * 64, &mut r, &s);
        }
        let snap = s.snapshot();
        assert_eq!(snap.cl_reads, 10);
        assert_eq!(snap.xp_reads, 10);
    }
}
