//! DRAM read-through overlay cache for hot buckets, validated by
//! per-segment generation counters.
//!
//! A direct-mapped array of bucket images keyed by the *route* of a probe
//! (top hash bits + main bucket), not by segment address: after a split
//! the same route leads to a different segment, and a route-keyed entry
//! is exactly the unit that goes stale. Each entry caches one bucket's
//! four compound slots plus its fingerprint sidecar word, so a hit
//! answers most probes — including definitive negatives via the fp word —
//! from DRAM without touching a single PM line.
//!
//! Coherence is seqlock-style at two levels:
//!
//! * **entry level** — a version word guards installation (odd =
//!   installing); readers retry-free: an inconsistent read is just a
//!   miss;
//! * **segment level** — two tables of generation cells, indexed by
//!   chunk. `tx_seq` is bumped *only inside HTM transactions* (via the
//!   volatile undo log, so aborts roll it back); `nt_seq` is bumped
//!   *only by bodies running through the plain accessor* (HTM lock
//!   fallback, locked splits; see `crate::access`). A hit is valid iff
//!   both cells still equal the values snapshotted when the entry was
//!   installed — and the `tx_seq` read happens *inside the reader's
//!   transaction*, so a concurrent mutator of the segment conflicts with
//!   the read at commit time even though no bucket line was touched.
//!
//! The overlay lives entirely outside the PM arena: the sanitizer and
//! crashpoint sweeps see it as volatile state that vanishes at a crash,
//! which is the correctness story — nothing here is ever authoritative.
//!
//! Cost model: entry and generation-cell accesses are counted as DRAM
//! traffic but priced at cache-hit latency
//! ([`spash_pmem::MemCtx::charge_dram_hot`]) — the same always-warm
//! simplification the directory uses. Charging full DRAM-miss latency
//! here would make the overlay slower than probing PM through a warm
//! device cache, which inverts the physics the paper measures (§II-A:
//! DRAM reads are ~3× cheaper than PM reads at equal hit rates).
//!
//! Under the [`spash_pmem::canary::Canary::OverlayStale`] mutation the split and
//! merge paths skip their generation bumps, so entries keep validating
//! against pre-split segments — the staleness canary the oracle battery
//! and the linearizability checker must catch.

use std::sync::atomic::{AtomicU64, Ordering};

use spash_htm::{Abort, LineId, Tx};
use spash_pmem::PmAddr;

use crate::access::Access;
use crate::slot::{bucket_of, SEG_SIZE};

/// Generation cells per table. Cells are shared by chunks `4096` apart;
/// sharing only causes spurious invalidation, never false validity.
const SEQ_CELLS: u64 = 4096;

/// Volatile-line-id namespace for the generation cells. The directory
/// uses ids `gen << 24 | partition` — a doubling generation would need to
/// exceed 2^32 to reach this namespace.
const SEQ_NS: u64 = 1 << 56;

/// One cached bucket image. `meta` packs `[bucket:8][depth+1:8]`; 0 means
/// empty. All fields are plain atomics guarded by the `ver` seqlock.
struct Entry {
    ver: AtomicU64,
    meta: AtomicU64,
    prefix: AtomicU64,
    seg: AtomicU64,
    snap_tx: AtomicU64,
    snap_nt: AtomicU64,
    fpw: AtomicU64,
    words: [AtomicU64; 8],
}

impl Entry {
    fn new() -> Self {
        Self {
            ver: AtomicU64::new(0),
            meta: AtomicU64::new(0),
            prefix: AtomicU64::new(0),
            seg: AtomicU64::new(0),
            snap_tx: AtomicU64::new(0),
            snap_nt: AtomicU64::new(0),
            fpw: AtomicU64::new(0),
            words: Default::default(),
        }
    }
}

/// A consistent copy of an overlay entry whose route matched the probe.
/// Still unvalidated against the segment generations — pass it to
/// [`Overlay::tx_validate`] inside the reader's transaction.
#[derive(Clone, Copy, Debug)]
pub struct CachedBucket {
    pub seg: PmAddr,
    pub fpw: u64,
    /// `(key word, value word)` for the four slots of the cached bucket,
    /// in bucket-slot order (global slot index `4*bucket + j`).
    pub words: [(u64, u64); 4],
    snap_tx: u64,
    snap_nt: u64,
}

/// The overlay cache plus the two generation tables. Constructed once per
/// index: `OVERLAY_ENTRIES` entries under HTM, none (disabled) in the
/// lock modes, which keep their seqlock/read-lock protocols.
pub struct Overlay {
    entries: Box<[Entry]>,
    /// `log2(entries / 4)`: route bits taken from the top of the hash.
    route_bits: u32,
    tx_seq: Box<[AtomicU64]>,
    nt_seq: Box<[AtomicU64]>,
    heap_start: u64,
}

impl Overlay {
    /// `n` entries (power of two ≥ 8, or 0 to disable). `heap_start`
    /// anchors the chunk index of the generation tables.
    pub fn new(n: usize, heap_start: u64) -> Self {
        assert!(
            n == 0 || (n >= 8 && n.is_power_of_two()),
            "overlay size must be 0 or a power of two >= 8, got {n}"
        );
        Self {
            entries: (0..n).map(|_| Entry::new()).collect(),
            route_bits: if n == 0 { 0 } else { (n / 4).trailing_zeros() },
            tx_seq: (0..SEQ_CELLS).map(|_| AtomicU64::new(0)).collect(),
            nt_seq: (0..SEQ_CELLS).map(|_| AtomicU64::new(0)).collect(),
            heap_start,
        }
    }

    #[inline]
    pub fn enabled(&self) -> bool {
        !self.entries.is_empty()
    }

    #[inline]
    fn cell(&self, seg: PmAddr) -> usize {
        debug_assert!(seg.0 >= self.heap_start);
        (((seg.0 - self.heap_start) / SEG_SIZE) & (SEQ_CELLS - 1)) as usize
    }

    #[inline]
    fn slot_of(&self, h: u64) -> &Entry {
        let route = h >> (64 - self.route_bits);
        let idx = (route << 2 | bucket_of(h) as u64) as usize & (self.entries.len() - 1);
        &self.entries[idx]
    }

    /// Transactionally bump a segment's `tx_seq` generation. Call from
    /// every HTM transaction that changes what any bucket of `seg` would
    /// return (content writes, split, merge). The write is undo-logged,
    /// so an aborted transaction leaves the generation untouched.
    pub fn tx_bump(
        &self,
        tx: &mut Tx<'_>,
        ctx: &mut spash_pmem::MemCtx,
        seg: PmAddr,
    ) -> Result<(), Abort> {
        if !self.enabled() {
            return Ok(());
        }
        let c = self.cell(seg);
        let id = LineId::volatile(SEQ_NS + c as u64);
        ctx.charge_dram_hot(2);
        let cur = tx.read_volatile_u64(id, &self.tx_seq[c])?;
        tx.write_volatile_u64(id, &self.tx_seq[c], cur.wrapping_add(1))
    }

    /// Non-transactional generation bump: what plain-accessor bodies
    /// (HTM lock fallback, locked splits) call instead.
    pub fn nt_bump(&self, ctx: &mut spash_pmem::MemCtx, seg: PmAddr) {
        if !self.enabled() {
            return;
        }
        ctx.charge_dram_hot(1);
        self.nt_seq[self.cell(seg)].fetch_add(1, Ordering::AcqRel);
    }

    /// Snapshot both generations of `seg` from inside step 5, for a
    /// subsequent [`Self::install`]. In a transaction the `tx_seq` read
    /// joins the read set.
    pub(crate) fn snapshot<A: Access>(
        &self,
        a: &mut A,
        ctx: &mut spash_pmem::MemCtx,
        seg: PmAddr,
    ) -> Result<(u64, u64), Abort> {
        let c = self.cell(seg);
        ctx.charge_dram_hot(2);
        let t = a.read_volatile_u64(LineId::volatile(SEQ_NS + c as u64), &self.tx_seq[c])?;
        Ok((t, self.nt_seq[c].load(Ordering::Acquire)))
    }

    /// Look up the route of `h`. Returns a consistent entry copy whose
    /// own route fields match the probe — validated *purely against the
    /// entry* (depth, prefix, bucket), never against a fresh directory
    /// route: a stale entry must stay *servable* so that generation
    /// validation (or, under the stale-overlay mutation, the oracle
    /// battery) is what rejects it.
    pub fn lookup(&self, ctx: &mut spash_pmem::MemCtx, h: u64) -> Option<CachedBucket> {
        if !self.enabled() {
            return None;
        }
        let e = self.slot_of(h);
        ctx.charge_dram_hot(4);
        let v1 = e.ver.load(Ordering::Acquire);
        if v1 & 1 != 0 {
            return None;
        }
        let meta = e.meta.load(Ordering::Acquire);
        let prefix = e.prefix.load(Ordering::Acquire);
        let seg = e.seg.load(Ordering::Acquire);
        let snap_tx = e.snap_tx.load(Ordering::Acquire);
        let snap_nt = e.snap_nt.load(Ordering::Acquire);
        let fpw = e.fpw.load(Ordering::Acquire);
        let mut words = [(0u64, 0u64); 4];
        for j in 0..4 {
            words[j] = (
                e.words[2 * j].load(Ordering::Acquire),
                e.words[2 * j + 1].load(Ordering::Acquire),
            );
        }
        if e.ver.load(Ordering::Acquire) != v1 {
            return None;
        }
        if meta == 0 {
            return None;
        }
        let depth = (meta & 0xff) as u32 - 1;
        let bucket = (meta >> 8) as u8;
        if bucket != bucket_of(h) {
            return None;
        }
        if depth > 0 && h >> (64 - depth) != prefix {
            return None;
        }
        Some(CachedBucket {
            seg: PmAddr(seg),
            fpw,
            words,
            snap_tx,
            snap_nt,
        })
    }

    /// Validate a [`CachedBucket`] against the current generations, from
    /// inside the reader's transaction. `Ok(false)` means stale — fall
    /// through to the PM probe.
    pub fn tx_validate(
        &self,
        tx: &mut Tx<'_>,
        ctx: &mut spash_pmem::MemCtx,
        hit: &CachedBucket,
    ) -> Result<bool, Abort> {
        let (t, n) = self.snapshot(tx, ctx, hit.seg)?;
        Ok(t == hit.snap_tx && n == hit.snap_nt)
    }

    /// Install a bucket image gathered by a PM probe. All inputs must
    /// come from one transaction: the slot words, fp word, and
    /// generation snapshot were read together, so the image is a
    /// consistent cut. Racing installers skip (CAS on the version word);
    /// an install racing a validation is harmless because validation
    /// re-checks the generations.
    #[allow(clippy::too_many_arguments)]
    pub fn install(
        &self,
        ctx: &mut spash_pmem::MemCtx,
        h: u64,
        depth: u32,
        seg: PmAddr,
        snap: (u64, u64),
        fpw: u64,
        words: [(u64, u64); 4],
    ) {
        if !self.enabled() {
            return;
        }
        let e = self.slot_of(h);
        ctx.charge_dram_hot(4);
        let v = e.ver.load(Ordering::Acquire);
        if v & 1 != 0 {
            return;
        }
        if e.ver
            .compare_exchange(v, v + 1, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return;
        }
        e.meta.store(
            (depth as u64 + 1) | (bucket_of(h) as u64) << 8,
            Ordering::Release,
        );
        e.prefix.store(
            if depth == 0 { 0 } else { h >> (64 - depth) },
            Ordering::Release,
        );
        e.seg.store(seg.0, Ordering::Release);
        e.snap_tx.store(snap.0, Ordering::Release);
        e.snap_nt.store(snap.1, Ordering::Release);
        e.fpw.store(fpw, Ordering::Release);
        for j in 0..4 {
            e.words[2 * j].store(words[j].0, Ordering::Release);
            e.words[2 * j + 1].store(words[j].1, Ordering::Release);
        }
        e.ver.store(v + 2, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spash_htm::{Htm, HtmConfig};
    use spash_pmem::{MemCtx, PmConfig, PmDevice};

    const HEAP: u64 = 1 << 20;

    fn seg(i: u64) -> PmAddr {
        PmAddr(HEAP + i * SEG_SIZE)
    }

    fn ctx() -> MemCtx {
        PmDevice::new(PmConfig::small_test()).ctx()
    }

    fn install_for(
        o: &Overlay,
        ctx: &mut MemCtx,
        htm: &Htm,
        h: u64,
        depth: u32,
        s: PmAddr,
        fpw: u64,
    ) {
        let snap = htm
            .try_transaction(ctx, |tx, ctx| o.snapshot(tx, ctx, s))
            .unwrap();
        o.install(ctx, h, depth, s, snap, fpw, [(1, 2), (3, 4), (5, 6), (7, 8)]);
    }

    #[test]
    fn disabled_overlay_is_inert() {
        let o = Overlay::new(0, HEAP);
        let mut c = ctx();
        assert!(!o.enabled());
        assert!(o.lookup(&mut c, 0xdead).is_none());
        o.nt_bump(&mut c, seg(0)); // must not panic
    }

    #[test]
    fn route_match_requires_depth_prefix_and_bucket() {
        // 64 entries -> route_bits = 4: the top 4 hash bits pick the
        // direct-mapped slot (plus the 2 bucket bits).
        let o = Overlay::new(64, HEAP);
        let mut c = ctx();
        let htm = Htm::new(HtmConfig::default());
        let h = 0xC000_0000_0000_0002u64; // top nibble 0xC, bucket 2
        install_for(&o, &mut c, &htm, h, 2, seg(3), 0x42);
        let hit = o.lookup(&mut c, h).expect("same route hits");
        assert_eq!(hit.seg, seg(3));
        assert_eq!(hit.fpw, 0x42);
        assert_eq!(hit.words[1], (3, 4));
        // Same hash, wrong bucket: low bits differ, so the probe maps to
        // a *different* entry slot, which is empty.
        let wrong_bucket = (h & !0b11) | 0b01;
        assert!(o.lookup(&mut c, wrong_bucket).is_none());
        // Deeper entry (depth 8 > route_bits): a hash with the same top
        // nibble lands on the same slot, but its depth-8 prefix differs,
        // so the entry's own fields must reject it.
        install_for(&o, &mut c, &htm, h, 8, seg(5), 0x43);
        let same_slot_other_prefix = h ^ (1 << 58); // bit inside prefix, below route bits
        assert_eq!(same_slot_other_prefix >> 60, h >> 60, "same entry slot");
        assert!(o.lookup(&mut c, same_slot_other_prefix).is_none());
        // And the matching hash still hits the deeper entry.
        assert_eq!(o.lookup(&mut c, h).unwrap().seg, seg(5));
    }

    #[test]
    fn tx_bump_invalidates_and_rolls_back_on_abort() {
        let o = Overlay::new(64, HEAP);
        let mut c = ctx();
        let htm = Htm::new(HtmConfig::default());
        let h = 0u64;
        let s = seg(0);
        install_for(&o, &mut c, &htm, h, 0, s, 7);
        let hit = o.lookup(&mut c, h).unwrap();
        let ok = htm
            .try_transaction(&mut c, |tx, ctx| o.tx_validate(tx, ctx, &hit))
            .unwrap();
        assert!(ok, "fresh entry validates");
        // An aborted bump leaves the generation untouched.
        let r: Result<(), Abort> = htm.try_transaction(&mut c, |tx, ctx| {
            o.tx_bump(tx, ctx, s)?;
            tx.abort(0)
        });
        assert!(r.is_err());
        let ok = htm
            .try_transaction(&mut c, |tx, ctx| o.tx_validate(tx, ctx, &hit))
            .unwrap();
        assert!(ok, "aborted bump must not invalidate");
        // A committed bump invalidates.
        htm.try_transaction(&mut c, |tx, ctx| o.tx_bump(tx, ctx, s))
            .unwrap();
        let ok = htm
            .try_transaction(&mut c, |tx, ctx| o.tx_validate(tx, ctx, &hit))
            .unwrap();
        assert!(!ok, "committed bump invalidates");
    }

    #[test]
    fn nt_bump_invalidates() {
        let o = Overlay::new(64, HEAP);
        let mut c = ctx();
        let htm = Htm::new(HtmConfig::default());
        let h = 4u64; // bucket 0
        let s = seg(1);
        install_for(&o, &mut c, &htm, h, 0, s, 7);
        let hit = o.lookup(&mut c, h).unwrap();
        o.nt_bump(&mut c, s);
        let ok = htm
            .try_transaction(&mut c, |tx, ctx| o.tx_validate(tx, ctx, &hit))
            .unwrap();
        assert!(!ok);
    }

    #[test]
    fn seq_cells_alias_only_across_distant_chunks() {
        let o = Overlay::new(8, HEAP);
        assert_eq!(o.cell(seg(0)), o.cell(seg(SEQ_CELLS)));
        assert_ne!(o.cell(seg(0)), o.cell(seg(1)));
    }
}
