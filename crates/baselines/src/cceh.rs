//! CCEH — Cacheline-Conscious Extendible Hashing (Nam et al., FAST'19),
//! as characterized by the Spash paper's evaluation (§VI):
//!
//! * extendible hashing with **coarse 16 KiB segments** (vs Spash's 256 B):
//!   a split rehashes a thousand slots, which is why resizing hurts;
//! * linear probing within a 4-cacheline (16-slot) window, which caps the
//!   achievable load factor (paper Fig 9 shows CCEH lowest);
//! * a **per-segment reader-writer lock maintained in PM** — even search
//!   operations dirty the lock's cacheline ("CCEH performs poorly in
//!   read-intensive workloads as it employs the read-write locks",
//!   "produce PM writes to maintain read locks");
//! * lazy deletion via tombstones.
//!
//! Per the paper's methodology, persistence flushes are removed (eADR) and
//! variable-size values go out-of-place behind pointers. One deviation:
//! the directory lives in DRAM here (like every other index in this
//! repository) so that directory traffic does not confound the
//! segment-level comparison.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use spash_pmem::sync::RwLock;
use spash_alloc::PmAllocator;
use spash_index_api::crashpoint::{CrashTarget, Recovered};
use spash_index_api::{hash_key, IndexError, PersistentIndex};
use spash_pmem::canary::{self, Canary};
use spash_pmem::{MemCtx, PmAddr};
#[cfg(test)]
use spash_pmem::PmDevice;

use crate::common::{self, PmRwLock, EMPTY_KEY, TOMBSTONE};
use crate::exthash::{Dir, Header};

/// Segment size: 64 B header + 1020 16-byte slots.
const SEG_BYTES: u64 = 16384;
const SLOTS: u64 = (SEG_BYTES - 64) / 16;
/// Linear-probing window: 4 cachelines of slots.
const PROBE: u64 = 16;
/// Root-block magic ("CCEHDir1"): says "this heap holds a CCEH".
const ROOT_MAGIC: u64 = 0x4343_4548_4469_7231;
const ROOT_LEN: u64 = 64;
/// Segment header, in the 64-byte area before the slots. Word 0 is the PM
/// read-write lock; words 1 and 2 carry the segment's identity.
const HEADER: Header = Header {
    magic1: 0xCCE4,
    magic2: 0x4343_4548_5365_6732,
    offset: 8,
};

struct Seg {
    addr: PmAddr,
    lock: PmRwLock,
}

impl Seg {
    fn at(addr: PmAddr) -> Self {
        Self {
            addr,
            lock: PmRwLock::new(addr),
        }
    }

    fn slot_addr(&self, i: u64) -> PmAddr {
        PmAddr(self.addr.0 + 64 + (i % SLOTS) * 16)
    }
}

/// The CCEH baseline.
pub struct Cceh {
    alloc: Arc<PmAllocator>,
    dir: RwLock<Dir<Seg>>,
    entries: AtomicU64,
    n_segs: AtomicU64,
}

impl Cceh {
    /// Build with `2^depth` initial segments on an already-formatted
    /// allocator.
    pub fn new(
        ctx: &mut MemCtx,
        alloc: Arc<PmAllocator>,
        depth: u32,
    ) -> Result<Self, IndexError> {
        let n = 1usize << depth;
        let mut entries = Vec::with_capacity(n);
        for i in 0..n {
            // lint:allow(flow-flush-fence): the previous iteration's HEADER.stamp is unflushed only under the SkipStampFlush canary, the ADR crash sweep's check-level canary; a healthy stamp flushes and fences its header. san=none(canary off outside its test)
            let seg = Self::alloc_seg(ctx, &alloc)?;
            HEADER.stamp(ctx, seg.addr, depth as u8, i as u64);
            entries.push((seg, depth as u8));
        }
        // Root magic last: a crash mid-format recovers as "no CCEH here".
        let (root, root_len) = alloc.reserved();
        if root_len >= ROOT_LEN {
            ctx.write_u64(root, ROOT_MAGIC);
            ctx.flush(root);
            ctx.fence();
        }
        Ok(Self {
            alloc,
            dir: RwLock::new(Dir { depth, entries }),
            entries: AtomicU64::new(0),
            n_segs: AtomicU64::new(n as u64),
        })
    }

    /// Convenience: format a fresh device.
    pub fn format(ctx: &mut MemCtx, depth: u32) -> Result<Self, IndexError> {
        let alloc = Arc::new(PmAllocator::format(ctx, ROOT_LEN));
        Self::new(ctx, alloc, depth)
    }

    fn alloc_seg(ctx: &mut MemCtx, alloc: &PmAllocator) -> Result<Arc<Seg>, IndexError> {
        let addr = alloc
            .alloc_region(ctx, SEG_BYTES)
            .map_err(|_| IndexError::OutOfMemory)?;
        // Zero the slot array (fresh regions may be recycled space).
        let zeros = [0u8; 256];
        for off in (0..SEG_BYTES).step_by(256) {
            ctx.ntstore_bytes(PmAddr(addr.0 + off), &zeros);
        }
        Ok(Arc::new(Seg::at(addr)))
    }

    fn route(&self, ctx: &mut MemCtx, h: u64) -> (Arc<Seg>, u8, u32) {
        ctx.charge_dram_cached();
        self.dir.read().route(h)
    }

    /// Probe for `key`; returns (slot index, value word).
    fn probe_find(&self, ctx: &mut MemCtx, seg: &Seg, h: u64, key: u64) -> Option<(u64, u64)> {
        let start = h % SLOTS;
        for i in 0..PROBE {
            let s = start + i;
            let k = ctx.read_u64(seg.slot_addr(s));
            if k == EMPTY_KEY {
                return None;
            }
            if k == key {
                let v = ctx.read_u64(PmAddr(seg.slot_addr(s).0 + 8));
                return Some((s, v));
            }
        }
        None
    }

    /// Probe for a free (empty or tombstoned) slot.
    fn probe_free(&self, ctx: &mut MemCtx, seg: &Seg, h: u64) -> Option<u64> {
        let start = h % SLOTS;
        (0..PROBE)
            .map(|i| start + i)
            .find(|&s| matches!(ctx.read_u64(seg.slot_addr(s)), EMPTY_KEY | TOMBSTONE))
    }

    /// Split the segment currently routed for `h`.
    ///
    /// Lock order is always segment-then-directory (the same order every
    /// base operation uses), so there is no ABBA deadlock: the doubling
    /// path takes only the directory lock.
    fn split(&self, ctx: &mut MemCtx, h: u64) -> Result<(), IndexError> {
        ctx.stats_span(spash_pmem::SPAN_SPLIT, |ctx| self.split_impl(ctx, h))
    }

    fn split_impl(&self, ctx: &mut MemCtx, h: u64) -> Result<(), IndexError> {
        loop {
            let (seg, ld, depth) = self.route(ctx, h);
            if u32::from(ld) == depth {
                // Directory doubling (directory lock only).
                let mut dw = self.dir.write();
                if dw.depth == depth {
                    dw.double();
                    // The whole (DRAM) directory is rewritten.
                    ctx.charge_dram((dw.entries.len() as u64 * 8) / 64 + 1);
                }
                continue;
            }
            let new_seg = Self::alloc_seg(ctx, &self.alloc)?;
            let mut homeless: Vec<(u64, u64, u64)> = Vec::new();
            // lint:allow(flow-flush-fence): raced-split early return releases the seg lock while alloc_seg's zero-fill is unfenced; the fresh region is unreachable until HEADER.stamp's flush+fence commits it. san=none(zeros of an uncommitted region are recovery no-ops)
            let done = seg.lock.write(ctx, |ctx| {
                let mut d = self.dir.write();
                let p = match d.split_prefix(h, &seg, ld) {
                    Some(p) => p,
                    None => return false, // raced; retry from routing
                };
                // Crash-safe split order: (1) copy upper-half keys into the
                // fresh segment WITHOUT disturbing the old one, (2) publish
                // the new segment's header, (3) re-stamp the old header at
                // depth+1, (4) tombstone the moved keys. A crash inside
                // (1) recovers as a pre-split table plus one leaked
                // uncommitted region; after (2) or (3) the deeper header
                // wins the directory range and recovery's orphan sweep
                // tombstones the un-moved duplicates.
                let mut placed: Vec<u64> = Vec::new();
                for s in 0..SLOTS {
                    let ka = seg.slot_addr(s);
                    let k = ctx.read_u64(ka);
                    if k == EMPTY_KEY || k == TOMBSTONE {
                        continue;
                    }
                    let kh = hash_key(k);
                    if (kh >> (63 - u32::from(ld))) & 1 == 1 {
                        let v = ctx.read_u64(PmAddr(ka.0 + 8));
                        match self.probe_free(ctx, &new_seg, kh) {
                            Some(ns) => {
                                ctx.write_u64(PmAddr(new_seg.slot_addr(ns).0 + 8), v);
                                ctx.write_u64(new_seg.slot_addr(ns), k);
                                ctx.flush_range(new_seg.slot_addr(ns), 16);
                                placed.push(s);
                            }
                            None => homeless.push((s, k, v)),
                        }
                    }
                }
                ctx.fence();
                HEADER.stamp(ctx, new_seg.addr, ld + 1, p * 2 + 1);
                HEADER.stamp(ctx, seg.addr, ld + 1, p * 2);
                for s in placed {
                    ctx.write_u64(seg.slot_addr(s), TOMBSTONE);
                    ctx.flush(seg.slot_addr(s));
                }
                ctx.fence();
                // Repoint the upper half of the range at the new segment.
                let span = d.repoint(p, ld, &seg, &new_seg);
                ctx.charge_dram(span as u64 / 8 + 1);
                true
            });
            if done {
                self.n_segs.fetch_add(1, Ordering::Relaxed);
                // Probe-window overflow during rehash is vanishingly rare
                // (17 of ~1020 keys in one window); reinsert through the
                // normal path, then tombstone the stranded copy (which no
                // longer routes to the old segment, so the insert cannot
                // see it as a duplicate).
                for (s, k, v) in homeless {
                    self.entries.fetch_sub(1, Ordering::Relaxed);
                    self.insert_word(ctx, k, v)?;
                    // lint:allow(conc-lockset): the stranded copy no longer routes to this segment after the directory swing, so no concurrent probe can address it; tombstoning it unlocked is benign and the sweep explores it sched=CCEH
                    ctx.write_u64(seg.slot_addr(s), TOMBSTONE);
                    ctx.flush(seg.slot_addr(s));
                    ctx.fence();
                }
                return Ok(());
            }
            self.alloc.free_region(ctx, new_seg.addr);
        }
    }

    /// Insert a pre-built value word.
    fn insert_word(&self, ctx: &mut MemCtx, key: u64, vw: u64) -> Result<(), IndexError> {
        let h = hash_key(key);
        loop {
            let (seg, _ld, depth) = self.route(ctx, h);
            enum Out {
                Done,
                Dup,
                Full,
                Moved,
            }
            // lint:allow(flow-flush-fence): slot flush+fence are mutation-canary gated (SkipInsertFlush/SkipInsertFence), always enabled outside tests/sanitizer.rs. san=none(canary gate is on outside sanitizer canary tests)
            let out = seg.lock.write(ctx, |ctx| {
                // Re-route under the lock: the segment may have split.
                if !self.dir.read().still_routes(h, &seg, depth) {
                    return Out::Moved;
                }
                if self.probe_find(ctx, &seg, h, key).is_some() {
                    return Out::Dup;
                }
                match self.probe_free(ctx, &seg, h) {
                    None => Out::Full,
                    Some(s) => {
                        ctx.write_u64(PmAddr(seg.slot_addr(s).0 + 8), vw);
                        ctx.write_u64(seg.slot_addr(s), key);
                        // The publication flush and fence (the sanitizer canaries skip them).
                        if !canary::armed(Canary::SkipInsertFlush) {
                            ctx.flush_range(seg.slot_addr(s), 16);
                        }
                        if !canary::armed(Canary::SkipInsertFence) {
                            ctx.fence();
                        }
                        Out::Done
                    }
                }
            });
            match out {
                Out::Done => {
                    self.entries.fetch_add(1, Ordering::Relaxed);
                    return Ok(());
                }
                Out::Dup => return Err(IndexError::DuplicateKey),
                Out::Moved => continue,
                Out::Full => self.split(ctx, h)?,
            }
        }
    }

    /// Rebuild the directory from committed segment headers after a crash
    /// ([`Dir::rebuild`]: deeper segments override shallower ones, exactly
    /// the half-split overlap a crash between the two header re-stamps
    /// leaves behind). An orphan sweep then reinserts keys stranded in a
    /// segment they no longer route to — the copies a crash prevented the
    /// splitter from tombstoning — and tombstones the stale copy.
    pub fn recover(ctx: &mut MemCtx) -> Option<Self> {
        ctx.stats_span(spash_pmem::SPAN_LOG_REPLAY, Self::recover_impl)
    }

    fn recover_impl(ctx: &mut MemCtx) -> Option<Self> {
        let rec = PmAllocator::recover(ctx)?;
        let (root, root_len) = rec.alloc.reserved();
        if root_len < ROOT_LEN || ctx.read_u64(root) != ROOT_MAGIC {
            return None;
        }
        // Committed segments: region of the right size, both magics intact.
        let segs = HEADER.scan_committed(ctx, &rec.regions, SEG_BYTES, Seg::at)?;
        let idx = Self {
            alloc: Arc::new(rec.alloc),
            dir: RwLock::new(Dir::rebuild(&segs)?),
            entries: AtomicU64::new(0),
            n_segs: AtomicU64::new(segs.len() as u64),
        };
        // Count routable keys; collect stranded ones.
        let mut routable = 0u64;
        let mut orphans: Vec<(Arc<Seg>, u64, u64, u64)> = Vec::new();
        for (seg, _, _) in &segs {
            for s in 0..SLOTS {
                let k = ctx.read_u64(seg.slot_addr(s));
                if k == EMPTY_KEY || k == TOMBSTONE {
                    continue;
                }
                let (routed, _, _) = idx.route(ctx, hash_key(k));
                if Arc::ptr_eq(&routed, seg) {
                    routable += 1;
                } else {
                    let v = ctx.read_u64(PmAddr(seg.slot_addr(s).0 + 8));
                    orphans.push((Arc::clone(seg), s, k, v));
                }
            }
        }
        idx.entries.store(routable, Ordering::Relaxed);
        for (seg, s, k, v) in orphans {
            match idx.insert_word(ctx, k, v) {
                Ok(()) | Err(IndexError::DuplicateKey) => {}
                Err(_) => return None,
            }
            ctx.write_u64(seg.slot_addr(s), TOMBSTONE);
            ctx.flush(seg.slot_addr(s));
            ctx.fence();
        }
        Some(idx)
    }

    /// Addresses the recovered index can reach: committed segments plus
    /// every blob a live slot points at.
    fn reachable(&self, ctx: &mut MemCtx) -> HashSet<u64> {
        let segs = self.dir.read().segments();
        let mut reachable = HashSet::new();
        for seg in &segs {
            reachable.insert(seg.addr.0);
            for s in 0..SLOTS {
                let k = ctx.read_u64(seg.slot_addr(s));
                if k == EMPTY_KEY || k == TOMBSTONE {
                    continue;
                }
                let vw = ctx.read_u64(PmAddr(seg.slot_addr(s).0 + 8));
                if let common::ValWord::Blob(a) = common::unpack_val(vw) {
                    reachable.insert(a.0);
                }
            }
        }
        reachable
    }

    /// CCEH as a [`CrashTarget`] for the crash-point sweep.
    pub fn crash_target(depth: u32) -> CrashTarget {
        CrashTarget {
            name: "CCEH".into(),
            format: Box::new(move |ctx| {
                Box::new(Cceh::format(ctx, depth).expect("format CCEH"))
            }),
            recover: Box::new(|ctx| {
                Cceh::recover(ctx).map(|idx| Box::new(idx) as Box<dyn Recovered>)
            }),
        }
    }
}

impl Recovered for Cceh {
    fn audit(&self, ctx: &mut MemCtx) -> (u64, Option<String>) {
        self.alloc.audit(&self.reachable(ctx), ctx)
    }
}

impl PersistentIndex for Cceh {
    fn name(&self) -> &'static str {
        "CCEH"
    }

    fn insert(&self, ctx: &mut MemCtx, key: u64, value: &[u8]) -> Result<(), IndexError> {
        debug_assert!(key != EMPTY_KEY && key != TOMBSTONE);
        let vw = common::make_val(&self.alloc, ctx, key, value)?;
        match self.insert_word(ctx, key, vw) {
            Ok(()) => Ok(()),
            Err(e) => {
                // lint:allow(flow-flush-fence): free_val's allocator header CAS flips its own metadata word (flushed+fenced inside header_set under ADR); the entering residue is the canary-gated slot traffic of the failed insert. san=none(allocator metadata word on its own cacheline)
                common::free_val(&self.alloc, ctx, vw);
                Err(e)
            }
        }
    }

    fn update(&self, ctx: &mut MemCtx, key: u64, value: &[u8]) -> Result<(), IndexError> {
        let h = hash_key(key);
        let vw = common::make_val(&self.alloc, ctx, key, value)?;
        loop {
            let (seg, _, depth) = self.route(ctx, h);
            enum Out {
                Done(u64),
                Miss,
                Moved,
            }
            let out = seg.lock.write(ctx, |ctx| {
                if !self.dir.read().still_routes(h, &seg, depth) {
                    return Out::Moved;
                }
                match self.probe_find(ctx, &seg, h, key) {
                    None => Out::Miss,
                    Some((s, old)) => {
                        // Out-of-place update: install the new word.
                        ctx.write_u64(PmAddr(seg.slot_addr(s).0 + 8), vw);
                        ctx.flush(PmAddr(seg.slot_addr(s).0 + 8));
                        ctx.fence();
                        Out::Done(old)
                    }
                }
            });
            match out {
                Out::Moved => continue,
                Out::Miss => {
                    common::free_val(&self.alloc, ctx, vw);
                    return Err(IndexError::NotFound);
                }
                Out::Done(old) => {
                    common::free_val(&self.alloc, ctx, old);
                    return Ok(());
                }
            }
        }
    }

    fn get(&self, ctx: &mut MemCtx, key: u64, out: &mut Vec<u8>) -> bool {
        ctx.stats_span(spash_pmem::SPAN_PROBE, |ctx| {
            let h = hash_key(key);
            loop {
                let (seg, _, depth) = self.route(ctx, h);
                enum Out {
                    Hit(u64),
                    Miss,
                    Moved,
                }
                // The PM read-write lock: this is the PM write on the read
                // path the paper measures.
                let r = seg.lock.read(ctx, |ctx| {
                    if !self.dir.read().still_routes(h, &seg, depth) {
                        return Out::Moved;
                    }
                    match self.probe_find(ctx, &seg, h, key) {
                        Some((_, vw)) => Out::Hit(vw),
                        None => Out::Miss,
                    }
                });
                match r {
                    Out::Moved => continue,
                    Out::Miss => return false,
                    Out::Hit(vw) => {
                        common::append_value(ctx, vw, out);
                        return true;
                    }
                }
            }
        })
    }

    fn remove(&self, ctx: &mut MemCtx, key: u64) -> bool {
        let h = hash_key(key);
        loop {
            let (seg, _, depth) = self.route(ctx, h);
            enum Out {
                Hit(u64),
                Miss,
                Moved,
            }
            let r = seg.lock.write(ctx, |ctx| {
                if !self.dir.read().still_routes(h, &seg, depth) {
                    return Out::Moved;
                }
                match self.probe_find(ctx, &seg, h, key) {
                    None => Out::Miss,
                    Some((s, vw)) => {
                        // Lazy deletion: tombstone the key word.
                        ctx.write_u64(seg.slot_addr(s), TOMBSTONE);
                        ctx.flush(seg.slot_addr(s));
                        ctx.fence();
                        Out::Hit(vw)
                    }
                }
            });
            match r {
                Out::Moved => continue,
                Out::Miss => return false,
                Out::Hit(vw) => {
                    common::free_val(&self.alloc, ctx, vw);
                    self.entries.fetch_sub(1, Ordering::Relaxed);
                    return true;
                }
            }
        }
    }

    fn entries(&self) -> u64 {
        self.entries.load(Ordering::Relaxed)
    }

    fn capacity_slots(&self) -> u64 {
        self.n_segs.load(Ordering::Relaxed) * SLOTS
    }
}

/// Shared helper for baseline constructors: format a device and return
/// (device, allocator-backed index, ctx). Used by tests.
#[cfg(test)]
pub(crate) fn test_device() -> (Arc<PmDevice>, MemCtx) {
    let dev = PmDevice::new(spash_pmem::PmConfig {
        arena_size: 64 << 20,
        ..spash_pmem::PmConfig::small_test()
    });
    let ctx = dev.ctx();
    (dev, ctx)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Arc<PmDevice>, Cceh, MemCtx) {
        let (dev, mut ctx) = test_device();
        let idx = Cceh::format(&mut ctx, 1).unwrap();
        (dev, idx, ctx)
    }

    #[test]
    fn basic_crud() {
        let (_d, idx, mut ctx) = setup();
        idx.insert_u64(&mut ctx, 1, 10).unwrap();
        assert_eq!(idx.get_u64(&mut ctx, 1), Some(10));
        idx.update_u64(&mut ctx, 1, 20).unwrap();
        assert_eq!(idx.get_u64(&mut ctx, 1), Some(20));
        assert!(idx.remove(&mut ctx, 1));
        assert_eq!(idx.get_u64(&mut ctx, 1), None);
        assert_eq!(idx.insert_u64(&mut ctx, 2, 1), Ok(()));
        assert_eq!(
            idx.insert_u64(&mut ctx, 2, 1).unwrap_err(),
            IndexError::DuplicateKey
        );
    }

    #[test]
    fn grows_through_segment_splits() {
        let (_d, idx, mut ctx) = setup();
        let n = 4000u64;
        for k in 1..=n {
            idx.insert_u64(&mut ctx, k, k).unwrap();
        }
        for k in 1..=n {
            assert_eq!(idx.get_u64(&mut ctx, k), Some(k), "key {k}");
        }
        assert!(idx.capacity_slots() > SLOTS * 2, "must have split");
    }

    #[test]
    fn tombstone_slots_are_reused() {
        let (_d, idx, mut ctx) = setup();
        for k in 1..=100u64 {
            idx.insert_u64(&mut ctx, k, k).unwrap();
        }
        let cap = idx.capacity_slots();
        for k in 1..=100u64 {
            idx.remove(&mut ctx, k);
        }
        for k in 101..=200u64 {
            idx.insert_u64(&mut ctx, k, k).unwrap();
        }
        assert_eq!(idx.capacity_slots(), cap, "reuse, no growth");
    }

    #[test]
    fn blob_values() {
        let (_d, idx, mut ctx) = setup();
        let v = vec![3u8; 400];
        idx.insert(&mut ctx, 9, &v).unwrap();
        let mut out = Vec::new();
        assert!(idx.get(&mut ctx, 9, &mut out));
        assert_eq!(out, v);
    }

    #[test]
    fn reads_produce_pm_lock_writes() {
        let (dev, idx, mut ctx) = setup();
        idx.insert_u64(&mut ctx, 7, 7).unwrap();
        dev.flush_cache_all();
        let before = dev.snapshot();
        for _ in 0..100 {
            idx.get_u64(&mut ctx, 7).unwrap();
        }
        dev.flush_cache_all();
        let d = dev.snapshot().since(&before);
        assert!(
            d.cl_writes > 0,
            "CCEH reads must dirty the PM lock word"
        );
    }

    #[test]
    fn recover_roundtrip_across_splits() {
        let (dev, idx, mut ctx) = setup();
        let blob = vec![0x2cu8; 90];
        idx.insert(&mut ctx, 55_555, &blob).unwrap();
        for k in 1..=4000u64 {
            if k != 55_555 {
                idx.insert_u64(&mut ctx, k, k).unwrap(); // forces splits
            }
        }
        for k in 1..=50u64 {
            idx.update_u64(&mut ctx, k, k + 9).unwrap();
        }
        for k in 300..=320u64 {
            assert!(idx.remove(&mut ctx, k));
        }
        let live = idx.entries();
        dev.flush_cache_all();
        drop(idx);

        let mut ctx2 = dev.ctx();
        let r = Cceh::recover(&mut ctx2).expect("recover CCEH");
        assert_eq!(r.entries(), live);
        for k in 1..=50u64 {
            assert_eq!(r.get_u64(&mut ctx2, k), Some(k + 9), "updated key {k}");
        }
        for k in 300..=320u64 {
            assert_eq!(r.get_u64(&mut ctx2, k), None, "removed key {k}");
        }
        assert_eq!(r.get_u64(&mut ctx2, 4000), Some(4000));
        let mut out = Vec::new();
        assert!(r.get(&mut ctx2, 55_555, &mut out));
        assert_eq!(out, blob);
        r.insert_u64(&mut ctx2, 70_000, 2).unwrap();
        assert_eq!(r.get_u64(&mut ctx2, 70_000), Some(2));
    }

    #[test]
    fn recover_refuses_unformatted_image() {
        let (_d, mut ctx) = test_device();
        assert!(Cceh::recover(&mut ctx).is_none());
        let _ = PmAllocator::format(&mut ctx, 0);
        assert!(Cceh::recover(&mut ctx).is_none());
    }

    #[test]
    fn concurrent_inserts() {
        let (dev, mut ctx) = test_device();
        let idx = Arc::new(Cceh::format(&mut ctx, 1).unwrap());
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let idx = Arc::clone(&idx);
                let dev = Arc::clone(&dev);
                s.spawn(move || {
                    let mut ctx = dev.ctx();
                    for i in 0..1000u64 {
                        let k = 1 + t * 1000 + i;
                        idx.insert_u64(&mut ctx, k, k).unwrap();
                    }
                });
            }
        });
        for k in 1..=4000u64 {
            assert_eq!(idx.get_u64(&mut ctx, k), Some(k), "key {k}");
        }
    }
}
