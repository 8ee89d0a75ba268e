//! Dash — scalable extendible hashing on PM (Lu et al., VLDB'20), with
//! the traits the Spash paper measures (§VI):
//!
//! * 16 KiB segments of 256-byte buckets (one XPLine each), 14 records per
//!   bucket behind a metadata header with **fingerprints** and an
//!   allocation bitmap — metadata maintenance is PM write traffic Spash
//!   avoids;
//! * **balanced insert** (target or neighbour, whichever is emptier),
//!   **displacement**, and **stash buckets**, which buy load factor at the
//!   cost of extra probing ("Dash incurs multiple XPLine-sized
//!   bucket-reads for each search");
//! * **optimistic lock-free reads** (version validation, no PM writes)
//!   but **lock-based writes** — why its write-intensive YCSB numbers trail
//!   its read-intensive ones (Fig 10).

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use spash_pmem::sync::RwLock;
use spash_alloc::PmAllocator;
use spash_index_api::crashpoint::{CrashTarget, Recovered};
use spash_index_api::{hash_key, IndexError, PersistentIndex};
use spash_pmem::canary::{self, Canary};
use spash_pmem::{MemCtx, PmAddr, VLock, VRwLock};

use crate::common::{self, EMPTY_KEY};
use crate::exthash::{Dir, Header};

const BUCKETS: u64 = 60;
const STASH: u64 = 4;
const SLOTS: u64 = 14;
const BUCKET_BYTES: u64 = 256;
/// 64-byte segment header + 64 buckets.
const SEG_BYTES: u64 = 64 + (BUCKETS + STASH) * BUCKET_BYTES;
/// What the allocator's chunk-rounded region length for a segment is.
const SEG_REGION: u64 = SEG_BYTES.div_ceil(256) * 256;
/// Root-block magic ("DashDir1"): says "this heap holds a Dash".
const ROOT_MAGIC: u64 = 0x4461_7368_4469_7231;
const ROOT_LEN: u64 = 64;
/// Segment identity, in the otherwise-unused 64-byte segment header.
const HEADER: Header = Header {
    magic1: 0xDA54,
    magic2: 0x4461_7368_5365_6732,
    offset: 0,
};

struct Seg {
    addr: PmAddr,
    /// Structural lock: writers share it, splits take it exclusively.
    rw: VRwLock<()>,
    /// Per-bucket write locks (virtual-time; the PM version word in the
    /// bucket header carries the optimistic-read protocol).
    bucket_locks: Vec<VLock<()>>,
}

impl Seg {
    fn at(addr: PmAddr) -> Self {
        Self {
            addr,
            rw: VRwLock::new(()),
            bucket_locks: (0..BUCKETS + STASH).map(|_| VLock::new(())).collect(),
        }
    }

    fn bucket_addr(&self, b: u64) -> PmAddr {
        PmAddr(self.addr.0 + 64 + b * BUCKET_BYTES)
    }

    /// PM version word of bucket `b` (header word 0).
    fn ver_addr(&self, b: u64) -> PmAddr {
        self.bucket_addr(b)
    }

    /// Bitmap word (header word 1): low 14 bits allocation bitmap.
    fn meta_addr(&self, b: u64) -> PmAddr {
        PmAddr(self.bucket_addr(b).0 + 8)
    }

    /// Fingerprint bytes (header words 2-3).
    fn fp_addr(&self, b: u64) -> PmAddr {
        PmAddr(self.bucket_addr(b).0 + 16)
    }

    fn slot_addr(&self, b: u64, s: u64) -> PmAddr {
        PmAddr(self.bucket_addr(b).0 + 32 + s * 16)
    }
}

/// The Dash baseline.
pub struct Dash {
    alloc: Arc<PmAllocator>,
    dir: RwLock<Dir<Seg>>,
    entries: AtomicU64,
    n_segs: AtomicU64,
}

#[inline]
fn fp8(h: u64) -> u8 {
    ((h >> 48) & 0xff) as u8
}

impl Dash {
    pub fn new(ctx: &mut MemCtx, alloc: Arc<PmAllocator>, depth: u32) -> Result<Self, IndexError> {
        let n = 1usize << depth;
        let mut entries = Vec::with_capacity(n);
        for i in 0..n {
            // lint:allow(flow-flush-fence): the previous iteration's HEADER.stamp is unflushed only under the SkipStampFlush canary, the ADR crash sweep's check-level canary; a healthy stamp flushes and fences its header. san=none(canary off outside its test)
            let seg = Self::alloc_seg(ctx, &alloc)?;
            HEADER.stamp(ctx, seg.addr, depth as u8, i as u64);
            entries.push((seg, depth as u8));
        }
        // Root magic last: a crash mid-format recovers as "no Dash here".
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

    pub fn format(ctx: &mut MemCtx, depth: u32) -> Result<Self, IndexError> {
        let alloc = Arc::new(PmAllocator::format(ctx, ROOT_LEN));
        Self::new(ctx, alloc, depth)
    }

    fn alloc_seg(ctx: &mut MemCtx, alloc: &PmAllocator) -> Result<Arc<Seg>, IndexError> {
        let addr = alloc
            .alloc_region(ctx, SEG_BYTES)
            .map_err(|_| IndexError::OutOfMemory)?;
        let zeros = [0u8; 256];
        let mut off = 0;
        while off < SEG_BYTES {
            let n = 256.min(SEG_BYTES - off) as usize;
            ctx.ntstore_bytes(PmAddr(addr.0 + off), &zeros[..n]);
            off += n as u64;
        }
        Ok(Arc::new(Seg::at(addr)))
    }

    fn route(&self, ctx: &mut MemCtx, h: u64) -> (Arc<Seg>, u8, u32) {
        ctx.charge_dram_cached();
        self.dir.read().route(h)
    }

    fn home_bucket(h: u64) -> u64 {
        (h >> 8) % BUCKETS
    }

    /// Scan one bucket for `key` using the fingerprint filter. Returns
    /// (slot, value word).
    fn scan_bucket(
        &self,
        ctx: &mut MemCtx,
        seg: &Seg,
        b: u64,
        key: u64,
        h: u64,
    ) -> Option<(u64, u64)> {
        let bitmap = ctx.read_u64(seg.meta_addr(b)) as u16;
        if bitmap == 0 {
            return None;
        }
        let mut fps = [0u8; 16];
        ctx.read_bytes(seg.fp_addr(b), &mut fps);
        let want = fp8(h);
        for s in 0..SLOTS {
            if bitmap & (1 << s) != 0 && fps[s as usize] == want {
                let k = ctx.read_u64(seg.slot_addr(b, s));
                if k == key {
                    let v = ctx.read_u64(PmAddr(seg.slot_addr(b, s).0 + 8));
                    return Some((s, v));
                }
            }
        }
        None
    }

    /// Find `key` across home, neighbour and stash buckets. Returns
    /// (bucket, slot, value word).
    fn find(&self, ctx: &mut MemCtx, seg: &Seg, key: u64, h: u64) -> Option<(u64, u64, u64)> {
        let b = Self::home_bucket(h);
        for cand in [b, (b + 1) % BUCKETS] {
            if let Some((s, v)) = self.scan_bucket(ctx, seg, cand, key, h) {
                return Some((cand, s, v));
            }
        }
        for st in BUCKETS..BUCKETS + STASH {
            if let Some((s, v)) = self.scan_bucket(ctx, seg, st, key, h) {
                return Some((st, s, v));
            }
        }
        None
    }

    /// Write a record into bucket `b` (slot chosen from the bitmap).
    /// Caller holds the bucket lock. Returns false if full.
    fn bucket_insert(
        &self,
        ctx: &mut MemCtx,
        seg: &Seg,
        b: u64,
        key: u64,
        h: u64,
        vw: u64,
    ) -> bool {
        let bitmap = ctx.read_u64(seg.meta_addr(b));
        let free = (!bitmap & ((1 << SLOTS) - 1)).trailing_zeros() as u64;
        if free >= SLOTS {
            return false;
        }
        // Bump the PM version (odd = busy) around the mutation: Dash's
        // optimistic readers validate against it.
        let v = ctx.read_u64(seg.ver_addr(b));
        ctx.write_u64(seg.ver_addr(b), v + 1);
        // Persist the record, then publish it in the bitmap (Dash's
        // clwb+fence ordering): a crash loses the insertion, never
        // exposes a half-written record.
        ctx.write_u64(PmAddr(seg.slot_addr(b, free).0 + 8), vw);
        ctx.write_u64(seg.slot_addr(b, free), key);
        ctx.flush_range(seg.slot_addr(b, free), 16);
        ctx.fence();
        // Fingerprint byte + bitmap: the metadata PM writes Spash avoids.
        let mut fp = [0u8; 1];
        fp[0] = fp8(h);
        ctx.write_bytes(PmAddr(seg.fp_addr(b).0 + free), &fp);
        ctx.write_u64(seg.meta_addr(b), bitmap | 1 << free);
        ctx.write_u64(seg.ver_addr(b), v + 2);
        // The publication flush and fence (the sanitizer canaries skip them).
        if !canary::armed(Canary::SkipInsertFlush) {
            ctx.flush_range(seg.bucket_addr(b), 32);
        }
        if !canary::armed(Canary::SkipInsertFence) {
            ctx.fence();
        }
        true
    }

    fn bucket_fill(&self, ctx: &mut MemCtx, seg: &Seg, b: u64) -> u32 {
        (ctx.read_u64(seg.meta_addr(b)) as u16).count_ones()
    }

    // Every live caller holds the bucket or segment writer lock; the one
    // bare caller is the stranded-copy scrub during split, where the
    // directory swing already removed this segment from routing, so no
    // concurrent probe can address the bucket. The lockset analysis sees
    // only the bare entry; the scheduler sweep explores both.
    fn bucket_remove(&self, ctx: &mut MemCtx, seg: &Seg, b: u64, s: u64) {
        let v = ctx.read_u64(seg.ver_addr(b));
        // lint:allow(conc-lockset): PM seqlock odd-bump; unrouted-segment scrub path, explored sched=Dash
        ctx.write_u64(seg.ver_addr(b), v + 1);
        let bitmap = ctx.read_u64(seg.meta_addr(b));
        // Unpublish first (flushed), then scrub the key word.
        // lint:allow(conc-lockset): bitmap unpublish on the unrouted-segment scrub path, explored sched=Dash
        ctx.write_u64(seg.meta_addr(b), bitmap & !(1 << s));
        ctx.flush(seg.meta_addr(b));
        ctx.fence();
        // lint:allow(conc-lockset): key-word scrub after the fenced bitmap unpublish, unrouted-segment path, explored sched=Dash
        ctx.write_u64(seg.slot_addr(b, s), EMPTY_KEY);
        // lint:allow(conc-lockset): PM seqlock even-bump; unrouted-segment scrub path, explored sched=Dash
        ctx.write_u64(seg.ver_addr(b), v + 2);
        // Both writes are recovery don't-cares: the bitmap (flushed above)
        // already unpublished the slot, and the seqlock word is never
        // read by recovery.
        ctx.san_forgive(seg.slot_addr(b, s), 8);
        ctx.san_forgive(seg.ver_addr(b), 8);
    }

    /// Insert with balanced insert → displacement → stash → split.
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
            // lint:allow(flow-flush-fence): bucket_insert's slot flush+fence are canary-gated (SkipInsertFlush/SkipInsertFence) and the PM seqlock bump is concurrency metadata recovery never reads. san=none(canary gate is on outside sanitizer canary tests)
            let out = seg.rw.read(ctx, |ctx, _| {
                // Validate routing under the structural lock.
                if !self.dir.read().still_routes(h, &seg, depth) {
                    return Out::Moved;
                }
                let b = Self::home_bucket(h);
                let nb = (b + 1) % BUCKETS;
                let (first, second) = if b <= nb { (b, nb) } else { (nb, b) };
                seg.bucket_locks[first as usize].with(ctx, |ctx, _| {
                    seg.bucket_locks[second as usize].with(ctx, |ctx, _| {
                        // Duplicate check must cover the stash too: a key
                        // stashed while its buckets were full stays there
                        // even after deletes reopen them.
                        if self.scan_bucket(ctx, seg.as_ref(), b, key, h).is_some()
                            || self.scan_bucket(ctx, seg.as_ref(), nb, key, h).is_some()
                        {
                            return Out::Dup;
                        }
                        for st in BUCKETS..BUCKETS + STASH {
                            if self.scan_bucket(ctx, &seg, st, key, h).is_some() {
                                return Out::Dup;
                            }
                        }
                        // Balanced insert: the emptier of the two.
                        let (fb, fnb) = (
                            self.bucket_fill(ctx, &seg, b),
                            self.bucket_fill(ctx, &seg, nb),
                        );
                        let target = if fb <= fnb { b } else { nb };
                        if self.bucket_insert(ctx, &seg, target, key, h, vw) {
                            return Out::Done;
                        }
                        let other = if target == b { nb } else { b };
                        if self.bucket_insert(ctx, &seg, other, key, h, vw) {
                            return Out::Done;
                        }
                        for st in BUCKETS..BUCKETS + STASH {
                            let done = seg.bucket_locks[st as usize].with(ctx, |ctx, _| {
                                self.bucket_insert(ctx, &seg, st, key, h, vw)
                            });
                            if done {
                                return Out::Done;
                            }
                        }
                        Out::Full
                    })
                })
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

    fn split(&self, ctx: &mut MemCtx, h: u64) -> Result<(), IndexError> {
        ctx.stats_span(spash_pmem::SPAN_SPLIT, |ctx| self.split_impl(ctx, h))
    }

    fn split_impl(&self, ctx: &mut MemCtx, h: u64) -> Result<(), IndexError> {
        loop {
            let (seg, ld, depth) = self.route(ctx, h);
            if u32::from(ld) == depth {
                let mut dw = self.dir.write();
                if dw.depth == depth {
                    dw.double();
                    ctx.charge_dram((dw.entries.len() as u64 * 8) / 64 + 1);
                }
                continue;
            }
            let new_seg = Self::alloc_seg(ctx, &self.alloc)?;
            let mut homeless: Vec<(u64, u64, u64, u64)> = Vec::new();
            // lint:allow(flow-flush-fence): raced-split early return releases the lock while alloc_seg's zero-fill is unfenced; the region commits only via HEADER.stamp's flush+fence. san=none(zeros of an uncommitted region are recovery no-ops)
            let done = seg.rw.write(ctx, |ctx, _| {
                let mut d = self.dir.write();
                let p = match d.split_prefix(h, &seg, ld) {
                    Some(p) => p,
                    None => return false,
                };
                // Crash-safe split order: (1) copy every record whose next
                // prefix bit is 1 into the new segment *without* removing it
                // from the old one, (2) commit the new segment's identity
                // header and re-stamp the old one's depth/prefix, (3) only
                // then remove the moved records. A crash before (2) leaves
                // the old segment authoritative for its whole prefix; a
                // crash after it makes the stale copies orphans that
                // recovery's sweep reinserts-or-discards.
                let mut moved: Vec<(u64, u64)> = Vec::new();
                for b in 0..BUCKETS + STASH {
                    let bitmap = ctx.read_u64(seg.meta_addr(b)) as u16;
                    for s in 0..SLOTS {
                        if bitmap & (1 << s) == 0 {
                            continue;
                        }
                        let k = ctx.read_u64(seg.slot_addr(b, s));
                        let kh = hash_key(k);
                        if (kh >> (63 - u32::from(ld))) & 1 == 1 {
                            let vw = ctx.read_u64(PmAddr(seg.slot_addr(b, s).0 + 8));
                            // Move: home bucket, neighbour, then stash.
                            let nb = Self::home_bucket(kh);
                            let mut placed = self.bucket_insert(ctx, &new_seg, nb, k, kh, vw)
                                || self.bucket_insert(
                                    ctx,
                                    &new_seg,
                                    (nb + 1) % BUCKETS,
                                    k,
                                    kh,
                                    vw,
                                );
                            if !placed {
                                for st in BUCKETS..BUCKETS + STASH {
                                    if self.bucket_insert(ctx, &new_seg, st, k, kh, vw) {
                                        placed = true;
                                        break;
                                    }
                                }
                            }
                            if placed {
                                moved.push((b, s));
                            } else {
                                // Essentially unreachable (84 collision
                                // slots); reinsert through the normal path
                                // after the split.
                                homeless.push((b, s, k, vw));
                            }
                        }
                    }
                }
                // Commit point: the new segment becomes real, the old one
                // narrows to the lower half of its prefix.
                HEADER.stamp(ctx, new_seg.addr, ld + 1, p * 2 + 1);
                HEADER.stamp(ctx, seg.addr, ld + 1, p * 2);
                for (b, s) in moved {
                    self.bucket_remove(ctx, &seg, b, s);
                }
                let span = d.repoint(p, ld, &seg, &new_seg);
                ctx.charge_dram(span as u64 / 8 + 1);
                true
            });
            if done {
                self.n_segs.fetch_add(1, Ordering::Relaxed);
                for (b, s, k, vw) in homeless {
                    // Reinsert through the normal path, then retire the old
                    // copy: a crash in between leaves both, and the stale
                    // one no longer routes to the old segment, so the
                    // orphan sweep discards it as a duplicate.
                    self.entries.fetch_sub(1, Ordering::Relaxed);
                    self.insert_word(ctx, k, vw)?;
                    self.bucket_remove(ctx, &seg, b, s);
                }
                return Ok(());
            }
            self.alloc.free_region(ctx, new_seg.addr);
        }
    }

    /// Rebuild a Dash from a recovered heap image. Returns `None` when the
    /// image holds no committed Dash (unformatted, foreign, or torn at a
    /// point before the first commit).
    pub fn recover(ctx: &mut MemCtx) -> Option<Self> {
        ctx.stats_span(spash_pmem::SPAN_LOG_REPLAY, Self::recover_impl)
    }

    fn recover_impl(ctx: &mut MemCtx) -> Option<Self> {
        let rec = PmAllocator::recover(ctx)?;
        let (root, root_len) = rec.alloc.reserved();
        if root_len < ROOT_LEN || ctx.read_u64(root) != ROOT_MAGIC {
            return None;
        }
        // Committed segments: region of the right (chunk-rounded) size,
        // both magics intact.
        let segs = HEADER.scan_committed(ctx, &rec.regions, SEG_REGION, Seg::at)?;
        let dir = Dir::rebuild(&segs)?;
        if dir.depth == 0 {
            return None; // a Dash is never formatted at depth 0
        }
        let idx = Self {
            alloc: Arc::new(rec.alloc),
            dir: RwLock::new(dir),
            entries: AtomicU64::new(0),
            n_segs: AtomicU64::new(segs.len() as u64),
        };
        // Repair version words and count routable keys; collect stranded
        // ones. A crash mid-mutation leaves a bucket's version word odd
        // ("busy"), which would spin optimistic readers forever.
        let mut routable = 0u64;
        let mut orphans: Vec<(Arc<Seg>, u64, u64, u64, u64)> = Vec::new();
        for (seg, _, _) in &segs {
            for b in 0..BUCKETS + STASH {
                let ver = ctx.read_u64(seg.ver_addr(b));
                if ver & 1 == 1 {
                    // lint:allow(flow-flush-fence): the odd-version repair is a plain store to the PM seqlock word; a repair a later crash reverts is redone by the next recovery, dynamically forgiven. san=dash::recover_impl
                    ctx.write_u64(seg.ver_addr(b), ver + 1);
                    // Seqlock metadata, not data: recovery reads the word
                    // only to make it even again, so leaving it unflushed
                    // publishes nothing a crash could lose.
                    ctx.san_forgive(seg.ver_addr(b), 8);
                }
                let bitmap = ctx.read_u64(seg.meta_addr(b)) as u16;
                for s in 0..SLOTS {
                    if bitmap & (1 << s) == 0 {
                        continue;
                    }
                    let k = ctx.read_u64(seg.slot_addr(b, s));
                    if k == EMPTY_KEY {
                        // Published bit without a key (possible only under
                        // Adr): drop the slot.
                        idx.bucket_remove(ctx, seg, b, s);
                        continue;
                    }
                    let (routed, _, _) = idx.route(ctx, hash_key(k));
                    if Arc::ptr_eq(&routed, seg) {
                        routable += 1;
                    } else {
                        let v = ctx.read_u64(PmAddr(seg.slot_addr(b, s).0 + 8));
                        orphans.push((Arc::clone(seg), b, s, k, v));
                    }
                }
            }
        }
        idx.entries.store(routable, Ordering::Relaxed);
        for (seg, b, s, k, v) in orphans {
            match idx.insert_word(ctx, k, v) {
                Ok(()) | Err(IndexError::DuplicateKey) => {}
                Err(_) => return None,
            }
            idx.bucket_remove(ctx, &seg, b, s);
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
            for b in 0..BUCKETS + STASH {
                let bitmap = ctx.read_u64(seg.meta_addr(b)) as u16;
                for s in 0..SLOTS {
                    if bitmap & (1 << s) == 0 {
                        continue;
                    }
                    let vw = ctx.read_u64(PmAddr(seg.slot_addr(b, s).0 + 8));
                    if let common::ValWord::Blob(a) = common::unpack_val(vw) {
                        reachable.insert(a.0);
                    }
                }
            }
        }
        reachable
    }

    /// Dash as a [`CrashTarget`] for the crash-point sweep.
    pub fn crash_target(depth: u32) -> CrashTarget {
        CrashTarget {
            name: "Dash".into(),
            format: Box::new(move |ctx| {
                Box::new(Dash::format(ctx, depth).expect("format Dash"))
            }),
            recover: Box::new(|ctx| {
                Dash::recover(ctx).map(|idx| Box::new(idx) as Box<dyn Recovered>)
            }),
        }
    }
}

impl Recovered for Dash {
    fn audit(&self, ctx: &mut MemCtx) -> (u64, Option<String>) {
        common::audit(&self.reachable(ctx), ctx)
    }
}

impl PersistentIndex for Dash {
    fn name(&self) -> &'static str {
        "Dash"
    }

    fn insert(&self, ctx: &mut MemCtx, key: u64, value: &[u8]) -> Result<(), IndexError> {
        debug_assert_ne!(key, EMPTY_KEY);
        let vw = common::make_val(&self.alloc, ctx, key, value)?;
        match self.insert_word(ctx, key, vw) {
            Ok(()) => Ok(()),
            Err(e) => {
                // lint:allow(flow-flush-fence): free_val's allocator header CAS flips its own metadata word; the entering residue is the canary-gated slot traffic of the failed insert. san=none(allocator metadata word on its own cacheline)
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
            // lint:allow(flow-flush-fence): the in-place update leaves the PM seqlock word dirty at release; recovery never reads it, dynamically forgiven inside this region. san=dash::update
            let out = seg.rw.read(ctx, |ctx, _| {
                if !self.dir.read().still_routes(h, &seg, depth) {
                    return Out::Moved;
                }
                match self.find(ctx, &seg, key, h) {
                    None => Out::Miss,
                    Some((b, s, old)) => seg.bucket_locks[b as usize].with(ctx, |ctx, _| {
                        // Re-verify under the bucket lock.
                        let k = ctx.read_u64(seg.slot_addr(b, s));
                        if k != key {
                            return Out::Moved; // displaced; retry
                        }
                        let v = ctx.read_u64(seg.ver_addr(b));
                        ctx.write_u64(seg.ver_addr(b), v + 1);
                        ctx.write_u64(PmAddr(seg.slot_addr(b, s).0 + 8), vw);
                        ctx.flush(PmAddr(seg.slot_addr(b, s).0 + 8));
                        ctx.fence();
                        ctx.write_u64(seg.ver_addr(b), v + 2);
                        // The PM seqlock word is concurrency metadata:
                        // recovery never reads it, so its dirtiness is
                        // not an unordered publication.
                        ctx.san_forgive(seg.ver_addr(b), 8);
                        Out::Done(old)
                    }),
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
                // Optimistic read: sample the bucket versions, read, validate.
                let b = Self::home_bucket(h);
                let v1a = ctx.read_u64(seg.ver_addr(b));
                let v1b = ctx.read_u64(seg.ver_addr((b + 1) % BUCKETS));
                if v1a % 2 == 1 || v1b % 2 == 1 {
                    // Writer holds the bucket seqlock: scheduler-aware wait.
                    spash_pmem::schedhook::spin_wait();
                    continue;
                }
                let hit = self.find(ctx, &seg, key, h);
                let v2a = ctx.read_u64(seg.ver_addr(b));
                let v2b = ctx.read_u64(seg.ver_addr((b + 1) % BUCKETS));
                if v1a != v2a || v1b != v2b {
                    ctx.charge_compute(20);
                    continue;
                }
                // Routing may have changed mid-read (split).
                if !self.dir.read().still_routes(h, &seg, depth) {
                    continue;
                }
                return match hit {
                    None => false,
                    Some((_, _, vw)) => {
                        common::append_value(ctx, vw, out);
                        true
                    }
                };
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
            // lint:allow(flow-flush-fence): bucket_remove scrubs the key word after the flushed bitmap unpublish; the scrub and seqlock word are dynamically forgiven. san=dash::bucket_remove
            let out = seg.rw.read(ctx, |ctx, _| {
                if !self.dir.read().still_routes(h, &seg, depth) {
                    return Out::Moved;
                }
                match self.find(ctx, &seg, key, h) {
                    None => Out::Miss,
                    Some((b, s, vw)) => seg.bucket_locks[b as usize].with(ctx, |ctx, _| {
                        if ctx.read_u64(seg.slot_addr(b, s)) != key {
                            return Out::Moved;
                        }
                        self.bucket_remove(ctx, &seg, b, s);
                        Out::Hit(vw)
                    }),
                }
            });
            match out {
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
        self.n_segs.load(Ordering::Relaxed) * (BUCKETS + STASH) * SLOTS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cceh::test_device;

    fn setup() -> (Arc<spash_pmem::PmDevice>, Dash, MemCtx) {
        let (dev, mut ctx) = test_device();
        let idx = Dash::format(&mut ctx, 1).unwrap();
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
        assert!(!idx.remove(&mut ctx, 1));
        assert_eq!(
            idx.update_u64(&mut ctx, 99, 0).unwrap_err(),
            IndexError::NotFound
        );
    }

    #[test]
    fn grows_through_splits_with_high_load_factor() {
        let (_d, idx, mut ctx) = setup();
        let n = 5000u64;
        for k in 1..=n {
            idx.insert_u64(&mut ctx, k, k * 7).unwrap();
        }
        for k in 1..=n {
            assert_eq!(idx.get_u64(&mut ctx, k), Some(k * 7), "key {k}");
        }
        // Dash's balanced insert + stash keep the load factor high
        // (paper Fig 9).
        assert!(idx.load_factor() > 0.5, "lf {}", idx.load_factor());
    }

    #[test]
    fn reads_do_not_write_pm() {
        let (dev, idx, mut ctx) = setup();
        idx.insert_u64(&mut ctx, 7, 7).unwrap();
        dev.flush_cache_all();
        let before = dev.snapshot();
        for _ in 0..100 {
            idx.get_u64(&mut ctx, 7).unwrap();
        }
        dev.flush_cache_all();
        let d = dev.snapshot().since(&before);
        assert_eq!(d.cl_writes, 0, "Dash reads are lock-free (no PM writes)");
    }

    #[test]
    fn concurrent_inserts_and_gets() {
        let (dev, mut ctx) = test_device();
        let idx = Arc::new(Dash::format(&mut ctx, 1).unwrap());
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let idx = Arc::clone(&idx);
                let dev = Arc::clone(&dev);
                s.spawn(move || {
                    let mut ctx = dev.ctx();
                    for i in 0..1000u64 {
                        let k = 1 + t * 1000 + i;
                        idx.insert_u64(&mut ctx, k, k).unwrap();
                        assert_eq!(idx.get_u64(&mut ctx, k), Some(k));
                    }
                });
            }
        });
        for k in 1..=4000u64 {
            assert_eq!(idx.get_u64(&mut ctx, k), Some(k), "key {k}");
        }
    }

    #[test]
    fn recover_roundtrip_across_splits() {
        let (dev, mut ctx) = test_device();
        let idx = Dash::format(&mut ctx, 1).unwrap();
        let n = 4000u64;
        for k in 1..=n {
            idx.insert_u64(&mut ctx, k, k * 3).unwrap();
        }
        let blob = vec![7u8; 300];
        idx.insert(&mut ctx, 9999, &blob).unwrap();
        for k in 1..=50 {
            idx.update_u64(&mut ctx, k, k + 100).unwrap();
        }
        for k in 100..=120 {
            assert!(idx.remove(&mut ctx, k));
        }
        let live = idx.entries();
        drop(idx);
        dev.flush_cache_all();

        let rec = Dash::recover(&mut ctx).expect("recover Dash");
        assert_eq!(rec.entries(), live);
        for k in 1..=50u64 {
            assert_eq!(rec.get_u64(&mut ctx, k), Some(k + 100), "updated {k}");
        }
        for k in 100..=120u64 {
            assert!(rec.get_u64(&mut ctx, k).is_none(), "removed {k}");
        }
        for k in 121..=n {
            assert_eq!(rec.get_u64(&mut ctx, k), Some(k * 3), "key {k}");
        }
        let mut out = Vec::new();
        assert!(rec.get(&mut ctx, 9999, &mut out));
        assert_eq!(out, blob);
        // The recovered index stays usable.
        rec.insert_u64(&mut ctx, n + 1, 1).unwrap();
        assert_eq!(rec.get_u64(&mut ctx, n + 1), Some(1));
    }

    #[test]
    fn recover_refuses_unformatted_image() {
        let (_d, mut ctx) = test_device();
        assert!(Dash::recover(&mut ctx).is_none());
        let _ = PmAllocator::format(&mut ctx, 0);
        assert!(Dash::recover(&mut ctx).is_none());
    }
}
