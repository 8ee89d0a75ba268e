//! Level hashing — write-optimized PM hashing (Zuo et al., OSDI'18), as
//! characterized by the Spash paper (§VI):
//!
//! * two levels (the bottom half the top's size); every key has **four
//!   candidate buckets** (two hash functions × two levels), so a search
//!   "needs to read at most four buckets ... costly because these buckets
//!   do not reside in a contiguous memory region";
//! * **locks on both reads and writes**, maintained in PM ("Level hashing
//!   performs poorly across all three YCSB workloads because it uses locks
//!   for both read and write operations");
//! * **full-table rehash** when an insert finds all four candidates full —
//!   the resizing cost Spash's fine-grained splits avoid (Fig 7b).
//!
//! Buckets are 128 bytes: a metadata word (allocation bitmap — more of the
//! metadata PM traffic Spash eliminates), four 16-byte slots, padding.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use spash_pmem::sync::RwLock;
use spash_alloc::PmAllocator;
use spash_index_api::crashpoint::{CrashTarget, Recovered};
use spash_index_api::{hash_key, IndexError, PersistentIndex};
use spash_pmem::canary::{self, Canary};
use spash_pmem::{MemCtx, PmAddr};

use crate::common::{self, PmRwLock};

const BUCKET_BYTES: u64 = 128;
const SLOTS: u64 = 4;
const HASH_SALT: u64 = 0x5bd1_e995_9e37_79b9;
/// Sharded bucket locks (a lock per bucket would be DRAM-prohibitive; the
/// original shards fine-grained locks too).
const LOCK_SHARDS: usize = 4096;
/// Root-block magic ("Levl" dual-slot layout, v1).
const MAGIC: u64 = 0x4c65_766c_5462_6c31;
/// Reserved bytes: `[magic][selector]` line, then table-descriptor slot A
/// at +256 and slot B at +512, each `[n_top][top][bottom][lock_region]`.
const ROOT_LEN: u64 = 1024;

struct Table {
    /// Top level: `n_top` buckets; bottom level: `n_top / 2`.
    top: PmAddr,
    bottom: PmAddr,
    n_top: u64,
    /// Which root descriptor slot (0 = A, 1 = B) this table is persisted
    /// in; a rehash writes the *other* slot, then flips the selector.
    sel: u64,
}

impl Table {
    fn bucket(&self, level: usize, i: u64) -> PmAddr {
        let (base, n) = if level == 0 {
            (self.top, self.n_top)
        } else {
            (self.bottom, self.n_top / 2)
        };
        PmAddr(base.0 + (i % n) * BUCKET_BYTES)
    }

    /// The four candidate buckets of a key: (level, index).
    fn candidates(&self, h1: u64, h2: u64) -> [(usize, u64); 4] {
        [
            (0, h1 % self.n_top),
            (0, h2 % self.n_top),
            (1, h1 % (self.n_top / 2)),
            (1, h2 % (self.n_top / 2)),
        ]
    }
}

/// The Level hashing baseline.
pub struct Level {
    alloc: Arc<PmAllocator>,
    table: RwLock<Table>,
    locks: Vec<PmRwLock>,
    lock_region: PmAddr,
    root: PmAddr,
    entries: AtomicU64,
}

impl Level {
    /// `pow` sets the initial top-level size (`2^pow` buckets; must be ≥2).
    pub fn new(ctx: &mut MemCtx, alloc: Arc<PmAllocator>, pow: u32) -> Result<Self, IndexError> {
        assert!(pow >= 2);
        let n_top = 1u64 << pow;
        let mut table = Self::alloc_table(ctx, &alloc, n_top)?;
        table.sel = 0;
        // The PM words backing the sharded locks live in one dedicated
        // region.
        let lock_region = alloc
            // lint:allow(flow-flush-fence): format-time allocator header CAS; alloc_table's zero-fill is fenced below before the root magic publishes the table. san=none(region unreachable until root magic is flushed+fenced)
            .alloc_region(ctx, LOCK_SHARDS as u64 * 8)
            .map_err(|_| IndexError::OutOfMemory)?;
        let locks = (0..LOCK_SHARDS)
            .map(|i| PmRwLock::new(PmAddr(lock_region.0 + i as u64 * 8)))
            .collect();
        // Persist the root: descriptor slot A, selector, magic LAST, so a
        // crash mid-format recovers as "no Level here".
        let (root, root_len) = alloc.reserved();
        if root_len >= ROOT_LEN {
            Self::write_slot(ctx, root, 0, &table, lock_region);
            ctx.write_u64(PmAddr(root.0 + 8), 0);
            ctx.flush_range(PmAddr(root.0 + 8), 256 + 32);
            ctx.fence();
            ctx.write_u64(root, MAGIC);
            ctx.flush(root);
            ctx.fence();
        }
        Ok(Self {
            alloc,
            table: RwLock::new(table),
            locks,
            lock_region,
            root,
            entries: AtomicU64::new(0),
        })
    }

    pub fn format(ctx: &mut MemCtx, pow: u32) -> Result<Self, IndexError> {
        let alloc = Arc::new(PmAllocator::format(ctx, ROOT_LEN));
        Self::new(ctx, alloc, pow)
    }

    /// Persist a table descriptor into root slot `sel`.
    fn write_slot(ctx: &mut MemCtx, root: PmAddr, sel: u64, t: &Table, lock_region: PmAddr) {
        let s = root.0 + 256 + sel * 256;
        ctx.write_u64(PmAddr(s), t.n_top);
        ctx.write_u64(PmAddr(s + 8), t.top.0);
        ctx.write_u64(PmAddr(s + 16), t.bottom.0);
        ctx.write_u64(PmAddr(s + 24), lock_region.0);
    }

    fn alloc_table(ctx: &mut MemCtx, alloc: &PmAllocator, n_top: u64) -> Result<Table, IndexError> {
        let top = alloc
            .alloc_region(ctx, n_top * BUCKET_BYTES)
            .map_err(|_| IndexError::OutOfMemory)?;
        let bottom = alloc
            .alloc_region(ctx, (n_top / 2) * BUCKET_BYTES)
            .map_err(|_| IndexError::OutOfMemory)?;
        let zeros = [0u8; 256];
        for (base, len) in [(top, n_top * BUCKET_BYTES), (bottom, n_top / 2 * BUCKET_BYTES)] {
            let mut off = 0;
            while off < len {
                let n = 256.min(len - off) as usize;
                ctx.ntstore_bytes(PmAddr(base.0 + off), &zeros[..n]);
                off += n as u64;
            }
        }
        Ok(Table {
            top,
            bottom,
            n_top,
            sel: 0,
        })
    }

    #[inline]
    fn hashes(key: u64) -> (u64, u64) {
        (hash_key(key), hash_key(key ^ HASH_SALT))
    }

    fn lock_of(&self, level: usize, i: u64) -> &PmRwLock {
        &self.locks[(level as u64 * 31 + i) as usize % LOCK_SHARDS]
    }

    /// Scan a bucket for `key`. Returns (slot, value word).
    fn scan(&self, ctx: &mut MemCtx, b: PmAddr, key: u64) -> Option<(u64, u64)> {
        let bitmap = ctx.read_u64(b);
        for s in 0..SLOTS {
            if bitmap & (1 << s) != 0 {
                let k = ctx.read_u64(PmAddr(b.0 + 8 + s * 16));
                if k == key {
                    return Some((s, ctx.read_u64(PmAddr(b.0 + 16 + s * 16))));
                }
            }
        }
        None
    }

    /// Insert into a bucket if it has room (caller holds its lock).
    fn bucket_insert(&self, ctx: &mut MemCtx, b: PmAddr, key: u64, vw: u64) -> bool {
        let bitmap = ctx.read_u64(b);
        let free = (!bitmap & ((1 << SLOTS) - 1)).trailing_zeros() as u64;
        if free >= SLOTS {
            return false;
        }
        // Persist the slot, then publish it in the bitmap (the original's
        // clwb+fence ordering): a crash can lose the insertion, never
        // expose a half-written slot.
        ctx.write_u64(PmAddr(b.0 + 16 + free * 16), vw);
        ctx.write_u64(PmAddr(b.0 + 8 + free * 16), key);
        ctx.flush_range(PmAddr(b.0 + 8 + free * 16), 16);
        ctx.fence();
        ctx.write_u64(b, bitmap | 1 << free); // metadata PM write
        // The publication flush and fence (the sanitizer canaries skip them).
        if !canary::armed(Canary::SkipInsertFlush) {
            ctx.flush(b);
        }
        if !canary::armed(Canary::SkipInsertFence) {
            ctx.fence();
        }
        true
    }

    /// Make room for `key` in one of its two top-level candidates `hs` of
    /// `t` by moving an occupant to that occupant's other top bucket
    /// (Level hashing's one-step movement). Only used on a rehash's new
    /// top, which no reader can reach until the rehash commits.
    fn displace_into(&self, ctx: &mut MemCtx, t: &Table, hs: [u64; 2], key: u64, vw: u64) -> bool {
        for h in hs {
            let b = t.bucket(0, h);
            for s in 0..SLOTS {
                let slot = PmAddr(b.0 + 8 + s * 16);
                let occupant = ctx.read_u64(slot);
                let (o1, o2) = Self::hashes(occupant);
                let other = if o1 % t.n_top == h % t.n_top { o2 } else { o1 };
                if other % t.n_top == h % t.n_top {
                    continue;
                }
                let ovw = ctx.read_u64(PmAddr(slot.0 + 8));
                if self.bucket_insert(ctx, t.bucket(0, other), occupant, ovw) {
                    ctx.write_u64(PmAddr(slot.0 + 8), vw);
                    ctx.write_u64(slot, key);
                    ctx.flush_range(slot, 16);
                    ctx.fence();
                    return true;
                }
            }
        }
        false
    }

    /// Full-table rehash: new top = 2 × old top, old top becomes the new
    /// bottom, old bottom's entries are re-inserted. Holds the global
    /// table write lock for the duration (the stall the paper measures).
    /// `seen_n_top` is the table size the caller's full round saw: every
    /// inserter that found the same table full queues here, and only the
    /// first of them may double it.
    fn rehash(&self, ctx: &mut MemCtx, seen_n_top: u64) -> Result<(), IndexError> {
        ctx.stats_span(spash_pmem::SPAN_COMPACTION, |ctx| {
            self.rehash_impl(ctx, seen_n_top)
        })
    }

    fn rehash_impl(&self, ctx: &mut MemCtx, seen_n_top: u64) -> Result<(), IndexError> {
        let mut t = self.table.write();
        if t.n_top != seen_n_top {
            return Ok(()); // someone else already grew; the caller retries
        }
        let new_n = t.n_top * 2;
        let new_top = self
            .alloc
            .alloc_region(ctx, new_n * BUCKET_BYTES)
            .map_err(|_| IndexError::OutOfMemory)?;
        let zeros = [0u8; 256];
        let mut off = 0;
        while off < new_n * BUCKET_BYTES {
            let n = 256.min(new_n * BUCKET_BYTES - off) as usize;
            ctx.ntstore_bytes(PmAddr(new_top.0 + off), &zeros[..n]);
            off += n as u64;
        }
        let new_table = Table {
            top: new_top,
            bottom: t.top,
            n_top: new_n,
            sel: t.sel ^ 1,
        };
        // Move every old-bottom entry into the new top.
        let old_bottom_n = t.n_top / 2;
        for i in 0..old_bottom_n {
            let b = PmAddr(t.bottom.0 + i * BUCKET_BYTES);
            let bitmap = ctx.read_u64(b);
            for s in 0..SLOTS {
                if bitmap & (1 << s) == 0 {
                    continue;
                }
                let k = ctx.read_u64(PmAddr(b.0 + 8 + s * 16));
                let vw = ctx.read_u64(PmAddr(b.0 + 16 + s * 16));
                let (h1, h2) = Self::hashes(k);
                let placed = self.bucket_insert(ctx, new_table.bucket(0, h1 % new_n), k, vw)
                    || self.bucket_insert(ctx, new_table.bucket(0, h2 % new_n), k, vw);
                if !placed {
                    // Rare: place in the new bottom (= old top) via its
                    // candidates, else move an occupant of a new-top
                    // candidate to its other new-top bucket, as the
                    // original does.
                    let ok = self.bucket_insert(ctx, new_table.bucket(1, h1 % t.n_top), k, vw)
                        || self.bucket_insert(ctx, new_table.bucket(1, h2 % t.n_top), k, vw)
                        || self.displace_into(ctx, &new_table, [h1, h2], k, vw);
                    if !ok {
                        // Every occupant's other bucket is full as well.
                        // The old table is still the published one, so
                        // the new top goes back rather than leaking.
                        // lint:allow(flow-flush-fence): residue reaching this free is bucket_insert's canary-gated flush+fence (SkipInsertFlush/SkipInsertFence); the freed top was never published. san=none(canary gate is on outside sanitizer canary tests)
                        self.alloc.free_region(ctx, new_top);
                        return Err(IndexError::OutOfMemory);
                    }
                }
            }
        }
        // Commit order: persist the new descriptor in the inactive root
        // slot, flip the selector (one atomic word — the commit point),
        // and only then free the old bottom. A crash before the flip
        // leaves the old table authoritative (the new top leaks, counted);
        // a crash after the flip but before the free leaks the old bottom.
        Self::write_slot(ctx, self.root, new_table.sel, &new_table, self.lock_region);
        ctx.flush_range(PmAddr(self.root.0 + 256 + new_table.sel * 256), 32);
        ctx.fence();
        ctx.write_u64(PmAddr(self.root.0 + 8), new_table.sel);
        ctx.flush(PmAddr(self.root.0 + 8));
        ctx.fence();
        self.alloc.free_region(ctx, t.bottom);
        *t = new_table;
        Ok(())
    }

    /// Popcount of every bucket bitmap in both levels.
    fn count_entries(ctx: &mut MemCtx, t: &Table) -> u64 {
        let mut n = 0u64;
        for (base, count) in [(t.top, t.n_top), (t.bottom, t.n_top / 2)] {
            for i in 0..count {
                let bitmap = ctx.read_u64(PmAddr(base.0 + i * BUCKET_BYTES));
                n += (bitmap & ((1 << SLOTS) - 1)).count_ones() as u64;
            }
        }
        n
    }

    /// Rebuild from the persistent root after a crash.
    pub fn recover(ctx: &mut MemCtx) -> Option<Self> {
        ctx.stats_span(spash_pmem::SPAN_LOG_REPLAY, Self::recover_impl)
    }

    fn recover_impl(ctx: &mut MemCtx) -> Option<Self> {
        let rec = PmAllocator::recover(ctx)?;
        let (root, root_len) = rec.alloc.reserved();
        if root_len < ROOT_LEN || ctx.read_u64(root) != MAGIC {
            return None;
        }
        let sel = ctx.read_u64(PmAddr(root.0 + 8)) & 1;
        let s = root.0 + 256 + sel * 256;
        let n_top = ctx.read_u64(PmAddr(s));
        let top = PmAddr(ctx.read_u64(PmAddr(s + 8)));
        let bottom = PmAddr(ctx.read_u64(PmAddr(s + 16)));
        let lock_region = PmAddr(ctx.read_u64(PmAddr(s + 24)));
        // The descriptor must name live regions of this heap, or the root
        // is torn/foreign.
        let regions: HashSet<u64> = rec.regions.iter().map(|&(a, _)| a.0).collect();
        if !n_top.is_power_of_two()
            || n_top < 4
            || ![top, bottom, lock_region]
                .iter()
                .all(|a| regions.contains(&a.0))
        {
            return None;
        }
        let table = Table {
            top,
            bottom,
            n_top,
            sel,
        };
        let entries = Self::count_entries(ctx, &table);
        let locks = (0..LOCK_SHARDS)
            .map(|i| PmRwLock::new(PmAddr(lock_region.0 + i as u64 * 8)))
            .collect();
        Some(Self {
            alloc: Arc::new(rec.alloc),
            table: RwLock::new(table),
            locks,
            lock_region,
            root,
            entries: AtomicU64::new(entries),
        })
    }

    /// Addresses the recovered index can reach: its three regions plus
    /// every blob a published slot points at.
    fn reachable(&self, ctx: &mut MemCtx) -> HashSet<u64> {
        let t = self.table.read();
        let mut set: HashSet<u64> =
            [t.top.0, t.bottom.0, self.lock_region.0].into_iter().collect();
        for (base, count) in [(t.top, t.n_top), (t.bottom, t.n_top / 2)] {
            for i in 0..count {
                let b = PmAddr(base.0 + i * BUCKET_BYTES);
                let bitmap = ctx.read_u64(b);
                for s in 0..SLOTS {
                    if bitmap & (1 << s) != 0 {
                        let vw = ctx.read_u64(PmAddr(b.0 + 16 + s * 16));
                        if let common::ValWord::Blob(a) = common::unpack_val(vw) {
                            set.insert(a.0);
                        }
                    }
                }
            }
        }
        set
    }

    /// Level hashing as a [`CrashTarget`] for the crash-point sweep.
    pub fn crash_target(pow: u32) -> CrashTarget {
        CrashTarget {
            name: "Level".into(),
            format: Box::new(move |ctx| {
                Box::new(Level::format(ctx, pow).expect("format Level"))
            }),
            recover: Box::new(|ctx| {
                Level::recover(ctx).map(|idx| Box::new(idx) as Box<dyn Recovered>)
            }),
        }
    }
}

impl Recovered for Level {
    fn audit(&self, ctx: &mut MemCtx) -> (u64, Option<String>) {
        self.alloc.audit(&self.reachable(ctx), ctx)
    }
}

impl PersistentIndex for Level {
    fn name(&self) -> &'static str {
        "Level"
    }

    fn insert(&self, ctx: &mut MemCtx, key: u64, value: &[u8]) -> Result<(), IndexError> {
        let vw = common::make_val(&self.alloc, ctx, key, value)?;
        let (h1, h2) = Self::hashes(key);
        loop {
            enum Out {
                Done,
                Dup,
                /// Every candidate full, in a table of this `n_top`.
                Full(u64),
            }
            let out = {
                let t = self.table.read();
                let cands = t.candidates(h1, h2);
                // Duplicate check + insert, locking candidates one at a
                // time (the original's per-bucket fine-grained locks).
                let mut dup = false;
                for &(lvl, i) in &cands {
                    let b = t.bucket(lvl, i);
                    if self
                        .lock_of(lvl, i)
                        .read(ctx, |ctx| self.scan(ctx, b, key).is_some())
                    {
                        dup = true;
                        break;
                    }
                }
                if dup {
                    Out::Dup
                } else {
                    let mut done = false;
                    for &(lvl, i) in &cands {
                        let b = t.bucket(lvl, i);
                        if self
                            .lock_of(lvl, i)
                            // lint:allow(flow-flush-fence): bucket_insert's slot flush+fence are canary-gated (SkipInsertFlush/SkipInsertFence), always enabled outside tests/sanitizer.rs. san=none(canary gate is on outside sanitizer canary tests)
                            .write(ctx, |ctx| self.bucket_insert(ctx, b, key, vw))
                        {
                            done = true;
                            break;
                        }
                    }
                    if done {
                        Out::Done
                    } else {
                        Out::Full(t.n_top)
                    }
                }
            };
            match out {
                Out::Done => {
                    self.entries.fetch_add(1, Ordering::Relaxed);
                    return Ok(());
                }
                Out::Dup => {
                    common::free_val(&self.alloc, ctx, vw);
                    return Err(IndexError::DuplicateKey);
                }
                Out::Full(seen) => self.rehash(ctx, seen)?,
            }
        }
    }

    fn update(&self, ctx: &mut MemCtx, key: u64, value: &[u8]) -> Result<(), IndexError> {
        let vw = common::make_val(&self.alloc, ctx, key, value)?;
        let (h1, h2) = Self::hashes(key);
        let t = self.table.read();
        for &(lvl, i) in &t.candidates(h1, h2) {
            let b = t.bucket(lvl, i);
            let hit = self.lock_of(lvl, i).write(ctx, |ctx| {
                self.scan(ctx, b, key).map(|(s, old)| {
                    ctx.write_u64(PmAddr(b.0 + 16 + s * 16), vw);
                    ctx.flush(PmAddr(b.0 + 16 + s * 16));
                    ctx.fence();
                    old
                })
            });
            if let Some(old) = hit {
                drop(t);
                common::free_val(&self.alloc, ctx, old);
                return Ok(());
            }
        }
        drop(t);
        common::free_val(&self.alloc, ctx, vw);
        Err(IndexError::NotFound)
    }

    fn get(&self, ctx: &mut MemCtx, key: u64, out: &mut Vec<u8>) -> bool {
        ctx.stats_span(spash_pmem::SPAN_PROBE, |ctx| {
            let (h1, h2) = Self::hashes(key);
            let t = self.table.read();
            for &(lvl, i) in &t.candidates(h1, h2) {
                let b = t.bucket(lvl, i);
                // Read lock per bucket: the PM lock writes on the read path.
                let hit = self
                    .lock_of(lvl, i)
                    .read(ctx, |ctx| self.scan(ctx, b, key).map(|(_, vw)| vw));
                if let Some(vw) = hit {
                    drop(t);
                    common::append_value(ctx, vw, out);
                    return true;
                }
            }
            false
        })
    }

    fn remove(&self, ctx: &mut MemCtx, key: u64) -> bool {
        let (h1, h2) = Self::hashes(key);
        let t = self.table.read();
        for &(lvl, i) in &t.candidates(h1, h2) {
            let b = t.bucket(lvl, i);
            // lint:allow(flow-flush-fence): the key-word scrub after the flushed bitmap unpublish is a recovery don't-care, dynamically forgiven inside this region. san=level::remove
            let hit = self.lock_of(lvl, i).write(ctx, |ctx| {
                self.scan(ctx, b, key).map(|(s, vw)| {
                    let bitmap = ctx.read_u64(b);
                    // Unpublish first (flushed), then scrub the key word.
                    ctx.write_u64(b, bitmap & !(1 << s));
                    ctx.flush(b);
                    ctx.fence();
                    ctx.write_u64(PmAddr(b.0 + 8 + s * 16), 0);
                    // The scrub is a recovery don't-care: the bitmap
                    // (flushed above) already unpublished the slot.
                    ctx.san_forgive(PmAddr(b.0 + 8 + s * 16), 8);
                    vw
                })
            });
            if let Some(vw) = hit {
                drop(t);
                common::free_val(&self.alloc, ctx, vw);
                self.entries.fetch_sub(1, Ordering::Relaxed);
                return true;
            }
        }
        false
    }

    fn entries(&self) -> u64 {
        self.entries.load(Ordering::Relaxed)
    }

    fn capacity_slots(&self) -> u64 {
        let t = self.table.read();
        (t.n_top + t.n_top / 2) * SLOTS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cceh::test_device;

    fn setup() -> (Arc<spash_pmem::PmDevice>, Level, MemCtx) {
        let (dev, mut ctx) = test_device();
        let idx = Level::format(&mut ctx, 4).unwrap();
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
        assert_eq!(
            idx.insert_u64(&mut ctx, 2, 0)
                .and(idx.insert_u64(&mut ctx, 2, 0))
                .unwrap_err(),
            IndexError::DuplicateKey
        );
    }

    #[test]
    fn grows_through_full_table_rehash() {
        let (_d, idx, mut ctx) = setup();
        let cap0 = idx.capacity_slots();
        let n = 3000u64;
        for k in 1..=n {
            idx.insert_u64(&mut ctx, k, k).unwrap();
        }
        for k in 1..=n {
            assert_eq!(idx.get_u64(&mut ctx, k), Some(k), "key {k}");
        }
        assert!(idx.capacity_slots() > cap0, "rehash must have grown");
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
        assert!(d.cl_writes > 0, "Level reads must dirty the PM lock word");
    }

    #[test]
    fn recover_roundtrip_across_rehash() {
        let (dev, idx, mut ctx) = setup();
        let blob = vec![0x5au8; 120];
        idx.insert(&mut ctx, 9999, &blob).unwrap();
        for k in 1..=1500u64 {
            idx.insert_u64(&mut ctx, k, k).unwrap(); // forces rehashes
        }
        for k in 1..=40u64 {
            idx.update_u64(&mut ctx, k, k + 7).unwrap();
        }
        for k in 100..=120u64 {
            assert!(idx.remove(&mut ctx, k));
        }
        let live = idx.entries();
        dev.flush_cache_all();
        drop(idx);

        let mut ctx2 = dev.ctx();
        let r = Level::recover(&mut ctx2).expect("recover Level");
        assert_eq!(r.entries(), live);
        for k in 1..=40u64 {
            assert_eq!(r.get_u64(&mut ctx2, k), Some(k + 7), "updated key {k}");
        }
        for k in 100..=120u64 {
            assert_eq!(r.get_u64(&mut ctx2, k), None, "removed key {k}");
        }
        assert_eq!(r.get_u64(&mut ctx2, 1500), Some(1500));
        let mut out = Vec::new();
        assert!(r.get(&mut ctx2, 9999, &mut out));
        assert_eq!(out, blob);
        r.insert_u64(&mut ctx2, 100_000, 1).unwrap();
        assert_eq!(r.get_u64(&mut ctx2, 100_000), Some(1));
    }

    #[test]
    fn recover_refuses_unformatted_image() {
        let (_d, mut ctx) = test_device();
        assert!(Level::recover(&mut ctx).is_none());
        let _ = PmAllocator::format(&mut ctx, 0);
        assert!(Level::recover(&mut ctx).is_none());
    }

    #[test]
    fn rehash_moves_an_occupant_when_all_four_candidates_are_full() {
        // An 8-bucket top and 4-bucket bottom rehash into a 16-bucket top.
        // Lay the old table out so that the last old-bottom entry finds
        // both new-top candidates (buckets 2 and 3) and both new-bottom
        // (= old top) candidates full; only moving `x` to its other
        // new-top bucket makes room.
        fn pick(
            pool: &mut std::ops::RangeFrom<u64>,
            n: usize,
            want: impl Fn(u64, u64) -> bool,
        ) -> Vec<u64> {
            pool.by_ref()
                .filter(|&k| {
                    let (h1, h2) = Level::hashes(k);
                    want(h1, h2)
                })
                .take(n)
                .collect()
        }
        let (_d, mut ctx) = test_device();
        let idx = Level::format(&mut ctx, 3).unwrap();
        let mut pool = 1u64..;
        // x: new-top candidates 2 and a bucket whose bottom index is 0 or
        // 1, so the rehash moves it first.
        let x = pick(&mut pool, 1, |h1, h2| h1 % 16 == 2 && h2 % 4 < 2)[0];
        let s2 = pick(&mut pool, 4, |h1, h2| h1 % 16 == 2 && h2 % 16 == 3);
        let s3 = pick(&mut pool, 4, |h1, h2| h1 % 16 == 3 && h2 % 16 == 2);
        let mut fill = pick(&mut pool, 4, |h1, _| h1 % 8 == 2);
        fill.extend(pick(&mut pool, 4, |h1, _| h1 % 8 == 3));
        {
            let t = idx.table.read();
            let bottom = std::iter::once((x, Level::hashes(x).1))
                .chain(s2.iter().chain(&s3).map(|&k| (k, Level::hashes(k).0)))
                .map(|(k, h)| (1, k, h));
            let top = fill.iter().map(|&k| (0, k, Level::hashes(k).0));
            for (lvl, k, h) in bottom.chain(top) {
                let vw = common::make_val(&idx.alloc, &mut ctx, k, &k.to_le_bytes()[..6]).unwrap();
                assert!(idx.bucket_insert(&mut ctx, t.bucket(lvl, h), k, vw));
            }
        }
        idx.rehash(&mut ctx, 8).unwrap();
        assert_eq!(idx.capacity_slots(), (16 + 8) * SLOTS);
        for &k in [x].iter().chain(&s2).chain(&s3).chain(&fill) {
            assert_eq!(idx.get_u64(&mut ctx, k), Some(k), "key {k}");
        }
        let t = idx.table.read();
        let x_home = t.bucket(0, Level::hashes(x).1);
        assert!(idx.scan(&mut ctx, x_home, x).is_some(), "x moved to its other bucket");
    }

    #[test]
    fn values_survive_rehash() {
        let (_d, idx, mut ctx) = setup();
        let blob = vec![0x42u8; 200];
        idx.insert(&mut ctx, 999, &blob).unwrap();
        for k in 1..=2000u64 {
            if k != 999 {
                idx.insert_u64(&mut ctx, k, k).unwrap();
            }
        }
        let mut out = Vec::new();
        assert!(idx.get(&mut ctx, 999, &mut out));
        assert_eq!(out, blob);
    }
}
