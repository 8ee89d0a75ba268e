//! Halo — a hybrid DRAM/PM hash index with a log-structured value store
//! (Hu et al., SIGMOD'22), as characterized by the Spash paper (§VI):
//!
//! * the **entire hash table lives in DRAM** (fast traversal, fast
//!   recovery via snapshots) — which is also why "Halo ... crashes during
//!   the executions [of the 20 M-key micro-benchmark]: Halo needs to
//!   maintain a complete hash table in DRAM ... resulting in the
//!   exhaustion of DRAM space". The table is not bounded here: the
//!   micro-benchmark roster (`spash-bench`'s `indexes::micro`) leaves
//!   Halo out, as the paper does;
//! * values are **appended to a PM log**; updates append a new version and
//!   *invalidate* the old one with a PM write; deletes likewise —
//!   "notable PM writes for ... the creation, invalidation, and
//!   reclamation of log entries";
//! * periodic **snapshots** of the DRAM index to PM add background write
//!   traffic;
//! * writes are **lock-based** (per-shard), reads lock-free from DRAM.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use spash_alloc::PmAllocator;
use spash_index_api::crashpoint::{CrashTarget, Recovered};
use spash_index_api::{hash_key, IndexError, PersistentIndex};
use spash_pmem::canary::{self, Canary};
use spash_pmem::{MemCtx, PmAddr, VRwLock};

use crate::common;

const SHARDS: usize = 64;
/// Log extent handed to a thread at a time.
const EXTENT: u64 = 4096;
/// Mutations per shard between incremental index snapshots.
const SNAP_EVERY: u64 = 4096;
/// Log-entry header: [key: u64][len+flags: u64].
const HDR: u64 = 16;
const DEAD_FLAG: u64 = 1 << 63;
/// Root-block magic ("Halo" log layout, v1) in the allocator's reserved
/// region: `[magic][log_base][log_len][snap_base][snap_len]`.
const MAGIC: u64 = 0x4861_6c6f_4c67_3176;
/// Reserved bytes for the root block.
const ROOT_LEN: u64 = 256;

struct ShardMap {
    map: HashMap<u64, (u64, u32)>, // key -> (log offset, value len)
    muts: u64,
}

/// The Halo baseline.
pub struct Halo {
    #[allow(dead_code)] // kept: owns the region backing the log
    alloc: Arc<PmAllocator>,
    shards: Vec<VRwLock<ShardMap>>,
    log_base: PmAddr,
    log_len: u64,
    log_head: AtomicU64,
    /// Snapshot area (ring).
    snap_base: PmAddr,
    snap_len: u64,
    garbage_bytes: AtomicU64,
    entries: AtomicU64,
}

impl Halo {
    pub fn new(
        ctx: &mut MemCtx,
        alloc: Arc<PmAllocator>,
        log_bytes: u64,
    ) -> Result<Self, IndexError> {
        let log_base = alloc
            .alloc_region(ctx, log_bytes)
            .map_err(|_| IndexError::OutOfMemory)?;
        let snap_len = log_bytes / 4;
        let snap_base = alloc
            .alloc_region(ctx, snap_len)
            .map_err(|_| IndexError::OutOfMemory)?;
        // Publish the root block last: a half-formatted image recovers as
        // "no Halo here" rather than as garbage.
        let (root, root_len) = alloc.reserved();
        if root_len >= ROOT_LEN {
            // Persist the layout fields before the magic publishes them:
            // recovery trusts every field once it sees MAGIC.
            ctx.write_u64(PmAddr(root.0 + 8), log_base.0);
            ctx.write_u64(PmAddr(root.0 + 16), log_bytes);
            ctx.write_u64(PmAddr(root.0 + 24), snap_base.0);
            ctx.write_u64(PmAddr(root.0 + 32), snap_len);
            ctx.flush_range(PmAddr(root.0 + 8), 32);
            ctx.fence();
            ctx.write_u64(root, MAGIC);
            ctx.flush(root);
            ctx.fence();
        }
        Ok(Self {
            alloc,
            shards: (0..SHARDS)
                .map(|_| {
                    VRwLock::new(ShardMap {
                        map: HashMap::new(),
                        muts: 0,
                    })
                })
                .collect(),
            log_base,
            log_len: log_bytes,
            log_head: AtomicU64::new(0),
            snap_base,
            snap_len,
            garbage_bytes: AtomicU64::new(0),
            entries: AtomicU64::new(0),
        })
    }

    pub fn format(ctx: &mut MemCtx, log_bytes: u64) -> Result<Self, IndexError> {
        let alloc = Arc::new(PmAllocator::format(ctx, ROOT_LEN));
        Self::new(ctx, alloc, log_bytes)
    }

    #[inline]
    fn shard_of(h: u64) -> usize {
        (h >> 58) as usize % SHARDS
    }

    /// Append `[key][len][value]` to the log; returns the entry offset.
    ///
    /// The key word is written LAST: recovery's log replay treats a
    /// zero key as end-of-log, so an entry torn by a crash mid-append
    /// stays invisible instead of surfacing with a partial value.
    fn log_append(&self, ctx: &mut MemCtx, key: u64, value: &[u8]) -> Result<u64, IndexError> {
        let need = HDR + value.len() as u64;
        let off = self.log_head.fetch_add(need.div_ceil(16) * 16, Ordering::Relaxed);
        if off + need > self.log_len {
            return Err(IndexError::OutOfMemory);
        }
        let a = self.log_base.0 + off;
        ctx.write_bytes(PmAddr(a + 16), value);
        ctx.write_u64(PmAddr(a + 8), value.len() as u64);
        ctx.flush_range(PmAddr(a + 8), 8 + value.len() as u64);
        ctx.fence();
        ctx.write_u64(PmAddr(a), key);
        // The publication flush and fence (the sanitizer canaries skip them).
        if !canary::armed(Canary::SkipInsertFlush) {
            ctx.flush(PmAddr(a));
        }
        if !canary::armed(Canary::SkipInsertFence) {
            ctx.fence();
        }
        let _ = EXTENT; // extent-grained allocation folded into the head bump
        Ok(off)
    }

    /// Invalidate the log entry at `off` (the PM write the paper counts).
    fn log_invalidate(&self, ctx: &mut MemCtx, off: u64, len: u32) {
        let a = self.log_base.0 + off + 8;
        let w = ctx.read_u64(PmAddr(a));
        // lint:allow(conc-lockset): the header read-or-DEAD_FLAG write is idempotent and the entry is already unreachable from the DRAM index when invalidated (update/remove hold the shard lock over the index swing); the sweep explores it sched=Halo
        ctx.write_u64(PmAddr(a), w | DEAD_FLAG);
        ctx.flush(PmAddr(a));
        ctx.fence();
        self.garbage_bytes
            .fetch_add(HDR + len as u64, Ordering::Relaxed);
    }

    /// Incremental snapshot: dump one shard's index to the snapshot ring
    /// (sequential ntstores) — Halo's background persistence traffic.
    fn maybe_snapshot(&self, ctx: &mut MemCtx, sh: &ShardMap) {
        if !sh.muts.is_multiple_of(SNAP_EVERY) || sh.muts == 0 {
            return;
        }
        let bytes = (sh.map.len() as u64 * 16).min(self.snap_len / 2);
        let mut buf = vec![0u8; 256];
        let mut off = (sh.muts * 7919) % (self.snap_len / 2); // ring position
        let mut remaining = bytes;
        while remaining > 0 {
            let n = 256.min(remaining) as usize;
            buf.truncate(n);
            ctx.ntstore_bytes(PmAddr(self.snap_base.0 + off), &buf);
            off = (off + n as u64) % (self.snap_len / 2);
            remaining -= n as u64;
        }
        ctx.fence();
    }

    /// Rebuild the DRAM table from the PM log after a crash.
    ///
    /// Replay walks the log in append order until the first zero key
    /// (appends write the key word last, so a torn tail entry reads as
    /// end-of-log). Dead-flagged entries are skipped; for a key with
    /// several live entries — a crash can land between appending a new
    /// version and invalidating the old — the later offset wins.
    pub fn recover(ctx: &mut MemCtx) -> Option<Self> {
        ctx.stats_span(spash_pmem::SPAN_LOG_REPLAY, Self::recover_impl)
    }

    fn recover_impl(ctx: &mut MemCtx) -> Option<Self> {
        let rec = PmAllocator::recover(ctx)?;
        let (root, root_len) = rec.alloc.reserved();
        if root_len < ROOT_LEN || ctx.read_u64(root) != MAGIC {
            return None;
        }
        let log_base = PmAddr(ctx.read_u64(PmAddr(root.0 + 8)));
        let log_len = ctx.read_u64(PmAddr(root.0 + 16));
        let snap_base = PmAddr(ctx.read_u64(PmAddr(root.0 + 24)));
        let snap_len = ctx.read_u64(PmAddr(root.0 + 32));

        let mut map: HashMap<u64, (u64, u32)> = HashMap::new();
        let mut garbage = 0u64;
        let mut off = 0u64;
        while off + HDR <= log_len {
            let key = ctx.read_u64(PmAddr(log_base.0 + off));
            if key == 0 {
                break;
            }
            let lenw = ctx.read_u64(PmAddr(log_base.0 + off + 8));
            let len = lenw & !DEAD_FLAG;
            if off + HDR + len > log_len {
                break; // torn length; nothing committed can live past it
            }
            if lenw & DEAD_FLAG != 0 {
                garbage += HDR + len;
            } else {
                map.insert(key, (off, len as u32));
            }
            off += (HDR + len).div_ceil(16) * 16;
        }

        let mut shards: Vec<HashMap<u64, (u64, u32)>> =
            (0..SHARDS).map(|_| HashMap::new()).collect();
        for (k, v) in map {
            shards[Self::shard_of(hash_key(k))].insert(k, v);
        }
        let entries: u64 = shards.iter().map(|m| m.len() as u64).sum();
        Some(Self {
            alloc: Arc::new(rec.alloc),
            shards: shards
                .into_iter()
                .map(|map| VRwLock::new(ShardMap { map, muts: 0 }))
                .collect(),
            log_base,
            log_len,
            log_head: AtomicU64::new(off),
            snap_base,
            snap_len,
            garbage_bytes: AtomicU64::new(garbage),
            entries: AtomicU64::new(entries),
        })
    }

    /// Addresses the recovered index can reach. Everything Halo owns is
    /// two regions; live/dead log entries are sub-region state the census
    /// cannot see.
    fn reachable(&self) -> HashSet<u64> {
        [self.log_base.0, self.snap_base.0].into_iter().collect()
    }

    /// Halo as a [`CrashTarget`] for the crash-point sweep.
    pub fn crash_target(log_bytes: u64) -> CrashTarget {
        CrashTarget {
            name: "Halo".into(),
            format: Box::new(move |ctx| {
                Box::new(Halo::format(ctx, log_bytes).expect("format Halo"))
            }),
            recover: Box::new(move |ctx| {
                Halo::recover(ctx).map(|idx| Box::new(idx) as Box<dyn Recovered>)
            }),
        }
    }
}

impl Recovered for Halo {
    fn audit(&self, ctx: &mut MemCtx) -> (u64, Option<String>) {
        common::audit(&self.reachable(), ctx)
    }
}

impl PersistentIndex for Halo {
    fn name(&self) -> &'static str {
        "Halo"
    }

    fn insert(&self, ctx: &mut MemCtx, key: u64, value: &[u8]) -> Result<(), IndexError> {
        let h = hash_key(key);
        let len = value.len() as u32;
        // lint:allow(conc-atomicity): deliberately split dup-check/append critical sections — checker-validation variant gated off in production, pinned to its witness sched=HaloRacyInsert
        if canary::armed(Canary::HaloRacyInsert) {
            // Deliberately broken variant (checker validation only): the
            // duplicate check and the append are in separate critical
            // sections with a schedulable window between them, so two
            // concurrent inserts of one key can both return `Ok`.
            let present = self.shards[Self::shard_of(h)].read(ctx, |ctx, sh| {
                ctx.charge_dram(1);
                sh.map.contains_key(&key)
            });
            if present {
                return Err(IndexError::DuplicateKey);
            }
            spash_pmem::schedhook::sync_point(spash_pmem::SyncEvent::TestRace);
            // lint:allow(flow-flush-fence): log_append's commit-word flush+fence are canary-gated (SkipInsertFlush/SkipInsertFence), always enabled outside tests/sanitizer.rs. san=none(canary gate is on outside sanitizer canary tests)
            let r = self.shards[Self::shard_of(h)].write(ctx, |ctx, sh| {
                let off = self.log_append(ctx, key, value)?;
                sh.map.insert(key, (off, len));
                sh.muts += 1;
                self.maybe_snapshot(ctx, sh);
                Ok(())
            });
            return r.map(|()| {
                self.entries.fetch_add(1, Ordering::Relaxed);
            });
        }
        // Check-then-append under the shard lock: appending a doomed
        // entry first (and invalidating it on failure) would let a crash
        // between the two resurrect a value the operation never committed.
        // lint:allow(flow-flush-fence): log_append's commit-word flush+fence are canary-gated (SkipInsertFlush/SkipInsertFence), always enabled outside tests/sanitizer.rs. san=none(canary gate is on outside sanitizer canary tests)
        let r = self.shards[Self::shard_of(h)].write(ctx, |ctx, sh| {
            ctx.charge_dram(1);
            if sh.map.contains_key(&key) {
                return Err(IndexError::DuplicateKey);
            }
            let off = self.log_append(ctx, key, value)?;
            sh.map.insert(key, (off, len));
            sh.muts += 1;
            self.maybe_snapshot(ctx, sh);
            Ok(())
        });
        r.map(|()| {
            self.entries.fetch_add(1, Ordering::Relaxed);
        })
    }

    fn update(&self, ctx: &mut MemCtx, key: u64, value: &[u8]) -> Result<(), IndexError> {
        let h = hash_key(key);
        let len = value.len() as u32;
        // lint:allow(flow-flush-fence): log_append's commit-word flush+fence are canary-gated (SkipInsertFlush/SkipInsertFence), always enabled outside tests/sanitizer.rs. san=none(canary gate is on outside sanitizer canary tests)
        let old = self.shards[Self::shard_of(h)].write(ctx, |ctx, sh| {
            ctx.charge_dram(1);
            if !sh.map.contains_key(&key) {
                return Err(IndexError::NotFound);
            }
            let off = self.log_append(ctx, key, value)?;
            let slot = sh.map.get_mut(&key).expect("checked above");
            let old = *slot;
            *slot = (off, len);
            sh.muts += 1;
            self.maybe_snapshot(ctx, sh);
            Ok(old)
        })?;
        // Invalidate the superseded entry; a crash before this lands
        // leaves both entries live and recovery's later-offset-wins rule
        // picks the new one.
        self.log_invalidate(ctx, old.0, old.1);
        Ok(())
    }

    fn get(&self, ctx: &mut MemCtx, key: u64, out: &mut Vec<u8>) -> bool {
        ctx.stats_span(spash_pmem::SPAN_PROBE, |ctx| {
            let h = hash_key(key);
            // Lock-free read of the DRAM table (a read lock with no PM word;
            // virtual-time cost only from writer serialization).
            let hit = self.shards[Self::shard_of(h)].read(ctx, |ctx, sh| {
                ctx.charge_dram(1);
                sh.map.get(&key).copied()
            });
            match hit {
                None => false,
                Some((off, len)) => {
                    let start = out.len();
                    out.resize(start + len as usize, 0);
                    ctx.read_bytes(PmAddr(self.log_base.0 + off + HDR), &mut out[start..]);
                    true
                }
            }
        })
    }

    fn remove(&self, ctx: &mut MemCtx, key: u64) -> bool {
        let h = hash_key(key);
        let old = self.shards[Self::shard_of(h)].write(ctx, |ctx, sh| {
            ctx.charge_dram(1);
            let old = sh.map.remove(&key);
            if old.is_some() {
                sh.muts += 1;
                self.maybe_snapshot(ctx, sh);
            }
            old
        });
        match old {
            None => false,
            Some((off, len)) => {
                self.log_invalidate(ctx, off, len);
                self.entries.fetch_sub(1, Ordering::Relaxed);
                true
            }
        }
    }

    fn entries(&self) -> u64 {
        self.entries.load(Ordering::Relaxed)
    }

    fn capacity_slots(&self) -> u64 {
        // Halo has no slot capacity in the extendible sense; the paper
        // excludes it from the load-factor study (Fig 9).
        self.entries.load(Ordering::Relaxed).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cceh::test_device;

    fn setup() -> (Arc<spash_pmem::PmDevice>, Halo, MemCtx) {
        let (dev, mut ctx) = test_device();
        let idx = Halo::format(&mut ctx, 16 << 20).unwrap();
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
            idx.update_u64(&mut ctx, 1, 0).unwrap_err(),
            IndexError::NotFound
        );
    }

    #[test]
    fn values_live_in_the_log() {
        let (_d, idx, mut ctx) = setup();
        let v = vec![7u8; 300];
        idx.insert(&mut ctx, 5, &v).unwrap();
        let mut out = Vec::new();
        assert!(idx.get(&mut ctx, 5, &mut out));
        assert_eq!(out, v);
    }

    #[test]
    fn updates_grow_garbage() {
        let (_d, idx, mut ctx) = setup();
        idx.insert_u64(&mut ctx, 1, 1).unwrap();
        let g0 = idx.garbage_bytes.load(Ordering::Relaxed);
        for i in 0..10 {
            idx.update_u64(&mut ctx, 1, i).unwrap();
        }
        let g1 = idx.garbage_bytes.load(Ordering::Relaxed);
        assert!(g1 > g0, "invalidations must accumulate garbage");
    }

    #[test]
    fn recover_replays_log_later_offset_wins() {
        let (dev, idx, mut ctx) = setup();
        for k in 1..=50u64 {
            idx.insert_u64(&mut ctx, k, k).unwrap();
        }
        for k in 1..=20u64 {
            idx.update_u64(&mut ctx, k, k + 100).unwrap();
        }
        for k in 40..=45u64 {
            assert!(idx.remove(&mut ctx, k));
        }
        dev.flush_cache_all();
        drop(idx);

        let mut ctx2 = dev.ctx();
        let r = Halo::recover(&mut ctx2).expect("recover Halo");
        assert_eq!(r.entries(), 44);
        for k in 1..=20u64 {
            assert_eq!(r.get_u64(&mut ctx2, k), Some(k + 100), "updated key {k}");
        }
        for k in 21..=39u64 {
            assert_eq!(r.get_u64(&mut ctx2, k), Some(k), "untouched key {k}");
        }
        for k in 40..=45u64 {
            assert_eq!(r.get_u64(&mut ctx2, k), None, "removed key {k}");
        }
        // The recovered index stays usable: the log head landed after the
        // last committed entry.
        r.insert_u64(&mut ctx2, 999, 999).unwrap();
        assert_eq!(r.get_u64(&mut ctx2, 999), Some(999));
    }

    #[test]
    fn recover_refuses_unformatted_image() {
        let (_d, mut ctx) = test_device();
        assert!(Halo::recover(&mut ctx).is_none());
        let _ = PmAllocator::format(&mut ctx, 0); // heap but no Halo root
        assert!(Halo::recover(&mut ctx).is_none());
    }

    #[test]
    fn concurrent_mixed() {
        let (dev, mut ctx) = test_device();
        let idx = Arc::new(Halo::format(&mut ctx, 32 << 20).unwrap());
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let idx = Arc::clone(&idx);
                let dev = Arc::clone(&dev);
                s.spawn(move || {
                    let mut ctx = dev.ctx();
                    for i in 0..800u64 {
                        let k = 1 + t * 800 + i;
                        idx.insert_u64(&mut ctx, k, k).unwrap();
                        idx.update_u64(&mut ctx, k, k + 1).unwrap();
                    }
                });
            }
        });
        for k in 1..=3200u64 {
            assert_eq!(idx.get_u64(&mut ctx, k), Some(k + 1), "key {k}");
        }
    }
}
