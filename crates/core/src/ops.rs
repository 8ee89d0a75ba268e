//! The Spash index: five-step execution flow (§III-D) under the two-phase
//! concurrency protocol (§IV-A).
//!
//! Every base operation is split into:
//!
//! * a **preparation phase** outside any transaction — hash the key, route
//!   through the volatile directory (step 1), load the main bucket
//!   (step 2), locate the compound slot (step 3), dereference out-of-place
//!   blobs (step 4), and for inserts allocate + fill the new blob;
//! * **step 5** — one short body that first *validates* the preparation
//!   snapshot (directory entry unchanged, slot unchanged) and then
//!   processes the entry. Stale snapshots abort explicitly and the
//!   operation retries from preparation.
//!
//! Each step-5 body is written once, generic over how it touches memory
//! (`crate::access`); `Spash::run_step5` picks the concurrency control
//! around it from `cfg.concurrency`: an HTM transaction that, after
//! `max_tx_retries` conflict or capacity aborts, falls back to the routed
//! directory partitions' non-transactional locks (§IV-A's segment lock) —
//! or, for the Fig 12c ablations, a per-segment write lock with
//! seqlock-optimistic or read-locked lookups.
//!
//! Adaptive in-place update (§III-B, Table I) and compacted-flush
//! insertion (§III-C) run in the post-commit step: flushes are issued
//! *after* the transaction, never inside it (flushes abort real HTM).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use spash_alloc::PmAllocator;
use spash_htm::{Abort, Htm, LineId, Tx};
use spash_index_api::{hash_key, IndexError};
use spash_pmem::{MemCtx, PmAddr, PmDevice, VRwLock, CACHELINE};

use crate::access::{Access, Plain};
use crate::config::{ConcurrencyMode, InsertPolicy, SpashConfig, UpdatePolicy};
use crate::dir::{Directory, Routed, VALIDATE_SLOT_CHANGED};
use crate::fptable::FpTable;
use crate::hotspot::PartitionedDetector;
use crate::overlay::{CachedBucket, Overlay};
use crate::seginfo::SegInfoTable;
use crate::slot::{
    self, bucket_of, bucket_slots, fp14, fp8, fp_word, hint_matches, key_addr, make_hint,
    value_addr, value_word, BucketWords, Placement, SlotKey, INLINE_VALUE_LEN, MAX_INLINE_KEY,
    SLOTS_PER_BUCKET,
};

/// Explicit-abort code: the key turned out to be present (insert) or
/// absent (update/delete) when re-checked transactionally.
pub(crate) const AB_STATE_CHANGED: u32 = VALIDATE_SLOT_CHANGED;

/// Number of lock-table entries for the lock-mode ablations.
pub(crate) const SEG_LOCK_TABLE: usize = 4096;

/// Entries in the DRAM read-through overlay cache in front of hot
/// buckets (a power of two ≥ 8).
const OVERLAY_ENTRIES: usize = 16384;

pub(crate) struct SegLock {
    pub rw: VRwLock<()>,
    /// Seqlock version for WriteLock-mode optimistic readers.
    pub ver: AtomicU64,
}

/// The Spash persistent hash index.
pub struct Spash {
    pub(crate) dev: Arc<PmDevice>,
    pub(crate) alloc: Arc<PmAllocator>,
    pub(crate) htm: Htm,
    pub(crate) dir: Directory,
    pub(crate) seginfo: SegInfoTable,
    pub(crate) fptable: FpTable,
    pub(crate) overlay: Overlay,
    /// The adaptive update policy's hot-key list (§III-B). Volatile:
    /// every format and every recovery starts it untrained.
    pub(crate) hotness: PartitionedDetector,
    pub(crate) cfg: SpashConfig,
    pub(crate) entries: AtomicU64,
    pub(crate) n_segments: AtomicU64,
    pub(crate) seg_locks: Box<[SegLock]>,
    /// Diagnostic: how many operations took the lock fallback.
    pub(crate) fallbacks: AtomicU64,
}

/// A slot located during preparation.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Found {
    pub idx: u8,
    pub kw: u64,
    pub vw: u64,
}

/// An insert payload prepared before the transaction phase.
pub(crate) enum Payload {
    Inline(u64),
    Blob {
        addr: PmAddr,
        val_len: u64,
        alloc_size: u64,
        flush_chunk: Option<PmAddr>,
    },
}

impl Spash {
    // =====================================================================
    // construction
    // =====================================================================

    /// Format the device's arena and build an empty index with
    /// `2^initial_depth` segments. Refuses an arena larger than a `Ptr`
    /// key word can address ([`slot::check_arena`]).
    pub fn format(ctx: &mut MemCtx, cfg: SpashConfig) -> Result<Self, IndexError> {
        let dev = Arc::clone(ctx.device());
        slot::check_arena(dev.arena().size())?;
        // Reserve one 8-byte segment-info record plus a 32-byte
        // fingerprint sidecar (4 packed per-bucket tag words) per
        // possible chunk.
        let reserved = dev.arena().size() / 32 + dev.arena().size() / 8;
        let alloc = Arc::new(PmAllocator::format(ctx, reserved));
        let (seginfo, fptable) = Self::tables(&alloc);

        let n = 1usize << cfg.initial_depth;
        let mut segs = Vec::with_capacity(n);
        for prefix in 0..n {
            let seg = alloc
                .alloc_segment(ctx)
                .map_err(|_| IndexError::OutOfMemory)?;
            // Fresh arena is zeroed; recycled chunks are not: clear.
            for w in 0..32 {
                ctx.write_u64(PmAddr(seg.0 + w * 8), 0);
            }
            for b in 0..slot::BUCKETS_PER_SEG {
                Plain::ok(fptable.write_word(&mut Plain, ctx, seg, b, 0));
            }
            Plain::ok(seginfo.set(&mut Plain, ctx, seg, cfg.initial_depth as u8, prefix as u64));
            segs.push(seg);
        }
        let dir = Directory::new(cfg.initial_depth, &segs);
        Ok(Self::assemble(dev, alloc, cfg, dir, 0, n as u64))
    }

    /// The reserved area's layout: one seg-info record per possible
    /// chunk, then the fingerprint sidecar, starting on a cacheline so
    /// that no segment's four fp words straddle two lines.
    pub(crate) fn tables(alloc: &PmAllocator) -> (SegInfoTable, FpTable) {
        let l = alloc.layout();
        let (res_base, res_len) = alloc.reserved();
        let fp_base = (res_base.0 + l.n_chunks * 8).next_multiple_of(CACHELINE);
        (
            SegInfoTable::new(res_base, res_len, l.heap_start, l.n_chunks),
            FpTable::new(
                PmAddr(fp_base),
                res_base.0 + res_len - fp_base,
                l.heap_start,
                l.n_chunks,
            ),
        )
    }

    /// Put an index together around a formatted or recovered heap: the
    /// one place that sizes the overlay, builds the volatile state and
    /// spells the struct.
    pub(crate) fn assemble(
        dev: Arc<PmDevice>,
        alloc: Arc<PmAllocator>,
        cfg: SpashConfig,
        dir: Directory,
        entries: u64,
        n_segments: u64,
    ) -> Self {
        let (seginfo, fptable) = Self::tables(&alloc);
        // The overlay is only consulted under HTM: the lock modes keep
        // their seqlock/read-lock protocols untouched.
        let overlay_len = match cfg.concurrency {
            ConcurrencyMode::Htm => OVERLAY_ENTRIES,
            _ => 0,
        };
        Self {
            overlay: Overlay::new(overlay_len, alloc.layout().heap_start),
            hotness: PartitionedDetector::paper_default(),
            htm: Htm::new(cfg.htm.clone()),
            dev,
            alloc,
            dir,
            seginfo,
            fptable,
            entries: AtomicU64::new(entries),
            n_segments: AtomicU64::new(n_segments),
            seg_locks: (0..SEG_LOCK_TABLE)
                .map(|_| SegLock {
                    rw: VRwLock::new(()),
                    ver: AtomicU64::new(0),
                })
                .collect(),
            fallbacks: AtomicU64::new(0),
            cfg,
        }
    }

    /// Shared handles used internally and by diagnostics.
    pub fn device(&self) -> &Arc<PmDevice> {
        &self.dev
    }

    /// The allocator (examples may co-allocate their own blobs).
    pub fn allocator(&self) -> &Arc<PmAllocator> {
        &self.alloc
    }

    /// HTM commit/abort statistics.
    pub fn htm_stats(&self) -> spash_htm::HtmStats {
        self.htm.stats()
    }

    /// Operations that took the lock fallback path.
    pub fn fallback_count(&self) -> u64 {
        self.fallbacks.load(Ordering::Relaxed)
    }

    /// Stages completed collaboratively by non-doubling threads (§IV-B).
    pub fn dir_assist_count(&self) -> u64 {
        self.dir.assist_count.load(Ordering::Relaxed)
    }

    /// Times an operation needing a doubling stage found another thread
    /// mid-copy on it and waited (one count per scheduler-aware spin).
    pub fn dir_await_count(&self) -> u64 {
        self.dir.await_count.load(Ordering::Relaxed)
    }

    /// Issue the modelled prefetch of `addr`'s line (§III-D) and hint the
    /// host about both places the later access will miss in *its* memory:
    /// the arena word (inside [`MemCtx::prefetch`]) and the line's HTM
    /// slot. Every prefetch site goes through here, so the simulator's
    /// dependent DRAM misses overlap across a pipeline chunk exactly as
    /// the PM misses they model do.
    #[inline]
    pub(crate) fn prefetch(&self, ctx: &mut MemCtx, addr: PmAddr) {
        ctx.prefetch(addr);
        self.htm.host_prefetch(LineId::of_pm(addr));
    }

    /// Prefetch the two lines a probe of bucket `b` of `seg` reads first,
    /// its fp word and its bucket line, so that the two fetches share one
    /// miss window instead of serializing.
    pub(crate) fn prefetch_probe(&self, ctx: &mut MemCtx, seg: PmAddr, b: u8) {
        self.prefetch(ctx, self.fptable.word_addr(seg, b));
        self.prefetch(ctx, key_addr(seg, b * SLOTS_PER_BUCKET));
    }

    /// Step 1 for a request of hash `h`, taken once per request: a get
    /// asks the overlay first; a mutation, and a get the overlay misses,
    /// route through the directory.
    pub(crate) fn route(&self, ctx: &mut MemCtx, h: u64, get: bool) -> Route {
        if get {
            if let Some(hit) = self.overlay.lookup(ctx, h) {
                return Route::Overlay(hit);
            }
        }
        Route::Dir(self.dir.lookup(ctx, h))
    }

    /// A preparation's route: the request's own on the first one, a
    /// fresh directory lookup on every retry. A stale request route is
    /// caught by step 5's `dir.validate`, like any stale preparation.
    fn prep_route(&self, routed: &mut Option<Routed>, ctx: &mut MemCtx, h: u64) -> Routed {
        routed.take().unwrap_or_else(|| self.dir.lookup(ctx, h))
    }

    /// Live entries.
    pub fn len(&self) -> u64 {
        self.entries.load(Ordering::Relaxed)
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Allocated slot capacity (for the load factor, Fig 9).
    pub fn capacity(&self) -> u64 {
        self.n_segments.load(Ordering::Relaxed) * slot::SLOTS_PER_SEG as u64
    }

    /// Fingerprint- and overlay-blind reference lookup for the
    /// differential oracle battery (`tests/fingerprint_oracle.rs`):
    /// routes through the directory, then *linearly scans all 16 slots*
    /// of the segment — no fp-word filter, no hint chasing, no DRAM
    /// cache. Single-threaded use only (no transaction, no locks); the
    /// battery compares every real probe against this on quiesced state.
    pub fn oracle_scan_get(&self, ctx: &mut MemCtx, key: u64, out: &mut Vec<u8>) -> bool {
        let h = hash_key(key);
        let seg = self.dir.lookup(ctx, h).seg();
        for idx in 0..slot::SLOTS_PER_SEG {
            // lint:allow(fp-probe): the oracle is fp-blind by contract -- it is the reference the fp path is differenced against
            let kw = ctx.read_u64(key_addr(seg, idx));
            if Plain::ok(self.key_matches(&mut Plain, ctx, kw, key, h)) {
                let vw = ctx.read_u64(value_addr(seg, idx));
                Plain::ok(self.read_value(&mut Plain, ctx, Found { idx, kw, vw })).append_to(out);
                return true;
            }
        }
        false
    }

    pub(crate) fn seg_lock(&self, seg: PmAddr) -> &SegLock {
        let i = (seg.0 / slot::SEG_SIZE) as usize;
        &self.seg_locks[i % SEG_LOCK_TABLE]
    }

    // =====================================================================
    // preparation-phase helpers (no transactions)
    // =====================================================================

    /// Find a free slot for an insert (preparation): [`slot::place`]
    /// over `seg`'s PM buckets, each read as it is needed.
    pub(crate) fn find_placement(&self, ctx: &mut MemCtx, seg: PmAddr, h: u64) -> Placement {
        slot::place(bucket_of(h), |b| {
            Plain::ok(self.read_bucket(&mut Plain, ctx, seg, b))
        })
    }

    /// Build the insert payload: inline when possible, otherwise an
    /// out-of-place blob `[key][len][value]` written (write-nf) before the
    /// transaction — it is unreachable until the slot is linked, and under
    /// eADR everything visible is durable.
    pub(crate) fn make_payload(
        &self,
        ctx: &mut MemCtx,
        key: u64,
        value: &[u8],
    ) -> Result<Payload, IndexError> {
        if let Some(v) = slot::inline_payload(key, value) {
            return Ok(Payload::Inline(v));
        }
        let (a, alloc_size) = self.alloc_blob(ctx, key, value)?;
        Ok(Payload::Blob {
            addr: a.addr,
            val_len: value.len() as u64,
            alloc_size,
            flush_chunk: a.exhausted_chunk,
        })
    }

    pub(crate) fn free_payload(&self, ctx: &mut MemCtx, p: &Payload) {
        if let Payload::Blob {
            addr, alloc_size, ..
        } = p
        {
            self.alloc.free(ctx, *addr, *alloc_size);
        }
    }

    // =====================================================================
    // step 5: the region runner
    // =====================================================================

    /// Run one operation's step 5 under the configured concurrency
    /// control. `prep` is the preparation phase, re-run on every retry;
    /// the body validates `prep`'s snapshot, then processes the entry.
    /// The body is one function generic over [`Access`]; it is passed
    /// twice because a closure cannot be generic — `tx_body` is its
    /// [`Tx`] instantiation, `plain_body` its [`Plain`] one. A body must
    /// not `abort` after its first write: through `Plain` nothing rolls
    /// back.
    ///
    /// * `Htm` — the §IV-A protocol: explicit (validation) aborts restart
    ///   preparation immediately; conflict and capacity aborts retry up
    ///   to `max_tx_retries` times, then the body runs under the
    ///   non-transactional locks of every directory partition covering
    ///   the routed segment.
    /// * `WriteLock` / `WriteReadLock` — the Fig 12c ablations: the same
    ///   body under the routed segment's virtual-time lock. Writers take
    ///   it exclusively and bracket the body with seqlock version bumps;
    ///   lookups run seqlock-optimistic (Dash's protocol) or under the
    ///   shared lock (Level hashing's).
    // conc: region(htm) fn=run_step5
    pub(crate) fn run_step5<P, R>(
        &self,
        ctx: &mut MemCtx,
        rw: Rw,
        prep: impl FnMut(&Spash, &mut MemCtx) -> P,
        tx_body: impl FnMut(&Spash, &mut Tx<'_>, &mut MemCtx, &P) -> Result<R, Abort>,
        plain_body: impl FnMut(&Spash, &mut Plain, &mut MemCtx, &P) -> Result<R, Abort>,
        routed_of: impl Fn(&P) -> &Routed,
    ) -> R {
        match self.cfg.concurrency {
            ConcurrencyMode::Htm => self.htm_region(ctx, prep, tx_body, plain_body, routed_of),
            mode => {
                let optimistic = mode == ConcurrencyMode::WriteLock;
                self.lock_region(ctx, rw, optimistic, prep, plain_body, routed_of)
            }
        }
    }

    fn htm_region<P, R>(
        &self,
        ctx: &mut MemCtx,
        mut prep: impl FnMut(&Spash, &mut MemCtx) -> P,
        mut tx_body: impl FnMut(&Spash, &mut Tx<'_>, &mut MemCtx, &P) -> Result<R, Abort>,
        mut plain_body: impl FnMut(&Spash, &mut Plain, &mut MemCtx, &P) -> Result<R, Abort>,
        routed_of: impl Fn(&P) -> &Routed,
    ) -> R {
        let mut conflicts = 0;
        loop {
            let p = prep(self, ctx);
            match self
                .htm
                .try_transaction(ctx, |tx, ctx| tx_body(self, tx, ctx, &p))
            {
                Ok(r) => return r,
                Err(Abort::Explicit(_)) => continue,
                Err(a @ (Abort::Conflict(_) | Abort::Capacity)) => {
                    conflicts += 1;
                    if conflicts <= self.cfg.max_tx_retries {
                        // Wait for the conflicting owner in REAL time (no
                        // virtual charge beyond the abort penalty): the
                        // owner may be preempted on a host with fewer
                        // cores than simulated threads.
                        if let Abort::Conflict(slot) = a {
                            self.htm.wait_slot(slot);
                        } else {
                            spash_pmem::schedhook::spin_wait();
                        }
                        continue;
                    }
                    // Fallback: lock every directory partition covering
                    // the routed segment (ascending order, deadlock-free),
                    // which excludes every transaction that could touch
                    // the segment — they all read-guard one of these ids.
                    self.fallbacks.fetch_add(1, Ordering::Relaxed);
                    let ids = routed_of(&p).fallback_lock_ids();
                    let r = self.with_nontx_locks(ctx, &ids, |ctx| {
                        // Re-prepare under the locks; the routing must
                        // still be the one we locked.
                        let p2 = prep(self, ctx);
                        if routed_of(&p2).fallback_lock_ids() == ids {
                            plain_body(self, &mut Plain, ctx, &p2).ok()
                        } else {
                            None
                        }
                    });
                    match r {
                        Some(r) => return r,
                        None => conflicts = 0,
                    }
                }
            }
        }
    }

    /// Run `f` holding the non-transactional locks `ids` (the §IV-A
    /// fallback of an operation or a split): taken in ascending order, so
    /// two fallbacks cannot deadlock, and released in descending order.
    pub(crate) fn with_nontx_locks<R>(
        &self,
        ctx: &mut MemCtx,
        ids: &[LineId],
        f: impl FnOnce(&mut MemCtx) -> R,
    ) -> R {
        for &id in ids {
            self.htm.nontx_lock(ctx, id);
        }
        let r = f(ctx);
        for &id in ids.iter().rev() {
            self.htm.nontx_unlock(ctx, id);
        }
        r
    }

    fn lock_region<P, R>(
        &self,
        ctx: &mut MemCtx,
        rw: Rw,
        optimistic_reads: bool,
        mut prep: impl FnMut(&Spash, &mut MemCtx) -> P,
        mut plain_body: impl FnMut(&Spash, &mut Plain, &mut MemCtx, &P) -> Result<R, Abort>,
        routed_of: impl Fn(&P) -> &Routed,
    ) -> R {
        loop {
            let p = prep(self, ctx);
            let seg = routed_of(&p).seg();
            let lock = self.seg_lock(seg);
            let r = match rw {
                Rw::Write => self.exclude_lock_mode_ops(ctx, seg, |ctx| {
                    plain_body(self, &mut Plain, ctx, &p)
                }),
                Rw::Read if optimistic_reads => {
                    let v1 = lock.ver.load(Ordering::Acquire);
                    if v1 % 2 == 1 {
                        // Writer in progress: scheduler-aware wait.
                        spash_pmem::schedhook::spin_wait();
                        continue;
                    }
                    let r = plain_body(self, &mut Plain, ctx, &p);
                    if lock.ver.load(Ordering::Acquire) != v1 {
                        ctx.charge_compute(20); // retry penalty
                        continue;
                    }
                    r
                }
                Rw::Read => lock
                    .rw
                    .read(ctx, |ctx, _| plain_body(self, &mut Plain, ctx, &p)),
            };
            // `Err` = the body found the preparation snapshot stale (the
            // segment moved or the slot changed before the lock was
            // taken): prepare again.
            if let Ok(r) = r {
                return r;
            }
        }
    }

    /// Run `f` with the lock-mode ablations' other writers and readers
    /// of `seg` excluded: under its write lock, bracketed by seqlock
    /// version bumps. The lock-mode write region — and what `split` wraps
    /// around its own transaction or partition-locked install, because
    /// neither HTM guards nor partition locks stop plain lock-mode
    /// writers. Under `Htm` nothing else is needed and `f` runs bare.
    pub(crate) fn exclude_lock_mode_ops<R>(
        &self,
        ctx: &mut MemCtx,
        seg: PmAddr,
        f: impl FnOnce(&mut MemCtx) -> R,
    ) -> R {
        if self.cfg.concurrency == ConcurrencyMode::Htm {
            return f(ctx);
        }
        let lock = self.seg_lock(seg);
        lock.rw.write(ctx, |ctx, _| {
            lock.ver.fetch_add(1, Ordering::AcqRel); // seqlock: odd
            let r = f(ctx);
            lock.ver.fetch_add(1, Ordering::AcqRel); // even
            r
        })
    }

    // =====================================================================
    // step-5 bodies, generic over the access seam
    // =====================================================================

    /// Read bucket `b` of `seg`: steps 2–3 of the execution flow. The
    /// bucket is one cacheline, read as one access.
    pub(crate) fn read_bucket<A: Access>(
        &self,
        a: &mut A,
        ctx: &mut MemCtx,
        seg: PmAddr,
        b: u8,
    ) -> Result<BucketWords, Abort> {
        // lint:allow(fp-probe): shared bucket reader; probe callers pre-filter via the fp word (probe), mutation prep reads the line unconditionally
        let line = a.read_line(ctx, key_addr(seg, b * SLOTS_PER_BUCKET))?;
        Ok(std::array::from_fn(|i| (line[2 * i], line[2 * i + 1])))
    }

    /// Read slot `idx` of `seg` as `(key word, value word)`: one read of
    /// its bucket's line.
    fn read_slot<A: Access>(
        &self,
        a: &mut A,
        ctx: &mut MemCtx,
        seg: PmAddr,
        idx: u8,
    ) -> Result<(u64, u64), Abort> {
        Ok(self.read_bucket(a, ctx, seg, idx / SLOTS_PER_BUCKET)?[(idx % SLOTS_PER_BUCKET) as usize])
    }

    /// Read all 32 words of `seg` as its four bucket lines (split
    /// snapshot and validation, merge emptiness re-check, recovery).
    pub(crate) fn read_segment<A: Access>(
        a: &mut A,
        ctx: &mut MemCtx,
        seg: PmAddr,
    ) -> Result<[u64; 32], Abort> {
        let mut words = [0u64; 32];
        for (b, bucket) in words.chunks_exact_mut(8).enumerate() {
            // lint:allow(fp-probe): the whole-segment reader; every caller walks all 16 slots by design and carries its own waiver
            bucket.copy_from_slice(&a.read_line(ctx, key_addr(seg, b as u8 * SLOTS_PER_BUCKET))?);
        }
        Ok(words)
    }

    /// Does the key word match `key`? Dereferences the blob for pointer
    /// entries whose fingerprint matches (step 4).
    pub(crate) fn key_matches<A: Access>(
        &self,
        a: &mut A,
        ctx: &mut MemCtx,
        kw: u64,
        key: u64,
        h: u64,
    ) -> Result<bool, Abort> {
        Ok(match SlotKey::unpack(kw) {
            SlotKey::Empty => false,
            SlotKey::Inline { key: k, .. } => k == key && key <= MAX_INLINE_KEY,
            SlotKey::Ptr { addr, fp, .. } => fp == fp14(h) && a.read_u64(ctx, addr)? == key,
        })
    }

    /// The hash of the key a key word holds, reading the blob's key for
    /// pointer entries; `None` for an empty slot. The split snapshot
    /// needs the full hash, which routes by its top bits; recovery's
    /// rebuild rule reads [`SlotKey::rule_hash`], which reads nothing,
    /// and the integrity walker hashes the blob keys it read in bulk.
    pub(crate) fn hash_of_kw(ctx: &mut MemCtx, kw: u64) -> Option<u64> {
        match SlotKey::unpack(kw) {
            SlotKey::Empty => None,
            SlotKey::Inline { key, .. } => Some(hash_key(key)),
            SlotKey::Ptr { addr, .. } => Some(hash_key(ctx.read_u64(addr))),
        }
    }

    /// Locate `key` in `seg`. See [`Self::probe`].
    pub(crate) fn find<A: Access>(
        &self,
        a: &mut A,
        ctx: &mut MemCtx,
        seg: PmAddr,
        key: u64,
        h: u64,
    ) -> Result<Option<Found>, Abort> {
        Ok(self.probe(a, ctx, seg, key, h)?.0)
    }

    /// Fingerprint-first probe: the bucket's sidecar tag word is read
    /// before anything else, and only a tag match earns the bucket-line
    /// reads (§III-A plus the Dash-style 8-bit pre-filter). A key present
    /// in the segment is always visible in its main bucket's fp word — as
    /// a slot tag or, for overflow entries, a hint tag — so no tag match
    /// is a definitive miss. In a transaction the fp word joins the read
    /// set, and every mutation of the bucket writes it, so a probe that
    /// never touches a bucket line still conflicts with concurrent
    /// mutators — this is what keeps the duplicate-check coupling of
    /// inserts sound.
    ///
    /// Also returns the raw main-bucket state `(fp word, slot words)`
    /// when the bucket line was read (`None` = the fp word answered the
    /// probe alone) — the overlay installs from exactly this data.
    #[allow(clippy::type_complexity)]
    pub(crate) fn probe<A: Access>(
        &self,
        a: &mut A,
        ctx: &mut MemCtx,
        seg: PmAddr,
        key: u64,
        h: u64,
    ) -> Result<(Option<Found>, Option<(u64, BucketWords)>), Abort> {
        let b = bucket_of(h);
        let fpw = self.fptable.read(a, ctx, seg, b)?;
        let tag = fp8(h);
        let smask = fp_word::slot_candidates(fpw, tag);
        let hmask = fp_word::hint_candidates(fpw, tag);
        if smask == 0 && hmask == 0 {
            return Ok((None, None));
        }
        let words = self.read_bucket(a, ctx, seg, b)?;
        if let Some(f) = self.match_bucket(a, ctx, &words, smask, key, h)? {
            return Ok((Some(f), Some((fpw, words))));
        }
        // Overflow hints: the value words of the main bucket carry
        // [fp12|slot] hints for entries that circular probing pushed into
        // other buckets of the segment (same XPLine: cheap to chase). The
        // hint-tag half of the fp word pre-filters which hints can match.
        for (i, &(_, vw)) in words.iter().enumerate() {
            if hmask & (1 << i) == 0 {
                continue;
            }
            if let Some(tidx) = hint_matches(value_word::hint(vw), h) {
                if tidx / SLOTS_PER_BUCKET == b {
                    continue; // hints never point into the main bucket
                }
                let (kw, vw) = self.read_slot(a, ctx, seg, tidx)?;
                if self.key_matches(a, ctx, kw, key, h)? {
                    return Ok((Some(Found { idx: tidx, kw, vw }), Some((fpw, words))));
                }
            }
        }
        Ok((None, Some((fpw, words))))
    }

    /// The slot of `key`'s main-bucket image `words` that holds `key`,
    /// among the slot candidates `smask` (bit `j`: slot `j` of the
    /// bucket) that its fp word's tags leave: the PM probe and the
    /// overlay hit both match through here.
    fn match_bucket<A: Access>(
        &self,
        a: &mut A,
        ctx: &mut MemCtx,
        words: &BucketWords,
        smask: u8,
        key: u64,
        h: u64,
    ) -> Result<Option<Found>, Abort> {
        for (j, &(kw, vw)) in words.iter().enumerate() {
            if smask & (1 << j) != 0 && self.key_matches(a, ctx, kw, key, h)? {
                let idx = bucket_of(h) * SLOTS_PER_BUCKET + j as u8;
                return Ok(Some(Found { idx, kw, vw }));
            }
        }
        Ok(None)
    }

    /// Extract a found slot's value, guarding every blob line before the
    /// bulk copy.
    pub(crate) fn read_value<A: Access>(
        &self,
        a: &mut A,
        ctx: &mut MemCtx,
        f: Found,
    ) -> Result<GetResult, Abort> {
        match SlotKey::unpack(f.kw) {
            SlotKey::Inline { .. } => Ok(GetResult::Inline(value_word::payload(f.vw))),
            SlotKey::Ptr { addr, .. } => {
                let len = value_word::payload(f.vw) as usize;
                let mut buf = vec![0u8; len];
                let first = addr.0 + 16;
                if len > 0 {
                    for line in first / 64..=(first + len as u64 - 1) / 64 {
                        a.read_guard(LineId(line))?;
                    }
                }
                ctx.read_bytes(PmAddr(first), &mut buf);
                Ok(GetResult::Bytes(buf))
            }
            SlotKey::Empty => unreachable!("found slot cannot be empty"),
        }
    }

    /// `Ok(None)` = segment full (split required), `Some(false)` =
    /// duplicate, `Some(true)` = inserted.
    fn insert_apply<A: Access>(
        &self,
        a: &mut A,
        ctx: &mut MemCtx,
        p: &InsertPrep,
        e: &NewEntry,
    ) -> Result<Option<bool>, Abort> {
        let (h, seg) = (e.h, p.routed.seg());
        self.dir.validate(a, ctx, h, seg)?;
        // Re-check duplicates under the main-bucket guard: every insert
        // of this key must touch this line.
        if self.find(a, ctx, seg, e.key, h)?.is_some() {
            return Ok(Some(false));
        }
        if p.dup {
            // Prep saw it but it is gone now: retry prep to pick a
            // placement.
            return a.abort(AB_STATE_CHANGED);
        }
        match p.placement {
            Placement::Full => Ok(None),
            Placement::Main(idx) => {
                let (kw, vw) = self.read_slot(a, ctx, seg, idx)?;
                if !SlotKey::unpack(kw).is_empty() {
                    return a.abort(AB_STATE_CHANGED);
                }
                a.write_u64(
                    ctx,
                    value_addr(seg, idx),
                    value_word::with_payload(vw, e.payload),
                )?;
                a.write_u64(ctx, key_addr(seg, idx), e.kw)?;
                self.fptable.set_slot_tag(a, ctx, seg, idx, fp8(h))?;
                a.bump_overlay(ctx, &self.overlay, seg)?;
                Ok(Some(true))
            }
            Placement::Overflow { idx, hint_slot } => {
                let (kw, vw) = self.read_slot(a, ctx, seg, idx)?;
                if !SlotKey::unpack(kw).is_empty() {
                    return a.abort(AB_STATE_CHANGED);
                }
                let (_, hvw) = self.read_slot(a, ctx, seg, hint_slot)?;
                if value_word::hint(hvw) != 0 {
                    return a.abort(AB_STATE_CHANGED);
                }
                a.write_u64(
                    ctx,
                    value_addr(seg, idx),
                    value_word::with_payload(vw, e.payload),
                )?;
                a.write_u64(ctx, key_addr(seg, idx), e.kw)?;
                a.write_u64(
                    ctx,
                    value_addr(seg, hint_slot),
                    value_word::with_hint(hvw, make_hint(h, idx)),
                )?;
                // Overflow entries are visible in two fp words: their own
                // bucket's slot tag and the main bucket's hint tag.
                self.fptable.set_slot_tag(a, ctx, seg, idx, fp8(h))?;
                self.fptable.set_hint_tag(a, ctx, seg, hint_slot, fp8(h))?;
                a.bump_overlay(ctx, &self.overlay, seg)?;
                Ok(Some(true))
            }
        }
    }

    /// Probe and read the value. Also gathers what an overlay install
    /// needs, but only when the bucket line was read anyway: a pure
    /// fp-word negative stays a one-line probe, and negatives are not
    /// worth caching.
    fn get_apply<A: Access>(
        &self,
        a: &mut A,
        ctx: &mut MemCtx,
        routed: &Routed,
        key: u64,
        h: u64,
    ) -> Result<(Option<GetResult>, Option<Install>), Abort> {
        let seg = routed.seg();
        self.dir.validate(a, ctx, h, seg)?;
        let (found, raw) = self.probe(a, ctx, seg, key, h)?;
        let res = match found {
            None => None,
            Some(f) => Some(self.read_value(a, ctx, f)?),
        };
        let install = match raw {
            Some((fpw, words)) if self.overlay.enabled() => Some(Install {
                depth: routed.local_depth() as u32,
                seg,
                snap: self.overlay.snapshot(a, ctx, seg)?,
                fpw,
                words,
            }),
            _ => None,
        };
        Ok((res, install))
    }

    /// Returns the removed `(key word, value word)`.
    fn remove_apply<A: Access>(
        &self,
        a: &mut A,
        ctx: &mut MemCtx,
        routed: &Routed,
        key: u64,
        h: u64,
    ) -> Result<Option<(u64, u64)>, Abort> {
        let seg = routed.seg();
        self.dir.validate(a, ctx, h, seg)?;
        let (Some(f), main) = self.probe(a, ctx, seg, key, h)? else {
            return Ok(None);
        };
        // Clear the key word; the payload bits can stay (slot emptiness
        // is defined by the key word alone), but the bucket-owned hint
        // bits of this slot's value word must be preserved.
        a.write_u64(ctx, key_addr(seg, f.idx), 0)?;
        self.fptable.set_slot_tag(a, ctx, seg, f.idx, 0)?;
        // If the entry lived in an overflow bucket, drop its hint (and
        // hint tag) from the main bucket, whose image the probe read on
        // its way to the hint (the writes above touched neither).
        let b = bucket_of(h);
        if f.idx / SLOTS_PER_BUCKET != b {
            let (_, words) = main.expect("a hint chase reads the main bucket");
            let target_hint = make_hint(h, f.idx);
            for (s_i, &(_, vw)) in bucket_slots(b).zip(&words) {
                if value_word::hint(vw) == target_hint {
                    a.write_u64(ctx, value_addr(seg, s_i), value_word::with_hint(vw, 0))?;
                    self.fptable.set_hint_tag(a, ctx, seg, s_i, 0)?;
                    break;
                }
            }
        }
        a.bump_overlay(ctx, &self.overlay, seg)?;
        Ok(Some((f.kw, f.vw)))
    }

    /// Validate the update's plan against the slot and rewrite it. On
    /// success, returns what the post-commit step flushes and frees;
    /// `None`: the key is absent.
    fn update_apply<A: Access>(
        &self,
        a: &mut A,
        ctx: &mut MemCtx,
        p: &UpdatePrep,
        v: &NewValue<'_>,
    ) -> Result<Result<Option<Updated>, IndexError>, Abort> {
        let plan = match &p.plan {
            Err(e) => return Ok(Err(*e)),
            Ok(plan) => plan,
        };
        let seg = p.routed.seg();
        self.dir.validate(a, ctx, v.h, seg)?;
        let Some(f) = self.find(a, ctx, seg, v.key, v.h)? else {
            return Ok(Ok(None));
        };
        let plan = match plan {
            Some(plan) if plan.idx == f.idx && plan.kw == f.kw => plan,
            // Prep missed but it exists now, or the slot moved: restart
            // preparation.
            _ => return a.abort(AB_STATE_CHANGED),
        };
        // Updates never touch fp tags (fp8, like fp14, depends only on
        // the key hash), but any slot-word write must invalidate overlay
        // entries caching this segment.
        Ok(Ok(Some(match plan.kind {
            UpdateKind::Slot { kw, payload, flush } => {
                // The key word changes with the representation or the
                // blob; both words are rewritten in one step 5.
                if kw != f.kw {
                    a.write_u64(ctx, key_addr(seg, f.idx), kw)?;
                }
                a.write_u64(
                    ctx,
                    value_addr(seg, f.idx),
                    value_word::with_payload(f.vw, payload),
                )?;
                a.bump_overlay(ctx, &self.overlay, seg)?;
                Updated {
                    flush,
                    free: self.blob_of(f.kw, f.vw),
                }
            }
            UpdateKind::InPlaceBlob { addr, spare } => {
                // Rewrite the value bytes in place, word by word
                // (undo-logged in a transaction, so the update is atomic
                // there).
                let value = v.bytes;
                let mut off = 0usize;
                while off < value.len() {
                    let mut w = [0u8; 8];
                    let n = (value.len() - off).min(8);
                    w[..n].copy_from_slice(&value[off..off + n]);
                    a.write_u64(
                        ctx,
                        PmAddr(addr.0 + 16 + off as u64),
                        u64::from_le_bytes(w),
                    )?;
                    off += 8;
                }
                if value_word::payload(f.vw) != value.len() as u64 {
                    a.write_u64(
                        ctx,
                        value_addr(seg, f.idx),
                        value_word::with_payload(f.vw, value.len() as u64),
                    )?;
                    // The cached value word went stale (possible only
                    // under Scattered size classes). Pure in-place byte
                    // rewrites need no bump: blob bytes are never cached,
                    // and overlay readers guard the blob lines themselves.
                    a.bump_overlay(ctx, &self.overlay, seg)?;
                }
                Updated {
                    flush: (addr, 16 + value.len() as u64),
                    free: spare,
                }
            }
        })))
    }

    // =====================================================================
    // base operations
    // =====================================================================

    /// Insert `key` (hash `h`). `routed` is the request's route, used
    /// by the first preparation only; `None` routes there.
    pub(crate) fn insert_op(
        &self,
        ctx: &mut MemCtx,
        key: u64,
        h: u64,
        mut routed: Option<Routed>,
        value: &[u8],
    ) -> Result<(), IndexError> {
        let payload = self.make_payload(ctx, key, value)?;
        let (kw, payload_word) = match payload {
            Payload::Inline(v) => (SlotKey::Inline { key, fp: fp14(h) }.pack(), v),
            Payload::Blob { addr, val_len, .. } => (SlotKey::ptr(addr, h).pack(), val_len),
        };
        let e = NewEntry {
            key,
            h,
            kw,
            payload: payload_word,
        };

        let out: Result<bool, IndexError> = loop {
            let r = self.run_step5(
                ctx,
                Rw::Write,
                |s, ctx| {
                    let routed = s.prep_route(&mut routed, ctx, h);
                    let seg = routed.seg();
                    let dup = Plain::ok(s.find(&mut Plain, ctx, seg, key, h)).is_some();
                    let placement = if dup {
                        Placement::Full // unused
                    } else {
                        s.find_placement(ctx, seg, h)
                    };
                    InsertPrep {
                        routed,
                        dup,
                        placement,
                    }
                },
                |s, tx, ctx, p| s.insert_apply(tx, ctx, p, &e),
                |s, plain, ctx, p| s.insert_apply(plain, ctx, p, &e),
                |p| &p.routed,
            );
            match r {
                Some(ok) => break Ok(ok),
                // Segment full: split and retry.
                None => {
                    if let Err(e) = self.split(ctx, h) {
                        break Err(e);
                    }
                }
            }
        };

        match out {
            Ok(true) => {
                self.entries.fetch_add(1, Ordering::Relaxed);
                // Compacted-flush: the chunk this blob filled is flushed
                // asynchronously, in XPLine granularity (§III-C).
                if let Payload::Blob {
                    flush_chunk: Some(c),
                    ..
                } = payload
                {
                    if self.cfg.insert_policy == InsertPolicy::CompactedFlush {
                        ctx.flush_range(c, spash_alloc::CHUNK);
                    }
                }
                Ok(())
            }
            Ok(false) => {
                self.free_payload(ctx, &payload);
                Err(IndexError::DuplicateKey)
            }
            Err(e) => {
                self.free_payload(ctx, &payload);
                Err(e)
            }
        }
    }

    /// Look `key` (hash `h`) up from its route. An overlay route is
    /// validated in a short transaction; a stale or inconclusive one
    /// falls to the PM probe, which routes through the directory.
    pub(crate) fn get_op(
        &self,
        ctx: &mut MemCtx,
        key: u64,
        h: u64,
        route: Route,
        out: &mut Vec<u8>,
    ) -> bool {
        let mut routed = match route {
            Route::Dir(routed) => Some(routed),
            // DRAM overlay fast path: a route-matched entry, validated
            // against the segment generations inside a short transaction,
            // answers the probe without touching a PM bucket line (blob
            // payloads still read PM, read-guarded as usual). Any stale or
            // inconclusive outcome falls through to the PM probe below.
            Route::Overlay(hit) => {
                match self
                    .htm
                    .try_transaction(ctx, |tx, ctx| self.get_from_overlay(tx, ctx, &hit, key, h))
                {
                    Ok(OverlayProbe::Found(v)) => {
                        v.append_to(out);
                        return true;
                    }
                    Ok(OverlayProbe::Miss) => return false,
                    // Stale entry, overflow-hint chase, or any abort: take
                    // the PM path (no retry loop here — the slow path is
                    // the retry). Prefetch the lines that probe will need
                    // from the cached route so the fp-word and bucket
                    // fetches overlap instead of serializing; a stale
                    // `seg` only wastes the fetch.
                    Ok(OverlayProbe::Fall) | Err(_) => {
                        self.prefetch_probe(ctx, hit.seg, bucket_of(h));
                        None
                    }
                }
            }
        };
        let (r, install) = self.run_step5(
            ctx,
            Rw::Read,
            |s, ctx| s.prep_route(&mut routed, ctx, h),
            |s, tx, ctx, routed| s.get_apply(tx, ctx, routed, key, h),
            |s, plain, ctx, routed| s.get_apply(plain, ctx, routed, key, h),
            |routed| routed,
        );
        if let Some(i) = install {
            self.overlay
                .install(ctx, h, i.depth, i.seg, i.snap, i.fpw, i.words);
        }
        match r {
            None => false,
            Some(v) => {
                v.append_to(out);
                true
            }
        }
    }

    /// Serve a lookup from a validated overlay entry. All slot filtering
    /// goes through the *cached* fp tags (never a raw slot scan), so the
    /// wrong-tag canary stays observable on this path too.
    fn get_from_overlay(
        &self,
        tx: &mut Tx<'_>,
        ctx: &mut MemCtx,
        hit: &CachedBucket,
        key: u64,
        h: u64,
    ) -> Result<OverlayProbe, Abort> {
        if !self.overlay.tx_validate(tx, ctx, hit)? {
            return Ok(OverlayProbe::Fall);
        }
        let tag = fp8(h);
        let smask = fp_word::slot_candidates(hit.fpw, tag);
        if let Some(f) = self.match_bucket(tx, ctx, &hit.words, smask, key, h)? {
            return Ok(OverlayProbe::Found(self.read_value(tx, ctx, f)?));
        }
        if fp_word::hint_candidates(hit.fpw, tag) != 0 {
            // A hint tag matches but overflow slots are not cached; the
            // PM probe chases it.
            return Ok(OverlayProbe::Fall);
        }
        Ok(OverlayProbe::Miss)
    }

    /// Remove `key` (hash `h`), then try to merge its segment away.
    /// `routed` as for [`Self::insert_op`].
    pub(crate) fn remove_op(
        &self,
        ctx: &mut MemCtx,
        key: u64,
        h: u64,
        mut routed: Option<Routed>,
    ) -> bool {
        let removed = self.run_step5(
            ctx,
            Rw::Write,
            |s, ctx| s.prep_route(&mut routed, ctx, h),
            |s, tx, ctx, routed| s.remove_apply(tx, ctx, routed, key, h),
            |s, plain, ctx, routed| s.remove_apply(plain, ctx, routed, key, h),
            |routed| routed,
        );
        match removed {
            None => false,
            Some((kw, vw)) => {
                self.entries.fetch_sub(1, Ordering::Relaxed);
                if let Some((addr, size)) = self.blob_of(kw, vw) {
                    self.alloc.free(ctx, addr, size);
                }
                if self.cfg.concurrency == ConcurrencyMode::Htm {
                    // Merging is transactional; in the lock-mode ablations
                    // it would race plain lock-holding writers, so it
                    // stays off.
                    self.try_merge(ctx, h);
                }
                true
            }
        }
    }

    pub(crate) fn blob_alloc_size(&self, blob_len: u64) -> u64 {
        match self.cfg.insert_policy {
            // Scattered: defeat compaction by placing every small blob in
            // its own XPLine (conventional out-of-place insertion).
            InsertPolicy::Scattered if blob_len <= 128 => 256,
            _ => blob_len,
        }
    }

    /// The out-of-place blob a slot's words reference, with its
    /// allocation size; `None` for an inline (or empty) slot.
    fn blob_of(&self, kw: u64, vw: u64) -> Option<(PmAddr, u64)> {
        match SlotKey::unpack(kw) {
            SlotKey::Ptr { addr, .. } => {
                Some((addr, self.blob_alloc_size(16 + value_word::payload(vw))))
            }
            _ => None,
        }
    }

    /// Allocate and write the blob of `key`'s out-of-place `value`; also
    /// returns its allocation size.
    fn alloc_blob(
        &self,
        ctx: &mut MemCtx,
        key: u64,
        value: &[u8],
    ) -> Result<(spash_alloc::SmallAlloc, u64), IndexError> {
        let size = self.blob_alloc_size(16 + value.len() as u64);
        let a = self
            .alloc
            .alloc(ctx, size)
            .map_err(|_| IndexError::OutOfMemory)?;
        write_blob(ctx, a.addr, key, value);
        Ok((a, size))
    }

    /// Update `key` (hash `h`). `routed` as for [`Self::insert_op`].
    pub(crate) fn update_op(
        &self,
        ctx: &mut MemCtx,
        key: u64,
        h: u64,
        mut routed: Option<Routed>,
        value: &[u8],
    ) -> Result<(), IndexError> {
        // Adaptive policy decision (Table I): hot → no flush; cold ≤64 B →
        // no flush; cold >64 B → async flush after commit.
        let flush_after = match &self.cfg.update_policy {
            UpdatePolicy::Adaptive => !self.hotness.access(ctx, h) && value.len() > 64,
            UpdatePolicy::Oracle(hot) => !hot.contains(&h) && value.len() > 64,
            UpdatePolicy::AlwaysFlush => true,
            UpdatePolicy::NeverFlush => false,
        };

        let v = NewValue {
            key,
            h,
            bytes: value,
            inline: slot::inline_payload(key, value),
        };

        // A replacement blob is allocated lazily, at most once, and
        // reused across retries.
        let mut spare: Option<(PmAddr, u64)> = None;

        let result = self.run_step5(
            ctx,
            Rw::Write,
            |s, ctx| {
                let routed = s.prep_route(&mut routed, ctx, h);
                let seg = routed.seg();
                let plan = match Plain::ok(s.find(&mut Plain, ctx, seg, key, h)) {
                    None => Ok(None),
                    Some(f) => s.plan_update(ctx, seg, f, &v, &mut spare).map(Some),
                };
                UpdatePrep { routed, plan }
            },
            |s, tx, ctx, p| s.update_apply(tx, ctx, p, &v),
            |s, plain, ctx, p| s.update_apply(plain, ctx, p, &v),
            |p| &p.routed,
        );

        // Post-commit adaptive flush (§III-B): asynchronous clwb, no
        // fence — eADR needs none for durability; the flush exists purely
        // to schedule tidy XPLine writebacks.
        let Some(done) = result? else {
            if let Some((addr, size)) = spare {
                self.alloc.free(ctx, addr, size);
            }
            return Err(IndexError::NotFound);
        };
        if flush_after {
            ctx.flush_range(done.flush.0, done.flush.1);
        }
        if let Some((addr, size)) = done.free {
            self.alloc.free(ctx, addr, size);
        }
        Ok(())
    }

    /// Plan an update of the found slot `f` of `seg`. An inline value
    /// rewrites the slot's words; a blob value of the old blob's size
    /// rewrites the blob's bytes; any other blob value is written to the
    /// spare, which the slot then links. The in-place plan carries the
    /// spare an earlier attempt allocated, so that it is freed.
    fn plan_update(
        &self,
        ctx: &mut MemCtx,
        seg: PmAddr,
        f: Found,
        v: &NewValue<'_>,
        spare: &mut Option<(PmAddr, u64)>,
    ) -> Result<UpdatePlan, IndexError> {
        let len = v.bytes.len() as u64;
        let kind = match (v.inline, self.blob_of(f.kw, f.vw)) {
            (Some(payload), _) => UpdateKind::Slot {
                kw: SlotKey::Inline {
                    key: v.key,
                    fp: fp14(v.h),
                }
                .pack(),
                payload,
                flush: (value_addr(seg, f.idx), 8),
            },
            (None, Some((addr, size))) if size == self.blob_alloc_size(16 + len) => {
                UpdateKind::InPlaceBlob {
                    addr,
                    spare: *spare,
                }
            }
            (None, _) => {
                let new = match *spare {
                    Some((addr, _)) => addr,
                    None => {
                        let (a, size) = self.alloc_blob(ctx, v.key, v.bytes)?;
                        *spare = Some((a.addr, size));
                        a.addr
                    }
                };
                UpdateKind::Slot {
                    kw: SlotKey::ptr(new, v.h).pack(),
                    payload: len,
                    flush: (new, 16 + len),
                }
            }
        };
        Ok(UpdatePlan {
            idx: f.idx,
            kw: f.kw,
            kind,
        })
    }
}
/// Write an out-of-place blob `[key][len][value]` at `addr` (write-nf),
/// before any slot word links it: the insert payload and an update's
/// replacement blob both go through here. Under eADR (the paper's
/// platform) visibility is durability, so nothing is flushed or fenced;
/// on an ADR platform this leaves the blob volatile, which is why Spash
/// under ADR is a negative control (`CheckLevel::for_target`).
fn write_blob(ctx: &mut MemCtx, addr: PmAddr, key: u64, value: &[u8]) {
    ctx.write_u64(addr, key);
    ctx.write_u64(PmAddr(addr.0 + 8), value.len() as u64);
    ctx.write_bytes(PmAddr(addr.0 + 16), value);
}

/// A value extracted by a lookup.
pub(crate) enum GetResult {
    Inline(u64),
    Bytes(Vec<u8>),
}

/// Outcome of probing a validated overlay entry.
enum OverlayProbe {
    Found(GetResult),
    /// Definitive miss: no cached slot or hint tag matched.
    Miss,
    /// Inconclusive (stale entry or overflow-hint chase): use the PM
    /// probe.
    Fall,
}

impl GetResult {
    pub(crate) fn append_to(&self, out: &mut Vec<u8>) {
        match self {
            GetResult::Inline(v) => out.extend_from_slice(&v.to_le_bytes()[..INLINE_VALUE_LEN]),
            GetResult::Bytes(b) => out.extend_from_slice(b),
        }
    }
}

/// A request's route (step 1): the overlay entry a get's route matched,
/// still unvalidated, or its directory entry.
pub(crate) enum Route {
    Overlay(CachedBucket),
    Dir(Routed),
}

impl Route {
    /// The directory route a mutation's first preparation takes; `None`
    /// for an overlay route (stage 1 gives mutations none).
    pub(crate) fn dir(self) -> Option<Routed> {
        match self {
            Route::Dir(routed) => Some(routed),
            Route::Overlay(_) => None,
        }
    }
}

/// Whether an operation's step 5 mutates the segment. Only the
/// lock-mode ablations care: lookups there skip the write lock.
#[derive(Clone, Copy)]
pub(crate) enum Rw {
    Read,
    Write,
}

/// Insert preparation: the route plus what step 5 re-validates.
struct InsertPrep {
    routed: Routed,
    dup: bool,
    placement: Placement,
}

/// The slot words an insert will publish.
struct NewEntry {
    key: u64,
    h: u64,
    kw: u64,
    payload: u64,
}

/// What a PM probe gathered for [`Overlay::install`].
struct Install {
    depth: u32,
    seg: PmAddr,
    snap: (u64, u64),
    fpw: u64,
    words: BucketWords,
}

/// Update preparation. An `Err` plan (allocation failure) is carried
/// through step 5 so the runner stays infallible.
struct UpdatePrep {
    routed: Routed,
    plan: Result<Option<UpdatePlan>, IndexError>,
}

/// The value an update will store; `inline` is its inline payload when
/// it fits a slot.
struct NewValue<'v> {
    key: u64,
    h: u64,
    bytes: &'v [u8],
    inline: Option<u64>,
}

/// What an update's step 5 did, for the post-commit step: the range the
/// adaptive policy flushes, and the blob that no slot references any
/// more (the old one, or an unused spare).
struct Updated {
    flush: (PmAddr, u64),
    free: Option<(PmAddr, u64)>,
}

struct UpdatePlan {
    idx: u8,
    kw: u64,
    kind: UpdateKind,
}

enum UpdateKind {
    /// Rewrite the slot: its key word when `kw` differs, then its value
    /// word's payload.
    Slot {
        kw: u64,
        payload: u64,
        flush: (PmAddr, u64),
    },
    /// Rewrite the value bytes of the slot's blob at `addr`.
    InPlaceBlob {
        addr: PmAddr,
        spare: Option<(PmAddr, u64)>,
    },
}

/// An inline value is six bytes: the payload [`slot::inline_payload`]
/// packs and [`GetResult::append_to`] unpacks.
#[cfg(test)]
mod invariants {
    #[test]
    fn inline_len_is_six() {
        assert_eq!(super::INLINE_VALUE_LEN, 6);
    }
}
