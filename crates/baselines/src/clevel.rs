//! CLevel — lock-free concurrent level hashing (Chen et al., ATC'20), as
//! characterized by the Spash paper (§VI):
//!
//! * slots are 8-byte CAS-able words holding pointers to out-of-place
//!   `[key][len][value]` items — **every** key-value, however small, costs
//!   a pointer dereference ("the performance of CLevel is still impeded by
//!   excessive PM reads and writes");
//! * **out-of-place updates for all entries**, so hot updates cannot be
//!   absorbed by the CPU cache (Fig 10's write-intensive gap);
//! * lock-free inserts/updates/deletes via CAS, growth by prepending a
//!   double-sized level and cooperatively migrating the oldest level.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use spash_pmem::sync::RwLock;
use spash_alloc::PmAllocator;
use spash_index_api::crashpoint::{CrashTarget, Recovered};
use spash_index_api::{hash_key, IndexError, PersistentIndex};
use spash_pmem::canary::{self, Canary};
use spash_pmem::{MemCtx, PmAddr};

use crate::common;

const BUCKET_BYTES: u64 = 64;
const SLOTS: u64 = 8;
/// Migration freeze bit: a frozen slot is being moved; readers may follow
/// the pointer, writers must wait for the copy in the newest level.
const FROZEN: u64 = 1 << 62;
const ADDR_MASK: u64 = (1 << 48) - 1;
/// An 8-bit key tag kept in the free pointer bits (48..56). CLevel's
/// lookups deliberately do NOT use it as a filter (the original has no
/// fingerprints — its pointer chases are the PM-read cost the paper
/// measures); it only disambiguates words for the migration CAS protocol.
const TAG_SHIFT: u32 = 48;

#[inline]
fn tag_of_key(key: u64) -> u64 {
    (hash_key(key) >> 24) & 0xff
}
const HASH_SALT: u64 = 0xc2b2_ae3d_27d4_eb4f;
/// Buckets each insert helps migrate from the oldest level.
const MIGRATE_STEP: u64 = 2;
/// Root-block magic ("CLvl" append-only layout, v1).
const MAGIC: u64 = 0x434c_766c_4c6f_6731;
/// Reserved root: `[magic][first_live][n_levels][log_base][log_len]`, then
/// a birth-ordered, append-only array of level descriptors
/// `[addr][n_buckets]` starting at +64. Levels are only ever appended
/// (grow) or dropped from the front (retire bumps `first_live`), so both
/// transitions commit with one atomic word.
const ROOT_LEN: u64 = 4096;
const MAX_LEVELS: u64 = (ROOT_LEN - 64) / 16;

struct LevelArr {
    addr: PmAddr,
    n_buckets: u64,
    /// Next bucket to migrate (levels drain oldest-first).
    cursor: AtomicU64,
    /// Buckets whose migration has fully completed.
    done: AtomicU64,
}

impl LevelArr {
    fn bucket(&self, i: u64) -> PmAddr {
        PmAddr(self.addr.0 + (i % self.n_buckets) * BUCKET_BYTES)
    }

    fn slot(&self, b: u64, s: u64) -> PmAddr {
        PmAddr(self.bucket(b).0 + s * 8)
    }
}

/// The CLevel baseline.
pub struct CLevel {
    alloc: Arc<PmAllocator>,
    /// Newest level first.
    levels: RwLock<Vec<Arc<LevelArr>>>,
    entries: AtomicU64,
    /// Bumped on every grow/pop; a failed lookup only counts as a miss if
    /// the level list was stable across the whole scan (otherwise
    /// migration may have moved the key into a level the scan's snapshot
    /// did not contain).
    structure_gen: AtomicU64,
    /// Append-only item log: CLevel allocates every key-value item at a
    /// fresh location (its persistent allocator hands out new space), so
    /// hot updates can never be absorbed by the CPU cache — the exact
    /// behaviour the paper contrasts with Spash's in-place updates.
    log_base: PmAddr,
    log_len: u64,
    log_head: AtomicU64,
    /// Root block in the allocator's reserved region (0 when the heap was
    /// formatted without room for one — recovery is unavailable then).
    root: PmAddr,
    /// Persistent level-array mirrors (birth-ordered indexes).
    pm_first_live: AtomicU64,
    pm_n_levels: AtomicU64,
}

impl CLevel {
    pub fn new(ctx: &mut MemCtx, alloc: Arc<PmAllocator>, pow: u32) -> Result<Self, IndexError> {
        let lvl = Self::alloc_level(ctx, &alloc, 1 << pow)?;
        let log_len = ctx.device().arena().size() / 2;
        let log_base = alloc
            // lint:allow(flow-flush-fence): format-time allocator header CAS; alloc_level's zero-fill is fenced below before the root magic publishes the table. san=none(region unreachable until root magic is flushed+fenced)
            .alloc_region(ctx, log_len)
            .map_err(|_| IndexError::OutOfMemory)?;
        // Publish the root last (magic after everything it governs).
        let (r, r_len) = alloc.reserved();
        let root = if r_len >= ROOT_LEN { r } else { PmAddr(0) };
        if root.0 != 0 {
            ctx.write_u64(PmAddr(root.0 + 8), 0); // first_live
            ctx.write_u64(PmAddr(root.0 + 16), 1); // n_levels
            ctx.write_u64(PmAddr(root.0 + 24), log_base.0);
            ctx.write_u64(PmAddr(root.0 + 32), log_len);
            ctx.write_u64(PmAddr(root.0 + 64), lvl.addr.0);
            ctx.write_u64(PmAddr(root.0 + 72), lvl.n_buckets);
            ctx.flush_range(PmAddr(root.0 + 8), 80);
            ctx.fence();
            ctx.write_u64(root, MAGIC);
            ctx.flush(root);
            ctx.fence();
        }
        Ok(Self {
            alloc,
            levels: RwLock::new(vec![lvl]),
            entries: AtomicU64::new(0),
            structure_gen: AtomicU64::new(0),
            log_base,
            log_len,
            log_head: AtomicU64::new(0),
            root,
            pm_first_live: AtomicU64::new(0),
            pm_n_levels: AtomicU64::new(1),
        })
    }

    /// Append an `[key][len][value]` item at a fresh log position.
    ///
    /// The key word is persisted LAST: recovery's log scan treats a zero
    /// key as end-of-log, so a torn item stays invisible.
    fn append_item(&self, ctx: &mut MemCtx, key: u64, value: &[u8]) -> Result<PmAddr, IndexError> {
        let need = (16 + value.len() as u64).div_ceil(16) * 16;
        let off = self.log_head.fetch_add(need, Ordering::Relaxed);
        if off + need > self.log_len {
            return Err(IndexError::OutOfMemory);
        }
        let a = PmAddr(self.log_base.0 + off);
        ctx.write_u64(PmAddr(a.0 + 8), value.len() as u64);
        ctx.write_bytes(PmAddr(a.0 + 16), value);
        ctx.flush_range(PmAddr(a.0 + 8), 8 + value.len() as u64);
        ctx.fence();
        ctx.write_u64(a, key);
        ctx.flush(a);
        ctx.fence();
        Ok(a)
    }

    pub fn format(ctx: &mut MemCtx, pow: u32) -> Result<Self, IndexError> {
        let alloc = Arc::new(PmAllocator::format(ctx, ROOT_LEN));
        Self::new(ctx, alloc, pow)
    }

    fn alloc_level(
        ctx: &mut MemCtx,
        alloc: &PmAllocator,
        n_buckets: u64,
    ) -> Result<Arc<LevelArr>, IndexError> {
        let addr = alloc
            .alloc_region(ctx, n_buckets * BUCKET_BYTES)
            .map_err(|_| IndexError::OutOfMemory)?;
        let zeros = [0u8; 256];
        let len = n_buckets * BUCKET_BYTES;
        let mut off = 0;
        while off < len {
            let n = 256.min(len - off) as usize;
            ctx.ntstore_bytes(PmAddr(addr.0 + off), &zeros[..n]);
            off += n as u64;
        }
        Ok(Arc::new(LevelArr {
            addr,
            n_buckets,
            cursor: AtomicU64::new(0),
            done: AtomicU64::new(0),
        }))
    }

    #[inline]
    fn hashes(key: u64) -> (u64, u64) {
        (hash_key(key), hash_key(key ^ HASH_SALT))
    }

    fn snapshot(&self) -> Vec<Arc<LevelArr>> {
        self.levels.read().clone()
    }

    /// Find `key`, dereferencing every occupied slot of the candidate
    /// buckets — CLevel items carry no fingerprints, so each lookup pays
    /// the pointer chases the paper measures ("impeded by excessive PM
    /// reads"). Returns (slot address, raw slot word — which may carry the
    /// FROZEN bit).
    ///
    /// Levels are scanned OLDEST first: migration moves items old-to-new
    /// and keeps the old copy visible (frozen) until the new one is
    /// placed, so an old-first scan can never miss a key mid-migration.
    /// (Keys are unique across levels, so scan order does not affect
    /// freshness.)
    /// Busy-wait on migration progress — but yield to the migrating peer
    /// only if the table structure hasn't advanced past `gen`. If a
    /// grow/retire already landed, the condition we would spin on may
    /// already be gone, so retry immediately instead: a blocking yield
    /// emitted after the migrator exited reads as a deadlock under the
    /// cooperative scheduler (`SyncEvent::SpinWait` promises another task
    /// must run for this one to progress).
    fn backoff_on_migration(&self, gen: u64) {
        if self.structure_gen.load(Ordering::Acquire) == gen {
            spash_pmem::schedhook::spin_wait();
        }
    }

    fn find(&self, ctx: &mut MemCtx, key: u64) -> Option<(PmAddr, u64)> {
        let (h1, h2) = Self::hashes(key);
        loop {
            let g1 = self.structure_gen.load(Ordering::Acquire);
            for lvl in self.snapshot().iter().rev() {
                for h in [h1, h2] {
                    let b = h % lvl.n_buckets;
                    for s in 0..SLOTS {
                        let w = ctx.read_u64(lvl.slot(b, s));
                        if w & ADDR_MASK != 0
                            && ctx.read_u64(PmAddr(w & ADDR_MASK)) == key
                        {
                            return Some((lvl.slot(b, s), w));
                        }
                    }
                }
            }
            // A miss is authoritative only if no level was added or
            // retired while we scanned; otherwise migration may have
            // carried the key into a level our snapshot lacked.
            if self.structure_gen.load(Ordering::Acquire) == g1 {
                return None;
            }
            ctx.charge_compute(20);
        }
    }

    /// CAS a tagged item word into a free slot of the newest level.
    ///
    /// The snapshot's "newest" may already be stale — concurrent grows can
    /// have prepended fresher levels and migration may already be draining
    /// the one we placed into. If the drain cursor has passed our bucket,
    /// the migrator will never see the item and the level could be retired
    /// with it inside; take the item back and retry against a fresher
    /// snapshot.
    fn try_place(&self, ctx: &mut MemCtx, word: u64, key: u64) -> bool {
        let (h1, h2) = Self::hashes(key);
        let mut word = word & !FROZEN;
        loop {
            let gen = self.structure_gen.load(Ordering::Acquire);
            let levels = self.snapshot();
            let newest = &levels[0];
            let mut placed: Option<(PmAddr, u64)> = None;
            'outer: for h in [h1, h2] {
                let b = h % newest.n_buckets;
                for s in 0..SLOTS {
                    let sa = newest.slot(b, s);
                    if ctx.read_u64(sa) == 0 && ctx.cas_u64(sa, 0, word).is_ok() {
                        // The publication flush and fence (the sanitizer canaries skip them).
                        if !canary::armed(Canary::SkipInsertFlush) {
                            ctx.flush(sa);
                        }
                        if !canary::armed(Canary::SkipInsertFence) {
                            ctx.fence();
                        }
                        placed = Some((sa, b));
                        break 'outer;
                    }
                }
            }
            let (sa, b) = match placed {
                None => return false,
                Some(p) => p,
            };
            if newest.cursor.load(Ordering::Acquire) <= b {
                return true; // a future drain pass will see the item
            }
            // The bucket was already claimed by a drainer, which may have
            // scanned past our slot: take the item back and retry on a
            // fresher snapshot. Three outcomes per attempt:
            //   * retract succeeds           → re-place (possibly a value
            //     a concurrent update swapped in — carry it forward);
            //   * slot is 0 or FROZEN        → a drainer owns the item and
            //     re-places it itself;
            //   * slot holds an updated word → retract *that* word.
            loop {
                match ctx.cas_u64(sa, word, 0) {
                    Ok(_) => {
                        ctx.flush(sa);
                        ctx.fence();
                        self.backoff_on_migration(gen);
                        break; // retry outer placement with `word`
                    }
                    Err(actual) => {
                        if actual & ADDR_MASK == 0 || actual & FROZEN != 0 {
                            return true;
                        }
                        // A concurrent update replaced the value in place;
                        // the new word is now ours to rescue.
                        word = actual;
                    }
                }
            }
        }
    }

    /// Prepend a level twice the size of the newest. `expected_newest`
    /// guards against concurrent growers stacking levels.
    fn grow(&self, ctx: &mut MemCtx, expected_newest: u64) -> Result<(), IndexError> {
        ctx.stats_span(spash_pmem::SPAN_COMPACTION, |ctx| {
            self.grow_impl(ctx, expected_newest)
        })
    }

    fn grow_impl(&self, ctx: &mut MemCtx, expected_newest: u64) -> Result<(), IndexError> {
        let mut levels = self.levels.write();
        if levels[0].n_buckets != expected_newest {
            return Ok(()); // someone else already grew
        }
        let idx = self.pm_n_levels.load(Ordering::Acquire);
        if self.root.0 != 0 && idx >= MAX_LEVELS {
            return Err(IndexError::OutOfMemory);
        }
        let lvl = Self::alloc_level(ctx, &self.alloc, expected_newest * 2)?;
        if self.root.0 != 0 {
            // Append the descriptor, then publish it with the n_levels
            // bump — the grow's single-word commit point. A crash before
            // the bump leaks the new region (counted by the audit).
            let e = self.root.0 + 64 + idx * 16;
            ctx.write_u64(PmAddr(e), lvl.addr.0);
            ctx.write_u64(PmAddr(e + 8), lvl.n_buckets);
            ctx.flush_range(PmAddr(e), 16);
            ctx.fence();
            ctx.write_u64(PmAddr(self.root.0 + 16), idx + 1);
            ctx.flush(PmAddr(self.root.0 + 16));
            ctx.fence();
        }
        self.pm_n_levels.store(idx + 1, Ordering::Release);
        levels.insert(0, lvl);
        self.structure_gen.fetch_add(1, Ordering::AcqRel);
        Ok(())
    }

    /// Cooperatively migrate a few buckets from the oldest level into the
    /// newest (every writer chips in, like CLevel's background helpers).
    fn help_migrate(&self, ctx: &mut MemCtx) {
        let levels = self.snapshot();
        if levels.len() < 2 {
            return;
        }
        let oldest = levels.last().unwrap();
        let start = oldest.cursor.fetch_add(MIGRATE_STEP, Ordering::Relaxed);
        if start >= oldest.n_buckets {
            // Every bucket has been claimed; retire the level only when
            // every claimant has finished (items are visible in the new
            // level before the old copy is cleared). The region is
            // deliberately not returned to the allocator — CLevel proper
            // reclaims with epochs; the leak is one drained level.
            if oldest.done.load(Ordering::Acquire) >= oldest.n_buckets {
                let mut l = self.levels.write();
                if l.len() >= 2 && Arc::ptr_eq(l.last().unwrap(), oldest) {
                    l.pop();
                    if self.root.0 != 0 {
                        // Retirement's commit point: bump first_live.
                        let fl = self.pm_first_live.fetch_add(1, Ordering::AcqRel) + 1;
                        ctx.write_u64(PmAddr(self.root.0 + 8), fl);
                        ctx.flush(PmAddr(self.root.0 + 8));
                        ctx.fence();
                    }
                    self.structure_gen.fetch_add(1, Ordering::AcqRel);
                }
            }
            return;
        }
        let claimed = (start + MIGRATE_STEP).min(oldest.n_buckets) - start;
        for b in start..start + claimed {
            let mut bucket_drained = true;
            for s in 0..SLOTS {
                let sa = oldest.slot(b, s);
                loop {
                    let w = ctx.read_u64(sa);
                    if w & ADDR_MASK == 0 {
                        break;
                    }
                    // Freeze the slot: writers now wait for the new copy,
                    // readers may still follow the pointer.
                    // lint:allow(flow-flush-fence): the freeze CAS may carry the unflushed unfreeze store of a prior migration round; the FROZEN bit is a recovery don't-care (both copies stay visible). san=clevel::help_migrate
                    if w & FROZEN == 0 && ctx.cas_u64(sa, w, w | FROZEN).is_err() {
                        continue; // raced with an update; re-read
                    }
                    // The FROZEN bit is a recovery don't-care: recovery
                    // strips it from every slot before the table is used.
                    ctx.san_forgive(sa, 8);
                    let item = w & ADDR_MASK;
                    let key = ctx.read_u64(PmAddr(item));
                    if self.try_place(ctx, w & !FROZEN, key) {
                        // The new copy is durable; retire the old slot.
                        ctx.write_u64(sa, 0);
                        ctx.flush(sa);
                        ctx.fence();
                    } else {
                        // Newest level full mid-migration: unfreeze and
                        // leave the item. The bucket does not count as
                        // done, so the level is never retired with the
                        // item still inside.
                        ctx.write_u64(sa, w & !FROZEN);
                        ctx.san_forgive(sa, 8);
                        bucket_drained = false;
                    }
                    break;
                }
            }
            if bucket_drained {
                oldest.done.fetch_add(1, Ordering::AcqRel);
            }
        }
    }

    /// Rebuild from the persistent root after a crash.
    ///
    /// Besides re-reading the level array, recovery repairs the two
    /// artifacts a crash mid-migration can leave behind: FROZEN bits on
    /// slots (stripped — no migration is in progress any more) and a key
    /// present in two levels (the copy with the lower item address — the
    /// older log position — is cleared, so a restarted migration can never
    /// duplicate it into the newest level).
    pub fn recover(ctx: &mut MemCtx) -> Option<Self> {
        ctx.stats_span(spash_pmem::SPAN_LOG_REPLAY, Self::recover_impl)
    }

    fn recover_impl(ctx: &mut MemCtx) -> Option<Self> {
        let rec = PmAllocator::recover(ctx)?;
        let (root, root_len) = rec.alloc.reserved();
        if root_len < ROOT_LEN || ctx.read_u64(root) != MAGIC {
            return None;
        }
        let first_live = ctx.read_u64(PmAddr(root.0 + 8));
        let n_levels = ctx.read_u64(PmAddr(root.0 + 16));
        let log_base = PmAddr(ctx.read_u64(PmAddr(root.0 + 24)));
        let log_len = ctx.read_u64(PmAddr(root.0 + 32));
        let regions: HashSet<u64> = rec.regions.iter().map(|&(a, _)| a.0).collect();
        if n_levels == 0
            || n_levels > MAX_LEVELS
            || first_live >= n_levels
            || !regions.contains(&log_base.0)
        {
            return None;
        }
        let mut birth: Vec<Arc<LevelArr>> = Vec::new();
        for i in first_live..n_levels {
            let e = root.0 + 64 + i * 16;
            let addr = PmAddr(ctx.read_u64(PmAddr(e)));
            let n_buckets = ctx.read_u64(PmAddr(e + 8));
            if !regions.contains(&addr.0) || !n_buckets.is_power_of_two() {
                return None;
            }
            birth.push(Arc::new(LevelArr {
                addr,
                n_buckets,
                cursor: AtomicU64::new(0),
                done: AtomicU64::new(0),
            }));
        }
        let levels: Vec<Arc<LevelArr>> = birth.into_iter().rev().collect();

        // Deterministic slot walk, newest level first: key -> kept slot.
        let mut seen: HashMap<u64, (PmAddr, u64)> = HashMap::new();
        for lvl in &levels {
            for b in 0..lvl.n_buckets {
                for s in 0..SLOTS {
                    let sa = lvl.slot(b, s);
                    let mut w = ctx.read_u64(sa);
                    if w & ADDR_MASK == 0 {
                        continue;
                    }
                    if w & FROZEN != 0 {
                        w &= !FROZEN;
                        ctx.write_u64(sa, w);
                        ctx.flush(sa);
                        ctx.fence();
                    }
                    let key = ctx.read_u64(PmAddr(w & ADDR_MASK));
                    match seen.entry(key) {
                        std::collections::hash_map::Entry::Vacant(e) => {
                            e.insert((sa, w));
                        }
                        std::collections::hash_map::Entry::Occupied(mut e) => {
                            // Higher item address = appended later = newer.
                            let (kept_sa, kept_w) = *e.get();
                            let loser = if w & ADDR_MASK > kept_w & ADDR_MASK {
                                e.insert((sa, w));
                                kept_sa
                            } else {
                                sa
                            };
                            ctx.write_u64(loser, 0);
                            ctx.flush(loser);
                            ctx.fence();
                        }
                    }
                }
            }
        }
        let entries = seen.len() as u64;

        // The log head is the end of the committed item prefix.
        let mut off = 0u64;
        while off + 16 <= log_len {
            if ctx.read_u64(PmAddr(log_base.0 + off)) == 0 {
                break;
            }
            let len = ctx.read_u64(PmAddr(log_base.0 + off + 8));
            let need = (16 + len).div_ceil(16) * 16;
            if off + need > log_len {
                break;
            }
            off += need;
        }

        Some(Self {
            alloc: Arc::new(rec.alloc),
            levels: RwLock::new(levels),
            entries: AtomicU64::new(entries),
            structure_gen: AtomicU64::new(0),
            log_base,
            log_len,
            log_head: AtomicU64::new(off),
            root,
            pm_first_live: AtomicU64::new(first_live),
            pm_n_levels: AtomicU64::new(n_levels),
        })
    }

    /// Addresses the recovered index can reach: the item log and every
    /// non-retired level. Retired-but-never-freed levels (CLevel proper
    /// reclaims with epochs) show up as counted leaks, as do levels lost
    /// to a crash before their grow committed.
    fn reachable(&self) -> HashSet<u64> {
        let mut reachable: HashSet<u64> = self.snapshot().iter().map(|l| l.addr.0).collect();
        reachable.insert(self.log_base.0);
        reachable
    }

    /// CLevel as a [`CrashTarget`] for the crash-point sweep.
    pub fn crash_target(pow: u32) -> CrashTarget {
        CrashTarget {
            name: "CLevel".into(),
            format: Box::new(move |ctx| {
                Box::new(CLevel::format(ctx, pow).expect("format CLevel"))
            }),
            recover: Box::new(|ctx| {
                CLevel::recover(ctx).map(|idx| Box::new(idx) as Box<dyn Recovered>)
            }),
        }
    }
}

impl Recovered for CLevel {
    fn audit(&self, ctx: &mut MemCtx) -> (u64, Option<String>) {
        common::audit(&self.reachable(), ctx)
    }
}

impl PersistentIndex for CLevel {
    fn name(&self) -> &'static str {
        "CLevel"
    }

    fn insert(&self, ctx: &mut MemCtx, key: u64, value: &[u8]) -> Result<(), IndexError> {
        if self.find(ctx, key).is_some() {
            return Err(IndexError::DuplicateKey);
        }
        // Everything is out-of-place in CLevel, even tiny values.
        let item = self.append_item(ctx, key, value)?;
        let word = item.0 | tag_of_key(key) << TAG_SHIFT;
        loop {
            let newest_n = self.snapshot()[0].n_buckets;
            // lint:allow(flow-flush-fence): grow's alloc_level zero-fill residue; the persistent path fences it before the n_levels commit point, the transient (root==0) path has no recovery. san=none(zeros of a level unreachable until the fenced n_levels bump)
            if self.try_place(ctx, word, key) {
                self.entries.fetch_add(1, Ordering::Relaxed);
                // lint:allow(conc-atomicity): rides the unguarded duplicate probe at the top of insert — CLevel's lock-free protocol admits the duplicate-insert window by design (dedup happens on lookup/migration); explored sched=CLevel
                self.help_migrate(ctx);
                return Ok(());
            }
            // lint:allow(flow-flush-fence): grow's alloc_level zero-fill residue; the persistent path fences it before the n_levels commit point, the transient (root==0) path has no recovery. san=none(zeros of a level unreachable until the fenced n_levels bump)
            // lint:allow(conc-atomicity): try_place's failure snapshot can be invalidated by a concurrent grow; grow itself revalidates n_buckets under the freeze CAS before committing, so the stale retry is only wasted work; explored sched=CLevel
            self.grow(ctx, newest_n)?;
        }
    }

    fn update(&self, ctx: &mut MemCtx, key: u64, value: &[u8]) -> Result<(), IndexError> {
        let new_item = self.append_item(ctx, key, value)?;
        let new_word = new_item.0 | tag_of_key(key) << TAG_SHIFT;
        loop {
            let gen = self.structure_gen.load(Ordering::Acquire);
            match self.find(ctx, key) {
                None => {
                    // Abandoned log space (reclaimed by CLevel's GC, which
                    // is out of scope here).
                    return Err(IndexError::NotFound);
                }
                Some((_, w)) if w & FROZEN != 0 => {
                    // Mid-migration: the copy in the newest level is about
                    // to appear; wait for it.
                    self.backoff_on_migration(gen);
                    ctx.charge_compute(20);
                }
                Some((slot, w)) => {
                    if ctx.cas_u64(slot, w, new_word).is_ok() {
                        ctx.flush(slot);
                        ctx.fence();
                        // The old item becomes log garbage.
                        return Ok(());
                    }
                    ctx.charge_compute(20); // CAS retry
                }
            }
        }
    }

    fn get(&self, ctx: &mut MemCtx, key: u64, out: &mut Vec<u8>) -> bool {
        ctx.stats_span(spash_pmem::SPAN_PROBE, |ctx| match self.find(ctx, key) {
            None => false,
            Some((_, w)) => {
                common::read_blob_value(ctx, PmAddr(w & ADDR_MASK), out);
                true
            }
        })
    }

    fn remove(&self, ctx: &mut MemCtx, key: u64) -> bool {
        loop {
            let gen = self.structure_gen.load(Ordering::Acquire);
            match self.find(ctx, key) {
                None => return false,
                Some((_, w)) if w & FROZEN != 0 => {
                    self.backoff_on_migration(gen);
                    ctx.charge_compute(20);
                }
                Some((slot, w)) => {
                    if ctx.cas_u64(slot, w, 0).is_ok() {
                        ctx.flush(slot);
                        ctx.fence();
                        self.entries.fetch_sub(1, Ordering::Relaxed);
                        return true;
                    }
                    ctx.charge_compute(20);
                }
            }
        }
    }

    fn entries(&self) -> u64 {
        self.entries.load(Ordering::Relaxed)
    }

    fn capacity_slots(&self) -> u64 {
        self.snapshot().iter().map(|l| l.n_buckets * SLOTS).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cceh::test_device;

    fn setup() -> (Arc<spash_pmem::PmDevice>, CLevel, MemCtx) {
        let (dev, mut ctx) = test_device();
        let idx = CLevel::format(&mut ctx, 4).unwrap();
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
    }

    #[test]
    fn grows_and_migrates() {
        let (_d, idx, mut ctx) = setup();
        let n = 3000u64;
        for k in 1..=n {
            idx.insert_u64(&mut ctx, k, k).unwrap();
        }
        for k in 1..=n {
            assert_eq!(idx.get_u64(&mut ctx, k), Some(k), "key {k}");
        }
    }

    #[test]
    fn every_value_is_out_of_place() {
        // Even a 6-byte value costs a pointer dereference: two PM reads
        // minimum per get (slot + item).
        let (dev, idx, mut ctx) = setup();
        idx.insert_u64(&mut ctx, 5, 50).unwrap();
        dev.invalidate_cache();
        let before = dev.snapshot();
        idx.get_u64(&mut ctx, 5).unwrap();
        let d = dev.snapshot().since(&before);
        assert!(d.cl_reads >= 2, "slot read + item read, got {}", d.cl_reads);
    }

    #[test]
    fn recover_roundtrip_across_growth() {
        let (dev, idx, mut ctx) = setup();
        let blob = vec![0x6bu8; 200];
        idx.insert(&mut ctx, 7777, &blob).unwrap();
        for k in 1..=1200u64 {
            idx.insert_u64(&mut ctx, k, k).unwrap(); // forces grows + migration
        }
        for k in 1..=30u64 {
            idx.update_u64(&mut ctx, k, k + 5).unwrap();
        }
        for k in 200..=210u64 {
            assert!(idx.remove(&mut ctx, k));
        }
        let live = idx.entries();
        dev.flush_cache_all();
        drop(idx);

        let mut ctx2 = dev.ctx();
        let r = CLevel::recover(&mut ctx2).expect("recover CLevel");
        assert_eq!(r.entries(), live);
        for k in 1..=30u64 {
            assert_eq!(r.get_u64(&mut ctx2, k), Some(k + 5), "updated key {k}");
        }
        for k in 200..=210u64 {
            assert_eq!(r.get_u64(&mut ctx2, k), None, "removed key {k}");
        }
        assert_eq!(r.get_u64(&mut ctx2, 1200), Some(1200));
        let mut out = Vec::new();
        assert!(r.get(&mut ctx2, 7777, &mut out));
        assert_eq!(out, blob);
        r.insert_u64(&mut ctx2, 90_000, 3).unwrap();
        assert_eq!(r.get_u64(&mut ctx2, 90_000), Some(3));
    }

    #[test]
    fn recover_refuses_unformatted_image() {
        let (_d, mut ctx) = test_device();
        assert!(CLevel::recover(&mut ctx).is_none());
        let _ = PmAllocator::format(&mut ctx, 0);
        assert!(CLevel::recover(&mut ctx).is_none());
    }

    #[test]
    fn concurrent_mixed_ops() {
        let (dev, mut ctx) = test_device();
        let idx = Arc::new(CLevel::format(&mut ctx, 4).unwrap());
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let idx = Arc::clone(&idx);
                let dev = Arc::clone(&dev);
                s.spawn(move || {
                    let mut ctx = dev.ctx();
                    for i in 0..600u64 {
                        let k = 1 + t * 600 + i;
                        idx.insert_u64(&mut ctx, k, k).unwrap();
                        idx.update_u64(&mut ctx, k, k + 1).unwrap();
                        assert_eq!(idx.get_u64(&mut ctx, k), Some(k + 1));
                    }
                });
            }
        });
        for k in 1..=2400u64 {
            assert_eq!(idx.get_u64(&mut ctx, k), Some(k + 1), "key {k}");
        }
    }
}
