//! The volatile extendible-hash directory and collaborative staged
//! doubling (paper §III-A, §IV-B).
//!
//! The directory lives in DRAM (it is rebuilt on recovery) and maps the
//! highest `depth` bits of a key hash to a segment address. Entries pack
//! `[reserved:1][local_depth:7][segment address:56]` into one word.
//!
//! **Collaborative staged doubling.** Growing the directory under one HTM
//! transaction would be a guaranteed capacity abort, so doubling is split
//! into cacheline-sized *stages*: each stage copies one 8-entry partition
//! of the old directory into the new (each old entry fans out to two).
//! Stages are claimed with a CAS and executed inside small transactions
//! that `write_guard` the old partition — any concurrent split writing the
//! same partition conflicts and retries. Concurrent operations:
//!
//! * *reads* route through the old directory until their partition's stage
//!   is done, then through the new one;
//! * *splits* that must update a not-yet-copied partition first complete
//!   that stage themselves (that is the "collaborative" part), then write
//!   the new directory;
//! * the thread that finishes the last stage atomically swaps the current
//!   directory and retires the job.
//!
//! HTM line ids: partition `p` of the directory generation `g` has id
//! `volatile(g << 24 | p)`; transactions validate their routed entry
//! against that id, so a stage copy or a split that moves the entry always
//! fails their validation (§IV-A's validation step).

use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;

use spash_pmem::sync::Mutex;
use crate::access::Access;
use spash_htm::{Abort, Htm, LineId};
use spash_pmem::{MemCtx, PmAddr};

/// Directory entries per doubling stage (one 64-byte cacheline of 8-byte
/// entries).
pub const PARTITION: usize = 8;

const DEPTH_SHIFT: u32 = 56;
const ADDR_MASK: u64 = (1 << 56) - 1;

/// Pack a directory entry.
#[inline]
pub fn pack_entry(seg: PmAddr, local_depth: u8) -> u64 {
    debug_assert!(seg.0 <= ADDR_MASK);
    debug_assert!(local_depth < 128);
    (local_depth as u64) << DEPTH_SHIFT | seg.0
}

/// Unpack a directory entry into (segment, local depth).
#[inline]
pub fn unpack_entry(e: u64) -> (PmAddr, u8) {
    (PmAddr(e & ADDR_MASK), ((e >> DEPTH_SHIFT) & 0x7f) as u8)
}

/// One immutable-size directory array.
pub struct DirInner {
    pub depth: u32,
    pub gen: u64,
    pub entries: Box<[AtomicU64]>,
}

impl DirInner {
    fn new(depth: u32, gen: u64) -> Self {
        let n = 1usize << depth;
        Self {
            depth,
            gen,
            entries: (0..n).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Directory index for a hash.
    #[inline]
    pub fn index_of(&self, hash: u64) -> usize {
        if self.depth == 0 {
            0
        } else {
            (hash >> (64 - self.depth)) as usize
        }
    }

    /// HTM line id of the partition holding `idx`.
    #[inline]
    pub fn line_id(&self, idx: usize) -> LineId {
        LineId::volatile(self.gen << 24 | (idx / PARTITION) as u64)
    }

    /// Point every entry of the `depth`-bit prefix `prefix`'s range at
    /// `seg` (local depth `depth`) through `a`, and return that index
    /// range: a split repoints one range per child, a merge its parent's.
    pub(crate) fn repoint<A: Access>(
        &self,
        a: &mut A,
        prefix: u64,
        depth: u8,
        seg: PmAddr,
    ) -> Result<Range<usize>, Abort> {
        let shift = self.depth - depth as u32;
        let first = (prefix as usize) << shift;
        let range = first..first + (1 << shift);
        for idx in range.clone() {
            a.write_volatile_u64(self.line_id(idx), &self.entries[idx], pack_entry(seg, depth))?;
        }
        Ok(range)
    }
}

#[repr(u8)]
#[derive(Clone, Copy, PartialEq, Eq)]
enum Stage {
    Pending = 0,
    Busy = 1,
    Done = 2,
}

/// An in-flight doubling.
pub struct DoublingJob {
    pub old: Arc<DirInner>,
    pub new: Arc<DirInner>,
    stages: Box<[AtomicU8]>,
    remaining: AtomicUsize,
}

impl DoublingJob {
    fn stage_of(&self, old_idx: usize) -> usize {
        old_idx / PARTITION
    }

    fn stage_state(&self, s: usize) -> Stage {
        match self.stages[s].load(Ordering::Acquire) {
            0 => Stage::Pending,
            1 => Stage::Busy,
            _ => Stage::Done,
        }
    }
}

/// Where a lookup resolved.
pub struct Routed {
    /// The directory actually consulted (old or new during doubling).
    pub dir: Arc<DirInner>,
    /// Index within that directory.
    pub idx: usize,
    /// The raw entry value observed.
    pub entry: u64,
}

impl Routed {
    pub fn seg(&self) -> PmAddr {
        unpack_entry(self.entry).0
    }

    pub fn local_depth(&self) -> u8 {
        unpack_entry(self.entry).1
    }

    /// The HTM guard id of the routed partition.
    pub fn line_id(&self) -> LineId {
        self.dir.line_id(self.idx)
    }

    /// Every partition id covering the routed segment's directory range,
    /// in ascending order. The §IV-A lock fallback must take all of them:
    /// a shallow segment can be reachable through entries in several
    /// partitions, and locking only the routed one would let operations
    /// arriving through a sibling entry race the lock holder.
    pub fn fallback_lock_ids(&self) -> Vec<LineId> {
        let d = self.local_depth() as u32;
        let dd = self.dir.depth;
        let shift = dd.saturating_sub(d);
        let base = (self.idx >> shift) << shift;
        let last = base + (1usize << shift) - 1;
        (base / PARTITION..=last / PARTITION)
            .map(|p| self.dir.line_id(p * PARTITION))
            .collect()
    }
}

/// Coherent pair of (current directory, active doubling). Kept under one
/// mutex: reading them separately can pair a retired job with the newer
/// current directory and route reads to a stale generation.
struct DirState {
    current: Arc<DirInner>,
    job: Option<Arc<DoublingJob>>,
}

/// The directory.
pub struct Directory {
    state: Mutex<DirState>,
    next_gen: AtomicU64,
    /// Diagnostics: how often an operation needing a stage found another
    /// thread mid-copy on it (once per spin), vs the stages operations
    /// asked to complete.
    pub await_count: AtomicU64,
    pub assist_count: AtomicU64,
}

impl Directory {
    /// Build a directory of `depth` with entries `segs[i]`, every segment
    /// at local depth `depth`.
    pub fn new(depth: u32, segs: &[PmAddr]) -> Self {
        assert_eq!(segs.len(), 1 << depth);
        let triples: Vec<_> = (0..).zip(segs).map(|(i, &s)| (s, depth as u8, i)).collect();
        Self::rebuild(&triples)
    }

    /// Rebuild from recovery data: (segment, local_depth, prefix) triples.
    pub fn rebuild(segments: &[(PmAddr, u8, u64)]) -> Self {
        let depth = segments.iter().map(|&(_, d, _)| d as u32).max().unwrap_or(0);
        let inner = DirInner::new(depth, 0);
        for &(seg, d, prefix) in segments {
            let span = 1usize << (depth - d as u32);
            let base = (prefix as usize) << (depth - d as u32);
            for i in 0..span {
                inner.entries[base + i].store(pack_entry(seg, d), Ordering::Relaxed);
            }
        }
        Self {
            state: Mutex::new(DirState {
                current: Arc::new(inner),
                job: None,
            }),
            next_gen: AtomicU64::new(1),
            await_count: AtomicU64::new(0),
            assist_count: AtomicU64::new(0),
        }
    }

    /// The current global depth.
    pub fn depth(&self) -> u32 {
        self.state.lock().current.depth
    }

    /// Coherently snapshot (current directory, active doubling job).
    fn snapshot(&self) -> (Arc<DirInner>, Option<Arc<DoublingJob>>) {
        let s = self.state.lock();
        (Arc::clone(&s.current), s.job.clone())
    }

    /// The routing decision for `hash`: which directory generation and
    /// index are authoritative right now. Does not load the entry.
    fn route(&self, hash: u64) -> Routed {
        let (cur, job) = self.snapshot();
        if let Some(job) = job {
            if job.old.gen == cur.gen {
                let old_idx = job.old.index_of(hash);
                if job.stage_state(job.stage_of(old_idx)) == Stage::Done {
                    let idx = job.new.index_of(hash);
                    return Routed {
                        dir: Arc::clone(&job.new),
                        idx,
                        entry: 0,
                    };
                }
                return Routed {
                    dir: Arc::clone(&job.old),
                    idx: old_idx,
                    entry: 0,
                };
            }
        }
        let idx = cur.index_of(hash);
        Routed { dir: cur, idx, entry: 0 }
    }

    /// Route a hash to its authoritative entry. Charges one cached DRAM
    /// access (the directory is hot).
    pub fn lookup(&self, ctx: &mut MemCtx, hash: u64) -> Routed {
        ctx.charge_dram_cached();
        let r = self.route(hash);
        let entry = r.dir.entries[r.idx].load(Ordering::Acquire);
        Routed { entry, ..r }
    }

    /// Re-resolve `hash` inside step 5 and verify the segment still is
    /// `expected_seg`. In a transaction this adds the routed partition to
    /// the read set, so any concurrent split/stage-copy of that partition
    /// aborts us at commit (§IV-A validation). Returns the routed entry
    /// for further writes.
    pub(crate) fn validate<A: Access>(
        &self,
        tx: &mut A,
        ctx: &mut MemCtx,
        hash: u64,
        expected_seg: PmAddr,
    ) -> Result<Routed, Abort> {
        ctx.charge_dram_cached();
        let routed = self.route(hash);
        let cell = &routed.dir.entries[routed.idx];
        let entry = tx.read_volatile_u64(routed.dir.line_id(routed.idx), cell)?;
        // Re-check the routing now that the partition is in our read set:
        // a stage copy that completed between the routing decision and the
        // guarded read above would leave us holding a stale generation
        // whose version will never change again, so commit-time validation
        // alone would pass. Stage states are monotonic, so if the route is
        // unchanged *after* the guarded read, any later copy bumps the
        // version and aborts us at commit.
        let recheck = self.route(hash);
        if recheck.dir.gen != routed.dir.gen
            || recheck.idx != routed.idx
            || unpack_entry(entry).0 != expected_seg
        {
            #[cfg(test)]
            MOVED_ABORTS.with(|n| n.set(n.get() + 1));
            return tx.abort(VALIDATE_SEGMENT_MOVED);
        }
        Ok(Routed { entry, ..routed })
    }

    /// Inside a transaction holding write guards on the partitions of
    /// `dir` covering `[first_idx, last_idx]`, check that writes there are
    /// still observable: either the generation is current, or an active
    /// doubling will propagate them (covering stages not yet copied), or
    /// they went to the new directory of a doubling whose covering stages
    /// are done. The held guards exclude concurrent stage copies (copies
    /// take the same per-partition locks), so the answer cannot change
    /// before commit.
    pub fn tx_write_safe(&self, dir: &DirInner, first_idx: usize, last_idx: usize) -> bool {
        let (cur, job) = self.snapshot();
        match job {
            None => dir.gen == cur.gen,
            Some(j) => {
                if dir.gen == j.old.gen {
                    (first_idx / PARTITION..=last_idx / PARTITION)
                        .all(|s| j.stage_state(s) != Stage::Done)
                } else if dir.gen == j.new.gen {
                    let of = first_idx / 2;
                    let ol = last_idx / 2;
                    (of / PARTITION..=ol / PARTITION).all(|s| j.stage_state(s) == Stage::Done)
                } else {
                    dir.gen == cur.gen
                }
            }
        }
    }

    /// Begin (or join) a doubling. Returns the job; the caller must drive
    /// [`Directory::complete_stage`] / [`Directory::drive_doubling`].
    pub fn begin_doubling(&self, _ctx: &mut MemCtx) -> Arc<DoublingJob> {
        let mut state = self.state.lock();
        if let Some(j) = state.job.as_ref() {
            return Arc::clone(j);
        }
        let cur = Arc::clone(&state.current);
        let gen = self.next_gen.fetch_add(1, Ordering::Relaxed);
        let new = Arc::new(DirInner::new(cur.depth + 1, gen));
        let n_stages = cur.entries.len().div_ceil(PARTITION);
        let j = Arc::new(DoublingJob {
            old: cur,
            new,
            stages: (0..n_stages).map(|_| AtomicU8::new(0)).collect(),
            remaining: AtomicUsize::new(n_stages),
        });
        state.job = Some(Arc::clone(&j));
        j
    }

    /// Ensure stage `s` of `job` is done, executing it if it is pending
    /// (a concurrent split "collaboratively assists the doubling thread",
    /// §IV-B). Spins while another thread runs it.
    pub fn complete_stage(&self, ctx: &mut MemCtx, htm: &Htm, job: &Arc<DoublingJob>, s: usize) {
        loop {
            match job.stages[s]
                .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire)
                .map(|_| Stage::Pending)
                .unwrap_or_else(|v| if v == 1 { Stage::Busy } else { Stage::Done })
            {
                Stage::Done => return,
                Stage::Busy => {
                    // The one wait doubling has left: another thread is
                    // mid-copy on this stage.
                    self.await_count.fetch_add(1, Ordering::Relaxed);
                    spash_pmem::schedhook::spin_wait();
                }
                Stage::Pending => {
                    // We claimed it. The copy runs under the partition's
                    // non-transactional lock so that concurrent splits of
                    // the same partition either conflict-abort (while we
                    // hold the lock) or fail validation (the unlock bumps
                    // the version). Crucially, the Done flag is published
                    // *before* the unlock: no transaction can slip a write
                    // into the old partition after the copy but before
                    // routing switches to the new directory.
                    let first = s * PARTITION;
                    let id = job.old.line_id(first);
                    htm.nontx_lock(ctx, id);
                    ctx.charge_dram(2); // one cacheline read + write
                    let last = (first + PARTITION).min(job.old.entries.len());
                    for i in first..last {
                        let v = job.old.entries[i].load(Ordering::Acquire);
                        job.new.entries[2 * i].store(v, Ordering::Release);
                        job.new.entries[2 * i + 1].store(v, Ordering::Release);
                    }
                    job.stages[s].store(2, Ordering::Release);
                    if job.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                        self.finish_doubling(job);
                    }
                    htm.nontx_unlock(ctx, id);
                    return;
                }
            }
        }
    }

    fn finish_doubling(&self, job: &Arc<DoublingJob>) {
        let mut s = self.state.lock();
        debug_assert_eq!(s.current.gen, job.old.gen);
        s.current = Arc::clone(&job.new);
        if s.job.as_ref().map(|x| x.old.gen) == Some(job.old.gen) {
            s.job = None;
        }
    }

    /// Drive every remaining stage of `job` (the "doubling thread" role).
    pub fn drive_doubling(&self, ctx: &mut MemCtx, htm: &Htm, job: &Arc<DoublingJob>) {
        for s in 0..job.stages.len() {
            self.complete_stage(ctx, htm, job, s);
        }
    }

    /// Ensure the stages covering old-directory indices `[first, last]`
    /// are complete: the caller executes pending stages itself (§IV-B).
    pub fn ensure_range_done(
        &self,
        ctx: &mut MemCtx,
        htm: &Htm,
        job: &Arc<DoublingJob>,
        first_old_idx: usize,
        last_old_idx: usize,
    ) {
        for s in job.stage_of(first_old_idx)..=job.stage_of(last_old_idx) {
            self.assist_count.fetch_add(1, Ordering::Relaxed);
            self.complete_stage(ctx, htm, job, s);
        }
    }

    /// The authoritative directory for *writing* right now: the doubling
    /// job's new directory if one is active, else current.
    pub fn write_target(&self) -> (Arc<DirInner>, Option<Arc<DoublingJob>>) {
        let (cur, job) = self.snapshot();
        match job {
            Some(j) => (Arc::clone(&j.new), Some(j)),
            None => (cur, None),
        }
    }
}

/// Explicit-abort code: the routed segment no longer matches the
/// preparation phase's snapshot.
pub const VALIDATE_SEGMENT_MOVED: u32 = 1;
/// Explicit-abort code: the target slot changed since preparation.
pub const VALIDATE_SLOT_CHANGED: u32 = 2;

#[cfg(test)]
thread_local! {
    /// The [`VALIDATE_SEGMENT_MOVED`] aborts this thread's validations
    /// took: how unit tests see a stale route caught.
    pub(crate) static MOVED_ABORTS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use spash_htm::HtmConfig;
    use spash_pmem::{PmConfig, PmDevice};

    fn seg(i: u64) -> PmAddr {
        PmAddr(0x1000 + i * 256)
    }

    #[test]
    fn entry_pack_roundtrip() {
        let e = pack_entry(PmAddr(0x1234_5600), 17);
        assert_eq!(unpack_entry(e), (PmAddr(0x1234_5600), 17));
    }

    #[test]
    fn lookup_routes_by_high_bits() {
        let dev = PmDevice::new(PmConfig::small_test());
        let mut ctx = dev.ctx();
        let d = Directory::new(2, &[seg(0), seg(1), seg(2), seg(3)]);
        // hash with top bits 10... goes to entry 2.
        let h = 0b10u64 << 62;
        let r = d.lookup(&mut ctx, h);
        assert_eq!(r.idx, 2);
        assert_eq!(r.seg(), seg(2));
        assert_eq!(r.local_depth(), 2);
    }

    #[test]
    fn rebuild_fans_out_shallow_segments() {
        let dev = PmDevice::new(PmConfig::small_test());
        let mut ctx = dev.ctx();
        // One segment at depth 1 prefix 0, two at depth 2 prefixes 10, 11.
        let d = Directory::rebuild(&[(seg(0), 1, 0), (seg(1), 2, 0b10), (seg(2), 2, 0b11)]);
        assert_eq!(d.depth(), 2);
        assert_eq!(d.lookup(&mut ctx, 0b00u64 << 62).seg(), seg(0));
        assert_eq!(d.lookup(&mut ctx, 0b01u64 << 62).seg(), seg(0));
        assert_eq!(d.lookup(&mut ctx, 0b10u64 << 62).seg(), seg(1));
        assert_eq!(d.lookup(&mut ctx, 0b11u64 << 62).seg(), seg(2));
    }

    #[test]
    fn doubling_preserves_routing() {
        let dev = PmDevice::new(PmConfig::small_test());
        let mut ctx = dev.ctx();
        let htm = Htm::new(HtmConfig::default());
        let segs: Vec<PmAddr> = (0..4).map(seg).collect();
        let d = Directory::new(2, &segs);
        let job = d.begin_doubling(&mut ctx);
        // Mid-doubling (no stage done yet) lookups still work.
        for i in 0..4u64 {
            let h = i << 62;
            assert_eq!(d.lookup(&mut ctx, h).seg(), seg(i));
        }
        d.drive_doubling(&mut ctx, &htm, &job);
        assert_eq!(d.depth(), 3);
        // After doubling both children of entry i route to the old segment.
        for i in 0..8u64 {
            let h = i << 61;
            assert_eq!(d.lookup(&mut ctx, h).seg(), seg(i / 2));
            assert_eq!(d.lookup(&mut ctx, h).local_depth(), 2);
        }
    }

    #[test]
    fn collaborative_stage_completion() {
        let dev = PmDevice::new(PmConfig::small_test());
        let mut ctx = dev.ctx();
        let htm = Htm::new(HtmConfig::default());
        let segs: Vec<PmAddr> = (0..32).map(seg).collect();
        let d = Directory::new(5, &segs);
        let job = d.begin_doubling(&mut ctx);
        // A "split" thread needs old index 17 done: completes just that
        // stage collaboratively.
        d.ensure_range_done(&mut ctx, &htm, &job, 17, 17);
        let h = 17u64 << (64 - 5);
        let r = d.lookup(&mut ctx, h);
        assert_eq!(r.dir.gen, job.new.gen, "routed through the new directory");
        assert_eq!(r.seg(), seg(17));
        // Another hash in a pending partition still routes through old.
        let h2 = 1u64 << (64 - 5);
        let r2 = d.lookup(&mut ctx, h2);
        assert_eq!(r2.dir.gen, job.old.gen);
        // Finish everything.
        d.drive_doubling(&mut ctx, &htm, &job);
        assert_eq!(d.depth(), 6);
    }

    #[test]
    fn tx_validate_detects_moved_segment() {
        let dev = PmDevice::new(PmConfig::small_test());
        let mut ctx = dev.ctx();
        let htm = Htm::new(HtmConfig::default());
        let d = Directory::new(1, &[seg(0), seg(1)]);
        let h = 0u64;
        let r = d.lookup(&mut ctx, h);
        assert_eq!(r.seg(), seg(0));
        // Concurrently "split": repoint entry 0 to another segment.
        d.state.lock().current.entries[0].store(pack_entry(seg(9), 1), Ordering::Release);
        let res: Result<(), Abort> = htm.try_transaction(&mut ctx, |tx, ctx| {
            d.validate(tx, ctx, h, seg(0)).map(|_| ())
        });
        assert_eq!(res, Err(Abort::Explicit(VALIDATE_SEGMENT_MOVED)));
    }

    #[test]
    fn tx_validate_aborts_when_stage_copies_under_it() {
        let dev = PmDevice::new(PmConfig::small_test());
        let mut ctx = dev.ctx();
        let mut ctx2 = dev.ctx();
        let htm = Htm::new(HtmConfig::default());
        let segs: Vec<PmAddr> = (0..16).map(seg).collect();
        let d = Directory::new(4, &segs);
        let job = d.begin_doubling(&mut ctx);
        let h = 0u64;
        // Validate inside a transaction, and complete the stage for the
        // same partition before committing: the version bump must abort us.
        let res: Result<(), Abort> = htm.try_transaction(&mut ctx, |tx, ctx| {
            d.validate(tx, ctx, h, seg(0))?;
            d.complete_stage(&mut ctx2, &htm, &job, 0);
            Ok(())
        });
        assert!(matches!(res, Err(Abort::Conflict(_))));
    }

    #[test]
    fn concurrent_doubling_and_lookups() {
        use std::sync::Arc as StdArc;
        let dev = PmDevice::new(PmConfig::small_test());
        let htm = StdArc::new(Htm::new(HtmConfig::default()));
        let segs: Vec<PmAddr> = (0..256).map(seg).collect();
        let d = StdArc::new(Directory::new(8, &segs));
        std::thread::scope(|s| {
            let dd = StdArc::clone(&d);
            let hh = StdArc::clone(&htm);
            let devd = StdArc::clone(&dev);
            s.spawn(move || {
                let mut ctx = devd.ctx();
                let job = dd.begin_doubling(&mut ctx);
                dd.drive_doubling(&mut ctx, &hh, &job);
            });
            for _ in 0..3 {
                let dd = StdArc::clone(&d);
                let devd = StdArc::clone(&dev);
                s.spawn(move || {
                    let mut ctx = devd.ctx();
                    for i in 0..10_000u64 {
                        let want = i % 256;
                        let h = want << 56;
                        let r = dd.lookup(&mut ctx, h);
                        assert_eq!(r.seg(), seg(want), "routing broke mid-doubling");
                    }
                });
            }
        });
        assert_eq!(d.depth(), 9);
    }
}
