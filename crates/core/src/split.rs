//! Fine-grained segment split and merge (paper §III-A, Fig 3).
//!
//! A split rehashes one 256-byte segment into two (occasionally more, see
//! below) children one prefix bit deeper, rewrites the parent in place as
//! the first child, repoints the covering directory entries, and records
//! the children in the segment-info table — all inside **one** HTM
//! transaction, so concurrent operations either see the old segment or the
//! new ones, never a mixture. (After a capacity abort the same body runs
//! under the §IV-A partition locks instead.) The footprint is a handful of cachelines:
//! exactly why fine-grained (XPLine-sized) segments are HTM-compatible
//! where CCEH's 16 KiB segments are not (§III-A).
//!
//! **Recursive planning.** A child may itself be unplaceable (e.g. ≥5
//! entries of one bucket would need more overflow hints than a bucket can
//! hold); the planner then splits that child again, producing children of
//! unequal depth. Plans are computed in DRAM during preparation; the
//! transaction only writes the final images.
//!
//! **Merge** is the reverse: a segment that empties is folded into its
//! buddy (same parent, same depth) by repointing its directory entries.

use std::sync::atomic::Ordering;

use spash_htm::Abort;
use spash_index_api::IndexError;
use spash_pmem::canary::{self, Canary};
use spash_pmem::{MemCtx, PmAddr, CACHELINE};

use crate::access::{Access, Plain};
use crate::dir::{unpack_entry, Routed};
use crate::ops::{Spash, AB_STATE_CHANGED};
use crate::slot::{
    self, bucket_of, fp8, fp_word, make_hint, value_word, BucketWords, Placement, BUCKETS_PER_SEG,
    SLOTS_PER_BUCKET, SLOTS_PER_SEG,
};

/// One live entry being rehashed: (key word, value payload, key hash).
pub(crate) type SplitEntry = (u64, u64, u64);

/// A 256-byte segment image built in DRAM, together with the fingerprint
/// sidecar words its slots imply (installed alongside the image, so a
/// freshly split child's fp table is exact from the first probe).
#[derive(Clone)]
pub(crate) struct SegImage {
    pub words: [u64; 32],
    pub fp: [u64; BUCKETS_PER_SEG as usize],
}

impl SegImage {
    pub fn empty() -> Self {
        Self {
            words: [0; 32],
            fp: [0; BUCKETS_PER_SEG as usize],
        }
    }

    fn kw(&self, idx: u8) -> u64 {
        self.words[idx as usize * 2]
    }

    fn set_kw(&mut self, idx: u8, w: u64) {
        self.words[idx as usize * 2] = w;
    }

    fn vw(&self, idx: u8) -> u64 {
        self.words[idx as usize * 2 + 1]
    }

    fn set_vw(&mut self, idx: u8, w: u64) {
        self.words[idx as usize * 2 + 1] = w;
    }

    /// Place an entry by the rule a live insert follows
    /// ([`slot::place`]), setting its slot tag and, for an overflow
    /// entry, the main bucket's hint and hint tag. Returns false when the
    /// entry cannot be placed (forces a deeper split).
    pub fn place(&mut self, kw: u64, vw_payload: u64, h: u64) -> bool {
        let b = bucket_of(h);
        let (idx, hint_slot) = match slot::place(b, |ob| self.bucket(ob)) {
            Placement::Main(idx) => (idx, None),
            Placement::Overflow { idx, hint_slot } => (idx, Some(hint_slot)),
            Placement::Full => return false,
        };
        let tag = crate::fptable::stored_tag(fp8(h));
        self.set_kw(idx, kw);
        self.set_vw(idx, value_word::with_payload(self.vw(idx), vw_payload));
        let ob = (idx / SLOTS_PER_BUCKET) as usize;
        self.fp[ob] = fp_word::with_slot_tag(self.fp[ob], idx % SLOTS_PER_BUCKET, tag);
        if let Some(hs) = hint_slot {
            self.set_vw(hs, value_word::with_hint(self.vw(hs), make_hint(h, idx)));
            let fp = self.fp[b as usize];
            self.fp[b as usize] = fp_word::with_hint_tag(fp, hs % SLOTS_PER_BUCKET, tag);
        }
        true
    }

    fn bucket(&self, b: u8) -> BucketWords {
        std::array::from_fn(|j| {
            let s = b * SLOTS_PER_BUCKET + j as u8;
            (self.kw(s), self.vw(s))
        })
    }
}

/// A planned child segment.
pub(crate) struct ChildPlan {
    pub depth: u8,
    pub prefix: u64,
    pub image: SegImage,
}

/// A split's preparation: the routed segment, the snapshot its plan was
/// made from, the plan, and the children's addresses (child 0 is the
/// parent's own XPLine).
struct SplitPrep {
    routed: Routed,
    snapshot: [u64; 32],
    plan: Vec<ChildPlan>,
    addrs: Vec<PmAddr>,
    max_child_depth: u8,
}

/// How many extra prefix bits a single split may consume before giving up
/// (astronomically unlikely to be hit with a bijective hash).
const MAX_EXTRA_DEPTH: u8 = 10;

/// Plan the split of a segment at `depth` covering `prefix`.
pub(crate) fn plan_split(
    entries: &[SplitEntry],
    depth: u8,
    prefix: u64,
) -> Result<Vec<ChildPlan>, IndexError> {
    let mut out = Vec::with_capacity(2);
    plan_rec(entries, depth, prefix, depth + MAX_EXTRA_DEPTH, &mut out)?;
    Ok(out)
}

fn plan_rec(
    entries: &[SplitEntry],
    depth: u8,
    prefix: u64,
    cap: u8,
    out: &mut Vec<ChildPlan>,
) -> Result<(), IndexError> {
    if depth >= cap || depth >= 56 {
        return Err(IndexError::OutOfMemory);
    }
    let bit = |h: u64| (h >> (63 - depth)) & 1;
    for side in 0..2u64 {
        let subset: Vec<SplitEntry> = entries
            .iter()
            .copied()
            .filter(|&(_, _, h)| bit(h) == side)
            .collect();
        let child_prefix = prefix << 1 | side;
        match try_pack(&subset) {
            Some(image) => out.push(ChildPlan {
                depth: depth + 1,
                prefix: child_prefix,
                image,
            }),
            None => plan_rec(&subset, depth + 1, child_prefix, cap, out)?,
        }
    }
    Ok(())
}

fn try_pack(entries: &[SplitEntry]) -> Option<SegImage> {
    let mut img = SegImage::empty();
    for &(kw, vwp, h) in entries {
        if !img.place(kw, vwp, h) {
            return None;
        }
    }
    Some(img)
}

impl Spash {
    /// Read the 32 words of `seg` once (preparation phase) and parse the
    /// live entries out of that single snapshot, dereferencing blob keys
    /// to recompute hashes. The transaction later validates the *same*
    /// words, so the plan and the validation baseline can never diverge.
    pub(crate) fn snapshot_segment(
        &self,
        ctx: &mut MemCtx,
        seg: PmAddr,
    ) -> ([u64; 32], Vec<SplitEntry>) {
        // lint:allow(fp-probe): the split snapshot parses every live slot of the segment; it is a rewrite, not a probe
        let words = Plain::ok(Self::read_segment(&mut Plain, ctx, seg));
        let mut out = Vec::with_capacity(SLOTS_PER_SEG as usize);
        for slot in words.chunks_exact(2) {
            let (kw, vw) = (slot[0], slot[1]);
            if let Some(h) = Self::hash_of_kw(ctx, kw) {
                out.push((kw, value_word::payload(vw), h));
            }
        }
        (words, out)
    }

    /// Split the segment currently routed for hash `h`. Returns once *a*
    /// split happened or the routing changed (the caller re-runs its
    /// insert either way).
    pub(crate) fn split(&self, ctx: &mut MemCtx, h: u64) -> Result<(), IndexError> {
        ctx.stats_span(spash_pmem::SPAN_SPLIT, |ctx| self.split_impl(ctx, h))
    }

    /// Install the planned child images at `addrs` (parent rewritten in
    /// place as child 0), together with each child's fingerprint sidecar
    /// — so the fp table is exact the instant the split is visible — and
    /// its segment-info record, then invalidate overlay entries for the
    /// parent and every child: their cached bucket images go stale the
    /// moment the caller repoints the directory. (The stale-cache
    /// mutation skips that — lookups would then serve pre-split data.)
    fn install_children<A: Access>(
        &self,
        a: &mut A,
        ctx: &mut MemCtx,
        plan: &[ChildPlan],
        addrs: &[PmAddr],
    ) -> Result<(), Abort> {
        for (child, &base) in plan.iter().zip(addrs) {
            for w in 0..32u64 {
                a.write_u64(ctx, PmAddr(base.0 + w * 8), child.image.words[w as usize])?;
            }
            for b in 0..BUCKETS_PER_SEG {
                self.fptable
                    .write_word(a, ctx, base, b, child.image.fp[b as usize])?;
            }
            self.seginfo.set(a, ctx, base, child.depth, child.prefix)?;
        }
        if !canary::armed(Canary::OverlayStale) {
            for &seg in addrs {
                a.bump_overlay(ctx, &self.overlay, seg)?;
            }
        }
        Ok(())
    }

    /// One preparation, one body, one retry loop. The body runs as an
    /// HTM transaction: a stale plan re-prepares, a conflict waits for
    /// the owner and retries. A capacity abort (a very wide directory
    /// range) switches the rest of the split to the lock fallback: the
    /// same body through [`Plain`] under the non-transactional locks of
    /// every directory partition covering the routed segment, with any
    /// active doubling driven to completion first. Stage copies of a
    /// locked partition wait for its lock, so under the locks the body's
    /// final `tx_write_safe` check cannot fail after its plain writes.
    fn split_impl(&self, ctx: &mut MemCtx, h: u64) -> Result<(), IndexError> {
        let mut locked = false;
        loop {
            if locked {
                if let (_, Some(job)) = self.dir.write_target() {
                    self.dir.drive_doubling(ctx, &self.htm, &job);
                }
            }
            let Some(p) = self.prepare_split(ctx, h)? else {
                continue;
            };
            let seg = p.routed.seg();
            let r = if locked {
                let ids = p.routed.fallback_lock_ids();
                self.with_nontx_locks(ctx, &ids, |ctx| {
                    // The routing must still be the one we locked.
                    if self.dir.lookup(ctx, h).fallback_lock_ids() != ids {
                        return Err(Abort::Explicit(AB_STATE_CHANGED));
                    }
                    self.exclude_lock_mode_ops(ctx, seg, |ctx| {
                        self.install_split(&mut Plain, ctx, h, &p)
                    })
                })
            } else {
                self.exclude_lock_mode_ops(ctx, seg, |ctx| {
                    self.htm
                        .try_transaction(ctx, |tx, ctx| self.install_split(tx, ctx, h, &p))
                })
            };
            match r {
                Ok(()) => {
                    self.n_segments
                        .fetch_add(p.plan.len() as u64 - 1, Ordering::Relaxed);
                    return Ok(());
                }
                Err(abort) => {
                    for &a in &p.addrs[1..] {
                        self.alloc.free_segment(ctx, a);
                    }
                    match abort {
                        Abort::Explicit(_) => {} // plan went stale
                        Abort::Conflict(slot) => self.htm.wait_slot(slot),
                        Abort::Capacity => {
                            self.fallbacks.fetch_add(1, Ordering::Relaxed);
                            locked = true;
                        }
                    }
                }
            }
        }
    }

    /// The split's preparation: route `h`, make sure the directory is
    /// deep enough for the split, snapshot and plan the segment, and
    /// allocate the children. `Ok(None)`: the directory grew, so route
    /// again.
    fn prepare_split(&self, ctx: &mut MemCtx, h: u64) -> Result<Option<SplitPrep>, IndexError> {
        let routed = self.dir.lookup(ctx, h);
        let seg = routed.seg();
        let d = routed.local_depth();
        let prefix = if d == 0 { 0 } else { h >> (64 - d as u32) };
        // Grow the directory until the split fits. The initiating thread
        // drives every stage ("doubling thread"); concurrent splits
        // complete the stages they need collaboratively.
        let double = |ctx: &mut MemCtx| {
            let job = self.dir.begin_doubling(ctx);
            self.dir.drive_doubling(ctx, &self.htm, &job);
        };
        let (target, job) = self.dir.write_target();
        if (d as u32) >= target.depth {
            double(ctx);
            return Ok(None);
        }
        // If a doubling is active, make sure the stages covering this
        // segment's old-directory range are complete so the split can
        // write the new directory.
        if let Some(job) = &job {
            let d_old = job.old.depth;
            if (d as u32) <= d_old {
                let first = (prefix << (d_old - d as u32)) as usize;
                let last = (((prefix + 1) << (d_old - d as u32)) - 1) as usize;
                self.dir.ensure_range_done(ctx, &self.htm, job, first, last);
            }
        }

        let (snapshot, entries) = self.snapshot_segment(ctx, seg);
        let plan = plan_split(&entries, d, prefix)?;
        let max_child_depth = plan.iter().map(|c| c.depth).max().unwrap_or(d + 1);
        if (max_child_depth as u32) > self.dir.write_target().0.depth {
            double(ctx);
            return Ok(None);
        }

        // Child 0 reuses the parent XPLine; the rest are fresh.
        let mut addrs = vec![seg];
        for _ in 1..plan.len() {
            match self.alloc.alloc_segment(ctx) {
                Ok(a) => addrs.push(a),
                Err(_) => {
                    for &a in &addrs[1..] {
                        self.alloc.free_segment(ctx, a);
                    }
                    return Err(IndexError::OutOfMemory);
                }
            }
        }
        Ok(Some(SplitPrep {
            routed,
            snapshot,
            plan,
            addrs,
            max_child_depth,
        }))
    }

    /// The split's step 5, one body for the transaction and the lock
    /// fallback: validate the route, the segment's depth and the
    /// preparation's snapshot, install the children, repoint each
    /// child's directory range, and make sure every written partition is
    /// still authoritative.
    fn install_split<A: Access>(
        &self,
        a: &mut A,
        ctx: &mut MemCtx,
        h: u64,
        p: &SplitPrep,
    ) -> Result<(), Abort> {
        let seg = p.routed.seg();
        let routed = self.dir.validate(a, ctx, h, seg)?;
        if routed.local_depth() != p.routed.local_depth() {
            return a.abort(AB_STATE_CHANGED);
        }
        let dir = &routed.dir;
        if (p.max_child_depth as u32) > dir.depth {
            return a.abort(AB_STATE_CHANGED);
        }
        // Validate the snapshot: any concurrent mutation of the segment
        // must restart the planning.
        // lint:allow(fp-probe): split validation compares the whole segment against its snapshot; every slot must be observed
        if Self::read_segment(a, ctx, seg)? != p.snapshot {
            return a.abort(AB_STATE_CHANGED);
        }
        self.install_children(a, ctx, &p.plan, &p.addrs)?;
        let (mut first, mut last) = (usize::MAX, 0);
        for (child, &addr) in p.plan.iter().zip(&p.addrs) {
            let range = dir.repoint(a, child.prefix, child.depth, addr)?;
            first = first.min(range.start);
            last = last.max(range.end - 1);
            ctx.charge_dram(range.len().div_ceil(8) as u64);
        }
        // With the write guards held, make sure every written partition
        // is still authoritative (a stage copy finishing just before we
        // took the guards would otherwise strand these writes in a dead
        // generation).
        if !self.dir.tx_write_safe(dir, first, last) {
            return a.abort(AB_STATE_CHANGED);
        }
        Ok(())
    }

    /// Merge the segment routed for `h` into its buddy if it is empty and
    /// both sit at the same local depth. Runs after every successful
    /// remove, so the segment is usually still occupied; a plain read of
    /// its four fp words turns that case away before any transaction.
    /// Best-effort: any conflict or shape mismatch silently skips the
    /// merge.
    pub(crate) fn try_merge(&self, ctx: &mut MemCtx, h: u64) {
        ctx.stats_span(spash_pmem::SPAN_COMPACTION, |ctx| self.try_merge_impl(ctx, h))
    }

    fn try_merge_impl(&self, ctx: &mut MemCtx, h: u64) {
        let routed = self.dir.lookup(ctx, h);
        let seg = routed.seg();
        let d = routed.local_depth();
        if (d as u32) == 0 || (d as u32) <= self.cfg.initial_depth {
            return; // never shrink below the initial table
        }
        // During a doubling, skip (merge is an optimization).
        let (target, job) = self.dir.write_target();
        if job.is_some() || target.depth < d as u32 {
            return;
        }
        let prefix = h >> (64 - d as u32);
        let buddy_prefix = prefix ^ 1;
        let dir_depth = target.depth;
        let buddy_idx = (buddy_prefix as usize) << (dir_depth - d as u32);
        let (buddy_seg, buddy_depth) =
            unpack_entry(target.entries[buddy_idx].load(Ordering::Acquire));
        if buddy_depth != d || buddy_seg == seg {
            return;
        }
        let parent_prefix = prefix >> 1;
        // Advisory pre-check: a live slot always carries a non-zero slot
        // tag (fp8 never yields 0), so a non-zero low half means the
        // segment is occupied. The four words are half of one line (the
        // sidecar is line-aligned), which the remove just wrote: one
        // cache hit. A stale or zero tag only lets the transaction below
        // run its authoritative emptiness re-check.
        let fp0 = self.fptable.word_addr(seg, 0);
        let at = (fp0.0 % CACHELINE / 8) as usize;
        let fp_line = ctx.read_line(fp0);
        if fp_line[at..at + BUCKETS_PER_SEG as usize]
            .iter()
            .any(|&w| w as u32 != 0)
        {
            return;
        }

        let _ = self.htm.try_transaction(ctx, |tx, ctx| {
            let routed2 = self.dir.validate(tx, ctx, h, seg)?;
            if routed2.local_depth() != d || routed2.dir.gen != target.gen {
                return tx.abort(AB_STATE_CHANGED);
            }
            // The segment must still be empty: every key word zero.
            // lint:allow(fp-probe): transactional emptiness re-check before merge; every slot must be observed, not a probe
            let words = Self::read_segment(tx, ctx, seg)?;
            if words.iter().step_by(2).any(|&kw| kw != 0) {
                return tx.abort(AB_STATE_CHANGED);
            }
            // Buddy must still be at depth d.
            let bcell = &target.entries[buddy_idx];
            let bentry = tx.read_volatile_u64(target.line_id(buddy_idx), bcell)?;
            let (bseg, bd) = unpack_entry(bentry);
            if bd != d || bseg != buddy_seg {
                return tx.abort(AB_STATE_CHANGED);
            }
            // Repoint the parent's whole range at the buddy, depth d-1.
            let range = target.repoint(tx, parent_prefix, d - 1, buddy_seg)?;
            if !self.dir.tx_write_safe(&target, range.start, range.end - 1) {
                return tx.abort(AB_STATE_CHANGED);
            }
            ctx.charge_dram(range.len().div_ceil(8) as u64);
            self.seginfo.clear(tx, ctx, seg)?;
            self.seginfo.set(tx, ctx, buddy_seg, d - 1, parent_prefix)?;
            // The freed segment's cached (empty) bucket images must die
            // with it: its address may be reallocated and refilled while
            // a stale overlay entry still claims its buckets are empty.
            if !canary::armed(Canary::OverlayStale) {
                self.overlay.tx_bump(tx, ctx, seg)?;
            }
            Ok(())
        })
        .map(|()| {
            self.alloc.free_segment(ctx, seg);
            self.n_segments.fetch_sub(1, Ordering::Relaxed);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slot::{bucket_slots, SlotKey};
    use spash_index_api::hash_key;

    fn inline_entry(key: u64) -> SplitEntry {
        let h = hash_key(key);
        (
            SlotKey::Inline {
                key,
                fp: crate::slot::fp14(h),
            }
            .pack(),
            key * 10,
            h,
        )
    }

    impl SegImage {
        /// Number of live entries in the image.
        fn live(&self) -> u32 {
            (0..SLOTS_PER_SEG)
                .filter(|&s| !SlotKey::unpack(self.kw(s)).is_empty())
                .count() as u32
        }
    }

    #[test]
    fn image_places_in_main_bucket_first() {
        let mut img = SegImage::empty();
        let h = 0u64; // bucket 0
        assert!(img.place(SlotKey::Inline { key: 1, fp: 0 }.pack(), 7, h));
        assert!(!SlotKey::unpack(img.kw(0)).is_empty());
        assert_eq!(value_word::payload(img.vw(0)), 7);
    }

    #[test]
    fn image_overflow_sets_hint() {
        let mut img = SegImage::empty();
        // Fill bucket 2 (hash & 3 == 2).
        for k in 0..4 {
            assert!(img.place(SlotKey::Inline { key: k, fp: 0 }.pack(), k, 0b10));
        }
        // Fifth entry overflows into bucket 3 slot 12 with a hint in
        // bucket 2.
        assert!(img.place(SlotKey::Inline { key: 99, fp: 0 }.pack(), 99, 0b10));
        let hints: Vec<u16> = bucket_slots(2).map(|s| value_word::hint(img.vw(s))).collect();
        assert_eq!(hints.iter().filter(|&&x| x != 0).count(), 1);
        assert!(!SlotKey::unpack(img.kw(12)).is_empty());
    }

    #[test]
    fn image_full_bucket_without_hint_space_fails() {
        let mut img = SegImage::empty();
        for k in 0..4 {
            assert!(img.place(SlotKey::Inline { key: k, fp: 0 }.pack(), k, 0b01));
        }
        // 4 overflows exhaust the 4 hint slots...
        for k in 4..8 {
            assert!(img.place(SlotKey::Inline { key: k, fp: 0 }.pack(), k, 0b01));
        }
        // ...the 9th same-bucket entry cannot be placed.
        assert!(!img.place(SlotKey::Inline { key: 8, fp: 0 }.pack(), 8, 0b01));
    }

    #[test]
    fn plan_split_partitions_by_prefix_bit() {
        // Keys whose hashes differ in bit `d` must land in different
        // children.
        let d = 0u8;
        let entries: Vec<SplitEntry> = (0..10).map(inline_entry).collect();
        let plan = plan_split(&entries, d, 0).unwrap();
        assert!(plan.len() >= 2);
        let total: u32 = plan.iter().map(|c| c.image.live()).sum();
        assert_eq!(total, 10, "no entry may be lost");
        for child in &plan {
            assert!(child.depth > d);
            // Every entry in the child matches the child's prefix.
            for s in 0..SLOTS_PER_SEG {
                let kw = child.image.kw(s);
                if let SlotKey::Inline { key, .. } = SlotKey::unpack(kw) {
                    let h = hash_key(key);
                    assert_eq!(
                        h >> (64 - child.depth as u32),
                        child.prefix,
                        "entry in wrong child"
                    );
                }
            }
        }
    }

    #[test]
    fn plan_split_handles_empty_segment() {
        let plan = plan_split(&[], 2, 0).unwrap();
        assert_eq!(plan.len(), 2);
        assert_eq!(plan[0].image.live() + plan[1].image.live(), 0);
    }

    /// The fp-word pre-check is advisory: an occupied segment whose
    /// sidecar reads empty reaches the merge transaction, and the
    /// transaction's 16-slot re-check turns it away.
    #[test]
    fn zeroed_fp_words_do_not_merge_an_occupied_segment() {
        use crate::SpashConfig;
        use spash_index_api::PersistentIndex;
        use spash_pmem::{PmConfig, PmDevice};

        let dev = PmDevice::new(PmConfig::small_test());
        let mut ctx = dev.ctx();
        let cfg = SpashConfig {
            initial_depth: 1,
            ..SpashConfig::test_default()
        };
        let idx = Spash::format(&mut ctx, cfg).unwrap();
        let n = 2_000u64;
        for k in 0..n {
            idx.insert_u64(&mut ctx, k, k).unwrap();
        }
        // An occupied segment above the initial depth whose buddy sits at
        // the same depth.
        let (dir, _) = idx.dir.write_target();
        let (seg, h) = (0..dir.entries.len())
            .find_map(|i| {
                let (seg, d) = unpack_entry(dir.entries[i].load(Ordering::Acquire));
                let shift = dir.depth - d as u32;
                let prefix = (i >> shift) as u64;
                let buddy = ((prefix ^ 1) as usize) << shift;
                let (bseg, bd) = unpack_entry(dir.entries[buddy].load(Ordering::Acquire));
                let merge_shape = d > 1 && bd == d && bseg != seg;
                (merge_shape && !idx.snapshot_segment(&mut ctx, seg).1.is_empty())
                    .then_some((seg, prefix << (64 - d as u32)))
            })
            .expect("a segment with a same-depth buddy");
        for b in 0..BUCKETS_PER_SEG {
            Plain::ok(idx.fptable.write_word(&mut Plain, &mut ctx, seg, b, 0));
        }
        let (capacity, aborts) = (idx.capacity(), idx.htm_stats().explicit_aborts);
        idx.try_merge(&mut ctx, h);
        assert_eq!(idx.capacity(), capacity, "an occupied segment was merged");
        assert_eq!(idx.dir.lookup(&mut ctx, h).seg(), seg);
        assert_eq!(
            idx.htm_stats().explicit_aborts,
            aborts + 1,
            "the transaction's emptiness re-check turned the merge away"
        );
        let mut out = Vec::new();
        for k in 0..n {
            out.clear();
            assert!(idx.oracle_scan_get(&mut ctx, k, &mut out), "key {k}");
        }
        let image = Plain::ok(Spash::read_segment(&mut Plain, &mut ctx, seg));
        crate::fptable::rebuild_segment(&idx.fptable, &mut ctx, seg, &image);
        idx.verify_integrity(&mut ctx).unwrap();
    }
}
