//! Post-crash recovery.
//!
//! Spash's directory is volatile and its segments are metadata-free, so
//! recovery reconstructs the index from two persistent sources that are
//! kept transactionally consistent with the data:
//!
//! 1. the allocator's chunk headers — which XPLines are live segments;
//! 2. the segment-info table — each segment's (local depth, prefix),
//!    written inside the same HTM transaction as every split/merge.
//!
//! Rebuild = walk the chunk headers for the live segments, read each
//! segment's (depth, prefix) record from the seginfo table, allocate a
//! directory of `max(depth)` and fan each segment out over its
//! `2^(D-d)` entries. No key is rehashed to find a prefix or a depth. A
//! segment whose chunk header exists but whose info record is empty was
//! allocated by a split that never committed — it is unreachable, and
//! recovery returns it to the allocator (the only kind of leak a crash
//! can produce here).
//!
//! Rehashing only rebuilds the fingerprint sidecar: every live segment's
//! fp words are recomputed from the authoritative slot contents
//! ([`crate::fptable::rebuild_words`]), and the same segment image counts
//! the live entries. Tags are hints, so a tag torn by an ADR crash
//! between tag and slot publication is *healed* here rather than repaired
//! in place — which in turn lets the integrity walker hold the live table
//! to exact equality with the rebuild rule.
//!
//! Recovery is latency-bound, so it runs as the §III-D prefetch pipeline
//! (prefetch, then consume) in two layers. The allocator's header walk
//! reads the header table a line at a time with a fixed lookahead of
//! lines in flight. The segment loop below prefetches segment *i+1*'s six
//! lines — its seginfo record, four bucket lines and fp line — before it
//! reads and rehashes segment *i*, and
//! [`crate::fptable::rebuild_segment`] keeps segment *i*'s blob-key lines
//! in flight while it resolves the hashes. Every line prefetched is read
//! before recovery returns, a reclaimed segment's included, and no
//! prefetch is issued into a full table: the loop starts with an empty
//! table and holds at most two segments' lines plus the blob window,
//! which is sized by the table's free room.

use std::sync::Arc;

use spash_alloc::PmAllocator;
use spash_pmem::{MemCtx, PmAddr};

use crate::access::Plain;
use crate::config::SpashConfig;
use crate::dir::Directory;
use crate::fptable::FpTable;
use crate::ops::Spash;
use crate::seginfo::SegInfoTable;
use crate::slot::{key_addr, BUCKETS_PER_SEG, SLOTS_PER_BUCKET};

/// Prefetch the six lines recovery reads of `seg`: its four bucket
/// lines, its seginfo record's line and its fp line. A line already
/// resident (a buddy's fp line, a neighbour's seginfo line) takes no
/// table entry, so two segments' worth never take more than 12 of the
/// 16.
fn prefetch_segment(ctx: &mut MemCtx, seginfo: &SegInfoTable, fptable: &FpTable, seg: PmAddr) {
    let buckets = (0..BUCKETS_PER_SEG).map(|b| key_addr(seg, b * SLOTS_PER_BUCKET));
    for addr in buckets.chain([seginfo.record_addr(seg), fptable.word_addr(seg, 0)]) {
        assert!(ctx.prefetch_room() > 0, "prefetch table full");
        ctx.prefetch(addr);
    }
}

impl Spash {
    /// Rebuild the index from a crashed (or cleanly stopped) device.
    /// Returns `None` if the arena holds no formatted index.
    pub fn recover(ctx: &mut MemCtx, cfg: SpashConfig) -> Option<Self> {
        ctx.stats_span(spash_pmem::SPAN_LOG_REPLAY, |ctx| Self::recover_impl(ctx, cfg))
    }

    fn recover_impl(ctx: &mut MemCtx, cfg: SpashConfig) -> Option<Self> {
        let dev = Arc::clone(ctx.device());
        let rec = PmAllocator::recover(ctx)?;
        let alloc = Arc::new(rec.alloc);
        let (seginfo, fptable) = Self::tables(&alloc);

        let mut triples = Vec::with_capacity(rec.segments.len());
        let mut entries = 0u64;
        let segs = &rec.segments;
        if let Some(&first) = segs.first() {
            prefetch_segment(ctx, &seginfo, &fptable, first);
        }
        for (i, &seg) in segs.iter().enumerate() {
            if let Some(&next) = segs.get(i + 1) {
                prefetch_segment(ctx, &seginfo, &fptable, next);
            }
            // Consume this segment's lookahead whichever arm it takes.
            let info = seginfo.read(ctx, seg);
            let image = Plain::ok(Spash::read_segment(&mut Plain, ctx, seg));
            // Read, not just overwritten: a write does not consume the
            // line's pending prefetch.
            ctx.read_line(fptable.word_addr(seg, 0));
            match info {
                Some((depth, prefix)) => {
                    triples.push((seg, depth, prefix));
                    // Rebuild the fp sidecar from the slots (heals any
                    // tag torn between publication and the crash); the
                    // same segment image counts the live entries.
                    entries += crate::fptable::rebuild_segment(&fptable, ctx, seg, &image);
                }
                None => {
                    // Allocated by an uncommitted split: reclaim.
                    alloc.free_segment(ctx, seg);
                }
            }
        }
        if triples.is_empty() {
            return None;
        }
        // Sanity: prefixes must tile the hash space exactly once.
        let depth = triples.iter().map(|&(_, d, _)| d as u32).max().unwrap();
        let mut covered = 0u64;
        for &(_, d, _) in &triples {
            covered += 1u64 << (depth - d as u32);
        }
        if covered != 1u64 << depth {
            return None; // corrupt metadata
        }

        let dir = Directory::rebuild(&triples);
        Some(Self::assemble(dev, alloc, cfg, dir, entries, triples.len() as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spash_index_api::PersistentIndex;
    use spash_pmem::{PmConfig, PmDevice};

    /// A segment allocated by a split that never committed (the `None`
    /// arm) still has its lookahead read: recovery of an image with such
    /// segments between live ones, `Ptr` keys, inline keys and live
    /// overflow hints leaves no prefetch pending. A prefetch issued into
    /// a full table would have panicked ("prefetch table full").
    #[test]
    fn reclaimed_segments_consume_their_lookahead() {
        let dev = PmDevice::new(PmConfig {
            arena_size: 64 << 20,
            ..PmConfig::small_test()
        });
        let mut ctx = dev.ctx();
        let idx = Spash::format(&mut ctx, SpashConfig::test_default()).unwrap();
        let mut orphans = Vec::new();
        for round in 0..4u64 {
            // A split allocated its new segment and crashed before the
            // commit: a segment chunk header, no seginfo record. Later
            // splits put live segments after it.
            orphans.push(idx.alloc.alloc_segment(&mut ctx).unwrap());
            for k in round * 1_000..(round + 1) * 1_000 {
                // An 8-byte value keeps the key inline; a 16-byte one
                // moves it into a blob behind a `Ptr` key word.
                idx.insert_u64(&mut ctx, 2 * k, k).unwrap();
                idx.insert(&mut ctx, 2 * k + 1, &[k as u8; 16]).unwrap();
            }
        }
        let report = idx.verify_integrity(&mut ctx).unwrap();
        assert!(report.blob_entries > 0 && report.overflow_entries > 0, "{report:?}");
        let entries = idx.entries();
        drop(idx);
        dev.simulate_power_failure();

        let mut ctx = dev.ctx();
        let census = PmAllocator::census(&mut ctx).unwrap();
        let last = *census.segments.last().unwrap();
        assert!(orphans.iter().all(|o| census.segments.contains(o) && *o < last));
        let room = ctx.prefetch_room();
        let rec = Spash::recover(&mut ctx, SpashConfig::test_default()).unwrap();
        assert_eq!(ctx.prefetch_room(), room, "a recovery prefetch was never read");
        assert_eq!(rec.entries(), entries);
        rec.verify_integrity(&mut ctx).unwrap();
        let census = PmAllocator::census(&mut ctx).unwrap();
        assert!(orphans.iter().all(|o| !census.segments.contains(o)), "orphans reclaimed");
    }
}
