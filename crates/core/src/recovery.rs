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
//! to exact equality with the rebuild rule. The rule reads only hash bits
//! 0–1 and 3–24, and every occupied key word holds them: an inline key is
//! hashed, and a `Ptr` word carries them beside its address
//! ([`crate::slot::SlotKey::rule_hash`]). So the rebuild is a function of
//! the segment image alone, and recovery reads no blob.
//!
//! Recovery is latency-bound, so it runs as the §III-D prefetch pipeline
//! (prefetch, then consume) in two layers, both reading through the
//! workspace's one prefetch window ([`Window`]), which issues lines from
//! the front of its stream whenever the prefetch table has room: the
//! table alone decides how many lines are in flight. The allocator's
//! header walk streams the header table a line at a time. The segment
//! loop below makes one pass: read segment *k*'s image — its seginfo
//! record, four bucket lines and fp line — then rebuild it or reclaim
//! it. Its stream is every segment's image lines, in the order the loop
//! reads them, so images are in flight as far ahead as the table allows.
//! Every line prefetched is read before recovery returns, a reclaimed
//! segment's included, and no prefetch is issued into a full table. The
//! integrity walker reads the same images through the same window
//! ([`crate::integrity`]).

use std::sync::Arc;

use spash_alloc::PmAllocator;
use spash_pmem::{MemCtx, PmAddr, Window};

use crate::access::Plain;
use crate::config::SpashConfig;
use crate::dir::Directory;
use crate::fptable::FpTable;
use crate::ops::Spash;
use crate::seginfo::SegInfoTable;
use crate::slot::{key_addr, BUCKETS_PER_SEG, SLOTS_PER_BUCKET};

/// Lines in one segment's image, in read order: the seginfo record, the
/// four bucket lines, the fp line.
pub(crate) const IMAGE_LINES: usize = 2 + BUCKETS_PER_SEG as usize;

/// Line `j` of `seg`'s image, in read order ([`IMAGE_LINES`]).
pub(crate) fn image_line(info: &SegInfoTable, fp: &FpTable, seg: PmAddr, j: usize) -> PmAddr {
    match j {
        0 => info.record_addr(seg),
        j if j <= BUCKETS_PER_SEG as usize => key_addr(seg, (j as u8 - 1) * SLOTS_PER_BUCKET),
        _ => fp.word_addr(seg, 0),
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

        let segs = &rec.segments;
        let mut triples = Vec::with_capacity(segs.len());
        let mut entries = 0u64;
        let mut win = Window::new(ctx, segs.len() * IMAGE_LINES, |i| {
            image_line(&seginfo, &fptable, segs[i / IMAGE_LINES], i % IMAGE_LINES)
        });
        for &seg in segs {
            let info = seginfo.read(ctx, seg);
            win.read(ctx, 1);
            let image = Plain::ok(Spash::read_segment(&mut Plain, ctx, seg));
            win.read(ctx, BUCKETS_PER_SEG as usize);
            // Read, not just overwritten: a write does not consume the
            // line's pending prefetch.
            ctx.read_line(fptable.word_addr(seg, 0));
            win.read(ctx, 1);
            match info {
                Some((depth, prefix)) => {
                    triples.push((seg, depth, prefix));
                    // Rebuild the fp sidecar from the slots (heals any
                    // tag torn between publication and the crash); the
                    // same segment image counts the live entries.
                    entries += crate::fptable::rebuild_segment(&fptable, ctx, seg, &image);
                }
                // Allocated by an uncommitted split: reclaim.
                None => alloc.free_segment(ctx, seg),
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
pub(crate) mod tests {
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

    /// A device holding `n` keys, every one behind a `Ptr` key word,
    /// after a power failure.
    pub(crate) fn crashed_ptr_image(n: u64) -> Arc<PmDevice> {
        let dev = PmDevice::new(PmConfig {
            arena_size: 64 << 20,
            ..PmConfig::small_test()
        });
        let mut ctx = dev.ctx();
        let idx = Spash::format(&mut ctx, SpashConfig::test_default()).unwrap();
        for k in 0..n {
            // A 16-byte value moves the key into a blob behind a `Ptr`.
            idx.insert(&mut ctx, k, &[k as u8; 16]).unwrap();
        }
        let report = idx.verify_integrity(&mut ctx).unwrap();
        assert_eq!(report.blob_entries, n, "{report:?}");
        drop(idx);
        dev.simulate_power_failure();
        dev
    }

    /// Recovery rebuilds the fp sidecar from the key words alone: on an
    /// image whose keys are all `Ptr`s it fetches exactly the allocator's
    /// header walk and each distinct line of the segments' images
    /// (seginfo record, four bucket lines, fp line), and no blob line.
    /// With images in flight as far ahead as the prefetch table allows,
    /// it runs at about the table's rate: one PM read latency per
    /// table's worth of lines, over the whole recovery, header walk and
    /// directory rebuild included.
    #[test]
    fn recovery_reads_no_blob_line() {
        use spash_pmem::{line_of, CostModel};
        use std::collections::HashSet;
        let dev = crashed_ptr_image(20_000);
        // The header walk alone, from a cold cache.
        let mut ctx = dev.ctx();
        let before = dev.snapshot();
        let census = PmAllocator::census(&mut ctx).unwrap();
        let header_lines = dev.snapshot().since(&before).cl_reads;
        dev.simulate_power_failure();

        let mut ctx = dev.ctx();
        let (t0, before, room) = (ctx.now(), dev.snapshot(), ctx.prefetch_room());
        let rec = Spash::recover(&mut ctx, SpashConfig::test_default()).unwrap();
        let (ns, lines) = (ctx.now() - t0, dev.snapshot().since(&before).cl_reads);
        assert_eq!(ctx.prefetch_room(), room, "a recovery prefetch was never read");
        assert_eq!(rec.entries(), 20_000);
        let image_lines: HashSet<u64> = census
            .segments
            .iter()
            .flat_map(|&seg| {
                let buckets =
                    (0..BUCKETS_PER_SEG).map(move |b| key_addr(seg, b * SLOTS_PER_BUCKET));
                let tables = [rec.seginfo.record_addr(seg), rec.fptable.word_addr(seg, 0)];
                tables.into_iter().chain(buckets)
            })
            .map(|a| line_of(a.0))
            .collect();
        assert_eq!(
            lines,
            header_lines + image_lines.len() as u64,
            "recovery fetched a line outside the images"
        );
        let per_line = ns as f64 / lines as f64;
        // A fresh context's free room is the whole table.
        let floor = CostModel::PM_READ_MISS_NS as f64 / room as f64;
        assert!(
            per_line < 1.3 * floor,
            "{} segments, {lines} lines fetched in {ns} ns: {per_line:.1} ns per line",
            census.segments.len()
        );
        rec.verify_integrity(&mut ctx).unwrap();
    }

    /// Garbage in every fp word of segments whose keys are all `Ptr`s is
    /// healed from the key words alone: the walker, which reads each
    /// blob's key, finds the rebuilt table exact.
    #[test]
    fn ptr_only_segments_heal_garbage_fp_words() {
        let dev = crashed_ptr_image(3_000);
        let mut ctx = dev.ctx();
        let census = PmAllocator::census(&mut ctx).unwrap();
        let rec = Spash::recover(&mut ctx, SpashConfig::test_default()).unwrap();
        for &seg in &census.segments {
            for b in 0..BUCKETS_PER_SEG {
                let garbage = 0xDEAD_BEEF_DEAD_BEEF;
                Plain::ok(rec.fptable.write_word(&mut Plain, &mut ctx, seg, b, garbage));
            }
        }
        assert!(rec.verify_integrity(&mut ctx).is_err(), "the garbage went unseen");
        drop(rec);
        dev.simulate_power_failure();

        let mut ctx = dev.ctx();
        let rec = Spash::recover(&mut ctx, SpashConfig::test_default()).unwrap();
        let report = rec
            .verify_integrity(&mut ctx)
            .unwrap_or_else(|e| panic!("garbage fp word survived: {e}"));
        assert_eq!(report.blob_entries, 3_000, "{report:?}");
        let mut out = Vec::new();
        for k in 0..3_000u64 {
            out.clear();
            assert!(rec.get(&mut ctx, k, &mut out) && out == [k as u8; 16], "key {k}");
        }
    }
}
