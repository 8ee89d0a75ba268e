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
//! lines in flight. The segment loop below reads through one prefetch
//! window ([`Window`]): the lines it will read, queued in the order it
//! reads them and issued from the front whenever the prefetch table has
//! room. Segment *k*'s image — its seginfo record, four bucket lines and
//! fp line — is read in pass *k*, and its blob keys in pass *k+1*, after
//! segment *k+1*'s image. So the stream runs image *k+1*, blob keys *k*,
//! image *k+2*, blob keys *k+1*, …: a segment's distinct `Ptr` blob
//! lines are queued the moment its image is read and are in flight while
//! the segment before it rehashes. Every line prefetched is read before
//! recovery returns, a reclaimed segment's included, and no prefetch is
//! issued into a full table: the loop starts with an empty table and
//! issues only while it has room.

use std::collections::VecDeque;
use std::sync::Arc;

use spash_alloc::PmAllocator;
use spash_pmem::{line_of, MemCtx, PmAddr, CACHELINE};

use crate::access::Plain;
use crate::config::SpashConfig;
use crate::dir::Directory;
use crate::fptable::FpTable;
use crate::ops::Spash;
use crate::seginfo::SegInfoTable;
use crate::slot::{key_addr, SlotKey, BUCKETS_PER_SEG, SLOTS_PER_BUCKET, SLOTS_PER_SEG};

/// The blob-key lines recovery reads for `image`, by slot: slot `i`'s
/// line if its key is a `Ptr` and no earlier slot's key shares the line,
/// so each line is read once to resolve the segment's hashes.
fn blob_lines(image: &[u64; 32]) -> [Option<u64>; SLOTS_PER_SEG as usize] {
    let mut lines = std::array::from_fn(|i| match SlotKey::unpack(image[2 * i]) {
        SlotKey::Ptr { addr, .. } => Some(line_of(addr.0)),
        _ => None,
    });
    for i in 0..lines.len() {
        if lines[..i].contains(&lines[i]) {
            lines[i] = None;
        }
    }
    lines
}

/// Recovery's one prefetch window: the lines the segment loop will read,
/// oldest first, in the order it reads them. A line is queued once it is
/// known — an image's lines from the segment list, blob-key lines once
/// the image holding their `Ptr` keys is read — and issued from the
/// front whenever the prefetch table has room; a line read before its
/// turn to issue is never issued. A line already resident (a buddy's fp
/// line, a neighbour's seginfo line, a blob line shared with the
/// segment before) takes no table entry. The queue holds at most two
/// segments' blob lines and two images, and is allocated once.
struct Window {
    lines: VecDeque<PmAddr>,
    /// How many of the front `lines` are in flight.
    issued: usize,
}

impl Window {
    fn new() -> Self {
        Self {
            // Two images (seginfo, buckets, fp) and two segments' blobs.
            lines: VecDeque::with_capacity(2 * (2 + (BUCKETS_PER_SEG + SLOTS_PER_SEG) as usize)),
            issued: 0,
        }
    }

    /// Queue `seg`'s image lines in the order the loop reads them.
    fn push_image(&mut self, seginfo: &SegInfoTable, fptable: &FpTable, seg: PmAddr) {
        self.lines.push_back(seginfo.record_addr(seg));
        self.lines
            .extend((0..BUCKETS_PER_SEG).map(|b| key_addr(seg, b * SLOTS_PER_BUCKET)));
        self.lines.push_back(fptable.word_addr(seg, 0));
    }

    /// Queue a segment's [`blob_lines`].
    fn push_blob_keys(&mut self, blobs: &[Option<u64>; SLOTS_PER_SEG as usize]) {
        self.lines.extend(blobs.iter().flatten().map(|&l| PmAddr(l * CACHELINE)));
    }

    /// Issue queued lines, in order, while the prefetch table has room.
    fn issue(&mut self, ctx: &mut MemCtx) {
        while self.issued < self.lines.len() && ctx.prefetch_room() > 0 {
            ctx.prefetch(self.lines[self.issued]);
            self.issued += 1;
        }
    }

    /// The front `n` queued lines have been read: drop them, then refill
    /// the table.
    fn read(&mut self, ctx: &mut MemCtx, n: usize) {
        self.lines.drain(..n);
        self.issued = self.issued.saturating_sub(n);
        self.issue(ctx);
    }
}

/// Resolve the key hash of each of `image`'s slots (`None` for an empty
/// one), reading the blob key behind every `Ptr` slot. Each of the
/// segment's `blobs` lines is the window's next line.
fn resolve_hashes(
    ctx: &mut MemCtx,
    win: &mut Window,
    image: &[u64; 32],
    blobs: &[Option<u64>; SLOTS_PER_SEG as usize],
) -> [Option<u64>; SLOTS_PER_SEG as usize] {
    std::array::from_fn(|i| {
        let h = Spash::hash_of_kw(ctx, image[2 * i]);
        if blobs[i].is_some() {
            win.read(ctx, 1);
        }
        h
    })
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
        let mut win = Window::new();
        for &seg in segs.iter().take(2) {
            win.push_image(&seginfo, &fptable, seg);
        }
        win.issue(ctx);
        // Pass k reads segment k's image, then resolves segment k-1's
        // blob keys (`prev`) and rebuilds or reclaims it.
        let mut prev = None;
        for k in 0..=segs.len() {
            let cur = segs.get(k).map(|&seg| {
                let info = seginfo.read(ctx, seg);
                win.read(ctx, 1);
                let image = Plain::ok(Spash::read_segment(&mut Plain, ctx, seg));
                win.read(ctx, BUCKETS_PER_SEG as usize);
                // Read, not just overwritten: a write does not consume
                // the line's pending prefetch.
                ctx.read_line(fptable.word_addr(seg, 0));
                win.read(ctx, 1);
                let blobs = blob_lines(&image);
                if info.is_some() {
                    win.push_blob_keys(&blobs);
                }
                if let Some(&next) = segs.get(k + 2) {
                    win.push_image(&seginfo, &fptable, next);
                }
                win.issue(ctx);
                (seg, info, image, blobs)
            });
            match prev {
                Some((seg, Some((depth, prefix)), image, blobs)) => {
                    triples.push((seg, depth, prefix));
                    // Rebuild the fp sidecar from the slots (heals any
                    // tag torn between publication and the crash); the
                    // same segment image counts the live entries.
                    let hashes = resolve_hashes(ctx, &mut win, &image, &blobs);
                    entries += crate::fptable::rebuild_segment(&fptable, ctx, seg, &image, &hashes);
                }
                // Allocated by an uncommitted split: reclaim.
                Some((seg, None, ..)) => alloc.free_segment(ctx, seg),
                None => {}
            }
            prev = cur;
        }
        debug_assert!(win.lines.is_empty(), "a queued recovery line was never read");
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

    /// Recovery's segment loop keeps a segment's blob-key lines in
    /// flight while the segment before it rehashes, so a many-segment
    /// image whose keys are all `Ptr`s recovers at about the prefetch
    /// table's rate — one PM read latency per table's worth of lines in
    /// flight — not at one exposed latency per segment. The bound is virtual ns per
    /// line fetched over the whole recovery, header walk and directory
    /// rebuild included.
    #[test]
    fn blob_keys_overlap_across_segments() {
        use spash_pmem::CostModel;
        let dev = PmDevice::new(PmConfig {
            arena_size: 64 << 20,
            ..PmConfig::small_test()
        });
        let mut ctx = dev.ctx();
        let idx = Spash::format(&mut ctx, SpashConfig::test_default()).unwrap();
        for k in 0..20_000u64 {
            // A 16-byte value moves the key into a blob behind a `Ptr`.
            idx.insert(&mut ctx, k, &[k as u8; 16]).unwrap();
        }
        let report = idx.verify_integrity(&mut ctx).unwrap();
        assert_eq!(report.blob_entries, 20_000, "{report:?}");
        let segments = idx.n_segments.load(std::sync::atomic::Ordering::Relaxed);
        drop(idx);
        dev.simulate_power_failure();

        let mut ctx = dev.ctx();
        let (t0, before, room) = (ctx.now(), dev.snapshot(), ctx.prefetch_room());
        let rec = Spash::recover(&mut ctx, SpashConfig::test_default()).unwrap();
        let (ns, lines) = (ctx.now() - t0, dev.snapshot().since(&before).cl_reads);
        assert_eq!(ctx.prefetch_room(), room, "a recovery prefetch was never read");
        assert_eq!(rec.entries(), 20_000);
        let per_line = ns as f64 / lines as f64;
        // A fresh context's free room is the whole table.
        let floor = CostModel::PM_READ_MISS_NS as f64 / room as f64;
        assert!(
            per_line < 1.3 * floor,
            "{segments} segments, {lines} lines fetched in {ns} ns: {per_line:.1} ns per line"
        );
    }
}
