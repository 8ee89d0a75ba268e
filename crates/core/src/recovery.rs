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
//! Rebuild = scan live segments, read their records, allocate a directory
//! of `max(depth)` and fan each segment out over its `2^(D-d)` entries,
//! then count live slots for the entries counter. A segment whose chunk
//! header exists but whose info record is empty was allocated by a split
//! that never committed — it is unreachable, and recovery returns it to
//! the allocator (the only kind of leak a crash can produce here).
//!
//! Recovery also rebuilds every live segment's fingerprint sidecar words
//! from the authoritative slot contents ([`crate::fptable::rebuild_words`]).
//! Tags are hints, so a tag torn by an ADR crash between tag and slot
//! publication is *healed* here rather than repaired in place — which in
//! turn lets the integrity walker hold the live table to exact equality
//! with the rebuild rule.

use std::sync::Arc;

use spash_alloc::PmAllocator;
use spash_pmem::MemCtx;

use crate::config::SpashConfig;
use crate::dir::Directory;
use crate::ops::Spash;

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
        for seg in rec.segments {
            match seginfo.read(ctx, seg) {
                Some((depth, prefix)) => {
                    triples.push((seg, depth, prefix));
                    // Rebuild the fp sidecar from the slots (heals any
                    // tag torn between publication and the crash); the
                    // same segment image counts the live entries.
                    entries += crate::fptable::rebuild_segment(&fptable, ctx, seg);
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
