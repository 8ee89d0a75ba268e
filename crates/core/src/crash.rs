//! Spash's plug into the crash-point fault-injection sweep
//! (`spash_index_api::crashpoint`).
//!
//! The recover closure runs [`Spash::recover`]; the recovered index then
//! audits itself ([`Recovered::audit`]) in one walk and one census:
//!
//! 1. the full structural walk ([`Spash::verify_integrity`]) — any
//!    violation is a hard sweep failure. The same walk hands back every
//!    address the index can reach: the segments in the directory and the
//!    blobs their slots point at;
//! 2. a heap census against that reachable set — every reachable address
//!    must be a live allocation in the persistent heap's own books
//!    (anything else is use-after-free-grade corruption), while live
//!    allocations the index cannot reach are *counted* as leaks. Leaks
//!    are expected in bounded numbers: the DCMM frees small slots into
//!    volatile caches without clearing the persistent bits (DESIGN.md),
//!    and an in-flight operation can lose its freshly allocated blob to
//!    the crash. The heap's books must also keep the allocator's
//!    high-water invariant: no header at or above the persisted mark is
//!    in use.

use std::collections::HashSet;

use spash_alloc::PmAllocator;
use spash_index_api::crashpoint::{CrashTarget, Recovered};
use spash_pmem::MemCtx;

use crate::config::SpashConfig;
use crate::ops::Spash;

impl Spash {
    /// Spash as a [`CrashTarget`] for the crash-point sweep.
    pub fn crash_target(cfg: SpashConfig) -> CrashTarget {
        let fmt_cfg = cfg.clone();
        CrashTarget {
            name: "Spash".into(),
            // Every replay and every recovery builds its own index, hot-key
            // detector included, so the media-write sequence is
            // reproducible.
            format: Box::new(move |ctx| {
                Box::new(Spash::format(ctx, fmt_cfg.clone()).expect("format Spash"))
            }),
            recover: Box::new(move |ctx| {
                Spash::recover(ctx, cfg.clone()).map(|idx| Box::new(idx) as Box<dyn Recovered>)
            }),
        }
    }
}

impl Recovered for Spash {
    /// The integrity walk ([`Spash::verify_integrity`]), then the heap
    /// census ([`spash_alloc::HeapCensus::audit`]) against the addresses
    /// that walk found reachable, and the allocator's high-water
    /// invariant ([`PmAllocator::check_high_water`]). A failed walk is
    /// the audit's finding: the census then has no reachable set to
    /// check, so it does not run and no leak is counted.
    fn audit(&self, ctx: &mut MemCtx) -> (u64, Option<String>) {
        let reachable: HashSet<u64> = match self.walk(ctx) {
            Ok((_, reachable)) => reachable.into_iter().map(|a| a.0).collect(),
            Err(e) => return (0, Some(e.to_string())),
        };
        let (leaked, census_err) = match PmAllocator::census(ctx) {
            Some(census) => census.audit(&reachable),
            None => (0, Some("no formatted heap found".into())),
        };
        (leaked, census_err.or_else(|| PmAllocator::check_high_water(ctx).err()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::tests::crashed_ptr_image;
    use crate::slot::{key_addr, SlotKey, BUCKETS_PER_SEG, SLOTS_PER_BUCKET, SLOTS_PER_SEG};
    use spash_index_api::PersistentIndex;
    use spash_pmem::{line_of, CostModel, PmConfig, PmDevice};

    /// The audit reads each line once, through the prefetch window: on a
    /// recovered image whose keys are all `Ptr`s it fetches at most the
    /// segments' image lines, the blobs' key lines and the census's
    /// header lines, reads every line it prefetches, and runs at about
    /// the prefetch table's rate.
    #[test]
    fn audit_fetches_no_line_twice() {
        let dev = crashed_ptr_image(20_000);
        // The census's header lines alone, from a cold cache.
        let mut ctx = dev.ctx();
        let before = dev.snapshot();
        let census = PmAllocator::census(&mut ctx).unwrap();
        let header_lines = dev.snapshot().since(&before).cl_reads;
        dev.simulate_power_failure();

        let mut ctx = dev.ctx();
        let rec = Spash::recover(&mut ctx, SpashConfig::test_default()).unwrap();
        let (t0, before, room) = (ctx.now(), dev.snapshot(), ctx.prefetch_room());
        assert_eq!(rec.audit(&mut ctx), (0, None));
        let (ns, lines) = (ctx.now() - t0, dev.snapshot().since(&before).cl_reads);
        assert_eq!(ctx.prefetch_room(), room, "an audit prefetch was never read");
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
        // The blobs, from the slots' key words as the arena holds them
        // (no modelled access).
        let blobs: Vec<u64> = census
            .segments
            .iter()
            .flat_map(|&seg| (0..SLOTS_PER_SEG).map(move |s| key_addr(seg, s)))
            .filter_map(|a| match SlotKey::unpack(dev.arena().load_u64(a)) {
                SlotKey::Ptr { addr, .. } => Some(addr.0),
                _ => None,
            })
            .collect();
        assert_eq!(blobs.len(), 20_000);
        let blob_lines: HashSet<u64> = blobs.iter().map(|&a| line_of(a)).collect();
        let bound = header_lines + (image_lines.len() + blob_lines.len()) as u64;
        assert!(lines <= bound, "the audit fetched {lines} lines, more than {bound}");
        let per_line = ns as f64 / lines as f64;
        // A fresh context's free room is the whole table.
        let floor = CostModel::PM_READ_MISS_NS as f64 / room as f64;
        assert!(
            per_line < 1.3 * floor,
            "{lines} lines fetched in {ns} ns: {per_line:.1} ns per line"
        );
    }

    /// The census half of the audit: a blob the index still reaches but
    /// the heap's books no longer hold is corruption, named by address;
    /// a small slot nothing reaches is a counted leak, not an error.
    #[test]
    fn audit_catches_a_freed_reachable_blob_and_counts_a_leak() {
        let dev = PmDevice::new(PmConfig {
            arena_size: 64 << 20,
            ..PmConfig::small_test()
        });
        let mut ctx = dev.ctx();
        let idx = Spash::format(&mut ctx, SpashConfig::test_default()).unwrap();
        for k in 0..500u64 {
            idx.insert(&mut ctx, k, &[k as u8; 16]).unwrap();
        }
        // Too large for a small class: the blob is a large allocation,
        // whose free clears it from the books.
        idx.insert(&mut ctx, 500, &[7u8; 200]).unwrap();
        assert_eq!(idx.audit(&mut ctx), (0, None));

        idx.alloc.alloc(&mut ctx, 40).unwrap();
        assert_eq!(idx.audit(&mut ctx), (1, None), "an unreachable small slot is a leak");

        let census = PmAllocator::census(&mut ctx).unwrap();
        let [(blob, _)] = census.large[..] else {
            panic!("one large allocation: {:?}", census.large)
        };
        idx.alloc.free(&mut ctx, blob, idx.blob_alloc_size(16 + 200));
        let (leaked, err) = idx.audit(&mut ctx);
        assert_eq!(leaked, 0);
        let err = err.expect("a reachable blob freed behind the index's back");
        assert!(err.contains(&format!("{:#x}", blob.0)), "{err}");
    }
}
