//! Spash's plug into the crash-point fault-injection sweep
//! (`spash_index_api::crashpoint`).
//!
//! The recover closure runs [`Spash::recover`]; the recovered index then
//! audits itself ([`Recovered::audit`]) two ways:
//!
//! 1. the full structural walk ([`Spash::verify_integrity`]) — any
//!    violation is a hard sweep failure;
//! 2. a heap census against reachability — every address the index can
//!    reach (segments from the directory, blobs from slots) must be a live
//!    allocation in the persistent heap's own books (anything else is
//!    use-after-free-grade corruption), while live allocations the index
//!    cannot reach are *counted* as leaks. Leaks are expected in bounded
//!    numbers: the DCMM frees small slots into volatile caches without
//!    clearing the persistent bits (DESIGN.md), and an in-flight operation
//!    can lose its freshly allocated blob to the crash. The heap's books
//!    must also keep the allocator's high-water invariant: no header at or
//!    above the persisted mark is in use.

use std::collections::HashSet;
use std::sync::atomic::Ordering;

use spash_alloc::PmAllocator;
use spash_index_api::crashpoint::{CrashTarget, Recovered};
use spash_pmem::MemCtx;

use crate::config::SpashConfig;
use crate::ops::Spash;
use crate::slot::{key_addr, SlotKey, SLOTS_PER_SEG};

impl Spash {
    /// Addresses the index can reach: every distinct segment in the
    /// directory, plus every blob a slot points at.
    fn reachable(&self, ctx: &mut MemCtx) -> HashSet<u64> {
        let mut reachable: HashSet<u64> = HashSet::new();
        let (dir, _) = self.dir.write_target();
        // Deduplicate in directory order (not via a HashSet): the walk
        // below reads PM per segment, and a hash-ordered walk would make
        // the modelled cache's hit/miss pattern nondeterministic.
        let mut segs: Vec<_> = dir
            .entries
            .iter()
            .map(|e| crate::dir::unpack_entry(e.load(Ordering::Acquire)).0)
            .collect();
        segs.sort_unstable();
        segs.dedup();
        for &seg in &segs {
            reachable.insert(seg.0);
            for idx in 0..SLOTS_PER_SEG {
                if let SlotKey::Ptr { addr, .. } =
                    // lint:allow(fp-probe): reachability audit walks the raw durable image; it must see every slot, fp-filtered or not
                    SlotKey::unpack(ctx.read_u64(key_addr(seg, idx)))
                {
                    reachable.insert(addr.0);
                }
            }
        }
        reachable
    }

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
    /// The structural walk, then the heap census
    /// ([`spash_alloc::HeapCensus::audit`]) against reachability and the
    /// allocator's high-water invariant
    /// ([`PmAllocator::check_high_water`]). The census reads come before
    /// the reachability walk, an order `perf`'s `audit` rows time.
    fn audit(&self, ctx: &mut MemCtx) -> (u64, Option<String>) {
        let integrity = self.verify_integrity(ctx).err().map(|e| e.to_string());
        let (leaked, census_err) = match PmAllocator::census(ctx) {
            Some(census) => census.audit(&self.reachable(ctx)),
            None => (0, Some("no formatted heap found".into())),
        };
        let census_err = census_err.or_else(|| PmAllocator::check_high_water(ctx).err());
        (leaked, integrity.or(census_err))
    }
}
