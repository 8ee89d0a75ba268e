//! `spash-alloc` under the crash-point sweep (see DESIGN.md, "Crash-point
//! fault injection"): a seeded alloc/free workload is crashed at every
//! scheduled media write, and after each injected crash the recovered
//! heap's own books must be internally consistent — no two allocations
//! overlap, no small slot's chunk is claimed by a segment, large run, or
//! region (the double-free / double-alloc check), and the heap must keep
//! serving allocations.

use std::panic::{catch_unwind, AssertUnwindSafe};

use spash_repro::alloc::PmAllocator;
use spash_repro::index_api::crashpoint::schedule;
use spash_repro::index_api::Rng64;
use spash_repro::pmem::{fault, CrashPointHit, MemCtx, PersistenceDomain, PmConfig, PmDevice};

fn device(domain: PersistenceDomain) -> std::sync::Arc<PmDevice> {
    let mut pm = PmConfig::small_test();
    pm.arena_size = 32 << 20;
    pm.cache_capacity = 8 << 10; // tiny cache: the no-flush heap only
    // touches media on evictions, so force them early and often
    pm.domain = domain;
    PmDevice::new(pm)
}

/// Deterministic mix of small allocs, regions, and frees.
fn workload(alloc: &PmAllocator, ctx: &mut MemCtx) {
    let mut rng = Rng64::new(0xA110C);
    let mut small: Vec<(spash_repro::pmem::PmAddr, u64)> = Vec::new();
    let mut regions: Vec<spash_repro::pmem::PmAddr> = Vec::new();
    for _ in 0..400 {
        match rng.below(10) {
            0..=4 => {
                let size = 16 + rng.below(113);
                if let Ok(a) = alloc.alloc(ctx, size) {
                    ctx.write_u64(a.addr, size); // dirty the payload too
                    small.push((a.addr, size));
                }
            }
            5..=6 => {
                if let Ok(a) = alloc.alloc_region(ctx, 512 + rng.below(2048)) {
                    ctx.write_u64(a, 1);
                    regions.push(a);
                }
            }
            7..=8 => {
                if !small.is_empty() {
                    let (a, size) = small.swap_remove(rng.below(small.len() as u64) as usize);
                    alloc.free(ctx, a, size);
                }
            }
            _ => {
                if !regions.is_empty() {
                    let a = regions.swap_remove(rng.below(regions.len() as u64) as usize);
                    alloc.free_region(ctx, a);
                }
            }
        }
    }
}

/// No two live allocations may claim the same bytes. Small slots live in
/// small-class chunks of their own, so their chunks must be disjoint from
/// every segment, large run, and region.
fn assert_books_consistent(census: &spash_repro::alloc::HeapCensus, at: u64) {
    const CHUNK: u64 = 256;
    // Small slots: pairwise disjoint.
    let mut slots = census.small_slots.clone();
    slots.sort_by_key(|&(a, _)| a.0);
    for w in slots.windows(2) {
        assert!(
            w[0].0 .0 + w[0].1 <= w[1].0 .0,
            "crash at write {at}: small slots {:#x}+{} and {:#x} overlap (double-use)",
            w[0].0 .0,
            w[0].1,
            w[1].0 .0
        );
    }
    // Segments, large allocations, and regions: pairwise disjoint ranges,
    // none of which may claim a small-class chunk.
    let mut ranges: Vec<(u64, u64)> = Vec::new();
    ranges.extend(census.segments.iter().map(|&s| (s.0, CHUNK)));
    ranges.extend(census.large.iter().map(|&(a, l)| (a.0, l)));
    ranges.extend(census.regions.iter().map(|&(a, l)| (a.0, l)));
    ranges.sort_unstable();
    for w in ranges.windows(2) {
        assert!(
            w[0].0 + w[0].1 <= w[1].0,
            "crash at write {at}: allocations {:#x}+{} and {:#x} overlap (double-use)",
            w[0].0,
            w[0].1,
            w[1].0
        );
    }
    for &(a, _) in &slots {
        let chunk = a.0 & !(CHUNK - 1);
        let claimed = ranges
            .iter()
            .find(|&&(base, len)| chunk >= base && chunk < base + len);
        assert!(
            claimed.is_none(),
            "crash at write {at}: small-class chunk {chunk:#x} also claimed by \
             allocation {:#x}+{} (double-use)",
            claimed.map_or(0, |r| r.0),
            claimed.map_or(0, |r| r.1)
        );
    }
}

/// `strict` = the durable image is an exact program-order prefix (eADR),
/// so the heap must always recover with internally consistent books. Under
/// ADR the allocator — an eADR design that issues no flushes — may see a
/// torn image: recovery is allowed to decline, and stale reverted headers
/// void the books guarantee; what must hold is that nothing panics.
fn sweep(domain: PersistenceDomain, max_points: u64, strict: bool) {
    fault::silence_crash_point_panics();
    // Record: count the workload's media writes once.
    let total = {
        let dev = device(domain);
        let mut ctx = dev.ctx();
        let alloc = PmAllocator::format(&mut ctx, 0);
        dev.faults().reset();
        workload(&alloc, &mut ctx);
        dev.faults().media_writes()
    };
    assert!(total > 0, "alloc workload produced no media writes");

    for k in schedule(total, max_points, max_points) {
        let dev = device(domain);
        let mut ctx = dev.ctx();
        let alloc = PmAllocator::format(&mut ctx, 0);
        dev.faults().reset();
        dev.faults().arm(k);
        let outcome = catch_unwind(AssertUnwindSafe(|| workload(&alloc, &mut ctx)));
        dev.faults().disarm();
        match outcome {
            Ok(()) => panic!("write {k} never fired on replay — non-deterministic workload"),
            Err(p) if p.downcast_ref::<CrashPointHit>().is_some() => {}
            Err(p) => std::panic::resume_unwind(p),
        }
        drop(alloc);
        dev.simulate_power_failure();

        let mut rctx = dev.ctx();
        let rec = match PmAllocator::recover(&mut rctx) {
            Some(rec) => rec,
            None => {
                // Only a torn (ADR) image may be unrecoverable: the heap
                // was fully formatted before the fault plan armed.
                assert!(!strict, "heap unrecoverable after eADR crash at write {k}");
                continue;
            }
        };
        let census = PmAllocator::census(&mut rctx).expect("census after recover");
        if strict {
            assert_books_consistent(&census, k);
        }
        // The recovered heap keeps allocating: slots it hands out must not
        // collide with ones its own books call live.
        let live: std::collections::HashSet<u64> =
            census.small_slots.iter().map(|&(a, _)| a.0).collect();
        for _ in 0..8 {
            let a = rec.alloc.alloc(&mut rctx, 64).expect("post-recovery alloc");
            if strict {
                assert!(
                    !live.contains(&a.addr.0),
                    "crash at write {k}: recovered heap re-issued live slot {:#x}",
                    a.addr.0
                );
            }
        }
        let r = rec.alloc.alloc_region(&mut rctx, 1024).expect("post-recovery region");
        rec.alloc.free_region(&mut rctx, r);
    }
}

/// eADR: the energy reserve flushes the cache, so the durable image is the
/// exact program-order prefix at the crash instant.
#[test]
fn alloc_books_stay_consistent_at_every_eadr_crash_point() {
    sweep(PersistenceDomain::Eadr, 120, true);
}

/// ADR: dirty unflushed lines revert to their pre-images, tearing the
/// no-flush heap arbitrarily. Recovery may decline, but nothing may panic
/// and a recovered heap must keep serving allocations.
#[test]
fn alloc_recovery_is_panic_free_at_every_adr_crash_point() {
    sweep(PersistenceDomain::Adr, 120, false);
}
