//! Randomized property tests for the substrates: allocator non-overlap,
//! HTM atomicity, and cache-model crash semantics under arbitrary inputs.
//!
//! Driven by the in-repo seeded [`Rng64`] (no external `proptest`): each
//! property runs a fixed number of independently-seeded cases, and every
//! assertion message carries the case seed so a failure replays exactly.

use std::collections::HashMap;

use spash_repro::alloc::{PmAllocator, CHUNK};
use spash_repro::htm::{Abort, Htm, HtmConfig};
use spash_repro::index_api::Rng64;
use spash_repro::pmem::{PmAddr, PmConfig, PmDevice};

#[derive(Clone, Debug)]
enum AllocOp {
    Alloc(u64),
    FreeNth(usize),
    Segment,
}

/// Weighted 3:2:1 like the original strategy.
fn alloc_op(rng: &mut Rng64) -> AllocOp {
    match rng.below(6) {
        0 | 1 | 2 => AllocOp::Alloc(1 + rng.below(3999)),
        3 | 4 => AllocOp::FreeNth(rng.next_u64() as usize),
        _ => AllocOp::Segment,
    }
}

#[test]
fn allocations_never_overlap() {
    for case in 0..48u64 {
        let mut rng = Rng64::new(0xA110C + case);
        let n_ops = 1 + rng.below(299);
        let dev = PmDevice::new(PmConfig {
            arena_size: 32 << 20,
            ..PmConfig::small_test()
        });
        let mut ctx = dev.ctx();
        let alloc = PmAllocator::format(&mut ctx, 0);
        // live: (addr, size, is_segment) — segments free via their own path.
        let mut live: Vec<(u64, u64, bool)> = Vec::new();
        for _ in 0..n_ops {
            match alloc_op(&mut rng) {
                AllocOp::Alloc(size) => {
                    if let Ok(a) = alloc.alloc(&mut ctx, size) {
                        live.push((a.addr.0, size, false));
                    }
                }
                AllocOp::Segment => {
                    if let Ok(a) = alloc.alloc_segment(&mut ctx) {
                        assert_eq!(a.0 % CHUNK, 0, "segments are XPLine-aligned");
                        live.push((a.0, 256, true));
                    }
                }
                AllocOp::FreeNth(n) => {
                    if !live.is_empty() {
                        let (addr, size, is_seg) = live.swap_remove(n % live.len());
                        if is_seg {
                            alloc.free_segment(&mut ctx, PmAddr(addr));
                        } else {
                            alloc.free(&mut ctx, PmAddr(addr), size);
                        }
                    }
                }
            }
            // No two live allocations may overlap.
            let mut sorted: Vec<(u64, u64)> = live.iter().map(|&(a, s, _)| (a, s)).collect();
            sorted.sort_unstable();
            for w in sorted.windows(2) {
                assert!(
                    w[0].0 + w[0].1 <= w[1].0,
                    "case {case}: allocation [{:#x}+{}] overlaps [{:#x}+{}]",
                    w[0].0,
                    w[0].1,
                    w[1].0,
                    w[1].1
                );
            }
        }
    }
}

/// Regression fold: this op sequence is the shrunk counterexample a
/// historical `proptest` run committed to
/// `tests/proptest_substrates.proptest-regressions` (case
/// `bdbb6713…`). The sidecar file only replays under the external
/// `proptest` crate, which this repo does not depend on — so the case
/// lives here as a named deterministic test instead, replayed verbatim
/// through the same non-overlap invariant as `allocations_never_overlap`.
#[test]
fn allocator_replays_committed_proptest_regression_bdbb6713() {
    use AllocOp::{Alloc, FreeNth, Segment};
    let ops = [
        FreeNth(16701081738728192446),
        FreeNth(12354613919706890624),
        Alloc(3059),
        Alloc(424),
        FreeNth(16303687453031340777),
        Segment,
        Alloc(588),
        Alloc(3038),
        FreeNth(5127063043839354733),
        Segment,
        Alloc(776),
        FreeNth(7202538386660187843),
        FreeNth(13545775493721812760),
        Alloc(663),
        Segment,
        FreeNth(981265159642951288),
        Segment,
        FreeNth(6683846365249495928),
        FreeNth(9089806919916521098),
        Alloc(3866),
        FreeNth(10572921898858816580),
        Alloc(1321),
        Segment,
        Alloc(1310),
        FreeNth(3431931130934428990),
        Alloc(979),
        FreeNth(16196689071358775967),
        Alloc(798),
    ];
    let dev = PmDevice::new(PmConfig {
        arena_size: 32 << 20,
        ..PmConfig::small_test()
    });
    let mut ctx = dev.ctx();
    let alloc = PmAllocator::format(&mut ctx, 0);
    let mut live: Vec<(u64, u64, bool)> = Vec::new();
    for op in &ops {
        match op {
            AllocOp::Alloc(size) => {
                if let Ok(a) = alloc.alloc(&mut ctx, *size) {
                    live.push((a.addr.0, *size, false));
                }
            }
            AllocOp::Segment => {
                if let Ok(a) = alloc.alloc_segment(&mut ctx) {
                    assert_eq!(a.0 % CHUNK, 0, "segments are XPLine-aligned");
                    live.push((a.0, 256, true));
                }
            }
            AllocOp::FreeNth(n) => {
                if !live.is_empty() {
                    let (addr, size, is_seg) = live.swap_remove(n % live.len());
                    if is_seg {
                        alloc.free_segment(&mut ctx, PmAddr(addr));
                    } else {
                        alloc.free(&mut ctx, PmAddr(addr), size);
                    }
                }
            }
        }
        let mut sorted: Vec<(u64, u64)> = live.iter().map(|&(a, s, _)| (a, s)).collect();
        sorted.sort_unstable();
        for w in sorted.windows(2) {
            assert!(
                w[0].0 + w[0].1 <= w[1].0,
                "regression bdbb6713: allocation [{:#x}+{}] overlaps [{:#x}+{}]",
                w[0].0,
                w[0].1,
                w[1].0,
                w[1].1
            );
        }
    }
}

#[test]
fn htm_transactions_are_all_or_nothing() {
    for case in 0..48u64 {
        let mut rng = Rng64::new(0x47 + case);
        let writes: Vec<(u64, u64)> = (0..1 + rng.below(19))
            .map(|_| (rng.below(64), rng.next_u64()))
            .collect();
        let abort_at = if rng.below(2) == 0 {
            Some(rng.below(20) as usize)
        } else {
            None
        };

        let dev = PmDevice::new(PmConfig::small_test());
        let htm = Htm::new(HtmConfig::default());
        let mut ctx = dev.ctx();
        // Seed distinct baseline values.
        for i in 0..64u64 {
            dev.arena().store_u64(PmAddr(i * 64), i + 1_000_000);
        }
        let before: Vec<u64> = (0..64u64)
            .map(|i| dev.arena().load_u64(PmAddr(i * 64)))
            .collect();

        let r: Result<(), Abort> = htm.try_transaction(&mut ctx, |tx, ctx| {
            for (n, &(slot, val)) in writes.iter().enumerate() {
                if Some(n) == abort_at {
                    return tx.abort(9);
                }
                tx.write_u64(ctx, PmAddr(slot * 64), val)?;
            }
            Ok(())
        });

        let after: Vec<u64> = (0..64u64)
            .map(|i| dev.arena().load_u64(PmAddr(i * 64)))
            .collect();
        match r {
            Err(_) => assert_eq!(after, before, "case {case}: aborted tx must leave no trace"),
            Ok(()) => {
                // Last-write-wins per slot.
                let mut want: HashMap<u64, u64> = HashMap::new();
                for &(slot, val) in &writes {
                    want.insert(slot, val);
                }
                for i in 0..64u64 {
                    let expect = want.get(&i).copied().unwrap_or(before[i as usize]);
                    assert_eq!(after[i as usize], expect, "case {case}: slot {i}");
                }
            }
        }
    }
}

#[test]
fn adr_crash_keeps_exactly_the_flushed_prefix() {
    for case in 0..48u64 {
        let mut rng = Rng64::new(0xAD4 + case);
        let n_writes = (1 + rng.below(39)) as usize;
        let flushed_upto = rng.below(40) as usize;
        // Write N lines; flush the first F; crash. Exactly the flushed
        // ones survive.
        let dev = PmDevice::new(PmConfig::adr_test());
        let mut ctx = dev.ctx();
        for i in 0..n_writes {
            ctx.write_u64(PmAddr(4096 + i as u64 * 64), 42 + i as u64);
        }
        let f = flushed_upto.min(n_writes);
        for i in 0..f {
            ctx.flush(PmAddr(4096 + i as u64 * 64));
        }
        ctx.fence();
        dev.simulate_power_failure();
        for i in 0..n_writes {
            let v = dev.arena().load_u64(PmAddr(4096 + i as u64 * 64));
            if i < f {
                assert_eq!(v, 42 + i as u64, "case {case}: flushed line {i} lost");
            } else {
                assert_eq!(v, 0, "case {case}: unflushed line {i} survived ADR crash");
            }
        }
    }
}

#[test]
fn eadr_crash_keeps_everything() {
    for case in 0..48u64 {
        let mut rng = Rng64::new(0xEAD + case);
        let n_writes = (1 + rng.below(59)) as usize;
        let dev = PmDevice::new(PmConfig::small_test());
        let mut ctx = dev.ctx();
        for i in 0..n_writes {
            ctx.write_u64(PmAddr(4096 + i as u64 * 64), 7 + i as u64);
        }
        dev.simulate_power_failure();
        for i in 0..n_writes {
            assert_eq!(
                dev.arena().load_u64(PmAddr(4096 + i as u64 * 64)),
                7 + i as u64,
                "case {case}: line {i}"
            );
        }
    }
}

#[test]
fn allocator_recovery_preserves_non_overlap() {
    for case in 0..48u64 {
        let mut rng = Rng64::new(0x4ec + case);
        let sizes: Vec<u64> = (0..1 + rng.below(59))
            .map(|_| 1 + rng.below(1999))
            .collect();
        let dev = PmDevice::new(PmConfig {
            arena_size: 32 << 20,
            ..PmConfig::small_test()
        });
        let mut ctx = dev.ctx();
        let alloc = PmAllocator::format(&mut ctx, 0);
        let mut live: Vec<(u64, u64)> = Vec::new();
        for s in &sizes {
            if let Ok(a) = alloc.alloc(&mut ctx, *s) {
                live.push((a.addr.0, *s));
            }
        }
        dev.simulate_power_failure();
        let mut ctx2 = dev.ctx();
        let rec = PmAllocator::recover(&mut ctx2).unwrap();
        // New allocations after recovery must not overlap surviving ones
        // (cached-slot leaks are allowed — they only waste space).
        for s in &sizes {
            if let Ok(a) = rec.alloc.alloc(&mut ctx2, *s) {
                for &(addr, size) in &live {
                    let no_overlap = a.addr.0 + *s <= addr || addr + size <= a.addr.0;
                    assert!(
                        no_overlap,
                        "case {case}: post-recovery alloc [{:#x}+{}] overlaps pre-crash [{:#x}+{}]",
                        a.addr.0, s, addr, size
                    );
                }
            }
        }
    }
}
