//! Seeded grow/shrink churn through merges. Every successful remove
//! calls `try_merge`, which reads the segment's four fp words and opens
//! no merge transaction while a slot tag says the segment is occupied:
//! the shrink phase adds no explicit abort, and the merges that commit
//! are the ones that commit without the check.

use spash::{Spash, SpashConfig};
use spash_index_api::rng::Rng64;
use spash_index_api::PersistentIndex;
use spash_pmem::{PmConfig, PmDevice};

const KEYS: u64 = 6_000;

/// Segments left after the shrink phase when every remove opens a merge
/// transaction: the pre-check must skip none of the merges.
const SEGMENTS_AFTER_SHRINK: u64 = 89;

fn value_of(key: u64) -> Vec<u8> {
    // A third inline (6 B), the rest blobs of 16..120 B.
    let len = if key % 3 == 0 { 6 } else { 16 + key % 105 };
    (0..len).map(|i| (key ^ i) as u8).collect()
}

#[test]
fn seeded_shrink_phase_adds_no_explicit_abort() {
    let dev = PmDevice::new(PmConfig {
        arena_size: 64 << 20,
        ..PmConfig::small_test()
    });
    let mut ctx = dev.ctx();
    let cfg = SpashConfig {
        initial_depth: 1,
        ..SpashConfig::test_default()
    };
    let idx = Spash::format(&mut ctx, cfg).unwrap();
    let start = idx.verify_integrity(&mut ctx).unwrap().segments;

    let mut keys: Vec<u64> = (0..KEYS).map(|i| i * 7 + 1).collect();
    for &k in &keys {
        idx.insert(&mut ctx, k, &value_of(k)).unwrap();
    }
    let peak = idx.verify_integrity(&mut ctx).unwrap().segments;
    assert!(
        peak >= 64 * start,
        "the grow phase splits well past the initial depth ({start} -> {peak})"
    );

    // Remove every key, in a seeded order.
    let mut rng = Rng64::new(0x5eed);
    for i in (1..keys.len()).rev() {
        keys.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let aborts = idx.htm_stats().explicit_aborts;
    for &k in &keys {
        assert!(idx.remove(&mut ctx, k), "remove {k}");
    }
    let report = idx.verify_integrity(&mut ctx).unwrap();
    assert_eq!(
        (
            report.entries,
            idx.htm_stats().explicit_aborts - aborts,
            report.segments
        ),
        (0, 0, SEGMENTS_AFTER_SHRINK),
        "(entries, explicit aborts while shrinking, segments)"
    );
}
