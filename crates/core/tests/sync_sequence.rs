//! Pin of the sync-point stream: what "bit-identical" means for the
//! modelled path below the benchmark.
//!
//! A recording [`SchedHook`] sees every `SyncEvent` a fixed-seed Spash
//! workload emits on one thread — HTM begin/acquire/commit/abort, atomic
//! RMWs, and the `LockAcquire` every host lock on the path reports while
//! a hook is installed (directory state, allocator, and the platform's
//! cache-shard and XPBuffer locks). The deterministic scheduler takes one
//! decision per event, so the count and order of this stream are what
//! `sched.decisions_per_kop` and every recorded trace depend on: a host
//! optimisation that drops, adds or reorders one event changes the hash.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use spash::{Spash, SpashConfig};
use spash_index_api::rng::Rng64;
use spash_index_api::{BatchOp, BatchResult, PersistentIndex};
use spash_pmem::schedhook::{self, SchedHook, SyncEvent};
use spash_pmem::{PmConfig, PmDevice, SPAN_COMPACTION, SPAN_SPLIT};

/// Counts events and folds them into an FNV-1a hash. One thread drives
/// it, so relaxed load+store is enough.
struct Recorder {
    count: AtomicU64,
    hash: AtomicU64,
}

impl SchedHook for Recorder {
    /// Grants no stay budget, so every event is reported.
    fn sync_point(&self, ev: SyncEvent, _stays: u64) -> u64 {
        let (kind, payload) = match ev {
            SyncEvent::SpinWait => (0u64, 0),
            SyncEvent::LockAcquire => (1, 0),
            SyncEvent::LockRelease => (2, 0),
            SyncEvent::AtomicRmw(l) => (3, l),
            SyncEvent::HtmBegin => (4, 0),
            SyncEvent::HtmAcquire(l) => (5, l),
            SyncEvent::HtmCommit => (6, 0),
            SyncEvent::HtmAbort => (7, 0),
            SyncEvent::TestRace => (8, 0),
        };
        let mut h = self.hash.load(Ordering::Relaxed);
        for b in kind.to_le_bytes().into_iter().chain(payload.to_le_bytes()) {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.hash.store(h, Ordering::Relaxed);
        self.count
            .store(self.count.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        0
    }
}

const KEYS: u64 = 1_400;

fn value_of(key: u64, gen: u64) -> Vec<u8> {
    // A third inline (6 B), the rest blobs of 16..200 B.
    let len = if key % 3 == 0 { 6 } else { 16 + (key * 7 + gen) % 185 };
    (0..len).map(|i| (key ^ gen ^ i) as u8).collect()
}

#[derive(Clone, Copy)]
enum Op {
    Insert(u64),
    Update(u64),
    Get(u64),
    Remove(u64),
}

#[test]
fn sync_event_stream_of_a_seeded_workload_is_pinned() {
    let rec = Arc::new(Recorder {
        count: AtomicU64::new(0),
        hash: AtomicU64::new(0xcbf2_9ce4_8422_2325),
    });
    schedhook::install(rec.clone());

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
    let start_capacity = idx.capacity();

    // The op stream: a grow phase that inserts every key (splits), then
    // a shrink phase that removes them all (merges). Rounds alternate
    // one 8-op `run_batch` call with 8 single ops.
    let mut rng = Rng64::new(0x5eed);
    let mut next_new = 0u64;
    let mut next_dead = 0u64;
    let mut ops = Vec::new();
    while next_dead < KEYS {
        let r = rng.below(100);
        ops.push(if next_new < KEYS {
            match r {
                0..=69 => {
                    next_new += 1;
                    Op::Insert(next_new - 1)
                }
                70..=84 => Op::Get(rng.below(next_new + 8)),
                _ => Op::Update(rng.below(next_new + 8)),
            }
        } else {
            match r {
                0..=79 => {
                    next_dead += 1;
                    Op::Remove(next_dead - 1)
                }
                _ => Op::Get(rng.below(KEYS)),
            }
        });
    }
    while ops.len() % 16 != 0 {
        ops.push(Op::Get(rng.below(KEYS)));
    }
    assert!(ops.len() >= 2_000, "{} ops", ops.len());

    let mut peak_capacity = 0;
    let mut results = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |r: &BatchResult| {
        let w = match r {
            BatchResult::Inserted(r) => r.is_ok() as u64,
            BatchResult::Updated(r) => 2 + r.is_ok() as u64,
            BatchResult::Got(v) => 4 + v.as_ref().map_or(0, |v| 1 + v.len() as u64),
            BatchResult::Removed(b) => 1_000 + *b as u64,
        };
        results = (results ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    };
    for (round, chunk) in ops.chunks(16).enumerate() {
        let vals: Vec<Vec<u8>> = chunk
            .iter()
            .map(|op| match *op {
                Op::Insert(k) | Op::Update(k) => value_of(k, round as u64),
                _ => Vec::new(),
            })
            .collect();
        let batch: Vec<BatchOp<'_>> = chunk
            .iter()
            .zip(&vals)
            .map(|(op, v)| match *op {
                Op::Insert(k) => BatchOp::Insert(k, v),
                Op::Update(k) => BatchOp::Update(k, v),
                Op::Get(k) => BatchOp::Get(k),
                Op::Remove(k) => BatchOp::Remove(k),
            })
            .collect();
        let mut out = Vec::new();
        idx.run_batch(&mut ctx, &batch[..8], &mut out);
        for op in &batch[8..] {
            out.push(spash_index_api::run_one(&idx, &mut ctx, op));
        }
        assert_eq!(out.len(), 16);
        out.iter().for_each(&mut fold);
        peak_capacity = peak_capacity.max(idx.capacity());
    }
    schedhook::clear();

    assert_eq!(idx.len(), 0, "every key inserted was removed");
    assert!(peak_capacity > start_capacity, "the grow phase split");
    assert!(idx.capacity() < peak_capacity, "the shrink phase merged");
    let spans = dev.span_totals();
    let entries = |name| spans.iter().find(|(n, _)| *n == name).unwrap().1.entries;
    assert!(entries(SPAN_SPLIT) > 0 && entries(SPAN_COMPACTION) > 0);

    // A remove that leaves its segment occupied opens no merge
    // transaction (`try_merge` reads the fp words first), so it emits no
    // HtmBegin/HtmAbort pair; the op results and the capacity the shrink
    // phase ends at are those of the workload with every merge attempt
    // transactional. A merge that commits takes no directory state lock
    // afterwards: the directory never shrinks. Each raise of the
    // allocator's high-water mark takes its lock, a sync point. A
    // batched request runs from its stage-1 route, so a request stage 1
    // routed through the directory takes the directory's state lock once
    // (1 790 of the 1 864 batched requests here); a stale route costs an
    // explicit abort and a fresh route (4 here). Step 5 reads a slot's
    // key and value words, and a hint's target slot, as one line.
    assert_eq!(
        (
            ops.len(),
            results,
            idx.capacity(),
            rec.count.load(Ordering::Relaxed),
            rec.hash.load(Ordering::Relaxed)
        ),
        (
            3_728,
            1_898_707_696_300_657_924,
            384,
            148_787,
            1_108_865_712_614_711_544
        ),
    );
}
