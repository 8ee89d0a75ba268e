//! **Spash** — a scalable persistent hash index exploiting the persistent
//! CPU cache (reproduction of Zhang et al., ICDE 2024).
//!
//! Spash targets eADR platforms, where the CPU cache is inside the
//! persistence domain: whatever is *visible* is *durable*. That collapses
//! the visibility/durability gap that forces other persistent indexes
//! into flush-heavy, lock-heavy designs, and enables:
//!
//! * a fine-grained extendible hash over **metadata-free 256-byte
//!   segments** (one XPLine each) with compound slots, circular probing
//!   and overflow hints ([`slot`], §III-A);
//! * **adaptive in-place updates** that keep hot data in the persistent
//!   cache and only flush cold, multi-cacheline values ([`hotspot`],
//!   §III-B, Table I);
//! * **compacted-flush insertion** of small out-of-place values in XPLine
//!   chunks (§III-C, via `spash-alloc`);
//! * a **two-phase HTM concurrency protocol** — preparation outside the
//!   transaction, validate-then-process inside — with a lock fallback
//!   running the same step-5 body ([`ops`], §IV-A);
//! * **collaborative staged doubling** of the volatile directory
//!   ([`dir`], §IV-B);
//! * **pipelined execution** overlapping PM reads across requests
//!   ([`pipeline`], §III-D).
//!
//! # Quick start
//!
//! ```
//! use spash::{Spash, SpashConfig};
//! use spash_index_api::PersistentIndex;
//! use spash_pmem::{PmConfig, PmDevice};
//!
//! let dev = PmDevice::new(PmConfig::small_test());
//! let mut ctx = dev.ctx();
//! let index = Spash::format(&mut ctx, SpashConfig::test_default()).unwrap();
//! index.insert(&mut ctx, 42, b"hello!").unwrap();
//! let mut out = Vec::new();
//! assert!(index.get(&mut ctx, 42, &mut out));
//! assert_eq!(&out, b"hello!");
//! ```

mod access;
pub mod config;
pub mod crash;
pub mod dir;
pub mod fptable;
pub mod hotspot;
pub mod integrity;
pub mod ops;
pub mod overlay;
pub mod pipeline;
pub mod recovery;
pub mod seginfo;
pub mod slot;
pub mod split;

pub use config::{ConcurrencyMode, InsertPolicy, SpashConfig, UpdatePolicy};
pub use hotspot::PartitionedDetector;
pub use integrity::{IntegrityError, IntegrityReport};
pub use ops::Spash;

use spash_index_api::{hash_key, BatchOp, BatchResult, IndexError, PersistentIndex};
use spash_pmem::MemCtx;

impl PersistentIndex for Spash {
    fn name(&self) -> &'static str {
        match self.cfg.concurrency {
            ConcurrencyMode::Htm => "Spash",
            ConcurrencyMode::WriteLock => "Spash(wlock)",
            ConcurrencyMode::WriteReadLock => "Spash(rwlock)",
        }
    }

    // Each method hashes the key and runs the operation's one body
    // (`crate::ops`), which the pipeline's stage 3 also runs. A single
    // mutation passes no route (`None`), so it routes at its first
    // preparation: after the payload is built and the update policy has
    // seen the key.

    fn insert(&self, ctx: &mut MemCtx, key: u64, value: &[u8]) -> Result<(), IndexError> {
        self.insert_op(ctx, key, hash_key(key), None, value)
    }

    fn update(&self, ctx: &mut MemCtx, key: u64, value: &[u8]) -> Result<(), IndexError> {
        self.update_op(ctx, key, hash_key(key), None, value)
    }

    fn get(&self, ctx: &mut MemCtx, key: u64, out: &mut Vec<u8>) -> bool {
        ctx.stats_span(spash_pmem::SPAN_PROBE, |ctx| {
            let h = hash_key(key);
            let route = self.route(ctx, h, true);
            self.get_op(ctx, key, h, route, out)
        })
    }

    fn remove(&self, ctx: &mut MemCtx, key: u64) -> bool {
        self.remove_op(ctx, key, hash_key(key), None)
    }

    fn entries(&self) -> u64 {
        self.len()
    }

    fn capacity_slots(&self) -> u64 {
        self.capacity()
    }

    fn run_batch(&self, ctx: &mut MemCtx, ops: &[BatchOp<'_>], out: &mut Vec<BatchResult>) {
        self.run_batch_pipelined(ctx, ops, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spash_index_api::PersistentIndex;
    use spash_pmem::{PmConfig, PmDevice};
    use std::sync::Arc;

    fn setup() -> (Arc<PmDevice>, Spash, MemCtx) {
        let dev = PmDevice::new(PmConfig::small_test());
        let mut ctx = dev.ctx();
        let idx = Spash::format(&mut ctx, SpashConfig::test_default()).unwrap();
        (dev, idx, ctx)
    }

    fn setup_with(cfg: SpashConfig) -> (Arc<PmDevice>, Spash, MemCtx) {
        let dev = PmDevice::new(PmConfig::small_test());
        let mut ctx = dev.ctx();
        let idx = Spash::format(&mut ctx, cfg).unwrap();
        (dev, idx, ctx)
    }

    #[test]
    fn inline_roundtrip() {
        let (_d, idx, mut ctx) = setup();
        idx.insert_u64(&mut ctx, 7, 700).unwrap();
        assert_eq!(idx.get_u64(&mut ctx, 7), Some(700));
        assert_eq!(idx.get_u64(&mut ctx, 8), None);
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn byte_value_roundtrip() {
        let (_d, idx, mut ctx) = setup();
        let val = vec![0xabu8; 300];
        idx.insert(&mut ctx, 1, &val).unwrap();
        let mut out = Vec::new();
        assert!(idx.get(&mut ctx, 1, &mut out));
        assert_eq!(out, val);
    }

    #[test]
    fn duplicate_insert_rejected() {
        let (_d, idx, mut ctx) = setup();
        idx.insert_u64(&mut ctx, 5, 1).unwrap();
        assert_eq!(
            idx.insert_u64(&mut ctx, 5, 2).unwrap_err(),
            IndexError::DuplicateKey
        );
        assert_eq!(idx.get_u64(&mut ctx, 5), Some(1), "original value intact");
    }

    #[test]
    fn update_inline() {
        let (_d, idx, mut ctx) = setup();
        idx.insert_u64(&mut ctx, 5, 1).unwrap();
        idx.update_u64(&mut ctx, 5, 99).unwrap();
        assert_eq!(idx.get_u64(&mut ctx, 5), Some(99));
        assert_eq!(
            idx.update_u64(&mut ctx, 6, 0).unwrap_err(),
            IndexError::NotFound
        );
    }

    #[test]
    fn update_blob_in_place_and_resize() {
        let (_d, idx, mut ctx) = setup();
        idx.insert(&mut ctx, 9, &[1u8; 100]).unwrap();
        // Same size class (96 < len <= 128): in place.
        idx.update(&mut ctx, 9, &[2u8; 100]).unwrap();
        let mut out = Vec::new();
        assert!(idx.get(&mut ctx, 9, &mut out));
        assert_eq!(out, vec![2u8; 100]);
        // Different class: replace.
        idx.update(&mut ctx, 9, &[3u8; 500]).unwrap();
        out.clear();
        assert!(idx.get(&mut ctx, 9, &mut out));
        assert_eq!(out, vec![3u8; 500]);
        // Shrink back to inline.
        idx.update(&mut ctx, 9, b"sixby!").unwrap();
        out.clear();
        assert!(idx.get(&mut ctx, 9, &mut out));
        assert_eq!(&out, b"sixby!");
    }

    #[test]
    fn remove_inline_and_blob() {
        let (_d, idx, mut ctx) = setup();
        idx.insert_u64(&mut ctx, 1, 10).unwrap();
        idx.insert(&mut ctx, 2, &[7u8; 200]).unwrap();
        assert!(idx.remove(&mut ctx, 1));
        assert!(idx.remove(&mut ctx, 2));
        assert!(!idx.remove(&mut ctx, 1), "double remove is a miss");
        assert_eq!(idx.len(), 0);
        assert_eq!(idx.get_u64(&mut ctx, 1), None);
    }

    #[test]
    fn grows_through_many_splits() {
        let (_d, idx, mut ctx) = setup();
        let n = 5000u64;
        for k in 0..n {
            idx.insert_u64(&mut ctx, k, k * 2).unwrap();
        }
        assert_eq!(idx.len(), n);
        for k in 0..n {
            assert_eq!(idx.get_u64(&mut ctx, k), Some(k * 2), "key {k} lost");
        }
        assert!(idx.capacity() >= n, "capacity grew");
        let lf = idx.load_factor();
        assert!(lf > 0.4 && lf <= 1.0, "load factor {lf}");
    }

    #[test]
    fn delete_then_reinsert_over_overflowed_segments() {
        let (_d, idx, mut ctx) = setup();
        for k in 0..2000u64 {
            idx.insert_u64(&mut ctx, k, k).unwrap();
        }
        for k in (0..2000).step_by(2) {
            assert!(idx.remove(&mut ctx, k), "remove {k}");
        }
        for k in (0..2000).step_by(2) {
            idx.insert_u64(&mut ctx, k, k + 1).unwrap();
        }
        for k in 0..2000u64 {
            let want = if k % 2 == 0 { k + 1 } else { k };
            assert_eq!(idx.get_u64(&mut ctx, k), Some(want), "key {k}");
        }
    }

    #[test]
    fn mixed_inline_and_blob_workload() {
        let (_d, idx, mut ctx) = setup();
        for k in 0..800u64 {
            if k % 3 == 0 {
                idx.insert(&mut ctx, k, &vec![k as u8; 32 + (k % 200) as usize])
                    .unwrap();
            } else {
                idx.insert_u64(&mut ctx, k, k).unwrap();
            }
        }
        let mut out = Vec::new();
        for k in 0..800u64 {
            out.clear();
            assert!(idx.get(&mut ctx, k, &mut out), "key {k}");
            if k % 3 == 0 {
                assert_eq!(out.len(), 32 + (k % 200) as usize);
                assert!(out.iter().all(|&b| b == k as u8));
            }
        }
    }

    #[test]
    fn merge_shrinks_after_mass_delete() {
        let cfg = SpashConfig {
            initial_depth: 1,
            ..SpashConfig::test_default()
        };
        let (_d, idx, mut ctx) = setup_with(cfg);
        for k in 0..3000u64 {
            idx.insert_u64(&mut ctx, k, k).unwrap();
        }
        let peak = idx.capacity();
        for k in 0..3000u64 {
            idx.remove(&mut ctx, k);
        }
        assert_eq!(idx.len(), 0);
        assert!(
            idx.capacity() < peak,
            "capacity {} did not shrink from {peak}",
            idx.capacity()
        );
        // Still usable after merging.
        for k in 0..500u64 {
            idx.insert_u64(&mut ctx, k, 1).unwrap();
        }
        assert_eq!(idx.len(), 500);
    }

    #[test]
    fn pipelined_batch_equals_serial() {
        let (_d, idx, mut ctx) = setup();
        for k in 0..500u64 {
            idx.insert_u64(&mut ctx, k, k).unwrap();
        }
        let ops: Vec<BatchOp> = (0..500u64).map(BatchOp::Get).collect();
        let mut out = Vec::new();
        idx.run_batch(&mut ctx, &ops, &mut out);
        assert_eq!(out.len(), 500);
        for (k, r) in out.iter().enumerate() {
            match r {
                BatchResult::Got(Some(v)) => {
                    let mut le = [0u8; 8];
                    le[..6].copy_from_slice(&v[..6]);
                    assert_eq!(u64::from_le_bytes(le), k as u64);
                }
                other => panic!("unexpected {other:?} for key {k}"),
            }
        }
    }

    #[test]
    fn concurrent_inserts_and_reads() {
        let dev = PmDevice::new(PmConfig {
            arena_size: 64 << 20,
            ..PmConfig::small_test()
        });
        let mut ctx = dev.ctx();
        let idx = Arc::new(Spash::format(&mut ctx, SpashConfig::test_default()).unwrap());
        let n_threads = 4u64;
        let per = 2000u64;
        std::thread::scope(|s| {
            for t in 0..n_threads {
                let idx = Arc::clone(&idx);
                let dev = Arc::clone(&dev);
                s.spawn(move || {
                    let mut ctx = dev.ctx();
                    for i in 0..per {
                        let k = t * per + i;
                        idx.insert_u64(&mut ctx, k, k).unwrap();
                        // Read something already written by this thread.
                        let back = t * per + i / 2;
                        assert_eq!(idx.get_u64(&mut ctx, back), Some(back));
                    }
                });
            }
        });
        assert_eq!(idx.len(), n_threads * per);
        for k in 0..n_threads * per {
            assert_eq!(idx.get_u64(&mut ctx, k), Some(k), "key {k} lost");
        }
    }

    #[test]
    fn concurrent_updates_no_lost_values() {
        let dev = PmDevice::new(PmConfig::small_test());
        let mut ctx = dev.ctx();
        let idx = Arc::new(Spash::format(&mut ctx, SpashConfig::test_default()).unwrap());
        for k in 0..16u64 {
            idx.insert_u64(&mut ctx, k, 0).unwrap();
        }
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let idx = Arc::clone(&idx);
                let dev = Arc::clone(&dev);
                s.spawn(move || {
                    let mut ctx = dev.ctx();
                    for i in 0..500u64 {
                        let k = i % 16;
                        idx.update_u64(&mut ctx, k, t * 1000 + i).unwrap();
                    }
                });
            }
        });
        // Every key must hold SOME thread's write, never garbage.
        for k in 0..16u64 {
            let v = idx.get_u64(&mut ctx, k).unwrap();
            let t = v / 1000;
            let i = v % 1000;
            assert!(t < 4 && i < 500, "corrupt value {v}");
        }
    }

    #[test]
    fn lock_modes_behave_identically() {
        for mode in [ConcurrencyMode::WriteLock, ConcurrencyMode::WriteReadLock] {
            let cfg = SpashConfig {
                concurrency: mode,
                ..SpashConfig::test_default()
            };
            let (_d, idx, mut ctx) = setup_with(cfg);
            for k in 0..1500u64 {
                idx.insert_u64(&mut ctx, k, k).unwrap();
            }
            idx.update_u64(&mut ctx, 7, 777).unwrap();
            assert!(idx.remove(&mut ctx, 8));
            for k in 0..1500u64 {
                let want = match k {
                    7 => Some(777),
                    8 => None,
                    _ => Some(k),
                };
                assert_eq!(idx.get_u64(&mut ctx, k), want, "mode {mode:?} key {k}");
            }
        }
    }

    #[test]
    fn concurrent_deletes_and_merges() {
        // Deletes from many threads drive merges while readers verify
        // surviving keys.
        let dev = PmDevice::new(PmConfig {
            arena_size: 64 << 20,
            ..PmConfig::small_test()
        });
        let mut ctx = dev.ctx();
        let idx = Arc::new(
            Spash::format(
                &mut ctx,
                SpashConfig {
                    initial_depth: 1,
                    ..SpashConfig::test_default()
                },
            )
            .unwrap(),
        );
        let n = 8_000u64;
        for k in 0..n {
            idx.insert_u64(&mut ctx, k, k).unwrap();
        }
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let idx = Arc::clone(&idx);
                let dev = Arc::clone(&dev);
                s.spawn(move || {
                    let mut ctx = dev.ctx();
                    // Each thread deletes its own quarter except keys
                    // ending in 7 (survivors), reading survivors as it
                    // goes.
                    for i in 0..n / 4 {
                        let k = t * (n / 4) + i;
                        if k % 10 == 7 {
                            assert_eq!(idx.get_u64(&mut ctx, k), Some(k));
                        } else {
                            assert!(idx.remove(&mut ctx, k), "remove {k}");
                        }
                    }
                });
            }
        });
        for k in 0..n {
            let want = if k % 10 == 7 { Some(k) } else { None };
            assert_eq!(idx.get_u64(&mut ctx, k), want, "key {k}");
        }
        assert!(
            idx.capacity() < n * 2,
            "merges must have shrunk capacity ({})",
            idx.capacity()
        );
    }

    #[test]
    fn recovery_after_clean_eadr_crash() {
        let dev = PmDevice::new(PmConfig::small_test());
        let mut ctx = dev.ctx();
        let idx = Spash::format(&mut ctx, SpashConfig::test_default()).unwrap();
        for k in 0..3000u64 {
            idx.insert_u64(&mut ctx, k, k * 3).unwrap();
        }
        idx.remove(&mut ctx, 100);
        idx.update_u64(&mut ctx, 200, 9999).unwrap();
        let live = idx.len();
        drop(idx);
        dev.simulate_power_failure();

        let mut ctx2 = dev.ctx();
        let idx2 = Spash::recover(&mut ctx2, SpashConfig::test_default()).expect("recoverable");
        assert_eq!(idx2.len(), live);
        assert_eq!(idx2.get_u64(&mut ctx2, 100), None);
        assert_eq!(idx2.get_u64(&mut ctx2, 200), Some(9999));
        for k in 0..3000u64 {
            if k == 100 || k == 200 {
                continue;
            }
            assert_eq!(idx2.get_u64(&mut ctx2, k), Some(k * 3), "key {k}");
        }
        // And the recovered index keeps working.
        idx2.insert_u64(&mut ctx2, 1_000_000, 1).unwrap();
        assert_eq!(idx2.get_u64(&mut ctx2, 1_000_000), Some(1));
    }

    #[test]
    fn recovery_of_blob_values() {
        let dev = PmDevice::new(PmConfig::small_test());
        let mut ctx = dev.ctx();
        let idx = Spash::format(&mut ctx, SpashConfig::test_default()).unwrap();
        idx.insert(&mut ctx, 5, &[0x5au8; 777]).unwrap();
        drop(idx);
        dev.simulate_power_failure();
        let mut ctx2 = dev.ctx();
        let idx2 = Spash::recover(&mut ctx2, SpashConfig::test_default()).unwrap();
        let mut out = Vec::new();
        assert!(idx2.get(&mut ctx2, 5, &mut out));
        assert_eq!(out, vec![0x5au8; 777]);
    }

    #[test]
    fn recover_unformatted_is_none() {
        let dev = PmDevice::new(PmConfig::small_test());
        let mut ctx = dev.ctx();
        assert!(Spash::recover(&mut ctx, SpashConfig::test_default()).is_none());
    }

    /// Flush instructions that found a dirty line while `f` ran.
    fn flushes_during(dev: &PmDevice, f: impl FnOnce()) -> u64 {
        let before = dev.snapshot();
        f();
        dev.snapshot().since(&before).flushes
    }

    #[test]
    fn indexes_built_from_one_config_do_not_share_hotness() {
        // The hot-key detector is the index's volatile state, not the
        // config's: a key made hot in A is still cold in B, so B's first
        // 100 B update of it is flushed.
        let cfg = SpashConfig::test_default();
        let (_da, a, mut ca) = setup_with(cfg.clone());
        let (db, b, mut cb) = setup_with(cfg);
        let v = [7u8; 100];
        a.insert(&mut ca, 9, &v).unwrap();
        b.insert(&mut cb, 9, &v).unwrap();
        for _ in 0..4 {
            a.update(&mut ca, 9, &v).unwrap();
        }
        let flushed = flushes_during(&db, || b.update(&mut cb, 9, &v).unwrap());
        assert!(flushed > 0, "a key cold in B must be flushed");
    }

    #[test]
    fn oracle_policy_flushes_only_keys_outside_the_hot_set() {
        let hot = spash_index_api::hash_key(1);
        let (dev, idx, mut ctx) = setup_with(SpashConfig {
            update_policy: UpdatePolicy::Oracle([hot].into_iter().collect()),
            ..SpashConfig::test_default()
        });
        let v = [3u8; 100];
        for k in [1, 2] {
            idx.insert(&mut ctx, k, &v).unwrap();
        }
        let hot_flushes = flushes_during(&dev, || idx.update(&mut ctx, 1, &v).unwrap());
        let cold_flushes = flushes_during(&dev, || idx.update(&mut ctx, 2, &v).unwrap());
        assert_eq!((hot_flushes > 0, cold_flushes > 0), (false, true));
    }

    #[test]
    fn htm_commits_dominate_aborts_single_thread() {
        let (_d, idx, mut ctx) = setup();
        for k in 0..1000u64 {
            idx.insert_u64(&mut ctx, k, k).unwrap();
        }
        let s = idx.htm_stats();
        assert!(s.commits >= 1000);
        assert_eq!(s.conflict_aborts, 0, "no conflicts single-threaded");
        assert_eq!(idx.fallback_count(), 0);
    }
}
