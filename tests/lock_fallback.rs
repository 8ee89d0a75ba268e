//! The §IV-A lock fallback, forced.
//!
//! No benchmark workload and no other suite drives an operation past its
//! HTM retry budget (`core.fallback_per_kop = 0` everywhere), so the path
//! that runs every step-5 body through the plain accessor under
//! non-transactional partition locks would otherwise be exercised by
//! nothing. Two ways in:
//!
//! * a value whose in-place rewrite exceeds the modelled HTM write
//!   capacity (782 lines > 768) under the *default* geometry — the
//!   regression case: `update` used to retry that transaction forever;
//! * a geometry in which every transaction capacity-aborts on its first
//!   guarded read, with a zero retry budget, so every get / insert /
//!   update / remove and every split takes the fallback.
//!
//! Every scenario runs on a worker thread under a watchdog: a livelocked
//! operation fails the test instead of hanging the suite.

use std::collections::HashMap;
use std::sync::mpsc;
use std::time::Duration;

use spash_repro::htm::HtmConfig;
use spash_repro::index_api::{PersistentIndex, Rng64};
use spash_repro::pmem::canary::{self, Canary};
use spash_repro::pmem::{MemCtx, PmConfig, PmDevice};
use spash_repro::spash::integrity::IntegrityError;
use spash_repro::spash::{Spash, SpashConfig};

fn pm() -> PmConfig {
    PmConfig {
        arena_size: 64 << 20,
        ..PmConfig::small_test()
    }
}

/// Run `f` on a worker thread; fail if it has not finished in `secs`.
/// A worker that panics drops its sender, which surfaces here as a
/// disconnect and is re-raised with the worker's own message.
fn watchdog<T: Send + 'static>(secs: u64, what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(v) => v,
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("{what}: still running after {secs} s — an operation is livelocked")
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => match worker.join() {
            Err(p) => std::panic::resume_unwind(p),
            Ok(()) => unreachable!("worker exited without sending"),
        },
    }
}

/// Every transaction capacity-aborts at its first guarded read (the
/// directory validation), and the first abort already exhausts the
/// retry budget.
fn forced_fallback() -> SpashConfig {
    SpashConfig {
        max_tx_retries: 0,
        htm: HtmConfig {
            read_capacity: 0,
            ..HtmConfig::default()
        },
        ..SpashConfig::test_default()
    }
}

/// Mixed inline / small-blob / multi-line-blob values.
fn gen_val(rng: &mut Rng64, k: u64) -> Vec<u8> {
    match rng.below(3) {
        0 => (0..6).map(|i| (k ^ i) as u8).collect(),
        1 => vec![(k & 0xff) as u8; 40],
        _ => (0..200).map(|i| (k.wrapping_mul(31) ^ i) as u8).collect(),
    }
}

/// Production get vs the fp-blind oracle vs the shadow map for one key.
/// Returns whether the production path agreed with both (the healthy
/// battery asserts it, the canary counts the disagreements).
fn agrees(idx: &Spash, ctx: &mut MemCtx, model: &HashMap<u64, Vec<u8>>, k: u64) -> bool {
    let (mut via_get, mut via_oracle) = (Vec::new(), Vec::new());
    let hit = idx.get(ctx, k, &mut via_get);
    let oracle_hit = idx.oracle_scan_get(ctx, k, &mut via_oracle);
    assert_eq!(
        oracle_hit.then_some(&via_oracle),
        model.get(&k),
        "key {k}: blind oracle and shadow map diverge — the stored state itself is wrong"
    );
    (hit, via_get) == (oracle_hit, via_oracle)
}

/// Load through splits, then churn `churn_ops` inserts / updates /
/// removes, checking the touched key after every operation. Returns
/// `(index ops issued, production-path disagreements, index)`.
fn battery(ctx: &mut MemCtx, churn_ops: u64) -> (u64, u64, Spash) {
    let idx = Spash::format(ctx, forced_fallback()).unwrap();
    let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
    let mut rng = Rng64::new(0xFA11_BACC);
    let (mut ops, mut wrong) = (0u64, 0u64);
    let mut check = |idx: &Spash, ctx: &mut MemCtx, model: &HashMap<u64, Vec<u8>>, k: u64| {
        ops += 1; // the get inside `agrees`
        if !agrees(idx, ctx, model, k) {
            wrong += 1;
        }
    };
    // 4 initial segments hold 64 slots: 600 keys force many splits and
    // a few directory doublings, all through the split's lock fallback.
    for k in 1..=600u64 {
        let v = gen_val(&mut rng, k);
        idx.insert(ctx, k, &v).unwrap();
        model.insert(k, v);
        check(&idx, ctx, &model, k);
    }
    let mut mutations = 600u64;
    for _ in 0..churn_ops {
        let k = 1 + rng.below(900);
        mutations += 1;
        match rng.below(3) {
            0 => {
                let v = gen_val(&mut rng, k);
                let r = idx.insert(ctx, k, &v);
                assert_eq!(r.is_ok(), !model.contains_key(&k), "insert({k}): {r:?}");
                model.entry(k).or_insert(v);
            }
            1 => {
                let v = gen_val(&mut rng, k ^ 0x77);
                let r = idx.update(ctx, k, &v);
                assert_eq!(r.is_ok(), model.contains_key(&k), "update({k}): {r:?}");
                if r.is_ok() {
                    model.insert(k, v);
                }
            }
            _ => assert_eq!(idx.remove(ctx, k), model.remove(&k).is_some(), "remove({k})"),
        }
        check(&idx, ctx, &model, k);
        check(&idx, ctx, &model, k + 10_000); // never present
    }
    assert_eq!(idx.len(), model.len() as u64);
    (ops + mutations, wrong, idx)
}

#[test]
fn large_value_update_in_place_reaches_the_lock_fallback() {
    let _quiet = canary::disarmed();
    watchdog(60, "50 000-byte in-place update", || {
        let dev = PmDevice::new(pm());
        let mut ctx = dev.ctx();
        // Default HTM geometry: 768 write lines. 50 000 bytes span 782.
        let idx = Spash::format(&mut ctx, SpashConfig::test_default()).unwrap();
        let old: Vec<u8> = (0..50_000u32).map(|i| i as u8).collect();
        let new: Vec<u8> = (0..50_000u32).map(|i| (i * 7 + 3) as u8).collect();
        idx.insert(&mut ctx, 1, &old).unwrap();
        idx.update(&mut ctx, 1, &new).unwrap(); // same size class: in place
        let mut out = Vec::new();
        assert!(idx.get(&mut ctx, 1, &mut out));
        assert!(out == new, "read back the updated bytes");
        assert!(idx.htm_stats().capacity_aborts > 0, "the rewrite must not fit a transaction");
        assert_eq!(idx.fallback_count(), 1, "exactly the update fell back");
        idx.verify_integrity(&mut ctx).unwrap();
    });
}

#[test]
fn every_operation_through_the_lock_fallback_matches_oracle_and_model() {
    let _quiet = canary::disarmed();
    watchdog(120, "forced-fallback battery", || {
        let dev = PmDevice::new(pm());
        let mut ctx = dev.ctx();
        let (ops, wrong, idx) = battery(&mut ctx, 1500);
        assert_eq!(wrong, 0, "production get diverged from the blind oracle");
        assert_eq!(idx.htm_stats().commits, 0, "no transaction may have committed");
        assert!(
            idx.fallback_count() >= ops,
            "{} fallbacks for {ops} operations (locked splits count on top)",
            idx.fallback_count()
        );
        idx.verify_integrity(&mut ctx).unwrap();
    });
}

#[test]
fn wrong_tag_canary_is_caught_on_the_fallback_path() {
    let _c = canary::arm(Canary::FpWrongTag);
    watchdog(120, "forced-fallback battery (wrong-tag)", || {
        let dev = PmDevice::new(pm());
        let mut ctx = dev.ctx();
        // Load phase only: with live keys invisible to probes, churn
        // would double-insert them and the shadow map stops applying.
        let (_, wrong, idx) = battery(&mut ctx, 0);
        // Tags written through the plain accessor (slot tags, hint
        // tags, locked-split images) are corrupted like transactional
        // ones: fp-filtered probes miss live keys the oracle finds…
        assert!(wrong > 0, "wrong-tag canary never diverged on the fallback path");
        // …and the walker's rebuild rule flags the sidecar.
        match idx.verify_integrity(&mut ctx) {
            Err(IntegrityError::FpWordMismatch { .. }) => {}
            other => panic!("expected FpWordMismatch, got {other:?}"),
        }
    });
}
