//! Model-checking every index against a reference `HashMap` under long
//! randomized operation sequences — the cheapest way to catch semantic
//! drift in seven hash-table implementations at once.

use std::collections::HashMap;
use std::sync::Arc;

use spash_repro::baselines::{CLevel, Cceh, Dash, Halo, Level, Plush};
use spash_repro::index_api::{IndexError, PersistentIndex};
use spash_repro::pmem::{PmConfig, PmDevice};
use spash_repro::spash::{ConcurrencyMode, Spash, SpashConfig};
use spash_repro::workloads::Rng64;

fn build(which: usize) -> (Arc<PmDevice>, Box<dyn PersistentIndex>) {
    let dev = PmDevice::new(PmConfig {
        arena_size: 128 << 20,
        ..PmConfig::small_test()
    });
    let mut ctx = dev.ctx();
    let idx: Box<dyn PersistentIndex> = match which {
        0 => Box::new(Spash::format(&mut ctx, SpashConfig::test_default()).unwrap()),
        1 => Box::new(
            Spash::format(
                &mut ctx,
                SpashConfig {
                    concurrency: ConcurrencyMode::WriteReadLock,
                    ..SpashConfig::test_default()
                },
            )
            .unwrap(),
        ),
        2 => Box::new(Cceh::format(&mut ctx, 1).unwrap()),
        3 => Box::new(Dash::format(&mut ctx, 1).unwrap()),
        4 => Box::new(Level::format(&mut ctx, 4).unwrap()),
        5 => Box::new(CLevel::format(&mut ctx, 4).unwrap()),
        6 => Box::new(Plush::format(&mut ctx, 4).unwrap()),
        7 => Box::new(Halo::format(&mut ctx, 48 << 20).unwrap()),
        _ => unreachable!(),
    };
    (dev, idx)
}

/// 40 k random mixed operations, checked op-by-op against a HashMap.
fn model_check(which: usize, seed: u64) {
    let (dev, idx) = build(which);
    let mut ctx = dev.ctx();
    let name = idx.name().to_string();
    let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
    let mut rng = Rng64::new(seed);
    let key_space = 2_500u64;

    for step in 0..40_000u64 {
        let k = 1 + rng.below(key_space);
        match rng.below(100) {
            0..=39 => {
                // insert
                let len = rng.below(180) as usize;
                let v: Vec<u8> = (0..len).map(|i| (i as u8) ^ (k as u8) ^ seed as u8).collect();
                let r = idx.insert(&mut ctx, k, &v);
                if let std::collections::hash_map::Entry::Vacant(e) = model.entry(k) {
                    assert!(r.is_ok(), "{name} step {step}: insert {k} failed: {r:?}");
                    e.insert(v);
                } else {
                    assert_eq!(
                        r,
                        Err(IndexError::DuplicateKey),
                        "{name} step {step}: dup insert of {k}"
                    );
                }
            }
            40..=64 => {
                // update
                let len = rng.below(250) as usize;
                let v: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(3) ^ k as u8).collect();
                let r = idx.update(&mut ctx, k, &v);
                if let std::collections::hash_map::Entry::Occupied(mut e) = model.entry(k) {
                    assert!(r.is_ok(), "{name} step {step}: update {k} failed: {r:?}");
                    e.insert(v);
                } else {
                    assert_eq!(r, Err(IndexError::NotFound), "{name} step {step}");
                }
            }
            65..=84 => {
                // get
                let mut out = Vec::new();
                let hit = idx.get(&mut ctx, k, &mut out);
                match model.get(&k) {
                    Some(v) => {
                        assert!(hit, "{name} step {step}: key {k} missing");
                        assert_eq!(&out, v, "{name} step {step}: value of {k}");
                    }
                    None => assert!(!hit, "{name} step {step}: ghost {k}"),
                }
            }
            _ => {
                // remove
                let r = idx.remove(&mut ctx, k);
                assert_eq!(
                    r,
                    model.remove(&k).is_some(),
                    "{name} step {step}: remove {k}"
                );
            }
        }
    }
    assert_eq!(idx.entries(), model.len() as u64, "{name}: final count");
    let mut out = Vec::new();
    for (k, v) in &model {
        out.clear();
        assert!(idx.get(&mut ctx, *k, &mut out), "{name}: final key {k}");
        assert_eq!(&out, v, "{name}: final value {k}");
    }
}

#[test]
fn model_check_spash_htm() {
    model_check(0, 11);
}

#[test]
fn model_check_spash_rwlock_mode() {
    model_check(1, 12);
}

#[test]
fn model_check_cceh() {
    model_check(2, 13);
}

#[test]
fn model_check_dash() {
    model_check(3, 14);
}

#[test]
fn model_check_level() {
    model_check(4, 15);
}

#[test]
fn model_check_clevel() {
    model_check(5, 16);
}

#[test]
fn model_check_plush() {
    model_check(6, 17);
}

#[test]
fn model_check_halo() {
    model_check(7, 18);
}
