//! Cross-crate crash-consistency tests: drive Spash through randomized
//! workloads, pull the (simulated) power cord, recover, and require the
//! durable state to equal the committed state exactly — the paper's
//! durable-linearizability contract (§II-C) end to end.

use std::collections::HashMap;

use spash_repro::index_api::PersistentIndex;
use spash_repro::pmem::{PmConfig, PmDevice};
use spash_repro::spash::{Spash, SpashConfig};
use spash_repro::workloads::Rng64;

fn eadr_device() -> std::sync::Arc<PmDevice> {
    PmDevice::new(PmConfig {
        arena_size: 128 << 20,
        ..PmConfig::small_test()
    })
}

#[test]
fn randomized_ops_survive_crash_exactly() {
    for seed in 1..=5u64 {
        let dev = eadr_device();
        let mut ctx = dev.ctx();
        let idx = Spash::format(&mut ctx, SpashConfig::test_default()).unwrap();
        let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
        let mut rng = Rng64::new(seed);

        for _ in 0..20_000 {
            let k = 1 + rng.below(3_000);
            match rng.below(10) {
                0..=4 => {
                    // Insert (upsert through the model).
                    let len = (rng.below(200)) as usize;
                    let v: Vec<u8> = (0..len).map(|i| (i as u8) ^ (k as u8)).collect();
                    if model.contains_key(&k) {
                        idx.update(&mut ctx, k, &v).unwrap();
                    } else {
                        idx.insert(&mut ctx, k, &v).unwrap();
                    }
                    model.insert(k, v);
                }
                5..=7 => {
                    let len = (rng.below(300)) as usize;
                    let v: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_add(k as u8)).collect();
                    match idx.update(&mut ctx, k, &v) {
                        Ok(()) => {
                            assert!(model.contains_key(&k), "seed {seed}: update hit ghost");
                            model.insert(k, v);
                        }
                        Err(_) => assert!(!model.contains_key(&k), "seed {seed}"),
                    }
                }
                _ => {
                    let removed = idx.remove(&mut ctx, k);
                    assert_eq!(removed, model.remove(&k).is_some(), "seed {seed}");
                }
            }
        }

        dev.simulate_power_failure();
        let mut ctx2 = dev.ctx();
        let rec = Spash::recover(&mut ctx2, SpashConfig::test_default())
            .expect("formatted arena must recover");
        assert_eq!(rec.len(), model.len() as u64, "seed {seed}: entry count");
        let mut out = Vec::new();
        for (k, v) in &model {
            out.clear();
            assert!(rec.get(&mut ctx2, *k, &mut out), "seed {seed}: key {k} lost");
            assert_eq!(&out, v, "seed {seed}: value of key {k}");
        }
        // And nothing extra resurrects.
        for k in 1..=3_000u64 {
            if !model.contains_key(&k) {
                assert_eq!(rec.get_u64(&mut ctx2, k), None, "seed {seed}: ghost key {k}");
            }
        }
    }
}

#[test]
fn double_crash_double_recovery() {
    let dev = eadr_device();
    let mut ctx = dev.ctx();
    let idx = Spash::format(&mut ctx, SpashConfig::test_default()).unwrap();
    for k in 1..=5_000u64 {
        idx.insert_u64(&mut ctx, k, k).unwrap();
    }
    drop(idx);
    dev.simulate_power_failure();

    let mut ctx = dev.ctx();
    let idx = Spash::recover(&mut ctx, SpashConfig::test_default()).unwrap();
    for k in 5_001..=8_000u64 {
        idx.insert_u64(&mut ctx, k, k).unwrap();
    }
    idx.remove(&mut ctx, 1);
    drop(idx);
    dev.simulate_power_failure();

    let mut ctx = dev.ctx();
    let idx = Spash::recover(&mut ctx, SpashConfig::test_default()).unwrap();
    assert_eq!(idx.len(), 7_999);
    assert_eq!(idx.get_u64(&mut ctx, 1), None);
    for k in 2..=8_000u64 {
        assert_eq!(idx.get_u64(&mut ctx, k), Some(k), "key {k}");
    }
}

#[test]
fn crash_during_concurrent_load_loses_nothing_committed() {
    // Writers record what they committed; after the crash, all of it must
    // be durable (eADR: visibility == durability).
    use std::sync::Mutex;
    let dev = eadr_device();
    let mut ctx = dev.ctx();
    let idx = std::sync::Arc::new(Spash::format(&mut ctx, SpashConfig::test_default()).unwrap());
    let committed: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let idx = std::sync::Arc::clone(&idx);
            let dev = std::sync::Arc::clone(&dev);
            let committed = &committed;
            s.spawn(move || {
                let mut ctx = dev.ctx();
                let mut mine = Vec::new();
                for i in 0..4_000u64 {
                    let k = 1 + t * 4_000 + i;
                    idx.insert_u64(&mut ctx, k, k * 7).unwrap();
                    mine.push(k);
                }
                committed.lock().unwrap().extend(mine);
            });
        }
    });
    drop(idx);
    dev.simulate_power_failure();

    let mut ctx = dev.ctx();
    let rec = Spash::recover(&mut ctx, SpashConfig::test_default()).unwrap();
    for k in committed.into_inner().unwrap() {
        assert_eq!(rec.get_u64(&mut ctx, k), Some(k * 7), "committed key {k} lost");
    }
}

#[test]
fn adr_platform_would_lose_index_writes_without_flushes() {
    // The negative control: the exact same index code on an ADR (volatile
    // cache) platform loses recent writes across a crash, because Spash
    // intentionally issues no flushes — it is an eADR design (paper §I).
    let dev = PmDevice::new(PmConfig {
        arena_size: 128 << 20,
        ..PmConfig::adr_test()
    });
    let mut ctx = dev.ctx();
    let idx = Spash::format(&mut ctx, SpashConfig::test_default()).unwrap();
    for k in 1..=2_000u64 {
        idx.insert_u64(&mut ctx, k, k).unwrap();
    }
    drop(idx);
    dev.simulate_power_failure();

    let mut ctx = dev.ctx();
    // Recovery may fail outright or come back with fewer entries — either
    // way the full committed state must NOT be intact.
    let intact = match Spash::recover(&mut ctx, SpashConfig::test_default()) {
        None => false,
        Some(rec) => {
            rec.len() == 2_000
                && (1..=2_000u64).all(|k| rec.get_u64(&mut ctx, k) == Some(k))
        }
    };
    assert!(
        !intact,
        "a volatile cache must lose unflushed index state (this is the gap eADR closes)"
    );
}

/// Spash runs one instruction stream in both persistence domains: the
/// same seeded workload of blob inserts, size-changing updates and
/// removes returns the same results on an eADR and an ADR device, and at
/// the power cut the ADR device reverts exactly the lines the eADR
/// reserve energy flushes. The one exception is the allocator's own
/// metadata, which the allocator itself flushes under ADR: its header
/// table and the superblock line that holds its high-water mark. Spash
/// flushes nothing more on an ADR platform than on the paper's.
#[test]
fn spash_issues_the_same_writes_and_flushes_in_both_domains() {
    use spash_repro::index_api::IndexError;
    use spash_repro::pmem::{CrashReport, CACHELINE};

    fn run(pm: PmConfig) -> (Vec<Result<(), IndexError>>, CrashReport, (u64, u64)) {
        let dev = PmDevice::new(PmConfig {
            arena_size: 128 << 20,
            ..pm
        });
        let mut ctx = dev.ctx();
        let idx = Spash::format(&mut ctx, SpashConfig::test_default()).unwrap();
        let mut rng = Rng64::new(0xADE);
        let mut results = Vec::new();
        for i in 0..3_000u64 {
            let k = 1 + rng.below(500);
            // 16..=200 B: never inline, and an update usually lands in
            // another size class, so it writes a replacement blob.
            let value = vec![(k ^ i) as u8; 16 + rng.below(185) as usize];
            results.push(match rng.below(4) {
                0 | 1 => idx.insert(&mut ctx, k, &value),
                2 => idx.update(&mut ctx, k, &value),
                _ => idx.remove(&mut ctx, k).then_some(()).ok_or(IndexError::NotFound),
            });
        }
        let layout = *idx.allocator().layout();
        drop(idx);
        let crash = dev.simulate_power_failure();
        (results, crash, (layout.table_start, layout.heap_start))
    }

    let (eadr_results, eadr, table) = run(PmConfig::small_test());
    let (adr_results, adr, adr_table) = run(PmConfig::adr_test());
    assert_eq!(table, adr_table);
    assert_eq!(eadr_results, adr_results, "op results differ across domains");
    let outside_metadata = |lines: Vec<u64>| -> Vec<u64> {
        let mut v: Vec<u64> = lines
            .into_iter()
            .filter(|&l| l != 0 && !(table.0..table.1).contains(&(l * CACHELINE)))
            .collect();
        v.sort_unstable();
        v
    };
    let want = outside_metadata(eadr.flushed_lines);
    let got = outside_metadata(adr.reverted_lines);
    assert!(!want.is_empty(), "the workload left nothing dirty at the cut");
    assert_eq!(
        got.len(),
        want.len(),
        "ADR reverted {} lines outside the allocator's metadata, eADR flushed {}",
        got.len(),
        want.len()
    );
    assert_eq!(got, want);
}

/// ADR platform semantics at line granularity: a crash reverts exactly the
/// dirty unflushed cachelines to their pre-images — flushed lines survive,
/// and the crash report names every reverted line.
#[test]
fn adr_crash_reverts_exactly_the_dirty_unflushed_lines() {
    use spash_repro::pmem::PmAddr;
    let dev = PmDevice::new(PmConfig::adr_test());
    let mut ctx = dev.ctx();

    // Two lines dirtied and flushed, two dirtied and left unflushed.
    ctx.write_u64(PmAddr(4096), 0xAAAA);
    ctx.write_u64(PmAddr(4160), 0xBBBB);
    ctx.flush(PmAddr(4096));
    ctx.flush(PmAddr(4160));
    ctx.fence();
    ctx.write_u64(PmAddr(8192), 0xCCCC);
    ctx.write_u64(PmAddr(8256), 0xDDDD);

    let crash = dev.simulate_power_failure();
    // ADR has no energy reserve: nothing is flushed at crash time.
    assert!(crash.flushed_lines.is_empty(), "ADR must not flush at crash");
    // The report names lines by index (byte address / 64).
    for addr in [8192u64, 8256] {
        assert!(
            crash.reverted_lines.contains(&(addr / 64)),
            "dirty unflushed line at {addr:#x} not reverted: {:?}",
            crash.reverted_lines
        );
    }
    for addr in [4096u64, 4160] {
        assert!(
            !crash.reverted_lines.contains(&(addr / 64)),
            "flushed line at {addr:#x} must survive the crash"
        );
    }

    // The durable image agrees with the report: flushed data survived,
    // unflushed lines hold their pre-images (zeroes on a fresh arena).
    let mut ctx = dev.ctx();
    assert_eq!(ctx.read_u64(PmAddr(4096)), 0xAAAA);
    assert_eq!(ctx.read_u64(PmAddr(4160)), 0xBBBB);
    assert_eq!(ctx.read_u64(PmAddr(8192)), 0);
    assert_eq!(ctx.read_u64(PmAddr(8256)), 0);
}
