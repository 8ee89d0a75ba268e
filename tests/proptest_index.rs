//! Randomized property tests: Spash must behave exactly like a reference
//! `HashMap` under arbitrary operation sequences, and core encodings must
//! be lossless for arbitrary inputs.
//!
//! Driven by the in-repo seeded [`Rng64`] (no external `proptest`): each
//! property runs a fixed number of independently-seeded cases, and every
//! assertion message carries the case seed so a failure replays exactly.

use std::collections::HashMap;

use spash_repro::index_api::{IndexError, PersistentIndex, Rng64};
use spash_repro::pmem::{PmConfig, PmDevice};
use spash_repro::spash::slot::{self, SlotKey};
use spash_repro::spash::{Spash, SpashConfig};
use spash_repro::workloads::{Distribution, Mix, ValueSize, WorkloadConfig, Zipfian};

#[derive(Clone, Debug)]
enum Op {
    Insert(u64, Vec<u8>),
    Update(u64, Vec<u8>),
    Get(u64),
    Remove(u64),
}

/// A small key space so operations collide and exercise overflow buckets,
/// hints, deletes-then-reinserts, splits and merges.
fn gen_op(rng: &mut Rng64) -> Op {
    let key = 1 + rng.below(199);
    match rng.below(4) {
        0 => Op::Insert(key, gen_val(rng)),
        1 => Op::Update(key, gen_val(rng)),
        2 => Op::Get(key),
        _ => Op::Remove(key),
    }
}

fn gen_val(rng: &mut Rng64) -> Vec<u8> {
    let len = rng.below(300) as usize;
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

#[test]
fn spash_matches_reference_hashmap() {
    for case in 0..48u64 {
        let mut rng = Rng64::new(0x5EED + case);
        let n_ops = 1 + rng.below(399);
        let dev = PmDevice::new(PmConfig {
            arena_size: 64 << 20,
            ..PmConfig::small_test()
        });
        let mut ctx = dev.ctx();
        let idx = Spash::format(&mut ctx, SpashConfig::test_default()).unwrap();
        let mut model: HashMap<u64, Vec<u8>> = HashMap::new();

        for _ in 0..n_ops {
            match gen_op(&mut rng) {
                Op::Insert(k, v) => {
                    let r = idx.insert(&mut ctx, k, &v);
                    if let std::collections::hash_map::Entry::Vacant(e) = model.entry(k) {
                        assert!(r.is_ok(), "case {case}: insert({k}) -> {r:?}");
                        e.insert(v);
                    } else {
                        assert_eq!(r, Err(IndexError::DuplicateKey), "case {case}: key {k}");
                    }
                }
                Op::Update(k, v) => {
                    let r = idx.update(&mut ctx, k, &v);
                    if let std::collections::hash_map::Entry::Occupied(mut e) = model.entry(k) {
                        assert!(r.is_ok(), "case {case}: update({k}) -> {r:?}");
                        e.insert(v);
                    } else {
                        assert_eq!(r, Err(IndexError::NotFound), "case {case}: key {k}");
                    }
                }
                Op::Get(k) => {
                    let mut out = Vec::new();
                    let hit = idx.get(&mut ctx, k, &mut out);
                    match model.get(&k) {
                        Some(v) => {
                            assert!(hit, "case {case}: key {k} missing");
                            assert_eq!(&out, v, "case {case}: key {k}");
                        }
                        None => assert!(!hit, "case {case}: ghost key {k}"),
                    }
                }
                Op::Remove(k) => {
                    assert_eq!(
                        idx.remove(&mut ctx, k),
                        model.remove(&k).is_some(),
                        "case {case}: remove({k})"
                    );
                }
            }
            assert_eq!(idx.len(), model.len() as u64, "case {case}");
        }

        // Full sweep at the end, plus a complete structural audit.
        let mut out = Vec::new();
        for (k, v) in &model {
            out.clear();
            assert!(idx.get(&mut ctx, *k, &mut out), "case {case}: key {k}");
            assert_eq!(&out, v, "case {case}: key {k}");
        }
        let report = idx.verify_integrity(&mut ctx);
        assert!(report.is_ok(), "case {case}: integrity violated: {report:?}");
    }
}

#[test]
fn spash_state_survives_crash_for_any_op_sequence() {
    for case in 0..48u64 {
        let mut rng = Rng64::new(0xC4A5 + case);
        let n_ops = 1 + rng.below(199);
        let dev = PmDevice::new(PmConfig {
            arena_size: 64 << 20,
            ..PmConfig::small_test()
        });
        let mut ctx = dev.ctx();
        let idx = Spash::format(&mut ctx, SpashConfig::test_default()).unwrap();
        let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
        for _ in 0..n_ops {
            match gen_op(&mut rng) {
                Op::Insert(k, v) => {
                    if idx.insert(&mut ctx, k, &v).is_ok() {
                        model.insert(k, v);
                    }
                }
                Op::Update(k, v) => {
                    if idx.update(&mut ctx, k, &v).is_ok() {
                        model.insert(k, v);
                    }
                }
                Op::Get(_) => {}
                Op::Remove(k) => {
                    if idx.remove(&mut ctx, k) {
                        model.remove(&k);
                    }
                }
            }
        }
        drop(idx);
        dev.simulate_power_failure();
        let mut ctx2 = dev.ctx();
        let rec = Spash::recover(&mut ctx2, SpashConfig::test_default()).unwrap();
        assert_eq!(rec.len(), model.len() as u64, "case {case}");
        let mut out = Vec::new();
        for (k, v) in &model {
            out.clear();
            assert!(rec.get(&mut ctx2, *k, &mut out), "case {case}: key {k} lost");
            assert_eq!(&out, v, "case {case}: key {k}");
        }
        let report = rec.verify_integrity(&mut ctx2);
        assert!(
            report.is_ok(),
            "case {case}: post-recovery integrity violated: {report:?}"
        );
    }
}

#[test]
fn slot_key_word_roundtrips() {
    let mut rng = Rng64::new(0x510);
    for _ in 0..512 {
        let key = rng.below(1 << 48);
        let fp = rng.below(1 << 14) as u16;
        let inline = SlotKey::Inline { key, fp };
        assert_eq!(SlotKey::unpack(inline.pack()), inline);
        let ptr = SlotKey::Ptr {
            addr: spash_repro::pmem::PmAddr(rng.below(slot::MAX_ARENA)),
            fp,
            hb: rng.below(1 << 10) as u16,
        };
        assert_eq!(SlotKey::unpack(ptr.pack()), ptr);
    }
}

#[test]
fn value_word_fields_are_independent() {
    use slot::value_word as vw;
    let mut rng = Rng64::new(0x7a1);
    for _ in 0..512 {
        let payload = rng.below(1 << 48);
        let hint = rng.next_u64() as u16;
        let payload2 = rng.below(1 << 48);
        let w = vw::with_hint(vw::with_payload(0, payload), hint);
        assert_eq!(vw::payload(w), payload);
        assert_eq!(vw::hint(w), hint);
        let w2 = vw::with_payload(w, payload2);
        assert_eq!(vw::hint(w2), hint);
        assert_eq!(vw::payload(w2), payload2);
    }
}

#[test]
fn rank_to_key_is_a_bijection() {
    let mut rng = Rng64::new(0xb17);
    for case in 0..48u64 {
        let n = 1 + rng.below(4_999);
        let seed = rng.next_u64();
        let cfg = WorkloadConfig {
            seed,
            ..WorkloadConfig::new(n, Distribution::Uniform, Mix::BALANCED, ValueSize::Inline)
        };
        let mut keys: Vec<u64> = (0..n).map(|r| cfg.rank_to_key(r)).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len() as u64, n, "case {case}: seed {seed:#x}");
        assert!(keys.iter().all(|&k| k >= 1 && k <= n), "case {case}");
    }
}

#[test]
fn zipfian_ranks_in_range() {
    let mut rng = Rng64::new(0x21f);
    for _ in 0..64 {
        let n = 1 + rng.below(99_999);
        let u = rng.next_f64();
        let z = Zipfian::new(n, 0.99);
        assert!(z.rank(u) < n, "n={n} u={u}");
    }
}

#[test]
fn hints_never_collide_with_empty() {
    let mut rng = Rng64::new(0x417);
    for _ in 0..512 {
        let h = rng.next_u64();
        let idx = rng.below(16) as u8;
        let hint = slot::make_hint(h, idx);
        assert_ne!(hint, 0);
        // A matching probe recovers the slot index.
        assert_eq!(slot::hint_matches(hint, h), Some(idx));
    }
}

/// Schedule record/replay determinism: for arbitrary schedule seeds, a
/// run's decision trace replays to a byte-identical operation history —
/// the property that makes every failing seed printed by the explorer a
/// complete reproducer. Checked both on healthy code (Spash) and on a
/// deliberately broken target (the Halo racy-insert mutation), where the
/// replayed run must also reproduce the *violation* itself.
#[test]
fn failing_schedule_seeds_replay_byte_identical_histories() {
    use spash_repro::baselines::Halo;
    use spash_repro::pmem::canary::{self, Canary};
    use spash_repro::sched::lin::{run_schedule, LinConfig};
    use spash_repro::sched::SchedConfig;

    let pm = {
        let mut pm = PmConfig::small_test();
        pm.arena_size = 48 << 20;
        pm
    };

    // Healthy target: every seed's trace replays byte-identically.
    let target = Spash::crash_target(SpashConfig::test_default());
    for case in 0..8u64 {
        let seed = Rng64::new(0xDE7E_5EED + case).next_u64();
        let cfg = LinConfig::small(seed);
        let run = run_schedule(&target, &pm, &cfg);
        assert!(run.ok(), "seed {seed:#x}: healthy Spash run failed");
        let mut replay = cfg.clone();
        replay.sched = SchedConfig::replay(run.outcome.trace.clone());
        let rerun = run_schedule(&target, &pm, &replay);
        assert_eq!(
            run.outcome.trace, rerun.outcome.trace,
            "case {case}: replay diverged from recorded trace"
        );
        assert_eq!(
            run.encoded_history(),
            rerun.encoded_history(),
            "case {case}: replayed history is not byte-identical"
        );
    }

    // Broken target: hunt for failing seeds, then require each failure to
    // replay byte-identically, violation included.
    let _c = canary::arm(Canary::HaloRacyInsert);
    let target = Halo::crash_target(8 << 20);
    let mut failing = 0u32;
    for seed in 0..96u64 {
        let mut cfg = LinConfig::small(seed);
        cfg.key_space = 4;
        cfg.prefill = 0;
        let run = run_schedule(&target, &pm, &cfg);
        if run.violation.is_none() {
            continue;
        }
        failing += 1;
        let mut replay = cfg.clone();
        replay.sched = SchedConfig::replay(run.outcome.trace.clone());
        let rerun = run_schedule(&target, &pm, &replay);
        assert_eq!(run.outcome.trace, rerun.outcome.trace, "seed {seed}");
        assert_eq!(
            run.encoded_history(),
            rerun.encoded_history(),
            "seed {seed}: failing history is not byte-identical on replay"
        );
        assert!(
            rerun.violation.is_some(),
            "seed {seed}: replay lost the linearizability violation"
        );
        if failing >= 3 {
            break;
        }
    }
    assert!(failing > 0, "mutation produced no failing seeds in 96 tries");
}
