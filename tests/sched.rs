//! Deterministic schedule exploration with linearizability checking (see
//! DESIGN.md, "Deterministic schedule exploration").
//!
//! Each test runs a seeded concurrent workload under the cooperative
//! scheduler (`spash-sched`), exploring a batch of random interleavings
//! and checking every completed history against the sequential map model
//! with the Wing–Gong checker. Failures print the schedule seed and
//! decision trace; `spash-bench sched` runs the bigger sweeps from
//! EXPERIMENTS.md.

use spash_repro::baselines::{CLevel, Cceh, Dash, Halo, Level, Plush};
use spash_repro::htm::HtmConfig;
use spash_repro::index_api::crashpoint::{CrashTarget, SweepOp};
use spash_repro::index_api::history::{self, Recorder};
use spash_repro::pmem::canary::{self, Canary};
use spash_repro::pmem::{PersistenceDomain, PmConfig, PmDevice};
use spash_repro::sched::explore::{explore, ExploreConfig};
use spash_repro::sched::{run_tasks, SchedConfig};
use spash_repro::spash::{Spash, SpashConfig};

fn pm() -> PmConfig {
    let mut pm = PmConfig::small_test();
    pm.arena_size = 48 << 20;
    pm.domain = PersistenceDomain::Eadr;
    pm
}

/// Explore `seeds` random schedules of the shared CI-sized workload and
/// require every history to linearize.
fn assert_linearizable(target: CrashTarget, seeds: u64) {
    assert_clean(&target, &ExploreConfig::ci(seeds));
}

/// Run `cfg`'s exploration of `target` and require every history to
/// linearize.
fn assert_clean(target: &CrashTarget, cfg: &ExploreConfig) {
    let report = explore(target, &pm(), cfg);
    assert_eq!(report.schedules, cfg.seeds);
    assert!(
        report.distinct >= cfg.seeds / 2,
        "{}: only {} distinct interleavings in {} schedules — exploration is degenerate",
        report.name,
        report.distinct,
        report.schedules
    );
    assert!(
        report.clean(),
        "{}: schedule exploration failed\nviolations:\n{}\npanics:\n{}\nstopped: {}",
        report.name,
        report
            .violations
            .iter()
            .map(|f| f.detail.clone())
            .collect::<Vec<_>>()
            .join("\n"),
        report
            .panics
            .iter()
            .map(|f| f.detail.clone())
            .collect::<Vec<_>>()
            .join("\n"),
        report.stopped,
    );
}

const CI_SEEDS: u64 = 10;

#[test]
fn spash_concurrent_histories_linearize() {
    assert_linearizable(Spash::crash_target(SpashConfig::test_default()), CI_SEEDS);
}

#[test]
fn cceh_concurrent_histories_linearize() {
    assert_linearizable(Cceh::crash_target(1), CI_SEEDS);
}

#[test]
fn dash_concurrent_histories_linearize() {
    assert_linearizable(Dash::crash_target(1), CI_SEEDS);
}

#[test]
fn level_concurrent_histories_linearize() {
    assert_linearizable(Level::crash_target(4), CI_SEEDS);
}

#[test]
fn clevel_concurrent_histories_linearize() {
    assert_linearizable(CLevel::crash_target(4), CI_SEEDS);
}

#[test]
fn plush_concurrent_histories_linearize() {
    assert_linearizable(Plush::crash_target(4), CI_SEEDS);
}

#[test]
fn halo_concurrent_histories_linearize() {
    // The racy-insert canary must not be armed under the healthy run.
    let _quiet = canary::disarmed();
    assert_linearizable(Halo::crash_target(8 << 20), CI_SEEDS);
}

/// Four threads (not three) still linearize: the checker's real-time
/// pruning has to work with a wider pending frontier.
#[test]
fn four_thread_histories_linearize() {
    let mut cfg = ExploreConfig::ci(6);
    cfg.lin.threads = 4;
    cfg.lin.ops_per_thread = 6;
    let report = explore(
        &Spash::crash_target(SpashConfig::test_default()),
        &pm(),
        &cfg,
    );
    assert!(report.clean(), "4-thread exploration failed");
}

/// Every operation and every split takes the §IV-A lock fallback: each
/// transaction capacity-aborts at its first guarded read, and the first
/// abort already exhausts the retry budget.
fn every_op_falls_back() -> SpashConfig {
    SpashConfig {
        max_tx_retries: 0,
        htm: HtmConfig {
            read_capacity: 0,
            ..HtmConfig::default()
        },
        ..SpashConfig::test_default()
    }
}

/// Only splits take the lock fallback: a split's transaction writes more
/// than four lines, an operation's does not.
fn splits_fall_back() -> SpashConfig {
    SpashConfig {
        htm: HtmConfig {
            write_capacity: 4,
            ..HtmConfig::default()
        },
        ..SpashConfig::test_default()
    }
}

/// Explore `seeds` schedules of `cfg` on a table that splits while the
/// tasks run: one segment, filled by the prefill (16 of 32 keys), so the
/// tasks' inserts split it and double the directory concurrently.
fn assert_splitting_histories_linearize(cfg: SpashConfig, seeds: u64) {
    let mut explore_cfg = ExploreConfig::ci(seeds);
    explore_cfg.lin.prefill = 16;
    explore_cfg.lin.key_space = 32;
    let cfg = SpashConfig {
        initial_depth: 0,
        ..cfg
    };
    assert_clean(&Spash::crash_target(cfg), &explore_cfg);
}

#[test]
fn spash_lock_fallback_histories_linearize() {
    assert_splitting_histories_linearize(every_op_falls_back(), 64);
}

#[test]
fn spash_split_fallback_histories_linearize() {
    assert_splitting_histories_linearize(splits_fall_back(), 64);
}

/// Two writers insert disjoint key ranges into a depth-2 directory —
/// enough to force segment splits and a collaborative directory doubling
/// mid-run — while a reader hammers lookups across both ranges, under
/// schedule `seed`. The recorded history must linearize, and the
/// capacity growth proves the doubling actually happened under the
/// explored interleavings. Returns the index.
fn doubling_under_readers(cfg: SpashConfig, seed: u64) -> std::sync::Arc<Spash> {
    let dev = PmDevice::new(pm());
    let mut ctx = dev.ctx();
    let idx = std::sync::Arc::new(Spash::format(&mut ctx, cfg).expect("format"));
    let cap0 = idx.capacity();
    let recorder = Recorder::new();

    let mut bodies: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
    for (t, keys) in [(0usize, 1..=30u64), (1, 31..=60)] {
        let idx = std::sync::Arc::clone(&idx);
        let rec = recorder.clone();
        let mut tctx = dev.ctx();
        bodies.push(Box::new(move || {
            for k in keys {
                let op = SweepOp::Insert(k, spash_repro::sched::lin::prefill_value(k));
                rec.run_op(idx.as_ref(), &mut tctx, t, &op);
            }
        }));
    }
    {
        let idx = std::sync::Arc::clone(&idx);
        let rec = recorder.clone();
        let mut tctx = dev.ctx();
        bodies.push(Box::new(move || {
            for i in 0..25u64 {
                let op = SweepOp::Get(1 + (i * 7) % 60);
                rec.run_op(idx.as_ref(), &mut tctx, 2, &op);
            }
        }));
    }

    let out = run_tasks(&SchedConfig::random(seed, 32), None, bodies);
    assert!(out.panics.is_empty(), "seed {seed}: {:?}", out.panics);
    assert!(out.stopped.is_none(), "seed {seed}: {:?}", out.stopped);

    let hist = recorder.take();
    history::check_linearizable(&hist, &Default::default()).unwrap_or_else(|v| {
        panic!(
            "seed {seed}: doubling-under-readers history: {v}\ntrace = {:?}",
            out.trace
        )
    });
    assert!(
        idx.capacity() > cap0,
        "seed {seed}: 60 inserts never grew a depth-2 directory (capacity {cap0})"
    );
    idx
}

/// Concurrent split/doubling with concurrent readers linearizes.
#[test]
fn spash_doubling_under_readers_linearizes() {
    for seed in [1u64, 7, 23] {
        doubling_under_readers(SpashConfig::test_default(), seed);
    }
}

/// The same scenario with every split under the lock fallback, which
/// drives any active doubling to completion before it locks.
#[test]
fn spash_doubling_under_readers_linearizes_with_locked_splits() {
    for seed in [1u64, 7, 23] {
        let idx = doubling_under_readers(splits_fall_back(), seed);
        assert!(idx.fallback_count() > 0, "seed {seed}: no split fell back");
    }
}

/// A merge racing a split on a distant subtree of the directory.
///
/// Keys come from two subtrees of an `initial_depth: 3` table: 14 with
/// hash prefix `0b11110` and 14 with `0b11111` take the directory to
/// depth 5, then all but one `0b11111` key are removed. `0b000` keys
/// fill their segment up to its next split. Task A removes the last
/// `0b11111` key (its segment merges into its buddy, and no segment
/// needs the fifth prefix bit any more) while task B inserts the
/// `0b000` key that splits its segment into two depth-4 children. The
/// two subtrees keep the merge's and the split's directory partitions,
/// seg-info and fp lines apart, so the transactions do not conflict and
/// only the directory itself can couple them. Every surviving key must
/// read back and the index must pass its integrity audit.
///
/// Seeds 12354, 15223 and 19316 lost 5 keys with `InconsistentDepth`
/// while merges halved the directory: the halving copied the split's
/// uncommitted directory entries, and the split then rolled back.
#[test]
fn merge_racing_a_split_keeps_every_key() {
    use spash_repro::index_api::{hash_key, PersistentIndex};

    fn with_prefix(prefix: u64, bits: u32) -> impl Iterator<Item = u64> {
        (1u64..).filter(move |&k| hash_key(k) >> (64 - bits) == prefix)
    }
    let deep: Vec<u64> = with_prefix(0b11110, 5).take(14).collect();
    let merged: Vec<u64> = with_prefix(0b11111, 5).take(14).collect();
    let low: Vec<u64> = with_prefix(0b000, 3).take(64).collect();

    // The index after setup, with `n_low` of the `0b000` keys inserted.
    let build = |n_low: usize| {
        let dev = PmDevice::new(pm());
        let mut ctx = dev.ctx();
        let cfg = SpashConfig {
            initial_depth: 3,
            ..SpashConfig::test_default()
        };
        let idx = std::sync::Arc::new(Spash::format(&mut ctx, cfg).expect("format"));
        for &k in deep.iter().chain(&merged) {
            idx.insert_u64(&mut ctx, k, k).unwrap();
        }
        for &k in &merged[..13] {
            assert!(idx.remove(&mut ctx, k), "remove {k}");
        }
        for &k in &low[..n_low] {
            idx.insert_u64(&mut ctx, k, k).unwrap();
        }
        (dev, idx)
    };
    // How many `0b000` keys fit before the next one splits.
    let n_low = {
        let (dev, idx) = build(0);
        let mut ctx = dev.ctx();
        let cap = idx.capacity_slots();
        low.iter()
            .position(|&k| {
                idx.insert_u64(&mut ctx, k, k).unwrap();
                idx.capacity_slots() != cap
            })
            .expect("the 0b000 segment never split")
    };

    let run = |seed: u64| {
        let (dev, idx) = build(n_low);
        let (last, splitter) = (merged[13], low[n_low]);
        let mut bodies: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
        {
            let (idx, mut ctx) = (std::sync::Arc::clone(&idx), dev.ctx());
            bodies.push(Box::new(move || assert!(idx.remove(&mut ctx, last))));
        }
        {
            let (idx, mut ctx) = (std::sync::Arc::clone(&idx), dev.ctx());
            bodies.push(Box::new(move || {
                idx.insert_u64(&mut ctx, splitter, splitter).unwrap()
            }));
        }
        let out = run_tasks(&SchedConfig::random(seed, 64), None, bodies);
        assert!(out.panics.is_empty(), "seed {seed}: {:?}", out.panics);
        assert!(out.stopped.is_none(), "seed {seed}: {:?}", out.stopped);

        let mut ctx = dev.ctx();
        for &k in deep.iter().chain(&low[..=n_low]) {
            assert!(
                idx.get_u64(&mut ctx, k) == Some(k),
                "seed {seed}: key {k} lost\ntrace = {:?}",
                out.trace
            );
        }
        assert_eq!(
            idx.get_u64(&mut ctx, last),
            None,
            "seed {seed}: removed key reads back"
        );
        if let Err(e) = idx.verify_integrity(&mut ctx) {
            panic!("seed {seed}: {e:?}\ntrace = {:?}", out.trace);
        }
    };
    // Two workers: every seed formats a fresh 48 MiB device.
    let seeds: Vec<u64> = [12354, 15223, 19316].into_iter().chain(0..1000).collect();
    std::thread::scope(|s| {
        for part in seeds.chunks(seeds.len().div_ceil(2)) {
            s.spawn(|| part.iter().for_each(|&seed| run(seed)));
        }
    });
}

/// An update prepares a replacement blob when its key's slot is inline.
/// If a concurrent update of that key links a blob of the same size
/// class first, the retry rewrites that blob in place and must free the
/// unused replacement: two tasks update one inline-valued key with two
/// blob values of one size class, and the heap audit counts no leak.
/// The values are past the allocator's small classes: a freed small
/// slot keeps its persistent bit, so the census would count it either
/// way. The seeds must reach that retry (a transaction that aborted and
/// prepared again) at least once.
#[test]
fn racing_blob_updates_of_an_inline_key_leak_nothing() {
    use spash_repro::index_api::crashpoint::Recovered;
    use spash_repro::index_api::PersistentIndex;

    let key = 7u64;
    let mut retried = 0;
    for seed in 0..16 {
        let dev = PmDevice::new(pm());
        let mut ctx = dev.ctx();
        let idx =
            std::sync::Arc::new(Spash::format(&mut ctx, SpashConfig::test_default()).unwrap());
        idx.insert(&mut ctx, key, &[0; 6]).unwrap();
        let bodies: Vec<Box<dyn FnOnce() + Send>> = [1u8, 2]
            .into_iter()
            .map(|byte| {
                let (idx, mut ctx) = (std::sync::Arc::clone(&idx), dev.ctx());
                Box::new(move || idx.update(&mut ctx, key, &[byte; 200]).unwrap())
                    as Box<dyn FnOnce() + Send>
            })
            .collect();
        let out = run_tasks(&SchedConfig::random(seed, 64), None, bodies);
        assert!(out.panics.is_empty(), "seed {seed}: {:?}", out.panics);
        assert!(out.stopped.is_none(), "seed {seed}: {:?}", out.stopped);
        let htm = idx.htm_stats();
        retried += u32::from(htm.explicit_aborts + htm.conflict_aborts > 0);
        assert_eq!(
            idx.audit(&mut ctx),
            (0, None),
            "seed {seed}: trace = {:?}",
            out.trace
        );
    }
    assert!(retried > 0, "no seed made an update prepare twice");
}

/// Checker validation: with Halo's check-then-append atomicity broken
/// (`Canary::HaloRacyInsert`), the explorer must find a
/// linearizability violation, and the violation must replay
/// deterministically from its recorded trace.
#[test]
fn mutated_halo_violation_is_caught_and_replays() {
    let _c = canary::arm(Canary::HaloRacyInsert);
    let target = Halo::crash_target(8 << 20);
    // Insert-heavy collisions: no prefill, tiny key space, so racing
    // inserts of the same absent key are common.
    let mut cfg = ExploreConfig::ci(64);
    cfg.lin.key_space = 4;
    cfg.lin.prefill = 0;
    let report = explore(&target, &pm(), &cfg);
    assert!(
        !report.violations.is_empty(),
        "mutated Halo survived {} schedules — the checker caught nothing",
        report.schedules
    );
    for f in &report.violations {
        assert!(
            f.replay_reproduces,
            "seed {}: violation did not replay byte-identically\n{}",
            f.seed, f.detail
        );
    }
}

/// The scale sweep's batch driver (`spash_sched::batch::run_batch`, the
/// engine under `spash-bench scale`) must record a decision trace that
/// replays byte-identically with identical per-task results — the
/// property that makes every sweep row reproducible from its seed alone.
#[test]
fn batch_driver_trace_replays_byte_identically() {
    use spash_repro::index_api::PersistentIndex;
    use spash_repro::sched::batch::run_batch;

    let run = |cfg: &SchedConfig| {
        let dev = PmDevice::new(pm());
        let mut fmt = dev.ctx();
        let idx =
            std::sync::Arc::new(Spash::format(&mut fmt, SpashConfig::default()).unwrap());
        drop(fmt);
        // Contexts created before spawning, in task order, so simulated
        // thread ids match between record and replay (the scale driver's
        // discipline).
        let bodies: Vec<Box<dyn FnOnce() -> u64 + Send>> = (0..3u64)
            .map(|t| {
                let idx = idx.clone();
                let mut ctx = dev.ctx();
                let b: Box<dyn FnOnce() -> u64 + Send> = Box::new(move || {
                    // Digest every observed outcome: any divergence in
                    // interleaving that is visible to a task changes it.
                    let mut digest = 0xcbf2_9ce4_8422_2325u64;
                    let mut mix = |x: u64| {
                        digest = (digest ^ x).wrapping_mul(0x100_0000_01b3);
                    };
                    for i in 0..12u64 {
                        let k = i % 6 + 1; // tiny key space: tasks collide
                        match i % 3 {
                            0 => mix(idx.insert_u64(&mut ctx, k, t * 100 + i).is_ok() as u64),
                            1 => mix(idx.get_u64(&mut ctx, k).unwrap_or(u64::MAX)),
                            _ => mix(idx.remove(&mut ctx, k) as u64),
                        }
                    }
                    digest
                });
                b
            })
            .collect();
        let out = run_batch(cfg, None, bodies);
        assert!(
            out.complete(),
            "batch run did not complete: panics={:?} stopped={:?}",
            out.sched.panics,
            out.sched.stopped
        );
        (out.sched.trace, out.results)
    };

    let (trace, results) = run(&SchedConfig::random(0xBA7C4, 40));
    assert!(!trace.is_empty(), "recorded an empty decision trace");
    let (replayed, replayed_results) = run(&SchedConfig::replay(trace.clone()));
    assert_eq!(trace, replayed, "replay diverged from the recorded decisions");
    assert_eq!(results, replayed_results, "replay changed a task's observations");
}

