//! Trait-conformance suite: every index in the repository (Spash and the
//! six baselines) must implement the same observable semantics.

use std::sync::Arc;

use spash_repro::baselines::{CLevel, Cceh, Dash, Halo, Level, Plush};
use spash_repro::index_api::{IndexError, PersistentIndex};
use spash_repro::pmem::PmDevice;
use spash_repro::spash::ConcurrencyMode;

mod support;

const N_KINDS: usize = 8;

/// Build index kind `which`: the second Spash runs in `WriteLock` mode
/// and Halo's log is 32 MiB.
fn build(which: usize) -> (Arc<PmDevice>, Box<dyn PersistentIndex>) {
    support::build(which, ConcurrencyMode::WriteLock, 32 << 20)
}

#[test]
fn basic_semantics_hold_for_every_index() {
    for which in 0..N_KINDS {
        let (dev, idx) = build(which);
        let mut ctx = dev.ctx();
        let name = idx.name();

        assert_eq!(idx.get_u64(&mut ctx, 1), None, "{name}: empty miss");
        idx.insert_u64(&mut ctx, 1, 100).unwrap();
        assert_eq!(idx.get_u64(&mut ctx, 1), Some(100), "{name}");
        assert_eq!(
            idx.insert_u64(&mut ctx, 1, 200),
            Err(IndexError::DuplicateKey),
            "{name}: duplicate insert"
        );
        assert_eq!(idx.get_u64(&mut ctx, 1), Some(100), "{name}: value intact");
        idx.update_u64(&mut ctx, 1, 300).unwrap();
        assert_eq!(idx.get_u64(&mut ctx, 1), Some(300), "{name}");
        assert_eq!(
            idx.update_u64(&mut ctx, 2, 0),
            Err(IndexError::NotFound),
            "{name}: update of absent key"
        );
        assert!(idx.remove(&mut ctx, 1), "{name}");
        assert!(!idx.remove(&mut ctx, 1), "{name}: double remove");
        assert_eq!(idx.get_u64(&mut ctx, 1), None, "{name}");
        assert_eq!(idx.entries(), 0, "{name}: entry count");
    }
}

#[test]
fn variable_sized_values_roundtrip_everywhere() {
    for which in 0..N_KINDS {
        let (dev, idx) = build(which);
        let mut ctx = dev.ctx();
        let name = idx.name();
        let sizes: [(u64, usize); 8] = [
            (10, 0),
            (11, 1),
            (12, 7),
            (13, 8),
            (14, 63),
            (15, 64),
            (16, 255),
            (17, 1000),
        ];
        for (k, len) in sizes {
            let val: Vec<u8> = (0..len).map(|i| (i as u8) ^ (k as u8)).collect();
            idx.insert(&mut ctx, k, &val).unwrap();
            let mut out = Vec::new();
            assert!(idx.get(&mut ctx, k, &mut out), "{name}: key {k}");
            assert_eq!(out, val, "{name}: value of len {len}");
        }
        // Update across size classes.
        idx.update(&mut ctx, 17, &[7u8; 12]).unwrap();
        let mut out = Vec::new();
        assert!(idx.get(&mut ctx, 17, &mut out), "{name}");
        assert_eq!(out, vec![7u8; 12], "{name}: shrunk value");
    }
}

#[test]
fn ten_thousand_keys_roundtrip_everywhere() {
    for which in 0..N_KINDS {
        let (dev, idx) = build(which);
        let mut ctx = dev.ctx();
        let name = idx.name();
        for k in 1..=10_000u64 {
            idx.insert_u64(&mut ctx, k, k * 3).unwrap();
        }
        assert_eq!(idx.entries(), 10_000, "{name}");
        for k in 1..=10_000u64 {
            assert_eq!(idx.get_u64(&mut ctx, k), Some(k * 3), "{name}: key {k}");
        }
        // Delete every third key and verify the holes.
        for k in (3..=10_000u64).step_by(3) {
            assert!(idx.remove(&mut ctx, k), "{name}: remove {k}");
        }
        for k in 1..=10_000u64 {
            let want = if k % 3 == 0 { None } else { Some(k * 3) };
            assert_eq!(idx.get_u64(&mut ctx, k), want, "{name}: key {k}");
        }
    }
}

#[test]
fn concurrent_disjoint_writers_every_index() {
    for which in 0..N_KINDS {
        let (dev, idx) = build(which);
        let idx: Arc<Box<dyn PersistentIndex>> = Arc::new(idx);
        let name = idx.name().to_string();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let idx = Arc::clone(&idx);
                let dev = Arc::clone(&dev);
                s.spawn(move || {
                    let mut ctx = dev.ctx();
                    for i in 0..1500u64 {
                        let k = 1 + t * 1500 + i;
                        idx.insert_u64(&mut ctx, k, k).unwrap();
                    }
                });
            }
        });
        let mut ctx = dev.ctx();
        for k in 1..=6000u64 {
            assert_eq!(idx.get_u64(&mut ctx, k), Some(k), "{name}: key {k}");
        }
    }
}

#[test]
fn spash_has_the_fewest_pm_accesses_per_search() {
    // The repository's central comparative claim (Fig 8): Spash's searches
    // touch less PM than any baseline's.
    let mut per_op: Vec<(String, f64)> = Vec::new();
    for which in [0usize, 2, 3, 4, 5] {
        let (dev, idx) = build(which);
        let mut ctx = dev.ctx();
        for k in 1..=20_000u64 {
            idx.insert_u64(&mut ctx, k, k).unwrap();
        }
        dev.invalidate_cache();
        let before = dev.snapshot();
        for k in 1..=5_000u64 {
            idx.get_u64(&mut ctx, k * 3 % 20_000 + 1);
        }
        let d = dev.snapshot().since(&before);
        per_op.push((idx.name().to_string(), d.cl_reads as f64 / 5_000.0));
    }
    let spash = per_op[0].1;
    for (name, v) in &per_op[1..] {
        assert!(
            spash <= *v + 0.05,
            "Spash ({spash:.2} cl/search) must not exceed {name} ({v:.2})"
        );
    }
}

/// Crash-point sweep over every baseline (sampled schedule; Spash's
/// exhaustive sweeps live in tests/crashpoints.rs): in both domains, each
/// baseline's recovery must restore exactly the committed prefix at every
/// injected crash, and its heap audit must find no corruption. Under ADR
/// that is what the baselines' flushes are for.
#[test]
fn baseline_crash_sweeps_recover_committed_prefix() {
    use spash_repro::index_api::crashpoint::{run_sweep, CheckLevel, CrashTarget, SweepConfig};
    use spash_repro::pmem::PersistenceDomain;

    let targets: Vec<CrashTarget> = vec![
        Cceh::crash_target(1),
        Dash::crash_target(1),
        Level::crash_target(4),
        CLevel::crash_target(4),
        Plush::crash_target(4),
        Halo::crash_target(8 << 20),
    ];
    for (domain, t) in [PersistenceDomain::Eadr, PersistenceDomain::Adr]
        .into_iter()
        .flat_map(|d| targets.iter().map(move |t| (d, t)))
    {
        let mut cfg = SweepConfig::ci(domain);
        cfg.check = CheckLevel::for_target(&t.name, domain);
        assert_eq!(cfg.check, CheckLevel::Exact);
        // Sampled: a short workload and a strided schedule keep twelve
        // sweeps CI-sized; EXPERIMENTS.md has the full-scale recipe.
        cfg.n_ops = 250;
        cfg.key_space = 96;
        cfg.exhaustive_limit = 40;
        cfg.max_points = 40;
        let r = run_sweep(t, &cfg);
        let who = format!("{}/{domain:?}", r.target);
        assert!(
            r.total_writes > 0,
            "{who}: workload produced no media writes"
        );
        assert!(!r.points.is_empty(), "{who}: no crash points injected");
        assert!(
            r.is_ok(),
            "{who}: {} of {} crash points failed:\n{}",
            r.failure_count,
            r.points.len(),
            r.failures.join("\n")
        );
        assert_eq!(r.unrecovered, 0, "{who}: unrecoverable points");
        assert!(
            r.points.iter().all(|p| p.recovered && p.audit_ok),
            "{who}: audit failures"
        );
    }
}
