//! Crash-point fault-injection sweeps (see DESIGN.md, "Crash-point fault
//! injection"): replay a seeded workload, crash at every scheduled media
//! write, recover, and check the recovered index against the shadow model.
//!
//! The CI-scale sweeps here are bounded; EXPERIMENTS.md has the recipe for
//! the full 10k-op exhaustive run via `spash-bench crashpoints`.

use spash_repro::index_api::crashpoint::{run_sweep, CheckLevel, SweepConfig};
use spash_repro::pmem::PersistenceDomain;
use spash_repro::spash::{Spash, SpashConfig};

fn report_failures(name: &str, r: &spash_repro::index_api::crashpoint::SweepReport) {
    if !r.is_ok() {
        panic!(
            "{name}: {} of {} crash points failed (total {} media writes):\n{}",
            r.failure_count,
            r.points.len(),
            r.total_writes,
            r.failures.join("\n")
        );
    }
}

/// Exhaustive eADR sweep over Spash: every media write of the seeded
/// workload is a crash point, and recovery must restore exactly the
/// committed prefix (the in-flight op may be atomic-visible or absent).
#[test]
fn spash_eadr_sweep_recovers_committed_prefix_at_every_write() {
    let cfg = SweepConfig::ci(PersistenceDomain::Eadr);
    assert_eq!(cfg.check, CheckLevel::Exact);
    let target = Spash::crash_target(SpashConfig::test_default());
    let r = run_sweep(&target, &cfg);
    assert!(r.total_writes > 0, "workload produced no media writes");
    report_failures("Spash/eADR", &r);
    assert_eq!(r.unrecovered, 0);
    // Every point actually recovered and passed the structural audit.
    assert!(r.points.iter().all(|p| p.recovered && p.audit_ok));
    // eADR: the reserve flushes; nothing is ever reverted.
    assert!(r.points.iter().all(|p| p.reverted_lines == 0));
}

/// ADR negative control: Spash issues no flushes, so a volatile cache may
/// tear the image arbitrarily. Recovery and the audit must still complete
/// without panicking at every crash point (robustness), but no
/// data-survival claim is made.
#[test]
fn spash_adr_sweep_recovery_is_panic_free_on_torn_images() {
    let mut cfg = SweepConfig::ci(PersistenceDomain::Adr);
    assert_eq!(cfg.check, CheckLevel::NoCorruption);
    cfg.max_points = 120;
    cfg.exhaustive_limit = 120; // strided: robustness, not exactness
    let target = Spash::crash_target(SpashConfig::test_default());
    let r = run_sweep(&target, &cfg);
    assert!(r.total_writes > 0);
    report_failures("Spash/ADR", &r);
    // ADR reverts torn lines at some crash points (the platform check
    // proper lives in tests/durability.rs).
    assert!(r.points.iter().all(|p| p.flushed_lines == 0));
}

/// `(decision, fired, write ordinal, trace hash, recovered)` of one
/// sampled crash.
type DecisionCrash = (u64, bool, Option<u64>, u64, bool);

/// Every sampled crash below, per schedule seed: the crash-at-decision
/// run is the lin driver's run plus a power failure, so none of these may
/// move when either changes shape without changing the trait calls.
/// The samples are an even stride over the schedule's decisions, so they
/// move whenever an operation emits a different number of sync points
/// (one `HtmAcquire` per line a transaction reads, not per word). The
/// write ordinals count every media write before the crash. Spash issues
/// no flush under ADR that it does not issue under eADR
/// (`spash_issues_the_same_writes_and_flushes_in_both_domains`), so
/// Spash's ADR image is never recoverable here.
const DECISION_CRASH_PINS: [(u64, [DecisionCrash; 6]); 2] = [
    (
        3,
        [
            (1, true, Some(0), 0x0832_8807_b4eb_6fec, false),
            (66, true, Some(1), 0xb0ce_a195_2d76_d17f, false),
            (132, true, Some(2), 0x8853_25f8_1d79_ca39, false),
            (198, true, Some(2), 0xc324_bf69_3b50_b462, false),
            (264, true, Some(7), 0xd836_1162_38b8_b644, false),
            (330, true, Some(8), 0x71e8_b393_bdc3_e93e, false),
        ],
    ),
    (
        11,
        [
            (1, true, Some(0), 0x0832_8807_b4eb_6fec, false),
            (70, true, Some(1), 0x37bb_9bb2_4948_079a, false),
            (139, true, Some(2), 0x5bb6_7ef0_65f7_88f6, false),
            (209, true, Some(4), 0x5aff_805a_0331_0a5c, false),
            (278, true, Some(8), 0xa96a_f246_b417_f52a, false),
            (348, true, Some(8), 0xba93_4d75_ba43_af31, false),
        ],
    ),
];

/// Concurrent-crash sweep: a power failure at sampled *scheduler decision
/// points* of a 2-thread workload (not just at media writes of a
/// sequential one). The crash fires mid-interleaving via the device fault
/// plan while both tasks may be mid-operation; under ADR the torn image
/// makes no data-survival claim, but recovery and the structural audit
/// must complete without panicking at every sampled point
/// (`CheckLevel::NoCorruption`).
#[test]
fn spash_adr_crash_at_scheduler_decision_points_recovers_panic_free() {
    use spash_repro::sched::crashsched::{measure_decisions, run_crash_schedule};
    use spash_repro::sched::lin::LinConfig;

    let pm = SweepConfig::ci(PersistenceDomain::Adr).pm;
    let target = Spash::crash_target(SpashConfig::test_default());

    for (seed, pins) in DECISION_CRASH_PINS {
        let mut cfg = LinConfig::small(seed);
        cfg.threads = 2;
        cfg.ops_per_thread = 10;
        let total = measure_decisions(&target, &pm, &cfg);
        assert!(total > 10, "schedule too short to sample ({total} decisions)");

        // Even stride including early and late points. The tail of the
        // trace is task-exit handoffs with no further sync point, so the
        // last armable ordinal sits a few decisions before the end.
        let samples = pins.len() as u64;
        let max_d = total - cfg.threads as u64 - 1;
        for (i, pin) in (0..samples).zip(pins) {
            let d = 1 + i * (max_d - 1) / (samples - 1);
            let mut crash_cfg = cfg.clone();
            crash_cfg.sched.crash_at_decision = Some(d);
            let out = run_crash_schedule(&target, &pm, &crash_cfg);
            assert!(
                out.fired,
                "seed {seed}: crash at decision {d} of {total} never fired"
            );
            assert!(
                out.no_corruption(),
                "seed {seed}: crash at decision {d}: {}\ntrace = {:?}",
                out.unexpected_panic.as_deref().unwrap_or(""),
                out.trace
            );
            let got = (
                d,
                out.fired,
                out.write,
                out.trace.hash(),
                out.recovery.is_some(),
            );
            assert_eq!(got, pin, "seed {seed}: crash at decision {d} moved");
        }
    }
}

/// The ADR sweep holds the ADR-era baselines to exact recovery. With
/// `Header::stamp`'s flush skipped (sanitizer off), a volatile cache
/// loses the headers that commit CCEH's segments: the domain-only level
/// (`NoCorruption`) passes that, CCEH's own level must not.
#[test]
fn adr_sweep_catches_a_skipped_baseline_publication_flush() {
    use spash_repro::baselines::Cceh;
    use spash_repro::pmem::canary::{self, Canary};

    let target = Cceh::crash_target(1);
    let mut cfg = SweepConfig::ci(PersistenceDomain::Adr);
    assert!(!cfg.pm.san);
    cfg.n_ops = 250;
    cfg.key_space = 96;
    cfg.exhaustive_limit = 40;
    cfg.max_points = 40;
    let _c = canary::arm(Canary::SkipStampFlush);
    cfg.check = CheckLevel::NoCorruption;
    report_failures("CCEH/ADR, NoCorruption", &run_sweep(&target, &cfg));
    cfg.check = CheckLevel::for_target(&target.name, PersistenceDomain::Adr);
    assert_eq!(cfg.check, CheckLevel::Exact);
    let r = run_sweep(&target, &cfg);
    assert!(
        !r.is_ok(),
        "CCEH/ADR without the header flush passed exact recovery at {} points",
        r.points.len()
    );
}
