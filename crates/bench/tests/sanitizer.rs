//! Mutation canaries and clean-run gates for the persistence-ordering
//! sanitizer, run through the crash sweep's record pass (`max_points =
//! 0`: the seeded workload once, on a freshly formatted index, with the
//! sanitizer armed and nothing injected).
//!
//! Each of the six baselines has two canary sites compiled into its
//! publication path (the last flush and the last fence before the
//! operation becomes visible), skipped under [`Canary::SkipInsertFlush`]
//! and [`Canary::SkipInsertFence`]. A record pass runs one target, so
//! arming a canary suppresses that target's site alone. Spash issues no
//! publication flush, so it has none: it claims no ADR durability and is
//! not armed under ADR. Suppressing the flush must surface as a `published-dirty` violation on a
//! `DirtyUnflushed` cacheline; suppressing the fence must surface as the
//! line being caught in `FlushedUnfenced` (`published-unfenced` at the
//! next visibility edge, or `write-after-flush-before-fence` if a store
//! gets there first).
//!
//! The canaries are process-global, so a clean-run gate holds the
//! switchboard with nothing armed: a canary armed concurrently would
//! poison it.

use spash_bench::indexes::{roster, Geometry};
use spash_index_api::crashpoint::{run_sweep, CheckLevel, CrashTarget, SweepConfig, SweepReport};
use spash_pmem::canary::{self, Canary};
use spash_pmem::san::SanViolationKind;
use spash_pmem::PersistenceDomain;

/// The record-only sweep of `target`, with the sanitizer armed iff the
/// target claims durability in `domain` ([`CheckLevel::arms_sanitizer`]):
/// `ops` seeded ops (seed `0x5A17`) over `keys` keys.
fn record_pass(
    target: &CrashTarget,
    domain: PersistenceDomain,
    ops: u64,
    keys: u64,
    arena_mb: u64,
) -> SweepReport {
    let mut cfg = SweepConfig::ci(domain);
    cfg.pm.arena_size = arena_mb << 20;
    cfg.pm.san = CheckLevel::arms_sanitizer(&target.name, domain);
    cfg.seed = 0x5A17;
    cfg.n_ops = ops;
    cfg.key_space = keys;
    cfg.max_points = 0;
    let r = run_sweep(target, &cfg);
    assert!(
        r.points.is_empty(),
        "{}: a record-only sweep injected",
        r.target
    );
    r
}

fn target_named(name: &str) -> CrashTarget {
    roster(Geometry::Sweep)
        .into_iter()
        .find(|t| t.name == name)
        .unwrap_or_else(|| panic!("no crash target named {name}"))
}

/// Run `target`'s quick ADR record pass with `site` suppressed. Every
/// finding is a sweep failure.
fn run_with_suppressed(target_name: &str, site: Canary) -> SweepReport {
    let _c = canary::arm(site);
    let r = record_pass(
        &target_named(target_name),
        PersistenceDomain::Adr,
        1_500,
        256,
        64,
    );
    assert!(
        !r.record_san.clean() && !r.is_ok(),
        "{target_name}: {site:?} went unnoticed"
    );
    r
}

/// Suppressed publication flush: the sanitizer must localize at least
/// one `published-dirty` violation on a `DirtyUnflushed` line.
fn assert_flush_canary_caught(target_name: &str) {
    let r = run_with_suppressed(target_name, Canary::SkipInsertFlush).record_san;
    assert!(
        r.violations
            .iter()
            .any(|v| v.kind == SanViolationKind::PublishedDirty && v.state == "DirtyUnflushed"),
        "{target_name}: the skipped flush did not yield published-dirty \
         on a DirtyUnflushed line; got {:#?}",
        r.violations
    );
}

/// Suppressed publication fence: the sanitizer must catch the line in
/// `FlushedUnfenced`, and the first visibility edge after the
/// suppressed fence must report it as `published-unfenced`.
fn assert_fence_canary_caught(target_name: &str) {
    let r = run_with_suppressed(target_name, Canary::SkipInsertFence).record_san;
    assert!(
        r.violations.iter().any(|v| v.state == "FlushedUnfenced"),
        "{target_name}: the skipped fence never caught a FlushedUnfenced \
         line; got {:#?}",
        r.violations
    );
    assert!(
        r.violations
            .iter()
            .any(|v| v.kind == SanViolationKind::PublishedUnfenced),
        "{target_name}: the skipped fence never reported \
         published-unfenced at a visibility edge; got {:#?}",
        r.violations
    );
}

#[test]
fn canary_cceh_insert() {
    assert_flush_canary_caught("CCEH");
    assert_fence_canary_caught("CCEH");
}

#[test]
fn canary_dash_insert() {
    assert_flush_canary_caught("Dash");
    assert_fence_canary_caught("Dash");
}

#[test]
fn canary_level_insert() {
    assert_flush_canary_caught("Level");
    assert_fence_canary_caught("Level");
}

#[test]
fn canary_clevel_insert() {
    assert_flush_canary_caught("CLevel");
    assert_fence_canary_caught("CLevel");
}

#[test]
fn canary_plush_insert() {
    assert_flush_canary_caught("Plush");
    assert_fence_canary_caught("Plush");
}

#[test]
fn canary_halo_insert() {
    assert_flush_canary_caught("Halo");
    assert_fence_canary_caught("Halo");
}

/// Zero-false-positive gate: the full 10k-op acceptance workload (1k
/// keys) passes the record pass for every index in `domain`, armed where
/// [`CheckLevel::arms_sanitizer`] says so.
fn assert_clean(domain: PersistenceDomain) {
    let _quiet = canary::disarmed();
    for t in roster(Geometry::Sweep) {
        let r = record_pass(&t, domain, 10_000, 1_000, 256);
        assert!(
            r.is_ok() && r.record_san.clean(),
            "{} {domain:?} record pass not clean: {:#?}",
            r.target,
            r.failures
        );
    }
}

/// Publication checks armed for the six baselines.
#[test]
fn clean_run_adr_all_targets() {
    assert_clean(PersistenceDomain::Adr);
}

/// Publication checks off, perf diagnostics still live.
#[test]
fn clean_run_eadr_all_targets() {
    assert_clean(PersistenceDomain::Eadr);
}

/// Dash's recovery repairs a bucket version word a crash left odd with a
/// plain store. The word is seqlock metadata, so the repair is declared
/// to the sanitizer (`san_forgive`); undeclared, it was a
/// `published-dirty` finding at the end of every recovery that made one.
/// CI's sampled ADR sweep over the baselines at these sizes.
#[test]
fn dash_adr_recoveries_are_clean() {
    let _quiet = canary::disarmed();
    let target = target_named("Dash");
    let mut cfg = SweepConfig::ci(PersistenceDomain::Adr);
    cfg.pm.arena_size = 64 << 20;
    cfg.pm.san = CheckLevel::arms_sanitizer(&target.name, PersistenceDomain::Adr);
    cfg.check = CheckLevel::for_target(&target.name, PersistenceDomain::Adr);
    cfg.n_ops = 500;
    cfg.key_space = 200;
    cfg.exhaustive_limit = 30;
    cfg.max_points = 30;
    let r = run_sweep(&target, &cfg);
    assert!(cfg.pm.san && !r.points.is_empty());
    assert!(r.is_ok(), "{:#?}", r.failures);
}
