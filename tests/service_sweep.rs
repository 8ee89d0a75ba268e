//! Crashpoint coverage of fence coalescing (DESIGN.md §11): the service
//! acks a batch only after its single coalesced journal barrier (an
//! ntstore + fence under eADR, a flush + fence under ADR), so across
//! every scheduled crash point
//!
//! * acked ⇒ durable — every acked batch's journal record validates on
//!   the post-crash image in both persistence domains, and
//! * un-acked ⇒ atomic — under eADR the recovered index holds exactly
//!   the acked prefix, with keys touched by the one in-flight batch
//!   allowed at any batch-prefix state.
//!
//! The `FenceDropped` canary (the ADR publication skips its flush and
//! fence) is the canary: under ADR the acked record can sit dirty in the
//! volatile cache and revert at power cut, and the sweep's journal audit
//! must flag it deterministically.

use spash_repro::index_api::crashpoint::{CheckLevel, SweepReport};
use spash_repro::pmem::canary::{self, Canary};
use spash_repro::pmem::PersistenceDomain;
use spash_repro::service::sweep::{run_service_sweep, ServiceSweepConfig};
use spash_repro::spash::{Spash, SpashConfig};

fn report_failures(name: &str, r: &SweepReport) {
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

/// eADR: exact acked-prefix recovery at every sampled crash point of the
/// batched run, plus the acked⇒durable journal audit.
#[test]
fn service_eadr_sweep_recovers_the_acked_prefix_at_every_point() {
    let _quiet = canary::disarmed();
    let cfg = ServiceSweepConfig::test_small(PersistenceDomain::Eadr);
    assert_eq!(cfg.check, CheckLevel::Exact);
    let target = Spash::crash_target(SpashConfig::test_default());
    let r = run_service_sweep(&target, &cfg);
    assert!(r.total_writes > 0, "batched run produced no media writes");
    report_failures("service/Spash/eADR", &r);
    assert_eq!(r.unrecovered, 0);
    assert!(r.points.iter().all(|p| p.recovered && p.audit_ok));
    // eADR: the reserve flushes; nothing is ever reverted.
    assert!(r.points.iter().all(|p| p.reverted_lines == 0));
}

/// ADR: recovery may legitimately decline on a torn image (Spash issues
/// no per-op flushes), but the journal audit still holds — the batch
/// publication carries its own flush+fence, so acked ⇒ durable even
/// under a volatile cache.
#[test]
fn service_adr_sweep_keeps_acked_batches_durable() {
    let _quiet = canary::disarmed();
    let cfg = ServiceSweepConfig::test_small(PersistenceDomain::Adr);
    assert_eq!(cfg.check, CheckLevel::NoCorruption);
    let target = Spash::crash_target(SpashConfig::test_default());
    let r = run_service_sweep(&target, &cfg);
    assert!(r.total_writes > 0);
    report_failures("service/Spash/ADR", &r);
}

/// The named fence-coalescing canary: dropping the post-publication
/// fence leaves acked journal records dirty in the volatile cache, and
/// the ADR sweep's acked⇒durable audit must catch the revert.
#[test]
fn fence_dropped_canary_is_caught_by_the_adr_sweep() {
    let cfg = ServiceSweepConfig::test_small(PersistenceDomain::Adr);
    let target = Spash::crash_target(SpashConfig::test_default());
    let r = {
        let _c = canary::arm(Canary::FenceDropped);
        run_service_sweep(&target, &cfg)
    };
    assert!(
        r.failure_count > 0,
        "a fence-free publication path sailed through the ADR sweep"
    );
    assert!(
        r.failures.iter().any(|f| f.contains("acked")),
        "sweep failed, but not via the acked⇒durable audit:\n{}",
        r.failures.join("\n")
    );
}
