//! The allocator's high-water mark under the ADR crash sweep. It has its
//! own test binary because its canary is process-wide and touches every
//! allocator on an ADR device: in a shared binary it would move the
//! media writes that other sweeps pin.

use spash_repro::alloc::PmAllocator;
use spash_repro::baselines::Cceh;
use spash_repro::index_api::crashpoint::{run_sweep, CheckLevel, SweepConfig};
use spash_repro::pmem::canary::{self, Canary};
use spash_repro::pmem::{PersistenceDomain, PmDevice};

/// The mark must be durable before the headers it covers. With its ADR
/// flush skipped (sanitizer off), a volatile cache reverts the mark while
/// the flushed headers above it survive. The high-water invariant names
/// the first such header, and CCEH's exact ADR sweep fails: its recovery
/// walk stops at the reverted mark and finds none of CCEH's regions.
/// Without the canary the same sweep passes and the invariant holds at
/// every point.
#[test]
fn adr_sweep_catches_a_skipped_high_water_flush() {
    let target = Cceh::crash_target(1);
    let mut cfg = SweepConfig::ci(PersistenceDomain::Adr);
    assert!(!cfg.pm.san);
    cfg.n_ops = 250;
    cfg.key_space = 96;
    cfg.exhaustive_limit = 40;
    cfg.max_points = 40;
    cfg.check = CheckLevel::for_target(&target.name, PersistenceDomain::Adr);
    assert_eq!(cfg.check, CheckLevel::Exact);
    let r = run_sweep(&target, &cfg);
    assert!(
        r.is_ok(),
        "CCEH/ADR failed with the mark flushed:\n{}",
        r.failures.join("\n")
    );
    assert!(r.points.iter().all(|p| p.audit_ok));

    let _c = canary::arm(Canary::SkipMarkFlush);
    let dev = PmDevice::new(cfg.pm.clone());
    let mut ctx = dev.ctx();
    let alloc = PmAllocator::format(&mut ctx, 0);
    alloc.alloc_segment(&mut ctx).unwrap();
    assert_eq!(PmAllocator::check_high_water(&ctx), Ok(()));
    dev.simulate_power_failure();
    let err = PmAllocator::check_high_water(&dev.ctx()).unwrap_err();
    assert!(err.starts_with("chunk 0 has header 0xf0000000"), "{err}");

    let r = run_sweep(&target, &cfg);
    assert!(
        !r.is_ok(),
        "CCEH/ADR without the mark flush passed exact recovery at {} points",
        r.points.len()
    );
}
