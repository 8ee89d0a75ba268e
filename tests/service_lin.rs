//! Service-level linearizability (DESIGN.md §11): client operations
//! driven through the sharded, batched front-end — routing, batch
//! formation, `run_batch` execution, coalesced-fence ack, batch-at-a-time
//! delivery — must linearize against the sequential map model. Every
//! client op is recorded with its invocation stamped at batch formation
//! and its response at delivery, then Wing–Gong-checked.
//!
//! CI's sched-explore job runs the full matrix (`spash-bench service
//! --lin-check`, every index × schedules); these tier-1 tests pin a
//! representative subset: Spash, one lock-based baseline (CCEH), and the
//! batching-native baseline (Halo).

use spash_repro::baselines::{Cceh, Halo};
use spash_repro::index_api::crashpoint::CrashTarget;
use spash_repro::service::lincheck::{lin_check_target, ServiceLinConfig};
use spash_repro::spash::{Spash, SpashConfig};

fn assert_service_linearizable(target: CrashTarget) {
    let cfg = ServiceLinConfig::default();
    for s in 0..cfg.schedules {
        let n = lin_check_target(&target, &cfg, cfg.seed.wrapping_add(s))
            .unwrap_or_else(|e| panic!("{} seed {s}: {e}", target.name));
        assert_eq!(
            n as u64, cfg.ops,
            "{} seed {s}: history is missing client ops",
            target.name
        );
    }
}

#[test]
fn spash_histories_linearize_through_the_batched_front_end() {
    assert_service_linearizable(Spash::crash_target(SpashConfig::test_default()));
}

#[test]
fn cceh_histories_linearize_through_the_batched_front_end() {
    assert_service_linearizable(Cceh::crash_target(1));
}

#[test]
fn halo_histories_linearize_through_the_batched_front_end() {
    assert_service_linearizable(Halo::crash_target(8 << 20));
}
