//! Mutation canaries for the service layer. Each hook deliberately
//! breaks one invariant the verification stack claims to enforce; a
//! named test or gate must deterministically catch each one, proving the
//! harness still detects that class of real bug. All hooks are
//! process-global and default-off: tests that arm one must serialize on
//! a shared lock and restore the previous state.

use std::sync::atomic::{AtomicBool, Ordering};

use spash_pmem::{MemCtx, PmAddr};

/// Drop the batch publication barrier: the journal record is written but
/// neither flushed nor fenced (under eADR its ntstore is not fenced) —
/// the forgotten group-commit fence. Under
/// ADR the acked record can sit dirty in the volatile cache and a power
/// cut reverts it: acked-but-lost responses, which the service crash
/// sweep's journal audit must flag (`sweep::run_service_sweep`, and the
/// named test `fence_dropped_canary_is_caught_by_the_adr_sweep`).
static FENCE_DROPPED: AtomicBool = AtomicBool::new(false);

/// Shift every route by one shard: requests land on a shard that does
/// not own their key. Per-key order is *preserved* (the shift is
/// consistent), so linearizability cannot catch this — the executor's
/// routing audit ([`crate::ShardRunStats::misroutes`]) must, and the
/// bench cell turns a nonzero audit into a hard gate failure.
static MISROUTE: AtomicBool = AtomicBool::new(false);

/// Ignore consumer pins when recycling retired batch buffers: the
/// classic premature-reclamation window. A pinned reader's `ValueRef`
/// gets recycled under its feet; [`crate::pool::BatchPool::resolve`]'s
/// generation check must report the violation
/// (`reclamation_window_canary_is_caught`).
static RECLAIM_EARLY: AtomicBool = AtomicBool::new(false);

/// Burst identity RMWs on one shared PM line in the dispatch path:
/// no data changes, but each RMW is a modelled line-ownership transfer —
/// the signature of accidental cross-shard contention. Virtual time and
/// counters inflate, so the exact `spash-bench compare` gate against
/// `bench/baseline_service.json` must flip
/// (`latency_inflation_canary_flips_the_compare_gate`).
static INFLATE_DISPATCH: AtomicBool = AtomicBool::new(false);

/// Arm/disarm the dropped-batch-fence canary; returns the old state.
pub fn set_fence_dropped(on: bool) -> bool {
    FENCE_DROPPED.swap(on, Ordering::SeqCst)
}

pub fn fence_dropped() -> bool {
    FENCE_DROPPED.load(Ordering::SeqCst)
}

/// Arm/disarm the cross-shard misroute canary; returns the old state.
pub fn set_misroute(on: bool) -> bool {
    MISROUTE.swap(on, Ordering::SeqCst)
}

pub fn misroute() -> bool {
    MISROUTE.load(Ordering::SeqCst)
}

/// Arm/disarm the premature-reclamation canary; returns the old state.
pub fn set_reclaim_early(on: bool) -> bool {
    RECLAIM_EARLY.swap(on, Ordering::SeqCst)
}

pub fn reclaim_early() -> bool {
    RECLAIM_EARLY.load(Ordering::SeqCst)
}

/// Arm/disarm the dispatch latency-inflation canary; returns the old state.
pub fn set_inflate_dispatch(on: bool) -> bool {
    INFLATE_DISPATCH.swap(on, Ordering::SeqCst)
}

pub fn inflate_dispatch() -> bool {
    INFLATE_DISPATCH.load(Ordering::SeqCst)
}

/// The dispatch-path injection point for the inflation canary (called
/// from [`crate::Service::begin_batch`]). The or-with-0 leaves the data
/// untouched; the cost is pure modelled contention.
pub fn maybe_inflate_dispatch(ctx: &mut MemCtx) {
    if inflate_dispatch() {
        for _ in 0..16 {
            ctx.fetch_or_u64(PmAddr(64), 0);
        }
    }
}
