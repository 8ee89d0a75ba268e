//! Crash-point sweep through the batched service path.
//!
//! The index-level sweep (`spash_index_api::crashpoint`) proves per-op
//! durability; this sweep proves the *service contract*: a response is
//! acked only after its batch's coalesced journal fence, so
//!
//! 1. **acked ⇒ durable** — for every batch whose responses were
//!    delivered before the crash, the journal record must validate on
//!    the post-crash image, in *both* persistence domains (one barrier
//!    per batch: an ntstore + fence under eADR, a flush + fence under
//!    ADR).
//!    The `FenceDropped` canary breaks exactly this — the acked record
//!    sits dirty in the volatile cache and an ADR power cut reverts it —
//!    and the named test `fence_dropped_canary_is_caught_by_the_adr_sweep`
//!    requires this audit to flag it.
//! 2. **un-acked ⇒ atomic** — under eADR ([`CheckLevel::Exact`]) every
//!    key outside the single in-flight batch must recover exactly to the
//!    acked prefix; a key touched by the in-flight batch may be observed
//!    at any *batch-prefix* state (the underlying index's per-op
//!    atomicity, widened batch-wise because a crash can land between any
//!    two operations of the batch, or during the publication itself).
//!
//! Mechanically it *is* the index sweep: `crashpoint::run_sweep_with`
//! owns the record → arm → replay → power-fail → recover → audit loop,
//! and this module is only its [`SweepDriver`] — the workload driven
//! through [`crate::Service`] (enqueue everything with arrival 0, drain
//! the shards round-robin, one batch per shard per turn), the acked and
//! in-flight batches read back as op indices, and audit 1 on the raw
//! image. Audit 2 is the engine's content check: its single in-flight-op
//! allowance is the one-element case of the batch-prefix allowance.

use std::cell::RefCell;
use std::sync::Arc;

use spash_index_api::crashpoint::{
    run_sweep_with, CheckLevel, CrashTarget, Progress, SweepConfig, SweepDriver, SweepOp,
    SweepReport,
};
use spash_index_api::PersistentIndex;
use spash_pmem::{MemCtx, PersistenceDomain, PmConfig, PmDevice};

use crate::pool::BatchPool;
use crate::{BatchReplies, ClientReq, JournalSpec, Service, ServiceConfig, ShardRunStats};

/// Service sweep parameters.
pub struct ServiceSweepConfig {
    /// Platform config.
    pub pm: PmConfig,
    pub seed: u64,
    pub n_ops: u64,
    pub key_space: u64,
    pub shards: usize,
    /// Max requests coalesced under one batch fence.
    pub batch_max: usize,
    pub exhaustive_limit: u64,
    pub max_points: u64,
    pub check: CheckLevel,
}

impl ServiceSweepConfig {
    /// CI-scale config: the index sweep's `SweepConfig::ci` platform
    /// (small cache so evictions happen early) and check level, a
    /// slightly smaller workload because every injected point replays
    /// the whole batched run.
    pub fn ci(domain: PersistenceDomain) -> Self {
        let SweepConfig {
            pm, seed, check, ..
        } = SweepConfig::ci(domain);
        Self {
            pm,
            seed,
            n_ops: 400,
            key_space: 160,
            shards: 2,
            batch_max: 4,
            exhaustive_limit: 4_000,
            max_points: 120,
            check,
        }
    }

    /// Debug-test-scale config (the canary tests run three full sweeps
    /// in one `cargo test` binary).
    pub fn test_small(domain: PersistenceDomain) -> Self {
        Self {
            n_ops: 160,
            key_space: 64,
            exhaustive_limit: 48,
            max_points: 48,
            ..Self::ci(domain)
        }
    }

    fn service_config(&self) -> ServiceConfig {
        ServiceConfig {
            shards: self.shards,
            batch_max: self.batch_max,
            // One ring slot per workload op: the run can never wrap, so
            // every acked record of the run stays auditable.
            journal: JournalSpec::at_top(self.pm.arena_size, self.shards, self.n_ops),
            pool_slots: self.shards + 1,
            pool_participants: 0,
        }
    }
}

/// One acked batch, as observed at the delivery point.
struct AckedBatch {
    shard: usize,
    seq: u64,
    /// Workload op indices the batch carried (the driver stores the op
    /// index in [`ClientReq::session`]).
    ops: Vec<usize>,
}

/// What one (possibly crashed) service run observed.
#[derive(Default)]
struct RunLog {
    acked: Vec<AckedBatch>,
    /// The batch formed but not yet delivered when the run ended — the
    /// single in-flight batch.
    in_flight: Option<Vec<usize>>,
}

/// Drive the whole workload through `svc` on `ctx`, recording acked
/// batches and the in-flight batch into `log`. Panics with
/// `CrashPointHit` when the armed fault plan fires.
fn drive(svc: &Service, ctx: &mut MemCtx, ops: &[SweepOp], log: &RefCell<&mut RunLog>) {
    for (i, op) in ops.iter().enumerate() {
        svc.enqueue(ClientReq::new(i as u64, 0, op.clone()));
    }
    let t0 = ctx.now();
    let mut stats = vec![ShardRunStats::default(); svc.config().shards];
    let mut on_invoke = |reqs: &mut [ClientReq]| {
        log.borrow_mut().in_flight = Some(reqs.iter().map(|r| r.session as usize).collect());
    };
    let mut deliver = |_ctx: &mut MemCtx, pool: &BatchPool, replies: BatchReplies| {
        let mut l = log.borrow_mut();
        l.acked.push(AckedBatch {
            shard: replies.shard,
            seq: replies.seq,
            ops: replies
                .responses
                .iter()
                .map(|r| r.session as usize)
                .collect(),
        });
        l.in_flight = None;
        replies.retire(pool);
    };
    let mut active = true;
    while active {
        active = false;
        for (shard, stats) in stats.iter_mut().enumerate() {
            active |= svc.run_shard_step(ctx, shard, t0, stats, &mut on_invoke, &mut deliver);
        }
    }
    // A healthy sweep run must never observe a misroute.
    assert!(
        stats.iter().all(|s| s.misroutes == 0),
        "routing audit tripped during sweep run"
    );
}

/// The batched front-end as a sweep driver.
struct Batched(ServiceConfig);

impl SweepDriver for Batched {
    const PREFIX: &'static str = "service/";
    type Log = RunLog;

    fn run(
        &self,
        idx: &Arc<dyn PersistentIndex>,
        ctx: &mut MemCtx,
        ops: &[SweepOp],
        log: &mut RunLog,
    ) {
        // Volatile service state dies with the "machine": `svc` drops on
        // return and on unwind alike.
        let svc = Service::new(Arc::clone(idx), self.0.clone());
        drive(&svc, ctx, ops, &RefCell::new(log));
    }

    /// Per-key effects are single-shard (hash routing) and each shard
    /// serves its queue in enqueue order, so the acked ops in workload
    /// order reproduce every key's acked state.
    fn progress(&self, log: &RunLog, _n_ops: usize) -> Progress {
        let mut committed: Vec<usize> = log
            .acked
            .iter()
            .flat_map(|b| b.ops.iter().copied())
            .collect();
        committed.sort_unstable();
        Progress {
            committed,
            in_flight: log.in_flight.clone().unwrap_or_default(),
        }
    }

    /// Audit 1, both domains: every acked batch's journal record must
    /// validate on the post-crash image — acked ⇒ durable.
    fn audit_image(&self, dev: &Arc<PmDevice>, log: &RunLog) -> Vec<String> {
        let mut rctx = dev.ctx();
        let mut findings = Vec::new();
        for b in &log.acked {
            match self.0.journal.read_record(&mut rctx, b.shard, b.seq) {
                Some((count, _digest)) if count == b.ops.len() as u64 => {}
                got => findings.push(format!(
                    "acked batch (shard {}, seq {}) not durable: journal record is {:?}, \
                     expected count {}",
                    b.shard,
                    b.seq,
                    got.map(|(c, _)| c),
                    b.ops.len(),
                )),
            }
        }
        findings
    }
}

/// Run the record-then-sweep procedure through the service layer for one
/// index target.
pub fn run_service_sweep(target: &CrashTarget, cfg: &ServiceSweepConfig) -> SweepReport {
    let sweep = SweepConfig {
        pm: cfg.pm.clone(),
        seed: cfg.seed,
        n_ops: cfg.n_ops,
        key_space: cfg.key_space,
        exhaustive_limit: cfg.exhaustive_limit,
        max_points: cfg.max_points,
        check: cfg.check,
    };
    run_sweep_with(&Batched(cfg.service_config()), target, &sweep)
}
