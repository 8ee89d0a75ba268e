//! Service-level linearizability: every client operation is recorded
//! *through the batching layer* and checked with the Wing–Gong search.
//!
//! The index lin-check (`spash-sched`'s schedule explorer) validates
//! direct trait calls; this one validates
//! the front-end — routing, batch formation, `run_batch` execution and
//! batch-at-a-time delivery — because the service adds exactly the kinds
//! of bugs a per-op check cannot see: responses attached to the wrong
//! request, batches replayed or dropped, get payloads resolved from a
//! recycled buffer.
//!
//! Timestamps: a request's Wing–Gong invocation is stamped at batch
//! formation (after dequeue, before execution — carried in
//! [`ClientReq::stamp`]) and its response at delivery, after the batch's
//! coalesced journal fence. That window strictly contains the real
//! linearization point inside the index's batch execution, so the check
//! is sound: any violation it reports is a real one.

use std::collections::HashMap;
use std::sync::Arc;

use spash_index_api::crashpoint::{CrashTarget, SweepOp};
use spash_index_api::history::{self, fingerprint, OpResult, Recorder};
use spash_index_api::PersistentIndex;
use spash_pmem::{MemCtx, PersistenceDomain, PmConfig, PmDevice};
use spash_sched::batch::run_batch;
use spash_sched::SchedConfig;
use spash_workloads::{load_keys, Distribution, Mix, OpStream, ValueSize, WorkloadConfig};

use crate::pool::BatchPool;
use crate::{BatchReplies, ClientReq, JournalSpec, Reply, Service, ServiceConfig};

/// Service lin-check parameters. Totals stay under the checker's 128-op
/// cap; the key space is tiny so shards' clients collide on hot keys.
pub struct ServiceLinConfig {
    pub shards: usize,
    pub batch_max: usize,
    /// Total client operations per schedule (the whole history).
    pub ops: u64,
    pub keys: u64,
    /// Keys inserted sequentially before the run (checker initial state).
    pub prefill: u64,
    pub seed: u64,
    pub preemptions: u32,
    /// Distinct scheduler seeds checked per index.
    pub schedules: u64,
}

impl Default for ServiceLinConfig {
    fn default() -> Self {
        Self {
            shards: 2,
            batch_max: 3,
            ops: 24,
            keys: 10,
            prefill: 5,
            seed: 0x5eaf1ce,
            preemptions: 24,
            schedules: 3,
        }
    }
}

fn lin_pm() -> PmConfig {
    let mut pm = PmConfig::small_test();
    // Big enough for every registered crash target (the bench suite's
    // Halo formats a 64 MB log).
    pm.arena_size = 256 << 20;
    pm.cache_capacity = 256 << 10;
    pm.domain = PersistenceDomain::Eadr;
    pm
}

/// Classify a service reply as the Wing–Gong outcome of its operation.
/// `get` payloads are resolved from the batch buffer *here*, inside the
/// delivery window — a [`crate::pool::ReclaimViolation`] at this point
/// would be a real premature-reclamation bug, so it panics the check.
pub fn reply_result(pool: &BatchPool, op: &SweepOp, reply: &Reply) -> OpResult {
    match (op, reply) {
        (SweepOp::Insert(..), Reply::Done(r)) => OpResult::of_insert(*r),
        (SweepOp::Update(..), Reply::Done(r)) => OpResult::of_update(*r),
        (SweepOp::Get(_), Reply::Value(v)) => OpResult::of_get(v.as_ref().map(|r| {
            let mut buf = Vec::new();
            pool.resolve(r, &mut buf)
                .unwrap_or_else(|e| panic!("lin-check delivery: {e}"));
            fingerprint(&buf)
        })),
        (SweepOp::Remove(_), Reply::Removed(hit)) => OpResult::of_remove(*hit),
        (op, reply) => panic!("reply {reply:?} does not answer {op:?}"),
    }
}

/// Run the service lin-check for one index target at one scheduler seed:
/// prefill sequentially, enqueue a colliding zipfian client mix, drain
/// every shard as a cooperative task, then Wing–Gong-check the recorded
/// history. Returns the history length on success.
pub fn lin_check_target(
    target: &CrashTarget,
    cfg: &ServiceLinConfig,
    schedule_seed: u64,
) -> Result<usize, String> {
    assert!(cfg.ops <= 128, "history beyond the checker's cap");
    let pm = lin_pm();
    let dev = PmDevice::new(pm.clone());
    let mut ctx = dev.ctx();
    let index: Arc<dyn PersistentIndex> = Arc::from((target.format)(&mut ctx));

    let wcfg = WorkloadConfig {
        seed: cfg.seed,
        ..WorkloadConfig::new(
            cfg.keys,
            Distribution::Zipfian,
            Mix::COLLIDING,
            ValueSize::Inline,
        )
    };

    // Sequential prefill builds the checker's initial model state.
    let mut initial: HashMap<u64, u64> = HashMap::new();
    let keys = load_keys(&wcfg);
    let mut vals = OpStream::new(&wcfg, 0);
    for &k in keys.iter().take(cfg.prefill as usize) {
        let v = vals.expected_value(k);
        if index.insert(&mut ctx, k, &v).is_ok() {
            initial.insert(k, fingerprint(&v));
        }
    }
    drop(ctx);

    let svc = Service::new(
        Arc::clone(&index),
        ServiceConfig {
            shards: cfg.shards,
            batch_max: cfg.batch_max,
            journal: JournalSpec::at_top(pm.arena_size, cfg.shards, cfg.ops.max(4)),
            pool_slots: cfg.shards + 1,
            pool_participants: 0,
        },
    );

    // All client requests up front, arrival 0: batching pressure is
    // maximal and formation order is the enqueue order per shard.
    let mut stream = OpStream::new(&wcfg, 7);
    for i in 0..cfg.ops {
        svc.enqueue(ClientReq::new(i, 0, stream.next_op().into()));
    }

    let recorder = Recorder::new();
    dev.quiesce();
    let tasks: Vec<Box<dyn FnOnce() -> u64 + Send + '_>> = (0..cfg.shards)
        .map(|shard| {
            let svc = &svc;
            let rec = recorder.clone();
            let mut ctx = dev.ctx();
            ctx.reset_clock();
            let t: Box<dyn FnOnce() -> u64 + Send + '_> = Box::new(move || {
                let mut on_invoke = |reqs: &mut [ClientReq]| {
                    for r in reqs.iter_mut() {
                        r.stamp = rec.tick();
                    }
                };
                let mut deliver = |_ctx: &mut MemCtx, pool: &BatchPool, replies: BatchReplies| {
                    for resp in &replies.responses {
                        let result = reply_result(pool, &resp.op, &resp.reply);
                        rec.respond(shard, resp.op.clone(), result, resp.stamp);
                    }
                    replies.retire(pool);
                };
                let stats = svc.run_shard(&mut ctx, shard, &mut on_invoke, &mut deliver);
                assert_eq!(stats.misroutes, 0, "routing audit tripped in lin-check");
                stats.ops
            });
            t
        })
        .collect();
    let sched = SchedConfig::random(schedule_seed, cfg.preemptions);
    let per_task = run_batch(&sched, None, tasks).into_complete()?;
    assert_eq!(
        per_task.iter().sum::<u64>(),
        cfg.ops,
        "service lin-check lost or duplicated client ops"
    );

    let hist = recorder.take();
    let n = hist.len();
    if n as u64 != cfg.ops {
        return Err(format!("history holds {n} ops, expected {}", cfg.ops));
    }
    history::check_linearizable(&hist, &initial)
        .map_err(|v| format!("service history not linearizable: {v}"))?;
    Ok(n)
}
