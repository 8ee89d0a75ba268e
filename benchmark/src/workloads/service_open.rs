//! `service-open`: `spash_service::Service` with 2 shards and `batch_max`
//! 8, driven open-loop: zipf 50/50 requests arrive on `ArrivalGen`'s
//! schedule at each of four fixed offered rates, latency timed from the
//! scheduled arrival, then a saturation phase with every arrival at t = 0.
//! Queue wait, batch formation, journal flush+fence and the buffer pool
//! are on the path only here, and the index is a minority of ack latency.

use std::sync::Arc;
use std::time::Instant;

use spash_index_api::crashpoint::SweepOp;
use spash_index_api::{BatchResult, PersistentIndex};
use spash_pmem::{MemCtx, PmDevice};
use spash_service::pool::BatchPool;
use spash_service::{
    route_clean, BatchReplies, ClientReq, JournalSpec, Reply, Service, ServiceConfig, ShardRunStats,
};
use spash_workloads::openloop::{ArrivalGen, OpenLoopConfig};
use spash_workloads::{load_keys, Distribution, Mix, OpStream, ValueSize, WorkOp, WorkloadConfig};

use crate::driver::{self, Timed};
use crate::env::{self, Counters, Kind, Op, Phase, Repeat, Shadow, TaskBody, ARENA};
use crate::trace::{self, Traced, Tracer};
use crate::util::{latency_percentiles, value_into, ChunkClock, KeySpace};
use crate::Ctl;

#[derive(Clone, Copy)]
struct Sizes {
    keys: u64,
    warm: u64,
    per_rate: u64,
    saturate: u64,
    cache_bytes: u64,
}

const SHARDS: usize = 2;
const BATCH_MAX: usize = 8;
const VALUE_LEN: u16 = 16;
/// Fixed offered rates, in requests per virtual microsecond (= Mops).
const RATES_MOPS: [u64; 4] = [1, 2, 3, 4];
/// The latency limit a rate must meet at p999 to count as sustained.
const P999_LIMIT_NS: f64 = 200_000.0;

fn sizes(smoke: bool) -> Sizes {
    if smoke {
        Sizes {
            keys: 24_000,
            warm: 2_048,
            per_rate: 8_192,
            saturate: 8_192,
            cache_bytes: 128 << 10,
        }
    } else {
        Sizes {
            keys: 200_000,
            warm: 16_384,
            per_rate: 98_304,
            saturate: 98_304,
            cache_bytes: 1 << 20,
        }
    }
}

fn value(key: u64) -> Vec<u8> {
    let mut v = Vec::with_capacity(VALUE_LEN as usize);
    value_into(key, 0, VALUE_LEN as usize, &mut v);
    v
}

/// The generator's key `k` (`1..=keys`) → the key the service sees.
///
/// The key *set* comes from the seed, but which popularity rank gets which
/// key is chosen so that ranks alternate between the shards: with two
/// shards and zipf(0.99) the few hottest keys carry a fifth of the
/// traffic, and left to chance their routing swings ack latency by ±20 %
/// from seed to seed — a property of the draw, not of the program. Dealt
/// round-robin, every seed offers the shards the same 53:47 split.
fn key_table(wl: &WorkloadConfig, ks: &KeySpace) -> Vec<u64> {
    let mut by_shard: Vec<Vec<u64>> = vec![Vec::new(); SHARDS];
    let mut next = 1u64;
    let mut table = vec![0u64; wl.n_keys as usize + 1];
    for (rank, &k) in load_keys(wl).iter().enumerate() {
        let shard = rank % SHARDS;
        while by_shard[shard].is_empty() {
            let key = ks.key(next);
            next += 1;
            by_shard[route_clean(key, SHARDS)].push(key);
        }
        table[k as usize] = by_shard[shard].pop().expect("refilled above");
    }
    table
}

/// `n` zipf 50/50 requests of stream `thread`. With `arrivals` they carry
/// the open-loop schedule; without, they all arrive at t = 0.
fn gen_requests(
    wl: &WorkloadConfig,
    keys: &[u64],
    thread: u64,
    n: u64,
    mut arrivals: Option<ArrivalGen>,
) -> Vec<ClientReq> {
    let mut stream = OpStream::new(wl, thread);
    (0..n)
        .map(|i| {
            let op = match stream.next_op() {
                WorkOp::Search(k) => SweepOp::Get(keys[k as usize]),
                WorkOp::Update(k, _) => SweepOp::Update(keys[k as usize], value(keys[k as usize])),
                other => unreachable!("balanced mix generated {other:?}"),
            };
            match arrivals.as_mut().map(ArrivalGen::next_arrival) {
                Some(a) => ClientReq::new(a.session, a.at_ns, op),
                None => ClientReq::new(i, 0, op),
            }
        })
        .collect()
}

/// What one shard executor observed during a phase.
#[derive(Default)]
struct ShardOut {
    stats: ShardRunStats,
    /// Every acked response as the shadow model's `(op, result)`.
    acked: Vec<(Op, BatchResult)>,
    /// Scheduled arrival → ack, virtual ns, one per response.
    latencies: Vec<u64>,
    /// Traced runs: scheduled arrival → index entry, one per response.
    queue_waits: Vec<u64>,
    /// Traced runs, summed over batches: index entry → ack, and the index
    /// call alone; and the former summed over requests.
    exec_virt_ns: u64,
    index_virt_ns: u64,
    exec_virt_req_ns: u64,
    pool_free_min: usize,
}

fn to_shadow(op: &SweepOp, reply: &Reply, pool: &BatchPool) -> (Op, BatchResult) {
    let (kind, key, len) = match op {
        SweepOp::Insert(k, v) => (Kind::Insert, *k, v.len()),
        SweepOp::Update(k, v) => (Kind::Update, *k, v.len()),
        SweepOp::Get(k) => (Kind::Get, *k, 0),
        SweepOp::Remove(k) => (Kind::Remove, *k, 0),
    };
    let result = match (kind, reply) {
        (Kind::Insert, Reply::Done(r)) => BatchResult::Inserted(*r),
        (Kind::Update, Reply::Done(r)) => BatchResult::Updated(*r),
        (Kind::Get, Reply::Value(v)) => BatchResult::Got(v.as_ref().map(|r| {
            let mut bytes = Vec::with_capacity(r.len());
            pool.resolve(r, &mut bytes)
                .expect("reply resolved before its batch is retired");
            bytes
        })),
        (Kind::Remove, Reply::Removed(hit)) => BatchResult::Removed(*hit),
        // A reply of the wrong kind: let the shadow reject it.
        _ => BatchResult::Removed(false),
    };
    (
        Op {
            kind,
            key,
            ver: 0,
            len: len as u16,
        },
        result,
    )
}

/// Drain every shard queue as one scheduled phase.
fn run_service_phase(
    dev: &Arc<PmDevice>,
    svc: &Service,
    seed: u64,
    phase_no: u64,
    clock: Option<&ChunkClock>,
    tracer: Option<&Tracer>,
) -> (Phase, Vec<ShardOut>) {
    let mut outs: Vec<ShardOut> = (0..SHARDS).map(|_| ShardOut::default()).collect();
    let bodies: Vec<TaskBody<'_>> = outs
        .iter_mut()
        .enumerate()
        .map(|(shard, out)| {
            let b: TaskBody<'_> = Box::new(move |ctx| {
                out.pool_free_min = usize::MAX;
                let t0 = ctx.now();
                let mut step = 0u64;
                loop {
                    let req = (shard as u64) << 40 | step;
                    let step_span = trace::begin(tracer, "service.run_shard_step", req, ctx.now());
                    // Batch formation ends where `on_invoke` fires — if it
                    // fires: an empty queue forms no batch.
                    let mut form_span =
                        Some(trace::begin(tracer, "service.begin_batch", req, ctx.now()));
                    let mut on_invoke = |reqs: &mut [ClientReq]| {
                        if let Some(s) = form_span.take() {
                            s.end_host_only(reqs.len() as u32);
                        }
                    };
                    let mut acked = 0u32;
                    let mut deliver =
                        |ctx: &mut MemCtx, pool: &BatchPool, replies: BatchReplies| {
                            let span = trace::begin(tracer, "bench.deliver", req, ctx.now());
                            out.pool_free_min = out.pool_free_min.min(pool.free_slots());
                            let (idx_v0, idx_v1) = trace::last_index_call();
                            for r in &replies.responses {
                                let due = t0 + r.arrival_ns;
                                out.latencies.push(r.ack_ns - due);
                                if tracer.is_some() {
                                    out.queue_waits.push(idx_v0 - due);
                                }
                                out.acked.push(to_shadow(&r.op, &r.reply, pool));
                            }
                            if let Some(r) = replies.responses.first() {
                                if tracer.is_some() {
                                    out.exec_virt_ns += r.ack_ns - idx_v0;
                                    out.index_virt_ns += idx_v1 - idx_v0;
                                    out.exec_virt_req_ns +=
                                        (r.ack_ns - idx_v0) * replies.responses.len() as u64;
                                }
                            }
                            acked = replies.responses.len() as u32;
                            replies.retire(pool);
                            span.end(ctx.now(), acked);
                        };
                    let more = svc.run_shard_step(
                        ctx,
                        shard,
                        t0,
                        &mut out.stats,
                        &mut on_invoke,
                        &mut deliver,
                    );
                    if let Some(s) = form_span.take() {
                        s.cancel();
                    }
                    if !more {
                        step_span.cancel();
                        break;
                    }
                    step_span.end(ctx.now(), acked);
                    if let Some(c) = clock {
                        c.tick(acked as u64);
                    }
                    step += 1;
                }
                out.stats.ops
            });
            b
        })
        .collect();
    let phase = env::run_phase(dev, Some(&env::sched_cfg(seed, phase_no)), bodies);
    (phase, outs)
}

/// The per-phase hard gates: a misroute or an ack-conservation break is a
/// dispatch bug, not a slow result — abort the run.
fn gate(svc: &Service, outs: &[ShardOut], enqueued: u64, what: &str) {
    let misroutes: u64 = outs.iter().map(|o| o.stats.misroutes).sum();
    assert_eq!(misroutes, 0, "{what}: {misroutes} misrouted request(s)");
    let acked: u64 = (0..SHARDS).map(|s| svc.acked(s)).sum();
    assert_eq!(
        acked, enqueued,
        "{what}: acked {acked} of {enqueued} enqueued requests"
    );
}

fn check(shadow: &mut Shadow, outs: &[ShardOut], rep: &mut Repeat) {
    for o in outs {
        for (op, res) in &o.acked {
            rep.attempted += 1;
            rep.failed += u64::from(!shadow.apply(op, res));
        }
    }
}

pub fn run(ctl: &Ctl) -> Repeat {
    let sz = sizes(ctl.smoke);
    let mut rep = Repeat::default();
    let ks = KeySpace::new(ctl.seed);
    let wl = WorkloadConfig {
        seed: ctl.seed,
        ..WorkloadConfig::new(
            sz.keys,
            Distribution::Zipfian,
            Mix::BALANCED,
            ValueSize::Inline,
        )
    };
    let tracer = ctl.tracer.as_deref();

    // Set-up: device, format, service, load through the service, warm-up.
    let t_setup = Instant::now();
    let dev = env::device(sz.cache_bytes);
    let index = env::format_index(&dev);
    let traced = ctl
        .tracer
        .as_ref()
        .map(|t| Arc::new(Traced::new(Arc::clone(&index), Arc::clone(t))));
    let served: Arc<dyn PersistentIndex> = match &traced {
        Some(t) => {
            t.set_recording(false);
            Arc::clone(t) as Arc<dyn PersistentIndex>
        }
        None => Arc::clone(&index) as Arc<dyn PersistentIndex>,
    };
    let svc = Service::new(
        served,
        ServiceConfig {
            shards: SHARDS,
            batch_max: BATCH_MAX,
            journal: JournalSpec::at_top(ARENA, SHARDS, 4096),
            pool_slots: SHARDS + 1,
            pool_participants: 0,
        },
    );
    let mut shadow = Shadow::default();
    let mut enqueued = 0u64;
    let setup_clock = env::setup_clock();
    let keys = key_table(&wl, &ks);
    for (i, &k) in load_keys(&wl).iter().enumerate() {
        let key = keys[k as usize];
        svc.enqueue(ClientReq::new(
            i as u64,
            0,
            SweepOp::Insert(key, value(key)),
        ));
        enqueued += 1;
    }
    let (_, outs) = run_service_phase(&dev, &svc, ctl.seed, 0, Some(&setup_clock), None);
    gate(&svc, &outs, enqueued, "load");
    check(&mut shadow, &outs, &mut rep);
    for req in gen_requests(&wl, &keys, 50, sz.warm, None) {
        svc.enqueue(req);
        enqueued += 1;
    }
    let (_, outs) = run_service_phase(&dev, &svc, ctl.seed, 1, Some(&setup_clock), None);
    gate(&svc, &outs, enqueued, "warm-up");
    check(&mut shadow, &outs, &mut rep);
    env::setup_row(&mut rep, t_setup, &setup_clock);

    // Timed window: four open-loop rungs, then saturation.
    if let Some(t) = &traced {
        t.set_recording(true);
    }
    let clock = ChunkClock::new();
    let before = Counters::take(&dev, &index);
    let mut gen_host_ns = 0u64;
    let mut enqueue_host_ns = 0u64;
    let (mut elapsed_virt_ns, mut bw_floor_ns) = (0u64, 0u64);
    let mut stats = [ShardRunStats::default(); SHARDS];
    let mut pool_free_min = usize::MAX;
    let mut max_rate = 0u64;
    let mut saturation_mops = 0.0;
    let rungs = RATES_MOPS.iter().map(|&r| Some(r)).chain([None]);
    for (pi, rate) in rungs.enumerate() {
        let n = if rate.is_some() {
            sz.per_rate
        } else {
            sz.saturate
        };
        let span = trace::begin(tracer, "workloads.gen", pi as u64, dev.vtime_floor());
        let t_gen = Instant::now();
        let arrivals = rate.map(|r| {
            ArrivalGen::new(OpenLoopConfig::million(
                1_000 / r,
                ctl.seed ^ (pi as u64) << 32,
            ))
        });
        let reqs = gen_requests(&wl, &keys, 100 + pi as u64, n, arrivals);
        gen_host_ns += t_gen.elapsed().as_nanos() as u64;
        span.end(dev.vtime_floor(), n as u32);

        let root = trace::begin_phase(tracer, "bench.timed.phase", dev.vtime_floor());
        clock.resume();
        let t_enq = Instant::now();
        for (i, req) in reqs.into_iter().enumerate() {
            let span = trace::begin(tracer, "service.enqueue", enqueued + i as u64, 0);
            svc.enqueue(req);
            span.end_host_only(1);
        }
        enqueue_host_ns += t_enq.elapsed().as_nanos() as u64;
        enqueued += n;
        let (phase, outs) =
            run_service_phase(&dev, &svc, ctl.seed, 2 + pi as u64, Some(&clock), tracer);
        clock.pause();
        root.end(dev.vtime_floor(), n as u32);
        gate(&svc, &outs, enqueued, "timed phase");
        check(&mut shadow, &outs, &mut rep);

        elapsed_virt_ns += phase.elapsed_ns;
        bw_floor_ns += phase.bw_floor_ns;
        for (total, o) in stats.iter_mut().zip(&outs) {
            total.ops += o.stats.ops;
            total.batches += o.stats.batches;
            total.fences += o.stats.fences;
        }
        pool_free_min = pool_free_min.min(
            outs.iter()
                .map(|o| o.pool_free_min)
                .min()
                .unwrap_or(usize::MAX),
        );
        let mut latencies: Vec<u64> = outs
            .iter()
            .flat_map(|o| o.latencies.iter().copied())
            .collect();
        match rate {
            Some(r) => {
                let (p50, p999) = latency_percentiles(&mut latencies);
                rep.notes.push(format!(
                    "open loop at {r} Mops offered: p50 {p50:.0} ns, p999 {p999:.0} ns over {} requests, all acked",
                    latencies.len()
                ));
                if p999 <= P999_LIMIT_NS {
                    max_rate = max_rate.max(r);
                }
                if r == RATES_MOPS[0] {
                    driver::latency_rows(
                        &mut rep,
                        &mut latencies,
                        "1 Mops rung, scheduled arrival to ack",
                    );
                    if tracer.is_some() {
                        decomposition_rows(&mut rep, &outs, &latencies);
                    }
                }
            }
            None => saturation_mops = phase.mops(),
        }
    }
    let ops = RATES_MOPS.len() as u64 * sz.per_rate + sz.saturate;
    let timed = Timed {
        window: Counters::take(&dev, &index).since(&before),
        clock,
        ops,
        elapsed_virt_ns,
        bw_floor_ns,
        gen_host_ns,
        gen_ops: ops,
    };
    rep.exact.insert("virt_mops", saturation_mops);
    rep.exact.insert("service.max_rate_mops", max_rate as f64);
    let batches: u64 = stats.iter().map(|s| s.batches).sum();
    let fences: u64 = stats.iter().map(|s| s.fences).sum();
    rep.exact
        .insert("service.batch_size_mean", ops as f64 / batches as f64);
    rep.exact
        .insert("service.fences_per_req", fences as f64 / ops as f64);
    rep.exact.insert("service.misroutes", 0.0);
    let max_shard = stats.iter().map(|s| s.ops).max().unwrap_or(0);
    rep.exact.insert(
        "service.shard_load_imbalance",
        max_shard as f64 * SHARDS as f64 / ops as f64,
    );
    rep.exact
        .insert("service.pool_free_min", pool_free_min as f64);
    rep.host.insert(
        "service.enqueue_host_ns_per_req",
        enqueue_host_ns as f64 / ops as f64,
    );

    drop((svc, traced));
    driver::wrap_up(ctl, &dev, index, &shadow, &ks, &timed, &mut rep);
    if let Some(t) = tracer {
        // The service's own host time per request: a step minus the
        // index call and the client's deliver callback inside it.
        let totals = t.totals();
        let get = |name| totals.get(name).copied().unwrap_or_default();
        let (step, form) = (get("service.run_shard_step"), get("service.begin_batch"));
        let own = step.clean_host_self_ns + form.clean_host_ns;
        rep.host.insert(
            "service.host_self_ns_per_req",
            own as f64 / step.clean_ops.max(1) as f64,
        );
        rep.exact
            .insert("service.journal_virt_ns_per_publish", journal_virt_ns(&dev));
    }
    rep
}

/// Traced runs, 1 Mops rung: split ack latency at the index boundary.
/// `latency_residual_ns` is mean ack − mean queue wait − mean exec and
/// must be 0: the spans tile the interval from scheduled arrival to ack.
fn decomposition_rows(rep: &mut Repeat, outs: &[ShardOut], latencies: &[u64]) {
    let mut waits: Vec<u64> = outs
        .iter()
        .flat_map(|o| o.queue_waits.iter().copied())
        .collect();
    let (w50, w999) = latency_percentiles(&mut waits);
    rep.exact.insert("service.queue_wait_virt_p50_ns", w50);
    rep.exact.insert("service.queue_wait_virt_p999_ns", w999);
    let batches: u64 = outs.iter().map(|o| o.stats.batches).sum();
    let exec: u64 = outs.iter().map(|o| o.exec_virt_ns).sum();
    let index: u64 = outs.iter().map(|o| o.index_virt_ns).sum();
    rep.exact.insert(
        "service.exec_virt_ns_per_batch",
        exec as f64 / batches as f64,
    );
    rep.exact.insert(
        "service.index_virt_ns_per_batch",
        index as f64 / batches as f64,
    );
    rep.exact.insert(
        "service.self_virt_ns_per_batch",
        (exec - index) as f64 / batches as f64,
    );
    let p999s: Vec<f64> = outs
        .iter()
        .map(|o| latency_percentiles(&mut o.latencies.clone()).1)
        .collect();
    let (lo, hi) = p999s
        .iter()
        .fold((f64::MAX, 0.0f64), |(lo, hi), &p| (lo.min(p), hi.max(p)));
    rep.exact.insert("service.shard_p999_ratio", hi / lo);
    // Per request: ack − due = (index entry − due) + (ack − index entry),
    // each side accumulated on its own from the span boundaries.
    let ack_sum: u64 = latencies.iter().sum();
    let wait_sum: u64 = waits.iter().sum();
    let exec_sum: u64 = outs.iter().map(|o| o.exec_virt_req_ns).sum();
    let residual = (ack_sum as f64 - wait_sum as f64 - exec_sum as f64) / latencies.len() as f64;
    rep.exact.insert("service.latency_residual_ns", residual);
}

/// Virtual cost of one journal publication, read off a fresh context.
fn journal_virt_ns(dev: &Arc<PmDevice>) -> f64 {
    let mut ctx = dev.ctx();
    ctx.reset_clock();
    let journal = JournalSpec::at_top(ARENA, SHARDS, 4096);
    journal.publish(&mut ctx, 0, 0, 1, 0);
    let v0 = ctx.now();
    journal.publish(&mut ctx, 0, 1, 1, 0);
    (ctx.now() - v0) as f64
}
