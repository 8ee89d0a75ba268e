//! `scale-zipf`: shared zipf(0.99) 50 % get / 50 % update under the
//! cooperative scheduler — a 1-task phase, then an 8-task phase with the
//! same per-task op count. The hot set is cache-resident, so media does
//! little; HTM conflicts, fallback locks, the hotspot detector, line
//! transfers and `sched` itself do the work.

use std::sync::Arc;
use std::time::Instant;

use spash::Spash;
use spash_index_api::{BatchResult, PersistentIndex};
use spash_pmem::PmDevice;
use spash_sched::SchedConfig;
use spash_workloads::{load_keys, Distribution, Mix, OpStream, ValueSize, WorkOp, WorkloadConfig};

use crate::driver::{self, Timed};
use crate::env::{self, Chunk, Counters, Kind, Meter, Op, Phase, Repeat, Shadow, TaskBody};
use crate::trace::{self, Traced};
use crate::util::{ChunkClock, KeySpace};
use crate::Ctl;

#[derive(Clone, Copy)]
struct Sizes {
    keys: u64,
    warm_per_task: u64,
    ops_per_task: u64,
    cache_bytes: u64,
}

const TASKS: usize = 8;
const VALUE_LEN: u16 = 16;

fn sizes(smoke: bool) -> Sizes {
    if smoke {
        Sizes {
            keys: 24_000,
            warm_per_task: 512,
            ops_per_task: 4_096,
            cache_bytes: 128 << 10,
        }
    } else {
        Sizes {
            keys: 160_000,
            warm_per_task: 4_096,
            ops_per_task: 40_960,
            cache_bytes: 1 << 20,
        }
    }
}

/// `n` ops of stream `thread`: every key is loaded and every update
/// rewrites the value the key already has (a function of the key), so the
/// shadow model is exact under any interleaving.
fn gen_stream(wl: &WorkloadConfig, ks: &KeySpace, thread: u64, n: u64) -> Chunk {
    let mut stream = OpStream::new(wl, thread);
    let mut c = Chunk::default();
    for _ in 0..n {
        let (kind, k) = match stream.next_op() {
            WorkOp::Search(k) => (Kind::Get, k),
            WorkOp::Update(k, _) => (Kind::Update, k),
            other => unreachable!("balanced mix generated {other:?}"),
        };
        c.push(Op {
            kind,
            key: ks.key(k),
            ver: 0,
            len: VALUE_LEN,
        });
    }
    c
}

/// Run one chunk per task as a phase; returns per-task results and (with
/// a clock, which the caller starts and stops) one latency sample per op.
fn run_tasks(
    dev: &Arc<PmDevice>,
    target: &dyn PersistentIndex,
    sched: Option<&SchedConfig>,
    chunks: &[Chunk],
    clock: Option<&ChunkClock>,
) -> (Phase, Vec<Vec<BatchResult>>, Vec<u64>) {
    let mut results: Vec<Vec<BatchResult>> = chunks.iter().map(|_| Vec::new()).collect();
    let mut latencies: Vec<Vec<u64>> = chunks.iter().map(|_| Vec::new()).collect();
    let ops: Vec<_> = chunks.iter().map(Chunk::batch_ops).collect();
    let bodies: Vec<TaskBody<'_>> = ops
        .iter()
        .zip(results.iter_mut().zip(latencies.iter_mut()))
        .map(|(ops, (res, lat))| {
            let b: TaskBody<'_> = Box::new(move |ctx| {
                let mut meter = clock.map(|clock| Meter {
                    clock,
                    latencies: Some(lat),
                });
                env::exec_closed_loop(target, ctx, ops, res, meter.as_mut());
                ops.len() as u64
            });
            b
        })
        .collect();
    let phase = env::run_phase(dev, sched, bodies);
    (phase, results, latencies.concat())
}

fn check(shadow: &mut Shadow, chunks: &[Chunk], results: &[Vec<BatchResult>], rep: &mut Repeat) {
    for (c, r) in chunks.iter().zip(results) {
        rep.failed += shadow.check(&c.ops, r);
        rep.attempted += c.ops.len() as u64;
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
    let sched = |phase| env::sched_cfg(ctl.seed, phase);

    // Set-up: device, format, 8-task load, 8-task warm-up.
    let t_setup = Instant::now();
    let dev = env::device(sz.cache_bytes);
    let index = env::format_index(&dev);
    let mut shadow = Shadow::default();
    {
        let clock = env::setup_clock();
        let order = load_keys(&wl);
        let loads: Vec<Chunk> = order
            .chunks(order.len().div_ceil(TASKS))
            .map(|part| {
                let mut c = Chunk::default();
                for &i in part {
                    c.push(env::insert_op(ks.key(i), VALUE_LEN));
                }
                c
            })
            .collect();
        let (_, results, _) = run_tasks(&dev, &*index, Some(&sched(0)), &loads, Some(&clock));
        check(&mut shadow, &loads, &results, &mut rep);
        let warm: Vec<Chunk> = (0..TASKS as u64)
            .map(|t| gen_stream(&wl, &ks, 50 + t, sz.warm_per_task))
            .collect();
        let (_, results, _) = run_tasks(&dev, &*index, Some(&sched(1)), &warm, Some(&clock));
        check(&mut shadow, &warm, &results, &mut rep);
        env::setup_row(&mut rep, t_setup, &clock);
    }

    // Inputs for both timed phases, generated before the clock starts.
    let tracer = ctl.tracer.as_deref();
    let t_gen = Instant::now();
    let gen_span = trace::begin(tracer, "workloads.gen", 0, dev.vtime_floor());
    let t1_chunks = vec![gen_stream(&wl, &ks, 100, sz.ops_per_task)];
    let t8_chunks: Vec<Chunk> = (0..TASKS as u64)
        .map(|t| gen_stream(&wl, &ks, 200 + t, sz.ops_per_task))
        .collect();
    let gen_ops = (1 + TASKS as u64) * sz.ops_per_task;
    gen_span.end(dev.vtime_floor(), gen_ops as u32);
    let gen_host_ns = t_gen.elapsed().as_nanos() as u64;

    // Timed window: 1 task, then 8 tasks.
    let clock = ChunkClock::new();
    let before = Counters::take(&dev, &index);
    let (t1, t8, mut latencies) = {
        let traced = ctl
            .tracer
            .as_ref()
            .map(|t| Traced::new(Arc::clone(&index), Arc::clone(t)));
        let target: &dyn PersistentIndex = match &traced {
            Some(t) => t,
            None => &*index,
        };
        clock.resume();
        let root = trace::begin_phase(tracer, "bench.timed.t1", dev.vtime_floor());
        let (t1, r1, _) = run_tasks(&dev, target, Some(&sched(2)), &t1_chunks, Some(&clock));
        root.end(dev.vtime_floor(), t1.ops as u32);
        let root = trace::begin_phase(tracer, "bench.timed.t8", dev.vtime_floor());
        let (t8, r8, lat) = run_tasks(&dev, target, Some(&sched(3)), &t8_chunks, Some(&clock));
        root.end(dev.vtime_floor(), t8.ops as u32);
        clock.pause();
        check(&mut shadow, &t1_chunks, &r1, &mut rep);
        check(&mut shadow, &t8_chunks, &r8, &mut rep);
        (t1, t8, lat)
    };
    let timed = Timed {
        window: Counters::take(&dev, &index).since(&before),
        clock,
        ops: gen_ops,
        elapsed_virt_ns: t1.elapsed_ns + t8.elapsed_ns,
        bw_floor_ns: t1.bw_floor_ns + t8.bw_floor_ns,
        gen_host_ns,
        gen_ops,
    };
    rep.exact.insert("virt_mops", t8.mops());
    rep.exact.insert("sched.virt_mops_t1", t1.mops());
    rep.exact
        .insert("sched.virt_scaling_t8_over_t1", t8.mops() / t1.mops());
    driver::latency_rows(
        &mut rep,
        &mut latencies,
        "8-task phase, one per op: its 64-op batch, issue to results",
    );
    rep.exact.insert(
        "sched.decisions_per_kop",
        (t1.decisions + t8.decisions) as f64 * 1e3 / gen_ops as f64,
    );
    let (lo, hi) = (
        *t8.task_clocks.iter().min().expect("8 tasks"),
        *t8.task_clocks.iter().max().expect("8 tasks"),
    );
    rep.exact.insert(
        "sched.task_clock_skew",
        (hi - lo) as f64 / (hi - t8.start) as f64,
    );

    let recovered = driver::wrap_up(ctl, &dev, index, &shadow, &ks, &timed, &mut rep);
    if let (Some(_), Some(recovered)) = (tracer, recovered) {
        rep.host.insert(
            "sched.host_overhead_ns_per_op",
            sched_overhead(&dev, &recovered, &sched(4), &t1_chunks),
        );
    }
    rep
}

/// Host cost of the scheduler itself: the 1-task stream under the
/// scheduler minus the same stream inline, back to back on the recovered
/// index (median of three pairs), per op.
fn sched_overhead(
    dev: &Arc<PmDevice>,
    index: &Spash,
    sched: &SchedConfig,
    chunks: &[Chunk],
) -> f64 {
    let ops = chunks[0].ops.len() as f64;
    let time = |s: Option<&SchedConfig>| {
        let t = Instant::now();
        run_tasks(dev, index, s, chunks, None);
        t.elapsed().as_nanos() as f64
    };
    let diffs: Vec<f64> = (0..3)
        .map(|_| (time(Some(sched)) - time(None)) / ops)
        .collect();
    crate::util::median(&diffs)
}
