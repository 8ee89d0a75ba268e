//! The two steps every workload runs the same way: the single-thread
//! closed-loop timed phase (generate with the host clock stopped → execute
//! → check against the shadow), and the wrap-up after the timed window
//! (end-to-end rows, recovery check, and — in traced runs — microkernels
//! and the per-layer ledger).

use std::sync::Arc;
use std::time::Instant;

use spash::Spash;
use spash_index_api::PersistentIndex;
use spash_pmem::PmDevice;

use crate::env::{self, Chunk, Counters, Meter, Phase, Repeat, Shadow, TaskBody};
use crate::layers::{self, LayerInputs};
use crate::trace::{self, Traced};
use crate::util::{latency_percentiles, ChunkClock, KeySpace, GEN_CHUNK_OPS};
use crate::{micro, Ctl};

/// What the timed window cost, in the terms the wrap-up needs.
pub struct Timed {
    /// Program counter deltas over the whole timed window.
    pub window: Counters,
    pub clock: ChunkClock,
    pub ops: u64,
    /// Sums over the window's phases.
    pub elapsed_virt_ns: u64,
    pub bw_floor_ns: u64,
    pub gen_host_ns: u64,
    pub gen_ops: u64,
}

/// Run `total_ops` ops from `gen` (called with the host clock stopped,
/// [`GEN_CHUNK_OPS`] at a time) on one simulated thread as a single
/// phase, checking every result against `shadow`. Returns the phase, the
/// window summary and one virtual latency sample per op.
pub fn timed_closed_loop(
    ctl: &Ctl,
    dev: &Arc<PmDevice>,
    index: &Arc<Spash>,
    total_ops: u64,
    gen: &mut (dyn FnMut(u64) -> Chunk + Send),
    shadow: &mut Shadow,
    rep: &mut Repeat,
) -> (Phase, Timed, Vec<u64>) {
    let clock = ChunkClock::new();
    let mut latencies = Vec::with_capacity(total_ops as usize);
    let mut gen_host_ns = 0u64;
    let before = Counters::take(dev, index);
    let traced = ctl
        .tracer
        .as_ref()
        .map(|t| Traced::new(Arc::clone(index), Arc::clone(t)));
    let target: &dyn PersistentIndex = match &traced {
        Some(t) => t,
        None => &**index,
    };
    let tracer = ctl.tracer.as_deref();
    let root = trace::begin_phase(tracer, "bench.timed", dev.vtime_floor());
    let phase = {
        let (clock, latencies, gen_host_ns) = (&clock, &mut latencies, &mut gen_host_ns);
        let (shadow, rep) = (&mut *shadow, &mut *rep);
        let body: TaskBody<'_> = Box::new(move |ctx| {
            let mut results = Vec::new();
            let mut done = 0;
            while done < total_ops {
                let n = GEN_CHUNK_OPS.min(total_ops - done);
                let span = trace::begin(tracer, "workloads.gen", done, ctx.now());
                let t0 = Instant::now();
                let chunk = gen(n);
                let ops = chunk.batch_ops();
                *gen_host_ns += t0.elapsed().as_nanos() as u64;
                span.end(ctx.now(), n as u32);
                results.clear();
                let mut meter = Meter {
                    clock,
                    latencies: Some(&mut *latencies),
                };
                clock.resume();
                env::exec_closed_loop(target, ctx, &ops, &mut results, Some(&mut meter));
                clock.pause();
                rep.failed += shadow.check(&chunk.ops, &results);
                rep.attempted += n;
                done += n;
            }
            done
        });
        env::run_phase(dev, None, vec![body])
    };
    root.end(dev.vtime_floor(), total_ops as u32);
    drop(traced);
    let timed = Timed {
        window: Counters::take(dev, index).since(&before),
        clock,
        ops: total_ops,
        elapsed_virt_ns: phase.elapsed_ns,
        bw_floor_ns: phase.bw_floor_ns,
        gen_host_ns,
        gen_ops: total_ops,
    };
    (phase, timed, latencies)
}

/// The latency rows from one virtual-ns sample per request.
pub fn latency_rows(rep: &mut Repeat, latencies: &mut [u64], what: &str) {
    let (p50, p999) = latency_percentiles(latencies);
    rep.exact.insert("virt_ack_p50_ns", p50);
    rep.exact.insert("virt_ack_p999_ns", p999);
    rep.notes
        .push(format!("virt_ack_*: {} samples ({what})", latencies.len()));
}

/// After the timed window: the host/count end-to-end rows, then space,
/// power failure, recovery and read-back, then (traced runs only) the
/// microkernels and the shared per-layer rows. Returns the recovered
/// index for workloads that measure more on it.
pub fn wrap_up(
    ctl: &Ctl,
    dev: &Arc<PmDevice>,
    index: Arc<Spash>,
    shadow: &Shadow,
    ks: &KeySpace,
    timed: &Timed,
    rep: &mut Repeat,
) -> Option<Arc<Spash>> {
    env::common_rows(rep, &timed.clock, &timed.window, timed.ops);
    let recovered = env::finish(dev, index, shadow, ks, rep)?;
    if let Some(t) = &ctl.tracer {
        let micro = micro::run(dev, &recovered);
        layers::fill(
            rep,
            &LayerInputs {
                window: &timed.window,
                timed_ops: timed.ops,
                timed_host_ns: (rep.timed_host_s() * 1e9) as u64,
                elapsed_virt_ns: timed.elapsed_virt_ns,
                bw_floor_ns: timed.bw_floor_ns,
                gen_host_ns: timed.gen_host_ns,
                gen_ops: timed.gen_ops,
                totals: &t.totals(),
                micro: &micro,
            },
        );
        rep.exact.insert("trace.span_count", t.span_count() as f64);
    }
    Some(recovered)
}
