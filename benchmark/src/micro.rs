//! Unit-cost microkernels for the layers below the index, which cannot be
//! intercepted from outside: each kernel calls one public function of
//! `pmem`/`htm`/`alloc`/`service`/`index-api` in a tight loop on the same
//! warm device the workload just used, and reports the median of
//! [`SAMPLES`] samples. Multiplied by the timed window's counts they give
//! the `*.host_share_est` rows — an estimate, because a call's cost in
//! situ depends on what surrounds it.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use spash::Spash;
use spash_htm::{Htm, HtmConfig};
use spash_index_api::hash_key;
use spash_pmem::{MemCtx, PmAddr, PmDevice};
use spash_service::JournalSpec;

use crate::env::{ARENA, TOP_RESERVE};
use crate::util::median;

const SAMPLES: usize = 11;
const ITERS: u64 = 2_000;

#[derive(Clone, Copy, Debug, Default)]
pub struct Micro {
    pub read_hit_ns: f64,
    pub read_miss_ns: f64,
    pub write_hit_ns: f64,
    pub flush_fence_ns: f64,
    pub tx_host_ns: f64,
    pub tx_virt_ns: f64,
    pub alloc_free_host_ns: f64,
    pub alloc_free_virt_ns: f64,
    pub publish_host_ns: f64,
    pub hash_ns: f64,
}

/// Median host ns per iteration of `f(ctx, i)`, plus the mean virtual ns
/// per iteration (virtual charges are constant per call, so any sample
/// serves). The first sample is a warm-up and is dropped.
fn kernel(ctx: &mut MemCtx, mut f: impl FnMut(&mut MemCtx, u64)) -> (f64, f64) {
    let mut host = Vec::with_capacity(SAMPLES);
    let mut virt = 0.0;
    let mut i = 0u64;
    for s in 0..=SAMPLES {
        let v0 = ctx.now();
        let t = Instant::now();
        for _ in 0..ITERS {
            f(ctx, i);
            i += 1;
        }
        let ns = t.elapsed().as_nanos() as f64 / ITERS as f64;
        if s > 0 {
            host.push(ns);
            virt = (ctx.now() - v0) as f64 / ITERS as f64;
        }
    }
    (median(&host), virt)
}

pub fn run(dev: &Arc<PmDevice>, index: &Spash) -> Micro {
    let mut ctx = dev.ctx();
    ctx.reset_clock();
    let scratch = ARENA - TOP_RESERVE;
    // One line per XPLine over 8 MiB: far more lines than the modelled
    // cache holds, so a cyclic walk misses every time.
    let miss_lines = (8u64 << 20) / 256;
    let hot = PmAddr(scratch + (12 << 20));

    let (read_hit_ns, _) = kernel(&mut ctx, |ctx, _| {
        black_box(ctx.read_u64(hot));
    });
    let (read_miss_ns, _) = kernel(&mut ctx, |ctx, i| {
        black_box(ctx.read_u64(PmAddr(scratch + (i % miss_lines) * 256)));
    });
    let (write_hit_ns, _) = kernel(&mut ctx, |ctx, i| ctx.write_u64(hot, i));
    let (write_flush_fence_ns, _) = kernel(&mut ctx, |ctx, i| {
        ctx.write_u64(hot, i);
        ctx.flush(hot);
        ctx.fence();
    });
    let htm = Htm::new(HtmConfig {
        slots_pow2: 12,
        ..HtmConfig::default()
    });
    let (tx_host_ns, tx_virt_ns) = kernel(&mut ctx, |ctx, i| {
        htm.try_transaction(ctx, |tx, ctx| tx.write_u64(ctx, hot, i))
            .expect("an uncontended one-line transaction commits");
    });
    let alloc = index.allocator();
    let (alloc_free_host_ns, alloc_free_virt_ns) = kernel(&mut ctx, |ctx, _| {
        let a = alloc.alloc(ctx, 32).expect("scratch allocation");
        alloc.free(ctx, a.addr, 32);
    });
    let journal = JournalSpec::at_top(ARENA, 2, 1024);
    let (publish_host_ns, _) = kernel(&mut ctx, |ctx, i| journal.publish(ctx, 0, i, 8, i ^ 0x5eed));
    let (hash_ns, _) = kernel(&mut ctx, |_, i| {
        black_box(hash_key(black_box(i)));
    });
    crate::env::raise_floor(dev, ctx.now());
    Micro {
        read_hit_ns,
        read_miss_ns,
        write_hit_ns,
        flush_fence_ns: (write_flush_fence_ns - write_hit_ns).max(0.0),
        tx_host_ns,
        tx_virt_ns,
        alloc_free_host_ns,
        alloc_free_virt_ns,
        publish_host_ns,
        hash_ns,
    }
}
