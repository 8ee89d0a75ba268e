//! `point-uniform`: one simulated thread, closed loop, uniform `get`s over
//! a dataset ~100x the modelled cache, one in ten for a key that was
//! never stored. The probe path (fp sidecar, cold overlay), the cache
//! model and the media do nearly all the work; HTM writes, the allocator
//! and the service do none.

use std::time::Instant;

use spash_index_api::Rng64;
use spash_workloads::{load_keys, Distribution, Mix, OpStream, ValueSize, WorkOp, WorkloadConfig};

use crate::driver;
use crate::env::{self, Chunk, Kind, Meter, Op, Repeat, Shadow, ABSENT_BASE};
use crate::util::KeySpace;
use crate::Ctl;

#[derive(Clone, Copy)]
struct Sizes {
    keys: u64,
    warm: u64,
    ops: u64,
    cache_bytes: u64,
}

const VALUE_LEN: u16 = 16;

fn sizes(smoke: bool) -> Sizes {
    if smoke {
        Sizes {
            keys: 40_000,
            warm: 4_096,
            ops: 65_536,
            cache_bytes: 24 << 10,
        }
    } else {
        // 320 k keys x (32 B blob + 16 B slot at ~0.7 load) is ~18 MB of
        // PM against a 192 KiB modelled cache: ~1:96, the paper's
        // LLC:dataset ratio.
        Sizes {
            keys: 320_000,
            warm: 32_768,
            ops: 983_040,
            cache_bytes: 192 << 10,
        }
    }
}

/// One generator call: `n` gets, 10 % of them for absent keys.
fn gen_gets(stream: &mut OpStream, absent: &mut Rng64, ks: &KeySpace, keys: u64, n: u64) -> Chunk {
    let mut c = Chunk::default();
    for _ in 0..n {
        let WorkOp::Search(k) = stream.next_op() else {
            unreachable!("search-only mix");
        };
        let dense = if absent.below(10) == 0 {
            ABSENT_BASE + k % keys
        } else {
            k
        };
        c.push(Op {
            kind: Kind::Get,
            key: ks.key(dense),
            ver: 0,
            len: 0,
        });
    }
    c
}

pub fn run(ctl: &Ctl) -> Repeat {
    let sz = sizes(ctl.smoke);
    let mut rep = Repeat::default();
    let ks = KeySpace::new(ctl.seed);
    let wl = WorkloadConfig {
        seed: ctl.seed,
        ..WorkloadConfig::new(
            sz.keys,
            Distribution::Uniform,
            Mix::SEARCH_ONLY,
            ValueSize::Inline,
        )
    };

    // Set-up: device, format, load, untimed warm-up.
    let t_setup = Instant::now();
    let dev = env::device(sz.cache_bytes);
    let index = env::format_index(&dev);
    let mut shadow = Shadow::default();
    let mut stream = OpStream::new(&wl, 0);
    let mut absent = Rng64::new(ctl.seed ^ 0xab5e);
    {
        let clock = env::setup_clock();
        let mut ctx = dev.ctx();
        let inserts: Vec<Op> = load_keys(&wl)
            .iter()
            .map(|&k| env::insert_op(ks.key(k), VALUE_LEN))
            .collect();
        env::load(&*index, &mut ctx, &inserts, &clock, &mut shadow, &mut rep);
        let mut results = Vec::new();
        let warm = gen_gets(&mut stream, &mut absent, &ks, sz.keys, sz.warm);
        let mut meter = Meter {
            clock: &clock,
            latencies: None,
        };
        env::exec_closed_loop(
            &*index,
            &mut ctx,
            &warm.batch_ops(),
            &mut results,
            Some(&mut meter),
        );
        rep.failed += shadow.check(&warm.ops, &results);
        rep.attempted += sz.warm;
        env::raise_floor(&dev, ctx.now());
        env::setup_row(&mut rep, t_setup, &clock);
    }

    let mut gen = |n| gen_gets(&mut stream, &mut absent, &ks, sz.keys, n);
    let (phase, timed, mut latencies) =
        driver::timed_closed_loop(ctl, &dev, &index, sz.ops, &mut gen, &mut shadow, &mut rep);
    rep.exact.insert("virt_mops", phase.mops());
    driver::latency_rows(
        &mut rep,
        &mut latencies,
        "one per op: its 64-op batch, issue to results",
    );
    driver::wrap_up(ctl, &dev, index, &shadow, &ks, &timed, &mut rep);
    rep
}
