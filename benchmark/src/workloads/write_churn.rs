//! `write-churn`: one simulated thread, closed loop, over values of
//! 16–256 B (most out-of-place): waves of insert-new + update-random, then
//! remove-oldest + get-random — five grow/shrink cycles. The same `core`
//! and `pmem` layers as `point-uniform`, used for writes: splits, merges
//! and halving, allocator alloc/free, compacted flush, HTM
//! validate-aborts. A read-path gain that taxes maintenance shows as a
//! loss here.

use std::time::Instant;

use spash_index_api::{hash_key, Rng64};

use crate::driver;
use crate::env::{self, Chunk, Kind, Op, Repeat, Shadow};
use crate::util::KeySpace;
use crate::Ctl;

#[derive(Clone, Copy)]
struct Sizes {
    preload: u64,
    /// Ops per wave; a grow wave adds `wave / 2` keys, a shrink wave
    /// removes as many.
    wave: u64,
    cache_bytes: u64,
}

/// Grow/shrink cycles in the timed phase.
const CYCLES: u64 = 5;

fn sizes(smoke: bool) -> Sizes {
    if smoke {
        Sizes {
            preload: 16_000,
            wave: 4_096,
            cache_bytes: 64 << 10,
        }
    } else {
        Sizes {
            preload: 160_000,
            wave: 49_152,
            cache_bytes: 512 << 10,
        }
    }
}

fn value_len(key: u64, ver: u32) -> u16 {
    16 + (hash_key(key ^ (ver as u64) << 48) % 241) as u16
}

/// The live keys are the dense indices `[lo, hi)`: inserts append at
/// `hi`, removes take the oldest at `lo`.
struct Churn {
    ks: KeySpace,
    rng: Rng64,
    wave: u64,
    lo: u64,
    hi: u64,
    vers: Vec<u32>,
    issued: u64,
}

impl Churn {
    fn random_live(&mut self) -> u64 {
        self.lo + self.rng.below(self.hi - self.lo)
    }

    fn next(&mut self) -> Op {
        let grow = (self.issued / self.wave).is_multiple_of(2);
        let first = self.issued.is_multiple_of(2);
        self.issued += 1;
        let (kind, i) = match (grow, first) {
            (true, true) => {
                self.hi += 1;
                self.vers.push(0);
                (Kind::Insert, self.hi - 1)
            }
            (true, false) => {
                let i = self.random_live();
                self.vers[i as usize] += 1;
                (Kind::Update, i)
            }
            (false, true) => {
                self.lo += 1;
                (Kind::Remove, self.lo - 1)
            }
            (false, false) => (Kind::Get, self.random_live()),
        };
        let key = self.ks.key(i);
        let ver = self.vers[i as usize];
        Op {
            kind,
            key,
            ver,
            len: value_len(key, ver),
        }
    }
}

pub fn run(ctl: &Ctl) -> Repeat {
    let sz = sizes(ctl.smoke);
    let ops = 2 * CYCLES * sz.wave;
    let mut rep = Repeat::default();
    let ks = KeySpace::new(ctl.seed);

    // Set-up: device, format, preload.
    let t_setup = Instant::now();
    let dev = env::device(sz.cache_bytes);
    let index = env::format_index(&dev);
    let mut shadow = Shadow::default();
    {
        let clock = env::setup_clock();
        let mut ctx = dev.ctx();
        let inserts: Vec<Op> = (0..sz.preload)
            .map(|i| env::insert_op(ks.key(i), value_len(ks.key(i), 0)))
            .collect();
        env::load(&*index, &mut ctx, &inserts, &clock, &mut shadow, &mut rep);
        env::raise_floor(&dev, ctx.now());
        env::setup_row(&mut rep, t_setup, &clock);
    }

    let mut churn = Churn {
        ks,
        rng: Rng64::new(ctl.seed ^ 0xc4a2),
        wave: sz.wave,
        lo: 0,
        hi: sz.preload,
        vers: vec![0; sz.preload as usize],
        issued: 0,
    };
    let mut gen = |n| {
        let mut c = Chunk::default();
        for _ in 0..n {
            c.push(churn.next());
        }
        c
    };
    let (phase, timed, mut latencies) =
        driver::timed_closed_loop(ctl, &dev, &index, ops, &mut gen, &mut shadow, &mut rep);
    rep.exact.insert("virt_mops", phase.mops());
    driver::latency_rows(
        &mut rep,
        &mut latencies,
        "one per op: its 64-op batch, issue to results",
    );
    driver::wrap_up(ctl, &dev, index, &shadow, &ks, &timed, &mut rep);
    rep
}
