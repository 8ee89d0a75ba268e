//! Fig. 1 — raw PM write throughput under different flush strategies
//! (paper §II-B, Observations 2–4).
//!
//! Strategies:
//! * `write-f`  — store followed by `clwb` + `sfence` per block;
//! * `write-nf` — store only (eADR makes it durable);
//! * `hot-1% nf` — write-nf for the hottest 1% of blocks, write-f for the
//!   cold rest (the hybrid that wins for >64 B under skew).
//!
//! Expected shape: (a) uniform — write-nf loses beyond one cacheline
//! (random eviction write amplification); (b) zipfian(0.99) — write-nf
//! wins big, and the hybrid beats pure write-nf for >64 B blocks.

use spash_pmem::{PmAddr, PmConfig, PmDevice};
use spash_workloads::{Rng64, Zipfian};

use crate::experiments::Cell;
use crate::harness::{print_table, Scale};
use crate::report::ExperimentRow;

#[derive(Clone, Copy, PartialEq)]
enum Strategy {
    WriteF,
    WriteNf,
    Hot1Nf,
}

const SIZES: [u64; 5] = [64, 128, 256, 512, 1024];
const REGION: u64 = 256 << 20;

fn run_one(scale: &Scale, zipf: bool, strategy: Strategy, size: u64) -> f64 {
    let dev = PmDevice::new(PmConfig {
        arena_size: REGION + (1 << 20),
        cache_capacity: 16 << 20,
        ..PmConfig::default()
    });
    let n_blocks = REGION / size;
    let hot_cut = (n_blocks / 100).max(1);
    let threads = scale.max_threads();
    let cell = Cell::figure(1, strategy as usize, size as usize, threads);
    let ops = scale.ops / 2;
    let z = zipf.then(|| Zipfian::new(n_blocks, 0.99));
    let (r, _) = cell
        .tasks(&dev, usize::from(zipf), |tid, ctx| {
            let mut rng = Rng64::new(0xf161 + tid as u64);
            let buf = vec![0xabu8; size as usize];
            let per = ops / threads as u64;
            for _ in 0..per {
                let block = match &z {
                    None => rng.below(n_blocks),
                    Some(z) => z.rank(rng.next_f64()),
                };
                let addr = PmAddr(block * size);
                ctx.write_bytes(addr, &buf);
                let flush = match strategy {
                    Strategy::WriteF => true,
                    Strategy::WriteNf => false,
                    Strategy::Hot1Nf => block >= hot_cut,
                };
                if flush {
                    ctx.flush_range(addr, size);
                    ctx.fence();
                }
            }
            per
        })
        .unwrap();
    r.gbps(r.ops * size)
}

/// Run the full Fig 1 sweep and print both panels.
pub fn run(scale: &Scale) -> Vec<ExperimentRow> {
    let mut out = Vec::new();
    for (zipf, panel) in [(false, "(a) uniform"), (true, "(b) zipfian 0.99")] {
        let phase = if zipf { "zipfian" } else { "uniform" };
        let names = ["write-f", "write-nf", "hot-1pct-nf"];
        let columns = vec!["write-f".into(), "write-nf".into(), "hot-1% nf".into()];
        let mut rows = Vec::new();
        for size in SIZES {
            let vals: Vec<f64> = [Strategy::WriteF, Strategy::WriteNf, Strategy::Hot1Nf]
                .into_iter()
                .map(|s| run_one(scale, zipf, s, size))
                .collect();
            for (name, v) in names.iter().zip(&vals) {
                out.push(ExperimentRow::from_value(
                    "fig1",
                    name,
                    &format!("{size}B"),
                    phase,
                    "GBps",
                    *v,
                ));
            }
            rows.push((format!("{size} B"), vals));
        }
        print_table(&format!("Fig 1{panel}: PM write throughput"), &columns, &rows, "GB/s");
    }
    out
}
