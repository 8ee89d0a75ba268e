//! A miniature YCSB shoot-out across every index in the repository —
//! the same drivers that regenerate the paper's Fig 10, at toy scale.
//!
//! ```sh
//! cargo run --release --example ycsb_shootout
//! ```

use spash_repro::index_api::{run_one, BatchOp, PersistentIndex};
use spash_repro::pmem::{PmConfig, PmDevice};
use spash_repro::spash::{Spash, SpashConfig};
use spash_repro::baselines::{CLevel, Cceh, Dash, Halo, Level, Plush};
use spash_repro::workloads::{
    load_keys, Distribution, Mix, OpStream, ValueSize, WorkOp, WorkloadConfig,
};

const KEYS: u64 = 100_000;
const OPS: u64 = 60_000;

fn build(dev: &std::sync::Arc<PmDevice>, which: &str) -> Box<dyn PersistentIndex> {
    let mut ctx = dev.ctx();
    match which {
        "Spash" => Box::new(Spash::format(&mut ctx, SpashConfig::default()).unwrap()),
        "CCEH" => Box::new(Cceh::format(&mut ctx, 2).unwrap()),
        "Dash" => Box::new(Dash::format(&mut ctx, 2).unwrap()),
        "Level" => Box::new(Level::format(&mut ctx, 10).unwrap()),
        "CLevel" => Box::new(CLevel::format(&mut ctx, 10).unwrap()),
        "Plush" => Box::new(Plush::format(&mut ctx, 8).unwrap()),
        "Halo" => Box::new(Halo::format(&mut ctx, 256 << 20).unwrap()),
        _ => unreachable!(),
    }
}

fn main() {
    println!("mini-YCSB: {KEYS} keys, {OPS} ops, zipfian 0.99, balanced 50:50\n");
    println!(
        "{:<8} {:>12} {:>14} {:>14} {:>10}",
        "index", "Mops (virt)", "PM CL reads/op", "PM CL writes/op", "load fac"
    );
    for which in ["Spash", "CCEH", "Dash", "Level", "CLevel", "Plush", "Halo"] {
        let dev = PmDevice::new(PmConfig {
            arena_size: 512 << 20,
            cache_capacity: 1 << 20,
            ..PmConfig::default()
        });
        let index = build(&dev, which);
        let cfg = WorkloadConfig::new(KEYS, Distribution::Zipfian, Mix::BALANCED, ValueSize::Inline);

        // Load.
        let mut ctx = dev.ctx();
        let mut stream = OpStream::new(&cfg, 0);
        for k in load_keys(&cfg) {
            let v = stream.expected_value(k);
            index.insert(&mut ctx, k, &v).unwrap();
        }

        // Run (single simulated thread; the bench harness sweeps 56).
        dev.quiesce();
        let floor0 = dev.vtime_floor();
        dev.raise_vtime_floor(ctx.now());
        let before = dev.snapshot();
        let mut ctx = dev.ctx();
        let start = ctx.now().max(floor0);
        let mut stream = OpStream::new(&cfg, 1);
        for _ in 0..OPS {
            let op = stream.next_op();
            let bop = match &op {
                WorkOp::Search(k) => BatchOp::Get(*k),
                WorkOp::Update(k, v) => BatchOp::Update(*k, v),
                WorkOp::Insert(k, v) => BatchOp::Insert(*k, v),
                WorkOp::Delete(k) => BatchOp::Remove(*k),
            };
            run_one(index.as_ref(), &mut ctx, &bop);
        }
        dev.quiesce();
        let d = dev.snapshot().since(&before);
        let elapsed = (ctx.now() - start).max(1);
        println!(
            "{:<8} {:>12.3} {:>14.2} {:>14.2} {:>10.2}",
            which,
            OPS as f64 * 1e3 / elapsed as f64,
            d.cl_reads as f64 / OPS as f64,
            d.cl_writes as f64 / OPS as f64,
            index.load_factor(),
        );
    }
    println!("\n(the full thread sweeps live in `cargo run --release -p spash-bench -- fig10`)");
}
