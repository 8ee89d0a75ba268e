//! Durable linearizability in action: crash the platform mid-workload and
//! recover the index (paper §II-C, §IV).
//!
//! The demo also contrasts the two persistence domains:
//! * under **eADR** (the paper's platform) every completed operation
//!   survives, with zero flush instructions on the critical path;
//! * under **ADR** (volatile cache) the same store-without-flush code
//!   *loses* unflushed data — the gap eADR closes.
//!
//! ```sh
//! cargo run --release --example crash_recovery
//! ```

use std::sync::Arc;

use spash_repro::index_api::PersistentIndex;
use spash_repro::pmem::{PmAddr, PmConfig, PmDevice};
use spash_repro::spash::{Spash, SpashConfig};

fn main() {
    eadr_crash_and_recover();
    adr_gap_demo();
}

fn eadr_crash_and_recover() {
    println!("== eADR: crash + recovery of a live Spash index ==");
    let dev = PmDevice::new(PmConfig {
        arena_size: 256 << 20,
        ..PmConfig::small_test()
    });
    let mut ctx = dev.ctx();
    let index = Spash::format(&mut ctx, SpashConfig::default()).expect("format");

    // Four writers hammer the index...
    let index = Arc::new(index);
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let index = Arc::clone(&index);
            let dev = Arc::clone(&dev);
            s.spawn(move || {
                let mut ctx = dev.ctx();
                for i in 0..25_000u64 {
                    let k = 1 + t * 25_000 + i;
                    index.insert(&mut ctx, k, &k.to_le_bytes()).unwrap();
                    if i % 10 == 0 {
                        index.update(&mut ctx, k, &(k * 2).to_le_bytes()).unwrap();
                    }
                }
            });
        }
    });
    let live = index.len();
    println!("before crash: {live} entries, depth grown through splits");
    drop(index);

    // Power failure: under eADR the reserved energy flushes the cache, so
    // the arena now holds exactly the durable state.
    dev.simulate_power_failure();
    println!("-- power failure --");

    // Recovery: scan the allocator's chunk headers and the segment-info
    // table, rebuild the volatile directory, recount entries.
    let mut ctx2 = dev.ctx();
    let recovered = Spash::recover(&mut ctx2, SpashConfig::default()).expect("recoverable");
    assert_eq!(recovered.len(), live, "every completed insert survived");
    let mut buf = Vec::new();
    assert!(recovered.get(&mut ctx2, 11, &mut buf));
    assert_eq!(buf, (22u64).to_le_bytes(), "updated value survived");
    println!(
        "recovered {} entries; spot checks pass; index is writable again",
        recovered.len()
    );
    recovered.insert_u64(&mut ctx2, 999_999, 1).unwrap();
    println!();
}

fn adr_gap_demo() {
    println!("== ADR: why volatile caches need flushes ==");
    // Under ADR the cache model captures pre-images so the simulated
    // failure can actually revert unflushed cachelines.
    let dev = PmDevice::new(PmConfig::adr_test());
    let mut ctx = dev.ctx();

    // Two raw 8-byte writes: one flushed, one not.
    ctx.write_u64(PmAddr(4096), 0xAAAA);
    ctx.flush(PmAddr(4096));
    ctx.fence();
    ctx.write_u64(PmAddr(8192), 0xBBBB); // store only — visible, not durable

    dev.simulate_power_failure();

    let flushed = dev.arena().load_u64(PmAddr(4096));
    let unflushed = dev.arena().load_u64(PmAddr(8192));
    println!("flushed write   after crash: {flushed:#x}  (survived)");
    println!("unflushed write after crash: {unflushed:#x}       (lost!)");
    println!(
        "\neADR removes exactly this gap — visibility implies durability, so \
         Spash needs no flushes for correctness (paper §II-C)."
    );
}
