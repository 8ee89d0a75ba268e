//! The seven indexes the root test suites run side by side, built in one
//! place for `all_indexes.rs` and `baseline_model_check.rs`: Spash in HTM
//! mode, Spash in a second concurrency mode, then CCEH, Dash, Level,
//! CLevel, Plush and Halo.

use std::sync::Arc;

use spash_repro::baselines::{CLevel, Cceh, Dash, Halo, Level, Plush};
use spash_repro::index_api::PersistentIndex;
use spash_repro::pmem::{PmConfig, PmDevice};
use spash_repro::spash::{ConcurrencyMode, Spash, SpashConfig};

/// Build index kind `which` (0..8) on a fresh 128 MiB device (the index and
/// every context used against it must share one device). Kind 1 is Spash
/// in concurrency mode `second_spash`; Halo's log takes `halo_log` bytes.
pub fn build(
    which: usize,
    second_spash: ConcurrencyMode,
    halo_log: u64,
) -> (Arc<PmDevice>, Box<dyn PersistentIndex>) {
    let dev = PmDevice::new(PmConfig {
        arena_size: 128 << 20,
        ..PmConfig::small_test()
    });
    let mut ctx = dev.ctx();
    let idx: Box<dyn PersistentIndex> = match which {
        0 => Box::new(Spash::format(&mut ctx, SpashConfig::test_default()).unwrap()),
        1 => Box::new(
            Spash::format(
                &mut ctx,
                SpashConfig {
                    concurrency: second_spash,
                    ..SpashConfig::test_default()
                },
            )
            .unwrap(),
        ),
        2 => Box::new(Cceh::format(&mut ctx, 1).unwrap()),
        3 => Box::new(Dash::format(&mut ctx, 1).unwrap()),
        4 => Box::new(Level::format(&mut ctx, 4).unwrap()),
        5 => Box::new(CLevel::format(&mut ctx, 4).unwrap()),
        6 => Box::new(Plush::format(&mut ctx, 4).unwrap()),
        7 => Box::new(Halo::format(&mut ctx, halo_log).unwrap()),
        _ => unreachable!("no index kind {which}"),
    };
    (dev, idx)
}
