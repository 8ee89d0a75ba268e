//! Factory building each compared index on a fresh simulated device with
//! benchmark-appropriate geometry.

use std::sync::Arc;

use spash::{ConcurrencyMode, InsertPolicy, Spash, SpashConfig, UpdatePolicy};
use spash_baselines::{CLevel, Cceh, Dash, Halo, Level, Plush};
use spash_index_api::crashpoint::CrashTarget;
use spash_index_api::PersistentIndex;
use spash_pmem::{PmConfig, PmDevice, SanMode};

use crate::knobs;

/// The suite-sized roster (`spash_analysis::roster`) the `perf`,
/// `scale` and `service` suites iterate.
pub fn crash_targets() -> Vec<CrashTarget> {
    spash_analysis::roster(spash_analysis::Sizing::Suite, spash_analysis::Select::All)
}

/// Which index to build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IndexKind {
    Spash,
    /// Spash with the pipeline disabled (PD=1) — the "Spash (w/o
    /// pipeline)" series of Figs 7/10/11.
    SpashNoPipeline,
    Cceh,
    Dash,
    Level,
    CLevel,
    Plush,
    Halo,
}

impl IndexKind {
    /// Everything in the paper's comparison set.
    pub const ALL: [IndexKind; 8] = [
        IndexKind::Spash,
        IndexKind::SpashNoPipeline,
        IndexKind::Cceh,
        IndexKind::Dash,
        IndexKind::Level,
        IndexKind::CLevel,
        IndexKind::Plush,
        IndexKind::Halo,
    ];

    /// The set used in the micro-benchmarks (the paper excludes Halo
    /// there: "Halo is excluded from the micro-benchmark since it crashes
    /// during the executions" — DRAM exhaustion).
    pub const MICRO: [IndexKind; 7] = [
        IndexKind::Spash,
        IndexKind::SpashNoPipeline,
        IndexKind::Cceh,
        IndexKind::Dash,
        IndexKind::Level,
        IndexKind::CLevel,
        IndexKind::Plush,
    ];

    pub fn label(&self) -> &'static str {
        match self {
            IndexKind::Spash => "Spash",
            IndexKind::SpashNoPipeline => "Spash(noPL)",
            IndexKind::Cceh => "CCEH",
            IndexKind::Dash => "Dash",
            IndexKind::Level => "Level",
            IndexKind::CLevel => "CLevel",
            IndexKind::Plush => "Plush",
            IndexKind::Halo => "Halo",
        }
    }
}

/// Device geometry for a benchmark over `keys` keys of up to `value_bytes`
/// values: the arena holds the data comfortably; the modelled cache is
/// kept well below the dataset (paper: 20 M–100 M keys vs a 42 MB LLC) so
/// steady-state evictions happen.
pub fn bench_device(keys: u64, value_bytes: u64) -> Arc<PmDevice> {
    let dataset = keys * (32 + value_bytes.max(16));
    // Generous arena: levelled/log-structured baselines (Plush, CLevel,
    // Halo) accumulate garbage between merges/GC.
    let arena = (dataset * 8).next_power_of_two().max(256 << 20);
    // Cache an order of magnitude below the dataset (paper: 20 M–100 M
    // keys vs a 42 MB LLC) so the run is PM-bound and the zipfian hot set
    // still fits.
    let cache = (dataset / 96).clamp(128 << 10, 64 << 20);
    // Optional: arm the persistence-ordering sanitizer for any benchmark
    // run. Diagnostics (redundant flushes / no-op fences) are printed by
    // `run_scheduled` when the counters move.
    let san = knobs::choice(
        "SPASH_BENCH_SAN",
        &[
            ("strict", Some(SanMode::Strict)),
            ("relaxed", Some(SanMode::Relaxed)),
            ("off", None),
        ],
        None,
    );
    PmDevice::new(PmConfig {
        arena_size: arena,
        cache_capacity: cache,
        san,
        ..PmConfig::default()
    })
}

/// Build `kind` on `dev`. The initial sizing gives every index a small
/// head start (the paper preloads millions of keys anyway).
pub fn build_index(dev: &Arc<PmDevice>, kind: IndexKind) -> Box<dyn PersistentIndex> {
    let mut ctx = dev.ctx();
    match kind {
        IndexKind::Spash => Box::new(
            Spash::format(&mut ctx, SpashConfig::default()).expect("format spash"),
        ),
        IndexKind::SpashNoPipeline => Box::new(
            Spash::format(
                &mut ctx,
                SpashConfig {
                    pipeline_depth: 1,
                    ..SpashConfig::default()
                },
            )
            .expect("format spash"),
        ),
        IndexKind::Cceh => Box::new(Cceh::format(&mut ctx, 2).expect("format cceh")),
        IndexKind::Dash => Box::new(Dash::format(&mut ctx, 2).expect("format dash")),
        IndexKind::Level => Box::new(Level::format(&mut ctx, 10).expect("format level")),
        IndexKind::CLevel => Box::new(CLevel::format(&mut ctx, 10).expect("format clevel")),
        IndexKind::Plush => {
            // Size level 0 so the paper's 16x fanout reaches steady state
            // without overflowing the arena (the original sizes it to the
            // expected dataset too).
            let pow = (64 - (dev.arena().size() / (256 * 64)).leading_zeros()).clamp(8, 14);
            Box::new(Plush::format(&mut ctx, pow).expect("format plush"))
        }
        IndexKind::Halo => {
            let log = dev.arena().size() / 2;
            Box::new(Halo::format(&mut ctx, log, u64::MAX).expect("format halo"))
        }
    }
}

/// Spash variants for the ablation figures (12a–12c).
pub fn build_spash_variant(dev: &Arc<PmDevice>, cfg: SpashConfig) -> Arc<Spash> {
    let mut ctx = dev.ctx();
    Arc::new(Spash::format(&mut ctx, cfg).expect("format spash variant"))
}

/// Convenience constructors for the Fig 12 ablation configs.
pub fn ablation_config(name: &str) -> SpashConfig {
    let base = SpashConfig::default();
    match name {
        "adaptive" => base,
        "always-flush" => SpashConfig {
            update_policy: UpdatePolicy::AlwaysFlush,
            ..base
        },
        "never-flush" => SpashConfig {
            update_policy: UpdatePolicy::NeverFlush,
            ..base
        },
        "compacted-flush" => SpashConfig {
            insert_policy: InsertPolicy::CompactedFlush,
            ..base
        },
        "compacted-noflush" => SpashConfig {
            insert_policy: InsertPolicy::CompactedNoFlush,
            ..base
        },
        "scattered" => SpashConfig {
            insert_policy: InsertPolicy::Scattered,
            ..base
        },
        "htm" => base,
        "write-lock" => SpashConfig {
            concurrency: ConcurrencyMode::WriteLock,
            ..base
        },
        "write-read-lock" => SpashConfig {
            concurrency: ConcurrencyMode::WriteReadLock,
            ..base
        },
        other => panic!("unknown ablation {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_index_builds_and_works() {
        for kind in IndexKind::ALL {
            let dev = bench_device(10_000, 16);
            let idx = build_index(&dev, kind);
            let mut ctx = dev.ctx();
            idx.insert_u64(&mut ctx, 123, 456).unwrap();
            assert_eq!(idx.get_u64(&mut ctx, 123), Some(456), "{}", kind.label());
        }
    }

    #[test]
    fn device_cache_smaller_than_dataset() {
        let dev = bench_device(1_000_000, 16);
        let cfg = dev.config();
        assert!(cfg.cache_capacity < 1_000_000 * 48);
        assert!(cfg.arena_size >= 4 * 1_000_000 * 48);
    }
}
