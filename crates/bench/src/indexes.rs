//! The one index roster — the paper's comparison set (§VI) as
//! [`CrashTarget`]s — and the device every figure builds it on.

use std::sync::Arc;

use spash::{ConcurrencyMode, InsertPolicy, Spash, SpashConfig, UpdatePolicy};
use spash_baselines::{CLevel, Cceh, Dash, Halo, Level, Plush};
use spash_index_api::crashpoint::CrashTarget;
use spash_pmem::{PmConfig, PmDevice};

use crate::knobs;

/// The geometry a [`roster`] is built at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Geometry {
    /// Crash sweeps (the sanitizer's record pass included) and schedule
    /// exploration: Spash's small test geometry and an 8 MiB Halo log, so
    /// splits, merges and GC happen within a few hundred ops.
    Sweep,
    /// The `perf`/`scale`/`service` suites: Spash's default geometry and
    /// a 64 MiB Halo log (the suites replay several write phases into it).
    Suite,
    /// The figures: every index with a small head start (the paper
    /// preloads millions of keys anyway), Plush and Halo sized from the
    /// formatting context's arena, plus `Spash(noPL)` — Spash with the
    /// pipeline disabled (PD=1), the "Spash (w/o pipeline)" series of
    /// Figs 7/10/11.
    Figure,
}

/// The one roster: Spash and the six baselines (the figures add
/// `Spash(noPL)` second), in report order. A member's position is its
/// cell id, and so its scheduler seed, in every figure and suite that
/// iterates the roster. Fresh targets per call: `CrashTarget::format`
/// must not share volatile state across devices.
pub fn roster(geometry: Geometry) -> Vec<CrashTarget> {
    let figure = geometry == Geometry::Figure;
    let spash = match geometry {
        Geometry::Sweep => SpashConfig::test_default(),
        Geometry::Suite | Geometry::Figure => SpashConfig::default(),
    };
    let mut targets = vec![Spash::crash_target(spash)];
    if figure {
        let no_pipeline = SpashConfig {
            pipeline_depth: 1,
            ..SpashConfig::default()
        };
        targets.push(CrashTarget {
            name: "Spash(noPL)".into(),
            ..Spash::crash_target(no_pipeline)
        });
    }
    let (dir_depth, level_pow) = if figure { (2, 10) } else { (1, 4) };
    targets.extend([
        Cceh::crash_target(dir_depth),
        Dash::crash_target(dir_depth),
        Level::crash_target(level_pow),
        CLevel::crash_target(level_pow),
    ]);
    match geometry {
        Geometry::Sweep => targets.extend([
            Plush::crash_target(4),
            Halo::crash_target(8 << 20),
        ]),
        Geometry::Suite => targets.extend([
            Plush::crash_target(4),
            Halo::crash_target(64 << 20),
        ]),
        Geometry::Figure => targets.extend([
            // Recovery needs no geometry, so these two keep their crash
            // target's `recover` and replace only its `format`.
            CrashTarget {
                // Size level 0 so the paper's 16x fanout reaches steady
                // state without overflowing the arena (the original sizes
                // it to the expected dataset too).
                format: Box::new(|ctx| {
                    let arena = ctx.device().arena().size();
                    let pow = (64 - (arena / (256 * 64)).leading_zeros()).clamp(8, 14);
                    Box::new(Plush::format(ctx, pow).expect("format Plush"))
                }),
                ..Plush::crash_target(0)
            },
            CrashTarget {
                format: Box::new(|ctx| {
                    let log = ctx.device().arena().size() / 2;
                    Box::new(Halo::format(ctx, log).expect("format Halo"))
                }),
                ..Halo::crash_target(0)
            },
        ]),
    }
    targets
}

/// The micro-benchmark series of Figs 7 and 8, each with its cell id:
/// the figure roster without Halo (the paper excludes it there: "Halo is
/// excluded from the micro-benchmark since it crashes during the
/// executions" — DRAM exhaustion).
pub fn micro() -> impl Iterator<Item = (usize, CrashTarget)> {
    roster(Geometry::Figure)
        .into_iter()
        .enumerate()
        .filter(|(_, t)| t.name != "Halo")
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
    let san = knobs::on_off("SPASH_BENCH_SAN", false);
    PmDevice::new(PmConfig {
        arena_size: arena,
        cache_capacity: cache,
        san,
        ..PmConfig::default()
    })
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
        for target in roster(Geometry::Figure) {
            let dev = bench_device(10_000, 16);
            let idx = (target.format)(&mut dev.ctx());
            let mut ctx = dev.ctx();
            idx.insert_u64(&mut ctx, 123, 456).unwrap();
            assert_eq!(idx.get_u64(&mut ctx, 123), Some(456), "{}", target.name);
        }
    }

    /// A member's position is its cell id, so this order fixes every
    /// figure's and every suite's scheduler seeds.
    #[test]
    fn roster_order_is_pinned() {
        let names = |g| -> Vec<String> { roster(g).into_iter().map(|t| t.name).collect() };
        let suite = ["Spash", "CCEH", "Dash", "Level", "CLevel", "Plush", "Halo"];
        assert_eq!(
            names(Geometry::Figure),
            [
                "Spash",
                "Spash(noPL)",
                "CCEH",
                "Dash",
                "Level",
                "CLevel",
                "Plush",
                "Halo"
            ]
        );
        assert_eq!(names(Geometry::Suite), suite);
        assert_eq!(names(Geometry::Sweep), suite);
    }

    #[test]
    fn device_cache_smaller_than_dataset() {
        let dev = bench_device(1_000_000, 16);
        let cfg = dev.config();
        assert!(cfg.cache_capacity < 1_000_000 * 48);
        assert!(cfg.arena_size >= 4 * 1_000_000 * 48);
    }
}
