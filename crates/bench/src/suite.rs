//! The catalog behind the three fixed-seed gated suites, `perf`, `scale`
//! and `service` (DESIGN.md §2): one sweep over every crash target ×
//! {eADR, ADR} × the suite's ladder. Each point is a freshly formatted
//! index on its own device whose phases run as one [`Cell`]; a suite
//! supplies only its phase body.
//!
//! The suites' sizes are the constants below. Each is echoed in the
//! report's `config`, which `compare` checks key for key, so a report of
//! any other size could never pass its gate: resizing a suite is an edit
//! here plus a regenerated baseline.

use std::sync::Arc;

use spash_index_api::crashpoint::CrashTarget;
use spash_index_api::PersistentIndex;
use spash_pmem::{PersistenceDomain, PmConfig, PmDevice};
use spash_workloads::{Distribution, Mix, ValueSize, WorkloadConfig};

use crate::experiments::{Cell, Scheduled};
use crate::indexes::{roster, Geometry};
use crate::report::{join_ladder, short_rev, BenchReport, ExperimentRow};
use crate::PhaseResult;

/// One gated suite's sizes. Deliberately small: the gates catch
/// cost-model and code-path changes, which show up at any scale.
#[derive(Clone, Debug)]
pub struct SuiteConfig {
    /// `perf`, `scale` or `service`: the rows' experiment and the
    /// report's `suite`.
    pub suite: &'static str,
    /// Keys loaded per point (key space `1..=keys`).
    pub keys: u64,
    /// Run-phase operations per point and phase (`scale`: split evenly
    /// over the tasks; `service`: client requests).
    pub ops: u64,
    /// Workload seed, and the base of every phase's scheduler seed.
    pub seed: u64,
    /// Scheduler preemption budget per phase at non-blocking sync points
    /// (blocking events always switch for free).
    pub preemptions: u32,
    /// What the ladder counts, `threads` or `shards`; its initial names
    /// the points (`eadr/t4`, `eadr/s2`). Empty for `perf`, whose one
    /// point per domain is one task with no preemptions to budget.
    pub axis: &'static str,
    pub ladder: &'static [usize],
}

/// Every suite's values are 16 bytes.
pub const VALUE_BYTES: usize = 16;

/// `perf`: one task per index and domain (`bench/baseline.json`).
pub const PERF: SuiteConfig = SuiteConfig {
    suite: "perf",
    keys: 20_000,
    ops: 10_000,
    seed: 0x5eed,
    preemptions: 0,
    axis: "",
    ladder: &[],
};

/// `scale`: the virtual-thread ladder (`bench/baseline_scale.json`; the
/// paper's is `1, 2, 4, 8, 16, 32, 56`).
pub const SCALE: SuiteConfig = SuiteConfig {
    suite: "scale",
    keys: 4_000,
    ops: 2_000,
    seed: 0x5eed,
    preemptions: 64,
    axis: "threads",
    ladder: &[1, 2, 4, 8],
};

/// `service`: the shard ladder (`bench/baseline_service.json`).
pub const SERVICE: SuiteConfig = SuiteConfig {
    suite: "service",
    keys: 1_500,
    ops: 1_500,
    seed: 0x5e41ce,
    preemptions: 32,
    axis: "shards",
    ladder: &[2, 4],
};

impl SuiteConfig {
    /// The suite's workload over its key space.
    pub fn workload(&self, dist: Distribution, mix: Mix) -> WorkloadConfig {
        WorkloadConfig {
            seed: self.seed,
            ..WorkloadConfig::new(self.keys, dist, mix, ValueSize::Fixed(VALUE_BYTES))
        }
    }
}

/// The device of every point. PM-bound on purpose: a small simulated
/// cache keeps media traffic (the costs the gates guard) on every phase's
/// critical path.
fn suite_pm(domain: PersistenceDomain) -> PmConfig {
    PmConfig {
        arena_size: 256 << 20,
        cache_capacity: 512 << 10,
        domain,
        ..PmConfig::default()
    }
}

fn domain_label(domain: PersistenceDomain) -> &'static str {
    match domain {
        PersistenceDomain::Adr => "adr",
        PersistenceDomain::Eadr => "eadr",
    }
}

/// One point of a sweep: a crash target freshly formatted on its own
/// device, and the cell its phases run as.
pub struct Point<'a> {
    pub(crate) cfg: &'a SuiteConfig,
    pub(crate) target: &'a CrashTarget,
    pub(crate) domain: PersistenceDomain,
    /// The rows' `point`: `eadr`, `eadr/t4`, `eadr/s2`.
    pub(crate) name: String,
    pub(crate) cell: Cell,
    pub(crate) dev: Arc<PmDevice>,
    pub(crate) index: Arc<dyn PersistentIndex>,
}

impl<'a> Point<'a> {
    /// `target`, the `ti`-th crash target, at ladder value `n` (0 for
    /// `perf`).
    pub fn new(
        cfg: &'a SuiteConfig,
        target: &'a CrashTarget,
        ti: usize,
        domain: PersistenceDomain,
        n: usize,
    ) -> Self {
        let name = match cfg.axis.chars().next() {
            Some(c) => format!("{}/{c}{n}", domain_label(domain)),
            None => domain_label(domain).to_string(),
        };
        let dev = PmDevice::new(suite_pm(domain));
        let index = Arc::from((target.format)(&mut dev.ctx()));
        Self {
            cfg,
            target,
            domain,
            name,
            cell: Cell {
                seed: cfg.seed,
                preemptions: cfg.preemptions,
                id: [ti, usize::from(domain == PersistenceDomain::Adr), n],
                threads: n.max(1),
            },
            dev,
            index,
        }
    }

    /// The same point again, on a fresh device.
    pub(crate) fn again(&self) -> Self {
        Self::new(
            self.cfg,
            self.target,
            self.cell.id[0],
            self.domain,
            self.cell.id[2],
        )
    }

    /// Phase 0: the partitioned load of the suite's key space. Loading
    /// less of it (out of memory) is an error.
    pub(crate) fn load(&self) -> Scheduled {
        let cfg = self.cfg.workload(Distribution::Uniform, Mix::BALANCED);
        let (r, per_task) = self.cell.load(&self.dev, 0, &*self.index, &cfg)?;
        if r.ops != self.cfg.keys {
            return Err(format!("load: out of memory after {} keys", r.ops));
        }
        Ok((r, per_task))
    }

    /// The throughput row of phase `phase`.
    pub(crate) fn row(&self, phase: &str, r: &PhaseResult) -> ExperimentRow {
        ExperimentRow::from_phase(
            self.cfg.suite,
            &self.target.name,
            &self.name,
            phase,
            "mops",
            r.mops(),
            self.cell.threads,
            r,
        )
    }
}

/// Run `phases` at every point of `cfg` — each crash target × {eADR,
/// ADR} × ladder value — into one report whose `config` echoes `cfg`
/// and the suite's own `echo`. The report is byte-identical across runs.
pub(crate) fn sweep(
    cfg: &SuiteConfig,
    echo: &[(&str, String)],
    mut phases: impl FnMut(&Point) -> Result<Vec<ExperimentRow>, String>,
) -> Result<BenchReport, String> {
    let mut report = BenchReport::new(&short_rev());
    report.set_config("suite", cfg.suite);
    report.set_config("keys", cfg.keys);
    report.set_config("ops", cfg.ops);
    report.set_config("seed", format!("{:#x}", cfg.seed));
    report.set_config("value_bytes", VALUE_BYTES);
    if !cfg.ladder.is_empty() {
        report.set_config(cfg.axis, join_ladder(cfg.ladder));
        report.set_config("preemptions", cfg.preemptions);
    }
    for (k, v) in echo {
        report.set_config(k, v);
    }
    let echoed: Vec<String> = report
        .config
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    println!("# {}: {}", cfg.suite, echoed.join(" "));

    let ladder = if cfg.ladder.is_empty() {
        &[0][..]
    } else {
        cfg.ladder
    };
    for (ti, target) in roster(Geometry::Suite).iter().enumerate() {
        for domain in [PersistenceDomain::Eadr, PersistenceDomain::Adr] {
            let before = report.rows.len();
            for &n in ladder {
                let p = Point::new(cfg, target, ti, domain, n);
                let rows = phases(&p).map_err(|e| format!("{}/{}: {e}", target.name, p.name))?;
                report.rows.extend(rows);
            }
            println!(
                "# {}: {} [{}] done ({} rows)",
                cfg.suite,
                target.name,
                domain_label(domain),
                report.rows.len() - before
            );
        }
    }
    Ok(report)
}
