//! Seeded workload driver for the persistence-ordering sanitizer.
//!
//! Runs one index under a sanitizer-armed device and reports the
//! violations plus the perf diagnostics. This is the engine behind
//! `spash-bench san`, the CI `sanitize` job's clean-run gate, and the
//! mutation-canary tests in `tests/sanitizer.rs`.

use std::fmt::Write;

use spash_index_api::crashpoint::{gen_workload, CrashTarget, SweepOp};
use spash_pmem::{
    CrashFidelity, PersistenceDomain, PmConfig, PmDevice, SanReport, StatsDelta,
};

use crate::san_mode_for;

/// Parameters of one sanitizer run.
#[derive(Clone, Debug)]
pub struct SanRunConfig {
    /// Persistence domain to model. Publication checks only fire under
    /// [`PersistenceDomain::Adr`]; the redundant-flush / no-op-fence
    /// diagnostics fire in both domains.
    pub domain: PersistenceDomain,
    /// Workload seed (same generator as the crash-point sweep).
    pub seed: u64,
    /// Number of operations.
    pub n_ops: u64,
    /// Key space (small, so splits/merges/delete-reinsert paths run).
    pub key_space: u64,
    /// Arena size in bytes.
    pub arena_bytes: u64,
}

impl SanRunConfig {
    /// The configuration CI and `tests/sanitizer.rs` use: 10k ops over 1k
    /// keys, the acceptance workload from the issue.
    pub fn full(domain: PersistenceDomain) -> Self {
        Self {
            domain,
            seed: 0x5A17,
            n_ops: 10_000,
            key_space: 1_000,
            arena_bytes: 256 << 20,
        }
    }

    /// A quick configuration for unit tests and canary localization runs.
    pub fn quick(domain: PersistenceDomain) -> Self {
        Self {
            domain,
            seed: 0x5A17,
            n_ops: 1_500,
            key_space: 256,
            arena_bytes: 64 << 20,
        }
    }
}

/// Outcome of one sanitizer run over one index.
pub struct SanRunResult {
    /// Target name ("Spash", "CCEH", ...).
    pub name: String,
    /// Domain the run modelled.
    pub domain: PersistenceDomain,
    /// The sanitizer's findings (violations + retention overflow count).
    pub report: SanReport,
    /// Stats delta across the workload (flushes, redundant flushes,
    /// no-op fences, media traffic).
    pub stats: StatsDelta,
    /// Operations executed.
    pub n_ops: u64,
}

impl SanRunResult {
    /// True when the sanitizer found nothing.
    pub fn clean(&self) -> bool {
        self.report.clean()
    }

    /// One summary line for tables and CI logs.
    pub fn summary(&self) -> String {
        format!(
            "{:<8} {:?}: {} violations ({} dropped), {} flushes \
             ({} redundant), {} no-op fences over {} ops",
            self.name,
            self.domain,
            self.report.violations.len(),
            self.report.dropped,
            self.stats.flushes,
            self.stats.san_redundant_flushes,
            self.stats.san_noop_fences,
            self.n_ops
        )
    }
}

/// Device configuration for a sanitizer run of `target` in `domain`.
///
/// ADR runs need [`CrashFidelity::Full`] so a simulated crash could
/// actually revert lines; the sanitizer itself only needs the mode bit.
pub fn san_config(target_name: &str, cfg: &SanRunConfig) -> PmConfig {
    let mut pm = PmConfig::small_test();
    pm.arena_size = cfg.arena_bytes;
    pm.domain = cfg.domain;
    pm.fidelity = match cfg.domain {
        PersistenceDomain::Adr => CrashFidelity::Full,
        PersistenceDomain::Eadr => CrashFidelity::Fast,
    };
    pm.san = Some(san_mode_for(target_name));
    pm
}

/// Run the seeded workload against `target` with the sanitizer armed.
///
/// Single-threaded: publication edges still fire (atomic RMWs and lock
/// releases happen regardless of contention), and single-threaded runs
/// keep the per-op labels on violations exact.
pub fn run_san(target: &CrashTarget, cfg: &SanRunConfig) -> SanRunResult {
    let pm = san_config(&target.name, cfg);
    let dev = PmDevice::new(pm);
    let mut ctx = dev.ctx();
    let idx = (target.format)(&mut ctx);
    let before = dev.snapshot();
    let ops = gen_workload(cfg.seed, cfg.n_ops, cfg.key_space);
    let mut label = String::new();
    for (i, op) in ops.iter().enumerate() {
        let kind = match op {
            SweepOp::Insert(..) => "insert",
            SweepOp::Update(..) => "update",
            SweepOp::Remove(_) => "remove",
            SweepOp::Get(_) => "get",
        };
        label.clear();
        let _ = write!(label, "op#{i} {kind}(key={})", op.key());
        ctx.san_op_label(&label);
        op.apply_mirrored(idx.as_ref(), &mut ctx);
    }
    let san = dev.san().expect("sanitizer was configured on");
    san.final_check();
    let stats = dev.snapshot().since(&before);
    SanRunResult {
        name: target.name.clone(),
        domain: cfg.domain,
        report: san.report(),
        stats,
        n_ops: cfg.n_ops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::all_targets;

    #[test]
    fn quick_eadr_run_is_clean_for_every_target() {
        // eADR disables publication checks, so this exercises only the
        // driver plumbing and the diagnostics counters.
        let cfg = SanRunConfig {
            n_ops: 300,
            key_space: 64,
            ..SanRunConfig::quick(PersistenceDomain::Eadr)
        };
        for t in all_targets() {
            let r = run_san(&t, &cfg);
            assert!(
                r.clean(),
                "{} eADR run not clean: {:?}",
                r.name,
                r.report.violations
            );
        }
    }
}
