//! The `spash-bench perf` suite: a fixed-seed, single-threaded run of all
//! seven indexes under both persistence domains, producing a
//! [`BenchReport`] whose virtual-clock metrics are **bit-deterministic**
//! (DESIGN.md "Perf reports and the regression gate").
//!
//! One simulated thread: every phase is a one-task cooperative batch,
//! the runner `scale`, `service` and the figures use, so two runs of the
//! same binary at the same seed produce byte-identical reports and
//! `spash-bench compare` holds them to strict equality.
//!
//! Every index is driven through its [`CrashTarget`] — the same
//! format/recover pair the crash sweeps use — so the suite also times a
//! real recovery (power failure + rebuild) per index and domain.

use spash_index_api::crashpoint::CrashTarget;
use spash_index_api::PersistentIndex;
use spash_pmem::{CrashFidelity, PersistenceDomain, PmConfig, PmDevice};
use spash_workloads::{load_keys, Distribution, Mix, OpStream, ValueSize, WorkloadConfig};

use crate::experiments::exec_stream;
use crate::harness::{phase_sched, run_scheduled, TaskBody};
use crate::indexes::crash_targets;
use crate::knobs;
use crate::report::{BenchReport, ExperimentRow};
use crate::PhaseResult;

/// Suite scale. The defaults are deliberately small — the gate's job is
/// catching cost-model and code-path changes, which show up at any scale;
/// CI latency matters more than asymptotics here.
#[derive(Clone, Debug)]
pub struct PerfConfig {
    /// Keys loaded per index (key space `1..=keys`).
    pub keys: u64,
    /// Ops per run phase (search/mixed/zipf).
    pub ops: u64,
    /// Full-suite repetitions; every row must agree across all of them
    /// (asserted).
    pub repeats: usize,
    pub seed: u64,
    pub value_bytes: usize,
}

impl PerfConfig {
    /// The pinned CI configuration. Changing any of these invalidates
    /// committed baselines (compare fails on the config echo).
    pub fn default_suite() -> Self {
        Self {
            keys: 20_000,
            ops: 10_000,
            repeats: 3,
            seed: 0x5eed,
            value_bytes: 16,
        }
    }

    /// Tiny variant for tier-1 tests.
    pub fn test_small() -> Self {
        Self {
            keys: 1_500,
            ops: 600,
            repeats: 2,
            seed: 0x5eed,
            value_bytes: 16,
        }
    }

    pub fn from_env() -> Self {
        let d = Self::default_suite();
        Self {
            keys: knobs::int("SPASH_PERF_KEYS", d.keys),
            ops: knobs::int("SPASH_PERF_OPS", d.ops),
            repeats: knobs::positive("SPASH_PERF_REPEATS", d.repeats as u64) as usize,
            seed: knobs::int("SPASH_PERF_SEED", d.seed),
            value_bytes: d.value_bytes,
        }
    }
}

/// Device configuration for one suite run (shared with the `scale`
/// suite). PM-bound on purpose: a small simulated cache keeps media
/// traffic (the costs the gate guards) on every phase's critical path.
pub(crate) fn suite_pm(domain: PersistenceDomain) -> PmConfig {
    PmConfig {
        arena_size: 256 << 20,
        cache_capacity: 512 << 10,
        domain,
        // Full pre-image fidelity so the recover phase can pull a real
        // post-power-failure image even under ADR.
        fidelity: CrashFidelity::Full,
        san: None,
        ..PmConfig::default()
    }
}

pub(crate) fn domain_label(domain: PersistenceDomain) -> &'static str {
    match domain {
        PersistenceDomain::Adr => "adr",
        PersistenceDomain::Eadr => "eadr",
    }
}

/// One index × domain: load, three run phases, power failure, recovery.
/// Returns rows in phase order.
fn run_target(
    target: &CrashTarget,
    target_idx: usize,
    domain: PersistenceDomain,
    cfg: &PerfConfig,
) -> Result<Vec<ExperimentRow>, String> {
    let dev = PmDevice::new(suite_pm(domain));
    let mut ctx = dev.ctx();
    let index: Box<dyn PersistentIndex> = (target.format)(&mut ctx);
    drop(ctx);

    let wl = |dist: Distribution, mix: Mix| WorkloadConfig {
        seed: cfg.seed,
        ..WorkloadConfig::new(cfg.keys, dist, mix, ValueSize::Fixed(cfg.value_bytes))
    };
    let point = domain_label(domain);
    // Each phase is a one-task batch: with nobody to switch to, only the
    // scheduler's step valve can act.
    let didx = usize::from(domain == PersistenceDomain::Adr);
    let run = |phase: usize, name: &str, body: TaskBody| {
        let sched = phase_sched(cfg.seed, [target_idx, didx, 0], phase, 0);
        run_scheduled(&dev, &sched, vec![body])
            .map(|(r, _)| r)
            .map_err(|e| format!("{}/{point}/{name}: {e}", target.name))
    };
    let mut rows = Vec::new();
    let mut push = |phase: &str, unit: &str, value: f64, r: PhaseResult| {
        rows.push(ExperimentRow::from_phase(
            "perf",
            &target.name,
            point,
            phase,
            unit,
            value,
            1,
            &r,
        ));
    };

    let load_cfg = wl(Distribution::Uniform, Mix::BALANCED);
    let keys = load_keys(&load_cfg);
    let mut vals = OpStream::new(&load_cfg, 0);
    let r = run(
        0,
        "load",
        Box::new(|ctx| {
            for &k in &keys {
                index
                    .insert(ctx, k, &vals.expected_value(k))
                    .unwrap_or_else(|e| panic!("load insert failed: {e:?}"));
            }
            keys.len() as u64
        }),
    )?;
    push("load", "mops", r.mops(), r);

    for (pi, (phase, dist, mix)) in [
        ("search", Distribution::Uniform, Mix::SEARCH_ONLY),
        ("mixed", Distribution::Uniform, Mix::BALANCED),
        ("zipf", Distribution::Zipfian, Mix::BALANCED),
    ]
    .into_iter()
    .enumerate()
    {
        let mut stream = OpStream::new(&wl(dist, mix), 0);
        let index = &*index;
        let r = run(
            1 + pi,
            phase,
            Box::new(move |ctx| exec_stream(index, ctx, &mut stream, cfg.ops)),
        )?;
        // Every index wraps its read path in [`spash_pmem::SPAN_PROBE`],
        // so the span delta isolates probe cost from the phase's writes.
        // PM cachelines referenced per probe (media misses + device-cache
        // hits — referenced, not missed, so the number doesn't depend on
        // cache size) is the headline the fingerprint sidecar moves
        // (paper §III-C: one header line resolves a tag-clean probe) —
        // pinned exactly by the gate like any other virtual metric.
        let probe = r
            .spans
            .iter()
            .find(|(n, _)| *n == spash_pmem::SPAN_PROBE)
            .map(|(_, s)| *s)
            .unwrap_or_default();
        let per_probe = if probe.entries == 0 {
            0.0
        } else {
            (probe.stats.cl_reads + probe.stats.read_hits) as f64 / probe.entries as f64
        };
        push(phase, "mops", r.mops(), r);
        push(
            &format!("{phase}_probe_reads"),
            "cl/probe",
            per_probe,
            PhaseResult {
                ops: probe.entries,
                elapsed_ns: probe.vtime_ns,
                delta: probe.stats,
                spans: Vec::new(),
            },
        );
    }

    drop(index);
    dev.simulate_power_failure();
    let mut recovered = None;
    let r = run(
        4,
        "recover",
        Box::new(|ctx| {
            recovered = (target.recover)(ctx);
            1
        }),
    )?;
    push("recover", "mops", r.mops(), r);
    // Spash is eADR-native: under ADR its unflushed lines revert on the
    // power cut, so declining to recover the torn image — or recovering
    // it with audit findings — is legal and recorded, not fatal
    // (`CheckLevel::NoCorruption`). The recovery *attempt* is still
    // measured — its counters are deterministic and gate-worthy.
    let torn_ok = domain == PersistenceDomain::Adr
        && spash_analysis::san_mode_for(&target.name) == spash_pmem::SanMode::Relaxed;
    match recovered {
        Some(rec) => {
            if let Some(err) = rec.audit_error {
                assert!(
                    torn_ok,
                    "{}/{point}: post-recovery audit failed: {err}",
                    target.name
                );
                println!("# perf: {}/{point}: torn-image audit note: {err}", target.name);
            }
        }
        None => assert!(
            torn_ok,
            "{}/{point}: unrecoverable after clean power cut",
            target.name
        ),
    }
    Ok(rows)
}

/// Run the full suite: every target × {eADR, ADR} × phases, `repeats`
/// times. Errors (rather than reporting garbage) if any repeat disagrees
/// on any row — that would mean the model leaked real-time or cross-run
/// state and the gate's exact compare is meaningless.
pub fn run_suite(cfg: &PerfConfig) -> Result<BenchReport, String> {
    let mut report = BenchReport::new(&short_rev());
    report.set_config("suite", "perf");
    report.set_config("keys", cfg.keys);
    report.set_config("ops", cfg.ops);
    report.set_config("repeats", cfg.repeats);
    report.set_config("seed", format!("{:#x}", cfg.seed));
    report.set_config("value_bytes", cfg.value_bytes);

    for (ti, target) in crash_targets().iter().enumerate() {
        for domain in [PersistenceDomain::Eadr, PersistenceDomain::Adr] {
            let mut rows = run_target(target, ti, domain, cfg)?;
            for i in 1..cfg.repeats {
                let again = run_target(target, ti, domain, cfg)?;
                if let Some((a, _)) = rows.iter().zip(&again).find(|(a, b)| a != b) {
                    return Err(format!(
                        "{}: repeat {i} disagrees with repeat 0 — run is not deterministic",
                        a.key()
                    ));
                }
            }
            println!(
                "# perf: {} [{}] done ({} phases x {} repeats)",
                target.name,
                domain_label(domain),
                rows.len(),
                cfg.repeats
            );
            report.rows.append(&mut rows);
        }
    }
    Ok(report)
}

/// The short revision baked into the report filename and header.
/// Precedence: `SPASH_PERF_REV` env, `GITHUB_SHA`, `git rev-parse`,
/// `"local"`.
pub fn short_rev() -> String {
    let clean = |s: &str| {
        let t: String = s
            .chars()
            .filter(|c| c.is_ascii_alphanumeric() || *c == '-' || *c == '.')
            .take(16)
            .collect();
        (!t.is_empty()).then_some(t)
    };
    if let Some(r) = knobs::text("SPASH_PERF_REV").as_deref().and_then(clean) {
        return r;
    }
    if let Some(r) = std::env::var("GITHUB_SHA")
        .ok()
        .as_deref()
        .map(|s| &s[..s.len().min(8)])
        .and_then(clean)
    {
        return r;
    }
    if let Ok(out) = std::process::Command::new("git")
        .args(["rev-parse", "--short=8", "HEAD"])
        .output()
    {
        if out.status.success() {
            if let Some(r) = clean(String::from_utf8_lossy(&out.stdout).trim()) {
                return r;
            }
        }
    }
    "local".into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::compare_reports;

    #[test]
    fn suite_covers_every_index_domain_and_phase() {
        let cfg = PerfConfig {
            repeats: 1,
            ..PerfConfig::test_small()
        };
        let rep = run_suite(&cfg).unwrap();
        assert_eq!(rep.rows.len(), 7 * 2 * 8);
        for phase in [
            "load",
            "search",
            "search_probe_reads",
            "mixed",
            "mixed_probe_reads",
            "zipf",
            "zipf_probe_reads",
            "recover",
        ] {
            for point in ["eadr", "adr"] {
                let n = rep
                    .rows
                    .iter()
                    .filter(|r| r.phase == phase && r.point == point)
                    .count();
                assert_eq!(n, 7, "{phase}/{point}");
            }
        }
        // The probe rows carry real data: every index actually entered
        // the probe span during its read phases, and per-probe cost is a
        // small positive number of PM lines.
        for r in rep.rows.iter().filter(|r| r.phase.ends_with("_probe_reads")) {
            assert_eq!(r.unit, "cl/probe", "{}", r.key());
            assert!(r.ops > 0, "{}: no probe-span entries", r.key());
            assert!(
                r.value > 0.0 && r.value < 64.0,
                "{}: implausible cl/probe {}",
                r.key(),
                r.value
            );
        }
        // Attribution reached the report: some write phase recorded split
        // work, and every recover phase recorded log replay.
        assert!(rep
            .rows
            .iter()
            .any(|r| r.spans.iter().any(|s| s.name == "split")));
        assert!(rep
            .rows
            .iter()
            .filter(|r| r.phase == "recover")
            .all(|r| r.spans.iter().any(|s| s.name == "log_replay")));
    }

    #[test]
    fn two_runs_compare_clean_both_ways() {
        let cfg = PerfConfig {
            repeats: 1,
            ..PerfConfig::test_small()
        };
        let a = run_suite(&cfg).unwrap();
        let b = run_suite(&cfg).unwrap();
        assert_eq!(a.to_json(), b.to_json());
        let ab = compare_reports(&a, &b);
        assert!(ab.ok(), "a->b: {:?}", ab.regressions);
        let ba = compare_reports(&b, &a);
        assert!(ba.ok(), "b->a: {:?}", ba.regressions);
        assert_eq!(ab.rows_compared, a.rows.len());
    }
}

