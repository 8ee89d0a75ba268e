//! The `spash-bench perf` suite: a fixed-seed, single-threaded run of all
//! seven indexes under both persistence domains, producing a
//! [`BenchReport`] whose virtual-clock metrics are **bit-deterministic**
//! (DESIGN.md "Perf reports and the regression gate").
//!
//! One simulated thread: every phase is a one-task cooperative batch of
//! the point's [`crate::experiments::Cell`], the runner `scale`, `service`
//! and the figures use, so two runs of the same binary produce
//! byte-identical reports and `spash-bench compare` holds them to strict
//! equality. With nobody to switch to, only the scheduler's step valve
//! can act.
//!
//! Every index is driven through its crash target — the same
//! format/recover pair the crash sweeps use — so the suite also times a
//! real recovery (power failure + rebuild) per index and domain, and,
//! apart from it, the post-recovery audit that checks it.

use spash_index_api::crashpoint::CheckLevel;
use spash_workloads::{Distribution, Mix};

use crate::harness::TaskBody;
use crate::report::{BenchReport, ExperimentRow};
use crate::suite::{sweep, Point, SuiteConfig};
use crate::PhaseResult;

/// Full-suite repetitions; every row must agree across all of them.
pub const REPEATS: usize = 3;

/// One index × domain: load, three run phases, power failure, recovery,
/// and the audit of a recovered index. Returns rows in phase order.
pub fn run_cell(p: &Point) -> Result<Vec<ExperimentRow>, String> {
    let (r, _) = p.load()?;
    let mut rows = vec![p.row("load", &r)];
    for (pi, (phase, dist, mix)) in [
        ("search", Distribution::Uniform, Mix::SEARCH_ONLY),
        ("mixed", Distribution::Uniform, Mix::BALANCED),
        ("zipf", Distribution::Zipfian, Mix::BALANCED),
    ]
    .into_iter()
    .enumerate()
    {
        let wl = p.cfg.workload(dist, mix);
        let (r, _) = p
            .cell
            .mix(&p.dev, 1 + pi, &*p.index, &wl, p.cfg.ops, false)?;
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
        rows.push(p.row(phase, &r));
        let probe = PhaseResult {
            ops: probe.entries,
            elapsed_ns: probe.vtime_ns,
            delta: probe.stats,
            spans: Vec::new(),
        };
        rows.push(ExperimentRow {
            unit: "cl/probe".into(),
            value: per_probe,
            ..p.row(&format!("{phase}_probe_reads"), &probe)
        });
    }

    p.dev.simulate_power_failure();
    let mut recovered = None;
    let recover: TaskBody = Box::new(|ctx| {
        recovered = (p.target.recover)(ctx);
        1
    });
    let (r, _) = p.cell.run(&p.dev, 4, vec![recover])?;
    rows.push(p.row("recover", &r));
    // Spash is eADR-native: under ADR its unflushed lines revert on the
    // power cut, so declining to recover the torn image — or recovering
    // it with audit findings — is legal and recorded, not fatal
    // (`CheckLevel::NoCorruption`). The recovery *attempt* is still
    // measured — its counters are deterministic and gate-worthy.
    let torn_ok = CheckLevel::for_target(&p.target.name, p.domain) == CheckLevel::NoCorruption;
    let who = format!("{}/{}", p.target.name, p.name);
    let Some(index) = recovered else {
        assert!(torn_ok, "{who}: unrecoverable after clean power cut");
        return Ok(rows);
    };
    // The audit that checks the recovery — heap census against
    // reachability, and the index's own integrity walk — is timed apart.
    let mut audit_error = None;
    let audit: TaskBody = Box::new(|ctx| {
        audit_error = index.audit(ctx).1;
        1
    });
    let (r, _) = p.cell.run(&p.dev, 5, vec![audit])?;
    rows.push(p.row("audit", &r));
    if let Some(err) = audit_error {
        assert!(torn_ok, "{who}: post-recovery audit failed: {err}");
        println!("# perf: {who}: torn-image audit note: {err}");
    }
    Ok(rows)
}

/// Run the full suite: every target × {eADR, ADR} × phases, [`REPEATS`]
/// times. Errors (rather than reporting garbage) if any repeat disagrees
/// on any row — that would mean the model leaked real-time or cross-run
/// state and the gate's exact compare is meaningless.
pub fn run_suite(cfg: &SuiteConfig) -> Result<BenchReport, String> {
    sweep(cfg, &[("repeats", REPEATS.to_string())], |p| {
        let rows = run_cell(p)?;
        for i in 1..REPEATS {
            let again = run_cell(&p.again())?;
            if let Some((a, _)) = rows.iter().zip(&again).find(|(a, b)| a != b) {
                return Err(format!(
                    "{}: repeat {i} disagrees with repeat 0 — run is not deterministic",
                    a.key()
                ));
            }
        }
        Ok(rows)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::compare_reports;

    use crate::suite::PERF;

    /// One repeat of the suite at a tiny size.
    fn tiny() -> BenchReport {
        let cfg = SuiteConfig {
            keys: 1_500,
            ops: 600,
            ..PERF
        };
        sweep(&cfg, &[], run_cell).unwrap()
    }

    #[test]
    fn suite_covers_every_index_domain_and_phase() {
        let rep = tiny();
        let count = |phase: &str, point: &str| {
            rep.rows
                .iter()
                .filter(|r| r.phase == phase && r.point == point)
                .count()
        };
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
                assert_eq!(count(phase, point), 7, "{phase}/{point}");
            }
        }
        // Every recovered index is audited. All seven recover under
        // eADR, and the six ADR-era baselines under ADR too; Spash may
        // decline its torn ADR image, leaving nothing to audit.
        let audits = rep.rows.iter().filter(|r| r.phase == "audit");
        assert!(audits.clone().all(|r| r.spans.iter().all(|s| s.name != "log_replay")));
        assert_eq!(count("audit", "eadr"), 7);
        let adr: Vec<_> = audits.filter(|r| r.point == "adr").map(|r| &r.series).collect();
        assert_eq!(adr.iter().filter(|&&s| s != "Spash").count(), 6, "{adr:?}");
        assert_eq!(rep.rows.len(), 7 * 2 * 8 + 7 + adr.len());
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
        let (a, b) = (tiny(), tiny());
        assert_eq!(a.to_json(), b.to_json());
        let ab = compare_reports(&a, &b);
        assert!(ab.ok(), "a->b: {:?}", ab.regressions);
        let ba = compare_reports(&b, &a);
        assert!(ba.ok(), "b->a: {:?}", ba.regressions);
        assert_eq!(ab.rows_compared, a.rows.len());
    }
}

