//! The `spash-bench scale` suite: the paper's headline scaling figures
//! (Figs 5–8 — throughput vs threads, uniform and zipfian, eADR and ADR)
//! regenerated **bit-deterministically** under the cooperative scheduler
//! (DESIGN.md "Deterministic scalability sweep").
//!
//! Where `spash-bench perf` is single-threaded by design, this suite runs
//! every index at a ladder of *virtual* thread counts: N tasks driven to
//! completion by [`spash_sched::batch::run_batch`] under a fixed
//! per-phase seed. Contention is modelled in virtual time (RMW line
//! tokens, `VLock` handoff, HTM aborts), the interleaving is a pure
//! function of the scheduler seed, and so every row — throughput, PM
//! counters, span attribution — is byte-stable and `spash-bench compare`
//! gates the whole curve exactly.
//!
//! `elapsed_ns = max(max per-task virtual clock, sim horizon, bandwidth
//! floor)` — the one `harness::run_scheduled` accounting `perf` also
//! uses, so Mops/s is comparable with `perf`.
//!
//! Each cell (index × domain × thread count) runs three phases on one
//! fresh device: a partitioned **load**, a partitioned-**uniform** run
//! (disjoint key slices — the contention-free end), and a shared-**zipf**
//! run (every task skews into the same hot set — the contended end where
//! lock-based baselines collapse and HTM pays off). Crossover points and
//! per-series throughput peaks are computed from the rows and stored as
//! first-class report assertions, gated exactly by `compare`.

use spash_workloads::{Distribution, Mix};

use crate::indexes::{roster, Geometry};
use crate::report::{BenchReport, ExperimentRow};
use crate::suite::{sweep, Point, SuiteConfig};

// --- one point: index × domain × thread count ---------------------------

/// Rows plus the per-task op counts behind each row's `ops` total.
pub struct CellResult {
    pub rows: Vec<ExperimentRow>,
    /// `(phase, per-task ops)`, in phase order.
    pub task_ops: Vec<(&'static str, Vec<u64>)>,
}

/// Run one point's three phases on its device: partitioned load (every
/// task inserts its own rank chunk), partitioned-uniform run (disjoint
/// slices, no key sharing), shared-zipf run (every task hammers the same
/// hot ranks).
pub fn run_cell(p: &Point) -> Result<CellResult, String> {
    let (r, per_task) = p.load()?;
    let mut rows = vec![p.row("load", &r)];
    let mut task_ops = vec![("load", per_task)];
    for (pi, (phase, dist, partitioned)) in [
        ("uniform", Distribution::Uniform, true),
        ("zipf", Distribution::Zipfian, false),
    ]
    .into_iter()
    .enumerate()
    {
        let wl = p.cfg.workload(dist, Mix::BALANCED);
        let (r, per_task) = p
            .cell
            .mix(&p.dev, 1 + pi, &*p.index, &wl, p.cfg.ops, partitioned)?;
        rows.push(p.row(phase, &r));
        task_ops.push((phase, per_task));
    }
    Ok(CellResult { rows, task_ops })
}

// --- the full sweep + derived claims ------------------------------------

/// Run the full sweep: every target × {eADR, ADR} × ladder × phases, then
/// derive the crossover/peak assertions. The report is byte-identical
/// across runs.
pub fn run_suite(cfg: &SuiteConfig) -> Result<BenchReport, String> {
    let mut report = sweep(cfg, &[], |p| run_cell(p).map(|c| c.rows))?;
    derive_assertions(&mut report, cfg);
    Ok(report)
}

/// Throughput of `series` at ladder point `t` for one domain × phase.
fn mops_at(report: &BenchReport, series: &str, domain: &str, phase: &str, t: usize) -> Option<f64> {
    report
        .rows
        .iter()
        .find(|r| {
            r.series == series && r.phase == phase && r.point == format!("{domain}/t{t}")
        })
        .map(|r| r.value)
}

/// Every roster series name, and which of them is Spash.
fn series_names() -> (Vec<String>, String) {
    let series: Vec<String> = roster(Geometry::Suite).iter().map(|t| t.name.clone()).collect();
    let spash = series
        .iter()
        .find(|s| s.starts_with("Spash"))
        .cloned()
        .expect("Spash series present");
    (series, spash)
}

/// Compute the headline claims and store them as report assertions:
///
/// * `crossover/<domain>/<phase>/<baseline>` — the smallest ladder thread
///   count at which Spash's throughput meets or beats the baseline's
///   (`"never"` if it never does): where the curves cross.
/// * `peak/<domain>/<phase>/<series>` — the ladder point of each series'
///   throughput maximum. A peak below the ladder top is a collapse: more
///   threads, less throughput (the lock-based baselines under zipf).
///
/// These are *derived* from bit-deterministic rows, so they are
/// themselves deterministic and `compare` gates them exactly.
fn derive_assertions(report: &mut BenchReport, cfg: &SuiteConfig) {
    let (series, spash) = series_names();
    let mut claims: Vec<(String, String)> = Vec::new();
    for domain in ["eadr", "adr"] {
        for phase in ["uniform", "zipf"] {
            for s in &series {
                // Peak: first ladder point attaining the max throughput.
                let peak = cfg
                    .ladder
                    .iter()
                    .copied()
                    .max_by(|&a, &b| {
                        let ma = mops_at(report, s, domain, phase, a).unwrap_or(0.0);
                        let mb = mops_at(report, s, domain, phase, b).unwrap_or(0.0);
                        // Strict comparison biased to the *smaller* t on
                        // ties, deterministically.
                        ma.partial_cmp(&mb)
                            .unwrap()
                            .then(b.cmp(&a))
                    })
                    .unwrap_or(1);
                claims.push((format!("peak/{domain}/{phase}/{s}"), peak.to_string()));
                if *s == spash {
                    continue;
                }
                let crossover = cfg
                    .ladder
                    .iter()
                    .copied()
                    .find(|&t| {
                        let sp = mops_at(report, &spash, domain, phase, t).unwrap_or(0.0);
                        let ba = mops_at(report, s, domain, phase, t).unwrap_or(f64::MAX);
                        sp >= ba
                    })
                    .map(|t| t.to_string())
                    .unwrap_or_else(|| "never".into());
                claims.push((format!("crossover/{domain}/{phase}/{s}"), crossover));
            }
        }
    }
    for (k, v) in claims {
        report.set_assertion(&k, v);
    }
}

/// Structural check of the derived claims (`spash-bench scale --assert`):
/// the shape the paper predicts, independent of exact numbers.
///
/// * every crossover/peak assertion exists for every domain × phase;
/// * Spash scales: its uniform-phase peak is at the top of the ladder in
///   both domains;
/// * Spash wins contended zipf at the ladder top in eADR: every baseline
///   has a crossover (≠ "never").
pub fn check_claims(report: &BenchReport, cfg: &SuiteConfig) -> Vec<String> {
    let mut bad = Vec::new();
    let (series, spash) = series_names();
    let top = cfg.ladder.iter().copied().max().unwrap_or(1).to_string();
    for domain in ["eadr", "adr"] {
        for phase in ["uniform", "zipf"] {
            for s in &series {
                if report
                    .assertion_value(&format!("peak/{domain}/{phase}/{s}"))
                    .is_none()
                {
                    bad.push(format!("missing assertion peak/{domain}/{phase}/{s}"));
                }
                if *s != spash
                    && report
                        .assertion_value(&format!("crossover/{domain}/{phase}/{s}"))
                        .is_none()
                {
                    bad.push(format!("missing assertion crossover/{domain}/{phase}/{s}"));
                }
            }
        }
        let k = format!("peak/{domain}/uniform/{spash}");
        match report.assertion_value(&k) {
            Some(v) if v == top => {}
            v => bad.push(format!("{k}: Spash must peak at the ladder top {top}, got {v:?}")),
        }
    }
    for s in series.iter().filter(|s| **s != spash) {
        let k = format!("crossover/eadr/zipf/{s}");
        if report.assertion_value(&k) == Some("never") {
            bad.push(format!("{k}: Spash never overtakes {s} under contended zipf"));
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use spash_pmem::PersistenceDomain;

    #[test]
    fn one_cell_has_three_phases_and_sane_rows() {
        let cfg = SuiteConfig {
            keys: 600,
            ops: 240,
            preemptions: 32,
            ladder: &[2, 8],
            ..crate::suite::SCALE
        };
        let target = &roster(Geometry::Suite)[0];
        let cell = run_cell(&Point::new(&cfg, target, 0, PersistenceDomain::Eadr, 2)).unwrap();
        assert_eq!(cell.rows.len(), 3);
        assert_eq!(cell.task_ops.len(), 3);
        for (row, (phase, per_task)) in cell.rows.iter().zip(&cell.task_ops) {
            assert_eq!(&row.phase, phase);
            assert_eq!(row.threads, 2);
            assert_eq!(per_task.len(), 2);
            assert_eq!(row.ops, per_task.iter().sum::<u64>());
            assert!(row.value > 0.0, "{phase}: zero throughput");
        }
        // The load phase loaded every key exactly once.
        assert_eq!(cell.rows[0].ops, cfg.keys);
    }
}
