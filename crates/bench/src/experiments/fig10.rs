//! Fig. 10 — YCSB throughput with inlined key-value entries (paper
//! §VI-C): load phase plus read-intensive (90:10), balanced (50:50) and
//! write-intensive (10:90) run phases, zipfian(0.99).
//!
//! Expected shape: Spash leads every phase (HTM lock elision + in-place
//! hot updates served from the persistent cache); Level worst everywhere
//! (read+write locks); Dash/Halo better on reads than writes; CLevel flat
//! (out-of-place updates defeat the cache); Plush competitive only in
//! load.

use spash_workloads::{Distribution, Mix, ValueSize, WorkloadConfig};

use crate::experiments::Cell;
use crate::harness::{print_table, PhaseResult, Scale};
use crate::indexes::{bench_device, roster, Geometry};
use crate::report::ExperimentRow;

pub const PHASES: [(&str, Option<Mix>); 4] = [
    ("Load", None),
    ("Read-int 90:10", Some(Mix::READ_INTENSIVE)),
    ("Balanced 50:50", Some(Mix::BALANCED)),
    ("Write-int 10:90", Some(Mix::WRITE_INTENSIVE)),
];

/// The figure roster's member `series` through all four phases at the
/// top thread count, as a cell of `figure` (Fig 11 runs the same phases
/// per value size).
pub fn run_one(scale: &Scale, figure: u8, series: usize, value: ValueSize) -> Vec<PhaseResult> {
    let (point, vbytes) = match value {
        ValueSize::Inline => (0, 16),
        ValueSize::Fixed(n) => (n, n as u64),
    };
    let cell = Cell::figure(figure, series, point, scale.max_threads());
    let dev = bench_device(scale.keys, vbytes);
    let idx = (roster(Geometry::Figure)[series].format)(&mut dev.ctx());
    let index = idx.as_ref();
    let cfg = WorkloadConfig::new(scale.keys, Distribution::Zipfian, Mix::BALANCED, value);
    let mut out = Vec::with_capacity(PHASES.len());

    out.push(cell.load(&dev, 0, index, &cfg).unwrap().0);
    for (p, (_, mix)) in PHASES.iter().enumerate().skip(1) {
        let cfg = WorkloadConfig {
            mix: mix.unwrap(),
            ..cfg.clone()
        };
        out.push(cell.mix(&dev, p, index, &cfg, scale.ops, false).unwrap().0);
    }
    out
}

pub fn run(scale: &Scale) -> Vec<ExperimentRow> {
    let columns: Vec<String> = roster(Geometry::Figure)
        .into_iter()
        .map(|t| t.name)
        .collect();
    let results: Vec<Vec<PhaseResult>> = (0..columns.len())
        .map(|series| run_one(scale, 10, series, ValueSize::Inline))
        .collect();
    let threads = scale.max_threads();
    let mut rows = Vec::new();
    let mut out = Vec::new();
    for (p, (label, _)) in PHASES.iter().enumerate() {
        for (name, r) in columns.iter().zip(&results) {
            out.push(ExperimentRow::from_phase(
                "fig10",
                name,
                "inline",
                label,
                "mops",
                r[p].mops(),
                threads,
                &r[p],
            ));
        }
        rows.push((
            label.to_string(),
            results.iter().map(|r| r[p].mops()).collect(),
        ));
    }
    print_table(
        "Fig 10: YCSB, inlined KV, zipfian 0.99",
        &columns,
        &rows,
        "Mops/s (virtual time)",
    );
    out
}
