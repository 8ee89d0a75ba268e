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
use crate::indexes::{bench_device, build_index, IndexKind};
use crate::report::ExperimentRow;

pub const PHASES: [(&str, Option<Mix>); 4] = [
    ("Load", None),
    ("Read-int 90:10", Some(Mix::READ_INTENSIVE)),
    ("Balanced 50:50", Some(Mix::BALANCED)),
    ("Write-int 10:90", Some(Mix::WRITE_INTENSIVE)),
];

/// One index through all four phases at the top thread count, as a cell
/// of `figure` (Fig 11 runs the same phases per value size).
pub fn run_one(scale: &Scale, figure: u8, kind: IndexKind, value: ValueSize) -> Vec<PhaseResult> {
    let (point, vbytes) = match value {
        ValueSize::Inline => (0, 16),
        ValueSize::Fixed(n) => (n, n as u64),
    };
    let cell = Cell::new(figure, kind as usize, point, scale.max_threads());
    let dev = bench_device(scale.keys, vbytes);
    let idx = build_index(&dev, kind);
    let index = idx.as_ref();
    let cfg = WorkloadConfig::new(scale.keys, Distribution::Zipfian, Mix::BALANCED, value);
    let mut out = Vec::with_capacity(PHASES.len());

    out.push(cell.load(&dev, 0, index, &cfg));
    for (p, (_, mix)) in PHASES.iter().enumerate().skip(1) {
        let cfg = WorkloadConfig {
            mix: mix.unwrap(),
            ..cfg.clone()
        };
        out.push(cell.mix(&dev, p, index, &cfg, scale.ops));
    }
    out
}

pub fn run(scale: &Scale) -> Vec<ExperimentRow> {
    let kinds = IndexKind::ALL;
    let columns: Vec<String> = kinds.iter().map(|k| k.label().to_string()).collect();
    let results: Vec<Vec<PhaseResult>> = kinds
        .iter()
        .map(|&k| run_one(scale, 10, k, ValueSize::Inline))
        .collect();
    let threads = scale.max_threads();
    let mut rows = Vec::new();
    let mut out = Vec::new();
    for (p, (label, _)) in PHASES.iter().enumerate() {
        for (kind, r) in kinds.iter().zip(&results) {
            out.push(ExperimentRow::from_phase(
                "fig10",
                kind.label(),
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
