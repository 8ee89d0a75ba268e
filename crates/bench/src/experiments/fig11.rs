//! Fig. 11 — YCSB throughput with variable-sized values (paper §VI-C:
//! 16-byte keys, values 16–1024 B, out-of-place for the extended
//! baselines).
//!
//! Expected shape: Spash's load-phase lead peaks for small values
//! (compacted-flush fills XPLines; the baselines' scattered out-of-place
//! blobs amplify writes); in the write-intensive run phase adaptive
//! in-place updates win and the hybrid flush policy keeps the >64 B gap.

use spash_workloads::ValueSize;

use crate::experiments::fig10;
use crate::harness::{print_table, PhaseResult, Scale};
use crate::indexes::IndexKind;
use crate::report::ExperimentRow;

pub const VALUE_SIZES: [usize; 4] = [16, 64, 256, 1024];

pub fn run(scale: &Scale) -> Vec<ExperimentRow> {
    let kinds = IndexKind::ALL;
    let columns: Vec<String> = kinds.iter().map(|k| k.label().to_string()).collect();
    // results[size][kind] -> phases
    let results: Vec<Vec<Vec<PhaseResult>>> = VALUE_SIZES
        .iter()
        .map(|&vs| {
            kinds
                .iter()
                .map(|&k| fig10::run_one(scale, 11, k, ValueSize::Fixed(vs)))
                .collect()
        })
        .collect();
    let threads = scale.max_threads();
    let mut out = Vec::new();
    for (p, (label, _)) in fig10::PHASES.iter().enumerate() {
        let mut rows = Vec::new();
        for (si, &vs) in VALUE_SIZES.iter().enumerate() {
            for (kind, r) in kinds.iter().zip(&results[si]) {
                out.push(ExperimentRow::from_phase(
                    "fig11",
                    kind.label(),
                    &format!("{vs}B"),
                    label,
                    "mops",
                    r[p].mops(),
                    threads,
                    &r[p],
                ));
            }
            rows.push((
                format!("value {vs} B"),
                results[si].iter().map(|r| r[p].mops()).collect(),
            ));
        }
        print_table(
            &format!("Fig 11 [{label}]: YCSB, variable-size values"),
            &columns,
            &rows,
            "Mops/s (virtual time)",
        );
    }
    out
}
