//! Fig. 9 — load factor vs number of inserted key-value entries
//! (paper §VI-B).
//!
//! Expected shape: Spash tracks Dash/Level closely with gentle sawtooth
//! (fine-grained on-demand splits); CCEH sits lowest (16-slot probe
//! windows force early splits); Level/Dash fluctuate more (coarse
//! resizes); Plush is low and spiky (16× level allocations).


use spash_workloads::{load_keys, Distribution, Mix, ValueSize, WorkloadConfig};

use crate::harness::{print_table, Scale};
use crate::indexes::{bench_device, build_index, IndexKind};
use crate::report::ExperimentRow;

/// Load factors sampled at `samples` evenly spaced checkpoints.
pub fn run_one(scale: &Scale, kind: IndexKind, samples: usize) -> Vec<f64> {
    let dev = bench_device(scale.keys, 16);
    let idx = build_index(&dev, kind);
    let mut ctx = dev.ctx();
    let cfg = WorkloadConfig::new(
        scale.keys,
        Distribution::Uniform,
        Mix::SEARCH_ONLY,
        ValueSize::Inline,
    );
    let keys = load_keys(&cfg);
    let step = (keys.len() / samples).max(1);
    let mut out = Vec::with_capacity(samples);
    for (i, &k) in keys.iter().enumerate() {
        idx.insert(&mut ctx, k, &k.to_le_bytes()[..6]).unwrap();
        if (i + 1) % step == 0 {
            out.push(idx.load_factor());
        }
    }
    out.truncate(samples);
    out
}

pub fn run(scale: &Scale) -> Vec<ExperimentRow> {
    let samples = 10;
    let kinds = [
        IndexKind::Spash,
        IndexKind::Cceh,
        IndexKind::Dash,
        IndexKind::Level,
        IndexKind::CLevel,
        IndexKind::Plush,
    ];
    let columns: Vec<String> = kinds.iter().map(|k| k.label().to_string()).collect();
    let series: Vec<Vec<f64>> = kinds.iter().map(|&k| run_one(scale, k, samples)).collect();
    let mut rows = Vec::new();
    let mut out = Vec::new();
    for s in 0..samples {
        let frac = (s + 1) as f64 / samples as f64;
        for (kind, v) in kinds.iter().zip(&series) {
            out.push(ExperimentRow::from_value(
                "fig9",
                kind.label(),
                &format!("{:.0}pct", frac * 100.0),
                "load",
                "load_factor",
                v.get(s).copied().unwrap_or(0.0),
            ));
        }
        rows.push((
            format!("{:>3.0}% inserted", frac * 100.0),
            series.iter().map(|v| v.get(s).copied().unwrap_or(0.0)).collect(),
        ));
    }
    print_table("Fig 9: load factor while inserting", &columns, &rows, "load factor");
    out
}
