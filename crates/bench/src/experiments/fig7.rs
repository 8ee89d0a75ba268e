//! Fig. 7 — micro-benchmark throughput of each base operation
//! (insert / search / update / delete), uniform distribution, inline
//! key-values, swept over thread counts (paper §VI-B).
//!
//! Expected shape: Spash on top everywhere; the pipeline roughly doubles
//! search throughput; Level/CLevel collapse on inserts (full-table
//! rehash); CCEH and Level reads trail badly (PM read-locks).

use spash_workloads::{load_keys, Distribution, Mix, ValueSize, WorkloadConfig};

use crate::experiments::{my_chunk, Cell};
use crate::harness::{print_table, PhaseResult, Scale};
use crate::indexes::{bench_device, build_index, IndexKind};
use crate::report::ExperimentRow;

/// One index, one thread count: returns (insert, search, update, delete)
/// results.
pub fn run_one(scale: &Scale, kind: IndexKind, threads: usize) -> [PhaseResult; 4] {
    let dev = bench_device(scale.keys, 16);
    let idx = build_index(&dev, kind);
    let index = idx.as_ref();
    let cfg = WorkloadConfig::new(
        scale.keys,
        Distribution::Uniform,
        Mix::SEARCH_ONLY,
        ValueSize::Inline,
    );
    let keys = load_keys(&cfg);
    let cell = Cell::new(7, kind as usize, threads, threads);

    // Insert phase: the load itself, partitioned over threads.
    let insert = cell.load(&dev, 0, index, &cfg);
    let search = cell.mix(&dev, 1, index, &cfg, scale.ops);
    let ucfg = WorkloadConfig {
        mix: Mix::UPDATE_ONLY,
        ..cfg.clone()
    };
    let update = cell.mix(&dev, 2, index, &ucfg, scale.ops);

    // Delete phase: each thread deletes its own loaded keys (each key
    // exactly once).
    let delete = cell.tasks(&dev, 3, |tid, ctx| {
        let mine = my_chunk(&keys, threads, tid);
        let n = (mine.len() as u64).min(scale.ops / threads as u64 + 1);
        for &k in &mine[..n as usize] {
            assert!(index.remove(ctx, k), "{}: delete of loaded key {k}", index.name());
        }
        n
    });

    [insert, search, update, delete]
}

/// The full Fig 7 sweep: four tables (one per operation), rows = indexes,
/// columns = thread counts.
pub fn run(scale: &Scale) -> Vec<ExperimentRow> {
    let ops = ["(b) insert", "(a) search", "(c) update", "(d) delete"];
    let phases = ["insert", "search", "update", "delete"];
    let columns: Vec<String> = scale.threads.iter().map(|t| format!("{t} thr")).collect();
    let mut tables: [Vec<(String, Vec<f64>)>; 4] = Default::default();
    let mut out = Vec::new();
    for kind in IndexKind::MICRO {
        let mut series: [Vec<f64>; 4] = Default::default();
        for &t in &scale.threads {
            let rs = run_one(scale, kind, t);
            for (i, r) in rs.iter().enumerate() {
                series[i].push(r.mops());
                out.push(ExperimentRow::from_phase(
                    "fig7",
                    kind.label(),
                    &format!("{t}thr"),
                    phases[i],
                    "mops",
                    r.mops(),
                    t,
                    r,
                ));
            }
        }
        for i in 0..4 {
            tables[i].push((kind.label().to_string(), std::mem::take(&mut series[i])));
        }
    }
    for (i, t) in tables.iter().enumerate() {
        print_table(
            &format!("Fig 7{}: micro throughput, uniform, inline KV", ops[i]),
            &columns,
            t,
            "Mops/s (virtual time)",
        );
    }
    out
}
