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
use crate::indexes::{bench_device, micro, roster, Geometry};
use crate::report::ExperimentRow;

/// One index (the figure roster's member `series`), one thread count:
/// returns (insert, search, update, delete) results.
pub fn run_one(scale: &Scale, series: usize, threads: usize) -> [PhaseResult; 4] {
    let dev = bench_device(scale.keys, 16);
    let idx = (roster(Geometry::Figure)[series].format)(&mut dev.ctx());
    let index = idx.as_ref();
    let cfg = WorkloadConfig::new(
        scale.keys,
        Distribution::Uniform,
        Mix::SEARCH_ONLY,
        ValueSize::Inline,
    );
    let keys = load_keys(&cfg);
    let cell = Cell::figure(7, series, threads, threads);

    // Insert phase: the load itself, partitioned over threads.
    let insert = cell.load(&dev, 0, index, &cfg).unwrap().0;
    let search = cell.mix(&dev, 1, index, &cfg, scale.ops, false).unwrap().0;
    let ucfg = WorkloadConfig {
        mix: Mix::UPDATE_ONLY,
        ..cfg.clone()
    };
    let update = cell.mix(&dev, 2, index, &ucfg, scale.ops, false).unwrap().0;

    // Delete phase: each thread deletes its own loaded keys (each key
    // exactly once).
    let (delete, _) = cell
        .tasks(&dev, 3, |tid, ctx| {
            let mine = my_chunk(&keys, threads, tid);
            let n = (mine.len() as u64).min(scale.ops / threads as u64 + 1);
            for &k in &mine[..n as usize] {
                assert!(
                    index.remove(ctx, k),
                    "{}: delete of loaded key {k}",
                    index.name()
                );
            }
            n
        })
        .unwrap();

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
    for (series, target) in micro() {
        let mut mops: [Vec<f64>; 4] = Default::default();
        for &t in &scale.threads {
            let rs = run_one(scale, series, t);
            for (i, r) in rs.iter().enumerate() {
                mops[i].push(r.mops());
                out.push(ExperimentRow::from_phase(
                    "fig7",
                    &target.name,
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
            tables[i].push((target.name.clone(), std::mem::take(&mut mops[i])));
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
