//! Fig. 8 — average cacheline and XPLine accesses to PM per hash
//! operation (paper §VI-B, measured there with ipmctl; here with the
//! media model's counters).
//!
//! The headline numbers the paper reports for Spash: search ≈ 1.1
//! cacheline / 1.0 XPLine reads; update/delete ≈ 1.0/1.0 writes; insert ≈
//! 2.0 cachelines but only ≈ 1.1 XPLines written (split writes coalesce
//! within XPLine-sized segments).

use spash_workloads::{load_keys, Distribution, Mix, ValueSize, WorkloadConfig};

use crate::experiments::{my_chunk, Cell};
use crate::harness::{print_table, PhaseResult, Scale};
use crate::indexes::{bench_device, build_index, IndexKind};
use crate::report::ExperimentRow;

pub struct AccessCounts {
    pub insert: PhaseResult,
    pub search: PhaseResult,
    pub update: PhaseResult,
    pub delete: PhaseResult,
}

pub fn run_one(scale: &Scale, kind: IndexKind) -> AccessCounts {
    let threads = scale.max_threads();
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
    let cell = Cell::new(8, kind as usize, 0, threads);

    let insert = cell.load(&dev, 0, index, &cfg);
    // Evict everything so steady-state (cold) access counts are measured,
    // like the paper's 20M-key working set exceeding the LLC.
    dev.invalidate_cache();
    let search = cell.mix(&dev, 1, index, &cfg, scale.ops);
    dev.invalidate_cache();
    let ucfg = WorkloadConfig {
        mix: Mix::UPDATE_ONLY,
        ..cfg.clone()
    };
    let update = cell.mix(&dev, 2, index, &ucfg, scale.ops);
    dev.invalidate_cache();
    let delete = cell.tasks(&dev, 3, |tid, ctx| {
        let mine = my_chunk(&keys, threads, tid);
        for &k in mine {
            index.remove(ctx, k);
        }
        mine.len() as u64
    });
    AccessCounts {
        insert,
        search,
        update,
        delete,
    }
}

/// Full Fig 8: for every index, the per-op cacheline/XPLine read+write
/// counts for each operation. For write phases the cache is flushed into
/// the delta so in-cache dirty data is accounted.
pub fn run(scale: &Scale) -> Vec<ExperimentRow> {
    let columns = vec![
        "CL rd".into(),
        "CL wr".into(),
        "XP rd".into(),
        "XP wr".into(),
    ];
    let counts: Vec<(IndexKind, AccessCounts)> = IndexKind::MICRO
        .into_iter()
        .map(|k| (k, run_one(scale, k)))
        .collect();
    let mut out = Vec::new();
    for (name, pick) in [
        ("search", 1usize),
        ("insert", 0),
        ("update", 2),
        ("delete", 3),
    ] {
        let mut rows = Vec::new();
        for (kind, c) in &counts {
            let r = match pick {
                0 => &c.insert,
                1 => &c.search,
                2 => &c.update,
                _ => &c.delete,
            };
            let threads = scale.max_threads();
            out.push(ExperimentRow::from_phase(
                "fig8",
                kind.label(),
                &format!("{threads}thr"),
                name,
                "mops",
                r.mops(),
                threads,
                r,
            ));
            rows.push((
                kind.label().to_string(),
                vec![
                    r.per_op(r.delta.cl_reads),
                    r.per_op(r.delta.cl_writes + r.delta.ntstores),
                    r.per_op(r.delta.xp_reads),
                    r.per_op(r.delta.xp_writes),
                ],
            ));
        }
        print_table(
            &format!("Fig 8: PM accesses per {name} operation"),
            &columns,
            &rows,
            "accesses/op",
        );
    }
    out
}
