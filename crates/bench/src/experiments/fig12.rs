//! Fig. 12 — the in-depth analysis of each design component (paper
//! §VI-D): (a) adaptive in-place update, (b) compacted-flush insertion,
//! (c) HTM-based concurrency control, (d) pipeline depth.

use std::sync::Arc;

use spash::{OracleDetector, SpashConfig, UpdatePolicy};
use spash_workloads::{Distribution, Mix, ValueSize, WorkloadConfig};

use crate::experiments::Cell;
use crate::harness::{print_table, Scale};
use crate::indexes::{ablation_config, bench_device, build_spash_variant};
use crate::report::ExperimentRow;

/// (a) Adaptive in-place update: update-only zipfian workloads across
/// value sizes, for the four update policies (Table I ablation). Reports
/// both throughput and the PM write traffic each policy generated — the
/// traffic is the mechanism (hot updates absorbed by the cache vs flushed
/// repeatedly vs amplified by random eviction).
pub fn run_a(scale: &Scale) -> Vec<ExperimentRow> {
    let mut out = Vec::new();
    let threads = scale.max_threads();
    let sizes = [16usize, 64, 256, 1024];
    let variants = ["adaptive", "always-flush", "never-flush", "oracle"];
    let columns: Vec<String> = variants.iter().map(|s| s.to_string()).collect();
    let mut rows = Vec::new();
    let mut traffic_rows = Vec::new();
    for vs in sizes {
        let mut vals = Vec::new();
        let mut traffic = Vec::new();
        for (series, &var) in variants.iter().enumerate() {
            let cell = Cell::new(120, series, vs, threads);
            let wcfg = WorkloadConfig::new(
                scale.keys,
                Distribution::Zipfian,
                Mix::UPDATE_ONLY,
                ValueSize::Fixed(vs),
            );
            let cfg = if var == "oracle" {
                SpashConfig {
                    update_policy: UpdatePolicy::Adaptive(Arc::new(OracleDetector::new(
                        wcfg.hot_set_hashes(0.01),
                    ))),
                    ..SpashConfig::default()
                }
            } else {
                ablation_config(var)
            };
            let dev = bench_device(scale.keys, vs as u64);
            let idx = build_spash_variant(&dev, cfg);
            cell.load(&dev, 0, idx.as_ref(), &wcfg);
            let r = cell.mix(&dev, 1, idx.as_ref(), &wcfg, scale.ops);
            out.push(ExperimentRow::from_phase(
                "fig12a",
                var,
                &format!("{vs}B"),
                "update",
                "mops",
                r.mops(),
                threads,
                &r,
            ));
            vals.push(r.mops());
            traffic.push(r.delta.media_write_bytes as f64 / (1 << 20) as f64);
        }
        rows.push((format!("value {vs} B"), vals));
        traffic_rows.push((format!("value {vs} B"), traffic));
    }
    print_table(
        "Fig 12(a): adaptive in-place update (update-only, zipfian)",
        &columns,
        &rows,
        "Mops/s (virtual time)",
    );
    print_table(
        "Fig 12(a) mechanism: PM write traffic per policy",
        &columns,
        &traffic_rows,
        "MiB written to media",
    );
    out
}

/// (b) Compacted-flush insertion: insert-only uniform workloads with
/// small out-of-place values.
pub fn run_b(scale: &Scale) -> Vec<ExperimentRow> {
    let mut out = Vec::new();
    let threads = scale.max_threads();
    // Blob = 16 B header + value; the compacted (small-class) regime is
    // blob ≤ 128 B, i.e. values ≤ 112 B.
    let sizes = [16usize, 64, 112];
    let variants = ["compacted-flush", "compacted-noflush", "scattered"];
    let columns: Vec<String> = variants.iter().map(|s| s.to_string()).collect();
    let mut rows = Vec::new();
    let mut traffic_rows = Vec::new();
    for vs in sizes {
        let mut vals = Vec::new();
        let mut traffic = Vec::new();
        for (series, &var) in variants.iter().enumerate() {
            let cell = Cell::new(121, series, vs, threads);
            let wcfg = WorkloadConfig::new(
                scale.keys,
                Distribution::Uniform,
                Mix::SEARCH_ONLY,
                ValueSize::Fixed(vs),
            );
            let dev = bench_device(scale.keys, vs as u64);
            let idx = build_spash_variant(&dev, ablation_config(var));
            let r = cell.load(&dev, 0, idx.as_ref(), &wcfg);
            out.push(ExperimentRow::from_phase(
                "fig12b",
                var,
                &format!("{vs}B"),
                "load",
                "mops",
                r.mops(),
                threads,
                &r,
            ));
            vals.push(r.mops());
            traffic.push(r.delta.media_write_bytes as f64 / (1 << 20) as f64);
        }
        rows.push((format!("value {vs} B"), vals));
        traffic_rows.push((format!("value {vs} B"), traffic));
    }
    print_table(
        "Fig 12(b): compacted-flush insertion (insert-only, uniform)",
        &columns,
        &rows,
        "Mops/s (virtual time)",
    );
    print_table(
        "Fig 12(b) mechanism: PM write traffic per insert policy",
        &columns,
        &traffic_rows,
        "MiB written to media",
    );
    out
}

/// (c) HTM-based concurrency protocol vs per-segment lock variants, YCSB
/// mixes, zipfian, inline KV.
pub fn run_c(scale: &Scale) -> Vec<ExperimentRow> {
    let mut out = Vec::new();
    let threads = scale.max_threads();
    let variants = ["htm", "write-lock", "write-read-lock"];
    let mixes = [
        ("Read-int 90:10", Mix::READ_INTENSIVE),
        ("Balanced 50:50", Mix::BALANCED),
        ("Write-int 10:90", Mix::WRITE_INTENSIVE),
    ];
    let columns: Vec<String> = variants.iter().map(|s| s.to_string()).collect();
    let mut rows = Vec::new();
    for (point, (label, mix)) in mixes.into_iter().enumerate() {
        let mut vals = Vec::new();
        for (series, &var) in variants.iter().enumerate() {
            let cell = Cell::new(122, series, point, threads);
            let wcfg = WorkloadConfig::new(
                scale.keys,
                Distribution::Zipfian,
                mix,
                ValueSize::Inline,
            );
            let dev = bench_device(scale.keys, 16);
            let idx = build_spash_variant(&dev, ablation_config(var));
            cell.load(&dev, 0, idx.as_ref(), &wcfg);
            let r = cell.mix(&dev, 1, idx.as_ref(), &wcfg, scale.ops);
            out.push(ExperimentRow::from_phase(
                "fig12c",
                var,
                label,
                "run",
                "mops",
                r.mops(),
                threads,
                &r,
            ));
            vals.push(r.mops());
        }
        rows.push((label.to_string(), vals));
    }
    print_table(
        &format!("Fig 12(c): concurrency protocols at {threads} threads (YCSB, zipfian)"),
        &columns,
        &rows,
        "Mops/s (virtual time)",
    );
    out
}

/// (d) Pipeline depth: search-only throughput and mean operation latency
/// for PD ∈ {1,2,4,8} across thread counts.
pub fn run_d(scale: &Scale) -> Vec<ExperimentRow> {
    let mut out = Vec::new();
    let depths = [1usize, 2, 4, 8];
    let columns: Vec<String> = depths.iter().map(|d| format!("PD={d}")).collect();
    let mut tput_rows = Vec::new();
    let mut lat_rows = Vec::new();
    for &threads in &scale.threads {
        let mut tput = Vec::new();
        let mut lat = Vec::new();
        for &pd in &depths {
            let cell = Cell::new(123, pd, threads, threads);
            let wcfg = WorkloadConfig::new(
                scale.keys,
                Distribution::Zipfian,
                Mix::SEARCH_ONLY,
                ValueSize::Inline,
            );
            let dev = bench_device(scale.keys, 16);
            let idx = build_spash_variant(
                &dev,
                SpashConfig {
                    pipeline_depth: pd,
                    ..SpashConfig::default()
                },
            );
            cell.load(&dev, 0, idx.as_ref(), &wcfg);
            dev.invalidate_cache();
            let r = cell.mix(&dev, 1, idx.as_ref(), &wcfg, scale.ops);
            out.push(ExperimentRow::from_phase(
                "fig12d",
                &format!("PD{pd}"),
                &format!("{threads}thr"),
                "search",
                "mops",
                r.mops(),
                threads,
                &r,
            ));
            tput.push(r.mops());
            // Mean per-op latency in µs: thread-time × threads / ops.
            let us = r.elapsed_ns as f64 * threads as f64 / r.ops as f64 / 1e3;
            out.push(ExperimentRow::from_value(
                "fig12d",
                &format!("PD{pd}"),
                &format!("{threads}thr"),
                "latency",
                "us_per_op",
                us,
            ));
            lat.push(us);
        }
        tput_rows.push((format!("{threads} thr"), tput));
        lat_rows.push((format!("{threads} thr"), lat));
    }
    print_table(
        "Fig 12(d): pipeline depth — throughput (search-only)",
        &columns,
        &tput_rows,
        "Mops/s (virtual time)",
    );
    print_table(
        "Fig 12(d): pipeline depth — mean latency",
        &columns,
        &lat_rows,
        "µs/op (virtual time)",
    );
    out
}

pub fn run(scale: &Scale) -> Vec<ExperimentRow> {
    [run_a, run_b, run_c, run_d]
        .iter()
        .flat_map(|run| run(scale))
        .collect()
}
