//! Every name the benchmark prints. `BENCHMARK.json` at the repository
//! root lists the same names, units and directions; `tests/smoke.rs`
//! checks the two against each other and against a real run.

/// Which clock a number is read from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Host time or memory of the simulator: noisy; see README.md for how
    /// it is estimated.
    Host,
    /// Simulated time: repeats exactly for a given seed.
    Virtual,
    /// A count made by the program: repeats exactly for a given seed.
    Count,
}

impl Clock {
    pub fn label(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Virtual => "virtual",
            Clock::Count => "count",
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub clock: Clock,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str, clock: Clock) -> Metric {
    Metric {
        name,
        unit,
        better,
        clock,
    }
}

pub const WORKLOADS: [&str; 4] = ["point-uniform", "write-churn", "scale-zipf", "service-open"];

use Clock::{Count, Host, Virtual};

/// End-to-end metrics, defined on every workload.
pub const END_TO_END: [Metric; 12] = [
    m("setup_s", "s", "lower", Host),
    m("host_ops_per_s", "ops/s", "higher", Host),
    m("host_ns_per_op", "ns", "lower", Host),
    m("virt_mops", "Mops", "higher", Virtual),
    m("virt_ack_p50_ns", "ns", "lower", Virtual),
    m("virt_ack_p999_ns", "ns", "lower", Virtual),
    m("pm_cl_per_op", "lines", "lower", Count),
    m("pm_media_bytes_per_op", "B", "lower", Count),
    m("pm_bytes_per_user_byte", "ratio", "lower", Count),
    m("load_factor", "ratio", "higher", Count),
    m("recover_virt_ms", "ms", "lower", Virtual),
    m("peak_rss_mb", "MB", "lower", Host),
];

/// Per-layer metrics (layer = crate name), from the traced run. A metric
/// whose layer does no work on a workload reads 0 there.
pub const PER_LAYER: [Metric; 75] = [
    m("workloads.gen_host_ns_per_op", "ns", "lower", Host),
    m("workloads.gen_host_share", "ratio", "lower", Host),
    m("index-api.hash_host_ns", "ns", "lower", Host),
    m("index-api.batch_ops_mean", "ops", "higher", Count),
    m("core.host_ns_per_op", "ns", "lower", Host),
    m("core.virt_ns_per_op", "ns", "lower", Virtual),
    m("core.probe_cl_per_get", "lines", "lower", Count),
    m("core.probe_virt_ns_per_get", "ns", "lower", Virtual),
    m("core.split_per_kop", "1/kop", "lower", Count),
    m("core.split_virt_share", "ratio", "lower", Virtual),
    m("core.split_cl_writes_per_split", "lines", "lower", Count),
    m("core.compaction_per_kop", "1/kop", "lower", Count),
    m("core.compaction_virt_share", "ratio", "lower", Virtual),
    m("core.fallback_per_kop", "1/kop", "lower", Count),
    m("core.dir_assist_per_kop", "1/kop", "lower", Count),
    m("core.dir_await_per_kop", "1/kop", "lower", Count),
    m("core.load_factor", "ratio", "higher", Count),
    m("core.recover_host_s", "s", "lower", Host),
    m("htm.commits_per_op", "1/op", "lower", Count),
    m("htm.useful_ratio", "ratio", "higher", Count),
    m("htm.conflict_aborts_per_kop", "1/kop", "lower", Count),
    m("htm.explicit_aborts_per_kop", "1/kop", "lower", Count),
    m("htm.capacity_aborts_per_kop", "1/kop", "lower", Count),
    m("htm.nontx_locks_per_kop", "1/kop", "lower", Count),
    m("htm.host_ns_per_tx", "ns", "lower", Host),
    m("htm.virt_ns_per_tx", "ns", "lower", Virtual),
    m("htm.host_share_est", "ratio", "lower", Host),
    m("pmem.accesses_per_op", "1/op", "lower", Count),
    m("pmem.cache_hit_ratio", "ratio", "higher", Count),
    m("pmem.cl_reads_per_op", "lines", "lower", Count),
    m("pmem.cl_writes_per_op", "lines", "lower", Count),
    m("pmem.xp_reads_per_op", "xplines", "lower", Count),
    m("pmem.xp_writes_per_op", "xplines", "lower", Count),
    m("pmem.write_amp", "ratio", "lower", Count),
    m("pmem.dirty_evictions_per_op", "1/op", "lower", Count),
    m("pmem.flushes_per_op", "1/op", "lower", Count),
    m("pmem.ntstores_per_op", "1/op", "lower", Count),
    m("pmem.dram_accesses_per_op", "1/op", "lower", Count),
    m("pmem.media_read_bytes_per_op", "B", "lower", Count),
    m("pmem.media_write_bytes_per_op", "B", "lower", Count),
    m("pmem.bw_floor_share", "ratio", "lower", Virtual),
    m("pmem.host_ns_per_read_hit", "ns", "lower", Host),
    m("pmem.host_ns_per_read_miss", "ns", "lower", Host),
    m("pmem.host_ns_per_write_hit", "ns", "lower", Host),
    m("pmem.host_ns_per_flush_fence", "ns", "lower", Host),
    m("pmem.host_share_est", "ratio", "lower", Host),
    m("alloc.live_bytes_per_key", "B", "lower", Count),
    m("alloc.small_slots_live", "count", "lower", Count),
    m("alloc.frontier_chunks", "count", "lower", Count),
    m("alloc.host_ns_per_alloc_free", "ns", "lower", Host),
    m("alloc.virt_ns_per_alloc_free", "ns", "lower", Virtual),
    m("sched.decisions_per_kop", "1/kop", "lower", Count),
    m("sched.host_overhead_ns_per_op", "ns", "lower", Host),
    m("sched.task_clock_skew", "ratio", "lower", Virtual),
    m("sched.virt_mops_t1", "Mops", "higher", Virtual),
    m("sched.virt_scaling_t8_over_t1", "ratio", "higher", Virtual),
    m("service.max_rate_mops", "Mops", "higher", Virtual),
    m("service.enqueue_host_ns_per_req", "ns", "lower", Host),
    m("service.host_self_ns_per_req", "ns", "lower", Host),
    m("service.batch_size_mean", "ops", "higher", Count),
    m("service.fences_per_req", "1/op", "lower", Count),
    m("service.misroutes", "count", "lower", Count),
    m("service.queue_wait_virt_p50_ns", "ns", "lower", Virtual),
    m("service.queue_wait_virt_p999_ns", "ns", "lower", Virtual),
    m("service.exec_virt_ns_per_batch", "ns", "lower", Virtual),
    m("service.index_virt_ns_per_batch", "ns", "lower", Virtual),
    m("service.self_virt_ns_per_batch", "ns", "lower", Virtual),
    m(
        "service.journal_virt_ns_per_publish",
        "ns",
        "lower",
        Virtual,
    ),
    m("service.journal_host_ns_per_publish", "ns", "lower", Host),
    m("service.shard_load_imbalance", "ratio", "lower", Count),
    m("service.shard_p999_ratio", "ratio", "lower", Virtual),
    m("service.pool_free_min", "count", "higher", Count),
    m("service.latency_residual_ns", "ns", "lower", Virtual),
    m("trace.overhead_share", "ratio", "lower", Host),
    m("trace.span_count", "count", "lower", Count),
];

/// End-to-end metrics that exist on one workload only. They are printed
/// and written to `results.json` under these names, but the driver
/// contract wants every end-to-end metric on every workload, so in
/// `BENCHMARK.json` they appear as the per-layer rows named on the right.
pub const WORKLOAD_SPECIFIC: [(&str, &str, &str, &str); 2] = [
    (
        "svc_max_rate_mops",
        "Mops",
        "service-open",
        "service.max_rate_mops",
    ),
    (
        "virt_scaling_t8_over_t1",
        "ratio",
        "scale-zipf",
        "sched.virt_scaling_t8_over_t1",
    ),
];
