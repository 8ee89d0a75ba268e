//! The per-layer ledger shared by all workloads: program counters over
//! the timed window, the benchmark's own spans, and microkernel unit
//! costs, turned into the `<layer>.<metric>` rows of `catalog::PER_LAYER`.
//! Workload-specific rows (`sched.*`, `service.*`) are added by the
//! workloads themselves.

use std::collections::BTreeMap;

use spash_pmem::{SPAN_COMPACTION, SPAN_PROBE, SPAN_SPLIT};

use crate::env::{Counters, Repeat};
use crate::micro::Micro;
use crate::trace::Totals;

pub struct LayerInputs<'a> {
    /// Program counter deltas over the timed window.
    pub window: &'a Counters,
    pub timed_ops: u64,
    pub timed_host_ns: u64,
    /// Sum of the timed phases' virtual elapsed time and bandwidth floors.
    pub elapsed_virt_ns: u64,
    pub bw_floor_ns: u64,
    /// Host time inside generator calls, and the ops they produced.
    pub gen_host_ns: u64,
    pub gen_ops: u64,
    pub totals: &'a BTreeMap<&'static str, Totals>,
    pub micro: &'a Micro,
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

pub fn fill(rep: &mut Repeat, i: &LayerInputs<'_>) {
    let ops = i.timed_ops as f64;
    let kops = ops / 1e3;
    let per_op = |v: u64| v as f64 / ops;
    let w = i.window;
    let s = &w.stats;

    // workloads
    rep.host.insert(
        "workloads.gen_host_ns_per_op",
        ratio(i.gen_host_ns as f64, i.gen_ops as f64),
    );
    rep.host.insert(
        "workloads.gen_host_share",
        ratio(
            i.gen_host_ns as f64,
            (i.gen_host_ns + i.timed_host_ns) as f64,
        ),
    );

    // index-api
    rep.host.insert("index-api.hash_host_ns", i.micro.hash_ns);
    let batch = i.totals.get("core.run_batch").copied().unwrap_or_default();
    rep.exact.insert(
        "index-api.batch_ops_mean",
        ratio(batch.ops as f64, batch.count as f64),
    );

    // core: every span the `Traced` adapter recorded.
    let core = i
        .totals
        .iter()
        .filter(|(n, _)| n.starts_with("core."))
        .fold(Totals::default(), |mut a, (_, t)| {
            a.clean_host_ns += t.clean_host_ns;
            a.clean_ops += t.clean_ops;
            a.virt_ns += t.virt_ns;
            a
        });
    rep.host
        .insert("core.host_ns_per_op", core.host_ns_per_op());
    rep.exact
        .insert("core.virt_ns_per_op", core.virt_ns as f64 / ops);
    let probe = w.span(SPAN_PROBE);
    rep.exact.insert(
        "core.probe_cl_per_get",
        ratio(
            (probe.stats.cl_reads + probe.stats.read_hits) as f64,
            probe.entries as f64,
        ),
    );
    rep.exact.insert(
        "core.probe_virt_ns_per_get",
        ratio(probe.vtime_ns as f64, probe.entries as f64),
    );
    let split = w.span(SPAN_SPLIT);
    rep.exact
        .insert("core.split_per_kop", split.entries as f64 / kops);
    rep.exact.insert(
        "core.split_virt_share",
        ratio(split.vtime_ns as f64, core.virt_ns as f64),
    );
    rep.exact.insert(
        "core.split_cl_writes_per_split",
        ratio(split.stats.cl_writes as f64, split.entries as f64),
    );
    let compaction = w.span(SPAN_COMPACTION);
    rep.exact
        .insert("core.compaction_per_kop", compaction.entries as f64 / kops);
    rep.exact.insert(
        "core.compaction_virt_share",
        ratio(compaction.vtime_ns as f64, core.virt_ns as f64),
    );
    rep.exact
        .insert("core.fallback_per_kop", w.fallbacks as f64 / kops);
    rep.exact
        .insert("core.dir_assist_per_kop", w.dir_assists as f64 / kops);
    rep.exact
        .insert("core.dir_await_per_kop", w.dir_awaits as f64 / kops);
    let lf = rep.exact["load_factor"];
    rep.exact.insert("core.load_factor", lf);

    // htm
    let h = &w.htm;
    let attempts = h.commits + h.conflict_aborts + h.capacity_aborts + h.explicit_aborts;
    rep.exact.insert("htm.commits_per_op", per_op(h.commits));
    rep.exact
        .insert("htm.useful_ratio", ratio(h.commits as f64, attempts as f64));
    rep.exact.insert(
        "htm.conflict_aborts_per_kop",
        h.conflict_aborts as f64 / kops,
    );
    rep.exact.insert(
        "htm.explicit_aborts_per_kop",
        h.explicit_aborts as f64 / kops,
    );
    rep.exact.insert(
        "htm.capacity_aborts_per_kop",
        h.capacity_aborts as f64 / kops,
    );
    rep.exact
        .insert("htm.nontx_locks_per_kop", h.nontx_locks as f64 / kops);
    rep.host.insert("htm.host_ns_per_tx", i.micro.tx_host_ns);
    rep.exact.insert("htm.virt_ns_per_tx", i.micro.tx_virt_ns);
    rep.host.insert(
        "htm.host_share_est",
        attempts as f64 * i.micro.tx_host_ns / i.timed_host_ns as f64,
    );

    // pmem
    let accesses = s.read_hits + s.write_hits + s.cl_reads;
    rep.exact.insert("pmem.accesses_per_op", per_op(accesses));
    rep.exact.insert(
        "pmem.cache_hit_ratio",
        ratio((s.read_hits + s.write_hits) as f64, accesses as f64),
    );
    rep.exact.insert("pmem.cl_reads_per_op", per_op(s.cl_reads));
    rep.exact
        .insert("pmem.cl_writes_per_op", per_op(s.cl_writes));
    rep.exact.insert("pmem.xp_reads_per_op", per_op(s.xp_reads));
    rep.exact
        .insert("pmem.xp_writes_per_op", per_op(s.xp_writes));
    rep.exact.insert("pmem.write_amp", s.write_amplification());
    rep.exact
        .insert("pmem.dirty_evictions_per_op", per_op(s.dirty_evictions));
    rep.exact.insert("pmem.flushes_per_op", per_op(s.flushes));
    rep.exact.insert("pmem.ntstores_per_op", per_op(s.ntstores));
    rep.exact
        .insert("pmem.dram_accesses_per_op", per_op(s.dram_accesses));
    rep.exact
        .insert("pmem.media_read_bytes_per_op", per_op(s.media_read_bytes));
    rep.exact
        .insert("pmem.media_write_bytes_per_op", per_op(s.media_write_bytes));
    rep.exact.insert(
        "pmem.bw_floor_share",
        ratio(i.bw_floor_ns as f64, i.elapsed_virt_ns as f64),
    );
    rep.host
        .insert("pmem.host_ns_per_read_hit", i.micro.read_hit_ns);
    rep.host
        .insert("pmem.host_ns_per_read_miss", i.micro.read_miss_ns);
    rep.host
        .insert("pmem.host_ns_per_write_hit", i.micro.write_hit_ns);
    rep.host
        .insert("pmem.host_ns_per_flush_fence", i.micro.flush_fence_ns);
    let pmem_host = s.read_hits as f64 * i.micro.read_hit_ns
        + s.cl_reads as f64 * i.micro.read_miss_ns
        + s.write_hits as f64 * i.micro.write_hit_ns
        + s.flushes as f64 * i.micro.flush_fence_ns;
    rep.host
        .insert("pmem.host_share_est", pmem_host / i.timed_host_ns as f64);

    // alloc (space rows are filled by `env::finish`)
    rep.host
        .insert("alloc.host_ns_per_alloc_free", i.micro.alloc_free_host_ns);
    rep.exact
        .insert("alloc.virt_ns_per_alloc_free", i.micro.alloc_free_virt_ns);

    // service (the unit cost exists on every workload; the rest is 0
    // unless the service ran)
    rep.host.insert(
        "service.journal_host_ns_per_publish",
        i.micro.publish_host_ns,
    );
}
