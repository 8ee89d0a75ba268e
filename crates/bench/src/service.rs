//! `spash-bench service`: the sharded-batched-service suite (DESIGN.md
//! §11, EXPERIMENTS.md "Service tail latency").
//!
//! Each cell runs one index behind the `spash-service` front-end at one
//! persistence domain and shard count, entirely in virtual time under
//! the cooperative scheduler:
//!
//! * **load** — every key arrives at t=0 as an insert request; shard
//!   executors drain their queues at full tilt (batch formation pressure
//!   is maximal).
//! * **open** — an open-loop run: a zipfian balanced mix whose requests
//!   carry arrival times from `spash_workloads::openloop` (a 2²⁰-session
//!   population at the configured mean gap). Executors idle until the
//!   next arrival is due, so queueing delay is real and the p50/p99/p999
//!   rows are true open-loop tail latency, bit-deterministic per seed.
//! * **saturate** — the same mix with every arrival at t=0: the
//!   service's saturation throughput at this shard count.
//!
//! Two hard gates ride on every cell: the routing audit (any request
//! observed off its canonical shard is an error — the misroute canary
//! trips this, not the lin-check) and ack conservation (every enqueued
//! request is acked exactly once; `sum(per-shard acked) == enqueued`).
//! The report is byte-identical across same-seed runs and compared
//! exactly against `bench/baseline_service.json` in CI (`service-gate`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use spash_index_api::crashpoint::{CrashTarget, SweepOp};
use spash_index_api::PersistentIndex;
use spash_pmem::{MemCtx, PersistenceDomain, PmDevice};
use spash_service::lincheck::{self, ServiceLinConfig};
use spash_service::pool::BatchPool;
use spash_service::{BatchReplies, ClientReq, JournalSpec, Service, ServiceConfig};
use spash_workloads::openloop::{ArrivalGen, OpenLoopConfig};
use spash_workloads::{load_keys, Distribution, Mix, OpStream, ValueSize, WorkloadConfig};

use crate::harness::{phase_sched, run_scheduled};
use crate::indexes::crash_targets;
use crate::knobs;
use crate::perf::{domain_label, short_rev, suite_pm};
use crate::report::{join_ladder, BenchReport, ExperimentRow};
use crate::statskit::percentile;

/// Suite scale. Small for the same reason `scale` is: batching and
/// queueing shapes show at any scale, and the gate's job is pinning
/// them exactly.
#[derive(Clone, Debug)]
pub struct ServiceSuiteConfig {
    /// Keys loaded per cell (load phase inserts; key space `1..=keys`).
    pub keys: u64,
    /// Client requests in each of the open and saturate phases.
    pub ops: u64,
    /// Shard-count ladder (executor tasks per cell).
    pub shards: Vec<usize>,
    /// Max requests coalesced under one batch fence.
    pub batch_max: usize,
    pub seed: u64,
    pub value_bytes: usize,
    pub preemptions: u32,
    /// Open-loop client session population.
    pub sessions: u64,
    /// Mean virtual inter-arrival gap of the open phase, ns.
    pub mean_gap_ns: u64,
}

impl ServiceSuiteConfig {
    /// The pinned CI configuration. Changing any of these invalidates
    /// the committed `bench/baseline_service.json` (compare fails on the
    /// config echo).
    pub fn default_suite() -> Self {
        Self {
            keys: 1_500,
            ops: 1_500,
            shards: vec![2, 4],
            batch_max: 8,
            seed: 0x5e41ce,
            value_bytes: 16,
            preemptions: 32,
            sessions: 1 << 20,
            mean_gap_ns: 150,
        }
    }

    /// Tiny variant for tier-1 tests.
    pub fn test_small() -> Self {
        Self {
            keys: 300,
            ops: 240,
            shards: vec![2],
            batch_max: 4,
            ..Self::default_suite()
        }
    }

    pub fn from_env() -> Self {
        let d = Self::default_suite();
        Self {
            keys: knobs::int("SPASH_SERVICE_KEYS", d.keys),
            ops: knobs::int("SPASH_SERVICE_OPS", d.ops),
            shards: knobs::list("SPASH_SERVICE_SHARDS", &d.shards),
            batch_max: knobs::positive("SPASH_SERVICE_BATCH", d.batch_max as u64) as usize,
            seed: knobs::int("SPASH_SERVICE_SEED", d.seed),
            value_bytes: d.value_bytes,
            preemptions: knobs::int("SPASH_SERVICE_PREEMPTIONS", d.preemptions as u64) as u32,
            sessions: d.sessions,
            mean_gap_ns: knobs::int("SPASH_SERVICE_GAP", d.mean_gap_ns),
        }
    }
}

/// One cell's rows plus the conservation totals behind them.
pub struct ServiceCellResult {
    pub rows: Vec<ExperimentRow>,
    /// Requests enqueued across all phases.
    pub enqueued: u64,
    /// `sum(per-shard acked)` at the end of the cell.
    pub acked: u64,
}

/// The shard-executor task bodies for one phase: drain every queue,
/// optionally collecting per-response latency, and surface the routing
/// audit. `t0` inside each body is the executor's phase-start clock (all
/// tasks start at the same raised floor, so latencies are comparable).
#[allow(clippy::type_complexity)]
fn shard_bodies<'a>(
    svc: &'a Service,
    shards: usize,
    misroutes: &'a AtomicU64,
    // lint:allow(std-sync): host-side latency sink; locked only inside
    // `deliver`, never held across a sync point.
    latencies: Option<&'a std::sync::Mutex<Vec<u64>>>,
) -> Vec<Box<dyn FnOnce(&mut MemCtx) -> u64 + Send + 'a>> {
    (0..shards)
        .map(|shard| {
            let b: Box<dyn FnOnce(&mut MemCtx) -> u64 + Send + 'a> = Box::new(move |ctx| {
                let t0 = ctx.now();
                let mut on_invoke = |_: &mut [ClientReq]| {};
                let mut deliver = |_ctx: &mut MemCtx, pool: &BatchPool, replies: BatchReplies| {
                    if let Some(lat) = latencies {
                        let mut l = lat.lock().unwrap();
                        for r in &replies.responses {
                            // Client-observed latency: enqueue-to-ack in
                            // virtual time (ack is post-fence).
                            l.push(r.ack_ns - t0 - r.arrival_ns);
                        }
                    }
                    replies.retire(pool);
                };
                let stats = svc.run_shard(ctx, shard, &mut on_invoke, &mut deliver);
                misroutes.fetch_add(stats.misroutes, Ordering::SeqCst);
                stats.ops
            });
            b
        })
        .collect()
}

/// Run one index at one domain and shard count: load, open-loop run,
/// saturation run, all against the same device and service instance.
pub fn run_cell(
    target: &CrashTarget,
    target_idx: usize,
    domain: PersistenceDomain,
    shards: usize,
    cfg: &ServiceSuiteConfig,
) -> Result<ServiceCellResult, String> {
    assert!(shards >= 1);
    let pm = suite_pm(domain);
    let dev = PmDevice::new(pm.clone());
    let mut fmt_ctx = dev.ctx();
    let index: Arc<dyn PersistentIndex> = Arc::from((target.format)(&mut fmt_ctx));
    drop(fmt_ctx);
    let svc = Service::new(
        index,
        ServiceConfig {
            shards,
            batch_max: cfg.batch_max,
            journal: JournalSpec::at_top(pm.arena_size, shards, 1024),
            pool_slots: shards + 1,
            pool_participants: 0,
        },
    );

    let didx = usize::from(domain == PersistenceDomain::Adr);
    let sched_for =
        |phase| phase_sched(cfg.seed, [target_idx, didx, shards], phase, cfg.preemptions);
    let point = format!("{}/s{}", domain_label(domain), shards);
    let name = target.name.clone();
    let fail = |phase: &str, e: String| format!("{name}/{point}/{phase}: {e}");

    let mut rows = Vec::new();
    let mut enqueued = 0u64;
    let misroutes = AtomicU64::new(0);
    let total_acked = |svc: &Service| (0..shards).map(|s| svc.acked(s)).sum::<u64>();

    let run_phase = |phase: &'static str,
                     pi: usize,
                     // lint:allow(std-sync): host-side latency sample buffer;
                     // never held across a sync point (same discipline as the
                     // lin drivers' history buffers).
                     latencies: Option<&std::sync::Mutex<Vec<u64>>>,
                     enqueued: u64,
                     rows: &mut Vec<ExperimentRow>|
     -> Result<(), String> {
        let bodies = shard_bodies(&svc, shards, &misroutes, latencies);
        let (r, per_task) = run_scheduled(&dev, &sched_for(pi), bodies).map_err(|e| fail(phase, e))?;
        if r.ops != per_task.iter().sum::<u64>() {
            return Err(fail(phase, "total ops != sum of per-shard ops".into()));
        }
        // Conservation: everything enqueued so far is acked exactly once.
        if total_acked(&svc) != enqueued {
            return Err(fail(
                phase,
                format!("acked {} of {} enqueued requests", total_acked(&svc), enqueued),
            ));
        }
        // The routing audit is a hard gate: a single misroute fails the
        // suite (the misroute canary is caught here, not by lin checks —
        // a consistent shift preserves per-key order).
        let mis = misroutes.load(Ordering::SeqCst);
        if mis != 0 {
            return Err(fail(phase, format!("{mis} misrouted request(s)")));
        }
        rows.push(ExperimentRow::from_phase(
            "service", &name, &point, phase, "mops", r.mops(), shards, &r,
        ));
        Ok(())
    };

    // Load: every key as an insert request, all arrived at t=0.
    let wl = |dist: Distribution| WorkloadConfig {
        seed: cfg.seed,
        ..WorkloadConfig::new(cfg.keys, dist, Mix::BALANCED, ValueSize::Fixed(cfg.value_bytes))
    };
    let load_cfg = wl(Distribution::Uniform);
    let keys = load_keys(&load_cfg);
    let mut vals = OpStream::new(&load_cfg, 0);
    for (i, &k) in keys.iter().enumerate() {
        svc.enqueue(ClientReq::new(i as u64, 0, SweepOp::Insert(k, vals.expected_value(k))));
        enqueued += 1;
    }
    run_phase("load", 0, None, enqueued, &mut rows)?;

    // Open-loop run: zipfian balanced mix, arrivals from the session
    // population at the configured mean gap.
    let run_cfg = wl(Distribution::Zipfian);
    let mut arrivals = ArrivalGen::new(OpenLoopConfig {
        sessions: cfg.sessions,
        mean_gap_ns: cfg.mean_gap_ns,
        seed: cfg.seed,
    });
    let to_req = |stream: &mut OpStream, arrival_ns: u64, session: u64| {
        ClientReq::new(session, arrival_ns, stream.next_op().into())
    };
    let mut stream = OpStream::new(&run_cfg, 1);
    for _ in 0..cfg.ops {
        let a = arrivals.next_arrival();
        svc.enqueue(to_req(&mut stream, a.at_ns, a.session));
        enqueued += 1;
    }
    // lint:allow(std-sync): host-side latency sink (see shard_bodies).
    let lat = std::sync::Mutex::new(Vec::<u64>::with_capacity(cfg.ops as usize));
    run_phase("open", 1, Some(&lat), enqueued, &mut rows)?;
    let mut lats = lat.into_inner().unwrap();
    if lats.len() as u64 != cfg.ops {
        return Err(fail("open", format!("{} latencies for {} requests", lats.len(), cfg.ops)));
    }
    lats.sort_unstable();
    for (ph, p) in [("p50", 0.50), ("p99", 0.99), ("p999", 0.999)] {
        let value = percentile(&lats, p);
        rows.push(ExperimentRow {
            threads: shards as u64,
            ops: lats.len() as u64,
            ..ExperimentRow::from_value("service", &name, &point, ph, "ns", value)
        });
    }

    // Saturation: the same mix with every arrival at t=0 — the service
    // drains as fast as batching allows at this shard count.
    let mut stream = OpStream::new(&run_cfg, 2);
    for i in 0..cfg.ops {
        svc.enqueue(to_req(&mut stream, 0, i));
        enqueued += 1;
    }
    run_phase("saturate", 2, None, enqueued, &mut rows)?;

    Ok(ServiceCellResult {
        rows,
        enqueued,
        acked: total_acked(&svc),
    })
}

/// Run the full suite: every index × {eADR, ADR} × shard ladder. The
/// report is byte-identical across same-seed runs.
pub fn run_suite(cfg: &ServiceSuiteConfig) -> Result<BenchReport, String> {
    let mut report = BenchReport::new(&short_rev());
    report.set_config("suite", "service");
    report.set_config("keys", cfg.keys);
    report.set_config("ops", cfg.ops);
    report.set_config("shards", join_ladder(&cfg.shards));
    report.set_config("batch_max", cfg.batch_max);
    report.set_config("seed", format!("{:#x}", cfg.seed));
    report.set_config("value_bytes", cfg.value_bytes);
    report.set_config("preemptions", cfg.preemptions);
    report.set_config("sessions", cfg.sessions);
    report.set_config("mean_gap_ns", cfg.mean_gap_ns);

    for (ti, target) in crash_targets().iter().enumerate() {
        for domain in [PersistenceDomain::Eadr, PersistenceDomain::Adr] {
            for &shards in &cfg.shards {
                let cell = run_cell(target, ti, domain, shards, cfg)?;
                if cell.acked != cell.enqueued {
                    return Err(format!(
                        "{}/{}/s{shards}: acked {} of {} enqueued",
                        target.name,
                        domain_label(domain),
                        cell.acked,
                        cell.enqueued
                    ));
                }
                report.rows.extend(cell.rows);
            }
            println!(
                "# service: {} [{}] done ({} shard points)",
                target.name,
                domain_label(domain),
                cfg.shards.len()
            );
        }
    }
    Ok(report)
}

/// `spash-bench service --lin-check`: the batched front-end over every
/// index × `schedules` seeds, Wing–Gong-checked. Returns failure
/// messages (empty = pass).
pub fn lin_check_all(cfg: &ServiceLinConfig) -> Vec<String> {
    let mut failures = Vec::new();
    for target in crash_targets() {
        for s in 0..cfg.schedules {
            match lincheck::lin_check_target(&target, cfg, cfg.seed.wrapping_add(s)) {
                Ok(n) => println!(
                    "# service lin-check: {} seed {s}: {n} ops linearize through the batch path",
                    target.name
                ),
                Err(e) => failures.push(format!("{} seed {s}: {e}", target.name)),
            }
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_cell_has_all_phases_and_conserves_acks() {
        let cfg = ServiceSuiteConfig::test_small();
        let target = &crash_targets()[0];
        let cell = run_cell(target, 0, PersistenceDomain::Eadr, 2, &cfg).unwrap();
        // load + open + 3 percentiles + saturate.
        assert_eq!(cell.rows.len(), 6);
        assert_eq!(cell.enqueued, cfg.keys + 2 * cfg.ops);
        assert_eq!(cell.acked, cell.enqueued);
        let phases: Vec<&str> = cell.rows.iter().map(|r| r.phase.as_str()).collect();
        assert_eq!(phases, ["load", "open", "p50", "p99", "p999", "saturate"]);
        for r in &cell.rows {
            assert_eq!(r.threads, 2);
        }
        // Tail ordering: p50 <= p99 <= p999, and the open loop really
        // queued (positive latencies).
        let p: Vec<f64> = cell.rows[1..5].iter().map(|r| r.value).collect();
        assert!(p[1] <= p[2] && p[2] <= p[3], "percentiles out of order: {p:?}");
        assert!(p[3] > 0.0, "zero p999 under an open loop");
    }

    #[test]
    fn service_lin_check_passes_for_spash() {
        let cfg = ServiceLinConfig {
            schedules: 2,
            ..ServiceLinConfig::default()
        };
        let target = &crash_targets()[0];
        for s in 0..cfg.schedules {
            let n = lincheck::lin_check_target(target, &cfg, cfg.seed + s).unwrap();
            assert_eq!(n as u64, cfg.ops);
        }
    }
}
