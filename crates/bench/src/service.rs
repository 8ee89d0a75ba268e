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
//! exactly against `bench/baseline_service.json` in CI (`suites-gate`).

use std::sync::atomic::{AtomicU64, Ordering};

use spash_index_api::crashpoint::SweepOp;
use spash_pmem::MemCtx;
use spash_service::lincheck::{self, ServiceLinConfig};
use spash_service::pool::BatchPool;
use spash_service::{BatchReplies, ClientReq, JournalSpec, Service, ServiceConfig};
use spash_workloads::openloop::{ArrivalGen, OpenLoopConfig};
use spash_workloads::{load_keys, Distribution, Mix, OpStream};

use crate::harness::TaskBody;
use crate::indexes::{roster, Geometry};
use crate::report::{BenchReport, ExperimentRow};
use crate::statskit::percentile;
use crate::suite::{sweep, Point, SuiteConfig};

/// Max requests coalesced under one batch fence.
pub const BATCH_MAX: usize = 8;
/// Open-loop client session population.
pub const SESSIONS: u64 = 1 << 20;
/// Mean virtual inter-arrival gap of the open phase, ns.
pub const MEAN_GAP_NS: u64 = 150;

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
fn shard_bodies<'a>(
    svc: &'a Service,
    shards: usize,
    misroutes: &'a AtomicU64,
    // lint:allow(std-sync): host-side latency sink; locked only inside
    // `deliver`, never held across a sync point.
    latencies: Option<&'a std::sync::Mutex<Vec<u64>>>,
) -> Vec<TaskBody<'a>> {
    (0..shards)
        .map(|shard| -> TaskBody<'a> {
            Box::new(move |ctx| {
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
            })
        })
        .collect()
}

/// Run one point's phases — load, open-loop run, saturation run — against
/// one service instance over its index, with `p.cell.threads` shards.
pub fn run_cell(p: &Point) -> Result<ServiceCellResult, String> {
    let shards = p.cell.threads;
    let svc = Service::new(
        p.index.clone(),
        ServiceConfig {
            shards,
            batch_max: BATCH_MAX,
            journal: JournalSpec::at_top(p.dev.config().arena_size, shards, 1024),
            pool_slots: shards + 1,
            pool_participants: 0,
        },
    );

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
        let (r, _) = p.cell.run(&p.dev, pi, bodies)?;
        // Conservation: everything enqueued so far is acked exactly once.
        if total_acked(&svc) != enqueued {
            return Err(format!(
                "{phase}: acked {} of {enqueued} enqueued requests",
                total_acked(&svc)
            ));
        }
        // The routing audit is a hard gate: a single misroute fails the
        // suite (the misroute canary is caught here, not by lin checks —
        // a consistent shift preserves per-key order).
        let mis = misroutes.load(Ordering::SeqCst);
        if mis != 0 {
            return Err(format!("{phase}: {mis} misrouted request(s)"));
        }
        rows.push(p.row(phase, &r));
        Ok(())
    };

    // Load: every key as an insert request, all arrived at t=0.
    let load_cfg = p.cfg.workload(Distribution::Uniform, Mix::BALANCED);
    let keys = load_keys(&load_cfg);
    let mut vals = OpStream::new(&load_cfg, 0);
    for (i, &k) in keys.iter().enumerate() {
        svc.enqueue(ClientReq::new(i as u64, 0, SweepOp::Insert(k, vals.expected_value(k))));
        enqueued += 1;
    }
    run_phase("load", 0, None, enqueued, &mut rows)?;

    // Open-loop run: zipfian balanced mix, arrivals from the session
    // population at the configured mean gap.
    let run_cfg = p.cfg.workload(Distribution::Zipfian, Mix::BALANCED);
    let mut arrivals = ArrivalGen::new(OpenLoopConfig {
        sessions: SESSIONS,
        mean_gap_ns: MEAN_GAP_NS,
        seed: p.cfg.seed,
    });
    let to_req = |stream: &mut OpStream, arrival_ns: u64, session: u64| {
        ClientReq::new(session, arrival_ns, stream.next_op().into())
    };
    let ops = p.cfg.ops;
    let mut stream = OpStream::new(&run_cfg, 1);
    for _ in 0..ops {
        let a = arrivals.next_arrival();
        svc.enqueue(to_req(&mut stream, a.at_ns, a.session));
        enqueued += 1;
    }
    // lint:allow(std-sync): host-side latency sink (see shard_bodies).
    let lat = std::sync::Mutex::new(Vec::<u64>::with_capacity(ops as usize));
    run_phase("open", 1, Some(&lat), enqueued, &mut rows)?;
    let mut lats = lat.into_inner().unwrap();
    if lats.len() as u64 != ops {
        return Err(format!("open: {} latencies for {ops} requests", lats.len()));
    }
    lats.sort_unstable();
    for (ph, q) in [("p50", 0.50), ("p99", 0.99), ("p999", 0.999)] {
        let value = percentile(&lats, q);
        rows.push(ExperimentRow {
            threads: shards as u64,
            ops,
            ..ExperimentRow::from_value("service", &p.target.name, &p.name, ph, "ns", value)
        });
    }

    // Saturation: the same mix with every arrival at t=0 — the service
    // drains as fast as batching allows at this shard count.
    let mut stream = OpStream::new(&run_cfg, 2);
    for i in 0..ops {
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
/// report is byte-identical across runs.
pub fn run_suite(cfg: &SuiteConfig) -> Result<BenchReport, String> {
    let echo = [
        ("batch_max", BATCH_MAX.to_string()),
        ("sessions", SESSIONS.to_string()),
        ("mean_gap_ns", MEAN_GAP_NS.to_string()),
    ];
    sweep(cfg, &echo, |p| run_cell(p).map(|c| c.rows))
}

/// `spash-bench service --lin-check`: the batched front-end over every
/// index × `schedules` seeds, Wing–Gong-checked. Returns failure
/// messages (empty = pass).
pub fn lin_check_all(cfg: &ServiceLinConfig) -> Vec<String> {
    let mut failures = Vec::new();
    for target in roster(Geometry::Suite) {
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
        let cfg = SuiteConfig {
            keys: 300,
            ops: 240,
            ladder: &[2],
            ..crate::suite::SERVICE
        };
        let target = &roster(Geometry::Suite)[0];
        let p = Point::new(&cfg, target, 0, spash_pmem::PersistenceDomain::Eadr, 2);
        let cell = run_cell(&p).unwrap();
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
        let target = &roster(Geometry::Suite)[0];
        for s in 0..cfg.schedules {
            let n = lincheck::lin_check_target(target, &cfg, cfg.seed + s).unwrap();
            assert_eq!(n as u64, cfg.ops);
        }
    }
}
