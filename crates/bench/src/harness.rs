//! Shared benchmark machinery: execution of simulated threads as
//! cooperative tasks under the scheduler, virtual-time throughput
//! computation, and table printing.
//!
//! **How throughput is computed** (DESIGN.md §4): every simulated thread
//! accumulates virtual time; media byte counters impose the PM bandwidth
//! ceiling. For a phase that executed `ops` operations,
//!
//! ```text
//! elapsed = max(max per-thread virtual time, bandwidth floor)
//! Mops/s  = ops / elapsed
//! ```
//!
//! Absolute numbers are model outputs calibrated to the paper's testbed
//! constants; the reproduced claims are ratios and shapes.

use std::sync::Arc;

use spash_index_api::hash_key;
use spash_pmem::{MemCtx, PmDevice, SpanSnapshot, StatsDelta};
use spash_sched::batch::run_batch;
use spash_sched::SchedConfig;

use crate::knobs;

/// Scale knobs, overridable from the environment (strictly — see
/// [`crate::knobs`]) so the figure runs stay fast by default:
/// * `SPASH_BENCH_KEYS` — load-phase keys (default 400k, paper 20M/100M);
/// * `SPASH_BENCH_OPS` — run-phase ops (default 200k, paper 8G/100M);
/// * `SPASH_BENCH_THREADS` — simulated thread counts, comma-separated
///   (default `1,8,56`, matching the paper's 56-thread tables).
#[derive(Clone, Debug)]
pub struct Scale {
    pub keys: u64,
    pub ops: u64,
    pub threads: Vec<usize>,
}

impl Scale {
    pub fn from_env() -> Self {
        knobs::reject_unknown();
        Self {
            keys: knobs::int("SPASH_BENCH_KEYS", 400_000),
            ops: knobs::int("SPASH_BENCH_OPS", 200_000),
            threads: knobs::list("SPASH_BENCH_THREADS", &[1, 8, 56]),
        }
    }

    /// The largest thread count in the sweep (used for single-point
    /// experiments like the paper's 56-thread YCSB tables).
    pub fn max_threads(&self) -> usize {
        self.threads.iter().copied().max().unwrap_or(1)
    }
}

/// The outcome of one measured phase: virtual-clock quantities only.
#[derive(Clone, Debug)]
pub struct PhaseResult {
    pub ops: u64,
    pub elapsed_ns: u64,
    pub delta: StatsDelta,
    /// Per-span attribution deltas, in canonical span order
    /// ([`spash_pmem::span::SPAN_NAMES`]).
    pub spans: Vec<(&'static str, SpanSnapshot)>,
}

impl PhaseResult {
    /// Million operations per second of virtual time.
    pub fn mops(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        self.ops as f64 * 1e3 / self.elapsed_ns as f64
    }

    /// GB/s of payload bytes (Fig 1).
    pub fn gbps(&self, payload_bytes: u64) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        payload_bytes as f64 / self.elapsed_ns as f64
    }

    pub fn per_op(&self, counter: u64) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            counter as f64 / self.ops as f64
        }
    }
}

/// The scheduler configuration of one measured phase: random preemption
/// under a seed that is a pure function of everything that identifies
/// the phase — `cell` is `[series, group, point]` (`perf`: index, domain,
/// 0; `scale`/`service`: index, domain, thread or shard count; figures:
/// series, figure, x-axis point) — so no two phases share an
/// interleaving stream and a whole suite is a pure function of `base`.
/// The livelock valve is generous for the largest cell any suite runs:
/// 56 tasks loading 400 k keys cross up to 49 M sync points legitimately.
pub(crate) fn phase_sched(base: u64, cell: [usize; 3], phase: usize, preemptions: u32) -> SchedConfig {
    let [series, group, point] = cell;
    let seed = hash_key(
        base ^ ((series as u64) << 48)
            ^ ((group as u64) << 40)
            ^ ((point as u64) << 16)
            ^ phase as u64,
    );
    SchedConfig {
        max_steps: 200_000_000,
        ..SchedConfig::random(seed, preemptions)
    }
}

/// One cooperative task of a scheduled phase: runs on its own context and
/// returns the number of operations it performed.
pub(crate) type TaskBody<'a> = Box<dyn FnOnce(&mut MemCtx) -> u64 + Send + 'a>;

/// Run `bodies` as cooperative tasks under [`run_batch`]: the one way
/// this crate runs a measured phase, one task or many. The interleaving
/// is a pure function of `sched`, so every field of the result is
/// bit-deterministic. Returns the phase result plus per-task op counts
/// (the sum invariant the tests pin).
///
/// The device is quiesced (XPBuffer drained) on both sides so the delta
/// is self-contained, and every task starts at the device's virtual-time
/// floor on a context created before spawning, in task order, so
/// simulated-thread ids are a pure function of the configuration.
/// `elapsed = max(max per-task clock, sim horizon, bandwidth floor) -
/// start`; the floor then advances to the phase's end so virtual
/// timestamps persisted in lock/HTM metadata by this phase can never
/// stall the next one.
pub(crate) fn run_scheduled<'a>(
    dev: &Arc<PmDevice>,
    sched: &SchedConfig,
    bodies: Vec<TaskBody<'a>>,
) -> Result<(PhaseResult, Vec<u64>), String> {
    dev.quiesce();
    let before = dev.snapshot();
    let spans_before = dev.span_totals();
    let phase_start = dev.vtime_floor();
    let tasks: Vec<Box<dyn FnOnce() -> (u64, u64) + Send + 'a>> = bodies
        .into_iter()
        .map(|body| {
            let mut ctx = dev.ctx();
            ctx.reset_clock();
            let t: Box<dyn FnOnce() -> (u64, u64) + Send + 'a> = Box::new(move || {
                let ops = body(&mut ctx);
                (ops, ctx.now())
            });
            t
        })
        .collect();
    let results: Vec<(u64, u64)> = run_batch(sched, None, tasks).into_complete()?;

    dev.quiesce();
    let delta = dev.snapshot().since(&before);
    let spans = dev
        .span_totals()
        .iter()
        .zip(spans_before.iter())
        .map(|((name, after), (_, before))| (*name, after.since(before)))
        .collect();
    if delta.san_redundant_flushes + delta.san_noop_fences > 0 {
        println!(
            "# san: {} redundant flushes, {} no-op fences this phase",
            delta.san_redundant_flushes, delta.san_noop_fences
        );
    }
    let max_clock = results
        .iter()
        .map(|t| t.1)
        .max()
        .unwrap_or(phase_start)
        .max(dev.sim_horizon());
    dev.raise_vtime_floor(max_clock);
    let r = PhaseResult {
        ops: results.iter().map(|t| t.0).sum(),
        elapsed_ns: max_clock
            .saturating_sub(phase_start)
            .max(delta.bandwidth_floor_ns(&dev.config().cost)),
        delta,
        spans,
    };
    Ok((r, results.iter().map(|t| t.0).collect()))
}

/// Print a table: first column = row label, then one column per series,
/// wide enough that the longest header keeps a gap from its neighbour.
pub fn print_table(title: &str, columns: &[String], rows: &[(String, Vec<f64>)], unit: &str) {
    let w = columns
        .iter()
        .map(|c| c.chars().count() + 2)
        .max()
        .unwrap_or(0)
        .max(14);
    println!();
    println!("== {title} ({unit}) ==");
    print!("{:<22}", "");
    for c in columns {
        print!("{c:>w$}");
    }
    println!();
    for (label, vals) in rows {
        print!("{label:<22}");
        for v in vals {
            if *v >= 100.0 {
                print!("{v:>w$.1}");
            } else {
                print!("{v:>w$.3}");
            }
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spash_pmem::{PmAddr, PmConfig};

    #[test]
    fn run_phase_aggregates_ops_and_time() {
        let dev = PmDevice::new(PmConfig::small_test());
        let bodies: Vec<TaskBody> = (0..4u64)
            .map(|tid| -> TaskBody {
                Box::new(move |ctx| {
                    for i in 0..100u64 {
                        ctx.write_u64(PmAddr(4096 + (tid * 100 + i) * 64), i);
                    }
                    100
                })
            })
            .collect();
        let (r, per_task) = run_scheduled(&dev, &phase_sched(7, [0; 3], 0, 16), bodies).unwrap();
        assert_eq!(per_task, vec![100; 4]);
        assert_eq!(r.ops, 400);
        assert!(r.elapsed_ns > 0);
        assert!(r.mops() > 0.0);
        // Every canonical span is reported (all zero: nothing probed).
        assert_eq!(r.spans.len(), spash_pmem::SPAN_NAMES.len());
        assert!(r.spans.iter().all(|(_, s)| s.is_zero()));
    }

    #[test]
    fn bandwidth_floor_dominates_for_write_floods() {
        let dev = PmDevice::new(PmConfig {
            arena_size: 64 << 20,
            cache_capacity: 1 << 20,
            ..PmConfig::small_test()
        });
        // A single thread ntstores 16 MiB: the floor must be at least
        // bytes / write-bw.
        let body: TaskBody = Box::new(|ctx| {
            let buf = [7u8; 256];
            for i in 0..65536u64 {
                ctx.ntstore_bytes(PmAddr(i * 256), &buf);
            }
            65536
        });
        let (r, _) = run_scheduled(&dev, &phase_sched(7, [0; 3], 0, 16), vec![body]).unwrap();
        let cost = dev.config().cost.clone();
        let floor = r.delta.bandwidth_floor_ns(&cost);
        assert!(r.elapsed_ns >= floor);
        assert!(floor > 0);
    }

    #[test]
    fn scale_defaults_sane() {
        let s = Scale::from_env();
        assert!(s.keys > 0 && s.ops > 0 && !s.threads.is_empty());
    }
}
