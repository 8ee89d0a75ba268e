//! One module per figure/table of the paper's evaluation (§VI), plus the
//! phase helpers they share with the gated suites: every multi-task phase
//! is a cooperative batch (`harness::run_scheduled`) — the partitioned
//! `load`, the stream-driven `mix`, or a figure's own [`Cell::tasks`] body.
//!
//! Every figure row is therefore a pure function of the `SPASH_BENCH_*`
//! scale: each figure's `run` returns its rows, `spash-bench all` writes
//! them byte-stably, and `compare` gates them against
//! `bench/baseline_figures.json`.

pub mod fig1;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig7;
pub mod fig8;
pub mod fig9;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use spash_index_api::{BatchOp, BatchResult, IndexError, PersistentIndex};
use spash_pmem::{MemCtx, PmAddr, PmDevice};
use spash_sched::SchedConfig;
use spash_workloads::{load_keys, OpStream, WorkOp, WorkloadConfig};

use crate::harness::{phase_sched, run_scheduled, PhaseResult, TaskBody};

/// Batch size fed to `run_batch` (Spash pipelines it; baselines run it
/// serially through the default implementation).
pub const EXEC_BATCH: usize = 64;

/// Execute `n` run-phase operations from `stream` against `index`,
/// batched. Returns the number of operations executed.
pub fn exec_stream(
    index: &dyn PersistentIndex,
    ctx: &mut MemCtx,
    stream: &mut OpStream,
    n: u64,
) -> u64 {
    let mut owned: Vec<WorkOp> = Vec::with_capacity(EXEC_BATCH);
    let mut results: Vec<BatchResult> = Vec::with_capacity(EXEC_BATCH);
    let mut left = n;
    while left > 0 {
        let take = (left as usize).min(EXEC_BATCH);
        owned.clear();
        for _ in 0..take {
            owned.push(stream.next_op());
        }
        let batch: Vec<BatchOp<'_>> = owned
            .iter()
            .map(|op| match op {
                WorkOp::Search(k) => BatchOp::Get(*k),
                WorkOp::Update(k, v) => BatchOp::Update(*k, v.as_slice()),
                WorkOp::Insert(k, v) => BatchOp::Insert(*k, v.as_slice()),
                WorkOp::Delete(k) => BatchOp::Remove(*k),
            })
            .collect();
        results.clear();
        index.run_batch(ctx, &batch, &mut results);
        // Surface resource exhaustion loudly: silently-failing ops would
        // otherwise inflate throughput numbers.
        for r in &results {
            let oom = matches!(
                r,
                BatchResult::Inserted(Err(IndexError::OutOfMemory))
                    | BatchResult::Updated(Err(IndexError::OutOfMemory))
            );
            assert!(!oom, "index ran out of memory mid-benchmark: {}", index.name());
        }
        left -= take as u64;
    }
    n
}

/// Partition `items` into `threads` equal chunks; returns the `tid`-th.
pub fn my_chunk<T>(items: &[T], threads: usize, tid: usize) -> &[T] {
    let per = items.len().div_ceil(threads);
    let start = (tid * per).min(items.len());
    let end = ((tid + 1) * per).min(items.len());
    &items[start..end]
}

/// A scheduled phase's outcome: the phase result plus per-task op counts.
pub(crate) type Scheduled = Result<(PhaseResult, Vec<u64>), String>;

/// The load phase: `threads` tasks insert their own chunk of `cfg`'s
/// load keys concurrently, values from `cfg`'s generator. A task stops at
/// the first `OutOfMemory` (Halo's documented DRAM-exhaustion failure
/// mode) and counts what it inserted; any other failure is a bug and
/// panics.
pub(crate) fn load(
    dev: &Arc<PmDevice>,
    sched: &SchedConfig,
    index: &dyn PersistentIndex,
    cfg: &WorkloadConfig,
    threads: usize,
) -> Scheduled {
    let keys = load_keys(cfg);
    let bodies = (0..threads)
        .map(|t| -> TaskBody {
            let mine = my_chunk(&keys, threads, t);
            let mut vals = OpStream::new(cfg, t as u64);
            Box::new(move |ctx| {
                let mut done = 0;
                for &k in mine {
                    match index.insert(ctx, k, &vals.expected_value(k)) {
                        Ok(()) => done += 1,
                        Err(IndexError::OutOfMemory) => break,
                        Err(e) => panic!("{}: load insert of {k} failed: {e:?}", index.name()),
                    }
                }
                done
            })
        })
        .collect();
    run_scheduled(dev, sched, bodies)
}

/// A run phase: one task per stream, each executing `per_ops` operations
/// of it through [`exec_stream`].
pub(crate) fn mix(
    dev: &Arc<PmDevice>,
    sched: &SchedConfig,
    index: &dyn PersistentIndex,
    streams: Vec<OpStream>,
    per_ops: u64,
) -> Scheduled {
    let bodies = streams
        .into_iter()
        .map(|mut stream| -> TaskBody {
            Box::new(move |ctx| {
                let n = exec_stream(index, ctx, &mut stream, per_ops);
                maybe_inflate(ctx);
                n
            })
        })
        .collect();
    run_scheduled(dev, sched, bodies)
}

/// Test canary (see `crates/bench/tests/scale.rs`): when armed, every
/// run-phase (`mix`) task ends with a burst of identity RMWs on one shared PM
/// line. The or-with-0 leaves the data untouched, but each RMW is a
/// modelled line-ownership transfer — extra sync points, extra cacheline
/// traffic, inflated virtual time — exactly the signature of accidental
/// contention, which the exact compare gate must flag.
static INFLATE_CONTENTION: AtomicBool = AtomicBool::new(false);

/// Arm/disarm the contention-inflation canary; returns the old state.
/// Process-global: serialize tests that touch it.
pub fn set_contention_inflation(on: bool) -> bool {
    INFLATE_CONTENTION.swap(on, Ordering::SeqCst)
}

fn maybe_inflate(ctx: &mut MemCtx) {
    if INFLATE_CONTENTION.load(Ordering::SeqCst) {
        for _ in 0..16 {
            // Identity RMW: full contention cost, no data change.
            ctx.fetch_or_u64(PmAddr(64), 0);
        }
    }
}

/// One figure cell: what was built for a (figure, series, x-axis point)
/// and how many simulated threads run it. Each phase of the cell is one
/// cooperative batch whose scheduler seed is a pure function of this
/// identity and the phase ordinal (base and preemption budget are the
/// `scale` suite's), so a figure row depends on nothing but the
/// `SPASH_BENCH_*` scale.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    figure: usize,
    series: usize,
    point: usize,
    threads: usize,
}

impl Cell {
    /// `figure` is the figure number (Fig 12's panels a–d: 120–123).
    pub fn new(figure: u8, series: usize, point: usize, threads: usize) -> Self {
        Self {
            figure: figure.into(),
            series,
            point,
            threads,
        }
    }

    fn sched(&self, phase: usize) -> SchedConfig {
        phase_sched(0x5eed, [self.series, self.figure, self.point], phase, 64)
    }

    /// A figure has no error path: a phase that did not complete (task
    /// panic, step valve) ends the run, naming the cell.
    fn done(&self, phase: usize, r: Scheduled) -> PhaseResult {
        let (r, _per_task) = r.unwrap_or_else(|e| panic!("{self:?} phase {phase}: {e}"));
        r
    }

    /// Phase `phase` as `threads` tasks of `body(tid, ctx)`, which
    /// returns the number of operations it performed.
    pub fn tasks<F>(&self, dev: &Arc<PmDevice>, phase: usize, body: F) -> PhaseResult
    where
        F: Fn(usize, &mut MemCtx) -> u64 + Sync,
    {
        let body = &body;
        let bodies = (0..self.threads)
            .map(|tid| -> TaskBody { Box::new(move |ctx| body(tid, ctx)) })
            .collect();
        self.done(phase, run_scheduled(dev, &self.sched(phase), bodies))
    }

    /// Phase `phase` as the partitioned load of `cfg`'s key space.
    pub fn load(
        &self,
        dev: &Arc<PmDevice>,
        phase: usize,
        index: &dyn PersistentIndex,
        cfg: &WorkloadConfig,
    ) -> PhaseResult {
        let r = load(dev, &self.sched(phase), index, cfg, self.threads);
        self.done(phase, r)
    }

    /// Phase `phase` as a run of `ops` operations drawn from `cfg`, split
    /// evenly over the cell's threads (shared key space).
    pub fn mix(
        &self,
        dev: &Arc<PmDevice>,
        phase: usize,
        index: &dyn PersistentIndex,
        cfg: &WorkloadConfig,
        ops: u64,
    ) -> PhaseResult {
        let streams = (0..self.threads as u64)
            .map(|t| OpStream::new(cfg, t))
            .collect();
        let per_ops = ops / self.threads as u64;
        self.done(phase, mix(dev, &self.sched(phase), index, streams, per_ops))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::indexes::{bench_device, build_index, IndexKind};
    use spash_workloads::{Distribution, Mix, ValueSize, WorkloadConfig};

    #[test]
    fn exec_stream_runs_mixed_ops() {
        let dev = bench_device(1000, 16);
        let idx = build_index(&dev, IndexKind::Spash);
        let mut ctx = dev.ctx();
        let cfg = WorkloadConfig::new(1000, Distribution::Uniform, Mix::BALANCED, ValueSize::Inline);
        for k in load_keys(&cfg) {
            idx.insert_u64(&mut ctx, k, k).unwrap();
        }
        let mut s = OpStream::new(&cfg, 0);
        let done = exec_stream(idx.as_ref(), &mut ctx, &mut s, 500);
        assert_eq!(done, 500);
    }

    /// Every task that finds Level's table full queues on the rehash
    /// lock; only the first of them may double it.
    #[test]
    fn level_grows_the_same_under_eight_loaders_as_under_one() {
        let cfg = WorkloadConfig::new(
            12_000,
            Distribution::Uniform,
            Mix::SEARCH_ONLY,
            ValueSize::Inline,
        );
        let slots_after = |threads: usize| {
            let dev = bench_device(cfg.n_keys, 16);
            let idx = build_index(&dev, IndexKind::Level);
            let sched = phase_sched(7, [0; 3], 0, 64);
            let (r, _) = load(&dev, &sched, idx.as_ref(), &cfg, threads).unwrap();
            assert_eq!(r.ops, cfg.n_keys);
            idx.capacity_slots()
        };
        assert_eq!(slots_after(8), slots_after(1));
    }

    #[test]
    fn chunks_cover_everything() {
        let items: Vec<u32> = (0..103).collect();
        let mut seen = Vec::new();
        for t in 0..4 {
            seen.extend_from_slice(my_chunk(&items, 4, t));
        }
        assert_eq!(seen, items);
    }
}
