//! One module per figure/table of the paper's evaluation (§VI), plus the
//! [`Cell`] they share with the gated suites: every phase is a
//! cooperative batch (`harness::run_scheduled`) — the partitioned
//! [`Cell::load`], the stream-driven [`Cell::mix`], or a figure's own
//! [`Cell::tasks`] body.
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

use std::sync::Arc;

use spash_index_api::{BatchOp, BatchResult, IndexError, PersistentIndex};
use spash_pmem::{MemCtx, PmDevice};
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
pub type Scheduled = Result<(PhaseResult, Vec<u64>), String>;

/// One cell of the catalog every gated report is measured in: a seed, a
/// preemption budget, an identity and how many simulated threads run
/// each phase. Each phase is one cooperative batch whose scheduler seed
/// is a pure function of the cell and the phase ordinal, so a row
/// depends on nothing but the suite's sizes. This is the one place a
/// phase's scheduler is derived and run. Figures build theirs with
/// [`Cell::figure`], the `perf`, `scale` and `service` sweeps with
/// [`crate::suite::Point::new`].
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    pub(crate) seed: u64,
    pub(crate) preemptions: u32,
    /// `[series, group, point]`: a figure's `[series, figure, x-axis
    /// point]`, a suite's `[target, domain, ladder value]`.
    pub(crate) id: [usize; 3],
    pub(crate) threads: usize,
}

impl Cell {
    /// A figure cell. `figure` is the figure number (Fig 12's panels
    /// a–d: 120–123).
    pub fn figure(figure: u8, series: usize, point: usize, threads: usize) -> Self {
        Self {
            seed: 0x5eed,
            preemptions: 64,
            id: [series, figure.into(), point],
            threads,
        }
    }

    /// Phase `phase` as `bodies`, one cooperative task each. A phase that
    /// did not complete (task panic, step valve) is an error naming the
    /// cell.
    pub fn run(&self, dev: &Arc<PmDevice>, phase: usize, bodies: Vec<TaskBody<'_>>) -> Scheduled {
        let sched = phase_sched(self.seed, self.id, phase, self.preemptions);
        run_scheduled(dev, &sched, bodies).map_err(|e| format!("{self:?} phase {phase}: {e}"))
    }

    /// Phase `phase` as `threads` tasks of `body(tid, ctx)`, which
    /// returns the number of operations it performed.
    pub fn tasks<F>(&self, dev: &Arc<PmDevice>, phase: usize, body: F) -> Scheduled
    where
        F: Fn(usize, &mut MemCtx) -> u64 + Sync,
    {
        let body = &body;
        let bodies = (0..self.threads)
            .map(|tid| -> TaskBody { Box::new(move |ctx| body(tid, ctx)) })
            .collect();
        self.run(dev, phase, bodies)
    }

    /// Phase `phase` as the partitioned load of `cfg`'s key space: each
    /// task inserts its own chunk of the load keys, values from `cfg`'s
    /// generator. A task stops at the first `OutOfMemory` (Halo's
    /// documented DRAM-exhaustion failure mode) and counts what it
    /// inserted; any other failure is a bug and panics.
    pub fn load(
        &self,
        dev: &Arc<PmDevice>,
        phase: usize,
        index: &dyn PersistentIndex,
        cfg: &WorkloadConfig,
    ) -> Scheduled {
        let keys = load_keys(cfg);
        let bodies = (0..self.threads)
            .map(|t| -> TaskBody {
                let mine = my_chunk(&keys, self.threads, t);
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
        self.run(dev, phase, bodies)
    }

    /// Phase `phase` as a run of `ops` operations drawn from `cfg`, split
    /// evenly over the cell's threads and executed through
    /// [`exec_stream`]: over the shared key space, or each task over its
    /// own disjoint slice of it when `partitioned`.
    pub fn mix(
        &self,
        dev: &Arc<PmDevice>,
        phase: usize,
        index: &dyn PersistentIndex,
        cfg: &WorkloadConfig,
        ops: u64,
        partitioned: bool,
    ) -> Scheduled {
        let threads = self.threads as u64;
        let bodies = (0..threads)
            .map(|t| -> TaskBody {
                let mut stream = if partitioned {
                    OpStream::partitioned(cfg, t, threads)
                } else {
                    OpStream::new(cfg, t)
                };
                Box::new(move |ctx| exec_stream(index, ctx, &mut stream, ops / threads))
            })
            .collect();
        self.run(dev, phase, bodies)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::indexes::{bench_device, roster, Geometry};
    use spash_workloads::{Distribution, Mix, ValueSize, WorkloadConfig};

    /// The figure roster's member `name`, formatted on `dev`.
    fn build(dev: &Arc<PmDevice>, name: &str) -> Box<dyn PersistentIndex> {
        let target = roster(Geometry::Figure).into_iter().find(|t| t.name == name);
        (target.expect("a roster member").format)(&mut dev.ctx())
    }

    #[test]
    fn exec_stream_runs_mixed_ops() {
        let dev = bench_device(1000, 16);
        let idx = build(&dev, "Spash");
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
            let idx = build(&dev, "Level");
            let cell = Cell {
                seed: 7,
                preemptions: 64,
                id: [0; 3],
                threads,
            };
            let (r, _) = cell.load(&dev, 0, idx.as_ref(), &cfg).unwrap();
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
