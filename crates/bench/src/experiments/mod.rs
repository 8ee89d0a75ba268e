//! One module per figure/table of the paper's evaluation (§VI).

pub mod fig1;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig7;
pub mod fig8;
pub mod fig9;

use spash_index_api::{BatchOp, BatchResult, PersistentIndex};
use spash_pmem::MemCtx;
use spash_workloads::{OpStream, WorkOp};

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
                BatchResult::Inserted(Err(spash_index_api::IndexError::OutOfMemory))
                    | BatchResult::Updated(Err(spash_index_api::IndexError::OutOfMemory))
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
        for k in spash_workloads::load_keys(&cfg) {
            idx.insert_u64(&mut ctx, k, k).unwrap();
        }
        let mut s = OpStream::new(&cfg, 0);
        let done = exec_stream(idx.as_ref(), &mut ctx, &mut s, 500);
        assert_eq!(done, 500);
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
