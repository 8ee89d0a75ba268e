//! Pipelined request execution (paper §III-D, Fig 5a).
//!
//! Each simulated core executes up to `pipeline_depth` requests
//! concurrently: the routing (step 1) of a whole sub-batch runs first,
//! issuing asynchronous prefetches; when the requests then execute,
//! their loads (step 2) find the data in flight and wait only for the
//! *residual* latency. Transaction phases (step 5) run serially within
//! the batch — HTM does not support overlapping transactions on one core
//! (§IV-A).
//!
//! Each request is routed once. Stage 1 hashes its key and takes its
//! route (`Spash::route`: a get's overlay hit, else the directory
//! entry), and stage 3 runs the operation's one body — the one a single
//! operation runs — from that hash and route. The route serves the first
//! preparation only. When an earlier request of the sub-batch split or
//! merged the routed segment, or doubled the directory, step 5 catches
//! the stale route as it catches any stale preparation: `dir.validate`
//! aborts with `VALIDATE_SEGMENT_MOVED` (an overlay hit fails
//! `tx_validate` instead), and the retry routes afresh.
//!
//! The prefetch plan is fingerprint-aware, mirroring the probe path:
//!
//! * a `Get` that hits the DRAM overlay needs no PM bucket lines at all —
//!   only blob lines, whose addresses come from the *cached* key words;
//! * other `Get`s prefetch the fp sidecar word *and* the bucket line
//!   together, so the two fetches share one miss window; the stage-2 peek
//!   of the fp word then decides whether the bucket line is read and
//!   which of its key words are candidates. A
//!   tag-clean negative still *reads* only the fp word — the speculative
//!   bucket fetch is discarded, trading a line of read bandwidth for not
//!   serializing two dependent PM round-trips per probe;
//! * mutations always read the bucket, so they prefetch both the fp word
//!   and the bucket line up front.
//!
//! With PD=4 the four misses overlap into roughly one PM read latency,
//! which is where the paper's ~2× read-throughput gain comes from
//! (Fig 7a, Fig 12d).

use spash_index_api::{hash_key, BatchOp, BatchResult};
use spash_pmem::MemCtx;

use crate::ops::{Route, Spash};
use crate::slot::{bucket_of, fp8, fp_word, key_addr, SlotKey, SLOTS_PER_BUCKET};

impl Spash {
    /// Execute `ops` with pipeline overlap, appending one result per op.
    pub fn run_batch_pipelined(
        &self,
        ctx: &mut MemCtx,
        ops: &[BatchOp<'_>],
        out: &mut Vec<BatchResult>,
    ) {
        let depth = self.cfg.pipeline_depth.max(1);
        // Each request's hash and route, and its stage-2a candidate mask;
        // reused by every chunk of the batch.
        let mut routes = Vec::with_capacity(depth);
        let mut masks = Vec::with_capacity(depth);
        for chunk in ops.chunks(depth) {
            // Stage 1: route every request and issue first-round
            // prefetches (fp word, and the bucket line for mutations).
            for op in chunk {
                let (key, is_get) = match *op {
                    BatchOp::Get(k) => (k, true),
                    BatchOp::Insert(k, _) | BatchOp::Update(k, _) | BatchOp::Remove(k) => {
                        (k, false)
                    }
                };
                let h = hash_key(key);
                let route = self.route(ctx, h, is_get);
                match &route {
                    Route::Overlay(hit) => {
                        // Blob lines are the only PM the hit path reads;
                        // their addresses come from the cached key words.
                        let tag = fp8(h);
                        let mask = fp_word::slot_candidates(hit.fpw, tag);
                        self.prefetch_blobs(ctx, mask, hit.words.map(|(kw, _)| kw));
                        // A hint-tag match means the hit path will fall
                        // through to the PM probe (overflow slots are not
                        // cached): warm its lines now so that fall isn't
                        // a serialized pair of cold misses.
                        if fp_word::hint_candidates(hit.fpw, tag) != 0 {
                            self.prefetch_probe(ctx, hit.seg, bucket_of(h));
                        }
                    }
                    Route::Dir(routed) => self.prefetch_probe(ctx, routed.seg(), bucket_of(h)),
                }
                routes.push((h, route));
            }
            // Stage 2a: peek the fp word of each get that must probe PM
            // (its line and the speculatively-fetched bucket line are both
            // already in flight from stage 1). Tag-clean negatives stop
            // here — they will resolve from the fp word alone.
            masks.clear();
            masks.resize(chunk.len(), 0u8);
            for (i, (op, (h, route))) in chunk.iter().zip(&routes).enumerate() {
                if let (BatchOp::Get(_), Route::Dir(routed)) = (op, route) {
                    let fpw = ctx.read_u64(self.fptable.word_addr(routed.seg(), bucket_of(*h)));
                    let tag = fp8(*h);
                    if fp_word::any_match(fpw, tag) {
                        masks[i] = fp_word::slot_candidates(fpw, tag);
                    }
                }
            }
            // Stage 2b: read the bucket line of every tag-matching probe
            // and every mutation (one access each), and prefetch blob
            // lines for the candidate pointer entries (step 4 overlap).
            for (i, (op, (h, route))) in chunk.iter().zip(&routes).enumerate() {
                let Route::Dir(routed) = route else { continue };
                let mask = match op {
                    BatchOp::Get(_) => masks[i],
                    _ => 0b1111,
                };
                if mask == 0 {
                    continue;
                }
                let line = ctx.read_line(key_addr(routed.seg(), bucket_of(*h) * SLOTS_PER_BUCKET));
                self.prefetch_blobs(ctx, mask, std::array::from_fn(|j| line[2 * j]));
            }
            // Stage 3: run each operation's one body from its stage-1
            // route; preparation reads hit the prefetched lines,
            // transaction phases execute serially.
            for (op, (h, route)) in chunk.iter().zip(routes.drain(..)) {
                out.push(self.run_routed(ctx, op, h, route));
            }
        }
    }

    /// Stage 3 of one request: its operation's body, handed the hash and
    /// route stage 1 took. Only the first preparation uses the route; if
    /// an earlier request of the chunk moved the segment meanwhile, step
    /// 5's validation aborts it and the retry routes afresh.
    fn run_routed(&self, ctx: &mut MemCtx, op: &BatchOp<'_>, h: u64, route: Route) -> BatchResult {
        match *op {
            BatchOp::Get(k) => {
                let mut buf = Vec::new();
                let hit = ctx.stats_span(spash_pmem::SPAN_PROBE, |ctx| {
                    self.get_op(ctx, k, h, route, &mut buf)
                });
                BatchResult::Got(hit.then_some(buf))
            }
            BatchOp::Insert(k, v) => BatchResult::Inserted(self.insert_op(ctx, k, h, route.dir(), v)),
            BatchOp::Update(k, v) => BatchResult::Updated(self.update_op(ctx, k, h, route.dir(), v)),
            BatchOp::Remove(k) => BatchResult::Removed(self.remove_op(ctx, k, h, route.dir())),
        }
    }

    /// Prefetch the blob of each pointer slot of a bucket whose bit is
    /// set in `mask` (step 4 overlap); `kws` are the bucket's key words.
    fn prefetch_blobs(&self, ctx: &mut MemCtx, mask: u8, kws: [u64; SLOTS_PER_BUCKET as usize]) {
        let candidates = kws
            .into_iter()
            .enumerate()
            .filter(|&(j, _)| mask & (1 << j) != 0);
        for (_, kw) in candidates {
            if let SlotKey::Ptr { addr, .. } = SlotKey::unpack(kw) {
                self.prefetch(ctx, addr);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use spash_index_api::{hash_key, run_one, BatchOp, BatchResult, PersistentIndex};
    use spash_pmem::{MemCtx, PmAddr, PmConfig, PmDevice};
    use std::collections::HashSet;
    use std::sync::Arc;

    use crate::config::{ConcurrencyMode, SpashConfig};
    use crate::dir::MOVED_ABORTS;
    use crate::ops::Spash;
    use crate::slot::{bucket_of, Placement};

    fn build(cfg: SpashConfig) -> (Arc<PmDevice>, Spash, MemCtx) {
        let dev = PmDevice::new(PmConfig::small_test());
        let mut ctx = dev.ctx();
        let idx = Spash::format(&mut ctx, cfg).unwrap();
        (dev, idx, ctx)
    }

    /// A get in a batch is charged the DRAM accesses of the same get run
    /// alone, cold (the overlay misses and installs) and warm (it hits):
    /// stage 3 runs from stage 1's route, so the overlay is looked up
    /// once per get. The keys have distinct overlay entries, so that no
    /// get's install decides another get's lookup.
    #[test]
    fn a_batched_get_charges_the_dram_of_a_get_run_alone() {
        let fill = || {
            let (dev, idx, mut ctx) = build(SpashConfig::test_default());
            for k in 0..2_000u64 {
                idx.insert_u64(&mut ctx, k, k).unwrap();
            }
            (dev, idx, ctx)
        };
        let (dev_b, batched, mut ctx_b) = fill();
        let (dev_s, serial, mut ctx_s) = fill();
        let mut entries = HashSet::new();
        let ops: Vec<BatchOp> = (0..2_000u64)
            .filter(|&k| entries.insert((hash_key(k) >> 52, bucket_of(hash_key(k)))))
            .take(64)
            .map(BatchOp::Get)
            .collect();
        for pass in ["cold", "warm"] {
            let before = dev_b.snapshot();
            let mut got_b = Vec::new();
            batched.run_batch(&mut ctx_b, &ops, &mut got_b);
            let dram_b = dev_b.snapshot().since(&before).dram_accesses;
            let before = dev_s.snapshot();
            let got_s: Vec<BatchResult> = ops.iter().map(|op| run_one(&serial, &mut ctx_s, op)).collect();
            let dram_s = dev_s.snapshot().since(&before).dram_accesses;
            assert_eq!(got_b, got_s, "{pass}");
            assert!(got_b.iter().all(|r| matches!(r, BatchResult::Got(Some(_)))), "{pass}");
            assert_eq!(dram_b, dram_s, "{pass}: {} gets", ops.len());
        }
    }

    /// The first key from `from` on whose hash `idx` routes to `seg`
    /// and, if `bit` is given, whose prefix bit below `depth` is `bit`.
    fn key_in(idx: &Spash, ctx: &mut MemCtx, seg: PmAddr, depth: u8, bit: Option<u64>, from: u64) -> u64 {
        (from..)
            .find(|&k| {
                let h = hash_key(k);
                let child = (h >> (63 - depth as u32)) & 1;
                idx.dir.lookup(ctx, h).seg() == seg && bit.is_none_or(|b| b == child)
            })
            .unwrap()
    }

    /// Every operation kind runs from a stage-1 route that the request
    /// before it in its chunk made stale: an insert that splits the
    /// routed segment, first by doubling the directory, then without.
    /// Under each concurrency mode, the results and the end state equal
    /// those of the same requests run one at a time, and step 5 catches
    /// every stale route (`VALIDATE_SEGMENT_MOVED`) and retries it.
    #[test]
    fn a_route_an_earlier_request_moved_is_caught_and_retried() {
        let modes = [ConcurrencyMode::Htm, ConcurrencyMode::WriteLock, ConcurrencyMode::WriteReadLock];
        for concurrency in modes {
            for kind in ["get", "insert", "update", "remove"] {
                let cfg = SpashConfig {
                    concurrency,
                    ..SpashConfig::test_default()
                };
                let (_db, batched, mut ctx_b) = build(cfg.clone());
                let (_ds, serial, mut ctx_s) = build(cfg);
                let mut keys = Vec::new();
                let mut next = 0;
                for round in ["doubling", "plain"] {
                    // Fill a segment the rounds have not split yet: at
                    // the directory's depth in the first round, one
                    // below it in the second.
                    let h0 = (next..)
                        .map(hash_key)
                        .find(|&h| batched.dir.lookup(&mut ctx_b, h).local_depth() == 2)
                        .unwrap();
                    let routed = batched.dir.lookup(&mut ctx_b, h0);
                    let (seg, depth) = (routed.seg(), routed.local_depth());
                    assert_eq!(depth, 2, "{round}");
                    assert_eq!(batched.dir.depth() == 2, round == "doubling");
                    let mut fill = Vec::new();
                    let splitter = loop {
                        let k = key_in(&batched, &mut ctx_b, seg, depth, None, next);
                        next = k + 1;
                        if batched.find_placement(&mut ctx_b, seg, hash_key(k)) == Placement::Full {
                            break k;
                        }
                        for (idx, ctx) in [(&batched, &mut ctx_b), (&serial, &mut ctx_s)] {
                            idx.insert_u64(ctx, k, k).unwrap();
                        }
                        fill.push(k);
                    };
                    // The later request's key moves to the new sibling.
                    let moved = |k: &&u64| (hash_key(**k) >> (63 - depth as u32)) & 1 == 1;
                    let old = *fill.iter().find(moved).expect("a filled key moves");
                    let new = key_in(&batched, &mut ctx_b, seg, depth, Some(1), next);
                    next = new + 1;
                    let later = match kind {
                        "get" => BatchOp::Get(old),
                        "insert" => BatchOp::Insert(new, b"insert"),
                        "update" => BatchOp::Update(old, b"update"),
                        _ => BatchOp::Remove(old),
                    };
                    let ops = [BatchOp::Insert(splitter, b"splits"), later];
                    keys.extend(fill.iter().copied().chain([splitter, new]));

                    let before = MOVED_ABORTS.with(|n| n.get());
                    let mut got_b = Vec::new();
                    batched.run_batch(&mut ctx_b, &ops, &mut got_b);
                    let caught = MOVED_ABORTS.with(|n| n.get()) - before;
                    let got_s: Vec<BatchResult> =
                        ops.iter().map(|op| run_one(&serial, &mut ctx_s, op)).collect();
                    let what = format!("{concurrency:?} {kind} after a {round} split");
                    assert_eq!(got_b, got_s, "{what}");
                    assert!(caught >= 1, "{what}: no stale route was caught");
                    assert!(batched.dir.lookup(&mut ctx_b, h0).local_depth() > depth, "{what}");
                }
                assert_eq!(batched.dir.depth(), 3);
                assert_eq!(
                    (batched.len(), batched.capacity()),
                    (serial.len(), serial.capacity())
                );
                for k in keys {
                    let (mut vb, mut vs) = (Vec::new(), Vec::new());
                    let hit = batched.get(&mut ctx_b, k, &mut vb);
                    assert_eq!((hit, vb), (serial.get(&mut ctx_s, k, &mut vs), vs), "key {k}");
                }
                batched.verify_integrity(&mut ctx_b).unwrap();
            }
        }
    }
}
