//! Pipelined request execution (paper §III-D, Fig 5a).
//!
//! Each simulated core executes up to `pipeline_depth` requests
//! concurrently: the directory lookups (step 1) of a whole sub-batch run
//! first, issuing asynchronous prefetches; when the requests then execute,
//! their loads (step 2) find the data in flight and wait only for the
//! *residual* latency. Transaction phases (step 5) run serially within
//! the batch — HTM does not support overlapping transactions on one core
//! (§IV-A).
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

use spash_index_api::{hash_key, run_one, BatchOp, BatchResult};
use spash_pmem::{MemCtx, PmAddr};

use crate::ops::Spash;
use crate::slot::{bucket_of, fp8, fp_word, key_addr, SlotKey, SLOTS_PER_BUCKET};

/// Per-request prefetch plan produced by stage 1.
enum Plan {
    /// `Get` served from the overlay: nothing left to prefetch (blob
    /// lines were already issued from the cached key words).
    OverlayHit,
    /// `Get` that must probe PM: peek the fp word in stage 2 and fetch
    /// only matching candidates.
    Probe { seg: PmAddr, h: u64, b: u8 },
    /// Mutation: the bucket line is read unconditionally.
    Mutate { seg: PmAddr, b: u8 },
}

impl Spash {
    /// Execute `ops` with pipeline overlap, appending one result per op.
    pub fn run_batch_pipelined(
        &self,
        ctx: &mut MemCtx,
        ops: &[BatchOp<'_>],
        out: &mut Vec<BatchResult>,
    ) {
        let depth = self.cfg.pipeline_depth.max(1);
        // Reused by every chunk of the batch.
        let mut plans = Vec::with_capacity(depth);
        let mut masks = Vec::with_capacity(depth);
        for chunk in ops.chunks(depth) {
            // Stage 1: route every request and issue first-round
            // prefetches (fp word, and the bucket line for mutations).
            plans.clear();
            for op in chunk {
                let (key, is_get) = match *op {
                    BatchOp::Get(k) => (k, true),
                    BatchOp::Insert(k, _) | BatchOp::Update(k, _) | BatchOp::Remove(k) => {
                        (k, false)
                    }
                };
                let h = hash_key(key);
                if is_get {
                    if let Some(hit) = self.overlay.lookup(ctx, h) {
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
                        plans.push(Plan::OverlayHit);
                        continue;
                    }
                }
                let routed = self.dir.lookup(ctx, h);
                let seg = routed.seg();
                let b = bucket_of(h);
                self.prefetch_probe(ctx, seg, b);
                if is_get {
                    plans.push(Plan::Probe { seg, h, b });
                } else {
                    plans.push(Plan::Mutate { seg, b });
                }
            }
            // Stage 2a: peek each probe's fp word (its line and the
            // speculatively-fetched bucket line are both already in
            // flight from stage 1). Tag-clean negatives stop here — they
            // will resolve from the fp word alone.
            masks.clear();
            masks.resize(plans.len(), 0u8);
            for (i, plan) in plans.iter().enumerate() {
                if let Plan::Probe { seg, h, b } = *plan {
                    let fpw = ctx.read_u64(self.fptable.word_addr(seg, b));
                    let tag = fp8(h);
                    if fp_word::any_match(fpw, tag) {
                        masks[i] = fp_word::slot_candidates(fpw, tag);
                    }
                }
            }
            // Stage 2b: read the bucket line of every tag-matching probe
            // and every mutation (one access each), and prefetch blob
            // lines for the candidate pointer entries (step 4 overlap).
            for (i, plan) in plans.iter().enumerate() {
                let (seg, b, mask) = match *plan {
                    Plan::OverlayHit => continue,
                    Plan::Probe { seg, b, .. } if masks[i] != 0 => (seg, b, masks[i]),
                    Plan::Probe { .. } => continue,
                    Plan::Mutate { seg, b } => (seg, b, 0b1111),
                };
                let line = ctx.read_line(key_addr(seg, b * SLOTS_PER_BUCKET));
                self.prefetch_blobs(ctx, mask, std::array::from_fn(|j| line[2 * j]));
            }
            // Stage 3: run the operations; preparation reads hit the
            // prefetched lines, transaction phases execute serially.
            for op in chunk {
                out.push(run_one(self, ctx, op));
            }
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
