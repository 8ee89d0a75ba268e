//! What every workload shares: the device, phase accounting in virtual
//! time (the repo's own definition, restated here because this crate must
//! not depend on `spash-bench`), the closed-loop executor, the shadow
//! model, and the post-power-failure check.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

use spash::{Spash, SpashConfig};
use spash_alloc::PmAllocator;
use spash_htm::HtmStats;
use spash_index_api::{BatchOp, BatchResult, PersistentIndex};
use spash_pmem::{MemCtx, PmConfig, PmDevice, SpanSnapshot, StatsSnapshot};
use spash_sched::batch::run_batch;
use spash_sched::SchedConfig;

use crate::util::{
    chunk_summary, value_into, value_matches, ChunkClock, KeySpace, BATCH_OPS,
    REF_NOMINAL_NS_PER_LOAD,
};

/// Arena size of every workload's device.
pub const ARENA: u64 = 256 << 20;
/// The top of the arena is never reached by the allocator frontier at
/// these scales (asserted in [`finish`]): the service journal sits at the
/// very top, the microkernels' scratch region just below it.
pub const TOP_RESERVE: u64 = 16 << 20;
/// Live keys read back after recovery (all of them below this).
const READBACK_CAP: usize = 100_000;
const ABSENT_READBACK: u64 = 4_096;
/// Dense indices at and above this are never loaded: absent keys.
pub const ABSENT_BASE: u64 = 1 << 43;

pub fn device(cache_bytes: u64) -> Arc<PmDevice> {
    PmDevice::new(PmConfig {
        arena_size: ARENA,
        cache_capacity: cache_bytes,
        ..PmConfig::default()
    })
}

pub fn format_index(dev: &Arc<PmDevice>) -> Arc<Spash> {
    let mut ctx = dev.ctx();
    Arc::new(Spash::format(&mut ctx, SpashConfig::default()).expect("format a fresh arena"))
}

/// One repeat's numbers. `exact` holds virtual-time and count metrics
/// (asserted bit-identical across repeats); `host` holds host-clock
/// metrics (reported as median and quartiles over repeats).
#[derive(Default, Debug)]
pub struct Repeat {
    pub exact: BTreeMap<&'static str, f64>,
    pub host: BTreeMap<&'static str, f64>,
    /// Results checked against the oracle, and how many were wrong.
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable side notes (sample counts, p99 chunk, ...).
    pub notes: Vec<String>,
    /// `(host ns, ops)` per 4096-op chunk of the timed window, as
    /// measured. Chunk `i` covers the same ops in every repeat.
    pub chunks: Vec<(f64, u64)>,
    /// Calibration factor of the timed window: nominal ÷ measured
    /// reference latency (`util::ref_sample`).
    pub host_scale: f64,
}

impl Repeat {
    /// Host seconds of the timed window (drives the repeat loop).
    pub fn timed_host_s(&self) -> f64 {
        self.chunks.iter().map(|c| c.0).sum::<f64>() / 1e9
    }
}

// --- program counters ----------------------------------------------------

/// Every count the program exposes on a public read surface, at one
/// instant. Deltas over the timed window feed the per-layer ledger.
#[derive(Clone)]
pub struct Counters {
    pub stats: StatsSnapshot,
    pub spans: Vec<(&'static str, SpanSnapshot)>,
    pub htm: HtmStats,
    pub fallbacks: u64,
    pub dir_assists: u64,
    pub dir_awaits: u64,
}

impl Counters {
    pub fn take(dev: &PmDevice, index: &Spash) -> Self {
        dev.quiesce();
        Self {
            stats: dev.snapshot(),
            spans: dev.span_totals(),
            htm: index.htm_stats(),
            fallbacks: index.fallback_count(),
            dir_assists: index.dir_assist_count(),
            dir_awaits: index.dir_await_count(),
        }
    }

    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            stats: self.stats.since(&earlier.stats),
            spans: self
                .spans
                .iter()
                .zip(&earlier.spans)
                .map(|((n, a), (_, b))| (*n, a.since(b)))
                .collect(),
            htm: HtmStats {
                commits: self.htm.commits - earlier.htm.commits,
                conflict_aborts: self.htm.conflict_aborts - earlier.htm.conflict_aborts,
                capacity_aborts: self.htm.capacity_aborts - earlier.htm.capacity_aborts,
                explicit_aborts: self.htm.explicit_aborts - earlier.htm.explicit_aborts,
                nontx_locks: self.htm.nontx_locks - earlier.htm.nontx_locks,
            },
            fallbacks: self.fallbacks - earlier.fallbacks,
            dir_assists: self.dir_assists - earlier.dir_assists,
            dir_awaits: self.dir_awaits - earlier.dir_awaits,
        }
    }

    pub fn span(&self, name: &str) -> SpanSnapshot {
        self.spans
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| *s)
            .unwrap_or_default()
    }
}

// --- virtual-time phases -------------------------------------------------

/// A measured phase in virtual time:
/// `elapsed = max(max task clock (or the contended-line horizon) − phase
/// start, bandwidth floor of the phase's media traffic)`.
#[derive(Clone, Debug, Default)]
pub struct Phase {
    pub ops: u64,
    pub elapsed_ns: u64,
    pub bw_floor_ns: u64,
    pub start: u64,
    pub task_clocks: Vec<u64>,
    /// Scheduler decisions taken (0 for inline phases).
    pub decisions: u64,
}

impl Phase {
    pub fn mops(&self) -> f64 {
        self.ops as f64 * 1e3 / self.elapsed_ns as f64
    }
}

pub type TaskBody<'a> = Box<dyn FnOnce(&mut MemCtx) -> u64 + Send + 'a>;

/// Run `bodies` as one phase: a single body runs inline on the calling
/// thread when `sched` is `None`, otherwise every body is a cooperative
/// task under the seeded scheduler. Contexts are created in task order so
/// simulated thread ids are a pure function of the configuration.
pub fn run_phase<'a>(
    dev: &Arc<PmDevice>,
    sched: Option<&SchedConfig>,
    bodies: Vec<TaskBody<'a>>,
) -> Phase {
    dev.quiesce();
    let before = dev.snapshot();
    let start = dev.vtime_floor();
    let mut decisions = 0;
    let ends: Vec<(u64, u64)> = match sched {
        None => bodies
            .into_iter()
            .map(|body| {
                let mut ctx = dev.ctx();
                ctx.reset_clock();
                let ops = body(&mut ctx);
                (ops, ctx.now())
            })
            .collect(),
        Some(cfg) => {
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
            let out = run_batch(cfg, None, tasks);
            decisions = out.sched.trace.len() as u64;
            out.into_complete()
                .unwrap_or_else(|e| panic!("scheduled phase did not complete: {e}"))
        }
    };
    dev.quiesce();
    let delta = dev.snapshot().since(&before);
    let max_clock = ends
        .iter()
        .map(|e| e.1)
        .max()
        .unwrap_or(start)
        .max(dev.sim_horizon());
    dev.raise_vtime_floor(max_clock);
    let bw_floor_ns = delta.bandwidth_floor_ns(&dev.config().cost);
    Phase {
        ops: ends.iter().map(|e| e.0).sum(),
        elapsed_ns: max_clock.saturating_sub(start).max(bw_floor_ns).max(1),
        bw_floor_ns,
        start,
        task_clocks: ends.iter().map(|e| e.1).collect(),
        decisions,
    }
}

/// Scheduler configuration for phase `phase` of a run seeded by `seed`.
pub fn sched_cfg(seed: u64, phase: u64) -> SchedConfig {
    SchedConfig {
        // Generous livelock valve: a phase crosses millions of sync
        // points legitimately.
        max_steps: 2_000_000_000,
        ..SchedConfig::random(spash_index_api::hash_key(seed ^ phase << 56), 64)
    }
}

// --- ops, chunks, closed-loop execution ----------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Get,
    Insert,
    Update,
    Remove,
}

/// One generated operation. Values are `value_into(key, ver, len)`.
#[derive(Clone, Copy, Debug)]
pub struct Op {
    pub kind: Kind,
    pub key: u64,
    pub ver: u32,
    pub len: u16,
}

/// A generated chunk with its value bytes materialised, so building the
/// program's `BatchOp`s costs nothing inside the host clock.
#[derive(Default)]
pub struct Chunk {
    pub ops: Vec<Op>,
    bytes: Vec<u8>,
    offs: Vec<usize>,
}

impl Chunk {
    pub fn push(&mut self, op: Op) {
        self.offs.push(self.bytes.len());
        if matches!(op.kind, Kind::Insert | Kind::Update) {
            value_into(op.key, op.ver, op.len as usize, &mut self.bytes);
        }
        self.ops.push(op);
    }

    pub fn batch_ops(&self) -> Vec<BatchOp<'_>> {
        self.ops
            .iter()
            .zip(&self.offs)
            .map(|(op, &off)| match op.kind {
                Kind::Get => BatchOp::Get(op.key),
                Kind::Remove => BatchOp::Remove(op.key),
                Kind::Insert => BatchOp::Insert(op.key, &self.bytes[off..off + op.len as usize]),
                Kind::Update => BatchOp::Update(op.key, &self.bytes[off..off + op.len as usize]),
            })
            .collect()
    }
}

/// Where a closed-loop execution reports to.
pub struct Meter<'a> {
    pub clock: &'a ChunkClock,
    /// One sample per op: virtual ns from its batch being issued to the
    /// batch's results. `None` during set-up.
    pub latencies: Option<&'a mut Vec<u64>>,
}

/// Execute `ops` against `index` in [`BATCH_OPS`]-op batches, appending
/// one result per op. The caller starts and stops the meter's host clock.
pub fn exec_closed_loop(
    index: &dyn PersistentIndex,
    ctx: &mut MemCtx,
    ops: &[BatchOp<'_>],
    results: &mut Vec<BatchResult>,
    mut meter: Option<&mut Meter<'_>>,
) {
    results.reserve(ops.len());
    for batch in ops.chunks(BATCH_OPS) {
        let v0 = ctx.now();
        index.run_batch(ctx, batch, results);
        if let Some(m) = meter.as_deref_mut() {
            if let Some(l) = m.latencies.as_deref_mut() {
                l.extend(std::iter::repeat_n(ctx.now() - v0, batch.len()));
            }
            m.clock.tick(batch.len() as u64);
        }
    }
}

// --- shadow model ----------------------------------------------------------

/// The oracle: what the index must contain, as `key → (ver, len)`.
#[derive(Default)]
pub struct Shadow {
    map: HashMap<u64, (u32, u16)>,
    user_bytes: u64,
}

impl Shadow {
    pub fn len(&self) -> u64 {
        self.map.len() as u64
    }

    /// Apply `op` to the model and say whether `res` is what the model
    /// predicts. Exact for a sequential history; for concurrent histories
    /// it is exact as long as the ops leave the model unchanged (gets, and
    /// updates that rewrite the value the key already has).
    pub fn apply(&mut self, op: &Op, res: &BatchResult) -> bool {
        let entry = self.map.get(&op.key).copied();
        match (op.kind, res) {
            (Kind::Get, BatchResult::Got(got)) => match (entry, got) {
                (Some((ver, len)), Some(bytes)) => value_matches(op.key, ver, len as usize, bytes),
                (None, None) => true,
                _ => false,
            },
            (Kind::Insert, BatchResult::Inserted(r)) => {
                if entry.is_none() {
                    self.map.insert(op.key, (op.ver, op.len));
                    self.user_bytes += 8 + op.len as u64;
                }
                r.is_ok() == entry.is_none()
            }
            (Kind::Update, BatchResult::Updated(r)) => {
                if let Some((_, old)) = entry {
                    self.map.insert(op.key, (op.ver, op.len));
                    self.user_bytes = self.user_bytes - old as u64 + op.len as u64;
                }
                r.is_ok() == entry.is_some()
            }
            (Kind::Remove, BatchResult::Removed(hit)) => {
                if let Some((_, old)) = self.map.remove(&op.key) {
                    self.user_bytes -= 8 + old as u64;
                }
                *hit == entry.is_some()
            }
            _ => false,
        }
    }

    /// Check a chunk's results in order; returns the number of wrong ones.
    pub fn check(&mut self, ops: &[Op], results: &[BatchResult]) -> u64 {
        assert_eq!(ops.len(), results.len(), "one result per op");
        ops.iter()
            .zip(results)
            .filter(|(op, res)| !self.apply(op, res))
            .count() as u64
    }
}

/// Set-up load: run `inserts` in closed-loop batches, checking every one
/// against the shadow.
pub fn load(
    index: &dyn PersistentIndex,
    ctx: &mut MemCtx,
    inserts: &[Op],
    clock: &ChunkClock,
    shadow: &mut Shadow,
    rep: &mut Repeat,
) {
    let mut results = Vec::new();
    for part in inserts.chunks(crate::util::GEN_CHUNK_OPS as usize) {
        let mut chunk = Chunk::default();
        for &op in part {
            chunk.push(op);
        }
        results.clear();
        let mut meter = Meter {
            clock,
            latencies: None,
        };
        exec_closed_loop(
            index,
            ctx,
            &chunk.batch_ops(),
            &mut results,
            Some(&mut meter),
        );
        rep.failed += shadow.check(&chunk.ops, &results);
        rep.attempted += chunk.ops.len() as u64;
    }
}

/// An insert of `key` at version 0 with a `len`-byte value.
pub fn insert_op(key: u64, len: u16) -> Op {
    Op {
        kind: Kind::Insert,
        key,
        ver: 0,
        len,
    }
}

/// A clock for the set-up phase: no chunk series is kept from it, only
/// the reference samples that calibrate `setup_s`.
pub fn setup_clock() -> ChunkClock {
    let c = ChunkClock::new();
    c.resume();
    c
}

/// The `setup_s` row: host time since `t0` without the reference
/// sampling itself, calibrated by the samples taken during set-up.
pub fn setup_row(rep: &mut Repeat, t0: Instant, clock: &ChunkClock) {
    clock.pause();
    let raw = t0.elapsed().as_secs_f64() - clock.ref_overhead_ns() as f64 / 1e9;
    rep.host.insert("raw.setup_s", raw);
    rep.host.insert(
        "setup_s",
        raw * REF_NOMINAL_NS_PER_LOAD / clock.ref_ns_per_load(),
    );
}

// --- end of run: space, power failure, recovery, read-back ---------------

/// After the timed phases: space metrics from the allocator census, then
/// `simulate_power_failure()` → `Spash::recover` → `verify_integrity` → a
/// read-back of sampled live keys and absent keys. Consumes the only
/// handle to the pre-crash index; returns the recovered one (`None` if
/// recovery refused the image, which counts every sampled key as lost).
pub fn finish(
    dev: &Arc<PmDevice>,
    index: Arc<Spash>,
    shadow: &Shadow,
    ks: &KeySpace,
    rep: &mut Repeat,
) -> Option<Arc<Spash>> {
    // Space and occupancy at end.
    rep.exact.insert("load_factor", index.load_factor());
    rep.attempted += 1;
    if index.entries() != shadow.len() {
        rep.failed += 1;
        rep.notes.push(format!(
            "entries {} != shadow {}",
            index.entries(),
            shadow.len()
        ));
    }
    let mut cctx = dev.ctx();
    let census = PmAllocator::census(&mut cctx).expect("formatted arena has a superblock");
    let live_bytes: u64 = census.small_slots.iter().map(|s| s.1).sum::<u64>()
        + census.segments.len() as u64 * 256
        + census.large.iter().map(|l| l.1).sum::<u64>()
        + census.regions.iter().map(|r| r.1).sum::<u64>();
    rep.exact.insert(
        "pm_bytes_per_user_byte",
        live_bytes as f64 / shadow.user_bytes as f64,
    );
    rep.exact.insert(
        "alloc.live_bytes_per_key",
        live_bytes as f64 / shadow.len() as f64,
    );
    rep.exact
        .insert("alloc.small_slots_live", census.small_slots.len() as f64);
    let layout = *index.allocator().layout();
    let frontier = index.allocator().frontier_chunks();
    rep.exact.insert("alloc.frontier_chunks", frontier as f64);
    assert!(
        layout.heap_start + frontier * 256 < ARENA - TOP_RESERVE,
        "allocator frontier reached the journal/scratch reserve: grow ARENA"
    );
    drop(cctx);

    // Power failure and recovery.
    drop(Arc::try_unwrap(index).unwrap_or_else(|_| panic!("pre-crash index still shared")));
    dev.simulate_power_failure();
    let mut ctx = dev.ctx();
    ctx.reset_clock();
    let v0 = ctx.now();
    let h0 = Instant::now();
    let recovered = Spash::recover(&mut ctx, SpashConfig::default());
    rep.host
        .insert("core.recover_host_s", h0.elapsed().as_secs_f64());
    rep.exact
        .insert("recover_virt_ms", (ctx.now() - v0) as f64 / 1e6);
    rep.attempted += 1;
    let Some(recovered) = recovered else {
        rep.failed += 1;
        rep.notes.push("Spash::recover returned None".into());
        // Nothing to read back from: every sampled key counts as lost.
        rep.attempted += shadow.len().min(READBACK_CAP as u64);
        rep.failed += shadow.len().min(READBACK_CAP as u64);
        return None;
    };
    rep.attempted += 1;
    if let Err(e) = recovered.verify_integrity(&mut ctx) {
        rep.failed += 1;
        rep.notes.push(format!("verify_integrity: {e:?}"));
    }

    // Read back live keys (sorted, so the sample is deterministic) and
    // keys that were never stored.
    let mut keys: Vec<u64> = shadow.map.keys().copied().collect();
    keys.sort_unstable();
    let stride = keys.len().div_ceil(READBACK_CAP).max(1);
    let mut chunk = Chunk::default();
    for &key in keys.iter().step_by(stride) {
        chunk.push(Op {
            kind: Kind::Get,
            key,
            ver: 0,
            len: 0,
        });
    }
    for j in 0..ABSENT_READBACK {
        chunk.push(Op {
            kind: Kind::Get,
            key: ks.key(ABSENT_BASE + j),
            ver: 0,
            len: 0,
        });
    }
    let mut results = Vec::new();
    exec_closed_loop(&recovered, &mut ctx, &chunk.batch_ops(), &mut results, None);
    let wrong = chunk
        .ops
        .iter()
        .zip(&results)
        .filter(|(op, res)| {
            let want = shadow.map.get(&op.key);
            match (want, res) {
                (Some(&(ver, len)), BatchResult::Got(Some(b))) => {
                    !value_matches(op.key, ver, len as usize, b)
                }
                (None, BatchResult::Got(None)) => false,
                _ => true,
            }
        })
        .count() as u64;
    rep.attempted += chunk.ops.len() as u64;
    rep.failed += wrong;
    rep.notes.push(format!(
        "post-recovery read-back: {} keys, {wrong} wrong",
        chunk.ops.len()
    ));
    raise_floor(dev, ctx.now());
    Some(Arc::new(recovered))
}

pub fn raise_floor(dev: &PmDevice, t: u64) {
    dev.raise_vtime_floor(t.max(dev.sim_horizon()));
}

/// The end-to-end rows every workload derives the same way. The host
/// rows here are this repeat's own; `main` replaces them with the
/// cross-repeat estimate.
pub fn common_rows(rep: &mut Repeat, clock: &ChunkClock, window: &Counters, timed_ops: u64) {
    rep.chunks = clock.chunks();
    rep.host_scale = REF_NOMINAL_NS_PER_LOAD / clock.ref_ns_per_load();
    rep.host
        .insert("raw.ref_ns_per_load", clock.ref_ns_per_load());
    let (med, _, ops_per_s) = chunk_summary(&rep.chunks);
    rep.host.insert("raw.host_ns_per_op", med);
    rep.host.insert("host_ns_per_op", med * rep.host_scale);
    rep.host
        .insert("host_ops_per_s", ops_per_s / rep.host_scale);
    let s = &window.stats;
    rep.exact.insert(
        "pm_cl_per_op",
        (s.cl_reads + s.cl_writes) as f64 / timed_ops as f64,
    );
    rep.exact.insert(
        "pm_media_bytes_per_op",
        (s.media_read_bytes + s.media_write_bytes) as f64 / timed_ops as f64,
    );
}
