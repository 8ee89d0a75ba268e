//! Crash-point sweep driver: exhaustive fault injection over every media
//! write of a seeded workload.
//!
//! The paper's durability claim (§II-C) is that the index is *durably
//! linearizable*: after a power failure at any instant, recovery restores
//! exactly the committed operations. A handful of hand-picked crash sites
//! cannot establish that — this driver proves it point by point:
//!
//! 1. **Record.** Run a seeded workload once on a fresh device and count
//!    its media cacheline writes `W` (the only instants at which the
//!    durable image changes — see `spash_pmem::fault`).
//! 2. **Sweep.** For each scheduled `k ∈ 1..=W` (every `k` when
//!    `W ≤ exhaustive_limit`, strided otherwise): rebuild the device,
//!    arm the fault plan at `k`, replay the same workload until it
//!    unwinds, apply the configured persistence-domain semantics with
//!    `simulate_power_failure`, run the implementation's recovery, and
//!    check the recovered index against a shadow model that knows which
//!    operations committed and which single operation was in flight.
//!
//! The same engine sweeps Spash and all six baselines: an implementation
//! plugs in through [`CrashTarget`] (format + recover + audit closures),
//! so index crates keep their concrete types private.
//!
//! It is also the only such loop in the workspace. *How* the workload
//! reaches the index is a [`SweepDriver`]: [`PerOp`] calls the trait
//! directly, one operation at a time; `spash-service`'s sweep drives the
//! same ops through the batched front-end and adds a journal audit of
//! the raw post-crash image. A driver only says how to run the ops, which
//! of them a (crashed) run reported complete and which were in flight,
//! and optionally what to check on the image before recovery touches it;
//! arming, power failure, recovery, the shadow-model check and the
//! sanitizer gates are the engine's. A sweep that crashes *again* inside
//! `recover()` extends `sweep_one`'s recovery step, once, for every
//! driver.

use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

use spash_pmem::{CrashPointHit, MemCtx, PersistenceDomain, PmConfig, PmDevice};

use crate::history::{fingerprint, OpResult};
use crate::{PersistentIndex, Rng64};

/// One operation of the seeded sweep workload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SweepOp {
    Insert(u64, Vec<u8>),
    Update(u64, Vec<u8>),
    Remove(u64),
    Get(u64),
}

impl SweepOp {
    /// The key this operation touches.
    pub fn key(&self) -> u64 {
        match *self {
            SweepOp::Insert(k, _) | SweepOp::Update(k, _) | SweepOp::Remove(k) | SweepOp::Get(k) => {
                k
            }
        }
    }

    /// Run this operation against `idx` and classify what its caller
    /// observed. The only place a `SweepOp` becomes trait calls: the
    /// sweeps and the sanitizer driver assert the outcome
    /// ([`Self::apply_mirrored`]), `history::Recorder` timestamps it, the
    /// crash-schedule driver ignores it.
    pub fn apply(&self, idx: &dyn PersistentIndex, ctx: &mut MemCtx) -> OpResult {
        match self {
            SweepOp::Insert(k, v) => OpResult::of_insert(idx.insert(ctx, *k, v)),
            SweepOp::Update(k, v) => OpResult::of_update(idx.update(ctx, *k, v)),
            SweepOp::Remove(k) => OpResult::of_remove(idx.remove(ctx, *k)),
            SweepOp::Get(k) => {
                let mut buf = Vec::new();
                let hit = idx.get(ctx, *k, &mut buf);
                OpResult::of_get(hit.then(|| fingerprint(&buf)))
            }
        }
    }

    /// [`Self::apply`] for seeded single-threaded workloads checked
    /// against [`apply_shadow`]: the model mirrors `Dup`/`NotFound`, so
    /// any other refusal (out of room, wrong error) is a harness failure.
    pub fn apply_mirrored(&self, idx: &dyn PersistentIndex, ctx: &mut MemCtx) {
        let r = self.apply(idx, ctx);
        let mirrored = match self {
            SweepOp::Insert(..) => matches!(r, OpResult::Ok | OpResult::Dup),
            SweepOp::Update(..) => matches!(r, OpResult::Ok | OpResult::NotFound),
            SweepOp::Remove(_) | SweepOp::Get(_) => true,
        };
        assert!(mirrored, "workload op on key {} failed: {r:?}", self.key());
    }
}

/// Deterministic workload generator: ~45% inserts, ~25% updates, ~15%
/// removes, ~15% gets over a small key space (so keys collide and exercise
/// splits, merges, and delete-reinsert paths), with value sizes mixing the
/// inline path and the out-of-place blob path.
pub fn gen_workload(seed: u64, n_ops: u64, key_space: u64) -> Vec<SweepOp> {
    let mut rng = Rng64::new(seed);
    let mut ops = Vec::with_capacity(n_ops as usize);
    for i in 0..n_ops {
        let k = 1 + rng.below(key_space);
        let roll = rng.below(100);
        let op = if roll < 45 {
            SweepOp::Insert(k, gen_value(&mut rng, k, i))
        } else if roll < 70 {
            SweepOp::Update(k, gen_value(&mut rng, k, i))
        } else if roll < 85 {
            SweepOp::Remove(k)
        } else {
            SweepOp::Get(k)
        };
        ops.push(op);
    }
    ops
}

/// A value whose bytes are a pure function of `(key, op index)`, so the
/// shadow model can be recomputed for any committed prefix.
fn gen_value(rng: &mut Rng64, key: u64, i: u64) -> Vec<u8> {
    let len = match rng.below(4) {
        0 | 1 => 6,  // inline path
        2 => 24,     // small blob
        _ => 120,    // larger blob, spans cachelines
    };
    (0..len)
        .map(|b| (key ^ i.wrapping_mul(0x9e37) ^ b) as u8)
        .collect()
}

/// What the sweep asserts about the recovered index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckLevel {
    /// Durable linearizability: every committed operation is recovered
    /// exactly; the single in-flight operation may be observed either
    /// not-at-all or fully applied (atomic visibility). The eADR check.
    Exact,
    /// Robustness-only: the durable image may be arbitrarily torn (an ADR
    /// platform reverts every unflushed dirty line), so no data-survival
    /// claim is made. What must still hold: recovery and the structural
    /// audit complete without panicking on *any* torn image — declining
    /// (`None`) or reporting a violation are recorded as statistics, not
    /// failures. The ADR check for eADR-native designs such as Spash,
    /// which deliberately issue no flushes and so lose unflushed data on
    /// an ADR platform (see `tests/durability.rs`).
    NoCorruption,
}

/// What one index implementation plugs into the sweep.
pub struct CrashTarget {
    /// Display name ("Spash", "CCEH", ...).
    pub name: String,
    /// Build a fresh, formatted index on the context's device. The
    /// closure must not share *any* volatile state between calls (caches,
    /// hotness detectors, RNGs): each call models a freshly booted
    /// machine, and shared state that changes flush decisions breaks
    /// replay determinism.
    #[allow(clippy::type_complexity)]
    pub format: Box<dyn Fn(&mut MemCtx) -> Box<dyn PersistentIndex> + Send + Sync>,
    /// Recover an index from the post-crash durable image, auditing it on
    /// the way out. `None` = the image is unrecoverable.
    #[allow(clippy::type_complexity)]
    pub recover: Box<dyn Fn(&mut MemCtx) -> Option<Recovery> + Send + Sync>,
}

/// What a [`CrashTarget::recover`] closure returns.
pub struct Recovery {
    pub index: Box<dyn PersistentIndex>,
    /// Allocations live in the persistent heap but unreachable from the
    /// recovered structure, beyond the implementation's documented
    /// allowance (volatile free-cache slots, the in-flight operation).
    pub leaked_allocs: u64,
    /// A structural-audit violation (reachability, double-use, integrity),
    /// if the implementation found one. Always a sweep failure.
    pub audit_error: Option<String>,
}

/// Sweep parameters.
pub struct SweepConfig {
    /// Platform config; `fidelity` must be `Full` for ADR sweeps.
    pub pm: PmConfig,
    pub seed: u64,
    pub n_ops: u64,
    pub key_space: u64,
    /// Inject at every write when the workload issues at most this many.
    pub exhaustive_limit: u64,
    /// Cap on injected points for strided schedules.
    pub max_points: u64,
    pub check: CheckLevel,
}

impl SweepConfig {
    /// A small-footprint config suitable for CI: a deliberately small CPU
    /// cache so evictions (the hard crash points) happen early and often.
    pub fn ci(domain: PersistenceDomain) -> Self {
        use spash_pmem::CrashFidelity;
        let mut pm = PmConfig::small_test();
        pm.arena_size = 48 << 20;
        pm.cache_capacity = 256 << 10;
        pm.domain = domain;
        pm.fidelity = CrashFidelity::Full;
        Self {
            pm,
            seed: 0xC0FFEE,
            n_ops: 1000,
            key_space: 400,
            exhaustive_limit: 5_000,
            max_points: 250,
            check: match domain {
                PersistenceDomain::Eadr => CheckLevel::Exact,
                PersistenceDomain::Adr => CheckLevel::NoCorruption,
            },
        }
    }
}

/// Per-crash-point record.
#[derive(Clone, Debug)]
pub struct CrashPointStat {
    /// The media write at which the crash fired (1-based).
    pub write_k: u64,
    /// Operations fully completed before the crash.
    pub committed_ops: u64,
    /// Did recovery produce an index?
    pub recovered: bool,
    /// Virtual nanoseconds the recovery context spent in recovery (incl.
    /// audit).
    pub recovery_ns: u64,
    /// Dirty lines reverted by the ADR crash (0 under eADR).
    pub reverted_lines: u64,
    /// Dirty lines flushed by the eADR energy reserve (0 under ADR).
    pub flushed_lines: u64,
    /// Leaked allocations reported by the target's audit.
    pub leaked_allocs: u64,
    /// Did the target's structural audit pass? (Always required under
    /// [`CheckLevel::Exact`]; informational under
    /// [`CheckLevel::NoCorruption`].)
    pub audit_ok: bool,
}

/// The outcome of a full sweep.
pub struct SweepReport {
    pub target: String,
    pub domain: PersistenceDomain,
    /// Media writes the recorded (uninjected) run issued.
    pub total_writes: u64,
    pub points: Vec<CrashPointStat>,
    /// Crash points whose recovery declined (only legal under
    /// [`CheckLevel::NoCorruption`]).
    pub unrecovered: u64,
    /// Check violations, capped at [`SweepReport::MAX_FAILURES`] details.
    pub failures: Vec<String>,
    /// Total violations including those past the cap.
    pub failure_count: u64,
}

impl SweepReport {
    pub const MAX_FAILURES: usize = 20;

    pub fn is_ok(&self) -> bool {
        self.failure_count == 0
    }

    /// Record one violation, prefixed with the target name.
    fn fail(&mut self, msg: String) {
        if self.failures.len() < Self::MAX_FAILURES {
            self.failures.push(format!("{}: {msg}", self.target));
        }
        self.failure_count += 1;
    }

    /// The sanitizer gate shared by the record pass and every recovery:
    /// each retained violation, and the count past the retention cap, is
    /// a sweep failure.
    fn gate_sanitizer(&mut self, dev: &PmDevice, stage: &str) {
        let Some(san) = dev.san() else { return };
        san.final_check();
        let r = san.report();
        for v in &r.violations {
            self.fail(format!("sanitizer ({stage}): {v}"));
        }
        if r.dropped > 0 {
            self.fail(format!(
                "sanitizer ({stage}): {} further violation(s) dropped",
                r.dropped
            ));
        }
    }
}

/// The shadow model: apply a committed prefix with the same semantics the
/// trait promises.
pub fn apply_shadow(model: &mut HashMap<u64, Vec<u8>>, op: &SweepOp) {
    match op {
        SweepOp::Insert(k, v) => {
            model.entry(*k).or_insert_with(|| v.clone());
        }
        SweepOp::Update(k, v) => {
            if let Some(slot) = model.get_mut(k) {
                *slot = v.clone();
            }
        }
        SweepOp::Remove(k) => {
            model.remove(k);
        }
        SweepOp::Get(_) => {}
    }
}

/// The injection schedule: every write when the run is short, else an even
/// stride that always includes the first and last write.
pub fn schedule(total_writes: u64, exhaustive_limit: u64, max_points: u64) -> Vec<u64> {
    if total_writes == 0 {
        return Vec::new();
    }
    if total_writes <= exhaustive_limit {
        return (1..=total_writes).collect();
    }
    let n = max_points.clamp(2, total_writes);
    let mut ks: Vec<u64> = (0..n)
        .map(|i| 1 + i * (total_writes - 1) / (n - 1))
        .collect();
    ks.dedup();
    ks
}

/// Which workload ops a (possibly crashed) run got through, by index
/// into the workload.
#[derive(Debug, PartialEq, Eq)]
pub struct Progress {
    /// Ops the run reported complete, ascending. Applying them to the
    /// shadow model in this order must reproduce every key's state.
    pub committed: Vec<usize>,
    /// Ops begun but not reported complete when the run ended, in
    /// execution order: one op for [`PerOp`], a whole batch for the
    /// service driver.
    pub in_flight: Vec<usize>,
}

/// How a sweep gets its workload to the index — the one part of the loop
/// that differs between sweeping an index and sweeping it behind a
/// front-end (see the module docs).
pub trait SweepDriver {
    /// Prefix of the report's target name.
    const PREFIX: &'static str;
    /// What one run observed; a fresh one per record/replay pass.
    type Log: Default;

    /// Run all of `ops` against the freshly formatted `idx`, recording
    /// progress in `log`. Unwinds with [`CrashPointHit`] when the armed
    /// write fires; `log` must be accurate at every media write.
    fn run(
        &self,
        idx: &Arc<dyn PersistentIndex>,
        ctx: &mut MemCtx,
        ops: &[SweepOp],
        log: &mut Self::Log,
    );

    /// Read `log` back as workload op indices.
    fn progress(&self, log: &Self::Log, n_ops: usize) -> Progress;

    /// Audit the raw post-crash image before recovery touches it; every
    /// returned finding is a sweep failure in both check levels.
    fn audit_image(&self, _dev: &Arc<PmDevice>, _log: &Self::Log) -> Vec<String> {
        Vec::new()
    }
}

/// The index-level driver: one trait call per op; the log is the number
/// of ops completed.
pub struct PerOp;

impl SweepDriver for PerOp {
    const PREFIX: &'static str = "";
    type Log = usize;

    fn run(
        &self,
        idx: &Arc<dyn PersistentIndex>,
        ctx: &mut MemCtx,
        ops: &[SweepOp],
        done: &mut usize,
    ) {
        for op in ops {
            op.apply_mirrored(idx.as_ref(), ctx);
            *done += 1;
        }
    }

    fn progress(&self, done: &usize, n_ops: usize) -> Progress {
        Progress {
            committed: (0..*done).collect(),
            in_flight: (*done..n_ops).take(1).collect(),
        }
    }
}

/// Run the full record-then-sweep procedure for one target, one trait
/// call per operation.
pub fn run_sweep(target: &CrashTarget, cfg: &SweepConfig) -> SweepReport {
    run_sweep_with(&PerOp, target, cfg)
}

/// One pass of the workload: format a fresh index on a fresh device,
/// optionally arm the fault plan at write `arm_at`, and let the driver
/// run until it finishes or unwinds. Returns the device, the driver's
/// log and how the run ended.
fn play<D: SweepDriver>(
    driver: &D,
    target: &CrashTarget,
    cfg: &SweepConfig,
    ops: &[SweepOp],
    arm_at: Option<u64>,
) -> (Arc<PmDevice>, D::Log, std::thread::Result<()>) {
    let dev = PmDevice::new(cfg.pm.clone());
    let mut ctx = dev.ctx();
    let idx: Arc<dyn PersistentIndex> = Arc::from((target.format)(&mut ctx));
    dev.faults().reset(); // count workload writes only, not format
    if let Some(k) = arm_at {
        dev.faults().arm(k);
    }
    let mut log = D::Log::default();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        driver.run(&idx, &mut ctx, ops, &mut log)
    }));
    dev.faults().disarm();
    // `idx` drops here: volatile index state dies with the "machine".
    (dev, log, outcome)
}

/// The record → schedule → arm → replay → power-fail → recover → audit →
/// sanitizer-gate loop, for any [`SweepDriver`].
pub fn run_sweep_with<D: SweepDriver>(
    driver: &D,
    target: &CrashTarget,
    cfg: &SweepConfig,
) -> SweepReport {
    spash_pmem::fault::silence_crash_point_panics();
    let ops = gen_workload(cfg.seed, cfg.n_ops, cfg.key_space);
    let mut report = SweepReport {
        target: format!("{}{}", D::PREFIX, target.name),
        domain: cfg.pm.domain,
        total_writes: 0,
        points: Vec::new(),
        unrecovered: 0,
        failures: Vec::new(),
        failure_count: 0,
    };

    // Record: count the workload's media writes on an uninjected run.
    // When `cfg.pm.san` is set this pass doubles as the sanitizer's
    // clean-workload gate: any persistence-ordering violation over the
    // full uninjected run is a hard sweep failure.
    let (dev, log, outcome) = play(driver, target, cfg, &ops, None);
    if let Err(payload) = outcome {
        resume_unwind(payload);
    }
    let progress = driver.progress(&log, ops.len());
    if progress.committed.len() != ops.len() || !progress.in_flight.is_empty() {
        report.fail(format!(
            "record pass completed {} of {} ops ({} left in flight)",
            progress.committed.len(),
            ops.len(),
            progress.in_flight.len()
        ));
    }
    report.gate_sanitizer(&dev, "record pass");
    report.total_writes = dev.faults().media_writes();

    for k in schedule(report.total_writes, cfg.exhaustive_limit, cfg.max_points) {
        sweep_one(driver, target, cfg, &ops, k, &mut report);
    }
    report
}

/// Inject a crash at write `k`, recover, and check.
fn sweep_one<D: SweepDriver>(
    driver: &D,
    target: &CrashTarget,
    cfg: &SweepConfig,
    ops: &[SweepOp],
    k: u64,
    report: &mut SweepReport,
) {
    let (dev, log, outcome) = play(driver, target, cfg, ops, Some(k));
    match outcome {
        Ok(()) => {
            // The armed write never happened: the replay diverged from the
            // recorded run. Determinism is a prerequisite for the sweep.
            report.fail(format!(
                "write {k} never fired on replay ({} of {} writes) — non-deterministic run",
                dev.faults().media_writes(),
                report.total_writes,
            ));
            return;
        }
        Err(payload) if payload.downcast_ref::<CrashPointHit>().is_some() => {}
        Err(payload) => {
            let msg = panic_text(payload.as_ref());
            report.fail(format!(
                "replay at write {k} panicked outside the fault plan: {msg}"
            ));
            return;
        }
    }

    let crash = dev.simulate_power_failure();
    // Pre-crash workload violations are the record pass's findings
    // replayed; drop them so the injected runs gate the recovery path
    // only. The crash itself already reset the shadow state (on_crash).
    if let Some(san) = dev.san() {
        san.clear_violations();
    }
    let progress = driver.progress(&log, ops.len());
    let committed = progress.committed.len();
    let mut stat = CrashPointStat {
        write_k: k,
        committed_ops: committed as u64,
        recovered: false,
        recovery_ns: 0,
        reverted_lines: crash.reverted_lines.len() as u64,
        flushed_lines: crash.flushed_lines.len() as u64,
        leaked_allocs: 0,
        audit_ok: true,
    };

    // The driver's image audit needs no index recovery, so a declined
    // recovery cannot mask what it finds.
    for finding in driver.audit_image(&dev, &log) {
        report.fail(format!("{finding} (crash at write {k})"));
    }

    // Recover on a fresh context, timing the implementation's work on
    // its virtual clock.
    let mut rctx = dev.ctx();
    let t0 = rctx.now();
    let recovery = catch_unwind(AssertUnwindSafe(|| (target.recover)(&mut rctx)));
    stat.recovery_ns = rctx.now() - t0;

    let recovery = match recovery {
        Ok(r) => r,
        Err(payload) => {
            let msg = panic_text(payload.as_ref());
            report.fail(format!(
                "recovery panicked at write {k} ({committed} ops committed): {msg}"
            ));
            report.points.push(stat);
            return;
        }
    };

    match recovery {
        None => {
            if cfg.check == CheckLevel::Exact {
                report.fail(format!(
                    "unrecoverable image at write {k} ({committed} ops committed)"
                ));
            }
            report.unrecovered += 1;
        }
        Some(rec) => {
            stat.recovered = true;
            stat.leaked_allocs = rec.leaked_allocs;
            if let Some(err) = rec.audit_error {
                stat.audit_ok = false;
                // A torn ADR image may legitimately fail the structural
                // audit; only the exact (eADR) check treats it as fatal.
                if cfg.check == CheckLevel::Exact {
                    report.fail(format!("audit failed at write {k}: {err}"));
                }
            }
            if cfg.check == CheckLevel::Exact {
                check_recovered(
                    cfg,
                    ops,
                    &progress,
                    k,
                    rec.index.as_ref(),
                    &mut rctx,
                    report,
                );
            }
            // Recovery-path ordering gate: anything recovery wrote must
            // be persisted (or forgiven) by the time it hands the index
            // back. Violations here are hard failures in both domains'
            // check levels — a recovery that leaves repairs unflushed
            // re-breaks on the next crash.
            report.gate_sanitizer(&dev, &format!("recovery at write {k}"));
        }
    }
    report.points.push(stat);
}

/// The states in which a crash may legally leave each key the in-flight
/// ops touch, beyond its committed state: a crash can land between any
/// two of them (or after the last, before it is reported complete), so a
/// touched key may be observed as of the end of any prefix. With one op
/// in flight this is exactly "its key may show the post-state".
fn allowed_states<'a>(
    model: &HashMap<u64, Vec<u8>>,
    in_flight: impl Iterator<Item = &'a SweepOp>,
) -> HashMap<u64, Vec<Option<Vec<u8>>>> {
    let mut allowed: HashMap<u64, Vec<Option<Vec<u8>>>> = HashMap::new();
    let mut cursor = model.clone();
    for op in in_flight {
        apply_shadow(&mut cursor, op);
        let key = op.key();
        allowed
            .entry(key)
            .or_default()
            .push(cursor.get(&key).cloned());
    }
    allowed
}

/// The exact content check: every key matches the committed ops' shadow
/// state, or — for keys the in-flight ops touch — one of
/// [`allowed_states`].
fn check_recovered(
    cfg: &SweepConfig,
    ops: &[SweepOp],
    progress: &Progress,
    k: u64,
    rec: &dyn PersistentIndex,
    ctx: &mut MemCtx,
    report: &mut SweepReport,
) {
    let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
    for &i in &progress.committed {
        apply_shadow(&mut model, &ops[i]);
    }
    let allowed = allowed_states(&model, progress.in_flight.iter().map(|&i| &ops[i]));

    let mut buf = Vec::new();
    for key in 1..=cfg.key_space + 3 {
        buf.clear();
        let actual = rec.get(ctx, key, &mut buf).then(|| buf.clone());
        let expect = model.get(&key);
        let in_flight = allowed.get(&key);
        let ok = actual.as_ref() == expect
            || in_flight.is_some_and(|states| states.contains(&actual));
        if !ok {
            report.fail(format!(
                "write {k} ({} ops committed): key {key} recovered as {:?}, expected {:?}{}",
                progress.committed.len(),
                actual.as_ref().map(|v| summarize(v)),
                expect.map(|v| summarize(v)),
                if in_flight.is_some() {
                    " (or an in-flight prefix state)"
                } else {
                    ""
                },
            ));
        }
    }
}

fn summarize(v: &[u8]) -> String {
    let head: Vec<u8> = v.iter().take(8).copied().collect();
    format!("{}B:{head:02x?}", v.len())
}

/// Best-effort text of a caught panic payload (shared with the
/// crash-schedule driver).
pub fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_generation_is_deterministic() {
        let a = gen_workload(7, 200, 32);
        let b = gen_workload(7, 200, 32);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            match (x, y) {
                (SweepOp::Insert(k1, v1), SweepOp::Insert(k2, v2)) => {
                    assert_eq!((k1, v1), (k2, v2))
                }
                (SweepOp::Update(k1, v1), SweepOp::Update(k2, v2)) => {
                    assert_eq!((k1, v1), (k2, v2))
                }
                (SweepOp::Remove(k1), SweepOp::Remove(k2)) => assert_eq!(k1, k2),
                (SweepOp::Get(k1), SweepOp::Get(k2)) => assert_eq!(k1, k2),
                (x, y) => panic!("op mismatch: {x:?} vs {y:?}"),
            }
        }
    }

    #[test]
    fn schedule_is_exhaustive_when_short() {
        assert_eq!(schedule(5, 10, 100), vec![1, 2, 3, 4, 5]);
        assert_eq!(schedule(0, 10, 100), Vec::<u64>::new());
    }

    #[test]
    fn schedule_strides_when_long_and_covers_both_ends() {
        let ks = schedule(100_000, 5_000, 200);
        assert!(ks.len() <= 200);
        assert_eq!(*ks.first().unwrap(), 1);
        assert_eq!(*ks.last().unwrap(), 100_000);
        assert!(ks.windows(2).all(|w| w[0] < w[1]));
    }

    /// The index-level rule "the in-flight op's key may be observed pre-
    /// or post-op" is the one-element case of the batch-prefix allowance.
    #[test]
    fn single_op_allowance_is_the_one_element_batch_prefix_allowance() {
        let model: HashMap<u64, Vec<u8>> = [(1, vec![1]), (2, vec![2])].into_iter().collect();
        for op in [
            SweepOp::Insert(3, vec![9]),
            SweepOp::Insert(1, vec![9]), // duplicate: post == pre
            SweepOp::Update(2, vec![7]),
            SweepOp::Remove(1),
            SweepOp::Get(2),
        ] {
            let mut post = model.clone();
            apply_shadow(&mut post, &op);
            let allowed = allowed_states(&model, std::iter::once(&op));
            let single: HashMap<u64, Vec<Option<Vec<u8>>>> =
                [(op.key(), vec![post.get(&op.key()).cloned()])]
                    .into_iter()
                    .collect();
            assert_eq!(allowed, single, "{op:?}");
        }
        // A longer batch widens it to every prefix state, per key.
        let batch = [
            SweepOp::Remove(1),
            SweepOp::Insert(1, vec![5]),
            SweepOp::Update(2, vec![6]),
        ];
        let allowed = allowed_states(&model, batch.iter());
        assert_eq!(allowed[&1], vec![None, Some(vec![5])]);
        assert_eq!(allowed[&2], vec![Some(vec![6])]);
    }

    #[test]
    fn per_op_progress_names_the_op_after_the_completed_prefix() {
        assert_eq!(
            PerOp.progress(&2, 5),
            Progress {
                committed: vec![0, 1],
                in_flight: vec![2]
            }
        );
        assert_eq!(
            PerOp.progress(&5, 5),
            Progress {
                committed: (0..5).collect(),
                in_flight: vec![]
            }
        );
    }

    #[test]
    fn shadow_model_matches_trait_semantics() {
        let mut m = HashMap::new();
        apply_shadow(&mut m, &SweepOp::Insert(1, vec![1]));
        apply_shadow(&mut m, &SweepOp::Insert(1, vec![2])); // duplicate: no-op
        assert_eq!(m[&1], vec![1]);
        apply_shadow(&mut m, &SweepOp::Update(1, vec![3]));
        assert_eq!(m[&1], vec![3]);
        apply_shadow(&mut m, &SweepOp::Update(2, vec![9])); // absent: no-op
        assert!(!m.contains_key(&2));
        apply_shadow(&mut m, &SweepOp::Remove(1));
        assert!(m.is_empty());
    }
}
