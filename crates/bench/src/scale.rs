//! The `spash-bench scale` suite: the paper's headline scaling figures
//! (Figs 5–8 — throughput vs threads, uniform and zipfian, eADR and ADR)
//! regenerated **bit-deterministically** under the cooperative scheduler
//! (DESIGN.md "Deterministic scalability sweep").
//!
//! Where `spash-bench perf` is single-threaded by design, this suite runs
//! every index at a ladder of *virtual* thread counts: N tasks driven to
//! completion by [`spash_sched::batch::run_batch`] under a fixed
//! per-phase seed. Contention is modelled in virtual time (RMW line
//! tokens, `VLock` handoff, HTM aborts), the interleaving is a pure
//! function of the scheduler seed, and so every row — throughput, PM
//! counters, span attribution — is byte-stable and `spash-bench compare`
//! gates the whole curve exactly.
//!
//! Two accounting consequences of cooperative execution:
//!
//! * `host_ns` is recorded as 0. Under the baton scheduler, host wall
//!   time measures baton handoffs, not the workload; zeroing it (and the
//!   informational `created_unix` header) makes the report byte-identical
//!   across same-seed runs.
//! * `elapsed_ns = max(max per-task virtual clock, sim horizon,
//!   bandwidth floor)` — the same `harness::PhaseMeter` as the inline
//!   runner, so Mops/s is comparable with `perf`.
//!
//! Each cell (index × domain × thread count) runs three phases on one
//! fresh device: a partitioned **load**, a partitioned-**uniform** run
//! (disjoint key slices — the contention-free end), and a shared-**zipf**
//! run (every task skews into the same hot set — the contended end where
//! lock-based baselines collapse and HTM pays off). Crossover points and
//! per-series throughput peaks are computed from the rows and stored as
//! first-class report assertions, gated exactly by `compare`.

use std::collections::HashMap;
use std::sync::Arc;

use spash_index_api::crashpoint::{CrashTarget, SweepOp};
use spash_index_api::history::{self, fingerprint, HistOp, Recorder};
use spash_index_api::PersistentIndex;
use spash_pmem::{MemCtx, PersistenceDomain, PmDevice};
use spash_sched::SchedConfig;
use spash_workloads::{load_keys, Distribution, Mix, OpStream, ValueSize, WorkloadConfig};

use crate::experiments::{load, mix};
use crate::harness::{phase_sched, run_scheduled};
use crate::indexes::crash_targets;
use crate::knobs;
use crate::perf::{domain_label, short_rev, suite_pm};
use crate::report::{join_ladder, BenchReport, ExperimentRow};
use crate::PhaseResult;

/// Suite scale. Like `perf`, deliberately small: contention shapes show
/// up at any scale, and the gate's job is pinning them, not asymptotics.
#[derive(Clone, Debug)]
pub struct ScaleConfig {
    /// Keys loaded per cell (key space `1..=keys`).
    pub keys: u64,
    /// Total run-phase ops per cell, split evenly over the tasks.
    pub ops: u64,
    /// The thread-count ladder (virtual tasks per cell).
    pub threads: Vec<usize>,
    /// Workload seed (scheduler seeds derive from it per cell × phase).
    pub seed: u64,
    pub value_bytes: usize,
    /// Scheduler preemption budget per phase: blocking events always
    /// switch for free; this bounds extra preemptions at non-blocking
    /// sync points.
    pub preemptions: u32,
}

impl ScaleConfig {
    /// The pinned CI ladder. Changing any of these invalidates the
    /// committed `bench/baseline_scale.json` (compare fails on the config
    /// echo).
    pub fn default_suite() -> Self {
        Self {
            keys: 4_000,
            ops: 2_000,
            threads: vec![1, 2, 4, 8],
            seed: 0x5eed,
            value_bytes: 16,
            preemptions: 64,
        }
    }

    /// Tiny variant for tier-1 tests.
    pub fn test_small() -> Self {
        Self {
            keys: 600,
            ops: 240,
            threads: vec![2, 8],
            seed: 0x5eed,
            value_bytes: 16,
            preemptions: 32,
        }
    }

    pub fn from_env() -> Self {
        let d = Self::default_suite();
        Self {
            keys: knobs::int("SPASH_SCALE_KEYS", d.keys),
            ops: knobs::int("SPASH_SCALE_OPS", d.ops),
            threads: knobs::list("SPASH_SCALE_THREADS", &d.threads),
            seed: knobs::int("SPASH_SCALE_SEED", d.seed),
            value_bytes: d.value_bytes,
            preemptions: knobs::int("SPASH_SCALE_PREEMPTIONS", d.preemptions as u64) as u32,
        }
    }
}

// --- one cell: index × domain × thread count ----------------------------

/// Rows plus the per-task op counts behind each row's `ops` total.
pub struct CellResult {
    pub rows: Vec<ExperimentRow>,
    /// `(phase, per-task ops)`, in phase order.
    pub task_ops: Vec<(&'static str, Vec<u64>)>,
}

/// Run one index at one domain and thread count: partitioned load,
/// partitioned-uniform run, shared-zipf run, all on the same device.
pub fn run_cell(
    target: &CrashTarget,
    target_idx: usize,
    domain: PersistenceDomain,
    threads: usize,
    cfg: &ScaleConfig,
) -> Result<CellResult, String> {
    assert!(threads >= 1);
    let dev = PmDevice::new(suite_pm(domain));
    let mut fmt_ctx = dev.ctx();
    let index: Arc<dyn PersistentIndex> = Arc::from((target.format)(&mut fmt_ctx));
    drop(fmt_ctx);

    let wl = |dist: Distribution, mix: Mix| WorkloadConfig {
        seed: cfg.seed,
        ..WorkloadConfig::new(cfg.keys, dist, mix, ValueSize::Fixed(cfg.value_bytes))
    };
    let didx = usize::from(domain == PersistenceDomain::Adr);
    let sched_for =
        |phase| phase_sched(cfg.seed, [target_idx, didx, threads], phase, cfg.preemptions);
    let point = format!("{}/t{}", domain_label(domain), threads);
    let name = target.name.clone();
    let fail = |phase: &str, e: String| format!("{name}/{point}/{phase}: {e}");

    let mut rows = Vec::new();
    let mut task_ops = Vec::new();
    let mut push = |phase: &'static str, r: PhaseResult, per_task: Vec<u64>| {
        assert_eq!(
            r.ops,
            per_task.iter().sum::<u64>(),
            "{name}/{point}/{phase}: total ops != sum of per-task ops"
        );
        rows.push(ExperimentRow::from_phase(
            "scale",
            &name,
            &point,
            phase,
            "mops",
            r.mops(),
            threads,
            &r,
        ));
        task_ops.push((phase, per_task));
    };

    // Load: every task inserts its own rank chunk (same chunking as the
    // partitioned run streams), concurrently under the scheduler.
    let load_cfg = wl(Distribution::Uniform, Mix::BALANCED);
    let (r, per_task) = load(&dev, &sched_for(0), index.as_ref(), &load_cfg, threads)
        .map_err(|e| fail("load", e))?;
    if r.ops != cfg.keys {
        return Err(fail("load", format!("out of memory after {} keys", r.ops)));
    }
    push("load", r, per_task);

    // Run phases: partitioned-uniform (disjoint slices, no key sharing)
    // then shared-zipf (every task hammers the same hot ranks).
    for (pi, (phase, dist, shared)) in [
        ("uniform", Distribution::Uniform, false),
        ("zipf", Distribution::Zipfian, true),
    ]
    .into_iter()
    .enumerate()
    {
        let rcfg = wl(dist, Mix::BALANCED);
        let per_ops = (cfg.ops / threads as u64).max(1);
        let streams = (0..threads as u64)
            .map(|t| {
                if shared {
                    OpStream::new(&rcfg, t)
                } else {
                    OpStream::partitioned(&rcfg, t, threads as u64)
                }
            })
            .collect();
        let (r, per_task) = mix(&dev, &sched_for(1 + pi), index.as_ref(), streams, per_ops)
            .map_err(|e| fail(phase, e))?;
        push(phase, r, per_task);
    }

    Ok(CellResult { rows, task_ops })
}

// --- the full sweep + derived claims ------------------------------------

/// Run the full sweep: every target × {eADR, ADR} × ladder × phases, then
/// derive the crossover/peak assertions. The report is byte-identical
/// across same-seed runs (`created_unix` pinned to 0, `host_ns` zeroed).
pub fn run_suite(cfg: &ScaleConfig) -> Result<BenchReport, String> {
    let mut report = BenchReport::new(&short_rev());
    report.created_unix = 0;
    report.set_config("suite", "scale");
    report.set_config("keys", cfg.keys);
    report.set_config("ops", cfg.ops);
    report.set_config("seed", format!("{:#x}", cfg.seed));
    report.set_config("threads", join_ladder(&cfg.threads));
    report.set_config("value_bytes", cfg.value_bytes);
    report.set_config("preemptions", cfg.preemptions);

    for (ti, target) in crash_targets().iter().enumerate() {
        for domain in [PersistenceDomain::Eadr, PersistenceDomain::Adr] {
            for &threads in &cfg.threads {
                let cell = run_cell(target, ti, domain, threads, cfg)?;
                report.rows.extend(cell.rows);
            }
            println!(
                "# scale: {} [{}] done ({} thread points)",
                target.name,
                domain_label(domain),
                cfg.threads.len()
            );
        }
    }
    derive_assertions(&mut report, cfg);
    Ok(report)
}

/// Throughput of `series` at ladder point `t` for one domain × phase.
fn mops_at(report: &BenchReport, series: &str, domain: &str, phase: &str, t: usize) -> Option<f64> {
    report
        .rows
        .iter()
        .find(|r| {
            r.series == series && r.phase == phase && r.point == format!("{domain}/t{t}")
        })
        .map(|r| r.value)
}

/// Every roster series name, and which of them is Spash.
fn series_names() -> (Vec<String>, String) {
    let series: Vec<String> = crash_targets().iter().map(|t| t.name.clone()).collect();
    let spash = series
        .iter()
        .find(|s| s.starts_with("Spash"))
        .cloned()
        .expect("Spash series present");
    (series, spash)
}

/// Compute the headline claims and store them as report assertions:
///
/// * `crossover/<domain>/<phase>/<baseline>` — the smallest ladder thread
///   count at which Spash's throughput meets or beats the baseline's
///   (`"never"` if it never does): where the curves cross.
/// * `peak/<domain>/<phase>/<series>` — the ladder point of each series'
///   throughput maximum. A peak below the ladder top is a collapse: more
///   threads, less throughput (the lock-based baselines under zipf).
///
/// These are *derived* from bit-deterministic rows, so they are
/// themselves deterministic and `compare` gates them exactly.
fn derive_assertions(report: &mut BenchReport, cfg: &ScaleConfig) {
    let (series, spash) = series_names();
    let mut claims: Vec<(String, String)> = Vec::new();
    for domain in ["eadr", "adr"] {
        for phase in ["uniform", "zipf"] {
            for s in &series {
                // Peak: first ladder point attaining the max throughput.
                let peak = cfg
                    .threads
                    .iter()
                    .copied()
                    .max_by(|&a, &b| {
                        let ma = mops_at(report, s, domain, phase, a).unwrap_or(0.0);
                        let mb = mops_at(report, s, domain, phase, b).unwrap_or(0.0);
                        // Strict comparison biased to the *smaller* t on
                        // ties, deterministically.
                        ma.partial_cmp(&mb)
                            .unwrap()
                            .then(b.cmp(&a))
                    })
                    .unwrap_or(1);
                claims.push((format!("peak/{domain}/{phase}/{s}"), peak.to_string()));
                if *s == spash {
                    continue;
                }
                let crossover = cfg
                    .threads
                    .iter()
                    .copied()
                    .find(|&t| {
                        let sp = mops_at(report, &spash, domain, phase, t).unwrap_or(0.0);
                        let ba = mops_at(report, s, domain, phase, t).unwrap_or(f64::MAX);
                        sp >= ba
                    })
                    .map(|t| t.to_string())
                    .unwrap_or_else(|| "never".into());
                claims.push((format!("crossover/{domain}/{phase}/{s}"), crossover));
            }
        }
    }
    for (k, v) in claims {
        report.set_assertion(&k, v);
    }
}

/// Structural check of the derived claims (`spash-bench scale --assert`):
/// the shape the paper predicts, independent of exact numbers.
///
/// * every crossover/peak assertion exists for every domain × phase;
/// * Spash scales: its uniform-phase peak is at the top of the ladder in
///   both domains;
/// * Spash wins contended zipf at the ladder top in eADR: every baseline
///   has a crossover (≠ "never").
pub fn check_claims(report: &BenchReport, cfg: &ScaleConfig) -> Vec<String> {
    let mut bad = Vec::new();
    let (series, spash) = series_names();
    let top = cfg.threads.iter().copied().max().unwrap_or(1).to_string();
    for domain in ["eadr", "adr"] {
        for phase in ["uniform", "zipf"] {
            for s in &series {
                if report
                    .assertion_value(&format!("peak/{domain}/{phase}/{s}"))
                    .is_none()
                {
                    bad.push(format!("missing assertion peak/{domain}/{phase}/{s}"));
                }
                if *s != spash
                    && report
                        .assertion_value(&format!("crossover/{domain}/{phase}/{s}"))
                        .is_none()
                {
                    bad.push(format!("missing assertion crossover/{domain}/{phase}/{s}"));
                }
            }
        }
        let k = format!("peak/{domain}/uniform/{spash}");
        match report.assertion_value(&k) {
            Some(v) if v == top => {}
            v => bad.push(format!("{k}: Spash must peak at the ladder top {top}, got {v:?}")),
        }
    }
    for s in series.iter().filter(|s| **s != spash) {
        let k = format!("crossover/eadr/zipf/{s}");
        if report.assertion_value(&k) == Some("never") {
            bad.push(format!("{k}: Spash never overtakes {s} under contended zipf"));
        }
    }
    bad
}

// --- linearizability check of the batch driver --------------------------

/// One tiny scheduled `scale` configuration per index, with every
/// completed operation recorded and checked against the sequential map
/// model — the multi-thread bench driver itself is lin-checked, not just
/// the hand-written explore scenarios. Runs in CI's sched-explore job
/// (`spash-bench scale --lin-check`).
pub struct LinCheckConfig {
    pub threads: usize,
    pub ops_per_thread: u64,
    /// Key space — small so tasks collide on keys.
    pub keys: u64,
    /// Ranks `0..prefill` of the load permutation are inserted
    /// sequentially before the scheduled run (the checker's initial
    /// state).
    pub prefill: u64,
    pub seed: u64,
    pub preemptions: u32,
    /// Distinct scheduler seeds checked per index.
    pub schedules: u64,
}

impl Default for LinCheckConfig {
    fn default() -> Self {
        Self {
            threads: 3,
            ops_per_thread: 8,
            keys: 12,
            prefill: 6,
            seed: 0x5ca1e,
            preemptions: 24,
            schedules: 4,
        }
    }
}

/// Run the lin-check for one target at one scheduler seed. Returns the
/// recorded history length on success.
pub fn lin_check_target(
    target: &CrashTarget,
    cfg: &LinCheckConfig,
    schedule_seed: u64,
) -> Result<usize, String> {
    let dev = PmDevice::new(suite_pm(PersistenceDomain::Eadr));
    let mut ctx = dev.ctx();
    let index: Arc<dyn PersistentIndex> = Arc::from((target.format)(&mut ctx));

    // The run draws from the same generator family as the sweep: a
    // colliding mix over a tiny key space, zipfian so tasks pile onto the
    // same hot keys.
    let wcfg = WorkloadConfig {
        seed: cfg.seed,
        ..WorkloadConfig::new(
            cfg.keys,
            Distribution::Zipfian,
            Mix::COLLIDING,
            ValueSize::Inline,
        )
    };

    // Sequential prefill builds the checker's initial model state.
    let mut initial: HashMap<u64, u64> = HashMap::new();
    let keys = load_keys(&wcfg);
    let mut vals = OpStream::new(&wcfg, 0);
    for &k in keys.iter().take(cfg.prefill as usize) {
        let v = vals.expected_value(k);
        if index.insert(&mut ctx, k, &v).is_ok() {
            initial.insert(k, fingerprint(&v));
        }
    }
    drop(ctx);

    let recorder = Recorder::new();
    // lint:allow(std-sync): host-side history buffer; never held across a
    // sync point (same discipline as spash-sched's lin driver).
    let hist = Arc::new(std::sync::Mutex::new(Vec::<HistOp>::new()));
    let bodies: Vec<Box<dyn FnOnce(&mut MemCtx) -> u64 + Send>> = (0..cfg.threads)
        .map(|t| {
            let index = Arc::clone(&index);
            let rec = recorder.clone();
            let hist = Arc::clone(&hist);
            let mut stream = OpStream::new(&wcfg, t as u64);
            let n = cfg.ops_per_thread;
            let b: Box<dyn FnOnce(&mut MemCtx) -> u64 + Send> = Box::new(move |ctx| {
                for _ in 0..n {
                    let op = SweepOp::from(stream.next_op());
                    let done = rec.run_op(index.as_ref(), ctx, t, &op);
                    // Published immediately so completed ops survive any
                    // valve stop; never held across a sync point.
                    hist.lock().unwrap().push(done);
                }
                n
            });
            b
        })
        .collect();
    let sched = SchedConfig::random(schedule_seed, cfg.preemptions);
    let (_r, _ops) = run_scheduled(&dev, &sched, bodies)?;
    let hist = Arc::try_unwrap(hist)
        .map(|m| m.into_inner().unwrap())
        .unwrap_or_default();
    let n = hist.len();
    history::check_linearizable(&hist, &initial)
        .map_err(|v| format!("history not linearizable: {v}"))?;
    Ok(n)
}

/// `spash-bench scale --lin-check`: every index × `schedules` seeds.
/// Returns failure messages (empty = pass).
pub fn lin_check_all(cfg: &LinCheckConfig) -> Vec<String> {
    let mut failures = Vec::new();
    for target in crash_targets() {
        for s in 0..cfg.schedules {
            match lin_check_target(&target, cfg, cfg.seed.wrapping_add(s)) {
                Ok(n) => println!("# scale lin-check: {} seed {s}: {n} ops linearize", target.name),
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
    fn one_cell_has_three_phases_and_sane_rows() {
        let cfg = ScaleConfig::test_small();
        let target = &crash_targets()[0];
        let cell = run_cell(target, 0, PersistenceDomain::Eadr, 2, &cfg).unwrap();
        assert_eq!(cell.rows.len(), 3);
        assert_eq!(cell.task_ops.len(), 3);
        for (row, (phase, per_task)) in cell.rows.iter().zip(&cell.task_ops) {
            assert_eq!(&row.phase, phase);
            assert_eq!(row.threads, 2);
            assert_eq!(per_task.len(), 2);
            assert_eq!(row.ops, per_task.iter().sum::<u64>());
            assert!(row.value > 0.0, "{phase}: zero throughput");
            assert_eq!(row.host_ns, 0, "scale rows must not carry host time");
        }
        // The load phase loaded every key exactly once.
        assert_eq!(cell.rows[0].ops, cfg.keys);
    }

    #[test]
    fn lin_check_passes_for_spash() {
        let cfg = LinCheckConfig {
            schedules: 2,
            ..LinCheckConfig::default()
        };
        let target = &crash_targets()[0];
        for s in 0..cfg.schedules {
            let n = lin_check_target(target, &cfg, cfg.seed + s).unwrap();
            assert_eq!(n, (cfg.threads as u64 * cfg.ops_per_thread) as usize);
        }
    }
}
