//! The subcommand bodies behind `spash-bench`'s dispatch table
//! (`main.rs`). Each prints `#`-prefixed tables to stdout, failure detail
//! to stderr, and exits non-zero on a violated check; knobs come through
//! [`spash_bench::knobs`] (table in EXPERIMENTS.md).

use std::process::exit;

use spash_analysis::{roster, Select, Sizing};
use spash_bench::experiments::{fig1, fig10, fig11, fig12, fig7, fig8, fig9};
use spash_bench::report::join_ladder;
use spash_bench::{knobs, perf, scale, service, BenchReport, ExperimentRow, Scale};
use spash_pmem::PersistenceDomain::{self, Adr, Eadr};

fn targets_knob(name: &str, default: Select) -> Select {
    let choices = [
        ("spash", Select::Spash),
        ("baselines", Select::Baselines),
        ("all", Select::All),
    ];
    knobs::choice(name, &choices, default)
}

/// `eadr|adr|both`; `both` (the default) in the subcommand's own order.
fn domains_knob(name: &str, both: &'static [PersistenceDomain]) -> &'static [PersistenceDomain] {
    knobs::choice(
        name,
        &[("eadr", &[Eadr][..]), ("adr", &[Adr][..]), ("both", both)],
        both,
    )
}

/// `on|off` for the sanitizer that rides the sweep and the explorer.
fn san_knob(name: &str) -> bool {
    knobs::choice(name, &[("on", true), ("off", false)], true)
}

/// Deterministic schedule exploration with linearizability checking
/// (DESIGN.md, "Deterministic schedule exploration"; recipe in
/// EXPERIMENTS.md): run seeded concurrent workloads under the cooperative
/// scheduler, one random interleaving per seed, topping up seeds until at
/// least `--seeds` *distinct* recorded schedules were explored per index.
/// Every completed history is checked with the Wing–Gong checker; any
/// violation or panic prints its schedule seed + decision trace, is
/// replayed for confirmation, and fails the run.
///
/// `SPASH_SCHED_MUTATE=<mode>` is the checker canary: inject a known bug
/// and *require* a caught, replayable violation (`1`/`halo` enables the
/// Halo racy-insert mutation, `fp` corrupts Spash's fingerprint sidecar
/// tags at write time so fp-filtered probes miss live keys). The overlay
/// staleness canary is not wired here: surfacing it needs a
/// split→update→read pattern the tiny explore workloads don't reach
/// reliably; its checker catch is pinned deterministically by
/// `tests/fingerprint_oracle.rs` instead.
pub fn sched(args: &[String]) {
    use spash_sched::explore::{explore, ExploreConfig, SeedFailure};
    use spash_sched::lin::LinConfig;
    use spash_sched::SchedConfig;

    /// A checker canary: the one target it breaks and the hook arming it.
    type Mutation = Option<(&'static str, fn(bool) -> bool)>;

    let want_distinct = match args {
        [] => 64,
        [flag, n] if flag == "--seeds" => n.parse::<u64>().map_or(0, |n| n.max(1)),
        _ => 0,
    };
    if want_distinct == 0 {
        eprintln!("usage: spash-bench sched [--seeds <positive integer>]");
        exit(2);
    }

    spash_sched::silence_sched_panics();
    let halo: Mutation = Some(("Halo", spash_baselines::testhooks::set_halo_racy_insert));
    let fp: Mutation = Some(("Spash", spash::testhooks::set_fp_wrong_tag));
    let mutation = knobs::choice(
        "SPASH_SCHED_MUTATE",
        &[
            ("", None),
            ("0", None),
            ("1", halo),
            ("halo", halo),
            ("fp", fp),
        ],
        None,
    );
    let mutate = mutation.is_some();
    let threads = knobs::int("SPASH_SCHED_THREADS", 3) as usize;
    let ops = knobs::int("SPASH_SCHED_OPS", 8);
    let keys = knobs::int("SPASH_SCHED_KEYS", if mutate { 4 } else { 12 });
    let prefill = knobs::int("SPASH_SCHED_PREFILL", if mutate { 0 } else { keys / 2 });
    let seed0 = knobs::int("SPASH_SCHED_SEED0", 1);
    let preemptions = knobs::int("SPASH_SCHED_PREEMPTIONS", 24) as u32;

    let mut pm = spash_pmem::PmConfig::small_test();
    pm.arena_size = knobs::int("SPASH_SCHED_ARENA_MB", 48) << 20;
    pm.domain = knobs::choice("SPASH_SCHED_DOMAIN", &[("eadr", Eadr), ("adr", Adr)], Eadr);
    if pm.domain == Adr {
        pm.fidelity = spash_pmem::CrashFidelity::Full;
    }
    let san_on = san_knob("SPASH_SCHED_SAN");

    let which = targets_knob("SPASH_SCHED_TARGETS", Select::All);
    let mut targets = roster(Sizing::Sweep, if mutate { Select::All } else { which });
    if let Some((broken, _)) = mutation {
        targets.retain(|t| t.name == broken);
    }
    let arm = |on: bool| {
        if let Some((_, hook)) = mutation {
            hook(on);
        }
    };

    let lin = LinConfig {
        threads,
        ops_per_thread: ops,
        key_space: keys,
        prefill,
        workload_seed: 0x51AA_5EED,
        sched: SchedConfig::random(0, preemptions),
    };
    println!(
        "# sched: targets={} threads={threads} ops/thread={ops} keys={keys} \
         prefill={prefill} seed0={seed0} preemptions={preemptions} \
         want_distinct={want_distinct} mutate={}",
        targets.len(),
        u8::from(mutate),
    );
    println!("# target schedules distinct violations panics stopped");

    arm(true);
    let mut failed = false;
    for target in &targets {
        // Persistence-ordering sanitizer rides every explored schedule;
        // its findings are replayable SeedFailures like any other
        // ordering violation. Publication checks fire when
        // SPASH_SCHED_DOMAIN=adr; SPASH_SCHED_SAN=off disarms.
        let mut pm = pm.clone();
        pm.san = san_on.then(|| spash_analysis::san_mode_for(&target.name));
        let mut distinct = std::collections::HashSet::new();
        let mut schedules = 0u64;
        let mut violations: Vec<SeedFailure> = Vec::new();
        let mut panics: Vec<SeedFailure> = Vec::new();
        let mut stopped = 0u64;
        let mut next_seed = seed0;
        // Top up in batches until the distinct floor is met (random
        // schedules occasionally collide) or the 4x valve trips.
        while (distinct.len() as u64) < want_distinct && schedules < want_distinct * 4 {
            let batch = (want_distinct - distinct.len() as u64).max(1);
            let cfg = ExploreConfig {
                seed0: next_seed,
                seeds: batch,
                lin: lin.clone(),
            };
            let r = explore(target, &pm, &cfg);
            next_seed += batch;
            schedules += r.schedules;
            distinct.extend(r.trace_hashes.iter().copied());
            violations.extend(r.violations);
            panics.extend(r.panics);
            stopped += r.stopped;
            // In mutation mode one caught violation is the goal; don't
            // grind through the remaining seed budget.
            if mutate && !violations.is_empty() {
                break;
            }
        }
        println!(
            "{} {} {} {} {} {}",
            target.name,
            schedules,
            distinct.len(),
            violations.len(),
            panics.len(),
            stopped
        );
        for f in violations.iter().chain(panics.iter()) {
            eprintln!(
                "# {}: {}\n# replay_reproduces={}",
                target.name, f.detail, f.replay_reproduces
            );
        }
        if mutate {
            // Canary: the mutation MUST be caught, and the failure MUST
            // replay deterministically from its recorded trace.
            if violations.is_empty() || violations.iter().any(|f| !f.replay_reproduces) {
                eprintln!(
                    "# MUTATION CANARY FAILED for {}: caught={} replayable={}",
                    target.name,
                    violations.len(),
                    violations.iter().filter(|f| f.replay_reproduces).count()
                );
                failed = true;
            }
        } else if !violations.is_empty() || !panics.is_empty() || stopped > 0 {
            failed = true;
        } else if (distinct.len() as u64) < want_distinct {
            eprintln!(
                "# {}: only {} distinct schedules in {} runs (wanted {})",
                target.name,
                distinct.len(),
                schedules,
                want_distinct
            );
            failed = true;
        }
    }
    arm(false);
    if failed {
        exit(1);
    }
}

/// Offline crash-point fault-injection sweep (DESIGN.md, "Crash-point
/// fault injection"): record a seeded workload's media writes, then
/// re-run it once per scheduled write with a crash injected there,
/// recover, and check the survivors against a shadow model. One stat line
/// per crash point, one summary per target; exits non-zero if any sweep
/// reports a violation.
pub fn crashpoints() {
    use spash_index_api::crashpoint::{run_sweep, SweepConfig};

    spash_pmem::fault::silence_crash_point_panics();
    let which = targets_knob("SPASH_CRASH_TARGETS", Select::Spash);
    // Violations on the record pass or any recovery path are hard sweep
    // failures unless SPASH_CRASH_SAN=off.
    let san_on = san_knob("SPASH_CRASH_SAN");
    let mut failed = false;
    for &domain in domains_knob("SPASH_CRASH_DOMAIN", &[Eadr, Adr]) {
        let mut cfg = SweepConfig::ci(domain);
        cfg.pm.arena_size = knobs::int("SPASH_CRASH_ARENA_MB", 256) << 20;
        cfg.seed = knobs::int("SPASH_CRASH_SEED", 0xC0FFEE);
        cfg.n_ops = knobs::int("SPASH_CRASH_OPS", 10_000);
        cfg.key_space = knobs::int("SPASH_CRASH_KEYS", 2_000);
        cfg.exhaustive_limit = knobs::int("SPASH_CRASH_EXHAUSTIVE", 5_000);
        cfg.max_points = knobs::int("SPASH_CRASH_POINTS", 2_000);

        for target in &roster(Sizing::Sweep, which) {
            cfg.pm.san = san_on.then(|| spash_analysis::san_mode_for(&target.name));
            let r = run_sweep(target, &cfg);
            println!(
                "# target={} domain={:?} seed={:#x} ops={} keys={} total_writes={} points={}",
                r.target,
                r.domain,
                cfg.seed,
                cfg.n_ops,
                cfg.key_space,
                r.total_writes,
                r.points.len()
            );
            println!(
                "# write_k committed_ops recovered recovery_ns \
                 reverted_lines flushed_lines leaked_allocs audit_ok"
            );
            for p in &r.points {
                println!(
                    "{} {} {} {} {} {} {} {}",
                    p.write_k,
                    p.committed_ops,
                    u8::from(p.recovered),
                    p.recovery_ns,
                    p.reverted_lines,
                    p.flushed_lines,
                    p.leaked_allocs,
                    u8::from(p.audit_ok)
                );
            }
            let recovery_ns = r.points.iter().map(|p| p.recovery_ns);
            println!(
                "# summary target={} domain={:?} unrecovered={} failures={} \
                 recovery_ns(mean/max)={}/{} leaked_allocs(max)={}",
                r.target,
                r.domain,
                r.unrecovered,
                r.failure_count,
                recovery_ns.clone().sum::<u64>() / r.points.len().max(1) as u64,
                recovery_ns.max().unwrap_or(0),
                r.points.iter().map(|p| p.leaked_allocs).max().unwrap_or(0)
            );
            for f in &r.failures {
                eprintln!("FAIL target={} domain={:?}: {f}", r.target, r.domain);
            }
            failed |= !r.is_ok();
        }
    }
    if failed {
        exit(1);
    }
}

/// Persistence-ordering sanitizer run (DESIGN.md, "Persistence-ordering
/// sanitizer"; recipe in EXPERIMENTS.md): drive every index through the
/// seeded sweep workload with the sanitizer armed — `Strict` for the six
/// ADR-era baselines (every written line checked at every visibility
/// edge), `Relaxed` for eADR-native Spash (only `san_ordered`-registered
/// ranges) — and fail the run on any violation. Redundant-flush and
/// no-op-fence perf diagnostics are reported per target.
pub fn san() {
    use spash_analysis::sandrive::{run_san, SanRunConfig};

    let which = targets_knob("SPASH_SAN_TARGETS", Select::All);
    let mut failed = false;
    for &domain in domains_knob("SPASH_SAN_DOMAIN", &[Adr, Eadr]) {
        let mut cfg = SanRunConfig::full(domain);
        cfg.seed = knobs::int("SPASH_SAN_SEED", cfg.seed);
        cfg.n_ops = knobs::int("SPASH_SAN_OPS", cfg.n_ops);
        cfg.key_space = knobs::int("SPASH_SAN_KEYS", cfg.key_space);
        for target in roster(Sizing::Sweep, which) {
            let r = run_san(&target, &cfg);
            println!("{}", r.summary());
            for v in &r.report.violations {
                println!("  {v}");
                failed = true;
            }
        }
    }
    if failed {
        eprintln!("sanitizer violations found");
        exit(1);
    }
}

/// The routine behind the four gated suites: parse `--out <path>` and
/// the suite's `known` bare arguments, `run` on the bare arguments in
/// the order given, then write `BENCH_<infix><rev>.json` or the `--out`
/// path.
fn gated_suite(
    cmd: &str,
    infix: &str,
    args: &[String],
    known: &[&str],
    run: impl FnOnce(&[&str]) -> Result<BenchReport, String>,
) {
    let mut out: Option<&String> = None;
    let mut bare: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out = it.next(),
            f if known.contains(&f) => bare.push(f),
            other => {
                eprintln!("{cmd}: unknown argument {other:?}");
                exit(2);
            }
        }
    }
    let report = run(&bare).unwrap_or_else(|e| {
        eprintln!("{cmd}: {e}");
        exit(1);
    });
    let path = out
        .cloned()
        .unwrap_or_else(|| format!("BENCH_{infix}{}.json", report.rev));
    if let Err(e) = std::fs::write(&path, report.to_json()) {
        eprintln!("{cmd}: writing {path}: {e}");
        exit(1);
    }
    let claims = match report.assertions.len() {
        0 => String::new(),
        n => format!(", {n} assertions"),
    };
    println!("# {cmd}: {} rows{claims} -> {path}", report.rows.len());
}

/// The `--lin-check` mode of `scale` and `service`: report and exit.
fn lin_check_verdict(cmd: &str, failures: Vec<String>, ok: &str) -> ! {
    for f in &failures {
        eprintln!("FAIL: {f}");
    }
    if failures.is_empty() {
        println!("# {cmd} lin-check: {ok}");
    }
    exit(i32::from(!failures.is_empty()))
}

/// `spash-bench perf [--out <path>]`: the fixed-seed regression suite.
pub fn perf(args: &[String]) {
    gated_suite("perf", "", args, &[], |_| {
        let cfg = perf::PerfConfig::from_env();
        println!(
            "# perf: keys={} ops={} repeats={} seed={:#x}",
            cfg.keys, cfg.ops, cfg.repeats, cfg.seed
        );
        perf::run_suite(&cfg)
    });
}

/// `spash-bench scale [--out <path>] [--assert] [--lin-check]`: the
/// deterministic multi-thread scalability sweep under the cooperative
/// scheduler (DESIGN.md, "Deterministic scalability sweep").
pub fn scale(args: &[String]) {
    gated_suite(
        "scale",
        "scale_",
        args,
        &["--assert", "--lin-check"],
        |bare| {
            if bare.contains(&"--lin-check") {
                let cfg = scale::LinCheckConfig::default();
                println!(
                    "# scale lin-check: {} threads x {} ops, {} keys, {} schedules/index",
                    cfg.threads, cfg.ops_per_thread, cfg.keys, cfg.schedules
                );
                let ok = "every index linearizes under the batch driver";
                lin_check_verdict("scale", scale::lin_check_all(&cfg), ok);
            }
            let cfg = scale::ScaleConfig::from_env();
            println!(
                "# scale: keys={} ops={} threads={:?} seed={:#x} preemptions={}",
                cfg.keys, cfg.ops, cfg.threads, cfg.seed, cfg.preemptions
            );
            let report = scale::run_suite(&cfg)?;
            if bare.contains(&"--assert") {
                let bad = scale::check_claims(&report, &cfg);
                for b in &bad {
                    eprintln!("CLAIM FAILED: {b}");
                }
                if !bad.is_empty() {
                    return Err(format!("{} structural claim(s) failed", bad.len()));
                }
                println!("# scale: structural claims hold");
            }
            Ok(report)
        },
    );
}

/// `spash-bench service [--out <path>] [--lin-check]`: the sharded
/// batched KV front-end suite — open-loop tail latency and saturation
/// throughput per shard count, byte-deterministic per seed.
pub fn service(args: &[String]) {
    gated_suite("service", "service_", args, &["--lin-check"], |bare| {
        if bare.contains(&"--lin-check") {
            let cfg = spash_service::lincheck::ServiceLinConfig::default();
            println!(
                "# service lin-check: {} shards x {} ops, {} keys, {} schedules/index",
                cfg.shards, cfg.ops, cfg.keys, cfg.schedules
            );
            let ok = "every index linearizes through the batched front-end";
            lin_check_verdict("service", service::lin_check_all(&cfg), ok);
        }
        let cfg = service::ServiceSuiteConfig::from_env();
        println!(
            "# service: keys={} ops={} shards={:?} batch_max={} seed={:#x} gap={}ns",
            cfg.keys, cfg.ops, cfg.shards, cfg.batch_max, cfg.seed, cfg.mean_gap_ns
        );
        service::run_suite(&cfg)
    });
}

/// `spash-bench compare <old.json> <new.json>`: diff two reports field
/// by field; exit non-zero on any regression. Host time is not in a
/// report (`benchmark/` judges it).
pub fn compare(args: &[String]) {
    use spash_bench::compare_reports;
    let [old_path, new_path] = args else {
        eprintln!("usage: spash-bench compare <old.json> <new.json>");
        exit(2);
    };
    let load = |p: &String| -> BenchReport {
        let text = std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("compare: reading {p}: {e}");
            exit(1);
        });
        BenchReport::from_json(&text).unwrap_or_else(|e| {
            eprintln!("compare: parsing {p}: {e}");
            exit(1);
        })
    };
    let (old, new) = (load(old_path), load(new_path));
    let out = compare_reports(&old, &new);
    for n in &out.notes {
        println!("note: {n}");
    }
    for r in &out.regressions {
        println!("REGRESSION: {r}");
    }
    println!(
        "# compare: {} rows, {} regressions ({} -> {})",
        out.rows_compared,
        out.regressions.len(),
        old.rev,
        new.rev
    );
    if !out.ok() {
        exit(1);
    }
}

type Figure = (&'static str, fn(&Scale) -> Vec<ExperimentRow>);

/// The figure experiments by name; the first seven are `all`.
const FIGURES: [Figure; 11] = [
    ("fig1", fig1::run),
    ("fig7", fig7::run),
    ("fig8", fig8::run),
    ("fig9", fig9::run),
    ("fig10", fig10::run),
    ("fig11", fig11::run),
    ("fig12", fig12::run),
    ("fig12a", fig12::run_a),
    ("fig12b", fig12::run_b),
    ("fig12c", fig12::run_c),
    ("fig12d", fig12::run_d),
];

/// `spash-bench <fig…|all>… [--out <path>]`: run the named figure
/// experiments at the `SPASH_BENCH_*` scale, in order, and write their
/// rows like the other gated suites. Every phase is a seeded cooperative
/// batch, so the report is a pure function of the scale and `compare`
/// gates it exactly against `bench/baseline_figures.json`.
pub fn figures(args: &[String]) {
    let names: Vec<&str> = FIGURES
        .iter()
        .map(|(name, _)| *name)
        .chain(["all"])
        .collect();
    gated_suite("figures", "figures_", args, &names, |bare| {
        let scale = Scale::from_env();
        println!(
            "# scale: keys={} ops={} threads={:?}",
            scale.keys, scale.ops, scale.threads
        );
        let mut report = BenchReport::new(&perf::short_rev());
        report.set_config("keys", scale.keys);
        report.set_config("ops", scale.ops);
        report.set_config("threads", join_ladder(&scale.threads));
        for &name in bare {
            // The one known name that is not a figure is `all`.
            let figures = match FIGURES.iter().position(|(n, _)| *n == name) {
                Some(i) => &FIGURES[i..=i],
                None => &FIGURES[..7],
            };
            for (_, run) in figures {
                report.rows.extend(run(&scale));
            }
        }
        Ok(report)
    });
}
