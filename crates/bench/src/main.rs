//! CLI for the benchmark suite: `spash-bench <experiment> [...]`.
//!
//! Experiments: `fig1`, `fig7`, `fig8`, `fig9`, `fig10`, `fig11`,
//! `fig12a`..`fig12d`, `fig12`, or `all`. Scale via `SPASH_BENCH_KEYS`,
//! `SPASH_BENCH_OPS`, `SPASH_BENCH_THREADS` (comma-separated).
//!
//! `--report <path>` (or `SPASH_BENCH_REPORT`) additionally writes the
//! experiments' machine-readable rows as a `BenchReport` JSON. `perf`
//! runs the fixed-seed deterministic regression suite and `compare`
//! gates two of its reports against each other (DESIGN.md, "Perf
//! reports and the regression gate"; recipes in EXPERIMENTS.md).
//! `scale` runs the multi-thread scalability sweep under the
//! cooperative scheduler — bit-deterministic scaling curves plus the
//! derived crossover/peak claims (DESIGN.md, "Deterministic scalability
//! sweep").
//!
//! `crashpoints` runs the offline crash-point fault-injection sweep
//! (DESIGN.md, "Crash-point fault injection"; recipe in EXPERIMENTS.md).
//! Knobs: `SPASH_CRASH_OPS` (10000), `SPASH_CRASH_KEYS` (2000),
//! `SPASH_CRASH_SEED`, `SPASH_CRASH_POINTS` (2000),
//! `SPASH_CRASH_EXHAUSTIVE` (5000), `SPASH_CRASH_ARENA_MB` (256),
//! `SPASH_CRASH_DOMAIN=eadr|adr|both`, `SPASH_CRASH_TARGETS=spash|baselines|all`.

use spash_bench::experiments::{ext, fig1, fig10, fig11, fig12, fig7, fig8, fig9};
use spash_bench::Scale;

/// Deterministic schedule exploration with linearizability checking
/// (DESIGN.md, "Deterministic schedule exploration"; recipe in
/// EXPERIMENTS.md): run seeded concurrent workloads under the cooperative
/// scheduler, one random interleaving per seed, topping up seeds until at
/// least `--seeds` *distinct* recorded schedules were explored per index.
/// Every completed history is checked with the Wing–Gong checker; any
/// violation or panic prints its schedule seed + decision trace, is
/// replayed for confirmation, and fails the run.
///
/// Knobs: `SPASH_SCHED_THREADS` (3), `SPASH_SCHED_OPS` (8, per thread),
/// `SPASH_SCHED_KEYS` (12), `SPASH_SCHED_PREFILL` (keys/2),
/// `SPASH_SCHED_SEED0` (1), `SPASH_SCHED_PREEMPTIONS` (24),
/// `SPASH_SCHED_ARENA_MB` (48), `SPASH_SCHED_TARGETS=spash|baselines|all`,
/// `SPASH_SCHED_MUTATE=<mode>` (checker canary: inject a known bug and
/// *require* a caught, replayable violation; `1`/`halo` enables the Halo
/// racy-insert mutation, `fp` corrupts Spash's fingerprint sidecar tags
/// at write time so fp-filtered probes miss live keys). The overlay
/// staleness canary is not wired here: surfacing it needs a
/// split→update→read pattern the tiny explore workloads don't reach
/// reliably; its checker catch is pinned deterministically by
/// `tests/fingerprint_oracle.rs` instead.
fn sched_explore(want_distinct: u64) {
    use spash::{Spash, SpashConfig};
    use spash_baselines::{testhooks, CLevel, Cceh, Dash, Halo, Level, Plush};
    use spash_index_api::crashpoint::CrashTarget;
    use spash_pmem::{PersistenceDomain, PmConfig};
    use spash_sched::explore::{explore, ExploreConfig, SeedFailure};
    use spash_sched::lin::LinConfig;
    use spash_sched::{SchedConfig, SchedMode};

    fn knob(name: &str, default: u64) -> u64 {
        std::env::var(name)
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(default)
    }

    #[derive(Clone, Copy, PartialEq)]
    enum Mutation {
        None,
        HaloRacyInsert,
        SpashWrongTag,
    }

    spash_sched::silence_sched_panics();
    let mutation = match std::env::var("SPASH_SCHED_MUTATE").as_deref() {
        Err(_) | Ok("") | Ok("0") => Mutation::None,
        Ok("1") | Ok("halo") => Mutation::HaloRacyInsert,
        Ok("fp") => Mutation::SpashWrongTag,
        Ok(other) => {
            eprintln!("SPASH_SCHED_MUTATE={other:?}: unknown mutation (want 1|halo|fp)");
            std::process::exit(2);
        }
    };
    let mutate = mutation != Mutation::None;
    let threads = knob("SPASH_SCHED_THREADS", 3) as usize;
    let ops = knob("SPASH_SCHED_OPS", 8);
    let keys = knob("SPASH_SCHED_KEYS", if mutate { 4 } else { 12 });
    let prefill = knob("SPASH_SCHED_PREFILL", if mutate { 0 } else { keys / 2 });
    let seed0 = knob("SPASH_SCHED_SEED0", 1);
    let preemptions = knob("SPASH_SCHED_PREEMPTIONS", 24) as u32;

    let mut pm = PmConfig::small_test();
    pm.arena_size = knob("SPASH_SCHED_ARENA_MB", 48) << 20;
    pm.domain = match std::env::var("SPASH_SCHED_DOMAIN").as_deref() {
        Ok("adr") => PersistenceDomain::Adr,
        _ => PersistenceDomain::Eadr,
    };
    if pm.domain == PersistenceDomain::Adr {
        pm.fidelity = spash_pmem::CrashFidelity::Full;
    }
    let san_on = !matches!(std::env::var("SPASH_SCHED_SAN").as_deref(), Ok("off"));

    let which = std::env::var("SPASH_SCHED_TARGETS").unwrap_or_else(|_| "all".into());
    let mut targets: Vec<CrashTarget> = Vec::new();
    if mutate {
        match mutation {
            Mutation::HaloRacyInsert => targets.push(Halo::crash_target(8 << 20, u64::MAX)),
            Mutation::SpashWrongTag => {
                targets.push(Spash::crash_target(SpashConfig::test_default()))
            }
            Mutation::None => unreachable!(),
        }
    } else {
        if which != "baselines" {
            targets.push(Spash::crash_target(SpashConfig::test_default()));
        }
        if which == "baselines" || which == "all" {
            targets.push(Cceh::crash_target(1));
            targets.push(Dash::crash_target(1));
            targets.push(Level::crash_target(4));
            targets.push(CLevel::crash_target(4));
            targets.push(Plush::crash_target(4));
            targets.push(Halo::crash_target(8 << 20, u64::MAX));
        }
    }

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

    match mutation {
        Mutation::None => {}
        Mutation::HaloRacyInsert => {
            testhooks::set_halo_racy_insert(true);
        }
        Mutation::SpashWrongTag => {
            spash::testhooks::set_fp_wrong_tag(true);
        }
    }
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
                lin: LinConfig {
                    sched: SchedConfig {
                        mode: SchedMode::Random {
                            seed: 0,
                            max_preemptions: preemptions,
                        },
                        ..lin.sched.clone()
                    },
                    ..lin.clone()
                },
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
    match mutation {
        Mutation::None => {}
        Mutation::HaloRacyInsert => {
            testhooks::set_halo_racy_insert(false);
        }
        Mutation::SpashWrongTag => {
            spash::testhooks::set_fp_wrong_tag(false);
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// Offline crash-point fault-injection sweep: record a seeded workload's
/// media writes, then re-run it once per scheduled write with a crash
/// injected there, recover, and check the survivors against a shadow
/// model. One stat line per crash point, one summary per target; exits
/// non-zero if any sweep reports a violation.
fn crashpoints() {
    use spash::{Spash, SpashConfig};
    use spash_baselines::{CLevel, Cceh, Dash, Halo, Level, Plush};
    use spash_index_api::crashpoint::{run_sweep, CrashTarget, SweepConfig};
    use spash_pmem::{fault, PersistenceDomain};

    fn knob(name: &str, default: u64) -> u64 {
        std::env::var(name)
            .ok()
            .and_then(|v| {
                let v = v.trim().to_ascii_lowercase();
                match v.strip_prefix("0x") {
                    Some(h) => u64::from_str_radix(h, 16).ok(),
                    None => v.parse().ok(),
                }
            })
            .unwrap_or(default)
    }

    fault::silence_crash_point_panics();
    let domains: &[PersistenceDomain] = match std::env::var("SPASH_CRASH_DOMAIN").as_deref() {
        Ok("adr") => &[PersistenceDomain::Adr],
        Ok("eadr") => &[PersistenceDomain::Eadr],
        _ => &[PersistenceDomain::Eadr, PersistenceDomain::Adr],
    };
    let which = std::env::var("SPASH_CRASH_TARGETS").unwrap_or_else(|_| "spash".into());
    let mut failed = false;
    for &domain in domains {
        let mut cfg = SweepConfig::ci(domain);
        cfg.pm.arena_size = knob("SPASH_CRASH_ARENA_MB", 256) << 20;
        cfg.seed = knob("SPASH_CRASH_SEED", 0xC0FFEE);
        cfg.n_ops = knob("SPASH_CRASH_OPS", 10_000);
        cfg.key_space = knob("SPASH_CRASH_KEYS", 2_000);
        cfg.exhaustive_limit = knob("SPASH_CRASH_EXHAUSTIVE", 5_000);
        cfg.max_points = knob("SPASH_CRASH_POINTS", 2_000);

        let mut targets: Vec<CrashTarget> = Vec::new();
        if which != "baselines" {
            targets.push(Spash::crash_target(SpashConfig::test_default()));
        }
        if which == "baselines" || which == "all" {
            targets.push(Cceh::crash_target(1));
            targets.push(Dash::crash_target(1));
            targets.push(Level::crash_target(4));
            targets.push(CLevel::crash_target(4));
            targets.push(Plush::crash_target(4));
            targets.push(Halo::crash_target(8 << 20, u64::MAX));
        }
        for target in &targets {
            // Arm the persistence-ordering sanitizer: violations on the
            // record pass or any recovery path are hard sweep failures
            // (SPASH_CRASH_SAN=off to disable).
            cfg.pm.san = match std::env::var("SPASH_CRASH_SAN").as_deref() {
                Ok("off") => None,
                _ => Some(spash_analysis::san_mode_for(&target.name)),
            };
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
            let mut recovery_ns_sum = 0u64;
            let mut recovery_ns_max = 0u64;
            let mut leaked_max = 0u64;
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
                recovery_ns_sum += p.recovery_ns;
                recovery_ns_max = recovery_ns_max.max(p.recovery_ns);
                leaked_max = leaked_max.max(p.leaked_allocs);
            }
            let n = r.points.len().max(1) as u64;
            println!(
                "# summary target={} domain={:?} unrecovered={} failures={} \
                 recovery_ns(mean/max)={}/{} leaked_allocs(max)={}",
                r.target,
                r.domain,
                r.unrecovered,
                r.failure_count,
                recovery_ns_sum / n,
                recovery_ns_max,
                leaked_max
            );
            for f in &r.failures {
                eprintln!("FAIL target={} domain={:?}: {f}", r.target, r.domain);
            }
            if !r.is_ok() {
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// Persistence-ordering sanitizer run (DESIGN.md, "Persistence-ordering
/// sanitizer"; recipe in EXPERIMENTS.md): drive every index through the
/// seeded sweep workload with the sanitizer armed — `Strict` for the six
/// ADR-era baselines (every written line checked at every visibility
/// edge), `Relaxed` for eADR-native Spash (only `san_ordered`-registered
/// ranges) — and fail the run on any violation. Redundant-flush and
/// no-op-fence perf diagnostics are reported per target.
///
/// Knobs: `SPASH_SAN_DOMAIN=adr|eadr|both` (both), `SPASH_SAN_OPS`
/// (10000), `SPASH_SAN_KEYS` (1000), `SPASH_SAN_SEED` (0x5a17),
/// `SPASH_SAN_TARGETS=spash|baselines|all` (all).
fn san_run() {
    use spash_analysis::sandrive::{run_san, SanRunConfig};
    use spash_pmem::PersistenceDomain;

    fn knob(name: &str, default: u64) -> u64 {
        std::env::var(name)
            .ok()
            .and_then(|v| {
                let v = v.trim().to_ascii_lowercase();
                match v.strip_prefix("0x") {
                    Some(h) => u64::from_str_radix(h, 16).ok(),
                    None => v.parse().ok(),
                }
            })
            .unwrap_or(default)
    }

    let domains: &[PersistenceDomain] = match std::env::var("SPASH_SAN_DOMAIN").as_deref() {
        Ok("adr") => &[PersistenceDomain::Adr],
        Ok("eadr") => &[PersistenceDomain::Eadr],
        _ => &[PersistenceDomain::Adr, PersistenceDomain::Eadr],
    };
    let which = std::env::var("SPASH_SAN_TARGETS").unwrap_or_else(|_| "all".into());
    let mut failed = false;
    for &domain in domains {
        let mut cfg = SanRunConfig::full(domain);
        cfg.seed = knob("SPASH_SAN_SEED", cfg.seed);
        cfg.n_ops = knob("SPASH_SAN_OPS", cfg.n_ops);
        cfg.key_space = knob("SPASH_SAN_KEYS", cfg.key_space);
        for target in spash_analysis::all_targets() {
            let is_spash = target.name.starts_with("Spash");
            if (which == "spash" && !is_spash) || (which == "baselines" && is_spash) {
                continue;
            }
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
        std::process::exit(1);
    }
}

/// `spash-bench perf [--out <path>]`: run the fixed-seed regression suite
/// and write `BENCH_<rev>.json`. Scale via `SPASH_PERF_KEYS` /
/// `SPASH_PERF_OPS` / `SPASH_PERF_REPEATS` / `SPASH_PERF_SEED`.
fn perf_cmd(args: &[String]) {
    use spash_bench::perf;
    let mut out: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out = it.next().cloned(),
            other => {
                eprintln!("perf: unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }
    let cfg = perf::PerfConfig::from_env();
    println!(
        "# perf: keys={} ops={} repeats={} seed={:#x}",
        cfg.keys, cfg.ops, cfg.repeats, cfg.seed
    );
    let report = match perf::run_suite(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perf: {e}");
            std::process::exit(1);
        }
    };
    let path = out.unwrap_or_else(|| format!("BENCH_{}.json", report.rev));
    if let Err(e) = std::fs::write(&path, report.to_json()) {
        eprintln!("perf: writing {path}: {e}");
        std::process::exit(1);
    }
    println!("# perf: {} rows -> {path}", report.rows.len());
}

/// `spash-bench scale [--out <path>] [--assert] [--lin-check]`: the
/// deterministic multi-thread scalability sweep under the cooperative
/// scheduler (DESIGN.md, "Deterministic scalability sweep"). Knobs:
/// `SPASH_SCALE_KEYS` / `SPASH_SCALE_OPS` / `SPASH_SCALE_THREADS`
/// (comma-separated ladder) / `SPASH_SCALE_SEED` /
/// `SPASH_SCALE_PREEMPTIONS`.
fn scale_cmd(args: &[String]) {
    use spash_bench::scale;
    let mut out: Option<String> = None;
    let mut do_assert = false;
    let mut lin_check = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out = it.next().cloned(),
            "--assert" => do_assert = true,
            "--lin-check" => lin_check = true,
            other => {
                eprintln!("scale: unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }
    if lin_check {
        let cfg = scale::LinCheckConfig::default();
        println!(
            "# scale lin-check: {} threads x {} ops, {} keys, {} schedules/index",
            cfg.threads, cfg.ops_per_thread, cfg.keys, cfg.schedules
        );
        let failures = scale::lin_check_all(&cfg);
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        if !failures.is_empty() {
            std::process::exit(1);
        }
        println!("# scale lin-check: every index linearizes under the batch driver");
        return;
    }
    let cfg = scale::ScaleConfig::from_env();
    println!(
        "# scale: keys={} ops={} threads={:?} seed={:#x} preemptions={}",
        cfg.keys, cfg.ops, cfg.threads, cfg.seed, cfg.preemptions
    );
    let report = match scale::run_suite(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("scale: {e}");
            std::process::exit(1);
        }
    };
    if do_assert {
        let bad = scale::check_claims(&report, &cfg);
        for b in &bad {
            eprintln!("CLAIM FAILED: {b}");
        }
        if !bad.is_empty() {
            std::process::exit(1);
        }
        println!("# scale: structural claims hold");
    }
    let path = out.unwrap_or_else(|| format!("BENCH_scale_{}.json", report.rev));
    if let Err(e) = std::fs::write(&path, report.to_json()) {
        eprintln!("scale: writing {path}: {e}");
        std::process::exit(1);
    }
    println!(
        "# scale: {} rows, {} assertions -> {path}",
        report.rows.len(),
        report.assertions.len()
    );
}

/// `spash-bench service [--out <path>] [--lin-check]`: the sharded
/// batched KV front-end suite — open-loop tail latency and saturation
/// throughput per shard count, byte-deterministic per seed. Knobs:
/// `SPASH_SERVICE_KEYS` / `SPASH_SERVICE_OPS` / `SPASH_SERVICE_SHARDS`
/// (comma-separated ladder) / `SPASH_SERVICE_BATCH` /
/// `SPASH_SERVICE_SEED` / `SPASH_SERVICE_PREEMPTIONS` /
/// `SPASH_SERVICE_GAP`.
fn service_cmd(args: &[String]) {
    use spash_bench::service;
    let mut out: Option<String> = None;
    let mut lin_check = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out = it.next().cloned(),
            "--lin-check" => lin_check = true,
            other => {
                eprintln!("service: unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }
    if lin_check {
        let cfg = spash_service::lincheck::ServiceLinConfig::default();
        println!(
            "# service lin-check: {} shards x {} ops, {} keys, {} schedules/index",
            cfg.shards, cfg.ops, cfg.keys, cfg.schedules
        );
        let failures = service::lin_check_all(&cfg);
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        if !failures.is_empty() {
            std::process::exit(1);
        }
        println!("# service lin-check: every index linearizes through the batched front-end");
        return;
    }
    let cfg = service::ServiceSuiteConfig::from_env();
    println!(
        "# service: keys={} ops={} shards={:?} batch_max={} seed={:#x} gap={}ns",
        cfg.keys, cfg.ops, cfg.shards, cfg.batch_max, cfg.seed, cfg.mean_gap_ns
    );
    let report = match service::run_suite(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("service: {e}");
            std::process::exit(1);
        }
    };
    let path = out.unwrap_or_else(|| format!("BENCH_service_{}.json", report.rev));
    if let Err(e) = std::fs::write(&path, report.to_json()) {
        eprintln!("service: writing {path}: {e}");
        std::process::exit(1);
    }
    println!("# service: {} rows -> {path}", report.rows.len());
}

/// `spash-bench compare <old.json> <new.json> [--virtual-only|--wall-tol F]`:
/// diff two reports; exit non-zero on any regression.
fn compare_cmd(args: &[String]) {
    use spash_bench::{compare_reports, BenchReport, CompareOpts};
    let mut opts = CompareOpts::default();
    let mut paths: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--virtual-only" => opts.wall_tol = None,
            "--wall-tol" => {
                opts.wall_tol = it.next().and_then(|v| v.parse().ok());
                if opts.wall_tol.is_none() {
                    eprintln!("--wall-tol needs a fraction (e.g. 0.5)");
                    std::process::exit(2);
                }
            }
            _ => paths.push(a),
        }
    }
    let [old_path, new_path] = paths[..] else {
        eprintln!("usage: spash-bench compare <old.json> <new.json> [--virtual-only|--wall-tol F]");
        std::process::exit(2);
    };
    let load = |p: &String| -> BenchReport {
        let text = std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("compare: reading {p}: {e}");
            std::process::exit(1);
        });
        BenchReport::from_json(&text).unwrap_or_else(|e| {
            eprintln!("compare: parsing {p}: {e}");
            std::process::exit(1);
        })
    };
    let (old, new) = (load(old_path), load(new_path));
    let out = compare_reports(&old, &new, &opts);
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
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("perf") => return perf_cmd(&args[1..]),
        Some("scale") => return scale_cmd(&args[1..]),
        Some("service") => return service_cmd(&args[1..]),
        Some("compare") => return compare_cmd(&args[1..]),
        _ => {}
    }
    let scale = Scale::from_env();
    if args.is_empty() {
        eprintln!(
            "usage: spash-bench <fig1|fig7|fig8|fig9|fig10|fig11|fig12[a-d]|all|ext|crashpoints|san|sched [--seeds N]|perf [--out P]|scale [--out P] [--assert] [--lin-check]|service [--out P] [--lin-check]|compare OLD NEW> ...\n\
             scale: SPASH_BENCH_KEYS={} SPASH_BENCH_OPS={} SPASH_BENCH_THREADS={:?}\n\
             report: SPASH_BENCH_REPORT=<path> or --report <path> writes machine-readable rows",
            scale.keys, scale.ops, scale.threads
        );
        std::process::exit(2);
    }
    println!(
        "# scale: keys={} ops={} threads={:?}",
        scale.keys, scale.ops, scale.threads
    );
    let mut report_path = std::env::var("SPASH_BENCH_REPORT").ok();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--report" => {
                report_path = it.next().cloned();
                if report_path.is_none() {
                    eprintln!("--report needs a path");
                    std::process::exit(2);
                }
                continue;
            }
            "sched" => {
                let mut seeds = 64u64;
                if it.peek().map(|s| s.as_str()) == Some("--seeds") {
                    it.next();
                    seeds = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| {
                            eprintln!("sched --seeds needs a positive integer");
                            std::process::exit(2);
                        });
                }
                sched_explore(seeds.max(1));
                continue;
            }
            "fig1" => fig1::run(&scale),
            "fig7" => fig7::run(&scale),
            "fig8" => fig8::run(&scale),
            "fig9" => fig9::run(&scale),
            "fig10" => fig10::run(&scale),
            "fig11" => fig11::run(&scale),
            "fig12" => fig12::run(&scale),
            "fig12a" => fig12::run_a(&scale),
            "fig12b" => fig12::run_b(&scale),
            "fig12c" => fig12::run_c(&scale),
            "fig12d" => fig12::run_d(&scale),
            "all" => {
                fig1::run(&scale);
                fig7::run(&scale);
                fig8::run(&scale);
                fig9::run(&scale);
                fig10::run(&scale);
                fig11::run(&scale);
                fig12::run(&scale);
                ext::run(&scale);
            }
            "ext" => ext::run(&scale),
            "crashpoints" => crashpoints(),
            "san" => san_run(),
            other => {
                eprintln!("unknown experiment: {other}");
                std::process::exit(2);
            }
        }
    }
    let rows = spash_bench::report::drain_rows();
    if let Some(path) = report_path {
        let mut rep = spash_bench::BenchReport::new(&spash_bench::perf::short_rev());
        rep.set_config("keys", scale.keys);
        rep.set_config("ops", scale.ops);
        rep.set_config(
            "threads",
            scale
                .threads
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(","),
        );
        rep.rows = rows;
        if let Err(e) = std::fs::write(&path, rep.to_json()) {
            eprintln!("report: writing {path}: {e}");
            std::process::exit(1);
        }
        println!("# report: {} rows -> {path}", rep.rows.len());
    }
}
