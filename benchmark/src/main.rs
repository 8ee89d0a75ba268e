//! `spash-e2e`: the end-to-end benchmark of Spash/eADR (see README.md).
//!
//! ```text
//! spash-e2e [--workload W|all] [--seed S] [--seconds N] [--trace 0|1 | --traced] [--smoke]
//! ```
//!
//! One invocation runs each selected workload as a series of *repeats*
//! (fresh device, set-up, timed window, oracle, power failure, recovery)
//! until the timed windows add up to `--seconds`, at least three times.
//! Every virtual-time and count metric must come out bit-identical in
//! every repeat; host metrics are estimated across repeats. The last line
//! of standard output is one JSON object per the driver contract.

mod catalog;
mod driver;
mod env;
mod layers;
mod micro;
mod trace;
mod util;
mod workloads;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

use spash_analysis::json::Json;

use catalog::{Clock, Metric, END_TO_END, PER_LAYER, WORKLOADS, WORKLOAD_SPECIFIC};
use env::Repeat;
use trace::Tracer;
use util::quartiles;

/// Default seed; `0xbeef` is the held-out one (README.md).
const DEFAULT_SEED: u64 = 0x5eed;
const DEFAULT_SECONDS: f64 = 8.0;
/// Repeats per invocation at full scale, whatever the time budget: the
/// host estimate takes each chunk's minimum across repeats, and with
/// fewer than three a slow spell of the machine covers all of them too
/// often.
const MIN_REPEATS: usize = 3;

/// What a workload's `run` is told.
pub struct Ctl {
    pub seed: u64,
    pub smoke: bool,
    /// `Some` in a traced repeat: record spans, run microkernels, fill the
    /// per-layer ledger.
    pub tracer: Option<Arc<Tracer>>,
}

struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
}

fn parse_u64(s: &str) -> Option<u64> {
    let s = s.trim().to_ascii_lowercase();
    match s.strip_prefix("0x") {
        Some(h) => u64::from_str_radix(h, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workloads: WORKLOADS.to_vec(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let w = value("a workload name")?;
                if w != "all" {
                    let known = WORKLOADS.iter().find(|k| **k == w);
                    a.workloads =
                        vec![*known
                            .ok_or(format!("unknown workload {w:?}; known: {WORKLOADS:?}"))?];
                }
            }
            "--seed" => a.seed = parse_u64(&value("a number")?).ok_or("--seed: not a number")?,
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|_| "--seconds: not a number")?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                a.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--traced" => a.traced = true,
            "--smoke" => a.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

fn run_repeat(workload: &str, ctl: &Ctl) -> Repeat {
    match workload {
        "point-uniform" => workloads::point_uniform::run(ctl),
        "write-churn" => workloads::write_churn::run(ctl),
        "scale-zipf" => workloads::scale_zipf::run(ctl),
        "service-open" => workloads::service_open::run(ctl),
        other => unreachable!("workload {other:?} passed argument parsing"),
    }
}

/// One reported number: the value, and for host metrics the quartiles and
/// sample count behind it.
struct Cell {
    value: f64,
    spread: Option<(f64, f64, usize)>,
}

struct Outcome {
    workload: &'static str,
    cells: BTreeMap<&'static str, Cell>,
    attempted: u64,
    failed: u64,
    repeats: usize,
    traced_repeats: usize,
    notes: Vec<String>,
    deterministic: bool,
}

/// The first difference between two repeats' exact metrics, over the
/// names both report.
fn exact_mismatch(a: &Repeat, b: &Repeat) -> Option<String> {
    a.exact.iter().find_map(|(name, va)| {
        let vb = b.exact.get(name)?;
        (va.to_bits() != vb.to_bits()).then(|| format!("{name}: {va:?} vs {vb:?}"))
    })
}

/// The host clock's estimate of the timed window without the machine's
/// slow spells. Each repeat's chunk times are first calibrated by that
/// repeat's reference latency (`util::ref_sample`), which takes out the
/// minutes-long swings of the shared memory system; then, because chunk
/// `i` covers the same ops in every repeat and other tenants can only add
/// time, each chunk takes its minimum across repeats, which takes out the
/// seconds-long spells. `host_ns_per_op` is the median of that series and
/// `host_ops_per_s` its total — both still weigh every kind of op the
/// workload issues by how often it issues it.
fn quiet_chunks(reps: &[Repeat]) -> Vec<(f64, u64)> {
    let first = &reps[0].chunks;
    for r in reps {
        let same =
            r.chunks.len() == first.len() && r.chunks.iter().zip(first).all(|(a, b)| a.1 == b.1);
        assert!(
            same,
            "repeats of one invocation chunked their ops differently"
        );
    }
    (0..first.len())
        .map(|i| {
            (
                reps.iter()
                    .map(|r| r.chunks[i].0 * r.host_scale)
                    .fold(f64::MAX, f64::min),
                first[i].1,
            )
        })
        .collect()
}

fn run_workload(workload: &'static str, args: &Args) -> Outcome {
    let mut plain: Vec<Repeat> = Vec::new();
    let mut traced: Vec<Repeat> = Vec::new();
    let mut last_tracer = None;
    let mut timed_s = 0.0;
    let mut rss_mb = 0.0;
    let min_repeats = if args.smoke { 2 } else { MIN_REPEATS };
    loop {
        let ctl = Ctl {
            seed: args.seed,
            smoke: args.smoke,
            tracer: None,
        };
        let rep = run_repeat(workload, &ctl);
        let mut round_s = rep.timed_host_s();
        plain.push(rep);
        if plain.len() == 1 {
            // One repeat is one execution of the workload; later repeats
            // only add what the process allocator retains between them.
            rss_mb = util::peak_rss_mb();
        }
        if args.traced {
            let tracer = Tracer::new();
            let ctl = Ctl {
                tracer: Some(Arc::clone(&tracer)),
                ..ctl
            };
            let rep = run_repeat(workload, &ctl);
            round_s += rep.timed_host_s();
            traced.push(rep);
            last_tracer = Some(tracer);
        }
        timed_s += round_s;
        // Stop once another round would overshoot the budget by more
        // than half a round.
        let enough = plain.len() + traced.len() >= min_repeats && plain.len() >= 2;
        if enough && (args.smoke || timed_s + round_s / 2.0 >= args.seconds) {
            break;
        }
    }

    let mut notes = Vec::new();
    let mut deterministic = true;
    let first = &plain[0];
    for (i, r) in plain.iter().enumerate().skip(1) {
        if let Some(d) = exact_mismatch(first, r) {
            deterministic = false;
            notes.push(format!("NOT DETERMINISTIC: untraced repeat {i} vs 0: {d}"));
        }
    }
    for (i, r) in traced.iter().enumerate() {
        if let Some(d) = exact_mismatch(&traced[0], r) {
            deterministic = false;
            notes.push(format!("NOT DETERMINISTIC: traced repeat {i} vs 0: {d}"));
        }
        // Tracing must not move the program: every exact number the
        // untraced run reports, the traced run reports identically.
        if let Some(d) = exact_mismatch(first, r) {
            deterministic = false;
            notes.push(format!(
                "TRACING PERTURBED THE RUN: traced repeat {i} vs untraced: {d}"
            ));
        }
    }

    let mut cells: BTreeMap<&'static str, Cell> = BTreeMap::new();
    let mut collect = |reps: &[Repeat], only_new: bool| {
        let Some(first) = reps.first() else { return };
        for (&name, &value) in &first.exact {
            if !(only_new && cells.contains_key(name)) {
                cells.insert(
                    name,
                    Cell {
                        value,
                        spread: None,
                    },
                );
            }
        }
        for &name in first.host.keys() {
            if only_new && cells.contains_key(name) {
                continue;
            }
            let samples: Vec<f64> = reps
                .iter()
                .filter_map(|r| r.host.get(name).copied())
                .collect();
            let (q1, med, q3) = quartiles(&samples);
            cells.insert(
                name,
                Cell {
                    value: med,
                    spread: Some((q1, q3, samples.len())),
                },
            );
        }
    };
    // End-to-end numbers come only from untraced repeats; the traced
    // repeats add the per-layer rows on top.
    collect(&plain, false);
    collect(&traced, true);
    let quiet = quiet_chunks(&plain);
    let (ns_per_op, p99, ops_per_s) = util::chunk_summary(&quiet);
    notes.push(format!(
        "host_ns_per_op: median of {} chunks of 4096 ops (each its minimum over {} repeats); p99 chunk {p99:.1} ns",
        quiet.len(),
        plain.len()
    ));
    cells
        .get_mut("host_ns_per_op")
        .expect("every workload reports it")
        .value = ns_per_op;
    cells
        .get_mut("host_ops_per_s")
        .expect("every workload reports it")
        .value = ops_per_s;
    if !traced.is_empty() {
        let overhead = util::chunk_summary(&quiet_chunks(&traced)).0 / ns_per_op - 1.0;
        cells.insert(
            "trace.overhead_share",
            Cell {
                value: overhead,
                spread: Some((overhead, overhead, 1)),
            },
        );
    }
    cells.insert(
        "peak_rss_mb",
        Cell {
            value: rss_mb,
            spread: Some((rss_mb, rss_mb, 1)),
        },
    );
    notes.push(format!(
        "host clock as measured (medians over repeats): host_ns_per_op {:.1} ns, setup_s {:.3} s; reference {:.1} ns/load against a nominal {}",
        cells["raw.host_ns_per_op"].value,
        cells["raw.setup_s"].value,
        cells["raw.ref_ns_per_load"].value,
        util::REF_NOMINAL_NS_PER_LOAD
    ));
    for (alias, _, on, layer_name) in WORKLOAD_SPECIFIC {
        if on == workload {
            if let Some(c) = cells.get(layer_name) {
                let value = c.value;
                cells.insert(
                    alias,
                    Cell {
                        value,
                        spread: None,
                    },
                );
            }
        }
    }

    let all = plain.iter().chain(&traced);
    let (attempted, failed) = all.fold((0, 0), |(a, f), r| (a + r.attempted, f + r.failed));
    notes.extend(plain[0].notes.iter().cloned());
    if let Some(t) = traced.first() {
        notes.extend(
            t.notes
                .iter()
                .filter(|n| !plain[0].notes.contains(n))
                .cloned(),
        );
    }
    if let Some(t) = &last_tracer {
        let path = format!("benchmark/out/trace_{workload}.json");
        write_file(&path, &t.to_json(workload, args.seed).render());
        notes.push(format!(
            "trace: {} spans, written to {path}",
            t.span_count()
        ));
    }
    Outcome {
        workload,
        cells,
        attempted,
        failed,
        repeats: plain.len(),
        traced_repeats: traced.len(),
        notes,
        deterministic,
    }
}

fn write_file(path: &str, text: &str) {
    let path = Path::new(path);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    }
    std::fs::write(path, text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

fn print_rows(o: &Outcome, title: &str, rows: &[Metric]) {
    println!("  -- {title}");
    for m in rows {
        // A layer that does no work on this workload reads 0.
        let (value, spread) = match o.cells.get(m.name) {
            Some(Cell {
                value,
                spread: Some((q1, q3, n)),
            }) if m.clock == Clock::Host => (
                *value,
                format!("  (per-repeat q1 {q1:.6} q3 {q3:.6} n={n})"),
            ),
            Some(c) => (c.value, String::new()),
            None => (0.0, "  (layer idle on this workload)".to_string()),
        };
        println!(
            "  {:<38} {:>18.6} {:<8} [{}, {} is better]{spread}",
            m.name,
            value,
            m.unit,
            m.clock.label(),
            m.better
        );
    }
}

fn print_outcome(o: &Outcome, args: &Args) {
    println!(
        "== {}  seed={:#x}  {}  repeats={} traced_repeats={}",
        o.workload,
        args.seed,
        if args.smoke {
            "SMOKE scale"
        } else {
            "full scale"
        },
        o.repeats,
        o.traced_repeats
    );
    print_rows(o, "end-to-end (untraced repeats only)", &END_TO_END);
    for (alias, unit, on, _) in WORKLOAD_SPECIFIC {
        if let (true, Some(c)) = (on == o.workload, o.cells.get(alias)) {
            println!(
                "  {alias:<38} {:>18.6} {unit:<8} [virtual, higher is better]",
                c.value
            );
        }
    }
    println!(
        "  {:<38} {:>18.6} {:<8} [count, lower is better]  ({} wrong of {} checked)",
        "fail_share",
        o.failed as f64 / o.attempted.max(1) as f64,
        "ratio",
        o.failed,
        o.attempted
    );
    if args.traced {
        print_rows(o, "per-layer (traced repeats)", &PER_LAYER);
    }
    for n in &o.notes {
        println!("  # {n}");
    }
}

fn metrics_json(o: &Outcome, rows: &[Metric]) -> Json {
    Json::Obj(
        rows.iter()
            .map(|m| {
                // A layer that does no work on this workload reads 0.
                let value = o.cells.get(m.name).map_or(0.0, |c| c.value);
                (
                    m.name.to_string(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(value)),
                        ("unit".into(), Json::Str(m.unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

/// `Json::render` is multi-line; strings never hold a raw newline, so
/// dropping line breaks and indentation yields the same document on one
/// line.
fn one_line(j: &Json) -> String {
    j.render().lines().map(str::trim_start).collect()
}

fn contract_line(o: &Outcome, traced: bool) -> String {
    one_line(&Json::Obj(vec![
        (
            "correct".into(),
            Json::Bool(o.failed == 0 && o.deterministic),
        ),
        ("attempted".into(), Json::Int(o.attempted.max(1))),
        ("failed".into(), Json::Int(o.failed)),
        (
            "metrics".into(),
            metrics_json(o, if traced { &PER_LAYER } else { &END_TO_END }),
        ),
    ]))
}

fn results_json(outcomes: &[Outcome], args: &Args) -> Json {
    let workloads = outcomes
        .iter()
        .map(|o| {
            let metrics = o
                .cells
                .iter()
                .map(|(name, c)| {
                    let mut f = vec![("value".to_string(), Json::Num(c.value))];
                    if let Some((q1, q3, n)) = c.spread {
                        f.push(("q1".into(), Json::Num(q1)));
                        f.push(("q3".into(), Json::Num(q3)));
                        f.push(("samples".into(), Json::Int(n as u64)));
                    }
                    (name.to_string(), Json::Obj(f))
                })
                .collect();
            (
                o.workload.to_string(),
                Json::Obj(vec![
                    ("repeats".into(), Json::Int(o.repeats as u64)),
                    ("traced_repeats".into(), Json::Int(o.traced_repeats as u64)),
                    ("attempted".into(), Json::Int(o.attempted)),
                    ("failed".into(), Json::Int(o.failed)),
                    ("deterministic".into(), Json::Bool(o.deterministic)),
                    ("metrics".into(), Json::Obj(metrics)),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        ("seed".into(), Json::Int(args.seed)),
        (
            "scale".into(),
            Json::Str(if args.smoke { "smoke" } else { "full" }.into()),
        ),
        ("traced".into(), Json::Bool(args.traced)),
        ("workloads".into(), Json::Obj(workloads)),
    ])
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("spash-e2e: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "# spash-e2e: Spash/eADR, host parallelism {} (one runnable OS thread at a time)",
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    println!("# the PM cost model is unvalidated against hardware: no error figure is claimed");
    util::ref_init();
    let outcomes: Vec<Outcome> = args
        .workloads
        .iter()
        .map(|w| run_workload(w, &args))
        .collect();
    for o in &outcomes {
        print_outcome(o, &args);
    }
    write_file(
        "benchmark/out/results.json",
        &results_json(&outcomes, &args).render(),
    );
    for o in &outcomes {
        println!("{}", contract_line(o, args.traced));
    }
    if outcomes.iter().all(|o| o.deterministic) {
        ExitCode::SUCCESS
    } else {
        eprintln!("spash-e2e: virtual/count metrics differed between repeats of one invocation");
        ExitCode::from(1)
    }
}
