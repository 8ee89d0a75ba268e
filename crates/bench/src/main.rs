//! CLI for the benchmark suite: `spash-bench <subcommand> [...]`. This
//! file is the dispatch table; the bodies are in `commands.rs`.
//!
//! * `fig1`, `fig7`..`fig11`, `fig12[a-d]`, `all` — the paper's
//!   figure experiments, scaled by `SPASH_BENCH_*`; several may be named
//!   at once. Their rows are written as a `BenchReport` JSON like the
//!   suites' (`all` is gated against `bench/baseline_figures.json`).
//! * `perf`, `scale`, `service` — the three fixed-seed gated suites
//!   (DESIGN.md §§7, 8, 11), one sweep at the constant sizes in
//!   `suite.rs`. Every report (`--out <path>`, default
//!   `BENCH_<suite>_<rev>.json`) is a pure function of its inputs, and
//!   `compare` holds it to exact equality against `bench/baseline*.json`.
//!   `service --lin-check` is the front-end's linearizability check.
//! * `crashpoints`, `sched` — one driver per verification property
//!   (DESIGN.md §5; recipes in EXPERIMENTS.md): the crash-point sweep,
//!   whose record pass is the persistence-ordering sanitizer's
//!   clean-workload gate (`SPASH_CRASH_POINTS=0` runs that pass alone),
//!   and deterministic schedule exploration with linearizability
//!   checking.
//!
//! Every `SPASH_*` knob is read through `spash_bench::knobs`: a bad
//! value, an unknown choice, a misspelled name or a name in a retired
//! namespace exits 2 (one table of names, defaults and accepted forms in
//! EXPERIMENTS.md).

mod commands;

const USAGE: &str = "\
usage: spash-bench <fig1|fig7|fig8|fig9|fig10|fig11|fig12[a-d]|all>... [--out P]
       spash-bench perf [--out P] | scale [--out P] [--assert]
       spash-bench service [--out P] [--lin-check] | compare OLD NEW
       spash-bench crashpoints | sched [--seeds N]
knobs: SPASH_<BENCH|CRASH|SCHED>_* (EXPERIMENTS.md, \"Knobs\");
       perf, scale and service run at constant sizes";

fn main() {
    spash_bench::knobs::reject_unknown();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    match cmd.as_str() {
        "perf" => commands::perf(rest),
        "scale" => commands::scale(rest),
        "service" => commands::service(rest),
        "compare" => commands::compare(rest),
        "sched" => commands::sched(rest),
        "crashpoints" if !rest.is_empty() => {
            eprintln!("{cmd}: takes no arguments\n{USAGE}");
            std::process::exit(2);
        }
        "crashpoints" => commands::crashpoints(),
        _ => commands::figures(&args),
    }
}
