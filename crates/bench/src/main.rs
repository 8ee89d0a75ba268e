//! CLI for the benchmark suite: `spash-bench <subcommand> [...]`. This
//! file is the dispatch table; the bodies are in `commands.rs`.
//!
//! * `fig1`, `fig7`..`fig11`, `fig12[a-d]`, `all` — the paper's
//!   figure experiments, scaled by `SPASH_BENCH_*`; several may be named
//!   at once. Their rows are written as a `BenchReport` JSON like the
//!   suites' (`all` is gated against `bench/baseline_figures.json`).
//! * `perf`, `scale`, `service` — the three fixed-seed gated suites
//!   (DESIGN.md §§7, 8, 11). Every report (`--out <path>`, default
//!   `BENCH_<suite>_<rev>.json`) is a pure function of its inputs, and
//!   `compare` holds it to exact equality against `bench/baseline*.json`.
//! * `crashpoints`, `san`, `sched` — the crash-point sweep, the
//!   persistence-ordering sanitizer run and deterministic schedule
//!   exploration (DESIGN.md §5; recipes in EXPERIMENTS.md).
//!
//! Every `SPASH_*` knob is read through `spash_bench::knobs`: a bad
//! value, an unknown choice or a misspelled name exits 2 (one table of
//! names, defaults and accepted forms in EXPERIMENTS.md).

mod commands;

const USAGE: &str = "\
usage: spash-bench <fig1|fig7|fig8|fig9|fig10|fig11|fig12[a-d]|all>... [--out P]
       spash-bench perf [--out P] | scale [--out P] [--assert] [--lin-check]
       spash-bench service [--out P] [--lin-check] | compare OLD NEW
       spash-bench crashpoints | san | sched [--seeds N]
knobs: SPASH_<BENCH|PERF|SCALE|SERVICE|CRASH|SAN|SCHED>_* (EXPERIMENTS.md, \"Knobs\")";

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
        "crashpoints" | "san" if !rest.is_empty() => {
            eprintln!("{cmd}: takes no arguments\n{USAGE}");
            std::process::exit(2);
        }
        "crashpoints" => commands::crashpoints(),
        "san" => commands::san(),
        _ => commands::figures(&args),
    }
}
