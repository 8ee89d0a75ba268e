//! `spash-lint`: check the workspace's source-level invariants.
//!
//! Usage: `spash-lint [MODE] [--json] [--out FILE] [ROOT]`
//!
//! Modes:
//! * `classic` (default) — the token-pattern rules of
//!   `spash_analysis::lint` (std-sync, host-time, …) and the structure
//!   rows of `spash_analysis::structure`.
//! * `flow` — the path-sensitive flush/fence dataflow rules of
//!   `spash_analysis::flow_rules` (CFG + call-graph summaries), plus the
//!   waiver/`san_forgive` cross-check.
//! * `conc` — the concurrency-discipline rules of
//!   `spash_analysis::conc_rules` (interprocedural locksets,
//!   check-then-act detection, sync-model cross-check) plus the
//!   shared-PM-word inventory.
//! * `all` — everything.
//!
//! `--json` prints a machine-readable report (schema 2: per-rule
//! `rule_stats`, plus the shared-word `inventory` in conc/all mode)
//! instead of text; `--out FILE` writes it to a file as well. Exits 0
//! when clean, 1 with one line per violation otherwise.

use std::path::Path;
use std::process::ExitCode;

use spash_analysis::lint::{self, report_json, RULES};
use spash_analysis::structure::{ROWS, RULE_STRUCTURE};
use spash_analysis::tree::{Sink, Tree};
use spash_analysis::{conc_rules, flow_rules};

fn usage() {
    println!("usage: spash-lint [classic|flow|conc|all] [--json] [--out FILE] [ROOT]");
    println!("classic rules: {}, {RULE_STRUCTURE}", RULES.join(", "));
    let rows: Vec<&str> = ROWS.iter().map(|r| r.name).collect();
    println!("structure rows (never waived, test code included): {}", rows.join(", "));
    println!(
        "flow rules: {}, {}, {}, {}",
        flow_rules::RULE_FLUSH_FENCE,
        flow_rules::RULE_HTM_CLWB,
        flow_rules::RULE_PUBLISH_INIT,
        flow_rules::RULE_WAIVER_XREF,
    );
    println!("conc rules: {}", conc_rules::CONC_RULES.join(", "));
    println!("waive: // lint:allow(<rule>): <reason>   (line or block above)");
    println!("       // lint:allow-file(<rule>): <reason>");
    println!("flow waivers must cite their dynamic twin: san=<file>::<fn> or san=none(<why>)");
    println!("conc waivers must cite theirs: sched=<index|canary>, san=<file>::<fn>, or sched=none(<why>)");
}

fn main() -> ExitCode {
    let mut mode = "classic".to_string();
    let mut json = false;
    let mut out_file: Option<String> = None;
    let mut root = ".".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            "classic" | "flow" | "conc" | "all" => mode = a,
            "--json" => json = true,
            "--out" => match args.next() {
                Some(f) => out_file = Some(f),
                None => {
                    eprintln!("spash-lint: --out needs a file argument");
                    return ExitCode::FAILURE;
                }
            },
            _ => root = a,
        }
    }

    let tree = match Tree::load(Path::new(&root)) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("spash-lint: cannot walk {root}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let files_scanned = tree.files.len();
    let mut sink = Sink::default();
    let mut inventory = None;
    if mode == "classic" || mode == "all" {
        lint::run(&tree, &mut sink);
    }
    if mode == "flow" || mode == "all" {
        flow_rules::run(&tree, &mut sink);
    }
    if mode == "conc" || mode == "all" {
        inventory = Some(conc_rules::run(&tree, &mut sink));
    }
    let (findings, stats) = sink.finish();

    if json || out_file.is_some() {
        let report = report_json(
            &mode,
            files_scanned,
            &findings,
            &stats,
            inventory.as_deref(),
        )
        .render();
        if let Some(path) = &out_file {
            if let Err(e) = std::fs::write(path, &report) {
                eprintln!("spash-lint: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        if json {
            print!("{report}");
        }
    }
    if !json {
        for f in &findings {
            println!("{f}");
        }
    }
    if findings.is_empty() {
        eprintln!("spash-lint[{mode}]: clean ({files_scanned} files)");
        ExitCode::SUCCESS
    } else {
        eprintln!("spash-lint[{mode}]: {} violation(s)", findings.len());
        ExitCode::FAILURE
    }
}
