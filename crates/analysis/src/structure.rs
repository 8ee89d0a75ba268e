//! The structure rows: the repo's structural invariants — one step-5
//! body, one runner, one canary switchboard, a bucket read as one line —
//! as one table ([`ROWS`]) over the already-loaded [`Tree`], run by the
//! `classic` family.
//!
//! A row is one of five checks:
//!
//! * [`Check::Lines`] — how many lines of a path set match a pattern:
//!   none (absent), exactly `n`, or at least one; over whole files, over
//!   the parsed body of one function ([`SrcFile::funcs`] spans), or
//!   outside it;
//! * [`Check::Before`] — in one function body, one pattern's first line
//!   comes before another's;
//! * [`Check::NoFile`] — no file of the tree lies at a path;
//! * [`Check::CanariesArmed`] — every variant of `enum Canary` is
//!   `armed(Canary::…)` in non-test code;
//! * [`Check::TestRuns`] — a named `#[test]` exists and is not
//!   `#[ignore]`d, so the test run that tier-1 makes runs it.
//!
//! Unlike every other rule, a structure finding is neither exempt in
//! test code nor waivable: a row says itself which text it reads
//! ([`Text`]), and a `lint:allow(structure)` comment silences nothing.
//! This file is in no row's scope: its string literals are the
//! patterns.

use crate::conc_rules::{canary_variants, CANARY_FILE};
use crate::lint::contains_token;
use crate::parse::{tokenize, Func};
use crate::tree::{Sink, SrcFile, Tree};

pub const RULE_STRUCTURE: &str = "structure";

/// This file: the table, not code under it.
const TABLE_FILE: &str = "crates/analysis/src/structure.rs";

/// Which lines of a file a pattern reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Text {
    /// Every line as written: comments, strings and test code included.
    Raw,
    /// The raw lines of non-test code: not under a test path, not inside
    /// a `#[cfg(test)]` item.
    NonTest,
    /// [`Text::NonTest`] without the lines that are only a `//` comment.
    NonTestUncommented,
}

impl Text {
    /// Is 1-based line `at` of `file`, reading `line`, in this text?
    pub fn reads(self, file: &SrcFile, at: usize, line: &str) -> bool {
        match self {
            Text::Raw => true,
            Text::NonTest => !file.is_test && !file.in_test(at),
            Text::NonTestUncommented => {
                !file.is_test && !file.in_test(at) && !line.trim_start().starts_with("//")
            }
        }
    }
}

/// A line matches when it holds one of `any` (as a whole token when
/// `token`, else as a substring, at an occurrence not directly preceded
/// by one of `not_after`) and every one of `also`.
#[derive(Clone, Copy, Debug)]
pub struct Pat {
    pub any: &'static [&'static str],
    pub token: bool,
    pub not_after: &'static [&'static str],
    pub also: &'static [&'static str],
    pub text: Text,
}

const fn sub(any: &'static [&'static str]) -> Pat {
    Pat {
        any,
        token: false,
        not_after: &[],
        also: &[],
        text: Text::Raw,
    }
}

const fn tok(any: &'static [&'static str]) -> Pat {
    Pat { token: true, ..sub(any) }
}

impl Pat {
    const fn not_after(self, not_after: &'static [&'static str]) -> Pat {
        Pat { not_after, ..self }
    }

    const fn also(self, also: &'static [&'static str]) -> Pat {
        Pat { also, ..self }
    }

    const fn text(self, text: Text) -> Pat {
        Pat { text, ..self }
    }

    pub fn matches(&self, line: &str) -> bool {
        let has = |n: &str, not_after: &[&str]| {
            if self.token {
                contains_token(line, n)
            } else {
                line.match_indices(n)
                    .any(|(at, _)| !not_after.iter().any(|p| line[..at].ends_with(p)))
            }
        };
        self.any.iter().any(|n| has(n, self.not_after)) && self.also.iter().all(|a| has(a, &[]))
    }

    fn describe(&self) -> String {
        let mut s = self.any.join("` | `");
        if !self.also.is_empty() {
            s = format!("{s}` with `{}", self.also.join("`, `"));
        }
        format!("`{s}`")
    }
}

/// How many matching lines a [`Check::Lines`] row wants.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Want {
    Exactly(usize),
    AtLeastOne,
}

/// Which lines of the files in scope a [`Check::Lines`] row reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Within {
    Files,
    /// The body of every non-test function of that name; the count is
    /// per function, and at least one such function must exist.
    Fn(&'static str),
    /// Every line outside the bodies of the non-test functions of that name.
    OutsideFn(&'static str),
}

#[derive(Clone, Copy, Debug)]
pub enum Check {
    /// The lines `pat` matches, in the files under `scope` (path globs:
    /// `*` is one path segment, a trailing `/` takes the whole directory)
    /// but not in `except`, held to `want`.
    Lines {
        scope: &'static [&'static str],
        except: &'static [&'static str],
        within: Within,
        pat: Pat,
        want: Want,
    },
    /// In every non-test function `func` of `file`, the first line
    /// matching `first` comes before the first line matching `then`.
    Before {
        file: &'static str,
        func: &'static str,
        first: &'static str,
        then: &'static str,
    },
    /// No file of the tree matches this glob.
    NoFile(&'static str),
    /// Every `Canary` variant is `armed(Canary::…)` in the non-test code
    /// of `crates/*/src/` or `src/`.
    CanariesArmed,
    /// `file` holds a function at in-file module path `test` (`tests::f`)
    /// under `#[test]` and not under `#[ignore]`.
    TestRuns {
        file: &'static str,
        test: &'static str,
    },
}

#[derive(Clone, Copy, Debug)]
pub struct Row {
    pub name: &'static str,
    /// Why the invariant holds: what a violation would break.
    pub reason: &'static str,
    pub check: Check,
}

const fn lines(scope: &'static [&'static str], pat: Pat, want: Want) -> Check {
    Check::Lines {
        scope,
        except: &[],
        within: Within::Files,
        pat,
        want,
    }
}

const fn absent(scope: &'static [&'static str], pat: Pat) -> Check {
    absent_except(scope, &[], pat)
}

const fn absent_except(scope: &'static [&'static str], except: &'static [&'static str], pat: Pat) -> Check {
    Check::Lines {
        scope,
        except,
        within: Within::Files,
        pat,
        want: NONE,
    }
}

const fn in_fn(file: &'static [&'static str], func: &'static str, pat: Pat, want: Want) -> Check {
    Check::Lines {
        scope: file,
        except: &[],
        within: Within::Fn(func),
        pat,
        want,
    }
}

const fn before(file: &'static str, func: &'static str, first: &'static str, then: &'static str) -> Check {
    Check::Before {
        file,
        func,
        first,
        then,
    }
}

const fn row(name: &'static str, reason: &'static str, check: Check) -> Row {
    Row {
        name,
        reason,
        check,
    }
}

/// A [`Check::TestRuns`] row, named by the test's in-file path.
const fn test_runs(reason: &'static str, file: &'static str, test: &'static str) -> Row {
    row(test, reason, Check::TestRuns { file, test })
}

const NONE: Want = Want::Exactly(0);
const ONE: Want = Want::Exactly(1);
const SOME: Want = Want::AtLeastOne;

const EVERY_CRATE_SRC: &[&str] = &["crates/*/src/", "src/"];
const SPLIT: &[&str] = &["crates/core/src/split.rs"];
const RECOVERY: &[&str] = &["crates/core/src/recovery.rs"];
const ALLOC: &[&str] = &["crates/alloc/src/lib.rs"];
const SCHED: &[&str] = &["crates/sched/src/lib.rs"];
const SCHEDHOOK: &[&str] = &["crates/pmem/src/schedhook.rs"];
const BENCH: &[&str] = &["crates/bench/src/"];
const KNOBS_RS: &str = "crates/bench/src/knobs.rs";
const INDEXES_RS: &str = "crates/bench/src/indexes.rs";
const CELLS: &str = "crates/bench/src/experiments/mod.rs";
/// A call of `phase_sched` (not its definition) in non-test code.
const PHASE_SCHED_CALL: Pat = sub(&["phase_sched("]).not_after(&["fn "]).text(Text::NonTest);

const STEP5: &str = "The lock fallback and the Fig 12c lock modes run the same generic \
    bodies as the HTM path (crates/core/src/access.rs); a re-grown hand-written twin is a \
    regression.";
const MERGE: &str = "try_merge runs after every successful remove. A plain read of the \
    segment's four fp words turns an occupied segment away before a transaction opens \
    (DESIGN.md §6): exactly one transaction in try_merge_impl, and it comes after that read.";
const DOUBLING: &str = "DESIGN.md §13: no directory halving (it copied a split's uncommitted \
    entries), and the split is one preparation, one body and one retry loop whose \
    capacity-abort fallback runs the same body through Plain under the partition locks. The \
    race regression and the concurrent lin-checks of that fallback must run.";
const BUCKET: &str = "DESIGN.md §4: one line read is one modelled access, so Spash reads a \
    bucket with one read_line and a segment with read_segment's four, never word by word: the \
    bucket reader, the split snapshot and recovery's segment loop hold no read_u64. Recovery \
    reads no blob key at all: the fp rebuild takes each slot's hash bits from its key word, so \
    recovery.rs's code names neither hash_of_kw nor a blob line, and recovery fetches only \
    header and image lines at the prefetch table's rate (recovery_reads_no_blob_line). The \
    allocator's header walk reads its table a line at a time (one read_line per 16 headers), \
    never a header word, through the shared prefetch window, so it too runs at the table's \
    rate (header_walk_runs_at_the_tables_rate), and only below the persisted high-water mark: \
    its loop is never bounded by the table's n_chunks. The walk's tests must run.";
const HARNESS: &str = "One crash-sweep engine (crashpoint.rs; service/sweep.rs is a driver \
    for it), one SweepOp applier, one runner (run_scheduled: every measured phase is \
    cooperative tasks, never OS threads of the harness's own), one knob reader. Every report \
    is a pure function of its inputs: no host clock, no process-global row sink, no second \
    runner. One cell catalog under perf, scale and service: one Cell (the only caller of \
    phase_sched), one suite config, and no retired-namespace knob outside the \
    retired-namespace table and its built-binary test. One driver per verification property: \
    the sanitizer gate is the crash sweep's record pass (no second sanitizer driver), the \
    index lin-check is sched's (no scale lin-check), the crash-at-decision run is the lin \
    driver's run (no run_tasks of its own), and one history log (history::Recorder). A \
    re-grown copy drifts.";
const INDEX: &str = "One extendible-hash chassis under CCEH and Dash (exthash.rs), one \
    census-vs-reachability audit (HeapCensus::audit, in spash-alloc) fed by one reachability \
    walk per index (Spash's is its integrity walk), no blocking-doubling path or \
    overlay-size knob, one counter list (pmem/stats.rs), one front door to the figures.";
const CANARY: &str = "Every planted bug is a variant of spash_pmem::canary::Canary \
    (DESIGN.md §5, \"Mutation canaries\"), armed by a guard. No per-crate switch module, \
    string-keyed site registry or bench switch grows back; the only static AtomicBool in \
    non-test source is the switchboard's own array; and every variant is consulted by \
    non-test source (a canary nothing reads plants nothing).";
const KNOBS: &str = "One platform is calibrated, so the cost model and the cache geometry are \
    constants (CostModel::*, CACHE_WAYS, XPBUFFER_SLOTS) and no lock cost is threaded by \
    hand; pre-image capture follows the persistence domain (no fidelity switch); Spash owns \
    its hot-key detector, so a config holds no volatile state.";
const ROSTER: &str = "DESIGN.md §2, \"Index roster\": the paper's comparison set is listed \
    once, in spash-bench's indexes::roster, at its sweep, suite and figure geometries; every \
    figure, suite, `sched` and `crashpoints` builds from it. A second roster or a \
    figure-only index factory drifts.";
const FRONT_END: &str = "DESIGN.md §9: the classic, flow and conc families read one Tree (one \
    walk of the root; one strip, parse and lowering per file) and report through one Sink \
    under one test-path predicate. The per-family wrappers stay deleted.";
const DOMAINS: &str = "DESIGN.md §13, \"Spash under ADR is a negative control\": Spash claims \
    nothing under ADR, so its code never reads the persistence domain outside tests, and the \
    sanitizer has one mode, armed by CheckLevel::arms_sanitizer. The ADR-only blob flush, its \
    canary sites, the Relaxed mode and its ordered-range registry stay deleted.";
const HOST_COST: &str = "DESIGN.md §4, \"Host cost of a modelled event\": a transaction \
    attempt, a scheduler decision and a sync point allocate and clone nothing; a sync point \
    inside the stay budget touches no hook, lock or atomic; a handoff wakes one thread \
    (notify_all only where the world stops) and the trace leaves run_tasks by move; a cache \
    set's tags are one host line behind a one-word lock; counters and the active span are \
    the context's own (no thread-local); one host prefetch instruction, in \
    spash_pmem::host_prefetch.";
const JOURNAL: &str = "Under eADR a batch record overwrites its whole line, so \
    JournalSpec::publish writes it with one ntstore and one fence (DESIGN.md §11): no \
    read-for-ownership, no clwb, no cache line taken from the index. The named test pins the \
    counts and the 160 virtual ns.";

/// Every structure row, grouped by the invariant its reason states.
#[rustfmt::skip]
pub const ROWS: &[Row] = &[
    row("no-lockmode-file", STEP5, Check::NoFile("crates/core/src/lockmode.rs")),
    row("no-lockmode-twins", STEP5, absent(&["crates/core/src/"], sub(&["fn locked_", "_lockmode"]))),

    row("merge-one-transaction", MERGE, in_fn(SPLIT, "try_merge_impl", sub(&["try_transaction"]), ONE)),
    row("merge-reads-fp-first", MERGE, before(SPLIT[0], "try_merge_impl", "fptable.word_addr", "try_transaction")),

    row("no-halving-or-locked-split", DOUBLING, absent(&["crates/"], sub(&["try_halve", "split_locked", "split_under_locks"]))),
    test_runs(DOUBLING, "tests/sched.rs", "merge_racing_a_split_keeps_every_key"),
    test_runs(DOUBLING, "tests/sched.rs", "spash_lock_fallback_histories_linearize"),
    test_runs(DOUBLING, "tests/sched.rs", "spash_split_fallback_histories_linearize"),
    test_runs(DOUBLING, "tests/sched.rs", "spash_doubling_under_readers_linearizes_with_locked_splits"),

    row("bucket-reads-a-line", BUCKET, in_fn(&["crates/core/src/ops.rs"], "read_bucket", sub(&["read_line("]), SOME)),
    row("bucket-reads-no-word", BUCKET, in_fn(&["crates/core/src/ops.rs"], "read_bucket", sub(&["read_u64("]), NONE)),
    row("snapshot-reads-no-word", BUCKET, in_fn(SPLIT, "snapshot_segment", sub(&["read_u64("]), NONE)),
    row("recovery-reads-segments-in-its-loop", BUCKET, before(RECOVERY[0], "recover_impl", "for &seg in segs {", "read_segment(")),
    row("recovery-reads-no-word", BUCKET, in_fn(RECOVERY, "recover_impl", sub(&["read_u64("]), NONE)),
    row("recovery-reads-no-blob", BUCKET, absent(RECOVERY, sub(&["hash_of_kw", "blob", "line_of"]).text(Text::NonTestUncommented))),
    row("header-walk-reads-lines", BUCKET, in_fn(ALLOC, "walk_headers", sub(&["read_line("]), SOME)),
    row("header-walk-reads-no-word", BUCKET, in_fn(ALLOC, "walk_headers", sub(&["read_u64("]), NONE)),
    row("header-walk-stops-at-the-mark", BUCKET, in_fn(ALLOC, "walk_headers", sub(&["n_chunks"]), NONE)),
    test_runs(BUCKET, ALLOC[0], "tests::header_walk_is_one_access_per_header_line"),
    test_runs(BUCKET, ALLOC[0], "tests::header_walk_stops_at_the_high_water_mark"),
    test_runs(BUCKET, ALLOC[0], "tests::header_walk_skips_the_lines_inside_a_run"),
    test_runs(BUCKET, ALLOC[0], "tests::header_walk_runs_at_the_tables_rate"),
    test_runs(BUCKET, ALLOC[0], "tests::recovery_time_does_not_depend_on_reads_before_the_cut"),
    test_runs(BUCKET, "tests/high_water_canary.rs", "adr_sweep_catches_a_skipped_high_water_flush"),
    test_runs(BUCKET, RECOVERY[0], "tests::recovery_reads_no_blob_line"),

    row("no-apply-twins", HARNESS, absent(&["crates/"], tok(&["fn apply_real", "fn apply_silent"]))),
    row("one-sweep-engine", HARNESS, lines(&["crates/"], tok(&["fn sweep_one"]), ONE)),
    row("one-vtime-floor-raise", HARNESS, lines(BENCH, sub(&["raise_vtime_floor("]), ONE)),
    row("one-knob-reader", HARNESS, absent_except(BENCH, &[KNOBS_RS], sub(&["from_str_radix"]))),
    row("knob-reader-parses", HARNESS, lines(&[KNOBS_RS], sub(&["from_str_radix"]), SOME)),
    row("no-harness-threads", HARNESS, absent(BENCH, sub(&["thread::scope", "thread::spawn"]))),
    row("one-runner", HARNESS, lines(BENCH, sub(&["run_batch("]).not_after(&["."]), ONE)),
    row("one-runner-no-run-tasks", HARNESS, absent(BENCH, sub(&["run_tasks("]))),
    row("pure-reports", HARNESS, absent(BENCH, sub(&["run_inline", "PhaseMeter", "drain_rows", "static SINK", "host_ns", "created_unix", "virtual-only"]))),
    row("retired-knob-namespaces", HARNESS, absent_except(&["crates/"], &[KNOBS_RS, "crates/bench/tests/cli_knobs.rs"], sub(&["SPASH_PERF_", "SPASH_SCALE_", "SPASH_SERVICE_", "SPASH_SAN_"]))),
    row("one-sanitizer-driver", HARNESS, absent(&["crates/"], sub(&["sandrive", "run_san", "SanRunConfig"]))),
    row("one-lin-check", HARNESS, absent(&["crates/bench/"], sub(&["LinCheckConfig", "fn lin_check_target"]))),
    row("one-history-log", HARNESS, lines(&["crates/", "tests/"], sub(&["Mutex<Vec<HistOp", "Mutex<Vec::<HistOp", "Mutex::new(Vec<HistOp", "Mutex::new(Vec::<HistOp"]), ONE)),
    row("crash-run-is-the-lin-run", HARNESS, absent(&["crates/sched/src/crashsched.rs"], sub(&["run_tasks("]))),
    row("one-suite-config", HARNESS, absent(&["crates/bench/"], sub(&["PerfConfig", "ScaleConfig", "ServiceSuiteConfig"]))),
    row("one-phase-sched-caller", HARNESS, absent_except(BENCH, &[CELLS], PHASE_SCHED_CALL)),
    row("only-cell-run-calls-phase-sched", HARNESS, Check::Lines { scope: &[CELLS], except: &[], within: Within::OutsideFn("run"), pat: PHASE_SCHED_CALL, want: NONE }),
    row("cell-run-calls-phase-sched-once", HARNESS, in_fn(&[CELLS], "run", sub(&["phase_sched("]), ONE)),

    row("one-exthash-chassis", INDEX, lines(&["crates/baselines/src/"], tok(&["struct Dir"]), ONE)),
    row("one-census-audit", INDEX, absent(&["crates/core/src/", "crates/baselines/src/"], sub(&["small_slots", "fn audit_census"]))),
    row("no-blocking-doubling", INDEX, absent(&["crates/", "tests/", "examples/"], sub(&["await_stage", "stage_done_t", "collaborative_doubling", "overlay_entries"]))),
    row("one-counter-list", INDEX, absent(BENCH, sub(&["COUNTER_FIELDS"]))),
    row("no-bench-benches", INDEX, Check::NoFile("crates/bench/benches/")),

    row("no-testhooks", CANARY, Check::NoFile("crates/*/src/testhooks.rs")),
    row("no-site-registry", CANARY, absent(&["crates/", "src/", "tests/", "examples/"], sub(&["site_enabled(", "set_contention_inflation"]))),
    row("one-switchboard-array", CANARY, absent_except(EVERY_CRATE_SRC, &[CANARY_FILE], tok(&["AtomicBool"]).also(&["static"]).text(Text::NonTest))),
    row("every-canary-armed", CANARY, Check::CanariesArmed),

    row("no-fidelity-or-oracle-knob", KNOBS, absent(&["crates/", "tests/", "examples/"], sub(&["CrashFidelity", "fresh_volatile", "HotnessOracle", "ConstDetector"]))),
    row("no-threaded-lock-cost", KNOBS, absent(&["crates/*/src/"], tok(&["lock_ns: u64"]))),
    row("no-acquire-cost", KNOBS, absent(&["crates/*/src/"], sub(&["acquire_ns"]))),
    row("no-config-cost", KNOBS, absent(&["crates/"], sub(&["config().cost."]))),

    row("one-roster", ROSTER, lines(&[INDEXES_RS], tok(&["fn roster"]), ONE)),
    row("roster-only-in-bench", ROSTER, absent_except(&["crates/"], &[INDEXES_RS], tok(&["fn roster"]))),
    row("no-second-roster", ROSTER, absent(&["crates/", "src/", "tests/", "examples/", "benchmark/src/"], sub(&["enum IndexKind", "fn build_index", "fn crash_targets", "fn all_targets"]))),

    row("one-tree-walk", FRONT_END, lines(&["crates/analysis/src/"], sub(&["collect_rs_files("]).not_after(&["fn "]), ONE)),
    row("one-test-path-predicate", FRONT_END, lines(&["crates/analysis/src/"], sub(&["fn is_test_path"]), ONE)),
    row("no-per-family-wrappers", FRONT_END, absent(&["crates/analysis/"], sub(&["lint_tree_counted", "check_files_stats", "check_files_conc_stats", "check_tree_conc", "conc_report_json"]))),

    row("one-sanitizer-mode", DOMAINS, absent(&["crates/", "src/", "tests/"], sub(&["SanMode", "san_ordered", "register_ordered", "san_mode_for", "spash.payload"]))),
    row("spash-ignores-the-domain", DOMAINS, absent(&["crates/core/src/"], sub(&["PersistenceDomain", "config().domain"]).text(Text::NonTest))),

    row("tx-allocates-nothing", HOST_COST, in_fn(&["crates/htm/src/lib.rs"], "try_transaction", sub(&["Vec::with_capacity"]), NONE)),
    row("pick-pushes-the-trace", HOST_COST, in_fn(SCHED, "pick", sub(&["trace.push"]), SOME)),
    row("pick-collects-nothing", HOST_COST, in_fn(SCHED, "pick", sub(&["collect()"]), NONE)),
    row("sync-point-settles-stays", HOST_COST, in_fn(SCHEDHOOK, "sync_point", sub(&["STAYS.replace"]), SOME)),
    row("sync-point-touches-nothing", HOST_COST, in_fn(SCHEDHOOK, "sync_point", sub(&[".clone()", "HOOK.", "Ordering::"]), NONE)),
    row("report-clones-nothing", HOST_COST, in_fn(SCHEDHOOK, "report", sub(&[".clone()"]), NONE)),
    row("notify-all-only-where-the-world-stops", HOST_COST, Check::Lines { scope: SCHED, except: &[], within: Within::OutsideFn("stop_world"), pat: sub(&["notify_all"]), want: NONE }),
    row("trace-leaves-by-move", HOST_COST, in_fn(SCHED, "run_tasks", sub(&["trace.clone()"]), NONE)),
    row("one-lock-word-per-set", HOST_COST, absent(&["crates/pmem/src/cache.rs"], sub(&["struct Way", "Mutex<Shard>"]))),
    row("no-thread-local-span", HOST_COST, absent(&["crates/pmem/src/span.rs"], sub(&["thread_local!"]))),
    row("one-host-prefetch", HOST_COST, lines(&["crates/", "benchmark/src/", "src/", "tests/", "examples/"], sub(&["_mm_prefetch"]), ONE)),

    test_runs(JOURNAL, "crates/service/src/lib.rs", "tests::eadr_publish_is_one_ntstore_and_one_fence"),
    row("journal-publishes-non-temporally", JOURNAL, lines(&["crates/service/src/lib.rs"], sub(&["ctx.ntstore_bytes("]), SOME)),
];

/// Does `path` match `glob` (`*` is one segment; a trailing `/` takes
/// everything below)?
fn glob_matches(glob: &str, path: &str) -> bool {
    let (dir, glob) = match glob.strip_suffix('/') {
        Some(g) => (true, g),
        None => (false, glob),
    };
    let (g, p): (Vec<&str>, Vec<&str>) = (glob.split('/').collect(), path.split('/').collect());
    if p.len() < g.len() || (!dir && p.len() != g.len()) || (dir && p.len() == g.len()) {
        return false;
    }
    g.iter().zip(&p).all(|(g, p)| *g == "*" || g == p)
}

/// The files a [`Check::Lines`] row reads.
pub fn files_in<'t>(
    tree: &'t Tree,
    scope: &'t [&'t str],
    except: &'t [&'t str],
) -> impl Iterator<Item = &'t SrcFile> {
    tree.files.iter().filter(move |f| {
        f.path != TABLE_FILE
            && scope.iter().any(|g| glob_matches(g, &f.path))
            && !except.contains(&f.path.as_str())
    })
}

/// The non-test functions of `file` named `name`.
pub fn fns_named<'f>(file: &'f SrcFile, name: &str) -> Vec<&'f Func> {
    file.funcs
        .iter()
        .filter(|f| f.name == name && !file.in_test(f.line))
        .collect()
}

/// The 1-based numbers of the lines of `file` in `lo..=hi` that `pat`
/// reads and matches.
fn hits(file: &SrcFile, pat: &Pat, lo: usize, hi: usize) -> Vec<usize> {
    if !pat.any.iter().any(|n| file.text.contains(n)) {
        return Vec::new();
    }
    file.text
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l))
        .filter(|&(at, l)| lo <= at && at <= hi && pat.text.reads(file, at, l) && pat.matches(l))
        .map(|(at, _)| at)
        .collect()
}

/// Run every row over `tree`. Virtual work is lines read.
pub fn run(tree: &Tree, sink: &mut Sink) {
    for row in ROWS {
        check(tree, row, sink);
    }
}

/// Run one row.
fn check(tree: &Tree, row: &Row, sink: &mut Sink) {
    let mut report = |file: &str, line: usize, what: String| {
        sink.push_always(file, line, RULE_STRUCTURE, format!("{}: {what}. {}", row.name, row.reason));
    };
    let mut read = 0u64;
    match row.check {
        Check::Lines {
            scope,
            except,
            within,
            pat,
            want,
        } => {
            // Each group is held to `want` on its own: one per function
            // for `Within::Fn`, else the whole scope. (anchor file and
            // line, where, the matching lines)
            let files: Vec<&SrcFile> = files_in(tree, scope, except).collect();
            read += files.iter().map(|f| f.test_lines.len() as u64).sum::<u64>();
            let mut groups: Vec<(&str, usize, String, Vec<(&str, usize)>)> = Vec::new();
            if let Within::Fn(name) = within {
                for f in &files {
                    for g in fns_named(f, name) {
                        let found = hits(f, &pat, g.line, g.end_line).into_iter().map(|l| (f.path.as_str(), l));
                        groups.push((&f.path, g.line, format!("fn `{name}`"), found.collect()));
                    }
                }
                if groups.is_empty() {
                    report(scope[0], 1, format!("no non-test fn `{name}` in {}", scope.join(", ")));
                }
            } else {
                let mut found = Vec::new();
                for f in &files {
                    let skip = match within {
                        Within::OutsideFn(name) => fns_named(f, name),
                        _ => Vec::new(),
                    };
                    let outside = |&l: &usize| !skip.iter().any(|g| g.line <= l && l <= g.end_line);
                    let lines = hits(f, &pat, 1, f.test_lines.len()).into_iter().filter(outside);
                    found.extend(lines.map(|l| (f.path.as_str(), l)));
                }
                groups.push((scope[0], 1, scope.join(", "), found));
            }
            let what = pat.describe();
            for (file, line, place, found) in groups {
                match want {
                    Want::Exactly(0) => {
                        for (f, l) in found {
                            report(f, l, format!("{what} is not allowed in {place}"));
                        }
                    }
                    Want::Exactly(k) if found.len() != k => {
                        let at: Vec<String> = found.iter().map(|(f, l)| format!("{f}:{l}")).collect();
                        let (f, l) = found.first().copied().unwrap_or((file, line));
                        report(f, l, format!("{} lines of {place} match {what}, want {k} (at {})", found.len(), at.join(", ")));
                    }
                    Want::AtLeastOne if found.is_empty() => {
                        report(file, line, format!("no line of {place} matches {what}"))
                    }
                    _ => {}
                }
            }
        }
        Check::Before {
            file,
            func,
            first,
            then,
        } => {
            let funcs: Vec<(&SrcFile, &Func)> = tree
                .files
                .iter()
                .filter(|f| f.path == file)
                .flat_map(|f| fns_named(f, func).into_iter().map(move |g| (f, g)))
                .collect();
            if funcs.is_empty() {
                report(file, 1, format!("no non-test fn `{func}`"));
            }
            for (f, g) in funcs {
                read += (g.end_line + 1 - g.line) as u64;
                let at = |n: &str| {
                    let body = f.text.lines().enumerate().take(g.end_line).skip(g.line - 1);
                    body.filter(|(_, l)| l.contains(n)).map(|(i, _)| i + 1).next()
                };
                let (a, b) = (at(first), at(then));
                if !matches!((a, b), (Some(a), Some(b)) if a < b) {
                    let line = |x: Option<usize>| x.map_or("none".into(), |l| l.to_string());
                    let (a, b) = (line(a), line(b));
                    report(&f.path, g.line, format!("in fn `{func}`, `{first}` (line {a}) must come before `{then}` (line {b})"));
                }
            }
        }
        Check::NoFile(glob) => {
            for f in tree.files.iter().filter(|f| glob_matches(glob, &f.path)) {
                report(&f.path, 1, format!("no file may exist at {glob}"));
            }
        }
        Check::CanariesArmed => {
            let variants = canary_variants(tree);
            if variants.is_empty() {
                report(CANARY_FILE, 1, "no `pub enum Canary` variant found".into());
            }
            let files: Vec<&SrcFile> = files_in(tree, EVERY_CRATE_SRC, &[]).collect();
            read += files.iter().map(|f| f.test_lines.len() as u64).sum::<u64>();
            let consulted: Vec<&str> = files
                .into_iter()
                .flat_map(|f| f.text.lines().enumerate().map(move |(i, l)| (f, i + 1, l)))
                .filter(|&(f, at, l)| Text::NonTest.reads(f, at, l) && l.contains("armed(Canary::"))
                .map(|(_, _, l)| l)
                .collect();
            for v in variants {
                let call = format!("armed(Canary::{v})");
                if !consulted.iter().any(|l| l.contains(&call)) {
                    report(CANARY_FILE, 1, format!("canary `{v}` is consulted by no `{call}` in non-test source"));
                }
            }
        }
        Check::TestRuns { file, test } => {
            let f = tree.files.iter().find(|f| f.path == file);
            read += f.map_or(0, |f| f.test_lines.len() as u64);
            match f.and_then(|f| test_attrs(f, test)) {
                None => report(file, 1, format!("no fn at `{test}`")),
                Some((line, false, _)) => report(file, line, format!("fn `{test}` is not a #[test]")),
                Some((line, _, true)) => report(file, line, format!("test `{test}` is #[ignore]d")),
                Some(_) => {}
            }
        }
    }
    sink.virt(RULE_STRUCTURE, read);
}

/// The function at in-file path `test` (`m::n::f`: inside `mod m`,
/// inside `mod n`): its `fn` line, and whether its attribute block holds
/// `#[test]` and `#[ignore…]`.
fn test_attrs(file: &SrcFile, test: &str) -> Option<(usize, bool, bool)> {
    let mut segs: Vec<&str> = test.split("::").collect();
    let name = segs.pop()?;
    let mods: Vec<Vec<(usize, usize)>> = segs.iter().map(|m| mod_spans(&file.stripped, m)).collect();
    let g = file.funcs.iter().find(|g| {
        g.name == name && mods.iter().all(|spans| spans.iter().any(|&(a, b)| a <= g.line && g.line <= b))
    })?;
    let raw: Vec<&str> = file.text.lines().collect();
    let code: Vec<&str> = file.stripped.lines().collect();
    let (mut is_test, mut ignored) = (false, false);
    let mut i = g.line - 1;
    while i > 0 {
        i -= 1;
        let t = raw[i].trim_start();
        if !(t.starts_with("#[") || t.starts_with("//")) {
            break;
        }
        let c = code[i].trim();
        is_test |= c == "#[test]";
        ignored |= c.starts_with("#[ignore");
    }
    Some((g.line, is_test, ignored))
}

/// The 1-based `(first, last)` lines of every `mod name { … }` in blanked
/// source.
fn mod_spans(stripped: &str, name: &str) -> Vec<(usize, usize)> {
    let toks = tokenize(stripped);
    let mut out = Vec::new();
    for i in 0..toks.len().saturating_sub(2) {
        if toks[i].text != "mod" || toks[i + 1].text != name || toks[i + 2].text != "{" {
            continue;
        }
        let mut depth = 0usize;
        for t in &toks[i + 2..] {
            match t.text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        out.push((toks[i].line, t.line));
                        break;
                    }
                }
                _ => {}
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn globs_take_one_segment_per_star_and_a_tree_per_slash() {
        assert!(glob_matches("crates/*/src/", "crates/core/src/ops.rs"));
        assert!(glob_matches("crates/*/src/", "crates/bench/src/experiments/mod.rs"));
        assert!(!glob_matches("crates/*/src/", "crates/bench/tests/cli.rs"));
        assert!(!glob_matches("crates/*/src/", "crates/src/x.rs"));
        assert!(glob_matches("crates/*/src/testhooks.rs", "crates/htm/src/testhooks.rs"));
        assert!(!glob_matches("crates/*/src/testhooks.rs", "crates/htm/src/a/testhooks.rs"));
        assert!(glob_matches("src/", "src/lib.rs"));
        assert!(!glob_matches("src/", "crates/core/src/lib.rs"));
        assert!(!glob_matches("src/lib.rs", "src/lib.rs/x"));
    }

    #[test]
    fn patterns_match_tokens_substrings_and_guards() {
        assert!(tok(&["fn roster"]).matches("pub fn roster(g: Geometry)"));
        assert!(!tok(&["fn roster"]).matches("fn roster_order_is_pinned()"));
        assert!(!tok(&["lock_ns: u64"]).matches("    clock_ns: u64,"));
        assert!(sub(&["blob"]).matches("let blobs = 0;"));
        let call = sub(&["phase_sched("]).not_after(&["fn "]);
        assert!(!call.matches("pub(crate) fn phase_sched(base: u64)"));
        assert!(call.matches("fn a() { phase_sched(1) }"));
        let flag = tok(&["AtomicBool"]).also(&["static"]);
        assert!(flag.matches("static F: std::sync::atomic::AtomicBool = X;"));
        assert!(!flag.matches("    held: AtomicBool,"));
    }

    #[test]
    fn a_test_is_found_by_its_module_path_and_attributes() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn f() {}\n    #[test]\n    // why\n    #[ignore]\n    fn g() {}\n    fn h() {}\n}\n";
        let tree = Tree::from_files([("crates/x/src/lib.rs", src)]);
        let f = &tree.files[0];
        assert_eq!(test_attrs(f, "tests::f"), Some((5, true, false)));
        assert_eq!(test_attrs(f, "tests::g"), Some((9, true, true)));
        assert_eq!(test_attrs(f, "tests::h"), Some((10, false, false)));
        assert_eq!(test_attrs(f, "other::f"), None);
        assert_eq!(test_attrs(f, "f"), Some((1, false, false)));
    }
}
