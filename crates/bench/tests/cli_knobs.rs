//! The built `spash-bench` refuses a mistyped knob instead of running
//! the wrong thing: a set-but-unparseable value, an unknown choice and a
//! misspelled name each exit 2 and name the knob on stderr (ROADMAP 4e).
//! At the parent commit these ran seed 0x5eed, a Spash-only sweep and
//! the default-size sweep respectively, and exited 0/1.

use std::process::{Command, Output};

fn spash_bench(args: &[&str], knobs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_spash-bench"));
    // Start from a knob-free environment so the host's own SPASH_*
    // settings cannot change what is being tested.
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("SPASH_") {
            cmd.env_remove(name);
        }
    }
    cmd.envs(knobs.iter().copied());
    cmd.args(args).output().expect("spawn spash-bench")
}

fn assert_rejected(out: &Output, knob: &str, also: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains(knob), "knob not named: {stderr}");
    assert!(
        stderr.contains(also),
        "accepted forms / value missing: {stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "ran something before rejecting the knob"
    );
}

#[test]
fn unparseable_value_exits_2_naming_the_knob() {
    let out = spash_bench(
        &["perf", "--out", "/dev/null"],
        &[("SPASH_PERF_SEED", "0xbeefy")],
    );
    assert_rejected(&out, "SPASH_PERF_SEED", "0xbeefy");
    let out = spash_bench(&["fig9"], &[("SPASH_BENCH_THREADS", "1,8,5b")]);
    assert_rejected(&out, "SPASH_BENCH_THREADS", "comma list");
}

/// A zero count or ladder element is refused up front, before anything
/// runs: accepted, the thread, shard and batch values end in an
/// `assert!(… >= 1)` panic (exit 101) partway through a suite, and a
/// zero repeat count would run one repeat while echoing `"repeats": "0"`.
#[test]
fn zero_counts_exit_2_naming_the_knob() {
    for (cmd, knob, value) in [
        ("scale", "SPASH_SCALE_THREADS", "0"),
        ("service", "SPASH_SERVICE_SHARDS", "2,0"),
        ("service", "SPASH_SERVICE_BATCH", "0"),
        ("fig7", "SPASH_BENCH_THREADS", "1,0"),
        ("perf", "SPASH_PERF_REPEATS", "0"),
    ] {
        let out = spash_bench(&[cmd, "--out", "/dev/null"], &[(knob, value)]);
        assert_rejected(&out, knob, "positive");
    }
}

#[test]
fn unknown_choice_exits_2_listing_the_choices() {
    let out = spash_bench(&["crashpoints"], &[("SPASH_CRASH_TARGETS", "basline")]);
    assert_rejected(&out, "SPASH_CRASH_TARGETS", "spash|baselines|all");
    let out = spash_bench(&["sched", "--seeds", "1"], &[("SPASH_SCHED_DOMAIN", "ADR")]);
    assert_rejected(&out, "SPASH_SCHED_DOMAIN", "eadr|adr");
}

#[test]
fn unknown_name_exits_2_listing_the_family() {
    let out = spash_bench(&["crashpoints"], &[("SPASH_CRASH_OPZ", "10")]);
    assert_rejected(&out, "SPASH_CRASH_OPZ", "OPS");
}

/// The bug the strict reader fixes: `SPASH_PERF_SEED=0xbeef` used to
/// fall back to 0x5eed without a word while the header echoes hex.
#[test]
fn hex_seed_is_accepted_and_echoed() {
    let path = std::env::temp_dir().join(format!("cli_knobs_{}.json", std::process::id()));
    let out = spash_bench(
        &["perf", "--out", path.to_str().unwrap()],
        &[
            ("SPASH_PERF_SEED", "0xbeef"),
            ("SPASH_PERF_KEYS", "200"),
            ("SPASH_PERF_OPS", "40"),
            ("SPASH_PERF_REPEATS", "1"),
        ],
    );
    let report = std::fs::read_to_string(&path).unwrap_or_default();
    let _ = std::fs::remove_file(&path);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.starts_with("# perf: keys=200 ops=40 repeats=1 seed=0xbeef\n"),
        "{stdout}"
    );
    assert!(
        report.contains("\"0xbeef\""),
        "seed not echoed in the report config"
    );
}
