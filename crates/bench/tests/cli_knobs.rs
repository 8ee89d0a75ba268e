//! The built `spash-bench` refuses a mistyped knob instead of running
//! the wrong thing: a set-but-unparseable value, an unknown choice, a
//! misspelled name and a name in a retired namespace each exit 2 and
//! name the knob on stderr. Accepted, they would have run the default
//! seed, a Spash-only sweep and the default-size sweep. A removed
//! subcommand or flag, and a malformed argument, exit 2 the same way.

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

/// A crash sweep small enough to finish in well under a second.
const TINY_SWEEP: [(&str, &str); 4] = [
    ("SPASH_CRASH_OPS", "40"),
    ("SPASH_CRASH_KEYS", "20"),
    ("SPASH_CRASH_POINTS", "4"),
    ("SPASH_CRASH_DOMAIN", "eadr"),
];

#[test]
fn unparseable_value_exits_2_naming_the_knob() {
    let mut knobs = TINY_SWEEP.to_vec();
    knobs.push(("SPASH_CRASH_SEED", "0xbeefy"));
    let out = spash_bench(&["crashpoints"], &knobs);
    assert_rejected(&out, "SPASH_CRASH_SEED", "0xbeefy");
    let out = spash_bench(&["fig9"], &[("SPASH_BENCH_THREADS", "1,8,5b")]);
    assert_rejected(&out, "SPASH_BENCH_THREADS", "comma list");
}

/// A zero size or ladder element is refused up front, before anything
/// runs: accepted, the thread count panics in the scheduler (exit 101),
/// a zero key space divides by zero in the generator, a zero arena fails
/// the device's config check, and zero ops or keys in a figure run
/// nothing and write rows of zeros.
#[test]
fn zero_counts_exit_2_naming_the_knob() {
    for (args, knob, value) in [
        (&["sched", "--seeds", "1"][..], "SPASH_SCHED_THREADS", "0"),
        (&["sched", "--seeds", "1"], "SPASH_SCHED_KEYS", "0"),
        (&["sched", "--seeds", "1"], "SPASH_SCHED_OPS", "0"),
        (&["sched", "--seeds", "1"], "SPASH_SCHED_ARENA_MB", "0"),
        (&["crashpoints"], "SPASH_CRASH_KEYS", "0"),
        (&["crashpoints"], "SPASH_CRASH_OPS", "0"),
        (&["crashpoints"], "SPASH_CRASH_ARENA_MB", "0"),
        (&["fig9", "--out", "/dev/null"], "SPASH_BENCH_KEYS", "0"),
        (&["fig9", "--out", "/dev/null"], "SPASH_BENCH_OPS", "0"),
        (
            &["fig7", "--out", "/dev/null"],
            "SPASH_BENCH_THREADS",
            "1,0",
        ),
    ] {
        let out = spash_bench(args, &[(knob, value)]);
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

/// The three sanitizer knobs share one spelling, `on|off`: the figures'
/// old mode names are gone with the mode they chose. A figure reads its
/// knob when it builds its first device, after the scale header and
/// before any row.
#[test]
fn sanitizer_knobs_take_on_or_off() {
    for mode in ["strict", "relaxed"] {
        let out = spash_bench(&["fig9", "--out", "/dev/null"], &[("SPASH_BENCH_SAN", mode)]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
        assert!(stderr.contains("SPASH_BENCH_SAN") && stderr.contains("on|off"), "{stderr}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.lines().all(|l| l.starts_with("# scale:")), "{stdout}");
        let mut knobs = TINY_SWEEP.to_vec();
        knobs.push(("SPASH_CRASH_SAN", mode));
        assert_rejected(&spash_bench(&["crashpoints"], &knobs), "SPASH_CRASH_SAN", "on|off");
    }
}

#[test]
fn unknown_name_exits_2_listing_the_family() {
    let out = spash_bench(&["crashpoints"], &[("SPASH_CRASH_OPZ", "10")]);
    assert_rejected(&out, "SPASH_CRASH_OPZ", "OPS");
}

/// `perf`, `scale` and `service` run at constants: a recipe that still
/// sets one of their old knobs is refused, naming what replaced it,
/// instead of silently running the default ladder.
#[test]
fn retired_suite_knob_exits_2_naming_the_constant() {
    let out = spash_bench(
        &["scale", "--out", "/dev/null"],
        &[("SPASH_SCALE_THREADS", "1,2")],
    );
    assert_rejected(&out, "SPASH_SCALE_THREADS", "suite::SCALE");
}

/// The sanitizer's clean-run gate is the crash sweep's record pass: an
/// old `san` recipe's knob is refused, naming that recipe, instead of
/// running a sweep at the crash defaults.
#[test]
fn retired_san_knob_exits_2_naming_the_record_pass_recipe() {
    let out = spash_bench(&["crashpoints"], &[("SPASH_SAN_OPS", "1")]);
    assert_rejected(&out, "SPASH_SAN_OPS", "SPASH_CRASH_POINTS=0");
    assert!(String::from_utf8_lossy(&out.stderr).contains("retired"));
}

/// Removed subcommands and flags exit 2 without running anything: `san`
/// (folded into `crashpoints`' record pass) and `scale --lin-check`
/// (`sched` explores the same workload shape with more schedules).
#[test]
fn removed_subcommand_and_flag_exit_2() {
    for args in [
        &["san"][..],
        &["scale", "--lin-check", "--out", "/dev/null"],
    ] {
        let out = spash_bench(args, &[]);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(out.stdout.is_empty(), "{args:?} ran something");
    }
}

/// `--seeds` takes a positive integer, as its usage line says; a zero
/// used to run one schedule and exit 0.
#[test]
fn sched_zero_seeds_exits_2() {
    for n in ["0", "-1", "x"] {
        let out = spash_bench(&["sched", "--seeds", n], &[]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--seeds {n}: {stderr}");
        assert!(stderr.contains("positive integer"), "{stderr}");
        assert!(out.stdout.is_empty(), "--seeds {n} ran something");
    }
}

/// The bug the strict reader fixes: a hex seed used to fall back to the
/// default without a word while the header echoes hex.
#[test]
fn hex_seed_is_accepted_and_echoed() {
    let mut knobs = TINY_SWEEP.to_vec();
    knobs.push(("SPASH_CRASH_SEED", "0xbeef"));
    let out = spash_bench(&["crashpoints"], &knobs);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.starts_with("# target=Spash domain=Eadr seed=0xbeef ops=40 keys=20 "),
        "{stdout}"
    );
}
