//! Golden-file test for the `BENCH_*.json` schema: a committed fixture
//! pins the exact serialization (key order, indentation, number
//! formatting), and the compare gate is demonstrated end-to-end on a
//! perturbed copy — an inflated media-write count must register as a
//! regression.
//!
//! If this test fails because the schema changed *on purpose*, bump
//! `report::SCHEMA_VERSION`, regenerate the fixture (the failure message
//! says how), and regenerate `bench/baseline.json`.

use spash_bench::report::{self, SpanRow};
use spash_bench::{compare_reports, BenchReport, ExperimentRow};
use spash_pmem::StatsSnapshot;

const FIXTURE: &str = include_str!("fixtures/bench_golden.json");

/// A fully pinned report: every field fixed, including the timestamp.
fn golden_report() -> BenchReport {
    let mut rep = BenchReport {
        schema: report::SCHEMA_VERSION,
        rev: "cafef00d".into(),
        created_unix: 1_750_000_000,
        config: Vec::new(),
        assertions: Vec::new(),
        rows: Vec::new(),
    };
    rep.set_config("keys", 20_000u64);
    rep.set_config("ops", 10_000u64);
    rep.set_config("seed", "0x5eed");
    rep.rows.push(ExperimentRow {
        experiment: "perf".into(),
        series: "Spash".into(),
        point: "eadr".into(),
        phase: "load".into(),
        unit: "mops".into(),
        value: 1.5,
        threads: 1,
        ops: 20_000,
        elapsed_ns: 13_333_333,
        host_ns: 7_000_000,
        counters: StatsSnapshot {
            cl_reads: 123_456,
            cl_writes: 65_432,
            xp_writes: 4_096,
            media_write_bytes: (1 << 53) + 1, // must survive JSON exactly
            ..Default::default()
        },
        spans: vec![SpanRow {
            name: "split".into(),
            entries: 42,
            vtime_ns: 1_000_000,
            counters: StatsSnapshot {
                xp_writes: 512,
                ..Default::default()
            },
        }],
    });
    rep.rows.push(ExperimentRow {
        experiment: "perf".into(),
        series: "Spash".into(),
        point: "eadr".into(),
        phase: "search".into(),
        unit: "mops".into(),
        value: 2.25,
        threads: 1,
        ops: 10_000,
        elapsed_ns: 4_444_444,
        host_ns: 3_000_000,
        counters: StatsSnapshot {
            cl_reads: 11_000,
            read_hits: 9_000,
            ..Default::default()
        },
        spans: Vec::new(),
    });
    rep
}

#[test]
fn serialization_matches_committed_fixture_bytes() {
    let text = golden_report().to_json();
    assert_eq!(
        text, FIXTURE,
        "BENCH json layout changed. If intentional: bump SCHEMA_VERSION, \
         rewrite crates/bench/tests/fixtures/bench_golden.json with the new \
         serialization, and regenerate bench/baseline.json."
    );
}

#[test]
fn fixture_round_trips_through_the_compare_parser() {
    let parsed = BenchReport::from_json(FIXTURE).expect("fixture must parse");
    assert_eq!(parsed, golden_report());
    // Re-render: byte-stable through a full round trip.
    assert_eq!(parsed.to_json(), FIXTURE);
}

#[test]
fn inflated_media_write_count_fails_the_gate() {
    let old = BenchReport::from_json(FIXTURE).unwrap();
    let mut new = old.clone();
    // The scenario the gate exists for: a code change silently writes
    // more to media at unchanged throughput numbers.
    new.rows[0].counters.media_write_bytes += 4096;
    let out = compare_reports(&old, &new);
    assert!(!out.ok());
    assert!(
        out.regressions
            .iter()
            .any(|r| r.contains("media_write_bytes")),
        "{:?}",
        out.regressions
    );
    // And the unperturbed report compares clean against itself.
    assert!(compare_reports(&old, &old).ok());
}

/// Regenerator: `cargo test -p spash-bench --test report_golden -- --ignored
/// regenerate --nocapture` prints the current serialization to paste into
/// the fixture.
#[test]
#[ignore]
fn regenerate() {
    print!("{}", golden_report().to_json());
}
