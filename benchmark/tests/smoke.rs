//! Runs the benchmark at `--smoke` scale, untraced and traced, and holds
//! its output to `BENCHMARK.json`: every workload and metric named there
//! appears with its unit and direction, nothing unnamed appears, every
//! result is correct — so the benchmark cannot rot silently.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use spash_analysis::json::Json;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repository root")
        .to_path_buf()
}

fn spec() -> Json {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn field<'a>(j: &'a Json, key: &str) -> &'a str {
    j.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("missing string field {key:?}"))
}

fn names(spec: &Json, list: &str) -> Vec<(String, String, String)> {
    spec.get(list)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"))
        .iter()
        .map(|m| {
            (
                field(m, "name").to_string(),
                field(m, "unit").to_string(),
                field(m, "better").to_string(),
            )
        })
        .collect()
}

/// Run the smoke scale; returns stdout.
fn run_smoke(traced: bool) -> String {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_spash-e2e"));
    cmd.current_dir(repo_root()).args([
        "--smoke",
        "--seed",
        "0xbeef",
        "--trace",
        if traced { "1" } else { "0" },
    ]);
    let t = Instant::now();
    let out = cmd.output().expect("spawn spash-e2e");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "smoke run failed ({}):\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    // 15 s is the release-build budget (README); this is a test build.
    assert!(
        t.elapsed().as_secs() < 120,
        "smoke run took {:?}",
        t.elapsed()
    );
    stdout
}

/// Returns the run's result objects.
fn check(traced: bool) -> Vec<Json> {
    let spec = spec();
    let listed = names(&spec, if traced { "per_layer" } else { "end_to_end" });
    let workloads: Vec<String> = spec
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| field(w, "name").to_string())
        .collect();
    let stdout = run_smoke(traced);

    // The report names every workload, and every metric with its unit and
    // direction, once per workload.
    for w in &workloads {
        assert!(
            stdout.contains(&format!("== {w} ")),
            "workload {w} missing from the report"
        );
    }
    for (name, unit, better) in &listed {
        let rows = stdout
            .lines()
            .filter(|l| {
                let mut f = l.split_whitespace();
                f.next() == Some(name.as_str())
                    && f.next().is_some_and(|v| v.parse::<f64>().is_ok())
                    && f.next() == Some(unit.as_str())
                    && l.contains(&format!("{better} is better"))
            })
            .count();
        assert_eq!(
            rows,
            workloads.len(),
            "{name} [{unit}, {better}] printed {rows} times"
        );
    }

    // The result objects: one per workload, correct, and carrying exactly
    // the listed metrics — none missing, none unnamed.
    let results: Vec<Json> = stdout
        .lines()
        .filter(|l| l.starts_with('{'))
        .map(|l| Json::parse(l).expect("result line parses"))
        .collect();
    assert_eq!(results.len(), workloads.len());
    let want: BTreeSet<&str> = listed.iter().map(|m| m.0.as_str()).collect();
    for r in &results {
        assert_eq!(
            r.get("correct"),
            Some(&Json::Bool(true)),
            "incorrect result: {r:?}"
        );
        assert_eq!(r.get("failed").and_then(Json::as_u64), Some(0));
        assert!(r
            .get("attempted")
            .and_then(Json::as_u64)
            .is_some_and(|a| a >= 1));
        let Some(Json::Obj(metrics)) = r.get("metrics") else {
            panic!("result without metrics: {r:?}");
        };
        let got: BTreeSet<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(got, want, "metric names differ from BENCHMARK.json");
        for (name, unit, _) in &listed {
            let m = r
                .get("metrics")
                .and_then(|m| m.get(name))
                .expect("metric present");
            assert_eq!(field(m, "unit"), unit, "{name}");
            assert!(
                m.get("value")
                    .and_then(Json::as_f64)
                    .is_some_and(f64::is_finite),
                "{name} has no value"
            );
        }
    }
    if !traced {
        for r in &results {
            for (name, _, _) in &listed {
                let v = r
                    .get("metrics")
                    .and_then(|m| m.get(name))
                    .and_then(|m| m.get("value"));
                assert!(
                    v.and_then(Json::as_f64).is_some_and(|v| v > 0.0),
                    "end-to-end {name} is 0"
                );
            }
        }
    }
    results
}

/// One test, so the two runs never write `benchmark/out/` at once.
#[test]
fn smoke_runs_match_benchmark_json() {
    check(false);
    let traced = check(true);
    // The service workload's latency decomposition closes exactly.
    let service = traced
        .iter()
        .find_map(|r| {
            let m = r.get("metrics")?;
            (m.get("service.batch_size_mean")?.get("value")?.as_f64()? > 0.0).then_some(m)
        })
        .expect("a result with service rows");
    let residual = service
        .get("service.latency_residual_ns")
        .and_then(|m| m.get("value"));
    assert_eq!(residual.and_then(Json::as_f64), Some(0.0));
    // The traced run leaves span files with parent ids. (The smallest
    // one: the repository's JSON parser is slow on megabytes.)
    let trace = std::fs::read_to_string(repo_root().join("benchmark/out/trace_scale-zipf.json"))
        .expect("trace file written");
    let trace = Json::parse(&trace).expect("trace file parses");
    let spans = trace.get("spans").and_then(Json::as_arr).expect("spans");
    assert!(spans.iter().any(|s| s
        .get("parent")
        .and_then(Json::as_u64)
        .is_some_and(|p| p != 0)));
}
