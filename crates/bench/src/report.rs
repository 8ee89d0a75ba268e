//! Machine-readable benchmark reports (`BENCH_<suite>_<rev>.json`).
//!
//! Each suite — `perf`, `scale`, `service` and the figures — returns its
//! [`ExperimentRow`]s and the CLI writes them as one [`BenchReport`].
//! Schema and comparison rules are documented in DESIGN.md ("Perf
//! reports and the regression gate").
//!
//! A report is a pure function of its suite's inputs (scale, seed,
//! source revision): every row is measured by seeded cooperative tasks
//! on the virtual clock, and no field records the host clock. Rows carry
//! two kinds of measurement, with different comparison disciplines in
//! `spash-bench compare`:
//!
//! * virtual-clock metrics (`ops`, `elapsed_ns`, every [`StatsSnapshot`]
//!   counter, the per-span breakdowns) — compared with **exact
//!   equality**;
//! * derived values (`value`, e.g. Mops/s) — quotients of the above,
//!   compared with a tiny relative epsilon to absorb float formatting.

use spash_pmem::{SpanSnapshot, StatsSnapshot};

use crate::json::Json;
use crate::knobs;

/// Bump when the report layout changes incompatibly; `compare` refuses to
/// diff reports with different schema versions.
pub const SCHEMA_VERSION: u64 = 1;

/// One attribution span's share of a row ([`spash_pmem::span`]).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SpanRow {
    pub name: String,
    pub entries: u64,
    pub vtime_ns: u64,
    pub counters: StatsSnapshot,
}

impl SpanRow {
    pub fn from_snapshot(name: &str, s: &SpanSnapshot) -> Self {
        Self {
            name: name.to_string(),
            entries: s.entries,
            vtime_ns: s.vtime_ns,
            counters: s.stats,
        }
    }
}

/// One measured point: an experiment × series × point × phase cell,
/// with its headline value, virtual-clock totals, counter delta, and
/// per-span attribution.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ExperimentRow {
    /// Experiment id (`fig7`, `perf`, ...).
    pub experiment: String,
    /// Series within the experiment (index label, ablation variant, ...).
    pub series: String,
    /// Point on the x-axis (thread count, value size, domain, ...).
    pub point: String,
    /// Phase within the point (insert/search/update/delete/...).
    pub phase: String,
    /// Unit of `value` (`mops`, `GBps`, `p99_us`, ...).
    pub unit: String,
    /// Headline derived value (throughput, latency, load factor, ...).
    pub value: f64,
    /// Simulated threads that executed the phase.
    pub threads: u64,
    /// Operations completed.
    pub ops: u64,
    /// Virtual-clock elapsed time (max thread clock vs. bandwidth floor).
    pub elapsed_ns: u64,
    /// PM counter delta for the phase.
    pub counters: StatsSnapshot,
    /// Per-span attribution deltas, in canonical span order. Spans the
    /// phase never touched are omitted.
    pub spans: Vec<SpanRow>,
}

impl ExperimentRow {
    /// The identity `compare` matches rows by.
    pub fn key(&self) -> String {
        format!(
            "{}/{}/{}/{}",
            self.experiment, self.series, self.point, self.phase
        )
    }

    /// Build a row from a measured [`crate::PhaseResult`].
    pub fn from_phase(
        experiment: &str,
        series: &str,
        point: &str,
        phase: &str,
        unit: &str,
        value: f64,
        threads: usize,
        r: &crate::PhaseResult,
    ) -> Self {
        Self {
            experiment: experiment.to_string(),
            series: series.to_string(),
            point: point.to_string(),
            phase: phase.to_string(),
            unit: unit.to_string(),
            value,
            threads: threads as u64,
            ops: r.ops,
            elapsed_ns: r.elapsed_ns,
            counters: r.delta,
            spans: r
                .spans
                .iter()
                .filter(|(_, s)| !s.is_zero())
                .map(|(n, s)| SpanRow::from_snapshot(n, s))
                .collect(),
        }
    }

    /// A row that has no backing [`crate::PhaseResult`] (load-factor
    /// samples, latency percentiles).
    pub fn from_value(
        experiment: &str,
        series: &str,
        point: &str,
        phase: &str,
        unit: &str,
        value: f64,
    ) -> Self {
        Self {
            experiment: experiment.to_string(),
            series: series.to_string(),
            point: point.to_string(),
            phase: phase.to_string(),
            unit: unit.to_string(),
            value,
            ..Default::default()
        }
    }
}

/// A full report: header + rows.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BenchReport {
    pub schema: u64,
    /// Source revision the binary was built from (short git rev).
    pub rev: String,
    /// Suite configuration echo (seed, scale, ...), sorted by key.
    /// `compare` requires old and new to agree on every key.
    pub config: Vec<(String, String)>,
    /// First-class derived claims (crossover points, peak-threads, ...),
    /// sorted by key. Compared key-for-key like `config`: a shifted
    /// crossover is a regression even if no single row changed enough to
    /// say why. Serialized only when non-empty, so reports from suites
    /// that assert nothing (and their committed baselines) are unchanged
    /// byte-for-byte — still schema 1.
    pub assertions: Vec<(String, String)>,
    pub rows: Vec<ExperimentRow>,
}

impl BenchReport {
    pub fn new(rev: &str) -> Self {
        Self {
            schema: SCHEMA_VERSION,
            rev: rev.to_string(),
            config: Vec::new(),
            assertions: Vec::new(),
            rows: Vec::new(),
        }
    }

    pub fn set_config(&mut self, key: &str, value: impl ToString) {
        self.config.retain(|(k, _)| k != key);
        self.config.push((key.to_string(), value.to_string()));
        self.config.sort();
    }

    pub fn set_assertion(&mut self, key: &str, value: impl ToString) {
        self.assertions.retain(|(k, _)| k != key);
        self.assertions.push((key.to_string(), value.to_string()));
        self.assertions.sort();
    }

    pub fn assertion_value(&self, key: &str) -> Option<&str> {
        self.assertions
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    pub fn config_value(&self, key: &str) -> Option<&str> {
        self.config
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    pub fn to_json(&self) -> String {
        let mut fields = vec![
            ("schema".into(), Json::Int(self.schema)),
            ("rev".into(), Json::Str(self.rev.clone())),
            (
                "config".into(),
                Json::Obj(
                    self.config
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                        .collect(),
                ),
            ),
        ];
        if !self.assertions.is_empty() {
            fields.push((
                "assertions".into(),
                Json::Obj(
                    self.assertions
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                        .collect(),
                ),
            ));
        }
        fields.push((
            "rows".into(),
            Json::Arr(self.rows.iter().map(row_to_json).collect()),
        ));
        Json::Obj(fields).render()
    }

    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = Json::parse(text)?;
        let schema = field_u64(&doc, "schema")?;
        if schema != SCHEMA_VERSION {
            return Err(format!(
                "report schema {schema} != supported {SCHEMA_VERSION}"
            ));
        }
        let mut config: Vec<(String, String)> = match doc.get("config") {
            Some(Json::Obj(fields)) => fields
                .iter()
                .map(|(k, v)| {
                    Ok((
                        k.clone(),
                        v.as_str()
                            .ok_or_else(|| format!("config.{k}: not a string"))?
                            .to_string(),
                    ))
                })
                .collect::<Result<_, String>>()?,
            _ => return Err("missing config object".into()),
        };
        config.sort();
        // Optional: absent (older reports, assertion-free suites) = empty.
        let mut assertions: Vec<(String, String)> = match doc.get("assertions") {
            Some(Json::Obj(fields)) => fields
                .iter()
                .map(|(k, v)| {
                    Ok((
                        k.clone(),
                        v.as_str()
                            .ok_or_else(|| format!("assertions.{k}: not a string"))?
                            .to_string(),
                    ))
                })
                .collect::<Result<_, String>>()?,
            Some(_) => return Err("assertions: not an object".into()),
            None => Vec::new(),
        };
        assertions.sort();
        let rows = doc
            .get("rows")
            .and_then(Json::as_arr)
            .ok_or("missing rows array")?
            .iter()
            .enumerate()
            .map(|(i, r)| row_from_json(r).map_err(|e| format!("rows[{i}]: {e}")))
            .collect::<Result<_, String>>()?;
        Ok(Self {
            schema,
            rev: field_str(&doc, "rev")?,
            config,
            assertions,
            rows,
        })
    }
}

/// The short revision baked into the report filename and header.
/// Precedence: `SPASH_BENCH_REV` env, `GITHUB_SHA`, `git rev-parse`,
/// `"local"`.
pub fn short_rev() -> String {
    let clean = |s: &str| {
        let t: String = s
            .chars()
            .filter(|c| c.is_ascii_alphanumeric() || *c == '-' || *c == '.')
            .take(16)
            .collect();
        (!t.is_empty()).then_some(t)
    };
    if let Some(r) = knobs::text("SPASH_BENCH_REV").as_deref().and_then(clean) {
        return r;
    }
    if let Some(r) = std::env::var("GITHUB_SHA")
        .ok()
        .as_deref()
        .map(|s| &s[..s.len().min(8)])
        .and_then(clean)
    {
        return r;
    }
    if let Ok(out) = std::process::Command::new("git")
        .args(["rev-parse", "--short=8", "HEAD"])
        .output()
    {
        if out.status.success() {
            if let Some(r) = clean(String::from_utf8_lossy(&out.stdout).trim()) {
                return r;
            }
        }
    }
    "local".into()
}

fn field_u64(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing u64 field {key:?}"))
}

fn field_f64(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing number field {key:?}"))
}

fn field_str(v: &Json, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field {key:?}"))
}

// Serializer, parser and diff all iterate `StatsSnapshot::FIELDS`, the one
// counter list, so they cannot drift apart (and the golden-file test pins
// the result).
fn counters_to_json(s: &StatsSnapshot) -> Json {
    Json::Obj(
        StatsSnapshot::FIELDS
            .iter()
            .map(|(name, get, _)| (name.to_string(), Json::Int(get(s))))
            .collect(),
    )
}

fn counters_from_json(v: &Json) -> Result<StatsSnapshot, String> {
    let mut s = StatsSnapshot::default();
    for (name, _, set) in StatsSnapshot::FIELDS {
        set(&mut s, field_u64(v, name)?);
    }
    Ok(s)
}

fn row_to_json(r: &ExperimentRow) -> Json {
    Json::Obj(vec![
        ("experiment".into(), Json::Str(r.experiment.clone())),
        ("series".into(), Json::Str(r.series.clone())),
        ("point".into(), Json::Str(r.point.clone())),
        ("phase".into(), Json::Str(r.phase.clone())),
        ("unit".into(), Json::Str(r.unit.clone())),
        ("value".into(), Json::Num(r.value)),
        ("threads".into(), Json::Int(r.threads)),
        ("ops".into(), Json::Int(r.ops)),
        ("elapsed_ns".into(), Json::Int(r.elapsed_ns)),
        ("counters".into(), counters_to_json(&r.counters)),
        (
            "spans".into(),
            Json::Arr(
                r.spans
                    .iter()
                    .map(|sp| {
                        Json::Obj(vec![
                            ("name".into(), Json::Str(sp.name.clone())),
                            ("entries".into(), Json::Int(sp.entries)),
                            ("vtime_ns".into(), Json::Int(sp.vtime_ns)),
                            ("counters".into(), counters_to_json(&sp.counters)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn row_from_json(v: &Json) -> Result<ExperimentRow, String> {
    let spans = v
        .get("spans")
        .and_then(Json::as_arr)
        .ok_or("missing spans array")?
        .iter()
        .map(|sp| {
            Ok(SpanRow {
                name: field_str(sp, "name")?,
                entries: field_u64(sp, "entries")?,
                vtime_ns: field_u64(sp, "vtime_ns")?,
                counters: counters_from_json(
                    sp.get("counters").ok_or("span missing counters")?,
                )?,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok(ExperimentRow {
        experiment: field_str(v, "experiment")?,
        series: field_str(v, "series")?,
        point: field_str(v, "point")?,
        phase: field_str(v, "phase")?,
        unit: field_str(v, "unit")?,
        value: field_f64(v, "value")?,
        threads: field_u64(v, "threads")?,
        ops: field_u64(v, "ops")?,
        elapsed_ns: field_u64(v, "elapsed_ns")?,
        counters: counters_from_json(v.get("counters").ok_or("row missing counters")?)?,
        spans,
    })
}

// --- the compare gate ---------------------------------------------------

/// The verdict of one report-vs-report comparison.
#[derive(Clone, Debug, Default)]
pub struct CompareOutcome {
    /// Hard failures: any entry here means the gate fails (exit non-zero).
    pub regressions: Vec<String>,
    /// Informational notes (new coverage, wall-time improvements).
    pub notes: Vec<String>,
    pub rows_compared: usize,
}

impl CompareOutcome {
    pub fn ok(&self) -> bool {
        self.regressions.is_empty()
    }
}

fn rel_close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1e-300)
}

fn diff_counters(key: &str, what: &str, old: &StatsSnapshot, new: &StatsSnapshot, out: &mut Vec<String>) {
    for (name, get, _) in StatsSnapshot::FIELDS {
        let (o, n) = (get(old), get(new));
        if o != n {
            out.push(format!("{key}: {what}{name} {o} -> {n}"));
        }
    }
}

/// Diff two reports under the exact/epsilon discipline documented in
/// DESIGN.md. Virtual-clock metrics (`ops`, `elapsed_ns`, counters,
/// spans) must match **exactly**; derived `value`s get a tiny relative
/// epsilon. Config echoes must agree key-for-key — comparing runs of different scale or seed is a
/// category error, not a perf delta.
pub fn compare_reports(old: &BenchReport, new: &BenchReport) -> CompareOutcome {
    let mut out = CompareOutcome::default();
    let bad = &mut out.regressions;

    let keys: Vec<&String> = {
        let mut k: Vec<&String> = old
            .config
            .iter()
            .chain(new.config.iter())
            .map(|(k, _)| k)
            .collect();
        k.sort();
        k.dedup();
        k
    };
    for k in keys {
        match (old.config_value(k), new.config_value(k)) {
            (Some(a), Some(b)) if a == b => {}
            (a, b) => bad.push(format!("config {k:?} differs: {a:?} vs {b:?}")),
        }
    }

    // Derived claims are gated exactly, like the counters they summarize:
    // a crossover that moved (or vanished) is a regression in its own
    // right, with a first-class message naming the claim.
    let akeys: Vec<&String> = {
        let mut k: Vec<&String> = old
            .assertions
            .iter()
            .chain(new.assertions.iter())
            .map(|(k, _)| k)
            .collect();
        k.sort();
        k.dedup();
        k
    };
    for k in akeys {
        match (old.assertion_value(k), new.assertion_value(k)) {
            (Some(a), Some(b)) if a == b => {}
            (a, b) => bad.push(format!("assertion {k:?} changed: {a:?} -> {b:?}")),
        }
    }

    let mut new_rows: Vec<(String, &ExperimentRow)> =
        new.rows.iter().map(|r| (r.key(), r)).collect();
    for w in [&old.rows, &new.rows] {
        let mut seen: Vec<String> = w.iter().map(ExperimentRow::key).collect();
        seen.sort();
        for d in seen.windows(2).filter(|d| d[0] == d[1]) {
            bad.push(format!("duplicate row key {:?}", d[0]));
        }
    }

    for o in &old.rows {
        let key = o.key();
        let Some(pos) = new_rows.iter().position(|(k, _)| *k == key) else {
            bad.push(format!("{key}: present in old report, missing in new"));
            continue;
        };
        let (_, n) = new_rows.remove(pos);
        out.rows_compared += 1;

        if o.unit != n.unit {
            bad.push(format!("{key}: unit {:?} -> {:?}", o.unit, n.unit));
        }
        if o.threads != n.threads {
            bad.push(format!("{key}: threads {} -> {}", o.threads, n.threads));
        }
        if o.ops != n.ops {
            bad.push(format!("{key}: ops {} -> {}", o.ops, n.ops));
        }
        if o.elapsed_ns != n.elapsed_ns {
            bad.push(format!("{key}: elapsed_ns {} -> {}", o.elapsed_ns, n.elapsed_ns));
        }
        diff_counters(&key, "", &o.counters, &n.counters, bad);
        if !rel_close(o.value, n.value) {
            bad.push(format!(
                "{key}: derived value drifted {} -> {} {}",
                o.value, n.value, o.unit
            ));
        }

        for osp in &o.spans {
            let Some(nsp) = n.spans.iter().find(|s| s.name == osp.name) else {
                bad.push(format!("{key}: span {:?} disappeared", osp.name));
                continue;
            };
            if osp.entries != nsp.entries {
                bad.push(format!(
                    "{key}: span {:?} entries {} -> {}",
                    osp.name, osp.entries, nsp.entries
                ));
            }
            if osp.vtime_ns != nsp.vtime_ns {
                bad.push(format!(
                    "{key}: span {:?} vtime_ns {} -> {}",
                    osp.name, osp.vtime_ns, nsp.vtime_ns
                ));
            }
            diff_counters(
                &key,
                &format!("span {:?} ", osp.name),
                &osp.counters,
                &nsp.counters,
                bad,
            );
        }
        for nsp in &n.spans {
            if !o.spans.iter().any(|s| s.name == nsp.name) {
                bad.push(format!("{key}: span {:?} appeared", nsp.name));
            }
        }
    }
    for (key, _) in new_rows {
        out.notes.push(format!("{key}: new coverage (absent in old report)"));
    }
    out
}

/// A thread/shard ladder as its report config echo (`"1,2,4,8"`).
pub fn join_ladder(ladder: &[usize]) -> String {
    ladder
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(",")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> BenchReport {
        let mut rep = BenchReport {
            schema: SCHEMA_VERSION,
            rev: "deadbeef".into(),
            config: Vec::new(),
            assertions: Vec::new(),
            rows: Vec::new(),
        };
        rep.set_config("seed", "0x5eed");
        rep.set_config("keys", 1000u64);
        rep.rows.push(ExperimentRow {
            experiment: "perf".into(),
            series: "Spash".into(),
            point: "eadr".into(),
            phase: "load".into(),
            unit: "mops".into(),
            value: 1.25,
            threads: 1,
            ops: 1000,
            elapsed_ns: 800_000,
            counters: StatsSnapshot {
                cl_reads: 5000,
                media_write_bytes: 1 << 54, // above f64 precision on purpose
                ..Default::default()
            },
            spans: vec![SpanRow {
                name: "split".into(),
                entries: 3,
                vtime_ns: 90_000,
                counters: StatsSnapshot {
                    xp_writes: 77,
                    ..Default::default()
                },
            }],
        });
        rep
    }

    #[test]
    fn report_round_trips() {
        let rep = sample_report();
        let text = rep.to_json();
        let back = BenchReport::from_json(&text).unwrap();
        assert_eq!(back, rep);
        assert_eq!(back.rows[0].counters.media_write_bytes, 1 << 54);
        assert_eq!(back.config_value("seed"), Some("0x5eed"));
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let mut rep = sample_report();
        rep.schema = SCHEMA_VERSION + 1;
        let text = rep.to_json();
        assert!(BenchReport::from_json(&text).is_err());
    }

    #[test]
    fn missing_counter_field_is_rejected() {
        let text = sample_report().to_json().replace("\"flushes\"", "\"flushez\"");
        assert!(BenchReport::from_json(&text).is_err());
    }

    #[test]
    fn row_key_identity() {
        let r = &sample_report().rows[0];
        assert_eq!(r.key(), "perf/Spash/eadr/load");
    }

    #[test]
    fn compare_accepts_identical_reports() {
        let rep = sample_report();
        let out = compare_reports(&rep, &rep);
        assert!(out.ok(), "{:?}", out.regressions);
        assert_eq!(out.rows_compared, 1);
        assert!(out.notes.is_empty(), "{:?}", out.notes);
    }

    #[test]
    fn compare_catches_inflated_media_writes() {
        let old = sample_report();
        let mut new = old.clone();
        new.rows[0].counters.media_write_bytes += 256;
        let out = compare_reports(&old, &new);
        assert!(!out.ok());
        assert!(out.regressions[0].contains("media_write_bytes"));
    }

    #[test]
    fn compare_catches_span_and_coverage_changes() {
        let old = sample_report();

        let mut new = old.clone();
        new.rows[0].spans[0].counters.xp_writes += 1;
        let out = compare_reports(&old, &new);
        assert!(out.regressions.iter().any(|r| r.contains("span \"split\"")));

        let mut new = old.clone();
        new.rows.clear();
        let out = compare_reports(&old, &new);
        assert!(out.regressions.iter().any(|r| r.contains("missing in new")));
    }

    #[test]
    fn assertions_round_trip_and_stay_optional() {
        // Absent field: older reports parse to empty assertions, and an
        // assertion-free report serializes without the key at all (byte
        // compatibility with committed schema-1 baselines).
        let plain = sample_report();
        assert!(!plain.to_json().contains("assertions"));
        let back = BenchReport::from_json(&plain.to_json()).unwrap();
        assert!(back.assertions.is_empty());

        let mut rep = sample_report();
        rep.set_assertion("crossover/eadr/uniform/CCEH", "2");
        rep.set_assertion("peak/eadr/zipf/Level", "4");
        let back = BenchReport::from_json(&rep.to_json()).unwrap();
        assert_eq!(back, rep);
        assert_eq!(back.assertion_value("peak/eadr/zipf/Level"), Some("4"));
    }

    #[test]
    fn compare_gates_assertion_drift() {
        let mut old = sample_report();
        old.set_assertion("crossover/eadr/uniform/CCEH", "2");
        let mut new = old.clone();
        new.set_assertion("crossover/eadr/uniform/CCEH", "8");
        let out = compare_reports(&old, &new);
        assert!(!out.ok());
        assert!(out.regressions[0].contains("crossover/eadr/uniform/CCEH"));

        // Vanishing and appearing assertions both gate.
        let none = sample_report();
        assert!(!compare_reports(&old, &none).ok());
        assert!(!compare_reports(&none, &old).ok());
        assert!(compare_reports(&old, &old).ok());
    }

    #[test]
    fn compare_requires_matching_config() {
        let old = sample_report();
        let mut new = old.clone();
        new.set_config("seed", "0xbad");
        let out = compare_reports(&old, &new);
        assert!(out.regressions.iter().any(|r| r.contains("config")));
    }
}
