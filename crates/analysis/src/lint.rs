//! `spash-lint`: source-level invariant checker for the workspace.
//!
//! The simulation's determinism and crash fidelity rest on conventions no
//! type checker sees: all PM traffic flows through the instrumented
//! `MemCtx`, all blocking goes through the platform's cooperative
//! primitives, no host clock leaks into scheduled code. This module
//! enforces them with a handwritten lexer (the workspace is offline and
//! dependency-free, so no `syn`): comments, strings, and char literals
//! are blanked, then rules match token patterns in what remains.
//!
//! ## Rules
//!
//! | rule             | invariant                                                          |
//! |------------------|--------------------------------------------------------------------|
//! | `std-sync`       | no `std::sync::{Mutex, RwLock, Condvar}` outside `pmem/src/sync.rs` (host locks deadlock the cooperative scheduler) |
//! | `host-time`      | no `Instant::now` / `SystemTime` / `thread::sleep` outside test code, the bench harness included (time is virtual; host time breaks replay and makes reports unrepeatable) |
//! | `spin-hygiene`   | no raw `yield_now` / `spin_loop`: busy-waits must route through `spin_wait()` so the scheduler can deschedule them |
//! | `safety-comment` | every `unsafe` carries a `// SAFETY:` comment                       |
//! | `arena-direct`   | no `arena.store_*` / `arena.write_*` outside `crates/pmem` (raw stores bypass the cache model and the sanitizer) |
//! | `fp-probe`       | no raw key-word scan (`read_u64`/`read_line(key_addr(..))`, `read_segment(..)`) in `crates/core` from a function that never consults the fingerprint sidecar — probe paths must pre-filter via the fp word (`fptable` / `fp_word`); maintenance walkers carry a waiver |
//!
//! ## Waivers
//!
//! A deliberate exception carries a reasoned waiver on the same line or in
//! the comment block directly above:
//!
//! ```text
//! // lint:allow(std-sync): host-side history buffer, never held across a sync point
//! ```
//!
//! `lint:allow-file(rule): reason` anywhere in a file waives the rule for
//! the whole file. A waiver without a reason does not count.
//!
//! Test files ([`crate::tree::is_test_path`]: `tests/`, `benches/`,
//! `examples/`, `benchmark/`) and regions inside `#[cfg(test)]` modules
//! are exempt from every rule except `safety-comment` (test code may use
//! host primitives; unsafe still needs its argument written down). The
//! exemption and the waivers are applied by [`crate::tree::Sink`].

use std::fmt;

use crate::conc_rules::WordRow;
use crate::json::Json;
use crate::parse::enclosing_fn;
use crate::tree::{Sink, SrcFile, Tree};

pub const RULE_STD_SYNC: &str = "std-sync";
pub const RULE_HOST_TIME: &str = "host-time";
pub const RULE_SPIN_HYGIENE: &str = "spin-hygiene";
pub const RULE_SAFETY_COMMENT: &str = "safety-comment";
pub const RULE_ARENA_DIRECT: &str = "arena-direct";
pub const RULE_FP_PROBE: &str = "fp-probe";

/// All rule names, for `--help` style listings.
pub const RULES: [&str; 6] = [
    RULE_STD_SYNC,
    RULE_HOST_TIME,
    RULE_SPIN_HYGIENE,
    RULE_SAFETY_COMMENT,
    RULE_ARENA_DIRECT,
    RULE_FP_PROBE,
];

/// Per-rule counters for the `--json` report's `rule_stats` section
/// (schema 2). `virt_ns` is *virtual* elapsed work in deterministic
/// units — lines scanned for the token rules, CFG nodes simulated for
/// the flow/conc rules — so the reports stay byte-identical across
/// machines and runs (a wall clock would not).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RuleStats {
    pub waived: u64,
    pub virt_ns: u64,
}

/// rule name → counters, ordered for deterministic rendering.
pub type StatsMap = std::collections::BTreeMap<String, RuleStats>;

/// One rule violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Path relative to the workspace root.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule name.
    pub rule: &'static str,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.msg
        )
    }
}

/// The classic token rules over every file of the tree. Virtual work is
/// stripped lines scanned per rule; the file's path decides rule
/// applicability (which crate, test context).
pub fn run(tree: &Tree, sink: &mut Sink) {
    for file in &tree.files {
        check_file(file, sink);
    }
}

fn check_file(file: &SrcFile, sink: &mut Sink) {
    let path = file.path.as_str();
    let original: Vec<&str> = file.text.lines().collect();
    let stripped_lines: Vec<&str> = file.stripped.lines().collect();
    for rule in RULES {
        sink.virt(rule, stripped_lines.len() as u64);
    }
    let in_pmem = path.starts_with("crates/pmem/");
    let is_sync_home = path == "crates/pmem/src/sync.rs";
    let is_schedhook = path == "crates/pmem/src/schedhook.rs";

    for (i, line) in stripped_lines.iter().enumerate() {
        let at = i + 1;
        // std-sync: qualified paths. Use-group imports are handled below
        // (they can span lines).
        if !is_sync_home {
            for prim in ["Mutex", "RwLock", "Condvar"] {
                let pat = format!("std::sync::{prim}");
                if contains_token(line, &pat) {
                    sink.push(
                        file,
                        at,
                        RULE_STD_SYNC,
                        format!(
                            "host `std::sync::{prim}` outside pmem/src/sync.rs; use the \
                             cooperative `spash_pmem::sync` primitives"
                        ),
                    );
                }
            }
        }

        for (pat, what) in [
            ("Instant::now", "host clock `Instant::now`"),
            ("SystemTime", "host clock `SystemTime`"),
            ("thread::sleep", "host `thread::sleep`"),
        ] {
            if contains_token(line, pat) {
                sink.push(
                    file,
                    at,
                    RULE_HOST_TIME,
                    format!("{what} in instrumented code; time here is virtual (`VClock`)"),
                );
            }
        }

        if !is_schedhook {
            for pat in ["yield_now", "spin_loop"] {
                if contains_token(line, pat) {
                    sink.push(
                        file,
                        at,
                        RULE_SPIN_HYGIENE,
                        format!(
                            "raw `{pat}` busy-wait; route through \
                             `spash_pmem::schedhook::spin_wait()` so the deterministic \
                             scheduler can deschedule the spinner"
                        ),
                    );
                }
            }
        }

        if !in_pmem {
            for pat in [
                "arena.store_",
                "arena.write_",
                "arena().store_",
                "arena().write_",
            ] {
                if line.contains(pat) {
                    sink.push(
                        file,
                        at,
                        RULE_ARENA_DIRECT,
                        format!(
                            "direct arena store (`{pat}*`) outside crates/pmem; PM writes \
                             must flow through `MemCtx` so the cache model, fault plan, \
                             and sanitizer see them"
                        ),
                    );
                    break;
                }
            }
        }

        // fp-probe: a raw key-word read in the core crate from a function
        // that never looks at the fingerprint sidecar is a probe path
        // bypassing the fp pre-filter (or an unwaived maintenance scan).
        // A slot read is a word or a line read at `key_addr(..)`, or a
        // whole-segment read.
        let slot_read = ((line.contains("read_u64") || line.contains("read_line("))
            && line.contains("key_addr("))
            || (line.contains("read_segment(") && !contains_token(line, "fn"));
        if path.starts_with("crates/core/") && slot_read && !enclosing_fn_is_fp_aware(file, at) {
            sink.push(
                file,
                at,
                RULE_FP_PROBE,
                "raw key-word scan (`read_u64`/`read_line(key_addr(..))`, \
                 `read_segment(..)`) in a function that \
                 never consults the fp sidecar; probe paths must pre-filter via \
                 `fptable.read` / `fp_word::*_candidates`, and deliberate \
                 fp-blind walkers (recovery, audit, oracle) need a waiver"
                    .to_string(),
            );
        }

        if contains_token(line, "unsafe") && !has_safety_comment(&original, i) {
            sink.push(
                file,
                at,
                RULE_SAFETY_COMMENT,
                "`unsafe` without a `// SAFETY:` comment on the same line or the \
                 comment block above"
                    .to_string(),
            );
        }
    }

    // Multi-line use-group imports: `use std::sync::{Mutex, Arc};`.
    if !is_sync_home {
        for (line_idx, body) in use_groups(&file.stripped, "std::sync::{") {
            for prim in ["Mutex", "RwLock", "Condvar"] {
                if contains_token(&body, prim) {
                    sink.push(
                        file,
                        line_idx + 1,
                        RULE_STD_SYNC,
                        format!(
                            "host `std::sync::{prim}` (via use-group) outside \
                             pmem/src/sync.rs; use the cooperative `spash_pmem::sync` \
                             primitives"
                        ),
                    );
                }
            }
        }
    }
}

/// Build the machine-readable `spash-lint --json` report, with the `conc`
/// shared-word `inventory` section when one is given. Deterministic:
/// findings are emitted in their sorted order, keys in a fixed order, so
/// the rendered bytes are stable for golden-fixture tests and CI diffs.
///
/// Schema history: schema 1 had no `rule_stats`; schema 2 adds it — a
/// per-rule object of `findings` (counted from the final, deduplicated
/// finding list so it always matches `violations`), `waived`, and
/// `virt_ns` (virtual elapsed work; see [`RuleStats`]).
pub fn report_json(
    mode: &str,
    files_scanned: usize,
    findings: &[Finding],
    stats: &StatsMap,
    inventory: Option<&[WordRow]>,
) -> Json {
    let mut rules: Vec<String> = stats.keys().cloned().collect();
    for f in findings {
        if !rules.iter().any(|r| r == f.rule) {
            rules.push(f.rule.to_string());
        }
    }
    rules.sort();
    let rule_stats = rules
        .iter()
        .map(|rule| {
            let s = stats.get(rule).cloned().unwrap_or_default();
            let n = findings.iter().filter(|f| f.rule == rule).count() as u64;
            (
                rule.clone(),
                Json::Obj(vec![
                    ("findings".into(), Json::Int(n)),
                    ("waived".into(), Json::Int(s.waived)),
                    ("virt_ns".into(), Json::Int(s.virt_ns)),
                ]),
            )
        })
        .collect();
    let findings_json = findings
        .iter()
        .map(|f| {
            Json::Obj(vec![
                ("file".into(), Json::Str(f.file.clone())),
                ("line".into(), Json::Int(f.line as u64)),
                ("rule".into(), Json::Str(f.rule.into())),
                ("msg".into(), Json::Str(f.msg.clone())),
            ])
        })
        .collect();
    let mut report = vec![
        ("schema".into(), Json::Int(2)),
        ("tool".into(), Json::Str("spash-lint".into())),
        ("mode".into(), Json::Str(mode.into())),
        ("files_scanned".into(), Json::Int(files_scanned as u64)),
        ("violations".into(), Json::Int(findings.len() as u64)),
        ("rule_stats".into(), Json::Obj(rule_stats)),
        ("findings".into(), Json::Arr(findings_json)),
    ];
    if let Some(inventory) = inventory {
        let rows = inventory.iter().map(|w| {
            Json::Obj(vec![
                ("word".into(), Json::Str(w.word.clone())),
                ("class".into(), Json::Str(w.class.clone())),
                ("discipline".into(), Json::Str(w.discipline.clone())),
                ("reads".into(), Json::Int(w.reads)),
                ("writes".into(), Json::Int(w.writes)),
                ("rmws".into(), Json::Int(w.rmws)),
                (
                    "locks".into(),
                    Json::Arr(w.locks.iter().map(|l| Json::Str(l.clone())).collect()),
                ),
            ])
        });
        report.push(("inventory".into(), Json::Arr(rows.collect())));
    }
    Json::Obj(report)
}

// ---------------------------------------------------------------------------
// Lexer: blank out comments, strings, and char literals.
// ---------------------------------------------------------------------------

/// Replace every comment, string literal, and char literal with spaces,
/// preserving line structure, so rules match only real code tokens.
/// Handles nested block comments, raw strings (`r"…"`, `r#"…"#`), byte
/// strings, escapes, and the char-literal/lifetime ambiguity.
pub fn strip_non_code(src: &str) -> String {
    let b: Vec<char> = src.chars().collect();
    let mut out = String::with_capacity(src.len());
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        let next = b.get(i + 1).copied();
        match c {
            '/' if next == Some('/') => {
                while i < b.len() && b[i] != '\n' {
                    out.push(' ');
                    i += 1;
                }
            }
            '/' if next == Some('*') => {
                let mut depth = 1;
                out.push(' ');
                out.push(' ');
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == '/' && b.get(i + 1) == Some(&'*') {
                        depth += 1;
                        out.push(' ');
                        out.push(' ');
                        i += 2;
                    } else if b[i] == '*' && b.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        out.push(' ');
                        out.push(' ');
                        i += 2;
                    } else {
                        out.push(if b[i] == '\n' { '\n' } else { ' ' });
                        i += 1;
                    }
                }
            }
            '"' => i = skip_string(&b, i, &mut out, false),
            'r' | 'b' if is_raw_or_byte_string(&b, i) => {
                // Emit the prefix chars as blanks, then the literal. A
                // raw prefix (any prefix containing `r`) disables escape
                // processing: in `r"..."` a backslash is an ordinary
                // character, and `r"\"` is a complete literal.
                let mut j = i;
                let mut raw = false;
                while j < b.len() && (b[j] == 'r' || b[j] == 'b') && j - i < 2 {
                    raw |= b[j] == 'r';
                    out.push(' ');
                    j += 1;
                }
                if b.get(j) == Some(&'"') {
                    i = skip_string(&b, j, &mut out, raw);
                } else {
                    // r#"..."# raw string with hashes.
                    let mut hashes = 0;
                    while b.get(j) == Some(&'#') {
                        hashes += 1;
                        out.push(' ');
                        j += 1;
                    }
                    debug_assert_eq!(b.get(j), Some(&'"'));
                    out.push(' ');
                    j += 1;
                    loop {
                        match b.get(j) {
                            None => break,
                            Some('"') => {
                                let mut k = 0;
                                while k < hashes && b.get(j + 1 + k) == Some(&'#') {
                                    k += 1;
                                }
                                if k == hashes {
                                    for _ in 0..=hashes {
                                        out.push(' ');
                                    }
                                    j += 1 + hashes;
                                    break;
                                }
                                out.push(' ');
                                j += 1;
                            }
                            Some('\n') => {
                                out.push('\n');
                                j += 1;
                            }
                            Some(_) => {
                                out.push(' ');
                                j += 1;
                            }
                        }
                    }
                    i = j;
                }
            }
            '\'' => {
                // Char literal vs lifetime: a lifetime is `'ident` with no
                // closing quote right after one character.
                let is_char_lit = match (b.get(i + 1), b.get(i + 2)) {
                    (Some('\\'), _) => true,
                    (Some(_), Some('\'')) => true,
                    _ => false,
                };
                if is_char_lit {
                    out.push(' ');
                    i += 1;
                    if b.get(i) == Some(&'\\') {
                        out.push(' ');
                        out.push(' ');
                        i += 2; // escape + escaped char
                        // \u{...} and multi-char escapes: skip to quote.
                        while i < b.len() && b[i] != '\'' {
                            out.push(' ');
                            i += 1;
                        }
                    } else {
                        out.push(' ');
                        i += 1;
                    }
                    if b.get(i) == Some(&'\'') {
                        out.push(' ');
                        i += 1;
                    }
                } else {
                    // Lifetime: keep as-is (harmless to rules).
                    out.push(c);
                    i += 1;
                }
            }
            _ => {
                out.push(c);
                i += 1;
            }
        }
    }
    out
}

/// At `b[i] == '"'`: blank the string literal, return the index past its
/// closing quote. With `raw` the backslash is an ordinary character
/// (`r"..."` has no escapes); otherwise `\X` is consumed as a pair so an
/// escaped quote does not terminate the literal. Newlines are always
/// preserved — including the one in a `\`-newline string continuation —
/// so line numbers downstream stay aligned with the original source.
fn skip_string(b: &[char], mut i: usize, out: &mut String, raw: bool) -> usize {
    debug_assert_eq!(b[i], '"');
    out.push(' ');
    i += 1;
    while i < b.len() {
        match b[i] {
            '\\' if !raw => {
                out.push(' ');
                i += 1;
                if let Some(&esc) = b.get(i) {
                    out.push(if esc == '\n' { '\n' } else { ' ' });
                    i += 1;
                }
            }
            '"' => {
                out.push(' ');
                i += 1;
                break;
            }
            '\n' => {
                out.push('\n');
                i += 1;
            }
            _ => {
                out.push(' ');
                i += 1;
            }
        }
    }
    i
}

/// Is `b[i]` the start of a raw/byte string prefix (`r"`, `r#`, `b"`,
/// `br"`, `br#`)? Must not be the tail of an identifier (`attr"` is not).
fn is_raw_or_byte_string(b: &[char], i: usize) -> bool {
    if i > 0 && is_ident_char(b[i - 1]) {
        return false;
    }
    let mut j = i;
    while j < b.len() && (b[j] == 'r' || b[j] == 'b') && j - i < 2 {
        j += 1;
    }
    match b.get(j) {
        Some('"') => true,
        Some('#') => {
            // Only a raw string if the hashes end in a quote.
            let mut k = j;
            while b.get(k) == Some(&'#') {
                k += 1;
            }
            b.get(k) == Some(&'"')
        }
        _ => false,
    }
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Does `line` contain `pat` as a whole token (no identifier characters
/// adjacent on either side)? `pat` may contain `::` / `.` separators.
pub fn contains_token(line: &str, pat: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = line[start..].find(pat) {
        let at = start + pos;
        let before_ok = at == 0
            || !is_ident_char(line[..at].chars().next_back().unwrap());
        let after = line[at + pat.len()..].chars().next();
        let after_ok = after.is_none_or(|c| !is_ident_char(c));
        if before_ok && after_ok {
            return true;
        }
        start = at + pat.len();
    }
    false
}

/// Find `use`-group bodies starting with `prefix` (e.g. `std::sync::{`),
/// returning `(0-based line of the opening, body text)` for each.
fn use_groups(stripped: &str, prefix: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let mut start = 0;
    while let Some(pos) = stripped[start..].find(prefix) {
        let at = start + pos;
        let line_idx = stripped[..at].matches('\n').count();
        let body_start = at + prefix.len();
        let mut depth = 1;
        let mut end = body_start;
        for (off, c) in stripped[body_start..].char_indices() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        end = body_start + off;
                        break;
                    }
                }
                _ => {}
            }
        }
        out.push((line_idx, stripped[body_start..end].to_string()));
        start = body_start;
    }
    out
}

/// Mark the lines inside `#[cfg(test)]`-gated items (brace-tracked from
/// the attribute to the item's closing brace).
pub(crate) fn cfg_test_lines(stripped: &str) -> Vec<bool> {
    let n_lines = stripped.lines().count();
    let mut marks = vec![false; n_lines];
    let mut start = 0;
    while let Some(pos) = stripped[start..].find("#[cfg(test)]") {
        let at = start + pos;
        let open = match stripped[at..].find('{') {
            Some(o) => at + o,
            None => break,
        };
        let mut depth = 0usize;
        let mut end = stripped.len();
        for (off, c) in stripped[open..].char_indices() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        end = open + off;
                        break;
                    }
                }
                _ => {}
            }
        }
        let first = stripped[..at].matches('\n').count();
        let last = stripped[..end].matches('\n').count();
        for m in marks.iter_mut().take(last + 1).skip(first) {
            *m = true;
        }
        start = at + 1;
    }
    marks
}

/// Does the function enclosing 1-based `line` consult the fingerprint
/// sidecar anywhere in its item, from the `fn` line to its closing brace?
/// Heuristic for `fp-probe`: the innermost parsed function covering the
/// line is searched for the sidecar's API tokens. Closures inside an
/// fp-aware function inherit its verdict, which is the right granularity
/// — the check guards *paths*, not individual expressions.
fn enclosing_fn_is_fp_aware(file: &SrcFile, line: usize) -> bool {
    const FP_TOKENS: [&str; 6] = [
        "fptable",
        "fp_word",
        "fp8",
        "slot_candidates",
        "hint_candidates",
        "rebuild_words",
    ];
    let Some(f) = enclosing_fn(&file.funcs, line) else {
        return false;
    };
    file.stripped
        .lines()
        .take(f.end_line)
        .skip(f.line - 1)
        .any(|l| FP_TOKENS.iter().any(|t| contains_token(l, t)))
}

// ---------------------------------------------------------------------------
// Waivers and SAFETY comments.
// ---------------------------------------------------------------------------

/// Is line `idx` covered by a reasoned `lint:allow(rule)` waiver — on the
/// line itself, in the comment/attribute block directly above, or by a
/// file-level `lint:allow-file(rule)` anywhere?
pub(crate) fn waived(original: &[&str], idx: usize, rule: &str) -> bool {
    let inline = format!("lint:allow({rule}):");
    let file_level = format!("lint:allow-file({rule}):");
    if has_reasoned_marker(original[idx], &inline) {
        return true;
    }
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let t = original[i].trim_start();
        let is_block = t.starts_with("//") || t.starts_with("#[") || t.starts_with("#!");
        if !is_block {
            break;
        }
        if has_reasoned_marker(t, &inline) {
            return true;
        }
    }
    original.iter().any(|l| has_reasoned_marker(l, &file_level))
}

/// `marker` must be followed by a non-empty reason for the waiver to count.
fn has_reasoned_marker(line: &str, marker: &str) -> bool {
    match line.find(marker) {
        Some(pos) => !line[pos + marker.len()..].trim().is_empty(),
        None => false,
    }
}

/// Does the `unsafe` on line `idx` carry a `// SAFETY:` comment — same
/// line, or in the contiguous comment/attribute block above?
fn has_safety_comment(original: &[&str], idx: usize) -> bool {
    if original[idx].contains("SAFETY:") {
        return true;
    }
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let t = original[i].trim_start();
        let is_block = t.starts_with("//") || t.starts_with("#[") || t.starts_with("#!");
        if !is_block {
            break;
        }
        if t.contains("SAFETY:") {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lint one file's source; `rel_path` decides rule applicability.
    fn lint_source(rel_path: &str, src: &str) -> Vec<Finding> {
        let mut sink = Sink::default();
        run(&Tree::from_files([(rel_path, src)]), &mut sink);
        sink.finish().0
    }

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn std_sync_fires_and_waives() {
        let src = "use std::sync::Mutex;\n";
        let f = lint_source("crates/core/src/ops.rs", src);
        assert_eq!(rules_of(&f), [RULE_STD_SYNC], "{f:?}");

        // Use-group form, split across lines.
        let src = "use std::sync::{\n    Arc,\n    RwLock,\n};\n";
        let f = lint_source("crates/core/src/ops.rs", src);
        assert_eq!(rules_of(&f), [RULE_STD_SYNC], "{f:?}");

        // Waived with a reason: clean.
        let src = "// lint:allow(std-sync): host-side only, never held across a sync point\nuse std::sync::Mutex;\n";
        assert!(lint_source("crates/core/src/ops.rs", src).is_empty());

        // Waiver without a reason does not count.
        let src = "// lint:allow(std-sync):\nuse std::sync::Mutex;\n";
        assert_eq!(rules_of(&lint_source("crates/core/src/ops.rs", src)), [RULE_STD_SYNC]);

        // Home of the cooperative wrappers is exempt.
        let src = "use std::sync::Mutex;\n";
        assert!(lint_source("crates/pmem/src/sync.rs", src).is_empty());

        // Atomics and other std::sync items are fine.
        let src = "use std::sync::{Arc, atomic::AtomicU64};\nuse std::sync::MutexGuard;\n";
        assert!(lint_source("crates/core/src/ops.rs", src).is_empty());
    }

    #[test]
    fn host_time_fires_outside_tests() {
        let src = "let t = std::time::Instant::now();\n";
        assert_eq!(
            rules_of(&lint_source("crates/core/src/ops.rs", src)),
            [RULE_HOST_TIME]
        );
        // The bench harness's reports are pure functions of their inputs.
        assert_eq!(
            rules_of(&lint_source("crates/bench/src/main.rs", src)),
            [RULE_HOST_TIME]
        );
        // Test files are exempt.
        assert!(lint_source("tests/durability.rs", src).is_empty());
        // cfg(test) regions are exempt.
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn t() { let _ = std::time::SystemTime::now(); }\n}\n";
        assert!(lint_source("crates/core/src/ops.rs", src).is_empty());
    }

    #[test]
    fn spin_hygiene_fires_outside_schedhook() {
        let src = "std::thread::yield_now();\n";
        assert_eq!(
            rules_of(&lint_source("crates/htm/src/lib.rs", src)),
            [RULE_SPIN_HYGIENE]
        );
        let src = "std::hint::spin_loop();\n";
        assert_eq!(
            rules_of(&lint_source("crates/htm/src/lib.rs", src)),
            [RULE_SPIN_HYGIENE]
        );
        // spin_wait() itself degrades to yield_now in its home module.
        let src = "std::thread::yield_now();\n";
        assert!(lint_source("crates/pmem/src/schedhook.rs", src).is_empty());
    }

    #[test]
    fn safety_comment_required_even_in_tests() {
        let src = "fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
        assert_eq!(
            rules_of(&lint_source("tests/durability.rs", src)),
            [RULE_SAFETY_COMMENT]
        );
        let src = "// SAFETY: p is valid for reads per the caller contract.\nfn f(p: *const u8) -> u8 { unsafe { *p } }\n";
        // Comment directly above is not on the unsafe line but the block
        // above the flagged line covers it.
        assert!(lint_source("tests/durability.rs", src).is_empty());
        let src = "unsafe impl Send for X {} // SAFETY: no thread-affine state.\n";
        assert!(lint_source("crates/htm/src/lib.rs", src).is_empty());
        // The word "unsafe" in a comment or string is not a finding.
        let src = "// this is unsafe in spirit\nlet s = \"unsafe\";\n";
        assert!(lint_source("crates/htm/src/lib.rs", src).is_empty());
    }

    #[test]
    fn arena_direct_fires_outside_pmem() {
        let src = "ctx.device().arena().store_u64(a, v);\n";
        assert_eq!(
            rules_of(&lint_source("crates/htm/src/lib.rs", src)),
            [RULE_ARENA_DIRECT]
        );
        // Inside pmem the arena is the implementation.
        assert!(lint_source("crates/pmem/src/ctx.rs", src).is_empty());
        // Loads are allowed (recovery scans read the durable image).
        let src = "let v = ctx.device().arena().load_u64(a);\n";
        assert!(lint_source("crates/htm/src/lib.rs", src).is_empty());
    }

    #[test]
    fn fp_probe_fires_on_blind_scans_in_core() {
        // A function scanning key words without ever touching the fp
        // sidecar is a bypass.
        let src = "fn scan(ctx: &mut MemCtx, seg: PmAddr) -> u64 {\n    ctx.read_u64(key_addr(seg, 0))\n}\n";
        assert_eq!(
            rules_of(&lint_source("crates/core/src/ops.rs", src)),
            [RULE_FP_PROBE]
        );
        // Consulting the sidecar anywhere in the same function clears it.
        let src = "fn probe(ctx: &mut MemCtx, seg: PmAddr) -> u64 {\n    let fpw = self.fptable.read(ctx, seg, 0);\n    ctx.read_u64(key_addr(seg, 0))\n}\n";
        assert!(lint_source("crates/core/src/ops.rs", src).is_empty());
        let src = "fn probe(ctx: &mut MemCtx, seg: PmAddr) -> u64 {\n    let m = fp_word::slot_candidates(w, t);\n    ctx.read_u64(key_addr(seg, 0))\n}\n";
        assert!(lint_source("crates/core/src/ops.rs", src).is_empty());
        // Waived maintenance walkers are fine.
        let src = "// lint:allow(fp-probe): recovery rebuild walks every slot by design\nfn walk(ctx: &mut MemCtx, seg: PmAddr) -> u64 {\n    ctx.read_u64(key_addr(seg, 0))\n}\n";
        // The waiver sits above the fn, not the read line — move it inline.
        let f = lint_source("crates/core/src/ops.rs", src);
        assert_eq!(rules_of(&f), [RULE_FP_PROBE], "waiver must cover the read line");
        let src = "fn walk(ctx: &mut MemCtx, seg: PmAddr) -> u64 {\n    // lint:allow(fp-probe): recovery rebuild walks every slot by design\n    ctx.read_u64(key_addr(seg, 0))\n}\n";
        assert!(lint_source("crates/core/src/ops.rs", src).is_empty());
        // Outside crates/core the rule does not apply.
        let src = "fn scan(ctx: &mut MemCtx, seg: PmAddr) -> u64 {\n    ctx.read_u64(key_addr(seg, 0))\n}\n";
        assert!(lint_source("crates/baselines/src/dash.rs", src).is_empty());
        // A blind line or segment read of the slots is a scan too; the
        // segment reader's own definition is not a call.
        let src = "fn scan(ctx: &mut MemCtx, seg: PmAddr) -> [u64; 8] {\n    ctx.read_line(key_addr(seg, 0))\n}\n";
        assert_eq!(
            rules_of(&lint_source("crates/core/src/ops.rs", src)),
            [RULE_FP_PROBE]
        );
        let src = "fn scan(ctx: &mut MemCtx, seg: PmAddr) -> [u64; 32] {\n    Plain::ok(Spash::read_segment(&mut Plain, ctx, seg))\n}\n";
        assert_eq!(
            rules_of(&lint_source("crates/core/src/ops.rs", src)),
            [RULE_FP_PROBE]
        );
        let src = "fn read_segment(ctx: &mut MemCtx, seg: PmAddr) -> u64 {\n    0\n}\n";
        assert!(lint_source("crates/core/src/ops.rs", src).is_empty());
        // A line read of the fp sidecar is the pre-filter, not a scan.
        let src = "fn precheck(ctx: &mut MemCtx, a: PmAddr) -> [u64; 8] {\n    ctx.read_line(a)\n}\n";
        assert!(lint_source("crates/core/src/ops.rs", src).is_empty());
        // Writes and prefetches are not scans.
        let src = "fn put(ctx: &mut MemCtx, seg: PmAddr) {\n    ctx.write_u64(key_addr(seg, 0), 7);\n    ctx.prefetch(key_addr(seg, 0));\n}\n";
        assert!(lint_source("crates/core/src/ops.rs", src).is_empty());
    }

    #[test]
    fn lexer_blanks_comments_strings_and_char_literals() {
        let src = "let a = \"std::sync::Mutex\"; // std::sync::Mutex\nlet b = 'x'; /* SystemTime */\nlet r = r#\"Instant::now\"#;\n";
        assert!(lint_source("crates/core/src/ops.rs", src).is_empty());
        // Lifetimes survive stripping without eating the rest of the line.
        let src = "fn f<'a>(x: &'a u64) -> &'a u64 { x }\nuse std::sync::Condvar;\n";
        assert_eq!(
            rules_of(&lint_source("crates/core/src/ops.rs", src)),
            [RULE_STD_SYNC]
        );
    }

    #[test]
    fn nested_block_comments_and_raw_strings() {
        let src = "/* outer /* inner SystemTime */ still comment SystemTime */\nlet x = 1;\n";
        assert!(lint_source("crates/core/src/ops.rs", src).is_empty());
        let src = "let s = r\"thread::sleep\";\nlet t = br#\"yield_now\"#;\n";
        assert!(lint_source("crates/core/src/ops.rs", src).is_empty());
    }

    #[test]
    fn file_level_waiver_covers_all_occurrences() {
        let src = "// lint:allow-file(host-time): harness-side timing only\nlet a = Instant::now();\nlet b = Instant::now();\n";
        assert!(lint_source("crates/index-api/src/x.rs", src).is_empty());
    }

    #[test]
    fn raw_string_backslash_is_not_an_escape() {
        // In `r"\"` the backslash is a literal character and the quote
        // closes the string; treating it as an escape used to swallow
        // the close and blank the rest of the file.
        let src = "let p = r\"\\\"; use std::sync::Mutex;\n";
        assert_eq!(
            rules_of(&lint_source("crates/core/src/ops.rs", src)),
            [RULE_STD_SYNC]
        );
        let stripped = strip_non_code(src);
        assert!(stripped.contains("use std::sync::Mutex"), "{stripped:?}");
    }

    #[test]
    fn string_continuation_escape_keeps_line_numbers() {
        // A `\` before a newline inside a string continues it on the
        // next line; the newline must survive blanking or every finding
        // below the literal shifts up a line.
        let src = "let s = \"a\\\n   b\";\nlet t = Instant::now();\n";
        let f = lint_source("crates/core/src/ops.rs", src);
        assert_eq!(rules_of(&f), [RULE_HOST_TIME]);
        assert_eq!(f[0].line, 3, "{f:?}");
    }

    #[test]
    fn raw_hash_string_with_embedded_quote_hash() {
        // `br#"…"#` may contain `"` (and `"#` only terminates at the
        // matching hash count).
        let src = "let t = br##\"x \"# y\"##; let u = SystemTime::now();\n";
        assert_eq!(
            rules_of(&lint_source("crates/core/src/ops.rs", src)),
            [RULE_HOST_TIME]
        );
    }

    #[test]
    fn char_literal_quote_and_escaped_tick() {
        // `'"'` and `'\''` are char literals, not string/lifetime starts.
        let src = "let a = '\"'; let b = '\\''; let c = Instant::now();\n";
        assert_eq!(
            rules_of(&lint_source("crates/core/src/ops.rs", src)),
            [RULE_HOST_TIME]
        );
    }

    #[test]
    fn json_report_schema_is_stable() {
        let findings = vec![
            Finding {
                file: "crates/core/src/ops.rs".into(),
                line: 12,
                rule: RULE_HOST_TIME,
                msg: "host clock".into(),
            },
            Finding {
                file: "crates/htm/src/lib.rs".into(),
                line: 3,
                rule: RULE_STD_SYNC,
                msg: "host lock with \"quotes\"".into(),
            },
        ];
        let mut stats = StatsMap::new();
        stats.insert(
            RULE_HOST_TIME.into(),
            RuleStats {
                waived: 1,
                virt_ns: 640,
            },
        );
        let got = report_json("classic", 42, &findings, &stats, None).render();
        let want = concat!(
            "{\n",
            "  \"schema\": 2,\n",
            "  \"tool\": \"spash-lint\",\n",
            "  \"mode\": \"classic\",\n",
            "  \"files_scanned\": 42,\n",
            "  \"violations\": 2,\n",
            "  \"rule_stats\": {\n",
            "    \"host-time\": {\n",
            "      \"findings\": 1,\n",
            "      \"waived\": 1,\n",
            "      \"virt_ns\": 640\n",
            "    },\n",
            "    \"std-sync\": {\n",
            "      \"findings\": 1,\n",
            "      \"waived\": 0,\n",
            "      \"virt_ns\": 0\n",
            "    }\n",
            "  },\n",
            "  \"findings\": [\n",
            "    {\n",
            "      \"file\": \"crates/core/src/ops.rs\",\n",
            "      \"line\": 12,\n",
            "      \"rule\": \"host-time\",\n",
            "      \"msg\": \"host clock\"\n",
            "    },\n",
            "    {\n",
            "      \"file\": \"crates/htm/src/lib.rs\",\n",
            "      \"line\": 3,\n",
            "      \"rule\": \"std-sync\",\n",
            "      \"msg\": \"host lock with \\\"quotes\\\"\"\n",
            "    }\n",
            "  ]\n",
            "}\n",
        );
        assert_eq!(got, want);
        // And it parses back to the same document.
        assert_eq!(
            crate::json::Json::parse(&got).unwrap().render(),
            got
        );
    }
}
