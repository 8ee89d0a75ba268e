//! Canaries for the structure rows (`spash_analysis::structure::ROWS`).
//!
//! For every row, its violation is planted in an in-memory copy of the
//! real tree, and the rows must report exactly that row. A row this file
//! cannot plant fails the test, so no row goes without a canary. The
//! plants are built from the table's own patterns, so this file holds
//! none of them literally (a `tests/` file is in the rows' scope too).

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use spash_analysis::lint::{self, Finding};
use spash_analysis::structure::{
    self, files_in, fns_named, Check, Pat, Row, Text, Want, Within, ROWS, RULE_STRUCTURE,
};
use spash_analysis::tree::{Sink, Tree};

type Files = Vec<(String, String)>;

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().unwrap()
}

fn real() -> (Tree, Files) {
    let tree = Tree::load(&workspace_root()).unwrap();
    let files = tree.files.iter().map(|f| (f.path.clone(), f.text.clone())).collect();
    (tree, files)
}

/// `tree` with the files that `files`, a changed copy of it, changed.
fn planted_tree(tree: &Tree, files: &Files) -> Tree {
    let mut changed = files.iter().filter(|(p, s)| {
        tree.files.iter().find(|f| &f.path == p).is_none_or(|f| &f.text != s)
    });
    let (p, s) = changed.next().expect("the plant changed no file");
    changed.fold(tree.with_file(p, s.clone()), |t, (p, s)| t.with_file(p, s.clone()))
}

fn structure_findings(tree: &Tree, files: &Files) -> Vec<Finding> {
    let mut sink = Sink::default();
    structure::run(&planted_tree(tree, files), &mut sink);
    sink.finish().0
}

/// The rows the findings name (a structure message starts `<row>: `).
fn rows_hit(findings: &[Finding]) -> BTreeSet<String> {
    findings
        .iter()
        .map(|f| {
            assert_eq!(f.rule, RULE_STRUCTURE, "{f}");
            f.msg.split_once(": ").unwrap().0.to_string()
        })
        .collect()
}

fn just(row: &str) -> BTreeSet<String> {
    BTreeSet::from([row.to_string()])
}

fn text_of<'a>(files: &'a mut Files, path: &str) -> &'a mut String {
    &mut files.iter_mut().find(|(p, _)| p == path).unwrap().1
}

/// Replace 1-based lines `lo..=hi` of `path` by `edit` of them.
fn edit_lines(files: &mut Files, path: &str, lo: usize, hi: usize, edit: impl Fn(&str) -> String) {
    let text = text_of(files, path);
    let out: Vec<String> = text
        .lines()
        .enumerate()
        .map(|(i, l)| if lo <= i + 1 && i + 1 <= hi { edit(l) } else { l.to_string() })
        .collect();
    *text = out.join("\n") + "\n";
}

/// Insert `line` before 1-based line `at` of `path`.
fn insert_line(files: &mut Files, path: &str, at: usize, line: &str) {
    let text = text_of(files, path);
    let mut out: Vec<&str> = text.lines().collect();
    out.insert(at - 1, line);
    *text = out.join("\n") + "\n";
}

/// A line that `pat` matches.
fn matching_line(pat: &Pat) -> String {
    let line = format!("{} {} ", pat.also.join(" "), pat.any[0]);
    assert!(pat.matches(&line), "{line:?}");
    line
}

/// `needle` spelled so that it no longer matches.
fn mangle(needle: &str) -> String {
    let mut c = needle.chars();
    let first = c.next().unwrap();
    format!("{first}Z{}", c.as_str())
}

/// A path `glob` matches.
fn path_at(glob: &str) -> String {
    let p = glob.replace('*', "planted");
    if p.ends_with('/') {
        p + "planted.rs"
    } else {
        p
    }
}

/// Plant `row`'s violation in `files`, a copy of `tree`.
fn plant(row: &Row, tree: &Tree, files: &mut Files) -> Option<()> {
    match row.check {
        Check::Lines {
            scope,
            except,
            within,
            pat,
            want,
        } => match (within, want) {
            (Within::Files | Within::OutsideFn(_), Want::Exactly(_)) => {
                // One more matching line, at the top of a file in scope
                // whose first line the pattern reads (or of a new one).
                let line = matching_line(&pat);
                let home = files_in(tree, scope, except).find(|f| pat.text.reads(f, 1, &line));
                match home {
                    Some(f) => insert_line(files, &f.path, 1, &line),
                    None => files.push((path_at(scope[0]), line)),
                }
            }
            (Within::Files, Want::AtLeastOne) => {
                // No matching line left anywhere in scope.
                for f in files_in(tree, scope, except) {
                    let n = f.text.lines().count();
                    edit_lines(files, &f.path, 1, n, |l| {
                        pat.any.iter().fold(l.to_string(), |l, n| l.replace(n, &mangle(n)))
                    });
                }
            }
            (Within::Fn(name), Want::Exactly(_)) => {
                // One more matching line, a comment inside the body.
                assert_eq!(pat.text, Text::Raw, "{}", row.name);
                let f = files_in(tree, scope, except).next()?;
                let g = fns_named(f, name).into_iter().next()?;
                insert_line(files, &f.path, g.end_line, &format!("// {}", matching_line(&pat)));
            }
            (Within::Fn(name), Want::AtLeastOne) => {
                let f = files_in(tree, scope, except).next()?;
                let g = fns_named(f, name).into_iter().next()?;
                edit_lines(files, &f.path, g.line, g.end_line, |l| {
                    pat.any.iter().fold(l.to_string(), |l, n| l.replace(n, &mangle(n)))
                });
            }
            (Within::OutsideFn(_), Want::AtLeastOne) => return None,
        },
        Check::Before { file, func, first, .. } => {
            let f = tree.files.iter().find(|f| f.path == file)?;
            let g = fns_named(f, func).into_iter().next()?;
            edit_lines(files, file, g.line, g.end_line, |l| l.replace(first, &mangle(first)));
        }
        Check::NoFile(glob) => files.push((path_at(glob), "fn planted() {}\n".into())),
        Check::CanariesArmed => {
            let canary = text_of(files, "crates/pmem/src/canary.rs");
            let open = "pub enum Canary {";
            assert!(canary.contains(open));
            *canary = canary.replacen(open, &format!("{open}\n    Planted,"), 1);
        }
        Check::TestRuns { file, test } => {
            let name = test.rsplit("::").next()?;
            let text = text_of(files, file);
            let def = format!("fn {name}(");
            assert!(text.contains(&def), "{def}");
            *text = text.replacen(&def, &format!("fn {name}_renamed("), 1);
        }
    }
    Some(())
}

/// Each plant re-runs every row over the whole tree, so the rows are
/// split between two threads, each with its own copy of the tree.
#[test]
fn every_row_flags_its_own_plant_and_only_it() {
    let names: BTreeSet<&str> = ROWS.iter().map(|r| r.name).collect();
    assert_eq!(names.len(), ROWS.len(), "row names must be unique");
    std::thread::scope(|s| {
        for rows in ROWS.chunks(ROWS.len().div_ceil(2)) {
            s.spawn(move || {
                let (tree, files) = real();
                for row in rows {
                    let mut planted = files.clone();
                    plant(row, &tree, &mut planted).unwrap_or_else(|| panic!("row {} has no canary", row.name));
                    assert_eq!(rows_hit(&structure_findings(&tree, &planted)), just(row.name), "row {}", row.name);
                }
            });
        }
    });
}

/// A planted `apply_real` or `apply_silent` twin is flagged when the
/// classic family runs, through a line waiver and a file waiver alike.
#[test]
fn a_planted_apply_twin_is_flagged_through_any_waiver() {
    let (tree, files) = real();
    for twin in ["apply_real", "apply_silent"] {
        let mut planted = files.clone();
        let path = "crates/bench/src/harness.rs";
        insert_line(&mut planted, path, 1, "// lint:allow-file(structure): planted file waiver");
        insert_line(&mut planted, path, 2, "// lint:allow(structure): planted line waiver");
        insert_line(&mut planted, path, 3, &format!("fn {twin}() {{}}"));
        let mut sink = Sink::default();
        lint::run(&planted_tree(&tree, &planted), &mut sink);
        let (findings, stats) = sink.finish();
        assert_eq!(rows_hit(&findings), just("no-apply-twins"), "{twin}");
        assert_eq!(findings[0].line, 3, "{findings:?}");
        assert_eq!(stats[RULE_STRUCTURE].waived, 0);
    }
}

/// Renaming each named test fails its row, and so does `#[ignore]`-ing
/// it (each row's own plant renames; here all twelve at once, both ways).
#[test]
fn renaming_or_ignoring_a_named_test_fails_its_row() {
    let (tree, files) = real();
    let tests: Vec<(&str, &str, &str)> = ROWS
        .iter()
        .filter_map(|r| match r.check {
            Check::TestRuns { file, test } => Some((r.name, file, test.rsplit("::").next().unwrap())),
            _ => None,
        })
        .collect();
    assert_eq!(tests.len(), 12, "the twelve named tests of the retired CI re-runs");
    let rows: BTreeSet<String> = tests.iter().map(|(row, _, _)| row.to_string()).collect();
    for (mark, what) in [("", "_renamed"), ("#[ignore = \"planted\"]\n", "")] {
        let mut planted = files.clone();
        for (_, file, name) in &tests {
            let text = text_of(&mut planted, file);
            *text = text.replacen(&format!("fn {name}("), &format!("{mark}fn {name}{what}("), 1);
        }
        let findings = structure_findings(&tree, &planted);
        assert_eq!(rows_hit(&findings), rows, "{mark}{what}");
        let kind = if mark.is_empty() { "no fn at" } else { "is #[ignore]d" };
        assert!(findings.iter().all(|f| f.msg.contains(kind)), "{findings:?}");
    }
}

/// Test code is not exempt: a raw-text row sees a violation in a
/// `tests/` file and inside a `#[cfg(test)]` module alike. Every such row
/// gets one plant of each kind its scope reaches, all in one tree.
#[test]
fn a_violation_in_test_code_still_counts() {
    let (tree, files) = real();
    let mut planted = files.clone();
    let mut want = BTreeSet::new();
    for row in ROWS {
        let Check::Lines {
            scope,
            except,
            within: Within::Files,
            pat,
            want: Want::Exactly(0),
        } = row.check
        else {
            continue;
        };
        if pat.text != Text::Raw {
            continue;
        }
        let test_file = files_in(&tree, scope, except).find(|f| f.is_test);
        let test_mod = files_in(&tree, scope, except).find(|f| f.text.contains("\nmod tests {\n"));
        for f in test_file.into_iter().chain(test_mod) {
            let at = match f.is_test {
                true => 1,
                false => text_of(&mut planted, &f.path).lines().position(|l| l == "mod tests {").unwrap() + 2,
            };
            insert_line(&mut planted, &f.path, at, &matching_line(&pat));
            want.insert((row.name.to_string(), f.path.clone()));
        }
    }
    let in_test_files = want.iter().filter(|(_, p)| p.starts_with("tests/") || p.contains("/tests/")).count();
    assert!(in_test_files >= 10 && want.len() >= in_test_files + 10, "{want:?}");
    let t = planted_tree(&tree, &planted);
    let findings = structure_findings(&tree, &planted);
    let got: BTreeSet<(String, String)> =
        findings.iter().map(|f| (f.msg.split_once(": ").unwrap().0.to_string(), f.file.clone())).collect();
    assert_eq!(got, want);
    for f in &findings {
        let file = t.files.iter().find(|x| x.path == f.file).unwrap();
        assert!(file.is_test || file.in_test(f.line), "{f}");
    }
}

/// `cargo tree -p spash-analysis` in a test: the analyzer reads source
/// text only, so its manifest declares no dependency of any kind.
#[test]
fn the_analysis_crate_declares_no_dependency_table() {
    let manifest = std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml")).unwrap();
    for line in manifest.lines().map(str::trim) {
        for table in ["[dependencies", "[dev-dependencies", "[build-dependencies", "[target."] {
            assert!(!line.starts_with(table), "spash-analysis declares `{line}`");
        }
    }
}
