//! The one front end under `spash-lint`: every `.rs` file is read,
//! stripped, test-marked and parsed once into a [`Tree`]; its functions
//! are lowered to CFGs and summarized once, on first use, for both the
//! `flow` and the `conc` rules; and every finding of every rule family
//! goes through one [`Sink`], which applies the test-code exemption, the
//! `lint:allow` waivers and the per-rule counters.

use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;

use crate::cfg::{build_cfg, Cfg};
use crate::lint::{
    cfg_test_lines, contains_token, strip_non_code, waived, Finding, StatsMap, RULE_SAFETY_COMMENT,
};
use crate::parse::{enclosing_fn, parse_functions, Func};
use crate::summaries::{self, SummaryTable};

/// The one test-path rule of every family: files under `tests/`,
/// `benches/`, `examples/` (at any depth) or the standalone `benchmark/`
/// harness are test code. They may use host primitives, no memory model
/// applies to them, and their comments are fixtures, not waivers.
pub fn is_test_path(path: &str) -> bool {
    path.contains("/tests/")
        || path.contains("/benches/")
        || path.contains("/examples/")
        || path.starts_with("tests/")
        || path.starts_with("benches/")
        || path.starts_with("examples/")
        // The standalone end-to-end harness measures host time from
        // outside the model, like a test driver.
        || path.starts_with("benchmark/")
}

/// One source file, read and analysed once.
#[derive(Clone)]
pub struct SrcFile {
    /// Path relative to the tree root, `/`-separated.
    pub path: String,
    pub text: String,
    /// `text` with comments, strings and char literals blanked
    /// ([`strip_non_code`]); line structure is kept.
    pub stripped: String,
    /// Per 0-based line: inside a `#[cfg(test)]` item.
    pub test_lines: Vec<bool>,
    /// [`is_test_path`].
    pub is_test: bool,
    pub funcs: Vec<Func>,
}

impl SrcFile {
    fn new(path: String, text: String) -> Self {
        let path = path.replace('\\', "/");
        let stripped = strip_non_code(&text);
        Self {
            is_test: is_test_path(&path),
            test_lines: cfg_test_lines(&stripped),
            funcs: parse_functions(&stripped),
            path,
            text,
            stripped,
        }
    }

    /// Is 1-based `line` inside a `#[cfg(test)]` item?
    pub fn in_test(&self, line: usize) -> bool {
        self.test_lines
            .get(line.saturating_sub(1))
            .copied()
            .unwrap_or(false)
    }

    /// The file name without `.rs`: the first half of `san=` and word keys.
    pub fn stem(&self) -> &str {
        let base = self.path.rsplit('/').next().unwrap_or(&self.path);
        base.strip_suffix(".rs").unwrap_or(base)
    }
}

/// Every function of the tree lowered, and the call-graph summaries.
pub struct Lowered {
    /// `cfgs[file][i]` is the CFG of `files[file].funcs[i]`.
    pub cfgs: Vec<Vec<Cfg>>,
    pub table: SummaryTable,
}

/// A `san_forgive` site: file index and 1-based line.
pub type SanSites = BTreeMap<String, (usize, usize)>;

/// The source tree every rule family reads.
pub struct Tree {
    pub files: Vec<SrcFile>,
    lowered: OnceCell<Lowered>,
    san_sites: OnceCell<SanSites>,
}

impl Tree {
    /// Every `.rs` file under `root` (skipping `target/`, `.git/` and
    /// `related/`), in path order.
    pub fn load(root: &Path) -> io::Result<Tree> {
        let mut rel = collect_rs_files(root)?;
        rel.sort();
        let mut files = Vec::new();
        for path in rel {
            let text = fs::read_to_string(root.join(&path))?;
            files.push((path, text));
        }
        Ok(Self::from_files(files))
    }

    /// A tree of in-memory `(relative path, source)` files, in order.
    pub fn from_files<P: Into<String>, S: Into<String>>(
        files: impl IntoIterator<Item = (P, S)>,
    ) -> Tree {
        Tree {
            files: files
                .into_iter()
                .map(|(p, s)| SrcFile::new(p.into(), s.into()))
                .collect(),
            lowered: OnceCell::new(),
            san_sites: OnceCell::new(),
        }
    }

    /// A copy of this tree with the file at `path` replaced by (or added
    /// as) `text`. The other files keep their parse; nothing is lowered.
    pub fn with_file(&self, path: &str, text: String) -> Tree {
        let mut files: Vec<SrcFile> = self.files.iter().filter(|f| f.path != path).cloned().collect();
        files.push(SrcFile::new(path.to_string(), text));
        files.sort_by(|a, b| a.path.cmp(&b.path));
        Tree {
            files,
            lowered: OnceCell::new(),
            san_sites: OnceCell::new(),
        }
    }

    pub fn lowered(&self) -> &Lowered {
        self.lowered.get_or_init(|| {
            let cfgs: Vec<Vec<Cfg>> = self
                .files
                .iter()
                .map(|f| f.funcs.iter().map(build_cfg).collect())
                .collect();
            let table = summaries::compute(&self.files, &cfgs);
            Lowered { cfgs, table }
        })
    }

    /// All dynamic `san_forgive` call sites in non-test code, keyed
    /// `<file_stem>::<fn>`. The `san=` citations of both the flow and the
    /// conc waiver cross-checks validate against this one map, so the two
    /// static layers cannot disagree about what the dynamic sanitizer
    /// forgives. (The method definition in ctx.rs has no receiver dot
    /// and is skipped.)
    pub fn san_sites(&self) -> &SanSites {
        self.san_sites.get_or_init(|| {
            let mut out = SanSites::new();
            for (fi, f) in self.files.iter().enumerate() {
                if f.is_test {
                    continue;
                }
                for (i, line) in f.stripped.lines().enumerate() {
                    if !line.contains(".san_forgive")
                        || !contains_token(line, "san_forgive")
                        || f.in_test(i + 1)
                    {
                        continue;
                    }
                    let name = enclosing_fn(&f.funcs, i + 1).map_or("?", |g| g.name.as_str());
                    out.entry(format!("{}::{name}", f.stem()))
                        .or_insert((fi, i + 1));
                }
            }
            out
        })
    }

    /// The waiver citation scanner of both cross-checks: every
    /// `lint:allow(<family>…` / `lint:allow-file(<family>…` comment in
    /// non-test code outside `#[cfg(test)]` items, as (file, 1-based line,
    /// the comment from the marker on). Raw lines are scanned
    /// (stripping blanks comments), but only the part after `//` counts:
    /// a string literal quoting the syntax is not a waiver. Each scanned
    /// file's lines are `xref_rule`'s virtual work.
    pub fn waivers(
        &self,
        family: &str,
        xref_rule: &str,
        sink: &mut Sink,
    ) -> Vec<(&SrcFile, usize, &str)> {
        let (inline, whole) = (
            format!("lint:allow({family}"),
            format!("lint:allow-file({family}"),
        );
        let mut out = Vec::new();
        for f in &self.files {
            if f.is_test {
                continue;
            }
            sink.virt(xref_rule, f.text.lines().count() as u64);
            for (i, line) in f.text.lines().enumerate() {
                let Some(comment) = line.find("//").map(|p| &line[p..]) else {
                    continue;
                };
                if f.in_test(i + 1) {
                    continue;
                }
                if let Some(p) = comment.find(&inline).or_else(|| comment.find(&whole)) {
                    out.push((f, i + 1, &comment[p..]));
                }
            }
        }
        out
    }
}

/// The `<file>::<fn>` (or index, or canary) token a `san=` / `sched=`
/// citation starts with.
pub(crate) fn citation(rest: &str) -> String {
    rest.chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_' || *c == ':')
        .collect()
}

fn collect_rs_files(root: &Path) -> io::Result<Vec<String>> {
    let (mut out, mut dirs) = (Vec::new(), vec![root.to_path_buf()]);
    while let Some(dir) = dirs.pop() {
        for entry in fs::read_dir(dir)? {
            let path = entry?.path();
            let name = path.file_name().unwrap_or_default().to_string_lossy();
            if path.is_dir() {
                if name != "target" && name != ".git" && name != "related" {
                    dirs.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(
                    path.strip_prefix(root)
                        .unwrap_or(&path)
                        .to_string_lossy()
                        .into_owned(),
                );
            }
        }
    }
    Ok(out)
}

/// Where every rule of every family reports.
#[derive(Default)]
pub struct Sink {
    pub findings: Vec<Finding>,
    pub stats: StatsMap,
}

impl Sink {
    /// Record `n` units of virtual work against `rule`.
    pub fn virt(&mut self, rule: &str, n: u64) {
        self.stats.entry(rule.to_string()).or_default().virt_ns += n;
    }

    /// Report `rule` at 1-based `line` of `file`. Test code is exempt
    /// from every rule but `safety-comment` (unsafe still needs its
    /// argument written down); a reasoned waiver counts as waived.
    pub fn push(&mut self, file: &SrcFile, line: usize, rule: &'static str, msg: String) {
        if rule != RULE_SAFETY_COMMENT && (file.is_test || file.in_test(line)) {
            return;
        }
        let lines: Vec<&str> = file.text.lines().collect();
        let idx = line.saturating_sub(1).min(lines.len().saturating_sub(1));
        if waived(&lines, idx, rule) {
            self.stats.entry(rule.to_string()).or_default().waived += 1;
        } else {
            self.findings.push(Finding {
                file: file.path.clone(),
                line,
                rule,
                msg,
            });
        }
    }

    /// Report `rule` at 1-based `line` of the file at `path`, with no
    /// test-code exemption and no waiver: the structure rows
    /// ([`crate::structure`]) say themselves which text they read.
    pub fn push_always(&mut self, path: &str, line: usize, rule: &'static str, msg: String) {
        self.findings.push(Finding {
            file: path.to_string(),
            line,
            rule,
            msg,
        });
    }

    /// The findings in `(file, line, rule)` order without duplicates,
    /// and the counters.
    pub fn finish(mut self) -> (Vec<Finding>, StatsMap) {
        self.findings.sort_by(|a, b| {
            (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule))
        });
        self.findings.dedup();
        (self.findings, self.stats)
    }
}
