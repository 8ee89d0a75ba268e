//! Static/dynamic sanitizer cross-check over the real workspace tree.
//!
//! The flow rules and the PR 3 runtime sanitizer describe the same
//! persistence discipline from two sides; this test holds the actual
//! source to the contract both ways:
//!
//! * the whole tree is flow-clean — every finding is either fixed or
//!   carries a reasoned waiver;
//! * every static `flow-*` waiver cites the `san_forgive` site it
//!   shadows (or `san=none(<why>)`), and every dynamic `san_forgive`
//!   site is cited by some static waiver, so neither analyzer quietly
//!   grows a blind spot the other does not know about.

use std::path::{Path, PathBuf};

use spash_analysis::conc_rules;
use spash_analysis::flow_rules::{self, crosscheck};
use spash_analysis::lint::{self, report_json, Finding};
use spash_analysis::tree::{Sink, Tree};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().unwrap()
}

fn load() -> Vec<(String, String)> {
    let tree = Tree::load(&workspace_root()).unwrap();
    tree.files.into_iter().map(|f| (f.path, f.text)).collect()
}

fn crosscheck_files(files: Vec<(String, String)>) -> Vec<Finding> {
    let mut sink = Sink::default();
    crosscheck(&Tree::from_files(files), &mut sink);
    sink.finish().0
}

#[test]
fn workspace_is_flow_clean_including_crosscheck() {
    let tree = Tree::load(&workspace_root()).unwrap();
    let mut sink = Sink::default();
    flow_rules::run(&tree, &mut sink);
    let (n, (findings, _)) = (tree.files.len(), sink.finish());
    assert!(n > 50, "walked only {n} files — wrong root?");
    assert!(
        findings.is_empty(),
        "workspace must be flow-clean; found:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn dropping_a_citation_orphans_the_dynamic_site() {
    let files = load();

    // The real tree cross-checks clean.
    assert!(crosscheck_files(files.clone()).is_empty());

    // Erase every `san=level::remove` citation: the dynamic san_forgive
    // site in level.rs::remove loses its static twin and must be
    // reported as orphaned.
    let mutated: Vec<(String, String)> = files
        .iter()
        .map(|(p, s)| (p.clone(), s.replace("san=level::remove", "san=none(mutated)")))
        .collect();
    let f = crosscheck_files(mutated);
    assert!(
        f.iter().any(|x| x.msg.contains("level::remove") && x.msg.contains("no static flow waiver")),
        "{f:?}"
    );
}

#[test]
fn bogus_citation_is_reported() {
    let files = load();

    // Point one citation at a san_forgive site that does not exist.
    let mutated: Vec<(String, String)> = files
        .iter()
        .map(|(p, s)| (p.clone(), s.replace("san=dash::update", "san=dash::no_such_fn")))
        .collect();
    let f = crosscheck_files(mutated);
    assert!(
        f.iter().any(|x| x.msg.contains("dash::no_such_fn") && x.msg.contains("no such san_forgive site")),
        "{f:?}"
    );
    // And the now-uncited `dash::update` site is orphaned.
    assert!(
        f.iter().any(|x| x.msg.contains("dash::update")),
        "{f:?}"
    );
}

/// `all` is the three families run in order into one sink: the tree is
/// clean under all of them (the classic token rules and structure rows
/// included), its findings and `rule_stats` are the merge of the
/// `classic`, `flow` and `conc` runs, and two loads of the tree render
/// the same bytes.
#[test]
fn all_is_the_merge_of_the_three_modes_and_repeats() {
    let all = |tree: &Tree| {
        let mut sink = Sink::default();
        lint::run(tree, &mut sink);
        flow_rules::run(tree, &mut sink);
        let inventory = conc_rules::run(tree, &mut sink);
        let (findings, stats) = sink.finish();
        let report = report_json("all", tree.files.len(), &findings, &stats, Some(&inventory));
        (findings, stats, report.render())
    };
    let tree = Tree::load(&workspace_root()).unwrap();
    let (findings, stats, first) = all(&tree);
    assert!(
        findings.is_empty(),
        "workspace must be lint-clean; found:\n{}",
        findings.iter().map(|f| f.to_string()).collect::<Vec<_>>().join("\n")
    );
    assert_eq!(first, all(&Tree::load(&workspace_root()).unwrap()).2);

    let mut merged = Sink::default();
    for family in [lint::run, flow_rules::run, |t: &Tree, s: &mut Sink| {
        conc_rules::run(t, s);
    }] {
        let mut sink = Sink::default();
        family(&tree, &mut sink);
        let (f, s) = sink.finish();
        merged.findings.extend(f);
        for (rule, s) in s {
            let e = merged.stats.entry(rule).or_default();
            e.waived += s.waived;
            e.virt_ns += s.virt_ns;
        }
    }
    assert_eq!(merged.finish(), (findings, stats));
}

/// A root-level `tests/` file is test code for every family: its waiver
/// comments are fixtures, so neither cross-check scans them or asks for
/// a citation.
#[test]
fn root_level_test_files_carry_no_waivers() {
    let tree = Tree::from_files([(
        "tests/fixture.rs",
        "// lint:allow(flow-flush-fence): reason\n// lint:allow(conc-lockset): reason\nfn f() {}\n",
    )]);
    let mut sink = Sink::default();
    crosscheck(&tree, &mut sink);
    conc_rules::run(&tree, &mut sink);
    let (findings, stats) = sink.finish();
    for rule in [flow_rules::RULE_WAIVER_XREF, conc_rules::RULE_CONC_XREF] {
        assert!(findings.iter().all(|f| f.rule != rule), "{findings:?}");
        assert_eq!(
            stats.get(rule).map_or(0, |s| s.virt_ns),
            0,
            "{rule} scanned a test file"
        );
    }
}
