//! The `spash-lint flow` rules: path-sensitive persistence-ordering
//! checks over the CFGs of [`crate::cfg`], parameterized by memory
//! model. See DESIGN.md § "Static flush/fence dataflow analysis".
//!
//! Three rules:
//!
//! * [`RULE_FLUSH_FENCE`] — under ADR, every `MemCtx` store must be
//!   flushed and fenced on *all* paths before any publication edge
//!   (atomic RMW, lock release, HTM commit). Static twin of the PR 3
//!   dynamic sanitizer's `on_edge` check.
//! * [`RULE_HTM_CLWB`] — no flush reachable inside an
//!   `htm.try_transaction` region, directly or through calls: a `clwb`
//!   inside an HTM transaction aborts it (the paper's eADR/HTM
//!   constraint). Checked under every model.
//! * [`RULE_PUBLISH_INIT`] — under ADR, no publication of a value whose
//!   pointed-to PM writes are not yet fenced on some path (the classic
//!   "publish a half-initialized node via CAS" bug).
//!
//! **Memory models.** The analysis mirrors `CheckLevel::for_target`: the
//! six baselines and the allocator are ADR-era flush+fence designs, held
//! to exact recovery under ADR, and get the ADR rules; `crates/core` and
//! `crates/htm` are the eADR-native Spash fast path, which claims no ADR
//! durability and *deliberately* never flushes before publication — there
//! the ADR rules are off and only the HTM rule applies. Everything else
//! (platform, bench, tests) is exempt.
//!
//! **Waivers.** Findings reuse the classic `lint:allow(rule): reason`
//! syntax. Flow waivers additionally must triage against the dynamic
//! sanitizer: the reason must name the `san_forgive` site it shadows as
//! `san=<file_stem>::<fn>`, or state `san=none(<why>)` when no dynamic
//! counterpart exists. [`crosscheck`] enforces the mapping both ways.

use std::collections::BTreeMap;

use crate::cfg::{Cfg, Ev};
use crate::dataflow::{run as run_analysis, Analysis, Diag};
use crate::summaries::{Ob, ObSim, SummaryTable};
use crate::tree::{citation, is_test_path, Lowered, Sink, Tree};

pub const RULE_FLUSH_FENCE: &str = "flow-flush-fence";
pub const RULE_HTM_CLWB: &str = "flow-htm-clwb";
pub const RULE_PUBLISH_INIT: &str = "flow-publish-init";
pub const RULE_WAIVER_XREF: &str = "flow-waiver-xref";

/// Which ordering discipline a file is checked under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemModel {
    /// Strict flush+fence-before-publish (baselines, allocator).
    Adr,
    /// eADR/HTM fast path: no flush obligation, HTM rule only.
    Eadr,
    /// Not on a PM data path (platform, bench, tests, tools).
    Exempt,
}

/// Model per workspace-relative path. Mirrors `CheckLevel::for_target`:
/// ADR for the ADR-era baselines (and the allocator they share), eADR
/// for the Spash core, which claims nothing under ADR.
pub fn model_for(rel_path: &str) -> MemModel {
    let p = rel_path.replace('\\', "/");
    if is_test_path(&p) {
        return MemModel::Exempt;
    }
    if p.starts_with("crates/baselines/") || p.starts_with("crates/alloc/") {
        MemModel::Adr
    } else if p.starts_with("crates/core/") || p.starts_with("crates/htm/") {
        MemModel::Eadr
    } else {
        MemModel::Exempt
    }
}

// ---------------------------------------------------------------------------
// Rule: htm-no-clwb.
// ---------------------------------------------------------------------------

/// Fact: may we be inside an HTM transaction? (true joins over false).
struct HtmNoClwb<'a> {
    table: &'a SummaryTable,
    file: &'a str,
}

impl Analysis for HtmNoClwb<'_> {
    type Fact = bool;

    fn entry_fact(&self) -> bool {
        false
    }

    fn join(&self, a: &bool, b: &bool) -> bool {
        *a || *b
    }

    fn transfer(
        &self,
        _n: usize,
        ev: &Ev,
        line: usize,
        fact: &bool,
        sink: Option<&mut Vec<Diag>>,
    ) -> bool {
        match ev {
            Ev::HtmBegin => true,
            Ev::Publish {
                kind: crate::cfg::PubKind::HtmCommit,
                ..
            } => false,
            Ev::Flush { .. } if *fact => {
                if let Some(sink) = sink {
                    sink.push(Diag {
                        line,
                        msg: "flush (clwb) inside an HTM transaction aborts it".into(),
                    });
                }
                *fact
            }
            Ev::Call { name, foreign } if *fact => {
                if self
                    .table
                    .resolve_call(self.file, name, *foreign)
                    .is_some_and(|s| s.flushes)
                {
                    if let Some(sink) = sink {
                        sink.push(Diag {
                            line,
                            msg: format!(
                                "call to `{name}` may flush (clwb) inside an HTM transaction"
                            ),
                        });
                    }
                }
                *fact
            }
            _ => *fact,
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: publish-before-init.
// ---------------------------------------------------------------------------

/// Fact: per-variable obligation for PM regions reachable from a local
/// binding (absent = clean). Join is pointwise-max over the union.
struct PublishInit<'a> {
    table: &'a SummaryTable,
    file: &'a str,
}

type VarFacts = BTreeMap<String, Ob>;

impl Analysis for PublishInit<'_> {
    type Fact = VarFacts;

    fn entry_fact(&self) -> VarFacts {
        VarFacts::new()
    }

    fn join(&self, a: &VarFacts, b: &VarFacts) -> VarFacts {
        let mut out = a.clone();
        for (k, v) in b {
            let e = out.entry(k.clone()).or_insert(*v);
            *e = (*e).max(*v);
        }
        out
    }

    fn transfer(
        &self,
        _n: usize,
        ev: &Ev,
        line: usize,
        fact: &VarFacts,
        sink: Option<&mut Vec<Diag>>,
    ) -> VarFacts {
        let mut out = fact.clone();
        match ev {
            Ev::Bind { var, alloc, .. } => {
                if *alloc {
                    // Freshly allocated PM: contents unfenced until
                    // proven otherwise.
                    out.insert(var.clone(), Ob::Dirty);
                } else {
                    // Rebinding kills any stale obligation.
                    out.remove(var);
                }
            }
            Ev::Store { nt, tgt, .. } => {
                for t in tgt {
                    let ob = if *nt { Ob::Flushed } else { Ob::Dirty };
                    let e = out.entry(t.clone()).or_insert(ob);
                    *e = (*e).max(ob);
                }
            }
            Ev::Flush { tgt } => {
                for t in tgt {
                    if let Some(e) = out.get_mut(t) {
                        if *e == Ob::Dirty {
                            *e = Ob::Flushed;
                        }
                    }
                }
            }
            Ev::Fence => {
                out.retain(|_, v| *v != Ob::Flushed);
            }
            Ev::Publish { val, .. } => {
                let mut sink = sink;
                for v in val {
                    if let Some(state) = out.get(v) {
                        if let Some(s) = sink.as_mut() {
                            s.push(Diag {
                                line,
                                msg: format!(
                                    "`{v}` published while its PM writes are {} on some path",
                                    state.label()
                                ),
                            });
                        }
                    }
                }
                for v in val {
                    out.remove(v);
                }
            }
            Ev::Call { name, foreign } => {
                // A callee that fences discharges all pending
                // obligations (it cannot fence selectively); one that
                // only flushes downgrades Dirty to Flushed.
                if let Some(sum) = self.table.resolve_call(self.file, name, *foreign) {
                    if sum.fences {
                        out.retain(|_, v| *v != Ob::Flushed);
                    }
                    if sum.flushes {
                        for v in out.values_mut() {
                            if *v == Ob::Dirty {
                                *v = Ob::Flushed;
                            }
                        }
                        if sum.fences {
                            out.retain(|_, v| *v != Ob::Flushed);
                        }
                    }
                }
            }
            _ => {}
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------------

/// The `flow` family: the three ordering rules, then the waiver
/// cross-check.
pub fn run(tree: &Tree, sink: &mut Sink) {
    check(tree, sink);
    crosscheck(tree, sink);
}

/// The three ordering rules over every function outside test code, per
/// file under its [`MemModel`]. Virtual work is CFG nodes simulated per
/// rule.
pub fn check(tree: &Tree, sink: &mut Sink) {
    let Lowered { cfgs, table } = tree.lowered();
    for (file, cfgs) in tree.files.iter().zip(cfgs) {
        let model = model_for(&file.path);
        if model == MemModel::Exempt {
            continue;
        }
        for (f, cfg) in file.funcs.iter().zip(cfgs) {
            if file.in_test(f.line) {
                continue;
            }
            let nodes = cfg.nodes.len() as u64;
            if model == MemModel::Adr {
                sink.virt(RULE_FLUSH_FENCE, nodes);
                sink.virt(RULE_PUBLISH_INIT, nodes);
            }
            sink.virt(RULE_HTM_CLWB, nodes);
            for (line, rule, msg) in rule_diags(table, &file.path, cfg, model) {
                sink.push(file, line, rule, msg);
            }
        }
    }
}

fn rule_diags(
    table: &SummaryTable,
    path: &str,
    cfg: &Cfg,
    model: MemModel,
) -> Vec<(usize, &'static str, String)> {
    let mut out = Vec::new();
    if model == MemModel::Adr {
        let sim = ObSim {
            table,
            file: path,
            entry: Ob::Clean,
        };
        for d in run_analysis(cfg, &sim) {
            out.push((d.line, RULE_FLUSH_FENCE, d.msg));
        }
        let pi = PublishInit { table, file: path };
        for d in run_analysis(cfg, &pi) {
            out.push((d.line, RULE_PUBLISH_INIT, d.msg));
        }
    }
    let htm = HtmNoClwb { table, file: path };
    for d in run_analysis(cfg, &htm) {
        out.push((d.line, RULE_HTM_CLWB, d.msg));
    }
    out
}

// ---------------------------------------------------------------------------
// Waiver / san_forgive cross-check.
// ---------------------------------------------------------------------------

/// Keep the static and dynamic sanitizers honest about each other:
///
/// 1. every `flow-*` waiver must carry a `san=<file_stem>::<fn>`
///    reference to the dynamic `san_forgive` site it shadows, or an
///    explicit `san=none(<why>)`;
/// 2. every referenced `san=` key must name a real `san_forgive` site;
/// 3. every dynamic `san_forgive` site must be referenced by at least
///    one static waiver — a forgiven idiom invisible to `flow` means
///    the static rules have a blind spot worth recording.
pub fn crosscheck(tree: &Tree, sink: &mut Sink) {
    let mut referenced = BTreeMap::new();
    for (file, line, reason) in tree.waivers("flow-", RULE_WAIVER_XREF, sink) {
        let Some(rest) = reason.find("san=").map(|p| &reason[p + 4..]) else {
            sink.push(
                file,
                line,
                RULE_WAIVER_XREF,
                "flow waiver must cite its dynamic counterpart (san=<file>::<fn>) \
                 or state san=none(<why>)"
                    .into(),
            );
            continue;
        };
        if let Some(why) = rest.strip_prefix("none(") {
            if why
                .split(')')
                .next()
                .map(str::trim)
                .unwrap_or("")
                .is_empty()
            {
                sink.push(
                    file,
                    line,
                    RULE_WAIVER_XREF,
                    "san=none() needs a reason why no dynamic counterpart exists".into(),
                );
            }
        } else {
            referenced.entry(citation(rest)).or_insert((file, line));
        }
    }

    let dynamic = tree.san_sites();
    for (key, &(file, line)) in &referenced {
        if !dynamic.contains_key(key) {
            let msg = format!("waiver cites san={key}, but no such san_forgive site exists");
            sink.push(file, line, RULE_WAIVER_XREF, msg);
        }
    }
    for (key, &(fi, line)) in dynamic {
        if !referenced.contains_key(key) {
            let msg = format!(
                "dynamic san_forgive site {key} has no static flow waiver citing it \
                 (add san={key} to the waiver covering the same idiom)"
            );
            sink.push(&tree.files[fi], line, RULE_WAIVER_XREF, msg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::Finding;

    fn findings(tree: &Tree, family: fn(&Tree, &mut Sink)) -> Vec<Finding> {
        let mut sink = Sink::default();
        family(tree, &mut sink);
        sink.finish().0
    }

    fn adr(src: &str) -> Vec<Finding> {
        findings(
            &Tree::from_files([("crates/baselines/src/x.rs", src)]),
            check,
        )
    }

    fn eadr(src: &str) -> Vec<Finding> {
        findings(&Tree::from_files([("crates/core/src/x.rs", src)]), check)
    }

    fn crosscheck(files: &[(String, String)]) -> Vec<Finding> {
        findings(&Tree::from_files(files.to_vec()), super::crosscheck)
    }

    #[test]
    fn clean_adr_sequence_passes() {
        let f = adr("fn f(ctx: &mut MemCtx) { ctx.write_u64(a, v); ctx.flush(a); ctx.fence(); ctx.cas_u64(d, x, y); }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn missing_fence_fires() {
        let f = adr("fn f(ctx: &mut MemCtx) { ctx.write_u64(a, v); ctx.flush(a); ctx.cas_u64(d, x, y); }");
        assert!(f.iter().any(|x| x.rule == RULE_FLUSH_FENCE), "{f:?}");
    }

    #[test]
    fn eadr_core_is_exempt_from_flush_fence() {
        let f = eadr("fn f(ctx: &mut MemCtx) { ctx.write_u64(a, v); ctx.cas_u64(d, x, y); }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn htm_rule_applies_everywhere() {
        let src = "fn f(ctx: &mut MemCtx) { self.htm.try_transaction(ctx, |tx, ctx| { ctx.flush(a); Ok(()) }); }";
        assert!(eadr(src).iter().any(|x| x.rule == RULE_HTM_CLWB));
    }

    #[test]
    fn waiver_suppresses_finding() {
        let f = adr(
            "fn f(ctx: &mut MemCtx) {\n  ctx.write_u64(a, v);\n  // lint:allow(flow-flush-fence): test waiver san=none(toy)\n  ctx.cas_u64(d, x, y);\n}",
        );
        assert!(f.iter().all(|x| x.rule != RULE_FLUSH_FENCE), "{f:?}");
    }

    #[test]
    fn test_regions_are_exempt() {
        let f = adr(
            "#[cfg(test)]\nmod tests {\n  fn f(ctx: &mut MemCtx) { ctx.write_u64(a, v); ctx.cas_u64(d, x, y); }\n}",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn crosscheck_both_directions() {
        let files = vec![
            (
                "crates/baselines/src/dash.rs".to_string(),
                "fn scrub(ctx: &mut MemCtx) { ctx.san_forgive(a, 8); }".to_string(),
            ),
            (
                "crates/baselines/src/level.rs".to_string(),
                "// lint:allow(flow-flush-fence): shadowed dynamically san=dash::scrub\nfn g() {}\n// lint:allow(flow-flush-fence): bogus ref san=dash::missing\nfn h() {}".to_string(),
            ),
        ];
        let f = crosscheck(&files);
        // `dash::scrub` is cited: no finding for it. `dash::missing` is
        // cited but does not exist: one finding.
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].msg.contains("dash::missing"));
    }

    #[test]
    fn crosscheck_flags_unreferenced_dynamic_site() {
        let files = vec![(
            "crates/baselines/src/dash.rs".to_string(),
            "fn scrub(ctx: &mut MemCtx) { ctx.san_forgive(a, 8); }".to_string(),
        )];
        let f = crosscheck(&files);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].msg.contains("dash::scrub"));
    }

    #[test]
    fn crosscheck_requires_san_ref_in_flow_waivers() {
        let files = vec![(
            "crates/baselines/src/dash.rs".to_string(),
            "// lint:allow(flow-htm-clwb): because reasons\nfn g() {}".to_string(),
        )];
        let f = crosscheck(&files);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].msg.contains("san="));
    }
}
