//! The `spash-lint conc` rules: static concurrency-discipline checks
//! over the flow CFGs. See DESIGN.md § "Static concurrency analysis".
//!
//! PR 2's deterministic scheduler and PR 3's sanitizer witness races on
//! *explored* schedules; these rules reason about *every* path. Four
//! rules plus a machine-readable shared-word inventory:
//!
//! * [`RULE_CONC_LOCKSET`] — interprocedural lockset analysis. Lock
//!   regions ([`crate::cfg::Ev::RegionEnter`]/[`crate::cfg::Ev::RegionExit`],
//!   HTM transactions) become must-held facts; a plain store to shared
//!   PM reachable from a public index operation with no lock held
//!   locally, no lock guaranteed by every caller, and no later CAS
//!   publication covering it (the lock-free designs' discipline) is
//!   flagged.
//! * [`RULE_CONC_ATOMICITY`] — check-then-act detection. A guarded read
//!   (a PM load or read-only helper call in a branch condition, or a
//!   condition consulting a variable bound from one) whose dependent
//!   write does not execute under any sync-region instance that also
//!   covered the read is flagged — the static twin of the PLUSH
//!   check-then-act race PR 2's scheduler found dynamically.
//! * [`RULE_CONC_XREF`] — every `conc-*` waiver must cite the dynamic
//!   twin that covers the same interleaving: `sched=<witness>` (an index
//!   name the scheduler explores or a mutation canary, a variant of
//!   `spash_pmem::canary::Canary`), `san=<file>::<fn>` (a sanitizer
//!   forgive site, validated against the same map as the flow
//!   cross-check), or `none(<why>)`. Reverse direction: every racy
//!   canary consulted by non-test source must be cited by at least one
//!   conc waiver.
//! * [`RULE_CONC_SYNC_MODEL`] — the lowering's region-function table
//!   ([`crate::cfg::REGION_FNS`]) is cross-checked against
//!   `// conc: region(<kind>) fn=<name>` annotations at the primitive
//!   definitions in `crates/pmem`/`crates/htm`, both directions, so the
//!   static sync model cannot silently drift from the primitives.
//!
//! **Entry-lock alternatives.** A helper can be reached under different
//! disciplines (`split` under HTM from the fast path, under `nontx`
//! from the fallback). Per function the analysis keeps a *set of
//! alternatives* — one writer-lock set per distinct call context
//! reachable from a public root (`insert`/`update`/`get`/`remove`) —
//! rather than one must-intersection, so a function entered sometimes
//! with lock A and sometimes with lock B is not falsely "sometimes
//! unprotected". A site is unprotected only if some alternative holds
//! nothing and the site itself holds nothing. Functions unreachable
//! from any root (recovery, format, audits) are single-threaded by
//! construction and skipped.
//!
//! **Shared-word inventory.** Every PM word accessed from a concurrent
//! function is classified `private` / `sharded` / `shared` with its
//! protecting discipline (`lock:<names>`, `htm`, `atomic`,
//! `cas-publish`, `read-only`, `mixed`, or `none`). Words are named
//! `<file_stem>::<label>` where the label is the address-helper call at
//! the access (`seg.slot_addr(b, s)` → `slot_addr`) or the provenance
//! of the address binding. It answers which words are cross-thread
//! shared and under what discipline, the question any change to the
//! memory model (another persistence domain or backend) starts from.

use std::collections::{BTreeMap, BTreeSet};

use crate::cfg::{Cfg, Ev, PubKind, REGION_FNS};
use crate::dataflow::{solve, Analysis, Diag};
use crate::flow_rules::{model_for, MemModel};
use crate::summaries::{self, SummaryTable};
use crate::tree::{citation, Lowered, Sink, SrcFile, Tree};

pub const RULE_CONC_LOCKSET: &str = "conc-lockset";
pub const RULE_CONC_ATOMICITY: &str = "conc-atomicity";
pub const RULE_CONC_XREF: &str = "conc-waiver-xref";
pub const RULE_CONC_SYNC_MODEL: &str = "conc-sync-model";

pub const CONC_RULES: [&str; 4] = [
    RULE_CONC_LOCKSET,
    RULE_CONC_ATOMICITY,
    RULE_CONC_XREF,
    RULE_CONC_SYNC_MODEL,
];

/// Public index operations: the analysis roots. Concurrent threads
/// enter the indexes through these with no locks held.
const CONC_ROOTS: &[&str] = &["insert", "update", "get", "remove"];

/// Index names the PR 2 scheduler explores — valid `sched=` witnesses.
const SCHED_INDEXES: &[&str] = &["Spash", "CCEH", "Dash", "Level", "CLevel", "Plush", "Halo"];

/// Alternatives are capped; beyond this the set collapses to its
/// intersection (sound: fewer locks guaranteed, never more).
const MAX_ALTS: usize = 8;

/// Helper-call names that never name a PM word (arithmetic, iterator
/// and option plumbing inside address expressions).
const LABEL_DENY: &[&str] = &[
    "min", "max", "clone", "len", "iter", "rev", "find", "map", "unwrap", "unwrap_or",
    "unwrap_or_default", "then_some", "wrapping_add", "wrapping_sub", "wrapping_mul",
    "saturating_add", "saturating_sub", "checked_add", "checked_sub", "checked_mul", "into",
    "from", "with", "read", "write", "expect",
];

// ---------------------------------------------------------------------------
// Local locksets.
// ---------------------------------------------------------------------------

/// Must-held sync-region instances (node indices of `RegionEnter` /
/// `HtmBegin`) at each node's entry, solved by [`solve`] (`None` =
/// unreachable). Join is set intersection over predecessors.
struct Locksets<'a>(&'a Cfg);

impl Analysis for Locksets<'_> {
    type Fact = BTreeSet<usize>;

    fn entry_fact(&self) -> BTreeSet<usize> {
        BTreeSet::new()
    }

    fn join(&self, a: &BTreeSet<usize>, b: &BTreeSet<usize>) -> BTreeSet<usize> {
        a.intersection(b).copied().collect()
    }

    fn transfer(
        &self,
        n: usize,
        ev: &Ev,
        _line: usize,
        held: &BTreeSet<usize>,
        _sink: Option<&mut Vec<Diag>>,
    ) -> BTreeSet<usize> {
        let nodes = &self.0.nodes;
        let mut out = held.clone();
        match ev {
            Ev::RegionEnter { id, .. } => {
                out.insert(*id);
            }
            Ev::HtmBegin => {
                out.insert(n);
            }
            Ev::RegionExit { enter: Some(e), .. } => {
                out.remove(e);
            }
            Ev::RegionExit { enter: None, lock } => {
                out.retain(
                    |&i| !matches!(&nodes[i].ev, Ev::RegionEnter { lock: l, .. } if l == lock),
                );
            }
            Ev::Publish {
                kind: PubKind::HtmCommit,
                ..
            } => {
                out.retain(|&i| !matches!(nodes[i].ev, Ev::HtmBegin));
            }
            _ => {}
        }
        out
    }
}

/// Writer-side protection names for a set of held instances: exclusive
/// lock names plus `"htm"` for transactions. Read-side regions are
/// excluded — they do not license writes.
fn writer_names(cfg: &Cfg, insts: &BTreeSet<usize>) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for &i in insts {
        match &cfg.nodes[i].ev {
            Ev::RegionEnter { lock, writer: true, .. } => {
                out.insert(lock.clone());
            }
            Ev::HtmBegin => {
                out.insert("htm".to_string());
            }
            _ => {}
        }
    }
    out
}

/// Are all lock instances in `insts` per-shard (indexed receivers)?
fn all_sharded(cfg: &Cfg, insts: &BTreeSet<usize>) -> bool {
    insts.iter().all(|&i| {
        matches!(
            cfg.nodes[i].ev,
            Ev::RegionEnter { sharded: true, .. } | Ev::HtmBegin
        )
    })
}

// ---------------------------------------------------------------------------
// Analysis units and entry-lock alternatives.
// ---------------------------------------------------------------------------

struct FnUnit<'a> {
    file: &'a SrcFile,
    name: &'a str,
    cfg: &'a Cfg,
    locks: Vec<Option<BTreeSet<usize>>>,
}

#[derive(Clone, Debug, Default)]
struct Alts {
    sets: BTreeSet<BTreeSet<String>>,
    saturated: bool,
}

impl Alts {
    fn insert(&mut self, alt: BTreeSet<String>) -> bool {
        if self.saturated {
            // Collapsed: a single alternative, refined by intersection.
            let cur = self.sets.iter().next().cloned().unwrap_or_default();
            let merged: BTreeSet<String> = cur.intersection(&alt).cloned().collect();
            if merged != cur {
                self.sets = BTreeSet::from([merged]);
                return true;
            }
            return false;
        }
        if self.sets.contains(&alt) {
            return false;
        }
        self.sets.insert(alt);
        if self.sets.len() > MAX_ALTS {
            let mut it = self.sets.iter();
            let mut merged = it.next().cloned().unwrap_or_default();
            for s in it {
                merged = merged.intersection(s).cloned().collect();
            }
            self.sets = BTreeSet::from([merged]);
            self.saturated = true;
        }
        true
    }

    /// Some entry path guarantees no writer lock at all.
    fn has_empty(&self) -> bool {
        self.sets.iter().any(|s| s.is_empty())
    }

    /// Locks guaranteed on *every* entry path.
    fn guaranteed(&self) -> BTreeSet<String> {
        let mut it = self.sets.iter();
        let mut out = it.next().cloned().unwrap_or_default();
        for s in it {
            out = out.intersection(s).cloned().collect();
        }
        out
    }
}

/// Entry-lock alternatives per `(file, fn)`, propagated from the
/// [`CONC_ROOTS`] through resolvable calls to a Kleene fixpoint.
fn entry_alternatives(
    units: &BTreeMap<(String, String), FnUnit>,
    table: &SummaryTable,
) -> BTreeMap<(String, String), Alts> {
    let mut alts: BTreeMap<(String, String), Alts> = BTreeMap::new();
    for (key, u) in units {
        if CONC_ROOTS.contains(&u.name) {
            alts.entry(key.clone()).or_default().insert(BTreeSet::new());
        }
    }
    for _round in 0..64 {
        let mut changed = false;
        let snapshot: Vec<((String, String), Vec<BTreeSet<String>>)> = alts
            .iter()
            .map(|(k, a)| (k.clone(), a.sets.iter().cloned().collect()))
            .collect();
        for (caller_key, caller_alts) in &snapshot {
            let u = &units[caller_key];
            for (n, node) in u.cfg.nodes.iter().enumerate() {
                let Ev::Call { name, foreign } = &node.ev else { continue };
                let Some(insts) = &u.locks[n] else { continue };
                let Some(callee) = table.resolve_call_key(&u.file.path, name, *foreign) else {
                    continue;
                };
                if !units.contains_key(&callee) {
                    continue;
                }
                let held = writer_names(u.cfg, insts);
                for a in caller_alts {
                    let merged: BTreeSet<String> = a.union(&held).cloned().collect();
                    changed |= alts.entry(callee.clone()).or_default().insert(merged);
                }
            }
        }
        if !changed {
            break;
        }
    }
    alts
}

// ---------------------------------------------------------------------------
// Accesses and the shared-word inventory.
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq)]
enum AccessKind {
    Read,
    Write,
    Rmw,
}

struct Access {
    word: String,
    kind: AccessKind,
    /// Writer-side protection at the site: local locks + caller-guaranteed.
    protection: BTreeSet<String>,
    /// Local writer protection only (for the unprotected-site test).
    local_protection: BTreeSet<String>,
    sharded: bool,
    /// Address base is a fresh local allocation (thread-private).
    alloc_fresh: bool,
    /// A later atomic RMW in the same function publishes this word
    /// (the lock-free CAS-publish discipline).
    cas_covered: bool,
    /// The enclosing function is reachable from a public root.
    concurrent: bool,
    /// Some entry alternative of the enclosing function holds nothing.
    entry_may_be_bare: bool,
}

/// One inventory row, rendered into the `--json` report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WordRow {
    pub word: String,
    pub class: String,
    pub discipline: String,
    pub reads: u64,
    pub writes: u64,
    pub rmws: u64,
    pub locks: Vec<String>,
}

fn label_candidate(calls: &[String]) -> Option<&String> {
    calls
        .iter()
        .rev()
        .find(|c| !LABEL_DENY.contains(&c.as_str()) && c.chars().next().is_some_and(|ch| ch.is_lowercase()))
}

/// `let ba = lvl.bucket(b);` labels later `ba`-based accesses `bucket`.
fn bind_labels(cfg: &Cfg) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for node in &cfg.nodes {
        if let Ev::Bind {
            var, init_calls, ..
        } = &node.ev
        {
            if let Some(l) = label_candidate(init_calls) {
                out.insert(var.clone(), l.clone());
            } else {
                out.remove(var);
            }
        }
    }
    out
}

fn word_label(
    file: &SrcFile,
    via: &[String],
    tgt: &[String],
    binds: &BTreeMap<String, String>,
) -> String {
    let label = label_candidate(via)
        .cloned()
        .or_else(|| tgt.first().and_then(|t| binds.get(t).cloned()))
        .or_else(|| tgt.first().cloned())
        .unwrap_or_else(|| "anon".to_string());
    format!("{}::{}", file.stem(), label)
}

fn later_rmw(cfg: &Cfg, n: usize) -> bool {
    cfg.nodes[n + 1..]
        .iter()
        .any(|node| matches!(node.ev, Ev::Publish { kind: PubKind::Rmw, .. }))
}

/// Classify the collected accesses into inventory rows.
fn classify(accesses: &[Access]) -> Vec<WordRow> {
    let mut by_word: BTreeMap<&str, Vec<&Access>> = BTreeMap::new();
    for a in accesses {
        by_word.entry(&a.word).or_default().push(a);
    }
    let mut rows = Vec::new();
    for (word, accs) in by_word {
        let reads = accs.iter().filter(|a| a.kind == AccessKind::Read).count() as u64;
        let writes = accs.iter().filter(|a| a.kind == AccessKind::Write).count() as u64;
        let rmws = accs.iter().filter(|a| a.kind == AccessKind::Rmw).count() as u64;
        let mut locks: BTreeSet<String> = BTreeSet::new();
        for a in &accs {
            locks.extend(a.protection.iter().cloned());
        }
        let conc: Vec<&&Access> = accs.iter().filter(|a| a.concurrent && !a.alloc_fresh).collect();
        let conc_writes: Vec<&&&Access> = conc
            .iter()
            .filter(|a| a.kind != AccessKind::Read)
            .collect();
        let (class, discipline) = if conc.is_empty() {
            ("private".to_string(), "single-thread".to_string())
        } else if conc_writes.is_empty() {
            ("shared".to_string(), "read-only".to_string())
        } else if conc_writes.iter().all(|a| a.kind == AccessKind::Rmw) {
            ("shared".to_string(), "atomic".to_string())
        } else if conc_writes
            .iter()
            .all(|a| a.kind == AccessKind::Rmw || a.cas_covered)
        {
            ("shared".to_string(), "cas-publish".to_string())
        } else {
            let plain: Vec<&&&&Access> = conc_writes
                .iter()
                .filter(|a| a.kind == AccessKind::Write)
                .collect();
            let mut common = plain
                .first()
                .map(|a| a.protection.clone())
                .unwrap_or_default();
            for a in &plain[1..] {
                common = common.intersection(&a.protection).cloned().collect();
            }
            if !common.is_empty() {
                let sharded = plain.iter().all(|a| a.sharded);
                let class = if sharded { "sharded" } else { "shared" };
                let disc = if common.len() == 1 && common.contains("htm") {
                    "htm".to_string()
                } else {
                    format!(
                        "lock:{}",
                        common.iter().cloned().collect::<Vec<_>>().join("+")
                    )
                };
                (class.to_string(), disc)
            } else if plain
                .iter()
                .all(|a| !a.protection.is_empty() || a.cas_covered || !a.entry_may_be_bare)
            {
                ("shared".to_string(), "mixed".to_string())
            } else {
                ("shared".to_string(), "none".to_string())
            }
        };
        rows.push(WordRow {
            word: word.to_string(),
            class,
            discipline,
            reads,
            writes,
            rmws,
            locks: locks.into_iter().collect(),
        });
    }
    rows
}

// ---------------------------------------------------------------------------
// Control dependence (check-then-act pairing).
// ---------------------------------------------------------------------------

/// Nodes reachable from `start` (inclusive) along successor edges.
fn reach_from(cfg: &Cfg, start: usize) -> Vec<bool> {
    let mut seen = vec![false; cfg.nodes.len()];
    let mut stack = vec![start];
    while let Some(n) = stack.pop() {
        if seen[n] {
            continue;
        }
        seen[n] = true;
        for &s in &cfg.succs[n] {
            stack.push(s);
        }
    }
    seen
}

/// Is `w` control-dependent on the branch decided by condition node
/// `g`? The lowering chains condition nodes single-successor into the
/// branch node, so walk forward from `g` until the out-degree exceeds
/// one; `w` depends on that branch iff it is reachable from some but
/// not all of the branch's successors.
fn control_dependent(cfg: &Cfg, g: usize, w: usize) -> bool {
    let mut b = g;
    let mut steps = 0;
    while cfg.succs[b].len() == 1 && steps <= cfg.nodes.len() {
        b = cfg.succs[b][0];
        steps += 1;
    }
    if cfg.succs[b].len() < 2 {
        return false;
    }
    let mut some = false;
    let mut all = true;
    for &s in &cfg.succs[b] {
        let r = reach_from(cfg, s)[w];
        some |= r;
        all &= r;
    }
    some && !all
}

// ---------------------------------------------------------------------------
// Guard taint (check-then-act).
// ---------------------------------------------------------------------------

/// Variables whose value derives from a guarded/shared PM read, with
/// the sync-region instances that justified the read. A bind whose
/// initializer runs a region closure (`let hit = self.shards[i]
/// .with(…)`) is justified by that region instance; a bind from a plain
/// load or read-only helper by whatever was held at the bind.
fn guard_vars(
    cfg: &Cfg,
    locks: &[Option<BTreeSet<usize>>],
    table: &SummaryTable,
    path: &str,
) -> BTreeMap<String, BTreeSet<usize>> {
    let region_names: Vec<&str> = REGION_FNS.iter().map(|(n, _)| *n).collect();
    let reads_pm = |name: &str| {
        name == "read_u64"
            || name == "read_line"
            || name == "read_bytes"
            || table
                .resolve(path, name)
                .is_some_and(|s| s.reads_pm && !s.writes_pm)
    };
    let mut out: BTreeMap<String, BTreeSet<usize>> = BTreeMap::new();
    loop {
        let mut changed = false;
        for (n, node) in cfg.nodes.iter().enumerate() {
            let Ev::Bind {
                var,
                init_calls,
                init_idents,
                ..
            } = &node.ev
            else {
                continue;
            };
            let mut insts: Option<BTreeSet<usize>> = None;
            if init_calls.iter().any(|c| region_names.contains(&c.as_str())) {
                // Justified by the nearest preceding region instance
                // (the region closure whose result is being bound).
                let inst = (0..n)
                    .rev()
                    .find(|&i| matches!(cfg.nodes[i].ev, Ev::RegionEnter { .. } | Ev::HtmBegin));
                insts = Some(inst.into_iter().collect());
            } else if init_calls.iter().any(|c| reads_pm(c)) {
                insts = Some(locks[n].clone().unwrap_or_default());
            } else {
                let mut merged = BTreeSet::new();
                let mut any = false;
                for id in init_idents {
                    if let Some(s) = out.get(id) {
                        merged.extend(s.iter().copied());
                        any = true;
                    }
                }
                if any {
                    insts = Some(merged);
                }
            }
            if let Some(insts) = insts {
                let e = out.entry(var.clone()).or_default();
                if *e != insts {
                    let merged: BTreeSet<usize> = e.union(&insts).copied().collect();
                    if *e != merged {
                        *e = merged;
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------------

/// The `conc` family: the lockset and check-then-act rules over every
/// function outside test code, then the waiver and sync-model
/// cross-checks. Returns the shared-word inventory.
pub fn run(tree: &Tree, sink: &mut Sink) -> Vec<WordRow> {
    let Lowered { cfgs, table } = tree.lowered();
    for rule in [RULE_CONC_LOCKSET, RULE_CONC_ATOMICITY] {
        sink.virt(rule, 0);
    }

    // Analysis units: every non-test fn in a conc-checked file.
    let mut units: BTreeMap<(String, String), FnUnit> = BTreeMap::new();
    for (file, cfgs) in tree.files.iter().zip(cfgs) {
        if model_for(&file.path) == MemModel::Exempt {
            continue;
        }
        for (f, cfg) in file.funcs.iter().zip(cfgs) {
            if file.in_test(f.line) {
                continue;
            }
            let unit = FnUnit {
                file,
                name: &f.name,
                cfg,
                locks: solve(cfg, &Locksets(cfg)),
            };
            units.insert((file.path.clone(), f.name.clone()), unit);
        }
    }

    let alts = entry_alternatives(&units, table);

    let mut raw: Vec<(&SrcFile, usize, &'static str, String)> = Vec::new();
    let mut accesses: Vec<Access> = Vec::new();

    for (key, u) in &units {
        let fn_alts = alts.get(key);
        let concurrent = fn_alts.is_some_and(|a| !a.sets.is_empty());
        let may_be_bare = fn_alts.is_some_and(|a| a.has_empty());
        let guaranteed = fn_alts.map(|a| a.guaranteed()).unwrap_or_default();
        if concurrent {
            sink.virt(RULE_CONC_LOCKSET, u.cfg.nodes.len() as u64);
            sink.virt(RULE_CONC_ATOMICITY, u.cfg.nodes.len() as u64);
        }
        let binds = bind_labels(u.cfg);
        let guards_by_var = guard_vars(u.cfg, &u.locks, table, &u.file.path);
        let fresh = summaries::alloc_tainted(u.cfg);
        // Words this function publishes (or claims) via atomic RMW: a
        // plain store to the same word participates in a CAS
        // claim/publish protocol (freeze-then-move, write-then-CAS) and
        // is not an unsynchronized shared write.
        let rmw_words: BTreeSet<String> = u
            .cfg
            .nodes
            .iter()
            .filter_map(|node| match &node.ev {
                Ev::Publish {
                    kind: PubKind::Rmw,
                    tgt,
                    via,
                    ..
                } => Some(word_label(u.file, via, tgt, &binds)),
                _ => None,
            })
            .collect();

        // -- access collection (inventory + lockset rule) --------------
        for (n, node) in u.cfg.nodes.iter().enumerate() {
            let (kind, tgt, via) = match &node.ev {
                Ev::Store { tgt, via, .. } => (AccessKind::Write, tgt, via),
                Ev::Load { tgt, via } => (AccessKind::Read, tgt, via),
                Ev::Publish {
                    kind: PubKind::Rmw,
                    tgt,
                    via,
                    ..
                } => (AccessKind::Rmw, tgt, via),
                _ => continue,
            };
            let alloc_fresh = !tgt.is_empty() && tgt.iter().all(|t| fresh.contains(t));
            let insts = u.locks[n].clone().unwrap_or_default();
            let local = writer_names(u.cfg, &insts);
            let mut protection = local.clone();
            protection.extend(guaranteed.iter().cloned());
            let word = word_label(u.file, via, tgt, &binds);
            let cas_covered =
                kind == AccessKind::Write && (later_rmw(u.cfg, n) || rmw_words.contains(&word));
            accesses.push(Access {
                word,
                kind,
                protection,
                local_protection: local,
                sharded: !insts.is_empty() && all_sharded(u.cfg, &insts),
                alloc_fresh,
                cas_covered,
                concurrent,
                entry_may_be_bare: may_be_bare,
            });
            let a = accesses.last().expect("just pushed");
            if concurrent
                && may_be_bare
                && kind == AccessKind::Write
                && a.local_protection.is_empty()
                && !alloc_fresh
                && !cas_covered
            {
                raw.push((
                    u.file,
                    node.line,
                    RULE_CONC_LOCKSET,
                    format!(
                        "shared PM write (`{}`) reachable from a public operation with no \
                         lock held, no caller-guaranteed lock, and no CAS publication \
                         covering it",
                        a.word
                    ),
                ));
            }
        }

        // -- check-then-act (atomicity rule) ----------------------------
        if concurrent && may_be_bare {
            // Guards: condition-position PM reads, read-only helper
            // calls, and conditions consulting guard-tainted variables.
            let mut guards: Vec<(usize, BTreeSet<usize>)> = Vec::new();
            for (n, node) in u.cfg.nodes.iter().enumerate() {
                if !u.cfg.in_cond[n] {
                    continue;
                }
                match &node.ev {
                    Ev::Load { .. } => {
                        guards.push((n, u.locks[n].clone().unwrap_or_default()));
                    }
                    Ev::Call { name, foreign } => {
                        if table
                            .resolve_call(&u.file.path, name, *foreign)
                            .is_some_and(|s| s.reads_pm && !s.writes_pm)
                        {
                            guards.push((n, u.locks[n].clone().unwrap_or_default()));
                        }
                    }
                    Ev::CondUse { idents } => {
                        let mut insts = BTreeSet::new();
                        let mut any = false;
                        for id in idents {
                            if let Some(s) = guards_by_var.get(id) {
                                insts.extend(s.iter().copied());
                                any = true;
                            }
                        }
                        if any {
                            guards.push((n, insts));
                        }
                    }
                    _ => {}
                }
            }
            // Acts in node order: bare stores and shared-writing calls
            // under no writer protection. A writer-protected act is
            // presumed to revalidate its guard inside the region (the
            // optimistic check / locked-recheck idiom every baseline
            // uses).
            let mut acts: Vec<(usize, bool, BTreeSet<usize>)> = Vec::new();
            for (w, node) in u.cfg.nodes.iter().enumerate() {
                let act_is_call = match &node.ev {
                    Ev::Store { tgt, via, .. } => {
                        let alloc_fresh = !tgt.is_empty() && tgt.iter().all(|t| fresh.contains(t));
                        let word = word_label(u.file, via, tgt, &binds);
                        if alloc_fresh || later_rmw(u.cfg, w) || rmw_words.contains(&word) {
                            None
                        } else {
                            Some(false)
                        }
                    }
                    Ev::Call { name, foreign } => table
                        .resolve_call(&u.file.path, name, *foreign)
                        .is_some_and(|s| s.writes_shared)
                        .then_some(true),
                    _ => None,
                };
                let Some(is_call) = act_is_call else { continue };
                let w_insts = u.locks[w].clone().unwrap_or_default();
                if !writer_names(u.cfg, &w_insts).is_empty() {
                    continue;
                }
                acts.push((w, is_call, w_insts));
            }
            // Pair each guard with the first act its branch controls:
            // the read that decided the branch races with the first
            // dependent write taken on its strength (later acts on the
            // same branch depend on that first one's outcome, not on
            // the raw guard). A bare-store act races any guard whose
            // region instances are disjoint from the act's; a call act
            // (the callee re-reads under its own discipline) races
            // only a fully unprotected guard — the PLUSH shape, where
            // the lookup ran bare and the callee writes the shared
            // word on its say-so.
            let mut reported: BTreeSet<usize> = BTreeSet::new();
            for (g, g_insts) in &guards {
                let hit = acts
                    .iter()
                    .find(|(w, _, _)| *w > *g && control_dependent(u.cfg, *g, *w));
                let Some((w, is_call, w_insts)) = hit else {
                    continue;
                };
                let races = if *is_call {
                    g_insts.is_empty()
                } else {
                    g_insts.intersection(w_insts).count() == 0
                };
                if !races {
                    continue;
                }
                let line = u.cfg.nodes[*w].line;
                let already_lockset = raw.iter().any(|(f, l, r, _)| {
                    *r == RULE_CONC_LOCKSET && f.path == u.file.path && *l == line
                });
                if already_lockset || !reported.insert(line) {
                    continue;
                }
                raw.push((
                    u.file,
                    line,
                    RULE_CONC_ATOMICITY,
                    format!(
                        "dependent write outside the sync region of its guard \
                         (checked at line {}): the checked condition can be \
                         invalidated before this write (check-then-act race)",
                        u.cfg.nodes[*g].line
                    ),
                ));
            }
        }
    }

    for (file, line, rule, msg) in raw {
        sink.push(file, line, rule, msg);
    }
    crosscheck(tree, sink);
    sync_model_check(tree, sink);
    classify(&accesses)
}

// ---------------------------------------------------------------------------
// Waiver cross-check against the dynamic twins.
// ---------------------------------------------------------------------------

/// Where the mutation canaries are declared.
pub(crate) const CANARY_FILE: &str = "crates/pmem/src/canary.rs";

/// The variants of the `Canary` enum in [`CANARY_FILE`], if that file is
/// in the tree.
pub(crate) fn canary_variants(tree: &Tree) -> Vec<&str> {
    let Some(file) = tree.files.iter().find(|f| f.path == CANARY_FILE) else {
        return Vec::new();
    };
    let Some(start) = file.stripped.find("pub enum Canary {") else {
        return Vec::new();
    };
    let body = &file.stripped[start + "pub enum Canary {".len()..];
    body[..body.find('}').unwrap_or(body.len())]
        .split(',')
        .map(str::trim)
        .filter(|v| !v.is_empty())
        .collect()
}

/// `conc-*` waivers must cite a dynamic witness; racy canaries consulted
/// by non-test source must be cited by some waiver (both directions,
/// mirroring the flow rules' `san_forgive` cross-check).
fn crosscheck(tree: &Tree, sink: &mut Sink) {
    // Valid `sched=` witnesses: the index names the scheduler explores
    // plus every mutation canary.
    let mut witnesses: BTreeSet<&str> = SCHED_INDEXES.iter().copied().collect();
    witnesses.extend(canary_variants(tree));

    let mut cited: BTreeSet<String> = BTreeSet::new();
    for (file, line, reason) in tree.waivers("conc-", RULE_CONC_XREF, sink) {
        let token_after = |tag: &str| reason.find(tag).map(|p| citation(&reason[p + tag.len()..]));
        let none_why = |tag: &str| -> Option<&str> {
            let p = reason.find(tag)?;
            reason[p + tag.len()..].split(')').next()
        };
        let msg = if let Some(why) = none_why("sched=none(").or_else(|| none_why("san=none(")) {
            if !why.trim().is_empty() {
                continue;
            }
            "none() needs a reason why no dynamic twin covers this site".to_string()
        } else if let Some(w) = token_after("sched=") {
            if witnesses.contains(w.as_str()) {
                cited.insert(w);
                continue;
            }
            format!(
                "waiver cites sched={w}, which is neither a scheduler-explored \
                 index nor a mutation canary"
            )
        } else if let Some(k) = token_after("san=") {
            if tree.san_sites().contains_key(&k) {
                continue;
            }
            format!("waiver cites san={k}, but no such san_forgive site exists")
        } else {
            "conc waiver must cite its dynamic twin: sched=<index|canary>, \
             san=<file>::<fn>, or sched=none(<why>)"
                .to_string()
        };
        sink.push(file, line, RULE_CONC_XREF, msg);
    }

    // Reverse: racy canaries consulted from real (non-test) source
    // represent deliberately-unfixed races; each must be pinned by a
    // waiver citing it.
    for hook in witnesses.iter().filter(|w| w.contains("Racy")) {
        let used = tree.files.iter().find(|f| {
            (f.path.starts_with("crates/baselines/") || f.path.starts_with("crates/core/"))
                && !f.is_test
                && f.stripped.contains(hook)
        });
        if let Some(file) = used {
            if !cited.contains(*hook) {
                let line = file
                    .stripped
                    .lines()
                    .position(|l| l.contains(hook))
                    .map_or(1, |i| i + 1);
                let msg = format!(
                    "racy canary `{hook}` is consulted here but no conc waiver cites \
                     sched={hook}; the deliberate race must be pinned to its witness"
                );
                sink.push(file, line, RULE_CONC_XREF, msg);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Sync-model cross-check.
// ---------------------------------------------------------------------------

/// `// conc: region(<kind>) fn=<name>` annotations at the primitive
/// definitions must agree with [`REGION_FNS`] in both directions.
fn sync_model_check(tree: &Tree, sink: &mut Sink) {
    let mut seen: BTreeMap<String, (String, &SrcFile, usize)> = BTreeMap::new();
    let is_primitive = |p: &str| p.starts_with("crates/pmem/") || p.starts_with("crates/htm/");
    let mut primitive_files = false;
    for file in &tree.files {
        // Primitives live in pmem/htm; the two-phase wrapper the
        // lowering also models is defined in core, so annotations are
        // scanned there too. The reverse direction stays gated on the
        // pmem/htm primitives being in the scanned set.
        let path = file.path.as_str();
        let primitive = is_primitive(path);
        if !(primitive || path.starts_with("crates/core/")) || file.is_test {
            continue;
        }
        primitive_files |= primitive;
        sink.virt(RULE_CONC_SYNC_MODEL, file.text.lines().count() as u64);
        for (i, line) in file.text.lines().enumerate() {
            let Some(cpos) = line.find("//") else { continue };
            let comment = &line[cpos..];
            let Some(pos) = comment.find("conc: region(") else { continue };
            let rest = &comment[pos + "conc: region(".len()..];
            let Some(kind) = rest.split(')').next() else { continue };
            let Some(fpos) = rest.find("fn=") else {
                let msg = "region annotation without fn=<name>".to_string();
                sink.push(file, i + 1, RULE_CONC_SYNC_MODEL, msg);
                continue;
            };
            let name: String = rest[fpos + 3..]
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            seen.insert(name, (kind.to_string(), file, i + 1));
        }
    }
    for (name, (kind, file, line)) in &seen {
        let msg = match REGION_FNS.iter().find(|(n, _)| n == name) {
            None => format!(
                "`{name}` is annotated as a sync region but the CFG lowering does not \
                 model it (cfg::REGION_FNS); the static lockset analysis is blind to it"
            ),
            Some((_, k)) if k != kind => format!(
                "`{name}` is annotated region({kind}) but the lowering models it as \
                 region({k})"
            ),
            Some(_) => continue,
        };
        sink.push(file, *line, RULE_CONC_SYNC_MODEL, msg);
    }
    // Reverse direction only when the primitives are in the scanned set
    // (the real tree; synthetic fixtures check the forward direction).
    let anchor = tree.files.iter().find(|f| is_primitive(&f.path));
    let Some(anchor) = anchor.filter(|_| primitive_files) else {
        return;
    };
    for (name, kind) in REGION_FNS {
        if !seen.contains_key(*name) {
            let msg = format!(
                "lowering models `{name}` as region({kind}) but no primitive \
                 definition carries `// conc: region({kind}) fn={name}`; annotate \
                 the definition so the model is pinned to the code"
            );
            sink.push(anchor, 1, RULE_CONC_SYNC_MODEL, msg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::Finding;

    fn check_files_conc(files: &[(String, String)]) -> (Vec<Finding>, Vec<WordRow>) {
        let mut sink = Sink::default();
        let inventory = run(&Tree::from_files(files.to_vec()), &mut sink);
        (sink.finish().0, inventory)
    }

    fn conc(src: &str) -> (Vec<Finding>, Vec<WordRow>) {
        check_files_conc(&[("crates/baselines/src/x.rs".to_string(), src.to_string())])
    }

    #[test]
    fn locked_write_is_clean() {
        let (f, inv) = conc(
            "fn insert(&self, ctx: &mut MemCtx, k: u64) { \
               self.shards[0].with(ctx, |ctx, _| { ctx.write_u64(self.slot_addr(k), k); }); }",
        );
        assert!(f.is_empty(), "{f:?}");
        let row = inv.iter().find(|w| w.word == "x::slot_addr").unwrap();
        assert_eq!(row.class, "sharded");
        assert_eq!(row.discipline, "lock:shards");
    }

    #[test]
    fn bare_write_fires_lockset() {
        let (f, inv) = conc(
            "fn insert(&self, ctx: &mut MemCtx, k: u64) { ctx.write_u64(self.slot_addr(k), k); }",
        );
        assert!(f.iter().any(|x| x.rule == RULE_CONC_LOCKSET), "{f:?}");
        let row = inv.iter().find(|w| w.word == "x::slot_addr").unwrap();
        assert_eq!(row.discipline, "none");
    }

    #[test]
    fn cas_publish_discipline_is_exempt() {
        let (f, inv) = conc(
            "fn insert(&self, ctx: &mut MemCtx, k: u64) { \
               ctx.write_u64(self.slot_addr(k), k); ctx.cas_u64(self.head_addr(), 0, k); }",
        );
        assert!(f.iter().all(|x| x.rule != RULE_CONC_LOCKSET), "{f:?}");
        let row = inv.iter().find(|w| w.word == "x::slot_addr").unwrap();
        assert_eq!(row.discipline, "cas-publish");
    }

    #[test]
    fn helper_inherits_caller_lock() {
        let (f, _) = conc(
            "fn insert(&self, ctx: &mut MemCtx, k: u64) { \
               self.shards[0].with(ctx, |ctx, _| { self.slot_put(ctx, k) }); }\n\
             fn slot_put(&self, ctx: &mut MemCtx, k: u64) { ctx.write_u64(self.slot_addr(k), k); }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unreachable_fn_is_single_threaded() {
        let (f, _) = conc(
            "fn recover_scan(&self, ctx: &mut MemCtx) { ctx.write_u64(self.slot_addr(0), 0); }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn check_then_act_across_regions_fires() {
        // The PLUSH shape: an unguarded existence probe decides whether
        // to call a helper that writes the shared word under its own
        // (too-late) lock — the probed condition can be invalidated
        // before the helper re-acquires.
        let (f, _) = conc(
            "fn insert(&self, ctx: &mut MemCtx, k: u64) {\n\
               let hit = self.probe(ctx, k);\n\
               if hit == 0 {\n\
                 self.put(ctx, k);\n\
               }\n\
             }\n\
             fn probe(&self, ctx: &mut MemCtx, k: u64) -> u64 {\n\
               ctx.read_u64(self.slot_addr(k))\n\
             }\n\
             fn put(&self, ctx: &mut MemCtx, k: u64) {\n\
               self.shards[0].with(ctx, |ctx, _| { ctx.write_u64(self.slot_addr(k), k); });\n\
             }",
        );
        assert!(f.iter().any(|x| x.rule == RULE_CONC_ATOMICITY && x.line == 4), "{f:?}");
    }

    #[test]
    fn check_and_act_in_one_region_is_clean() {
        let (f, _) = conc(
            "fn insert(&self, ctx: &mut MemCtx, k: u64) { \
               self.shards[0].with(ctx, |ctx, _| { \
                 if ctx.read_u64(self.slot_addr(k)) == 0 { \
                   ctx.write_u64(self.slot_addr(k), k); } }); }",
        );
        assert!(f.iter().all(|x| x.rule != RULE_CONC_ATOMICITY), "{f:?}");
    }

    #[test]
    fn conc_waiver_requires_witness() {
        let files = vec![(
            "crates/baselines/src/x.rs".to_string(),
            "// lint:allow(conc-lockset): because reasons\nfn g() {}".to_string(),
        )];
        let (f, _) = check_files_conc(&files);
        assert!(
            f.iter().any(|x| x.rule == RULE_CONC_XREF && x.msg.contains("sched=")),
            "{f:?}"
        );
    }

    #[test]
    fn conc_waiver_with_index_witness_passes() {
        let files = vec![(
            "crates/baselines/src/x.rs".to_string(),
            "// lint:allow(conc-lockset): racy by design sched=Halo\nfn g() {}".to_string(),
        )];
        let (f, _) = check_files_conc(&files);
        assert!(f.iter().all(|x| x.rule != RULE_CONC_XREF), "{f:?}");
    }

    /// A canary is a witness, and a racy one consulted by index code must
    /// be cited by a waiver.
    #[test]
    fn racy_canary_is_a_witness_that_must_be_cited() {
        let registry = (
            CANARY_FILE.to_string(),
            "pub enum Canary {\n    /// doc\n    FooRacyPut,\n    Other,\n}".to_string(),
        );
        let consulted = "fn put() { if canary::armed(Canary::FooRacyPut) {} }";
        let uncited = vec![
            registry.clone(),
            ("crates/baselines/src/x.rs".to_string(), consulted.to_string()),
        ];
        let (f, _) = check_files_conc(&uncited);
        assert!(
            f.iter().any(|x| x.rule == RULE_CONC_XREF && x.msg.contains("FooRacyPut")),
            "{f:?}"
        );
        let cited = vec![
            registry,
            (
                "crates/baselines/src/x.rs".to_string(),
                format!("// lint:allow(conc-lockset): deliberate sched=FooRacyPut\n{consulted}"),
            ),
        ];
        let (f, _) = check_files_conc(&cited);
        assert!(f.iter().all(|x| x.rule != RULE_CONC_XREF), "{f:?}");
    }

    #[test]
    fn stale_sched_witness_fires() {
        let files = vec![(
            "crates/baselines/src/x.rs".to_string(),
            "// lint:allow(conc-lockset): stale sched=NoSuchThing\nfn g() {}".to_string(),
        )];
        let (f, _) = check_files_conc(&files);
        assert!(
            f.iter().any(|x| x.rule == RULE_CONC_XREF && x.msg.contains("NoSuchThing")),
            "{f:?}"
        );
    }

    #[test]
    fn sync_model_annotation_mismatch_fires() {
        let files = vec![(
            "crates/pmem/src/vlock.rs".to_string(),
            "// conc: region(unmodeled) fn=mystery_sync\npub fn mystery_sync() {}".to_string(),
        )];
        let (f, _) = check_files_conc(&files);
        assert!(
            f.iter().any(|x| x.rule == RULE_CONC_SYNC_MODEL && x.msg.contains("mystery_sync")),
            "{f:?}"
        );
    }

}
