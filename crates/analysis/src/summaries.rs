//! Bottom-up call-graph summaries for the flow analyses.
//!
//! Each analyzed function gets a [`FnSummary`] describing its effect on
//! the flush/fence obligation state and which event kinds it may reach
//! (directly or transitively). Summaries let the obligation rule see
//! through helpers: a store in `set_slot_tag` followed by a publish in
//! its caller is still a violation, and a helper that flushes+fences
//! discharges the caller's obligation.
//!
//! Computation is a global Kleene fixpoint: start every function at the
//! bottom summary (no effect, no violations), re-simulate each function
//! against the current table, repeat until stable. Effects only grow
//! (the obligation transfer is monotone in the table and every field
//! sits in a finite lattice), so the iteration terminates; recursive and
//! mutually-recursive functions settle at a sound overapproximation.
//!
//! Call resolution is name-based: a call resolves to a same-file
//! function first, then to a globally unique name across analyzed
//! files. Ambiguous names (e.g. every index's `insert`) and unknown
//! names (std, other crates) resolve to "no effect" — optimistic, which
//! keeps the rules quiet rather than noisy; the dynamic sanitizer
//! remains the backstop for what name-matching cannot see.

use std::collections::BTreeMap;

use crate::cfg::{Cfg, Ev};
use crate::dataflow::{solve, Analysis, Diag};
use crate::tree::SrcFile;

/// Flush/fence obligation state for "some PM store in flight".
/// Ordered: join = max = worst case over paths.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Ob {
    /// No unflushed/unfenced store outstanding.
    Clean = 0,
    /// Stores flushed (or non-temporal) but not yet fenced.
    Flushed = 1,
    /// Stores not even flushed.
    Dirty = 2,
}

impl Ob {
    pub const ALL: [Ob; 3] = [Ob::Clean, Ob::Flushed, Ob::Dirty];

    pub fn label(self) -> &'static str {
        match self {
            Ob::Clean => "clean",
            Ob::Flushed => "flushed-unfenced",
            Ob::Dirty => "unflushed",
        }
    }
}

/// Summary of one function's persistence behavior.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct FnSummary {
    /// Obligation state at function exit, per obligation state at entry
    /// (indexed by `Ob as usize`).
    pub apply: [ObOrBottom; 3],
    /// Whether a publication inside this function (or a callee) can see
    /// a non-clean state, per entry state.
    pub viol: [bool; 3],
    /// Event-kind reachability, transitively through callees.
    pub writes_pm: bool,
    pub flushes: bool,
    pub fences: bool,
    pub may_publish: bool,
    /// Reads PM (`read_u64`/`read_line`/`read_bytes`), transitively.
    pub reads_pm: bool,
    /// Plain-stores to PM whose address is not a fresh local allocation,
    /// transitively — the accesses the lockset rule cares about (RMWs
    /// are their own synchronization and are excluded).
    pub writes_shared: bool,
}

/// `apply` entries start at bottom (`Unreached`) so recursion seeds
/// optimistically; an `Unreached` exit (function never returns, or not
/// yet simulated) acts as "no effect" at call sites.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ObOrBottom {
    #[default]
    Unreached,
    At(Ob),
}

impl ObOrBottom {
    fn or(self, entry: Ob) -> Ob {
        match self {
            ObOrBottom::Unreached => entry,
            ObOrBottom::At(o) => o,
        }
    }
}

/// Summaries for every analyzed function, keyed by (file, fn name).
pub struct SummaryTable {
    fns: BTreeMap<(String, String), FnSummary>,
    /// fn name → files defining it (for global-unique resolution).
    by_name: BTreeMap<String, Vec<String>>,
}

impl SummaryTable {
    /// Resolve a call by name from `file`: same file wins, then a
    /// globally unique definition; ambiguity/unknown → `None`.
    pub fn resolve(&self, file: &str, name: &str) -> Option<&FnSummary> {
        if let Some(s) = self.fns.get(&(file.to_string(), name.to_string())) {
            return Some(s);
        }
        self.resolve_unique(name)
    }

    /// Resolution for foreign-receiver calls: no same-file preference,
    /// a globally unique definition or nothing.
    pub fn resolve_unique(&self, name: &str) -> Option<&FnSummary> {
        match self.by_name.get(name)?.as_slice() {
            [only] => self.fns.get(&(only.clone(), name.to_string())),
            _ => None,
        }
    }

    /// Dispatch on the call's receiver class (see [`Ev::Call`]).
    pub fn resolve_call(&self, file: &str, name: &str, foreign: bool) -> Option<&FnSummary> {
        if foreign {
            self.resolve_unique(name)
        } else {
            self.resolve(file, name)
        }
    }

    /// Like [`Self::resolve_call`] but returns the resolved `(file, fn)`
    /// key — the concurrency analyzer's call-graph edges.
    pub fn resolve_call_key(&self, file: &str, name: &str, foreign: bool) -> Option<(String, String)> {
        if !foreign && self.fns.contains_key(&(file.to_string(), name.to_string())) {
            return Some((file.to_string(), name.to_string()));
        }
        match self.by_name.get(name)?.as_slice() {
            [only] => Some((only.clone(), name.to_string())),
            _ => None,
        }
    }
}

/// Apply one event to an obligation state. Returns the next state and
/// whether a publication fired while non-clean. Shared by the summary
/// fixpoint and the per-function reporting rule so they cannot drift.
pub fn ob_step(table: &SummaryTable, file: &str, ev: &Ev, s: Ob) -> (Ob, bool) {
    match ev {
        Ev::Store { nt, .. } => {
            // A non-temporal store bypasses the cache: no flush needed,
            // but the fence obligation stands.
            if *nt {
                (s.max(Ob::Flushed), false)
            } else {
                (Ob::Dirty, false)
            }
        }
        Ev::Flush { .. } => {
            // Address-insensitive: one flush is taken to cover the
            // outstanding stores. Optimistic, and the right default for
            // the flush-per-line batching idiom; the dynamic sanitizer
            // checks per-address coverage on executed paths.
            if s == Ob::Dirty {
                (Ob::Flushed, false)
            } else {
                (s, false)
            }
        }
        Ev::Fence => {
            // A fence orders flushed (and non-temporal) stores; it does
            // nothing for data still sitting dirty in cache.
            if s == Ob::Flushed {
                (Ob::Clean, false)
            } else {
                (s, false)
            }
        }
        Ev::Publish { .. } => (Ob::Clean, s != Ob::Clean),
        Ev::Call { name, foreign } => match table.resolve_call(file, name, *foreign) {
            Some(sum) => (sum.apply[s as usize].or(s), sum.viol[s as usize]),
            None => (s, false),
        },
        Ev::HtmBegin
        | Ev::Bind { .. }
        | Ev::Load { .. }
        | Ev::RegionEnter { .. }
        | Ev::RegionExit { .. }
        | Ev::CondUse { .. }
        | Ev::Nop => (s, false),
    }
}

/// Obligation dataflow for one function at a fixed entry state.
pub struct ObSim<'a> {
    pub table: &'a SummaryTable,
    pub file: &'a str,
    pub entry: Ob,
}

impl Analysis for ObSim<'_> {
    type Fact = Ob;

    fn entry_fact(&self) -> Ob {
        self.entry
    }

    fn join(&self, a: &Ob, b: &Ob) -> Ob {
        (*a).max(*b)
    }

    fn transfer(
        &self,
        _n: usize,
        ev: &Ev,
        line: usize,
        fact: &Ob,
        sink: Option<&mut Vec<Diag>>,
    ) -> Ob {
        let (next, mut viol) = ob_step(self.table, self.file, ev, *fact);
        if let Ev::Call { name, foreign } = ev {
            // A callee that violates even from a clean entry reports
            // inside the callee; the call site only reports violations
            // the caller's entry state *causes*.
            if let Some(sum) = self.table.resolve_call(self.file, name, *foreign) {
                viol &= !sum.viol[Ob::Clean as usize];
            }
        }
        if viol {
            if let Some(sink) = sink {
                sink.push(Diag {
                    line,
                    msg: match ev {
                        Ev::Publish { kind, .. } => format!(
                            "publication edge ({}) reachable with {} PM stores on some path",
                            kind.label(),
                            fact.label()
                        ),
                        Ev::Call { name, .. } => format!(
                            "call to `{name}` publishes while entered with {} PM stores",
                            fact.label()
                        ),
                        _ => unreachable!("only publishes and calls violate"),
                    },
                });
            }
        }
        next
    }
}

/// Compute the summary table for a set of files, `cfgs[i][j]` being the
/// CFG of `files[i].funcs[j]`.
pub fn compute(files: &[SrcFile], cfgs: &[Vec<Cfg>]) -> SummaryTable {
    let mut table = SummaryTable {
        fns: BTreeMap::new(),
        by_name: BTreeMap::new(),
    };
    for fc in files {
        for f in &fc.funcs {
            table
                .fns
                .insert((fc.path.clone(), f.name.clone()), FnSummary::default());
            let entry = table.by_name.entry(f.name.clone()).or_default();
            if !entry.contains(&fc.path) {
                entry.push(fc.path.clone());
            }
        }
    }
    // Kleene iteration to a global fixpoint. Each round re-simulates
    // every function against the current table; effects only grow, and
    // each summary field lives in a lattice of height ≤ 3, so the
    // number of rounds is bounded (cap guards against a logic bug).
    for _round in 0..64 {
        let mut changed = false;
        for (fc, cfgs) in files.iter().zip(cfgs) {
            for (f, cfg) in fc.funcs.iter().zip(cfgs) {
                let sum = simulate(&table, &fc.path, cfg);
                let key = (fc.path.clone(), f.name.clone());
                let prev = table.fns.get(&key).expect("registered above");
                if *prev != sum {
                    table.fns.insert(key, sum);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    table
}

fn simulate(table: &SummaryTable, file: &str, cfg: &Cfg) -> FnSummary {
    let mut sum = FnSummary::default();
    for entry in Ob::ALL {
        let sim = ObSim { table, file, entry };
        let facts = solve(cfg, &sim);
        sum.apply[entry as usize] = match &facts[cfg.exit] {
            Some(o) => ObOrBottom::At(*o),
            None => ObOrBottom::Unreached,
        };
        // Violation scan: any reachable node whose event publishes (or
        // calls a publisher) in a non-clean in-state.
        let mut viol = false;
        for (i, node) in cfg.nodes.iter().enumerate() {
            if let Some(f) = &facts[i] {
                let (_, v) = ob_step(table, file, &node.ev, *f);
                viol |= v;
            }
        }
        sum.viol[entry as usize] = viol;
    }
    // Event reachability (transitive through resolvable callees).
    let fresh = alloc_tainted(cfg);
    for node in &cfg.nodes {
        match &node.ev {
            Ev::Store { tgt, .. } => {
                sum.writes_pm = true;
                // A store whose address base is a fresh local allocation
                // is thread-private until published; anything else may
                // hit shared PM.
                if tgt.is_empty() || tgt.iter().any(|t| !fresh.contains(t)) {
                    sum.writes_shared = true;
                }
            }
            Ev::Load { .. } => sum.reads_pm = true,
            Ev::Flush { .. } => sum.flushes = true,
            Ev::Fence => sum.fences = true,
            Ev::Publish { .. } => sum.may_publish = true,
            Ev::Call { name, foreign } => {
                if let Some(callee) = table.resolve_call(file, name, *foreign) {
                    sum.writes_pm |= callee.writes_pm;
                    sum.flushes |= callee.flushes;
                    sum.fences |= callee.fences;
                    sum.may_publish |= callee.may_publish;
                    sum.reads_pm |= callee.reads_pm;
                    sum.writes_shared |= callee.writes_shared;
                }
            }
            _ => {}
        }
    }
    sum
}

/// Variables bound (directly or transitively) to a fresh allocation in
/// this function: `let node = alloc.alloc_region(…); let p = node.addr;`
/// taints both `node` and `p`. Stores through tainted bases are
/// thread-private until the fresh memory is published.
/// Host-atomic claim operations: `let off = head.fetch_add(n, …)` hands
/// the caller exclusive ownership of `[off, off+n)` until it is
/// published, so stores through claim-derived addresses are not shared.
const CLAIM_FNS: &[&str] = &["fetch_add", "fetch_update", "compare_exchange", "compare_exchange_weak"];

pub fn alloc_tainted(cfg: &Cfg) -> std::collections::BTreeSet<String> {
    let mut tainted = std::collections::BTreeSet::new();
    loop {
        let mut changed = false;
        for node in &cfg.nodes {
            if let Ev::Bind {
                var,
                alloc,
                init_calls,
                init_idents,
            } = &node.ev
            {
                // A bind is thread-private when it names a fresh local
                // allocation, space claimed by an atomic counter bump /
                // compare-exchange (exclusively owned until published),
                // or an address derived from either.
                let claimed = init_calls.iter().any(|c| CLAIM_FNS.contains(&c.as_str()));
                let hit = *alloc || claimed || init_idents.iter().any(|i| tainted.contains(i));
                if hit && tainted.insert(var.clone()) {
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    tainted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::Tree;

    fn table_for(src: &str) -> Tree {
        Tree::from_files([("a.rs", src)])
    }

    #[test]
    fn helper_effects_compose() {
        let tree = table_for(
            "fn store_it(ctx: &mut MemCtx) { ctx.write_u64(a, v); }\n\
             fn sync_it(ctx: &mut MemCtx) { ctx.flush(a); ctx.fence(); }\n\
             fn good(ctx: &mut MemCtx) { store_it(ctx); sync_it(ctx); ctx.cas_u64(d, x, y); }\n\
             fn bad(ctx: &mut MemCtx) { store_it(ctx); ctx.cas_u64(d, x, y); }",
        );
        let table = &tree.lowered().table;
        let store = table.resolve("a.rs", "store_it").unwrap();
        assert!(store.writes_pm);
        assert_eq!(store.apply[Ob::Clean as usize], ObOrBottom::At(Ob::Dirty));
        let sync = table.resolve("a.rs", "sync_it").unwrap();
        assert!(sync.flushes && sync.fences);
        assert_eq!(sync.apply[Ob::Dirty as usize], ObOrBottom::At(Ob::Clean));
        let good = table.resolve("a.rs", "good").unwrap();
        assert!(!good.viol[Ob::Clean as usize], "{good:?}");
        let bad = table.resolve("a.rs", "bad").unwrap();
        assert!(bad.viol[Ob::Clean as usize], "{bad:?}");
    }

    #[test]
    fn recursion_terminates_and_is_sound() {
        let tree = table_for(
            "fn rec(ctx: &mut MemCtx, n: u64) { if n > 0 { ctx.write_u64(a, n); rec(ctx, n - 1); } }",
        );
        let table = &tree.lowered().table;
        let rec = table.resolve("a.rs", "rec").unwrap();
        assert!(rec.writes_pm);
        assert_eq!(rec.apply[Ob::Clean as usize], ObOrBottom::At(Ob::Dirty));
    }

    #[test]
    fn ambiguous_names_resolve_to_none() {
        let tree = Tree::from_files([
            ("a.rs", "fn insert() { ctx.write_u64(a, v); }"),
            ("b.rs", "fn insert() { ctx.fence(); }"),
        ]);
        let table = &tree.lowered().table;
        assert!(table.resolve("c.rs", "insert").is_none());
        assert!(table.resolve("a.rs", "insert").unwrap().writes_pm);
    }

    #[test]
    fn ntstore_needs_fence_not_flush() {
        let tree = table_for(
            "fn nt_ok(ctx: &mut MemCtx) { ctx.ntstore_bytes(a, len); ctx.fence(); ctx.cas_u64(d, x, y); }\n\
             fn nt_bad(ctx: &mut MemCtx) { ctx.ntstore_bytes(a, len); ctx.cas_u64(d, x, y); }",
        );
        let table = &tree.lowered().table;
        assert!(!table.resolve("a.rs", "nt_ok").unwrap().viol[0]);
        assert!(table.resolve("a.rs", "nt_bad").unwrap().viol[0]);
    }
}
