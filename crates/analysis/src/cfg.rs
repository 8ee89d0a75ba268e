//! Intraprocedural control-flow graphs over persistence events.
//!
//! Each parsed function lowers to a graph whose nodes carry one [`Ev`]
//! each. Only the events the flow rules care about survive; everything
//! else becomes [`Ev::Call`] (resolved against interprocedural
//! summaries) or [`Ev::Nop`].
//!
//! The event mapping mirrors the dynamic sanitizer's model
//! (`spash_pmem::san`): stores are the `MemCtx` write methods,
//! publication edges are exactly the dynamic `SyncEvent`s that trigger
//! an `on_edge` check — atomic RMWs (`cas_u64` / `fetch_or_u64` /
//! `fetch_and_u64`), lock releases (the ends of `VLock`/`VRwLock`
//! closure regions and explicit `nontx_unlock`), and HTM commits (the
//! end of an `htm.try_transaction` closure). Plain `read_u64`/Acquire
//! loads are *not* edges, matching `san::on_edge`.
//!
//! Region closures lower with a dedicated exit node so `?`/`return`
//! inside the closure still reaches the region's publication edge —
//! which is exactly what happens dynamically: the closure unwinds, the
//! region wrapper releases the lock / commits or aborts the transaction.

use crate::parse::{Block, Call, Func, Stmt};

/// Publication-edge kinds, matching `san::SyncEvent`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PubKind {
    /// `cas_u64` / `fetch_or_u64` / `fetch_and_u64`.
    Rmw,
    /// End of a lock closure region or explicit `nontx_unlock`.
    LockRelease,
    /// End of an `htm.try_transaction` closure (commit).
    HtmCommit,
}

impl PubKind {
    pub fn label(self) -> &'static str {
        match self {
            PubKind::Rmw => "atomic RMW",
            PubKind::LockRelease => "lock release",
            PubKind::HtmCommit => "HTM commit",
        }
    }
}

/// One persistence-relevant event.
#[derive(Clone, Debug)]
pub enum Ev {
    /// A PM store. `tgt` is the base identifier(s) of the address
    /// expression (for the publish-before-init taint rule); `via` the
    /// helper calls inside the address expression (`seg.slot_addr(b, s)`
    /// → `slot_addr`), which the concurrency analyzer uses to label the
    /// word being written; `nt` marks non-temporal stores, which bypass
    /// the cache but still need a fence before publication.
    Store {
        nt: bool,
        tgt: Vec<String>,
        via: Vec<String>,
    },
    /// A PM load (`read_u64` / `read_line` / `read_bytes`). Not a publication edge —
    /// it exists for the concurrency rules (guarded reads, inventory).
    Load { tgt: Vec<String>, via: Vec<String> },
    Flush { tgt: Vec<String> },
    Fence,
    /// A publication edge. `val` is the base identifier(s) of the value
    /// being published (empty for lock release / HTM commit); for RMWs
    /// `tgt`/`via` describe the word operated on, like [`Ev::Store`].
    Publish {
        kind: PubKind,
        val: Vec<String>,
        tgt: Vec<String>,
        via: Vec<String>,
    },
    HtmBegin,
    /// Entry into a lock region (`VLock::with`, `VRwLock::read`/`write`,
    /// `nontx_lock`). `id` is the node's own index, so a matching
    /// [`Ev::RegionExit`] — or a lockset fact — can name this exact
    /// region instance. `writer` is false for read-side regions;
    /// `sharded` marks an indexed receiver (`self.shards[i].with(…)`),
    /// i.e. a per-shard lock rather than one global lock.
    RegionEnter {
        id: usize,
        lock: String,
        writer: bool,
        sharded: bool,
    },
    /// Exit of a lock region. `enter` is the matching [`Ev::RegionEnter`]
    /// node for closure regions; `None` for explicit `nontx_unlock`,
    /// which releases whatever `lock`-named region is held.
    RegionExit { enter: Option<usize>, lock: String },
    /// Identifiers consulted by a branch condition (`if cond_idents { … }`);
    /// the atomicity rule uses these to tie guarded reads to the
    /// decisions they justify.
    CondUse { idents: Vec<String> },
    /// A call resolved via interprocedural summaries. `foreign` marks a
    /// receiver other than `self`/`Self`/bare (`Arc::new`, `map.insert`,
    /// `alloc.alloc_region`): the target is a method of *that* value or
    /// type, so same-file-first resolution must not apply — a `fn new`
    /// or `fn insert` in the calling file is a name collision, not the
    /// callee. Only a globally unique name may resolve.
    Call { name: String, foreign: bool },
    /// `let var = init;` — `alloc` is true when the initializer calls
    /// an allocator (fresh PM whose contents start unfenced);
    /// `init_calls`/`init_idents` carry the initializer's calls and
    /// identifiers for guard/alloc taint propagation.
    Bind {
        var: String,
        alloc: bool,
        init_calls: Vec<String>,
        init_idents: Vec<String>,
    },
    Nop,
}

/// The region-forming functions the CFG lowering recognizes, with the
/// synchronization role each plays. `spash-lint conc` cross-checks this
/// table against `// conc: region(<kind>) fn=<name>` annotations at the
/// definitions in `crates/pmem` / `crates/htm` (rule `conc-sync-model`),
/// so the static model cannot silently drift from the primitives.
pub const REGION_FNS: &[(&str, &str)] = &[
    ("with", "lock"),
    ("write", "lock"),
    ("read", "read-lock"),
    ("lock", "lock"),
    ("try_transaction", "htm"),
    ("run_step5", "htm"),
    ("nontx_lock", "acquire"),
    ("nontx_unlock", "release"),
];

#[derive(Clone, Debug)]
pub struct Node {
    pub ev: Ev,
    pub line: usize,
}

/// A function CFG. `entry` and `exit` are `Nop` nodes; edges are in
/// `succs`. Nodes unreachable from `entry` (code after `return`) keep
/// their slots but never receive dataflow facts. `in_cond[n]` is true
/// when node `n` was lowered from a branch/loop condition expression
/// (the "check" position of a check-then-act pattern).
pub struct Cfg {
    pub nodes: Vec<Node>,
    pub succs: Vec<Vec<usize>>,
    pub entry: usize,
    pub exit: usize,
    pub in_cond: Vec<bool>,
}

impl Cfg {
    pub fn preds(&self) -> Vec<Vec<usize>> {
        let mut p = vec![Vec::new(); self.nodes.len()];
        for (n, ss) in self.succs.iter().enumerate() {
            for &s in ss {
                p[s].push(n);
            }
        }
        p
    }
}

/// Identifiers that never name a PM address or published value.
const NON_ADDR_IDENTS: &[&str] = &["ctx", "self", "tx"];

fn addr_base(args: &[Vec<String>], skip_last: bool) -> Vec<String> {
    // First non-context identifier of each relevant argument: the base
    // of the address expression (`seg.slot_addr(b, s)` → `seg`).
    let n = args.len().saturating_sub(skip_last as usize);
    let mut out = Vec::new();
    for a in &args[..n] {
        if let Some(id) = a.iter().find(|i| !NON_ADDR_IDENTS.contains(&i.as_str())) {
            out.push(id.clone());
        }
    }
    out
}

fn val_base(args: &[Vec<String>]) -> Vec<String> {
    args.last()
        .and_then(|a| a.iter().find(|i| !NON_ADDR_IDENTS.contains(&i.as_str())))
        .map(|s| vec![s.clone()])
        .unwrap_or_default()
}

/// Helper-call names inside the address argument(s) of an access —
/// the concurrency analyzer's word labels (`seg.slot_addr(b, s)` →
/// `slot_addr`).
fn via_calls(arg_calls: &[Vec<String>], skip_last: bool) -> Vec<String> {
    let n = arg_calls.len().saturating_sub(skip_last as usize);
    arg_calls[..n].iter().flatten().cloned().collect()
}

struct Lower {
    nodes: Vec<Node>,
    succs: Vec<Vec<usize>>,
    in_cond: Vec<bool>,
    fn_exit: usize,
    /// (continue target, break target) per enclosing loop.
    loop_stack: Vec<(usize, usize)>,
    /// Exit node of the innermost enclosing closure (region end or
    /// plain-closure merge); `return`/`?` route here when present.
    closure_exit: Vec<usize>,
    /// Nonzero while lowering a branch/loop condition expression.
    cond_depth: usize,
    /// Guard-style RAII regions (`let g = x.read();`) still open in the
    /// current scope: (RegionEnter node id, lock name). Every `{ … }`
    /// scope ([`Self::lower_scope`]) drops the guards acquired inside it
    /// at its end.
    guards: Vec<(usize, String)>,
}

impl Lower {
    fn node(&mut self, ev: Ev, line: usize) -> usize {
        self.nodes.push(Node { ev, line });
        self.succs.push(Vec::new());
        self.in_cond.push(self.cond_depth > 0);
        self.nodes.len() - 1
    }

    /// A `RegionEnter` node whose `id` is its own index.
    fn region_enter(&mut self, lock: String, writer: bool, sharded: bool, line: usize) -> usize {
        let n = self.node(
            Ev::RegionEnter {
                id: 0,
                lock,
                writer,
                sharded,
            },
            line,
        );
        if let Ev::RegionEnter { id, .. } = &mut self.nodes[n].ev {
            *id = n;
        }
        n
    }

    fn edge(&mut self, a: usize, b: usize) {
        if !self.succs[a].contains(&b) {
            self.succs[a].push(b);
        }
    }

    fn early_exit_target(&self) -> usize {
        *self.closure_exit.last().unwrap_or(&self.fn_exit)
    }

    fn lower_block(&mut self, b: &Block, mut cur: usize) -> usize {
        for s in &b.0 {
            cur = self.lower_stmt(s, cur);
        }
        cur
    }

    /// Lower a `{ … }` scope — a bare block, an `if`/`match` arm, a
    /// loop body or a closure body. Guard-style regions acquired inside
    /// it drop at its end (RAII): their release edges are chained after
    /// the scope's last node, innermost first, so the lockset does not
    /// leak into the code after the scope.
    fn lower_scope(&mut self, b: &Block, cur: usize) -> usize {
        let guard_mark = self.guards.len();
        let mut end = self.lower_block(b, cur);
        while self.guards.len() > guard_mark {
            let (enter, lock) = self.guards.pop().unwrap();
            let line = self.nodes[end].line;
            let x = self.node(
                Ev::RegionExit {
                    enter: Some(enter),
                    lock,
                },
                line,
            );
            self.edge(end, x);
            end = x;
        }
        end
    }

    /// Lower a closure body with its own loop scope and exit node.
    fn lower_closure(&mut self, b: &Block, entry: usize, exit: usize) {
        let saved_loops = std::mem::take(&mut self.loop_stack);
        self.closure_exit.push(exit);
        let end = self.lower_scope(b, entry);
        self.edge(end, exit);
        self.closure_exit.pop();
        self.loop_stack = saved_loops;
    }

    fn lower_stmt(&mut self, s: &Stmt, cur: usize) -> usize {
        match s {
            Stmt::Call(c) => self.lower_call(c, cur),
            Stmt::Bind {
                name,
                line,
                init_calls,
                init_idents,
            } => {
                let alloc = init_calls
                    .iter()
                    .any(|n| n.contains("alloc") && !n.contains("dealloc"));
                let n = self.node(
                    Ev::Bind {
                        var: name.clone(),
                        alloc,
                        init_calls: init_calls.clone(),
                        init_idents: init_idents.clone(),
                    },
                    *line,
                );
                self.edge(cur, n);
                n
            }
            Stmt::If {
                cond,
                then,
                els,
                cond_idents,
            } => {
                let mut split = cur;
                self.cond_depth += 1;
                for c in cond {
                    split = self.lower_stmt(c, split);
                }
                if !cond_idents.is_empty() {
                    let line = self.nodes[split].line;
                    let n = self.node(
                        Ev::CondUse {
                            idents: cond_idents.clone(),
                        },
                        line,
                    );
                    self.edge(split, n);
                    split = n;
                }
                self.cond_depth -= 1;
                let line = self.nodes[split].line;
                let merge = self.node(Ev::Nop, line);
                let t_end = self.lower_scope(then, split);
                self.edge(t_end, merge);
                match els {
                    Some(e) => {
                        let e_end = self.lower_scope(e, split);
                        self.edge(e_end, merge);
                    }
                    None => self.edge(split, merge),
                }
                merge
            }
            Stmt::Match { cond, arms } => {
                let mut split = cur;
                self.cond_depth += 1;
                for c in cond {
                    split = self.lower_stmt(c, split);
                }
                self.cond_depth -= 1;
                let line = self.nodes[split].line;
                let merge = self.node(Ev::Nop, line);
                if arms.is_empty() {
                    self.edge(split, merge);
                } else {
                    for a in arms {
                        let a_end = self.lower_scope(a, split);
                        self.edge(a_end, merge);
                    }
                }
                merge
            }
            Stmt::Loop {
                cond,
                body,
                exits_by_cond,
            } => {
                let line = self.nodes[cur].line;
                let head = self.node(Ev::Nop, line);
                self.edge(cur, head);
                let mut c_end = head;
                self.cond_depth += 1;
                for c in cond {
                    c_end = self.lower_stmt(c, c_end);
                }
                self.cond_depth -= 1;
                let exit = self.node(Ev::Nop, line);
                // `while`/`for` may exit after evaluating the condition
                // without running the body; a bare `loop` exits only
                // through `break` edges.
                if *exits_by_cond {
                    self.edge(c_end, exit);
                }
                self.loop_stack.push((head, exit));
                let b_end = self.lower_scope(body, c_end);
                self.edge(b_end, head);
                self.loop_stack.pop();
                exit
            }
            Stmt::Block(b) => self.lower_scope(b, cur),
            Stmt::MaybeBlock(b) => {
                // A detached closure: may run zero or more times.
                let line = self.nodes[cur].line;
                let merge = self.node(Ev::Nop, line);
                self.edge(cur, merge);
                let entry = self.node(Ev::Nop, line);
                self.edge(cur, entry);
                self.lower_closure(b, entry, merge);
                merge
            }
            Stmt::Return { line } => {
                let t = self.early_exit_target();
                self.edge(cur, t);
                // Dead continuation node: no predecessors.
                self.node(Ev::Nop, *line)
            }
            Stmt::Question { line } => {
                let q = self.node(Ev::Nop, *line);
                self.edge(cur, q);
                let t = self.early_exit_target();
                self.edge(q, t);
                q
            }
            Stmt::Break { line } => {
                let t = self
                    .loop_stack
                    .last()
                    .map(|&(_, brk)| brk)
                    .unwrap_or_else(|| self.early_exit_target());
                self.edge(cur, t);
                self.node(Ev::Nop, *line)
            }
            Stmt::Continue { line } => {
                let t = self
                    .loop_stack
                    .last()
                    .map(|&(head, _)| head)
                    .unwrap_or_else(|| self.early_exit_target());
                self.edge(cur, t);
                self.node(Ev::Nop, *line)
            }
        }
    }

    fn lower_call(&mut self, c: &Call, cur: usize) -> usize {
        let line = c.line;
        let ev = match c.name.as_str() {
            "write_u64" | "write_bytes" => Some(Ev::Store {
                nt: false,
                tgt: addr_base(&c.args, true),
                via: via_calls(&c.arg_calls, true),
            }),
            "ntstore_bytes" => Some(Ev::Store {
                nt: true,
                tgt: addr_base(&c.args, true),
                via: via_calls(&c.arg_calls, true),
            }),
            "read_u64" | "read_line" => Some(Ev::Load {
                tgt: addr_base(&c.args, false),
                via: via_calls(&c.arg_calls, false),
            }),
            "read_bytes" => Some(Ev::Load {
                tgt: addr_base(&c.args, true),
                via: via_calls(&c.arg_calls, true),
            }),
            "flush" | "flush_range" => Some(Ev::Flush {
                tgt: addr_base(&c.args, false),
            }),
            "fence" => Some(Ev::Fence),
            "cas_u64" | "fetch_or_u64" | "fetch_and_u64" => Some(Ev::Publish {
                kind: PubKind::Rmw,
                val: val_base(&c.args),
                tgt: addr_base(&c.args[..c.args.len().min(1)], false),
                via: c.arg_calls.first().cloned().unwrap_or_default(),
            }),
            // Sanitizer bookkeeping, not memory traffic.
            "san_forgive" | "san_transient" | "san_tag" | "san_op_label" => {
                Some(Ev::Nop)
            }
            _ => None,
        };
        if let Some(ev) = ev {
            let n = self.node(ev, line);
            self.edge(cur, n);
            return n;
        }
        // Explicit lock/unlock pairs. `nontx_lock` keeps its call node
        // (its summary effect still applies); `nontx_unlock` keeps its
        // publication edge, preceded by the region exit so the lockset
        // analysis sees the release.
        if c.name == "nontx_lock" {
            let begin = self.region_enter("nontx".into(), true, false, line);
            self.edge(cur, begin);
            let n = self.node(
                Ev::Call {
                    name: c.name.clone(),
                    foreign: foreign_recv(&c.recv),
                },
                line,
            );
            self.edge(begin, n);
            return n;
        }
        if c.name == "nontx_unlock" {
            let rel = self.node(
                Ev::RegionExit {
                    enter: None,
                    lock: "nontx".into(),
                },
                line,
            );
            self.edge(cur, rel);
            let pb = self.node(
                Ev::Publish {
                    kind: PubKind::LockRelease,
                    val: vec![],
                    tgt: vec![],
                    via: vec![],
                },
                line,
            );
            self.edge(rel, pb);
            return pb;
        }
        // Guard-style RAII acquisition (`let t = self.table.read();`,
        // `let mut d = self.dir.write();`, `let _g = self.mark_lock.lock();`):
        // a host RwLock or Mutex guard held to the end of the enclosing
        // scope. Lowered as a region whose exit the scope emits — the
        // end of the innermost block, arm, loop body or closure, or the
        // end of the function when acquired at top level — matching RAII
        // drop-at-scope-end to the granularity the CFG models. A guard
        // taken in an expression statement without a `let`
        // (`self.m.lock().push(x);`) is a temporary: the parser scopes
        // that statement, so the guard drops at its end. Only `read` is
        // a reader.
        if c.is_guard() {
            let lock = c
                .recv
                .rsplit('.')
                .next()
                .filter(|s| !s.is_empty())
                .unwrap_or("lock")
                .to_string();
            let begin = self.region_enter(lock.clone(), c.name != "read", c.recv_indexed, line);
            self.guards.push((begin, lock));
            self.edge(cur, begin);
            return begin;
        }
        // Region calls: the closure body runs between an entry event
        // and the region's publication edge.
        if !c.closures.is_empty() {
            match c.name.as_str() {
                "try_transaction" => {
                    let begin = self.node(Ev::HtmBegin, line);
                    self.edge(cur, begin);
                    let end = self.node(
                        Ev::Publish {
                            kind: PubKind::HtmCommit,
                            val: vec![],
                            tgt: vec![],
                            via: vec![],
                        },
                        line,
                    );
                    for cl in &c.closures {
                        self.lower_closure(cl, begin, end);
                    }
                    return end;
                }
                "run_step5" => {
                    // The Spash step-5 region runner (core/ops.rs): its
                    // closures run inside the runner's HTM transaction,
                    // under the nontx locks of its fallback, or under
                    // the per-segment lock / seqlock window of the lock-
                    // mode ablations — every writing body writer-
                    // protected. Modeled as one writer region named
                    // "htm"; flow-neutral like `with` (the real
                    // HtmBegin/commit and lock regions are lowered from
                    // the runner's own body, which is analyzed
                    // separately).
                    let begin = self.region_enter("htm".into(), true, false, line);
                    self.edge(cur, begin);
                    let end = self.node(
                        Ev::RegionExit {
                            enter: Some(begin),
                            lock: "htm".into(),
                        },
                        line,
                    );
                    for cl in &c.closures {
                        self.lower_closure(cl, begin, end);
                    }
                    return end;
                }
                "read" | "write" | "with" => {
                    // VLock / VRwLock / sharded-lock closure regions.
                    // The lock name is the last receiver segment
                    // (`seg.bucket_locks[i].with(…)` → `bucket_locks`).
                    let lock = c
                        .recv
                        .rsplit('.')
                        .next()
                        .filter(|s| !s.is_empty())
                        .unwrap_or("lock")
                        .to_string();
                    let writer = c.name != "read";
                    let begin = self.region_enter(lock.clone(), writer, c.recv_indexed, line);
                    self.edge(cur, begin);
                    let end = self.node(
                        Ev::RegionExit {
                            enter: Some(begin),
                            lock,
                        },
                        line,
                    );
                    for cl in &c.closures {
                        self.lower_closure(cl, begin, end);
                    }
                    // `VLock::with` returns the closure's value without a
                    // publication edge of its own in the dynamic model's
                    // eADR paths; the flow rules never treated it as one,
                    // so only `read`/`write` keep their release edge.
                    if c.name == "with" {
                        return end;
                    }
                    let pb = self.node(
                        Ev::Publish {
                            kind: PubKind::LockRelease,
                            val: vec![],
                            tgt: vec![],
                            via: vec![],
                        },
                        line,
                    );
                    self.edge(end, pb);
                    return pb;
                }
                _ => {
                    // Unknown higher-order call (`stats_span`, iterator
                    // adapters…): closure may run; no region semantics.
                    let merge = self.node(Ev::Nop, line);
                    self.edge(cur, merge);
                    for cl in &c.closures {
                        let entry = self.node(Ev::Nop, line);
                        self.edge(cur, entry);
                        self.lower_closure(cl, entry, merge);
                    }
                    let n = self.node(
                        Ev::Call {
                            name: c.name.clone(),
                            foreign: foreign_recv(&c.recv),
                        },
                        line,
                    );
                    self.edge(merge, n);
                    return n;
                }
            }
        }
        let n = self.node(
            Ev::Call {
                name: c.name.clone(),
                foreign: foreign_recv(&c.recv),
            },
            line,
        );
        self.edge(cur, n);
        n
    }
}

/// Does the receiver point outside the current file's own fn namespace?
/// Bare calls and `self.helper`/`Self::helper` target functions the
/// same-file resolution rule may claim; anything else (`Arc::new`,
/// `map.insert`, `alloc.alloc_region`, `common::make_val`) targets some
/// other type's method and must resolve by global uniqueness only.
fn foreign_recv(recv: &str) -> bool {
    !(recv.is_empty() || recv == "self" || recv == "Self")
}

/// Build the CFG for one parsed function.
pub fn build_cfg(f: &Func) -> Cfg {
    let mut l = Lower {
        nodes: Vec::new(),
        succs: Vec::new(),
        in_cond: Vec::new(),
        fn_exit: 0,
        loop_stack: Vec::new(),
        closure_exit: Vec::new(),
        cond_depth: 0,
        guards: Vec::new(),
    };
    let entry = l.node(Ev::Nop, f.line);
    let exit = l.node(Ev::Nop, f.end_line);
    l.fn_exit = exit;
    let end = l.lower_block(&f.body, entry);
    l.edge(end, exit);
    Cfg {
        nodes: l.nodes,
        succs: l.succs,
        entry,
        exit,
        in_cond: l.in_cond,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::strip_non_code;
    use crate::parse::parse_functions;

    fn cfg_of(src: &str) -> Cfg {
        let fs = parse_functions(&strip_non_code(src));
        assert_eq!(fs.len(), 1, "expected one fn in {src}");
        build_cfg(&fs[0])
    }

    fn count(cfg: &Cfg, pred: impl Fn(&Ev) -> bool) -> usize {
        cfg.nodes.iter().filter(|n| pred(&n.ev)).count()
    }

    #[test]
    fn straight_line_events() {
        let cfg = cfg_of("fn f() { ctx.write_u64(a, v); ctx.flush(a); ctx.fence(); }");
        assert_eq!(count(&cfg, |e| matches!(e, Ev::Store { .. })), 1);
        assert_eq!(count(&cfg, |e| matches!(e, Ev::Flush { .. })), 1);
        assert_eq!(count(&cfg, |e| matches!(e, Ev::Fence)), 1);
    }

    #[test]
    fn branch_has_two_paths_to_merge() {
        let cfg = cfg_of("fn f() { if c { ctx.flush(a); } ctx.fence(); }");
        // The fence node must have the merge as its only pred path, and
        // the merge two preds (then-branch end, condition skip).
        let preds = cfg.preds();
        let fence = cfg
            .nodes
            .iter()
            .position(|n| matches!(n.ev, Ev::Fence))
            .unwrap();
        let merge = preds[fence][0];
        assert_eq!(preds[merge].len(), 2);
    }

    #[test]
    fn htm_region_brackets_body() {
        let cfg = cfg_of(
            "fn f() { self.htm.try_transaction(ctx, |tx, ctx| { tx.write_u64(ctx, a, v)?; Ok(()) }); }",
        );
        assert_eq!(count(&cfg, |e| matches!(e, Ev::HtmBegin)), 1);
        assert_eq!(
            count(
                &cfg,
                |e| matches!(e, Ev::Publish { kind: PubKind::HtmCommit, .. })
            ),
            1
        );
        // `?` inside the closure must reach the commit node, not fn exit.
        let commit = cfg
            .nodes
            .iter()
            .position(|n| matches!(n.ev, Ev::Publish { kind: PubKind::HtmCommit, .. }))
            .unwrap();
        let preds = cfg.preds();
        assert!(preds[commit].len() >= 2, "early exit + fallthrough");
    }

    #[test]
    fn lock_region_publishes_at_end() {
        let cfg = cfg_of("fn f() { seg.rw.write(ctx, |ctx| { ctx.write_u64(a, v); }); }");
        assert_eq!(
            count(
                &cfg,
                |e| matches!(e, Ev::Publish { kind: PubKind::LockRelease, .. })
            ),
            1
        );
    }

    /// Is `to` reachable from `from` along CFG edges?
    fn reaches(cfg: &Cfg, from: usize, to: usize) -> bool {
        let (mut seen, mut work) = (vec![false; cfg.nodes.len()], vec![from]);
        while let Some(n) = work.pop() {
            if n == to {
                return true;
            }
            if !std::mem::replace(&mut seen[n], true) {
                work.extend(&cfg.succs[n]);
            }
        }
        false
    }

    /// The `mark_lock` guard region of `cfg`: its enter and exit nodes.
    fn mark_lock_region(cfg: &Cfg) -> (usize, usize) {
        let at = |pred: &dyn Fn(&Ev) -> bool| cfg.nodes.iter().position(|n| pred(&n.ev)).unwrap();
        let enter = at(&|e| {
            matches!(e, Ev::RegionEnter { lock, writer: true, .. } if lock == "mark_lock")
        });
        let exit = at(&|e| matches!(e, Ev::RegionExit { enter: Some(x), .. } if *x == enter));
        (enter, exit)
    }

    /// A guard-style `Mutex::lock` opens a writer region that the store
    /// after it runs under and that closes where its closure ends.
    #[test]
    fn mutex_guard_brackets_store() {
        let cfg = cfg_of(
            "fn f() { run(|| { let _g = self.mark_lock.lock(); ctx.write_u64(a, v); }); ctx.fence(); }",
        );
        let (enter, exit) = mark_lock_region(&cfg);
        let store = cfg.nodes.iter().position(|n| matches!(n.ev, Ev::Store { .. })).unwrap();
        let fence = cfg.nodes.iter().position(|n| matches!(n.ev, Ev::Fence)).unwrap();
        assert!(reaches(&cfg, enter, store) && reaches(&cfg, store, exit));
        assert!(reaches(&cfg, exit, fence));
        assert!(!reaches(&cfg, fence, exit), "the guard is released before the closure returns");
    }

    /// A guard dropped at the end of a bare block, an `if` arm, a
    /// `match` arm or a loop body is released there: the store after the
    /// scope runs outside the region, not under it until the function
    /// ends.
    #[test]
    fn guard_released_at_block_end() {
        for src in [
            "fn f() { { let _g = self.mark_lock.lock(); ctx.write_u64(a, v); } ctx.write_u64(b, w); }",
            "fn f() { if c { let _g = self.mark_lock.lock(); ctx.write_u64(a, v); } ctx.write_u64(b, w); }",
            "fn f() { match c { _ => { let _g = self.mark_lock.lock(); ctx.write_u64(a, v); } } ctx.write_u64(b, w); }",
            "fn f() { for i in 0..n { let _g = self.mark_lock.lock(); ctx.write_u64(a, v); } ctx.write_u64(b, w); }",
            "fn f() { let x = { let _g = self.mark_lock.lock(); ctx.write_u64(a, v); 1 }; ctx.write_u64(b, w); }",
        ] {
            let cfg = cfg_of(src);
            let (enter, exit) = mark_lock_region(&cfg);
            let stores: Vec<usize> = (0..cfg.nodes.len())
                .filter(|&n| matches!(cfg.nodes[n].ev, Ev::Store { .. }))
                .collect();
            let [inner, after] = stores[..] else {
                panic!("two stores in {src}")
            };
            assert!(reaches(&cfg, enter, inner) && reaches(&cfg, inner, exit), "{src}");
            assert!(reaches(&cfg, exit, after), "{src}");
            assert!(!reaches(&cfg, after, exit), "{src}: the guard outlives its block");
        }
    }

    /// A guard taken without a `let` is a temporary: it is released at
    /// the end of its statement, so the store after the statement runs
    /// outside the region, not under it until the function ends.
    #[test]
    fn temporary_guard_released_at_statement_end() {
        for src in [
            "fn f() { self.mark_lock.lock().push(x); ctx.write_u64(a, v); ctx.write_u64(b, w); }",
            "fn f() { match self.mark_lock.lock().get(k) { _ => ctx.write_u64(a, v) }; \
             ctx.write_u64(b, w); }",
            "fn f() { if c { self.mark_lock.lock().free.push(x); } \
             ctx.write_u64(a, v); ctx.write_u64(b, w); }",
        ] {
            let cfg = cfg_of(src);
            let (enter, exit) = mark_lock_region(&cfg);
            let stores: Vec<usize> = (0..cfg.nodes.len())
                .filter(|&n| matches!(cfg.nodes[n].ev, Ev::Store { .. }))
                .collect();
            let [first, after] = stores[..] else {
                panic!("two stores in {src}")
            };
            assert!(reaches(&cfg, enter, exit) && reaches(&cfg, exit, after), "{src}");
            assert!(!reaches(&cfg, after, exit), "{src}: the temporary outlives its statement");
            // A store in the statement's own `match` arm is under the guard.
            if src.contains("match") {
                assert!(reaches(&cfg, enter, first) && reaches(&cfg, first, exit), "{src}");
            } else {
                assert!(!reaches(&cfg, first, exit), "{src}");
            }
        }
    }

    /// A guard a `let` initializer takes without binding it is a
    /// temporary too: it is released at the end of the `let`, so the
    /// store after it runs outside the region. A bound guard, with or
    /// without an `unwrap`, is held to the end of its block.
    #[test]
    fn temporary_guard_in_let_initializer_released_at_statement_end() {
        for src in [
            "fn f() { let n = self.mark_lock.lock().len(); ctx.write_u64(a, v); }",
            "fn f() { if c { let n = self.mark_lock.lock().len(); ctx.write_u64(a, v); } }",
            "fn f() { let n = match self.mark_lock.lock().get(k) { _ => 1 }; \
             ctx.write_u64(a, v); }",
        ] {
            let cfg = cfg_of(src);
            let (enter, exit) = mark_lock_region(&cfg);
            let store = cfg.nodes.iter().position(|n| matches!(n.ev, Ev::Store { .. })).unwrap();
            assert!(reaches(&cfg, enter, exit) && reaches(&cfg, exit, store), "{src}");
            assert!(!reaches(&cfg, store, exit), "{src}: the temporary outlives its statement");
        }
        for src in [
            "fn f() { { let g = self.mark_lock.lock(); ctx.write_u64(a, v); } }",
            "fn f() { { let g = self.mark_lock.lock().unwrap(); ctx.write_u64(a, v); } }",
        ] {
            let cfg = cfg_of(src);
            let (enter, exit) = mark_lock_region(&cfg);
            let store = cfg.nodes.iter().position(|n| matches!(n.ev, Ev::Store { .. })).unwrap();
            assert!(reaches(&cfg, enter, store) && reaches(&cfg, store, exit), "{src}");
        }
    }

    #[test]
    fn loop_back_edge_exists() {
        let cfg = cfg_of("fn f() { loop { if done { break; } ctx.fence(); } }");
        // Some node must have a successor with a smaller index (the
        // back edge to the loop head).
        let has_back = cfg
            .succs
            .iter()
            .enumerate()
            .any(|(i, ss)| ss.iter().any(|&s| s < i && s != cfg.exit));
        assert!(has_back);
    }

    #[test]
    fn return_routes_to_fn_exit() {
        let cfg = cfg_of("fn f() { if c { return; } ctx.fence(); }");
        let preds = cfg.preds();
        assert!(preds[cfg.exit].len() >= 2, "{:?}", preds[cfg.exit]);
    }

    #[test]
    fn rmw_is_publish_with_value() {
        let cfg = cfg_of("fn f() { ctx.cas_u64(head, old, node.0); }");
        let publish = cfg
            .nodes
            .iter()
            .find(|n| matches!(n.ev, Ev::Publish { .. }))
            .unwrap();
        let Ev::Publish { kind, val, .. } = &publish.ev else { unreachable!() };
        assert_eq!(*kind, PubKind::Rmw);
        assert_eq!(val, &["node".to_string()]);
    }

    #[test]
    fn store_target_base_identifier() {
        let cfg = cfg_of("fn f() { ctx.write_u64(seg.slot_addr(b, s), v); }");
        let store = cfg
            .nodes
            .iter()
            .find(|n| matches!(n.ev, Ev::Store { .. }))
            .unwrap();
        let Ev::Store { tgt, .. } = &store.ev else { unreachable!() };
        assert_eq!(tgt, &["seg".to_string()]);
    }
}
