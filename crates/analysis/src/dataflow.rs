//! Generic forward dataflow over [`crate::cfg::Cfg`].
//!
//! A classic worklist fixpoint: facts flow from the entry node along
//! successor edges, joining at merges, until nothing changes. Reporting
//! is a *separate* pass after convergence ([`check`]) so diagnostics are
//! emitted exactly once per node against the final (widest) facts — a
//! transfer function that reported during iteration would fire on
//! intermediate facts and duplicate on every worklist revisit.
//!
//! Facts must form a join-semilattice of finite height: `join` must be
//! commutative/associative/idempotent and `transfer` monotone, which
//! every analysis in [`crate::flow_rules`] satisfies (finite obligation
//! enum, finite variable maps, bools) and the `conc` must-locksets of
//! [`crate::conc_rules`] satisfy (intersection over finite sets of
//! node indices). Termination then follows.

use crate::cfg::{Cfg, Ev};

/// A diagnostic produced by an analysis at a node. The flow layer
/// attaches rule name and file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diag {
    pub line: usize,
    pub msg: String,
}

pub trait Analysis {
    type Fact: Clone + PartialEq;

    /// Fact at the function entry node.
    fn entry_fact(&self) -> Self::Fact;

    /// Least upper bound of two facts.
    fn join(&self, a: &Self::Fact, b: &Self::Fact) -> Self::Fact;

    /// Fact after executing node `n` (event `ev`) in state `fact`.
    /// During fixpoint iteration `sink` is `None`; during the reporting
    /// pass it collects diagnostics.
    fn transfer(
        &self,
        n: usize,
        ev: &Ev,
        line: usize,
        fact: &Self::Fact,
        sink: Option<&mut Vec<Diag>>,
    ) -> Self::Fact;
}

/// Solve to fixpoint; returns the IN fact of each node (`None` for
/// nodes unreachable from entry).
pub fn solve<A: Analysis>(cfg: &Cfg, a: &A) -> Vec<Option<A::Fact>> {
    let n = cfg.nodes.len();
    let mut input: Vec<Option<A::Fact>> = vec![None; n];
    input[cfg.entry] = Some(a.entry_fact());
    let mut work: Vec<usize> = vec![cfg.entry];
    let mut queued = vec![false; n];
    queued[cfg.entry] = true;
    while let Some(node) = work.pop() {
        queued[node] = false;
        let in_fact = input[node].clone().expect("queued node has a fact");
        let out = a.transfer(
            node,
            &cfg.nodes[node].ev,
            cfg.nodes[node].line,
            &in_fact,
            None,
        );
        for &s in &cfg.succs[node] {
            let merged = match &input[s] {
                Some(prev) => a.join(prev, &out),
                None => out.clone(),
            };
            if input[s].as_ref() != Some(&merged) {
                input[s] = Some(merged);
                if !queued[s] {
                    queued[s] = true;
                    work.push(s);
                }
            }
        }
    }
    input
}

/// Reporting pass: replay `transfer` once per reachable node against the
/// converged IN facts, collecting diagnostics.
pub fn check<A: Analysis>(cfg: &Cfg, a: &A, facts: &[Option<A::Fact>]) -> Vec<Diag> {
    let mut out = Vec::new();
    for (i, node) in cfg.nodes.iter().enumerate() {
        if let Some(f) = &facts[i] {
            let _ = a.transfer(i, &node.ev, node.line, f, Some(&mut out));
        }
    }
    out.sort_by_key(|d| d.line);
    out.dedup();
    out
}

/// Convenience: solve then check.
pub fn run<A: Analysis>(cfg: &Cfg, a: &A) -> Vec<Diag> {
    let facts = solve(cfg, a);
    check(cfg, a, &facts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::build_cfg;
    use crate::lint::strip_non_code;
    use crate::parse::parse_functions;

    /// Toy analysis: counts stores seen on the longest path, saturating
    /// at 3 (finite lattice), flags a fence when the count is 0.
    struct CountStores;

    impl Analysis for CountStores {
        type Fact = u8;

        fn entry_fact(&self) -> u8 {
            0
        }

        fn join(&self, a: &u8, b: &u8) -> u8 {
            (*a).max(*b)
        }

        fn transfer(
            &self,
            _n: usize,
            ev: &Ev,
            line: usize,
            fact: &u8,
            sink: Option<&mut Vec<Diag>>,
        ) -> u8 {
            match ev {
                Ev::Store { .. } => (*fact + 1).min(3),
                Ev::Fence => {
                    if *fact == 0 {
                        if let Some(sink) = sink {
                            sink.push(Diag {
                                line,
                                msg: "fence with no prior store".into(),
                            });
                        }
                    }
                    *fact
                }
                _ => *fact,
            }
        }
    }

    fn cfg_of(src: &str) -> crate::cfg::Cfg {
        let fs = parse_functions(&strip_non_code(src));
        build_cfg(&fs[0])
    }

    #[test]
    fn terminates_on_loops_and_joins_at_merges() {
        let cfg = cfg_of(
            "fn f() { loop { if c { ctx.write_u64(a, v); } else { ctx.write_u64(b, v); } if done { break; } } ctx.fence(); }",
        );
        let diags = run(&cfg, &CountStores);
        // A store happens on every path before the fence.
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn reports_once_against_final_facts() {
        let cfg = cfg_of("fn f() {\n ctx.fence();\n ctx.fence();\n}");
        let diags = run(&cfg, &CountStores);
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert_ne!(diags[0].line, diags[1].line);
    }

    #[test]
    fn unreachable_code_is_not_checked() {
        let cfg = cfg_of("fn f() { return; ctx.fence(); }");
        let diags = run(&cfg, &CountStores);
        assert!(diags.is_empty(), "{diags:?}");
    }
}
