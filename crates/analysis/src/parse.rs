//! Hand-written Rust-subset parser for the flow analyses.
//!
//! `spash-lint flow` needs per-function *statement and branch structure*
//! — which calls happen on which paths — not types or full expressions.
//! The workspace is dependency-free by policy (no `syn`), so this module
//! recovers exactly that subset from the blanked source produced by
//! [`crate::lint::strip_non_code`]:
//!
//! * function items (anywhere: free, `impl`, `trait` default bodies,
//!   nested) with their body statement trees,
//! * calls with receiver chains, per-argument identifier sets, and
//!   closure-argument bodies (so `htm.try_transaction(ctx, |tx, ctx| …)`
//!   and `lock.write(ctx, |ctx| …)` regions are recoverable),
//! * branching: `if`/`else` chains, `match` arms, `loop`/`while`/`for`,
//! * early exits: `return`, `?`, `break`, `continue`,
//! * `let` bindings of plain identifiers (for the publish-before-init
//!   taint analysis).
//!
//! Everything else — operators, literals, types, generics, patterns — is
//! skipped while keeping token order, so the recovered call sequence
//! matches Rust's left-to-right evaluation order (arguments before the
//! call, receiver chains in order). The parser is total: malformed or
//! exotic input degrades to a flatter tree, never a panic or a hang.

/// One token of the blanked source. `text` is the identifier text or the
/// (possibly fused: `::`, `->`, `=>`) punctuation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Tok {
    pub text: String,
    pub line: usize,
    pub is_ident: bool,
}

/// Tokenize blanked source. Numbers and lifetimes are dropped (no rule
/// needs them); `::`, `->` and `=>` are fused so angle-bracket matching
/// in generics never miscounts a `>` that belongs to an arrow.
pub fn tokenize(stripped: &str) -> Vec<Tok> {
    let b: Vec<char> = stripped.chars().collect();
    let mut out = Vec::new();
    let mut line = 1usize;
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        if c.is_ascii_digit() {
            // Number literal (incl. hex/suffix): collapse the ident-ish
            // run to one `#n` operand marker. Dropping it entirely would
            // make `56 | x` look like `… op | x` — a closure opener.
            while i < b.len() && (b[i].is_alphanumeric() || b[i] == '_') {
                i += 1;
            }
            out.push(Tok {
                text: "#n".into(),
                line,
                is_ident: false,
            });
            continue;
        }
        if c.is_alphabetic() || c == '_' {
            let start = i;
            while i < b.len() && (b[i].is_alphanumeric() || b[i] == '_') {
                i += 1;
            }
            out.push(Tok {
                text: b[start..i].iter().collect(),
                line,
                is_ident: true,
            });
            continue;
        }
        if c == '\'' {
            // Char literals were blanked; what remains is a lifetime (or
            // a loop label) — skip the tick and its identifier.
            i += 1;
            while i < b.len() && (b[i].is_alphanumeric() || b[i] == '_') {
                i += 1;
            }
            continue;
        }
        // Punctuation, with the three fusions that matter.
        let two: String = b[i..(i + 2).min(b.len())].iter().collect();
        if two == "::" || two == "->" || two == "=>" {
            out.push(Tok {
                text: two,
                line,
                is_ident: false,
            });
            i += 2;
            continue;
        }
        out.push(Tok {
            text: c.to_string(),
            line,
            is_ident: false,
        });
        i += 1;
    }
    out
}

/// A call expression: `recv.name(args…)` or `path::name(args…)`.
#[derive(Clone, Debug)]
pub struct Call {
    /// Final path/method segment: the event-relevant name.
    pub name: String,
    /// Receiver chain (`seg.rw`, `spash_pmem::san`, …), dot-joined.
    pub recv: String,
    pub line: usize,
    /// Identifiers appearing in each non-closure argument, in argument
    /// order (call names excluded, closure args contribute an empty set).
    pub args: Vec<Vec<String>>,
    /// Names of calls appearing inside each argument, aligned with
    /// `args` (closure args contribute an empty set). The concurrency
    /// analyzer labels PM words by the address-helper call in argument
    /// position (`ctx.write_u64(seg.slot_addr(b, s), v)` → `slot_addr`).
    pub arg_calls: Vec<Vec<String>>,
    /// Bodies of closure arguments, in argument order.
    pub closures: Vec<Block>,
    /// The receiver chain passed through an index expression
    /// (`self.shards[i].write(…)`): a per-shard lock, not a global one.
    pub recv_indexed: bool,
}

impl Call {
    /// A guard-style RAII acquisition (`self.table.read()`,
    /// `self.dir.write()`, `self.mark_lock.lock()`): a named receiver,
    /// no arguments, no closure.
    pub fn is_guard(&self) -> bool {
        self.closures.is_empty()
            && self.args.is_empty()
            && matches!(self.name.as_str(), "read" | "write" | "lock")
            && !self.recv.is_empty()
    }
}

/// Does an expression statement take a guard it does not bind — at its
/// top level or in an `if`/`match`/loop condition? Such a guard is a
/// temporary: it drops at the end of the statement.
fn takes_temporary_guard(stmts: &[Stmt]) -> bool {
    stmts.iter().any(|s| match s {
        Stmt::Call(c) => c.is_guard(),
        Stmt::If { cond, .. } | Stmt::Match { cond, .. } | Stmt::Loop { cond, .. } => {
            takes_temporary_guard(cond)
        }
        _ => false,
    })
}

/// Is the value a `let` initializer binds the guard it takes — the
/// initializer ends in the guard call, or in `unwrap`/`expect` right
/// after it (`let g = self.m.lock();`, `let b = self.baton.lock().unwrap();`)?
fn binds_guard(init: &[Stmt]) -> bool {
    let calls: Vec<&Call> = init
        .iter()
        .filter_map(|s| match s {
            Stmt::Call(c) => Some(c),
            _ => None,
        })
        .collect();
    match calls[..] {
        [.., g] if g.is_guard() => true,
        [.., g, u] => g.is_guard() && matches!(u.name.as_str(), "unwrap" | "expect"),
        _ => false,
    }
}

/// A statement in the recovered subset. Expression statements flatten
/// into the calls (and early exits) they contain, in evaluation order.
#[derive(Clone, Debug)]
pub enum Stmt {
    Call(Call),
    /// `let name = …;` — pushed *after* the initializer's statements.
    Bind {
        name: String,
        line: usize,
        /// Names of calls appearing anywhere in the initializer.
        init_calls: Vec<String>,
        /// Identifiers appearing in the initializer (for taint
        /// propagation through rebindings like `let b = a + 8;`).
        init_idents: Vec<String>,
    },
    If {
        cond: Vec<Stmt>,
        then: Block,
        els: Option<Block>,
        /// Identifiers appearing in the condition expression (guard-use
        /// tracking for the check-then-act rule).
        cond_idents: Vec<String>,
    },
    Match {
        cond: Vec<Stmt>,
        arms: Vec<Block>,
    },
    /// `loop`/`while`/`for`, unified: `cond` runs each iteration before
    /// the body (empty for `loop`). `exits_by_cond` is false for bare
    /// `loop`, which only exits via `break`.
    Loop {
        cond: Vec<Stmt>,
        body: Block,
        exits_by_cond: bool,
    },
    Block(Block),
    /// A closure body not attached to a region call: may run 0+ times.
    MaybeBlock(Block),
    Return {
        line: usize,
    },
    Question {
        line: usize,
    },
    Break {
        line: usize,
    },
    Continue {
        line: usize,
    },
}

#[derive(Clone, Debug, Default)]
pub struct Block(pub Vec<Stmt>);

/// One parsed function item.
#[derive(Clone, Debug)]
pub struct Func {
    pub name: String,
    /// Line of the `fn` keyword.
    pub line: usize,
    /// Last line of the body (closing brace).
    pub end_line: usize,
    pub body: Block,
}

/// Parse every function item in blanked source.
pub fn parse_functions(stripped: &str) -> Vec<Func> {
    let toks = tokenize(stripped);
    let mut p = P {
        t: &toks,
        i: 0,
        fns: Vec::new(),
    };
    while p.i < p.t.len() {
        if p.is_ident_at(p.i, "fn") && p.t.get(p.i + 1).map(|t| t.is_ident) == Some(true) {
            p.parse_fn();
        } else {
            p.i += 1;
        }
    }
    p.fns
}

/// Find the function whose item (from its `fn` line to its closing
/// brace) covers 1-based `line`, innermost match winning.
pub fn enclosing_fn(funcs: &[Func], line: usize) -> Option<&Func> {
    funcs
        .iter()
        .filter(|f| f.line <= line && line <= f.end_line)
        .min_by_key(|f| f.end_line - f.line)
}

/// Collect the names of all calls in a statement slice, recursively.
pub fn call_names(stmts: &[Stmt]) -> Vec<String> {
    let mut out = Vec::new();
    fn walk(stmts: &[Stmt], out: &mut Vec<String>) {
        for s in stmts {
            match s {
                Stmt::Call(c) => {
                    out.push(c.name.clone());
                    for b in &c.closures {
                        walk(&b.0, out);
                    }
                }
                Stmt::If { cond, then, els, .. } => {
                    walk(cond, out);
                    walk(&then.0, out);
                    if let Some(e) = els {
                        walk(&e.0, out);
                    }
                }
                Stmt::Match { cond, arms } => {
                    walk(cond, out);
                    for a in arms {
                        walk(&a.0, out);
                    }
                }
                Stmt::Loop { cond, body, .. } => {
                    walk(cond, out);
                    walk(&body.0, out);
                }
                Stmt::Block(b) | Stmt::MaybeBlock(b) => walk(&b.0, out),
                _ => {}
            }
        }
    }
    walk(stmts, &mut out);
    out
}

struct P<'a> {
    t: &'a [Tok],
    i: usize,
    fns: Vec<Func>,
}

/// What ends the current expression scan (always at bracket depth 0).
#[derive(Clone, Copy, PartialEq)]
enum Stop {
    /// `;` or the enclosing block's `}`.
    Stmt,
    /// `,` or `)` (argument position).
    Arg,
    /// `,` or the enclosing `}` (match arm expression).
    Arm,
    /// The `{` that opens a control-flow body.
    LBrace,
}

impl<'a> P<'a> {
    fn text(&self, i: usize) -> &str {
        self.t.get(i).map(|t| t.text.as_str()).unwrap_or("")
    }

    fn line(&self, i: usize) -> usize {
        self.t.get(i).map(|t| t.line).unwrap_or(0)
    }

    fn is_ident_at(&self, i: usize, s: &str) -> bool {
        self.t.get(i).map(|t| t.is_ident && t.text == s) == Some(true)
    }

    fn at(&self, s: &str) -> bool {
        self.text(self.i) == s
    }

    fn at_ident(&self, s: &str) -> bool {
        self.is_ident_at(self.i, s)
    }

    fn eof(&self) -> bool {
        self.i >= self.t.len()
    }

    /// Skip a balanced `(…)`, `[…]` or `{…}` group starting at `open`.
    fn skip_group(&mut self) {
        let (open, close) = match self.text(self.i) {
            "(" => ("(", ")"),
            "[" => ("[", "]"),
            "{" => ("{", "}"),
            _ => {
                self.i += 1;
                return;
            }
        };
        let mut depth = 0usize;
        while !self.eof() {
            let t = self.text(self.i);
            if t == open {
                depth += 1;
            } else if t == close {
                depth -= 1;
                if depth == 0 {
                    self.i += 1;
                    return;
                }
            }
            self.i += 1;
        }
    }

    /// Skip a generic-argument group starting at `<`. Arrows are fused
    /// tokens, so only bare `<`/`>` count.
    fn skip_angles(&mut self) {
        debug_assert!(self.at("<"));
        let mut depth = 0i64;
        while !self.eof() {
            match self.text(self.i) {
                "<" => depth += 1,
                ">" => {
                    depth -= 1;
                    if depth <= 0 {
                        self.i += 1;
                        return;
                    }
                }
                "(" | "[" | "{" => {
                    self.skip_group();
                    continue;
                }
                ";" => return, // malformed; bail without consuming
                _ => {}
            }
            self.i += 1;
        }
    }

    /// At `fn` with an identifier after it: parse the whole item and
    /// record it in `self.fns` (body functions recurse via parse_block).
    fn parse_fn(&mut self) {
        let fn_line = self.line(self.i);
        self.i += 1; // fn
        let name = self.t[self.i].text.clone();
        self.i += 1;
        if self.at("<") {
            self.skip_angles();
        }
        if !self.at("(") {
            return; // not a function item we understand
        }
        self.skip_group(); // parameter list
        // Return type / where clause: scan to the body `{` or a `;`.
        loop {
            if self.eof() || self.at(";") {
                if self.at(";") {
                    self.i += 1;
                }
                return; // trait method declaration, no body
            }
            if self.at("{") {
                break;
            }
            if self.at("(") || self.at("[") {
                self.skip_group();
                continue;
            }
            if self.at("<") {
                self.skip_angles();
                continue;
            }
            self.i += 1;
        }
        let body = self.parse_block();
        let end_line = self.line(self.i.saturating_sub(1));
        self.fns.push(Func {
            name,
            line: fn_line,
            end_line,
            body,
        });
    }

    /// At `{`: parse statements until the matching `}` (consumed).
    fn parse_block(&mut self) -> Block {
        debug_assert!(self.at("{"));
        self.i += 1;
        let mut stmts = Vec::new();
        while !self.eof() {
            if self.at("}") {
                self.i += 1;
                break;
            }
            if self.at(";") {
                self.i += 1;
                continue;
            }
            if self.at("#") {
                // Attribute: `#[…]` / `#![…]`.
                self.i += 1;
                if self.at("!") {
                    self.i += 1;
                }
                if self.at("[") {
                    self.skip_group();
                }
                continue;
            }
            if self.at_ident("fn") && self.t.get(self.i + 1).map(|t| t.is_ident) == Some(true) {
                self.parse_fn();
                continue;
            }
            if self.at_ident("let") {
                self.parse_let(&mut stmts);
                continue;
            }
            let before = self.i;
            let mark = stmts.len();
            self.scan_expr(&mut stmts, Stop::Stmt);
            if takes_temporary_guard(&stmts[mark..]) {
                // Scope the statement, so its temporary guards drop at
                // its end rather than at the end of the enclosing block.
                let stmt = stmts.split_off(mark);
                stmts.push(Stmt::Block(Block(stmt)));
            }
            if self.at(";") {
                self.i += 1;
            } else if self.i == before {
                // scan_expr stopped on a token it does not own (stray
                // closer in malformed/truncated input): force progress
                // so the parser can never loop.
                self.i += 1;
            }
        }
        Block(stmts)
    }

    /// `let [mut] pat [: ty] = init;`
    fn parse_let(&mut self, out: &mut Vec<Stmt>) {
        let line = self.line(self.i);
        self.i += 1; // let
        if self.at_ident("mut") {
            self.i += 1;
        }
        // Plain-identifier pattern (the only bind the taint rule tracks).
        let name = if self.t.get(self.i).map(|t| t.is_ident) == Some(true)
            && matches!(self.text(self.i + 1), ":" | "=")
        {
            let n = self.t[self.i].text.clone();
            self.i += 1;
            Some(n)
        } else {
            // Destructuring pattern: skip to `=` / `;` at depth 0.
            while !self.eof() && !self.at("=") && !self.at(";") {
                if self.at("(") || self.at("[") || self.at("{") {
                    self.skip_group();
                } else {
                    self.i += 1;
                }
            }
            None
        };
        if self.at(":") {
            // Type annotation: angles tracked so `Map<K, V=X>` defaults
            // don't end the scan early.
            self.i += 1;
            while !self.eof() && !self.at("=") && !self.at(";") {
                if self.at("(") || self.at("[") || self.at("{") {
                    self.skip_group();
                } else if self.at("<") {
                    self.skip_angles();
                } else {
                    self.i += 1;
                }
            }
        }
        if self.at(";") {
            self.i += 1;
            return; // uninitialized `let x;`
        }
        if !self.at("=") {
            return;
        }
        self.i += 1;
        let mark = out.len();
        let init_idents = self.scan_expr(out, Stop::Stmt);
        if self.at(";") {
            self.i += 1;
        }
        if let Some(name) = name {
            let init_calls = call_names(&out[mark..]);
            out.push(Stmt::Bind {
                name,
                line,
                init_calls,
                init_idents,
            });
        }
        // A guard the initializer takes but does not bind
        // (`let n = self.m.lock().len();`) is a temporary: scope the
        // statement, so it drops at the statement's end.
        let init = &out[mark..];
        if takes_temporary_guard(init) && !binds_guard(init) {
            let stmt = out.split_off(mark);
            out.push(Stmt::Block(Block(stmt)));
        }
    }

    fn parse_if(&mut self, out: &mut Vec<Stmt>) {
        self.i += 1; // if
        let mut cond = Vec::new();
        let cond_idents = self.scan_expr(&mut cond, Stop::LBrace);
        if !self.at("{") {
            out.push(Stmt::If {
                cond,
                then: Block::default(),
                els: None,
                cond_idents,
            });
            return;
        }
        let then = self.parse_block();
        let els = if self.at_ident("else") {
            self.i += 1;
            if self.at_ident("if") {
                let mut nested = Vec::new();
                self.parse_if(&mut nested);
                Some(Block(nested))
            } else if self.at("{") {
                Some(self.parse_block())
            } else {
                None
            }
        } else {
            None
        };
        out.push(Stmt::If {
            cond,
            then,
            els,
            cond_idents,
        });
    }

    fn parse_match(&mut self, out: &mut Vec<Stmt>) {
        self.i += 1; // match
        let mut cond = Vec::new();
        self.scan_expr(&mut cond, Stop::LBrace);
        if !self.at("{") {
            out.push(Stmt::Match { cond, arms: vec![] });
            return;
        }
        self.i += 1; // {
        let mut arms = Vec::new();
        while !self.eof() && !self.at("}") {
            // Skip the pattern (and any guard) to `=>` at depth 0.
            while !self.eof() && !self.at("=>") && !self.at("}") {
                if self.at("(") || self.at("[") || self.at("{") {
                    self.skip_group();
                } else {
                    self.i += 1;
                }
            }
            if !self.at("=>") {
                break;
            }
            self.i += 1;
            let body = if self.at("{") {
                self.parse_block()
            } else {
                let mut stmts = Vec::new();
                self.scan_expr(&mut stmts, Stop::Arm);
                Block(stmts)
            };
            if self.at(",") {
                self.i += 1;
            }
            arms.push(body);
        }
        if self.at("}") {
            self.i += 1;
        }
        out.push(Stmt::Match { cond, arms });
    }

    /// Scan an expression, emitting contained calls/branches/exits into
    /// `out` in evaluation order and returning the identifiers seen
    /// (call names excluded). Stops *before* the terminator.
    fn scan_expr(&mut self, out: &mut Vec<Stmt>, stop: Stop) -> Vec<String> {
        let mut idents = Vec::new();
        // Tracks whether a closure can start here: `|` after an operand
        // is bitwise-or, after a delimiter/operator it opens a closure.
        let mut after_operand = false;
        // `return expr` / `break expr`: marker emitted after the expr.
        let mut pending: Option<Stmt> = None;
        while !self.eof() {
            let t = self.text(self.i).to_string();
            match (stop, t.as_str()) {
                (Stop::Stmt, ";") | (Stop::Stmt, "}") => break,
                (Stop::Arg, ",") | (Stop::Arg, ")") => break,
                (Stop::Arm, ",") | (Stop::Arm, "}") => break,
                (Stop::LBrace, "{") => break,
                // A stray closer always ends the scan (malformed input).
                (_, "}") | (_, ")") | (_, "]") => break,
                _ => {}
            }
            let tok_is_ident = self.t[self.i].is_ident;
            if tok_is_ident {
                match t.as_str() {
                    "if" => {
                        self.parse_if(out);
                        after_operand = true;
                        continue;
                    }
                    "match" => {
                        self.parse_match(out);
                        after_operand = true;
                        continue;
                    }
                    "while" => {
                        self.i += 1;
                        let mut cond = Vec::new();
                        self.scan_expr(&mut cond, Stop::LBrace);
                        let body = if self.at("{") {
                            self.parse_block()
                        } else {
                            Block::default()
                        };
                        out.push(Stmt::Loop {
                            cond,
                            body,
                            exits_by_cond: true,
                        });
                        after_operand = true;
                        continue;
                    }
                    "for" => {
                        self.i += 1;
                        // Skip the pattern to `in`.
                        while !self.eof() && !self.at_ident("in") && !self.at("{") {
                            if self.at("(") || self.at("[") {
                                self.skip_group();
                            } else {
                                self.i += 1;
                            }
                        }
                        if self.at_ident("in") {
                            self.i += 1;
                        }
                        let mut cond = Vec::new();
                        self.scan_expr(&mut cond, Stop::LBrace);
                        let body = if self.at("{") {
                            self.parse_block()
                        } else {
                            Block::default()
                        };
                        out.push(Stmt::Loop {
                            cond,
                            body,
                            exits_by_cond: true,
                        });
                        after_operand = true;
                        continue;
                    }
                    "loop" => {
                        self.i += 1;
                        let body = if self.at("{") {
                            self.parse_block()
                        } else {
                            Block::default()
                        };
                        out.push(Stmt::Loop {
                            cond: vec![],
                            body,
                            exits_by_cond: false,
                        });
                        after_operand = true;
                        continue;
                    }
                    "unsafe" => {
                        self.i += 1;
                        if self.at("{") {
                            let b = self.parse_block();
                            out.push(Stmt::Block(b));
                            after_operand = true;
                        }
                        continue;
                    }
                    "return" => {
                        pending = Some(Stmt::Return {
                            line: self.line(self.i),
                        });
                        self.i += 1;
                        after_operand = false;
                        continue;
                    }
                    "break" => {
                        pending = Some(Stmt::Break {
                            line: self.line(self.i),
                        });
                        self.i += 1;
                        after_operand = false;
                        continue;
                    }
                    "continue" => {
                        out.push(Stmt::Continue {
                            line: self.line(self.i),
                        });
                        self.i += 1;
                        after_operand = false;
                        continue;
                    }
                    "fn" if self.t.get(self.i + 1).map(|x| x.is_ident) == Some(true) => {
                        self.parse_fn();
                        continue;
                    }
                    "let" => {
                        if stop == Stop::Stmt {
                            // A new statement after an un-semicoloned
                            // control construct: hand back to the block
                            // parser, which owns `let` bindings.
                            break;
                        }
                        // `if let PAT = expr` / `while let PAT = expr`:
                        // skip the pattern, keep scanning the scrutinee.
                        self.i += 1;
                        while !self.eof()
                            && !self.at("=")
                            && !self.at("{")
                            && !self.at(";")
                        {
                            if self.at("(") || self.at("[") {
                                self.skip_group();
                            } else {
                                self.i += 1;
                            }
                        }
                        if self.at("=") {
                            self.i += 1;
                        }
                        after_operand = false;
                        continue;
                    }
                    "move" => {
                        self.i += 1;
                        after_operand = false;
                        continue;
                    }
                    _ => {
                        self.scan_chain(out, &mut idents);
                        after_operand = true;
                        continue;
                    }
                }
            }
            match t.as_str() {
                "(" => {
                    self.i += 1;
                    let inner = self.scan_expr(out, Stop::Arg);
                    // Tuples: keep scanning elements.
                    idents.extend(inner);
                    while self.at(",") {
                        self.i += 1;
                        idents.extend(self.scan_expr(out, Stop::Arg));
                    }
                    if self.at(")") {
                        self.i += 1;
                    }
                    after_operand = true;
                }
                "[" => {
                    self.i += 1;
                    idents.extend(self.scan_expr(out, Stop::Arg));
                    while self.at(",") {
                        self.i += 1;
                        idents.extend(self.scan_expr(out, Stop::Arg));
                    }
                    if self.at("]") {
                        self.i += 1;
                    }
                    after_operand = true;
                }
                "{" => {
                    let b = self.parse_block();
                    out.push(Stmt::Block(b));
                    after_operand = true;
                }
                "#n" => {
                    // Number literal: an operand, like an identifier.
                    self.i += 1;
                    after_operand = true;
                }
                "|" if after_operand => {
                    // Bitwise `|` or logical `||`: consume as a whole so
                    // the second `|` of `||` is not taken for a closure.
                    self.i += 1;
                    if self.at("|") {
                        self.i += 1;
                    }
                    after_operand = false;
                }
                "|" => {
                    // Closure in expression position (not a call arg):
                    // its body may run 0+ times.
                    let body = self.parse_closure(out);
                    out.push(Stmt::MaybeBlock(body));
                    after_operand = true;
                }
                "?" => {
                    out.push(Stmt::Question {
                        line: self.line(self.i),
                    });
                    self.i += 1;
                    after_operand = true;
                }
                "." => {
                    self.i += 1;
                    // `.await`, `.0`, or a method continuation — the
                    // ident case handles methods on the next loop turn.
                    after_operand = false;
                    if self.t.get(self.i).map(|x| x.is_ident) == Some(true) {
                        // Method or field: let scan_chain have it.
                        self.scan_chain(out, &mut idents);
                        after_operand = true;
                    }
                }
                "#" => {
                    self.i += 1;
                    if self.at("!") {
                        self.i += 1;
                    }
                    if self.at("[") {
                        self.skip_group();
                    }
                }
                _ => {
                    // Operators and everything else reset operand state
                    // (so `x | y` vs `f(|| …)` disambiguates), except
                    // closers which were handled by the stop matrix.
                    self.i += 1;
                    after_operand = false;
                }
            }
        }
        if let Some(p) = pending {
            out.push(p);
        }
        idents
    }

    /// At an identifier: scan a path/field/method chain, emitting any
    /// calls. Receiver identifiers land in `idents`.
    fn scan_chain(&mut self, out: &mut Vec<Stmt>, idents: &mut Vec<String>) {
        let mut chain: Vec<String> = Vec::new();
        let mut chain_indexed = false;
        loop {
            if self.t.get(self.i).map(|t| t.is_ident) != Some(true) {
                return;
            }
            let name = self.t[self.i].text.clone();
            let line = self.line(self.i);
            self.i += 1;
            // Macro invocation: scan the token soup inside for events,
            // but emit no call node (macro semantics are unknown).
            if self.at("!") {
                self.i += 1;
                if self.at("(") || self.at("[") {
                    let close = if self.at("(") { ")" } else { "]" };
                    self.i += 1;
                    loop {
                        self.scan_expr(out, Stop::Arg);
                        if self.at(",") {
                            self.i += 1;
                            continue;
                        }
                        if self.at(close) || self.eof() {
                            break;
                        }
                        // `;` separators inside `vec![a; n]` etc.
                        self.i += 1;
                    }
                    if self.at(close) {
                        self.i += 1;
                    }
                } else if self.at("{") {
                    let b = self.parse_block();
                    out.push(Stmt::Block(b));
                }
                return;
            }
            if self.at("::") {
                self.i += 1;
                if self.at("<") {
                    self.skip_angles(); // turbofish
                }
                if name.chars().next().is_some_and(|c| c.is_lowercase()) {
                    idents.push(name.clone());
                }
                chain.push(name);
                continue;
            }
            if self.at("(") {
                let (args, arg_calls, closures) = self.parse_args(out, idents);
                out.push(Stmt::Call(Call {
                    name,
                    recv: chain.join("."),
                    line,
                    args,
                    arg_calls,
                    closures,
                    recv_indexed: chain_indexed,
                }));
                chain.clear();
                chain_indexed = false;
                // Postfix continuation: `f(x).g(y)`, `f(x)?`, `f(x)[i]`.
                loop {
                    if self.at("?") {
                        out.push(Stmt::Question {
                            line: self.line(self.i),
                        });
                        self.i += 1;
                        continue;
                    }
                    if self.at("[") {
                        self.i += 1;
                        idents.extend(self.scan_expr(out, Stop::Arg));
                        if self.at("]") {
                            self.i += 1;
                        }
                        continue;
                    }
                    break;
                }
                if self.at(".") {
                    self.i += 1;
                    continue;
                }
                return;
            }
            if self.at(".") {
                if name.chars().next().is_some_and(|c| c.is_lowercase()) {
                    idents.push(name.clone());
                }
                chain.push(name);
                self.i += 1;
                // `.0` tuple access: number tokens are dropped by the
                // tokenizer, so the chain just continues if an ident
                // follows, else ends here.
                if self.t.get(self.i).map(|t| t.is_ident) == Some(true) {
                    continue;
                }
                return;
            }
            if self.at("[") {
                // Indexing: scan the index, then continue the chain.
                if name.chars().next().is_some_and(|c| c.is_lowercase()) {
                    idents.push(name.clone());
                }
                chain.push(name);
                chain_indexed = true;
                self.i += 1;
                idents.extend(self.scan_expr(out, Stop::Arg));
                if self.at("]") {
                    self.i += 1;
                }
                if self.at(".") {
                    self.i += 1;
                    continue;
                }
                return;
            }
            // Plain identifier operand.
            if name.chars().next().is_some_and(|c| c.is_lowercase()) {
                idents.push(name);
            }
            return;
        }
    }

    /// At `(` of a call: parse the arguments. Closure bodies are
    /// returned separately; each contributes an empty ident set so
    /// argument positions stay aligned.
    fn parse_args(
        &mut self,
        out: &mut Vec<Stmt>,
        idents: &mut Vec<String>,
    ) -> (Vec<Vec<String>>, Vec<Vec<String>>, Vec<Block>) {
        debug_assert!(self.at("("));
        self.i += 1;
        let mut args = Vec::new();
        let mut arg_calls = Vec::new();
        let mut closures = Vec::new();
        loop {
            if self.eof() || self.at(")") {
                if self.at(")") {
                    self.i += 1;
                }
                break;
            }
            let closure_here = self.at("|")
                || (self.at_ident("move") && self.text(self.i + 1) == "|");
            if closure_here {
                if self.at_ident("move") {
                    self.i += 1;
                }
                let body = self.parse_closure(out);
                closures.push(body);
                args.push(Vec::new());
                arg_calls.push(Vec::new());
            } else {
                let mark = out.len();
                let arg_idents = self.scan_expr(out, Stop::Arg);
                idents.extend(arg_idents.iter().cloned());
                args.push(arg_idents);
                arg_calls.push(call_names(&out[mark..]));
            }
            if self.at(",") {
                self.i += 1;
                continue;
            }
            if self.at(")") {
                self.i += 1;
                break;
            }
            // Malformed: make progress.
            if !self.eof() {
                self.i += 1;
            } else {
                break;
            }
        }
        (args, arg_calls, closures)
    }

    /// At the opening `|` of a closure: skip the parameter list, then
    /// parse the body (block or single expression).
    fn parse_closure(&mut self, _out: &mut Vec<Stmt>) -> Block {
        debug_assert!(self.at("|"));
        self.i += 1;
        // Parameters to the closing `|` (patterns may nest groups).
        while !self.eof() && !self.at("|") {
            if self.at("(") || self.at("[") || self.at("{") {
                self.skip_group();
            } else if self.at("<") {
                self.skip_angles();
            } else {
                self.i += 1;
            }
        }
        if self.at("|") {
            self.i += 1;
        }
        if self.at("->") {
            // Explicit return type: scan to the body `{`.
            self.i += 1;
            while !self.eof() && !self.at("{") {
                if self.at("<") {
                    self.skip_angles();
                } else if self.at("(") || self.at("[") {
                    self.skip_group();
                } else {
                    self.i += 1;
                }
            }
        }
        if self.at("{") {
            self.parse_block()
        } else {
            let mut stmts = Vec::new();
            self.scan_expr(&mut stmts, Stop::Arg);
            Block(stmts)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::strip_non_code;

    fn parse(src: &str) -> Vec<Func> {
        parse_functions(&strip_non_code(src))
    }

    fn flat_calls(f: &Func) -> Vec<String> {
        call_names(&f.body.0)
    }

    #[test]
    fn simple_fn_and_calls_in_order() {
        let fs = parse("fn f(ctx: &mut MemCtx) { ctx.write_u64(a, v); ctx.flush(a); ctx.fence(); }");
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].name, "f");
        assert_eq!(flat_calls(&fs[0]), ["write_u64", "flush", "fence"]);
    }

    #[test]
    fn args_evaluated_before_call() {
        let fs = parse("fn f() { ctx.flush(seg.slot_addr(b, s)); }");
        assert_eq!(flat_calls(&fs[0]), ["slot_addr", "flush"]);
        // The outer call's argument idents include the receiver base.
        let Stmt::Call(c) = &fs[0].body.0[1] else { panic!() };
        assert_eq!(c.name, "flush");
        assert!(c.args[0].contains(&"seg".to_string()), "{c:?}");
        assert!(c.args[0].contains(&"b".to_string()));
    }

    #[test]
    fn if_else_structure() {
        let fs = parse(
            "fn f() { if cond { ctx.flush(a); } else { ctx.fence(); } ctx.cas_u64(d, x, y); }",
        );
        let body = &fs[0].body.0;
        assert!(matches!(&body[0], Stmt::If { els: Some(_), .. }));
        let Stmt::If { then, els, .. } = &body[0] else { panic!() };
        assert_eq!(call_names(&then.0), ["flush"]);
        assert_eq!(call_names(&els.as_ref().unwrap().0), ["fence"]);
        assert!(matches!(&body[1], Stmt::Call(c) if c.name == "cas_u64"));
    }

    #[test]
    fn match_arms_with_guards_and_struct_patterns() {
        let fs = parse(
            "fn f() { match x { Some(Out { a, .. }) if a > 0 => ctx.flush(p), None => { ctx.fence(); } _ => {} } }",
        );
        let Stmt::Match { arms, .. } = &fs[0].body.0[0] else { panic!() };
        assert_eq!(arms.len(), 3);
        assert_eq!(call_names(&arms[0].0), ["flush"]);
        assert_eq!(call_names(&arms[1].0), ["fence"]);
        assert!(call_names(&arms[2].0).is_empty());
    }

    #[test]
    fn closure_args_captured_with_region_call() {
        let fs = parse(
            "fn f() { let out = seg.rw.read(ctx, |ctx, _| { ctx.write_u64(a, v); Out::Done }); }",
        );
        let calls: Vec<_> = fs[0]
            .body
            .0
            .iter()
            .filter_map(|s| match s {
                Stmt::Call(c) => Some(c),
                _ => None,
            })
            .collect();
        let read = calls.iter().find(|c| c.name == "read").unwrap();
        assert_eq!(read.closures.len(), 1);
        assert_eq!(call_names(&read.closures[0].0), ["write_u64"]);
        assert_eq!(read.recv, "seg.rw");
    }

    #[test]
    fn try_transaction_closure() {
        let fs = parse(
            "fn f() { let r = self.htm.try_transaction(ctx, |tx, ctx| { tx.write_u64(ctx, a, v)?; Ok(()) }); }",
        );
        let Some(Stmt::Call(c)) = fs[0]
            .body
            .0
            .iter()
            .find(|s| matches!(s, Stmt::Call(c) if c.name == "try_transaction"))
        else {
            panic!()
        };
        assert_eq!(c.closures.len(), 1);
        assert!(call_names(&c.closures[0].0).contains(&"write_u64".to_string()));
    }

    #[test]
    fn let_bind_records_init_calls() {
        let fs = parse("fn f() { let blob = self.alloc.alloc_blob(ctx, len)?; use_it(blob); }");
        let Some(Stmt::Bind { name, init_calls, .. }) = fs[0]
            .body
            .0
            .iter()
            .find(|s| matches!(s, Stmt::Bind { .. }))
        else {
            panic!()
        };
        assert_eq!(name, "blob");
        assert!(init_calls.contains(&"alloc_blob".to_string()));
    }

    #[test]
    fn loops_break_continue_question() {
        let fs = parse(
            "fn f() -> Result<(), E> { loop { if done { break; } step(ctx)?; } while more() { tick(); } Ok(()) }",
        );
        let body = &fs[0].body.0;
        let Stmt::Loop { body: b1, .. } = &body[0] else { panic!() };
        // The break sits inside the `if done { … }` then-block.
        fn has_break(stmts: &[Stmt]) -> bool {
            stmts.iter().any(|s| match s {
                Stmt::Break { .. } => true,
                Stmt::If { then, els, .. } => {
                    has_break(&then.0) || els.as_ref().is_some_and(|e| has_break(&e.0))
                }
                _ => false,
            })
        }
        assert!(has_break(&b1.0), "{b1:?}");
        assert!(b1.0.iter().any(|s| matches!(s, Stmt::Question { .. })));
        let Stmt::Loop { cond, body: b2, .. } = &body[1] else { panic!("{body:?}") };
        assert_eq!(call_names(cond), ["more"]);
        assert_eq!(call_names(&b2.0), ["tick"]);
    }

    #[test]
    fn nested_and_trait_fns() {
        let fs = parse(
            "impl X { fn a(&self) { helper(); } }\ntrait T { fn decl(&self) -> u64; fn with_default(&self) { base(); } }",
        );
        let names: Vec<_> = fs.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["a", "with_default"]);
    }

    #[test]
    fn generic_fn_with_fn_bound() {
        let fs = parse("fn run<F: Fn(&mut Tx<'_>, &mut MemCtx) -> Result<u64, Abort>>(f: F) -> u64 { inner(f) }");
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].name, "run");
        assert_eq!(flat_calls(&fs[0]), ["inner"]);
    }

    #[test]
    fn macros_scanned_for_events() {
        let fs = parse("fn f() { debug_assert_eq!(ctx.read_u64(a), v); vec![make(x); 4]; }");
        let calls = flat_calls(&fs[0]);
        assert!(calls.contains(&"read_u64".to_string()), "{calls:?}");
        assert!(calls.contains(&"make".to_string()));
    }

    #[test]
    fn enclosing_fn_lookup() {
        let src = "fn a() {\n  one();\n}\nfn b() {\n  two();\n}\n";
        let fs = parse(src);
        let name = |line| enclosing_fn(&fs, line).map(|f| f.name.as_str());
        assert_eq!(name(2), Some("a"));
        assert_eq!(name(5), Some("b"));
        assert_eq!(name(99), None);
    }

    #[test]
    fn bitwise_or_is_not_a_closure() {
        let fs = parse("fn f() { let m = a | b; g(m || h()); cas(sa, w, w | FROZEN); }");
        let calls = flat_calls(&fs[0]);
        assert!(calls.contains(&"cas".to_string()));
        assert!(calls.contains(&"h".to_string()));
        assert!(calls.contains(&"g".to_string()));
    }

    #[test]
    fn or_after_number_literal_is_not_a_closure() {
        // Numbers collapse to an operand marker; `56 | addr.0` must be
        // bitwise-or. This once swallowed every fn after `pack_blob`.
        let fs = parse(
            "fn pack(addr: PmAddr) -> u64 { BLOB_TAG << 56 | addr.0 }\nfn after() { g(); }",
        );
        assert_eq!(fs.len(), 2, "{fs:?}");
        assert_eq!(fs[1].name, "after");
        assert!(flat_calls(&fs[1]).contains(&"g".to_string()));
    }

    #[test]
    fn let_statement_after_unsemicoloned_control_flow() {
        // `while …{}` ends without `;`; the following `let` must parse
        // as a binding (and must never wedge the parser — this exact
        // shape once looped forever on a slice-pattern let-else).
        let fs = parse(
            "fn f() { while let Some(a) = it.next() { use_it(a); } let [x, y] = p[..] else { return; }; g(x, y); }",
        );
        assert_eq!(fs.len(), 1);
        let calls = flat_calls(&fs[0]);
        assert!(calls.contains(&"use_it".to_string()), "{calls:?}");
        assert!(calls.contains(&"g".to_string()), "{calls:?}");
    }

    #[test]
    fn truncated_input_terminates() {
        // The parser must be total even on unterminated input.
        let fs = parse("fn f() { while c { } let [x, y] = p[..] else {");
        assert_eq!(fs.len(), 1);
    }

    #[test]
    fn indexed_receiver_region() {
        let fs = parse(
            "fn f() { self.shards[Self::shard_of(h)].write(ctx, |ctx, sh| { ctx.fence(); }); }",
        );
        let Some(Stmt::Call(c)) = fs[0]
            .body
            .0
            .iter()
            .find(|s| matches!(s, Stmt::Call(c) if c.name == "write"))
        else {
            panic!("{:?}", fs[0].body)
        };
        assert_eq!(c.closures.len(), 1);
        assert_eq!(call_names(&c.closures[0].0), ["fence"]);
    }
}
