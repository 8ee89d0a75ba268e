//! Mutation canaries for the `spash-lint flow` dataflow rules.
//!
//! Each canary seeds one known-bad persistence-ordering pattern into a
//! synthetic source checked under the ADR (or eADR) model and asserts
//! the analyzer flags it at the expected line — then, where it sharpens
//! the point, checks the minimally-repaired twin comes back clean. If a
//! future refactor of the parser, CFG builder, or dataflow rules makes
//! any of these pass silently, the analyzer has lost teeth.

use spash_analysis::flow_rules::{check, RULE_FLUSH_FENCE, RULE_HTM_CLWB, RULE_PUBLISH_INIT};
use spash_analysis::lint::{report_json, Finding};
use spash_analysis::tree::{Sink, Tree};

/// The flow rules' findings for one synthetic file at `path`.
fn check_file(path: &str, src: &str) -> Vec<Finding> {
    let mut sink = Sink::default();
    check(&Tree::from_files([(path, src)]), &mut sink);
    sink.finish().0
}

/// Check one synthetic file under the strict ADR model.
fn adr(src: &str) -> Vec<Finding> {
    check_file("crates/baselines/src/x.rs", src)
}

/// Check one synthetic file under the eADR model (HTM rule only).
fn eadr(src: &str) -> Vec<Finding> {
    check_file("crates/core/src/x.rs", src)
}

fn fires(f: &[Finding], rule: &str, line: usize) -> bool {
    f.iter().any(|x| x.rule == rule && x.line == line)
}

// Canary 1: store published via CAS with no flush at all.
#[test]
fn canary_store_then_cas_without_flush() {
    let f = adr("fn f(ctx: &mut MemCtx) {\n  ctx.write_u64(a, v);\n  ctx.cas_u64(d, x, y);\n}");
    assert!(fires(&f, RULE_FLUSH_FENCE, 3), "{f:?}");
    assert!(f.iter().any(|x| x.msg.contains("unflushed")), "{f:?}");
}

// Canary 2: flushed but never fenced before the RMW — the store could
// still be reordered past the publication.
#[test]
fn canary_flush_without_fence() {
    let f = adr(
        "fn f(ctx: &mut MemCtx) {\n  ctx.write_u64(a, v);\n  ctx.flush(a);\n  ctx.cas_u64(d, x, y);\n}",
    );
    assert!(fires(&f, RULE_FLUSH_FENCE, 4), "{f:?}");
    assert!(f.iter().any(|x| x.msg.contains("flushed-unfenced")), "{f:?}");
}

// Canary 3: path sensitivity — the flush sits on only one branch, so
// the else path reaches the RMW dirty. The twin with the flush hoisted
// above the branch is clean.
#[test]
fn canary_flush_on_one_branch_only() {
    let f = adr(
        "fn f(ctx: &mut MemCtx) {\n  ctx.write_u64(a, v);\n  if c {\n    ctx.flush(a);\n  }\n  ctx.fence();\n  ctx.cas_u64(d, x, y);\n}",
    );
    assert!(fires(&f, RULE_FLUSH_FENCE, 7), "{f:?}");

    let twin = adr(
        "fn f(ctx: &mut MemCtx) {\n  ctx.write_u64(a, v);\n  ctx.flush(a);\n  if c {\n    g();\n  }\n  ctx.fence();\n  ctx.cas_u64(d, x, y);\n}",
    );
    assert!(twin.is_empty(), "repaired twin must be clean: {twin:?}");
}

// Canary 4: a flush (clwb) directly inside an `htm.try_transaction`
// region aborts the transaction — flagged even under the eADR model.
#[test]
fn canary_flush_inside_htm_region() {
    let f = eadr(
        "fn f(ctx: &mut MemCtx) {\n  self.htm.try_transaction(ctx, |tx, ctx| {\n    ctx.flush(a);\n    Ok(())\n  });\n}",
    );
    assert!(fires(&f, RULE_HTM_CLWB, 3), "{f:?}");
}

// Canary 5: the flush hides one call deep — the interprocedural
// `flushes` summary bit must carry it into the HTM region.
#[test]
fn canary_flush_in_helper_called_from_htm() {
    let f = eadr(
        "fn helper(ctx: &mut MemCtx) {\n  ctx.flush(a);\n}\nfn f(ctx: &mut MemCtx) {\n  self.htm.try_transaction(ctx, |tx, ctx| {\n    self.helper(ctx);\n    Ok(())\n  });\n}",
    );
    assert!(fires(&f, RULE_HTM_CLWB, 6), "{f:?}");
    assert!(f.iter().any(|x| x.msg.contains("helper")), "{f:?}");
}

// Canary 6: publish-before-init — a freshly allocated node is published
// via CAS while its initializing stores are still unfenced.
#[test]
fn canary_publish_half_initialized_allocation() {
    let f = adr(
        "fn f(ctx: &mut MemCtx) {\n  let node = self.alloc.alloc_region(ctx, n);\n  ctx.write_u64(node, k);\n  ctx.cas_u64(head, old, node.0);\n}",
    );
    assert!(fires(&f, RULE_PUBLISH_INIT, 4), "{f:?}");

    let twin = adr(
        "fn f(ctx: &mut MemCtx) {\n  let node = self.alloc.alloc_region(ctx, n);\n  ctx.write_u64(node, k);\n  ctx.flush(node);\n  ctx.fence();\n  ctx.cas_u64(head, old, node.0);\n}",
    );
    assert!(
        twin.iter().all(|x| x.rule != RULE_PUBLISH_INIT),
        "repaired twin must be clean: {twin:?}"
    );
}

// Canary 7: the dirt lives in a callee — the caller publishes residue
// it never created, and the finding lands at the caller's call site
// (the callee alone is clean, so it must not report internally).
#[test]
fn canary_callee_residue_reported_at_call_site() {
    let f = adr(
        "fn dirty_helper(ctx: &mut MemCtx) {\n  ctx.write_u64(a, v);\n}\nfn f(ctx: &mut MemCtx) {\n  self.dirty_helper(ctx);\n  ctx.cas_u64(d, x, y);\n}",
    );
    assert!(fires(&f, RULE_FLUSH_FENCE, 6), "{f:?}");
    assert!(
        f.iter().all(|x| x.line != 2),
        "clean-entry callee must not self-report: {f:?}"
    );
}

// Canary 8: a non-temporal store bypasses the cache but still needs a
// fence before the lock-region release publishes it.
#[test]
fn canary_ntstore_unfenced_at_lock_release() {
    let f = adr(
        "fn f(ctx: &mut MemCtx) {\n  sh.rw.write(ctx, |ctx| {\n    ctx.ntstore_bytes(dst, src, n);\n  });\n}",
    );
    assert!(fires(&f, RULE_FLUSH_FENCE, 2), "{f:?}");
    assert!(f.iter().any(|x| x.msg.contains("flushed-unfenced")), "{f:?}");
}

// Canary 9: loop back-edge — the store of iteration N is flushed+fenced
// at the bottom of the loop, but the `break` path exits with the fresh
// store of the final iteration still dirty.
#[test]
fn canary_dirty_escape_through_loop_break() {
    let f = adr(
        "fn f(ctx: &mut MemCtx) {\n  loop {\n    ctx.write_u64(a, v);\n    if done {\n      break;\n    }\n    ctx.flush(a);\n    ctx.fence();\n  }\n  ctx.cas_u64(d, x, y);\n}",
    );
    assert!(fires(&f, RULE_FLUSH_FENCE, 10), "{f:?}");
}

// Canary 10: early `return` inside a lock region still crosses the
// release edge (the closure unwinds, the wrapper unlocks) — dirt must
// not escape through the early exit unchecked.
#[test]
fn canary_early_return_crosses_lock_release() {
    let f = adr(
        "fn f(ctx: &mut MemCtx) {\n  sh.rw.write(ctx, |ctx| {\n    ctx.write_u64(a, v);\n    if full {\n      return;\n    }\n    ctx.flush(a);\n    ctx.fence();\n  });\n}",
    );
    assert!(fires(&f, RULE_FLUSH_FENCE, 2), "{f:?}");
}

// The machine-readable report for flow findings is byte-stable: golden
// fixture over canary 1's output (schema 2: per-rule stats included).
#[test]
fn flow_json_report_is_byte_stable() {
    let mut sink = Sink::default();
    check(
        &Tree::from_files([(
            "crates/baselines/src/x.rs",
            "fn f(ctx: &mut MemCtx) {\n  ctx.write_u64(a, v);\n  ctx.cas_u64(d, x, y);\n}",
        )]),
        &mut sink,
    );
    let (f, stats) = sink.finish();
    let got = report_json("flow", 1, &f, &stats, None).render();
    let want = concat!(
        "{\n",
        "  \"schema\": 2,\n",
        "  \"tool\": \"spash-lint\",\n",
        "  \"mode\": \"flow\",\n",
        "  \"files_scanned\": 1,\n",
        "  \"violations\": 1,\n",
        "  \"rule_stats\": {\n",
        "    \"flow-flush-fence\": {\n",
        "      \"findings\": 1,\n",
        "      \"waived\": 0,\n",
        "      \"virt_ns\": 4\n",
        "    },\n",
        "    \"flow-htm-clwb\": {\n",
        "      \"findings\": 0,\n",
        "      \"waived\": 0,\n",
        "      \"virt_ns\": 4\n",
        "    },\n",
        "    \"flow-publish-init\": {\n",
        "      \"findings\": 0,\n",
        "      \"waived\": 0,\n",
        "      \"virt_ns\": 4\n",
        "    }\n",
        "  },\n",
        "  \"findings\": [\n",
        "    {\n",
        "      \"file\": \"crates/baselines/src/x.rs\",\n",
        "      \"line\": 3,\n",
        "      \"rule\": \"flow-flush-fence\",\n",
        "      \"msg\": \"publication edge (atomic RMW) reachable with unflushed PM stores on some path\"\n",
        "    }\n",
        "  ]\n",
        "}\n",
    );
    assert_eq!(got, want);
}
