//! Mutation canaries for the `spash-lint conc` concurrency rules.
//!
//! Each canary seeds one known-bad synchronization pattern — headlined
//! by the PR-2 PLUSH check-then-act race, re-created here by reverting
//! its `op_locks` fix on the real source — and asserts the analyzer
//! flags it; the minimally-repaired twin must come back clean. If a
//! refactor of the parser, CFG lowering, lockset transfer, or the
//! check-then-act pairing makes any of these pass silently, the
//! analyzer has lost teeth.

use spash_analysis::conc_rules::{
    run, WordRow, RULE_CONC_ATOMICITY, RULE_CONC_LOCKSET, RULE_CONC_XREF,
};
use spash_analysis::lint::Finding;
use spash_analysis::tree::{Sink, Tree};

/// The conc family's findings and inventory over synthetic files.
fn check_files_conc(files: &[(String, String)]) -> (Vec<Finding>, Vec<WordRow>) {
    let mut sink = Sink::default();
    let inventory = run(&Tree::from_files(files.to_vec()), &mut sink);
    (sink.finish().0, inventory)
}

fn conc(src: &str) -> (Vec<Finding>, Vec<WordRow>) {
    check_files_conc(&[("crates/baselines/src/x.rs".to_string(), src.to_string())])
}

fn fires(f: &[Finding], rule: &str) -> bool {
    f.iter().any(|x| x.rule == rule)
}

// Canary 1 (the headline): revert the PLUSH `op_locks` fix on the real
// source. PR 2's scheduler found this dynamically: with the per-shard
// operation lock gone, the duplicate check (`lookup`) and the dependent
// `put` run in separate windows, so two inserts of one key both commit.
// The static analyzer must re-find it as a check-then-act race.
#[test]
fn canary_reverted_plush_op_locks_race_is_refound() {
    let src = std::fs::read_to_string("../baselines/src/plush.rs").expect("plush source");
    assert!(
        src.contains("op_locks"),
        "PLUSH lost its op_locks fix; this canary needs updating"
    );
    // The revert: the op-lock wrapper degrades to an unknown
    // higher-order call (`maybe`), so its closure body runs with no
    // region semantics — exactly the pre-fix code shape.
    let reverted = src.replace(
        "self.op_locks[Self::shard_of(hash_key(key))].with(ctx, |ctx, _| {",
        "self.op_locks[Self::shard_of(hash_key(key))].maybe(|ctx| {",
    );
    assert_ne!(src, reverted, "revert must change the source");
    let (f, _) = check_files_conc(&[("crates/baselines/src/plush.rs".to_string(), reverted)]);
    assert!(
        fires(&f, RULE_CONC_ATOMICITY),
        "reverted PLUSH must be statically flagged as {RULE_CONC_ATOMICITY}: {f:?}"
    );

    // The fixed source (what is actually in the tree) is clean.
    let (twin, _) = check_files_conc(&[("crates/baselines/src/plush.rs".to_string(), src)]);
    let conc_rules_fired: Vec<&Finding> = twin
        .iter()
        .filter(|x| x.rule == RULE_CONC_ATOMICITY || x.rule == RULE_CONC_LOCKSET)
        .collect();
    assert!(
        conc_rules_fired.is_empty(),
        "fixed PLUSH must be clean: {conc_rules_fired:?}"
    );
}

// Canary 2: lock released before the dependent write — the probe runs
// under the bucket lock but the write lands after the region closed.
#[test]
fn canary_lock_released_before_dependent_write() {
    let (f, _) = conc(
        "fn insert(&self, ctx: &mut MemCtx, k: u64) {\n\
           let slot = self.bucket_locks[0].with(ctx, |ctx, _| self.probe_slot(ctx, k));\n\
           ctx.write_u64(PmAddr(slot), k);\n\
         }\n\
         fn probe_slot(&self, ctx: &mut MemCtx, k: u64) -> u64 {\n\
           ctx.read_u64(self.slot_addr(k))\n\
         }",
    );
    assert!(fires(&f, RULE_CONC_LOCKSET), "{f:?}");

    let (twin, _) = conc(
        "fn insert(&self, ctx: &mut MemCtx, k: u64) {\n\
           self.bucket_locks[0].with(ctx, |ctx, _| {\n\
             let slot = self.probe_slot(ctx, k);\n\
             ctx.write_u64(PmAddr(slot), k);\n\
           });\n\
         }\n\
         fn probe_slot(&self, ctx: &mut MemCtx, k: u64) -> u64 {\n\
           ctx.read_u64(self.slot_addr(k))\n\
         }",
    );
    assert!(
        !fires(&twin, RULE_CONC_LOCKSET) && !fires(&twin, RULE_CONC_ATOMICITY),
        "repaired twin must be clean: {twin:?}"
    );
}

// Canary 3: a CAS publication downgraded to a plain store loses the
// claim/publish discipline that made the word's writes safe.
#[test]
fn canary_rmw_downgraded_to_plain_store() {
    let (twin, _) = conc(
        "fn insert(&self, ctx: &mut MemCtx, k: u64) {\n\
           ctx.cas_u64(self.slot_addr(k), 0, k);\n\
         }",
    );
    assert!(
        !fires(&twin, RULE_CONC_LOCKSET),
        "CAS-published word must be clean: {twin:?}"
    );

    let (f, _) = conc(
        "fn insert(&self, ctx: &mut MemCtx, k: u64) {\n\
           ctx.write_u64(self.slot_addr(k), k);\n\
         }",
    );
    assert!(fires(&f, RULE_CONC_LOCKSET), "{f:?}");
}

// Canary 4: a read taken inside an HTM transaction escapes into an
// unguarded dependent write — the transaction's isolation ended at
// commit, so the checked emptiness can be invalidated before the store.
#[test]
fn canary_htm_read_escapes_to_unguarded_write() {
    let (f, _) = conc(
        "fn insert(&self, ctx: &mut MemCtx, k: u64) {\n\
           let cur = self.htm.try_transaction(ctx, |tx, ctx| Ok(ctx.read_u64(self.slot_addr(k))));\n\
           if cur == 0 {\n\
             ctx.write_u64(self.slot_addr(k), k);\n\
           }\n\
         }",
    );
    assert!(
        fires(&f, RULE_CONC_LOCKSET) || fires(&f, RULE_CONC_ATOMICITY),
        "{f:?}"
    );

    let (twin, _) = conc(
        "fn insert(&self, ctx: &mut MemCtx, k: u64) {\n\
           self.htm.try_transaction(ctx, |tx, ctx| {\n\
             if ctx.read_u64(self.slot_addr(k)) == 0 {\n\
               ctx.write_u64(self.slot_addr(k), k);\n\
             }\n\
             Ok(())\n\
           });\n\
         }",
    );
    assert!(
        !fires(&twin, RULE_CONC_LOCKSET) && !fires(&twin, RULE_CONC_ATOMICITY),
        "repaired twin must be clean: {twin:?}"
    );
}

// Canary 5: inventory misclassification — dropping the lock from one of
// a word's writers must demote its discipline from `lock:<name>` to
// unprotected, never leave it reported as locked.
#[test]
fn canary_inventory_tracks_lost_lock() {
    let row = |src: &str| -> WordRow {
        let (_, inv) = conc(src);
        inv.into_iter()
            .find(|w| w.word == "x::slot_addr")
            .expect("word inventoried")
    };
    let locked = row(
        "fn insert(&self, ctx: &mut MemCtx, k: u64) {\n\
           self.shards[0].with(ctx, |ctx, _| { ctx.write_u64(self.slot_addr(k), k); });\n\
         }\n\
         fn remove(&self, ctx: &mut MemCtx, k: u64) {\n\
           self.shards[0].with(ctx, |ctx, _| { ctx.write_u64(self.slot_addr(k), 0); });\n\
         }",
    );
    assert_eq!(
        (locked.class.as_str(), locked.discipline.as_str()),
        ("sharded", "lock:shards"),
        "{locked:?}"
    );

    let broken = row(
        "fn insert(&self, ctx: &mut MemCtx, k: u64) {\n\
           self.shards[0].with(ctx, |ctx, _| { ctx.write_u64(self.slot_addr(k), k); });\n\
         }\n\
         fn remove(&self, ctx: &mut MemCtx, k: u64) {\n\
           ctx.write_u64(self.slot_addr(k), 0);\n\
         }",
    );
    assert_eq!(broken.class, "shared", "{broken:?}");
    assert_eq!(broken.discipline, "none", "{broken:?}");
}

// Canary 6: a waiver citing a scheduler witness that does not exist is
// itself a finding — waivers must stay pinned to live dynamic twins.
#[test]
fn canary_stale_waiver_citation() {
    let (f, _) = conc(
        "// lint:allow(conc-lockset): scrubbed elsewhere sched=NoSuchThing\n\
         fn insert(&self, ctx: &mut MemCtx, k: u64) {\n\
           ctx.write_u64(self.slot_addr(k), k);\n\
         }",
    );
    assert!(
        f.iter().any(|x| x.rule == RULE_CONC_XREF && x.msg.contains("NoSuchThing")),
        "{f:?}"
    );

    let (twin, _) = conc(
        "fn insert(&self, ctx: &mut MemCtx, k: u64) {\n\
           // lint:allow(conc-lockset): deliberate for this twin sched=Halo\n\
           ctx.write_u64(self.slot_addr(k), k);\n\
         }",
    );
    assert!(
        !fires(&twin, RULE_CONC_XREF) && !fires(&twin, RULE_CONC_LOCKSET),
        "witnessed waiver must hold: {twin:?}"
    );
}
