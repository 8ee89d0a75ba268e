//! The shared-PM-word inventory is a machine-readable artifact other
//! tooling (CI, the docs matrix) consumes, so its bytes are pinned: a
//! fixture golden for the full `spash-lint conc --json` report, plus
//! determinism and clean-tree gates over the real workspace.

use std::path::Path;

use spash_analysis::conc_rules::run;
use spash_analysis::lint::report_json;
use spash_analysis::tree::{Sink, Tree};

// Golden: the full conc report (schema 2 + inventory) for a two-word
// fixture — one sharded lock-disciplined word, one atomic counter.
#[test]
fn conc_json_report_is_byte_stable() {
    let files = vec![(
        "crates/baselines/src/x.rs".to_string(),
        "fn insert(&self, ctx: &mut MemCtx, k: u64) {\n  \
           self.shards[0].with(ctx, |ctx, _| { ctx.write_u64(self.slot_addr(k), k); });\n\
         }\n\
         fn update(&self, ctx: &mut MemCtx, k: u64) {\n  \
           ctx.cas_u64(self.head_addr(), 0, k);\n\
         }\n\
         fn get(&self, ctx: &mut MemCtx, k: u64) -> u64 {\n  \
           ctx.read_u64(self.slot_addr(k))\n\
         }"
        .to_string(),
    )];
    let mut sink = Sink::default();
    let inv = run(&Tree::from_files(files), &mut sink);
    let (f, stats) = sink.finish();
    let got = report_json("conc", 1, &f, &stats, Some(&inv)).render();
    let want = concat!(
        "{\n",
        "  \"schema\": 2,\n",
        "  \"tool\": \"spash-lint\",\n",
        "  \"mode\": \"conc\",\n",
        "  \"files_scanned\": 1,\n",
        "  \"violations\": 0,\n",
        "  \"rule_stats\": {\n",
        "    \"conc-atomicity\": {\n",
        "      \"findings\": 0,\n",
        "      \"waived\": 0,\n",
        "      \"virt_ns\": 14\n",
        "    },\n",
        "    \"conc-lockset\": {\n",
        "      \"findings\": 0,\n",
        "      \"waived\": 0,\n",
        "      \"virt_ns\": 14\n",
        "    },\n",
        "    \"conc-waiver-xref\": {\n",
        "      \"findings\": 0,\n",
        "      \"waived\": 0,\n",
        "      \"virt_ns\": 9\n",
        "    }\n",
        "  },\n",
        "  \"findings\": [],\n",
        "  \"inventory\": [\n",
        "    {\n",
        "      \"word\": \"x::head_addr\",\n",
        "      \"class\": \"shared\",\n",
        "      \"discipline\": \"atomic\",\n",
        "      \"reads\": 0,\n",
        "      \"writes\": 0,\n",
        "      \"rmws\": 1,\n",
        "      \"locks\": []\n",
        "    },\n",
        "    {\n",
        "      \"word\": \"x::slot_addr\",\n",
        "      \"class\": \"sharded\",\n",
        "      \"discipline\": \"lock:shards\",\n",
        "      \"reads\": 1,\n",
        "      \"writes\": 1,\n",
        "      \"rmws\": 0,\n",
        "      \"locks\": [\n",
        "        \"shards\"\n",
        "      ]\n",
        "    }\n",
        "  ]\n",
        "}\n",
    );
    assert_eq!(got, want);
}

// The real tree: `spash-lint conc` must be clean (only reasoned,
// witness-cited waivers), and two independent runs must render
// byte-identical reports — the inventory is deterministic.
#[test]
fn real_tree_is_clean_and_deterministic() {
    let root = Path::new("../..");
    let conc_of_tree = |root| {
        let tree = Tree::load(root).expect("walk workspace");
        let mut sink = Sink::default();
        let inv = run(&tree, &mut sink);
        let (f, s) = sink.finish();
        (tree.files.len(), f, inv, s)
    };
    let (n1, f1, inv1, s1) = conc_of_tree(root);
    let (n2, f2, inv2, s2) = conc_of_tree(root);
    assert!(
        f1.is_empty(),
        "spash-lint conc must be clean on the tree: {f1:?}"
    );
    let r1 = report_json("conc", n1, &f1, &s1, Some(&inv1)).render();
    let r2 = report_json("conc", n2, &f2, &s2, Some(&inv2)).render();
    assert_eq!(r1, r2, "conc report must be byte-stable across runs");

    // The inventory covers the load-bearing words of every index: spot
    // checks that each baseline family contributed rows and that the
    // known disciplines survived.
    for stem in ["cceh::", "dash::", "clevel::", "level::", "plush::", "halo::"] {
        assert!(
            inv1.iter().any(|w| w.word.starts_with(stem)),
            "inventory lost all {stem} words"
        );
    }
    // PLUSH's op-lock discipline is what canary 1 reverts; the fixed
    // tree must report its shared words as op_locks-protected, never
    // "none".
    assert!(
        inv1.iter()
            .any(|w| w.word.starts_with("plush::") && w.locks.iter().any(|l| l == "op_locks")),
        "PLUSH op_locks discipline missing from inventory"
    );
    for w in inv1.iter().filter(|w| w.word.starts_with("plush::")) {
        assert_ne!(
            w.discipline, "none",
            "fixed PLUSH word left unprotected: {w:?}"
        );
    }
}
