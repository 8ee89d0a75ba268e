//! A web session store — the kind of skewed, variable-value workload the
//! paper's introduction motivates (§III-B: "real-world applications often
//! have obvious hotspots, as well as variable-sized key-value entries").
//!
//! Eight simulated worker threads serve a zipfian stream of session
//! lookups and updates over 100 k sessions with 64–512-byte payloads. The
//! demo shows the adaptive in-place update at work: hot sessions are
//! absorbed by the persistent CPU cache, and the run prints how much PM
//! write traffic that saved versus an always-flush policy.
//!
//! ```sh
//! cargo run --release --example session_store
//! ```

use std::sync::Arc;

use spash_repro::index_api::PersistentIndex;
use spash_repro::pmem::{PmConfig, PmDevice};
use spash_repro::spash::{Spash, SpashConfig, UpdatePolicy};
use spash_repro::workloads::{Rng64, Zipfian};

const SESSIONS: u64 = 100_000;
const OPS_PER_WORKER: u64 = 50_000;
const WORKERS: u64 = 8;

fn session_payload(rng: &mut Rng64, session: u64) -> Vec<u8> {
    // 64–512 bytes of "serialized session state".
    let len = 64 + (rng.next_u64() % 448) as usize;
    let mut v = vec![0u8; len];
    let tag = session.to_le_bytes();
    for (i, b) in v.iter_mut().enumerate() {
        *b = tag[i % 8] ^ i as u8;
    }
    v
}

fn run(policy: UpdatePolicy, label: &str) -> (f64, u64) {
    let dev = PmDevice::new(PmConfig {
        arena_size: 1 << 30,
        cache_capacity: 4 << 20,
        ..PmConfig::default()
    });
    let mut ctx = dev.ctx();
    let store = Arc::new(
        Spash::format(
            &mut ctx,
            SpashConfig {
                update_policy: policy,
                ..SpashConfig::default()
            },
        )
        .expect("format"),
    );

    // Load phase: create every session.
    let mut rng = Rng64::new(1);
    for s in 1..=SESSIONS {
        let payload = session_payload(&mut rng, s);
        store.insert(&mut ctx, s, &payload).unwrap();
    }

    let before = dev.snapshot();
    std::thread::scope(|scope| {
        for w in 0..WORKERS {
            let store = Arc::clone(&store);
            let dev = Arc::clone(&dev);
            scope.spawn(move || {
                let mut ctx = dev.ctx();
                let zipf = Zipfian::new(SESSIONS, 0.99);
                let mut rng = Rng64::new(100 + w);
                let mut buf = Vec::new();
                for _ in 0..OPS_PER_WORKER {
                    let session = 1 + zipf.rank(rng.next_f64());
                    if rng.below(100) < 70 {
                        // 70% session reads.
                        buf.clear();
                        assert!(store.get(&mut ctx, session, &mut buf));
                    } else {
                        // 30% session refreshes (same size class → pure
                        // in-place update).
                        let payload = session_payload(&mut rng, session);
                        store.update(&mut ctx, session, &payload).unwrap();
                    }
                }
            });
        }
    });
    dev.quiesce();
    let d = dev.snapshot().since(&before);
    let mb = d.media_write_bytes as f64 / (1 << 20) as f64;
    println!(
        "{label:<14} media writes: {mb:8.1} MiB  (XPLines {:>8}, amplification {:.2})",
        d.xp_writes,
        d.write_amplification()
    );
    (mb, d.xp_writes)
}

fn main() {
    println!(
        "session store: {SESSIONS} sessions, {} ops across {WORKERS} workers, zipfian 0.99\n",
        OPS_PER_WORKER * WORKERS
    );
    let (adaptive_mb, _) = run(UpdatePolicy::Adaptive, "adaptive");
    let (flush_mb, _) = run(UpdatePolicy::AlwaysFlush, "always-flush");
    println!(
        "\nadaptive in-place updates cut PM write traffic by {:.1}% \
         (paper §III-B / Table I: hot sessions never leave the persistent cache)",
        (1.0 - adaptive_mb / flush_mb) * 100.0
    );
}
