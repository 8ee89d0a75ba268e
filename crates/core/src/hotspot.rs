//! The lightweight hotspot detector (paper §III-B).
//!
//! The hash space is divided into `2^p` partitions by the highest `p` bits
//! of the key hash; each partition keeps `q` recently-accessed keys under
//! LRU replacement. A key is *hot* iff it is in its partition's list. The
//! union of per-partition lists approximates the global hot set because
//! the hash function spreads hot keys uniformly over partitions.
//!
//! The default 4096×2 = 8 K entries matches the paper's ablation ("a small
//! hot-key list with 8K entries (each partition has two hot-keys)").
//!
//! Each [`crate::Spash`] owns one detector, built untrained with the
//! index: it is volatile state, so a recovered index starts cold too. Fig
//! 12a's zero-cost oracle is [`crate::UpdatePolicy::Oracle`], not a
//! detector.

use std::sync::atomic::{AtomicU64, Ordering};

use spash_pmem::MemCtx;

/// One partition entry: `[tick:16][sig:48]`, packed so access is a single
/// atomic op. `sig` is the hash's low 48 bits; tick is a per-partition
/// wrapping counter used as LRU age.
struct Partition {
    entries: [AtomicU64; 4],
    tick: AtomicU64,
}

/// The partitioned LRU hot-key list.
pub struct PartitionedDetector {
    partitions: Box<[Partition]>,
    p_bits: u32,
    q: usize,
}

impl PartitionedDetector {
    /// `p_bits` partitions exponent, `q` keys per partition (max 4).
    pub fn new(p_bits: u32, q: usize) -> Self {
        assert!((1..=4).contains(&q), "q must be 1..=4");
        let n = 1usize << p_bits;
        Self {
            partitions: (0..n)
                .map(|_| Partition {
                    entries: Default::default(),
                    tick: AtomicU64::new(0),
                })
                .collect(),
            p_bits,
            q,
        }
    }

    /// The paper's default configuration (8 K entries).
    pub fn paper_default() -> Self {
        Self::new(12, 2)
    }
}

const SIG_MASK: u64 = (1 << 48) - 1;

impl PartitionedDetector {
    /// Record an access to a key with hash `h` and report whether the key
    /// is currently considered hot. Runs on every adaptive update.
    pub fn access(&self, ctx: &mut MemCtx, h: u64) -> bool {
        // The list fits in cache; one cached access worth of cost.
        ctx.charge_dram_cached();
        let pi = if self.p_bits == 0 {
            0
        } else {
            (h >> (64 - self.p_bits)) as usize
        };
        let part = &self.partitions[pi];
        let sig = h & SIG_MASK;
        let tick = part.tick.fetch_add(1, Ordering::Relaxed) & 0xffff;

        for e in &part.entries[..self.q] {
            let w = e.load(Ordering::Relaxed);
            if w & SIG_MASK == sig && w != 0 {
                // Hit: refresh recency.
                e.store(tick << 48 | sig, Ordering::Relaxed);
                return true;
            }
        }
        // Miss: replace the LRU (or an empty) entry; the key becomes a
        // candidate but is NOT yet hot — it must be seen again while still
        // resident to count as hot.
        let mut victim = 0;
        let mut oldest = 0;
        for (i, e) in part.entries[..self.q].iter().enumerate() {
            let w = e.load(Ordering::Relaxed);
            if w == 0 {
                victim = i;
                break;
            }
            let age = tick.wrapping_sub(w >> 48) & 0xffff;
            if age >= oldest {
                oldest = age;
                victim = i;
            }
        }
        part.entries[victim].store(tick << 48 | sig, Ordering::Relaxed);
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spash_pmem::{PmConfig, PmDevice};

    fn ctx() -> MemCtx {
        PmDevice::new(PmConfig::small_test()).ctx()
    }

    #[test]
    fn repeated_key_becomes_hot() {
        let mut c = ctx();
        let d = PartitionedDetector::new(4, 2);
        let h = 0xdead_beef;
        assert!(!d.access(&mut c, h), "first access: not hot yet");
        assert!(d.access(&mut c, h), "second access: hot");
        assert!(d.access(&mut c, h));
    }

    #[test]
    fn cold_stream_evicts_candidates() {
        let mut c = ctx();
        let d = PartitionedDetector::new(0, 2); // single partition
        let hot = 7u64;
        d.access(&mut c, hot);
        d.access(&mut c, hot);
        assert!(d.access(&mut c, hot));
        // A stream of distinct cold keys churns through the q=2 list...
        for k in 100..200u64 {
            d.access(&mut c, k);
        }
        // ...and the hot key has been evicted.
        assert!(!d.access(&mut c, hot));
    }

    #[test]
    fn hot_key_survives_sparse_cold_traffic() {
        let mut c = ctx();
        let d = PartitionedDetector::new(0, 2);
        let hot = 42u64;
        d.access(&mut c, hot);
        d.access(&mut c, hot);
        let mut hot_answers = 0;
        for i in 0..100u64 {
            // 1 cold access per 3 hot accesses: the hot key should keep
            // winning the LRU race.
            if i % 4 == 3 {
                d.access(&mut c, 1000 + i);
            } else if d.access(&mut c, hot) {
                hot_answers += 1;
            }
        }
        assert!(hot_answers > 60, "only {hot_answers} hot answers");
    }

    #[test]
    fn partitions_are_independent() {
        let mut c = ctx();
        let d = PartitionedDetector::new(8, 1);
        // Two keys in different partitions (different top bits).
        let a = 5;
        let b = 0xffu64 << 56 | 5;
        d.access(&mut c, a);
        d.access(&mut c, b);
        assert!(d.access(&mut c, a));
        assert!(d.access(&mut c, b));
    }

    #[test]
    fn zipfian_stream_hot_hit_rate() {
        // Under a skewed stream, the detector should call the top key hot
        // most of the time.
        let mut c = ctx();
        let d = PartitionedDetector::paper_default();
        let mut state = 12345u64;
        let mut hot_hits = 0;
        let mut hot_total = 0;
        for _ in 0..20_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            // ~50% of accesses to one of 4 hot keys, rest uniform cold.
            let k = if state >> 63 == 0 {
                state >> 32 & 3
            } else {
                1000 + (state >> 20 & 0xffff)
            };
            let h = spash_index_api::hash_key(k);
            let hot = d.access(&mut c, h);
            if k < 4 {
                hot_total += 1;
                if hot {
                    hot_hits += 1;
                }
            }
        }
        let rate = hot_hits as f64 / hot_total as f64;
        assert!(rate > 0.7, "hot detection rate only {rate:.2}");
    }
}
