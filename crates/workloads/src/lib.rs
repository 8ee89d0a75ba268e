//! YCSB-style workloads (Cooper et al., SoCC'10) matching the paper's
//! evaluation setup (§VI):
//!
//! * a **load phase** inserting N unique keys;
//! * a **run phase** of search/update mixes — read-intensive (90:10),
//!   balanced (50:50), write-intensive (10:90) — over a zipfian(0.99) or
//!   uniform key popularity;
//! * inline (6-byte) or variable-sized values (paper: 16 B–1024 B).
//!
//! Generators are deterministic per `(seed, thread)` so runs are
//! reproducible, and expose the true hot set for the oracle hotspot
//! detector ablation (Fig 12a).

pub mod openloop;
pub mod zipf;

pub use zipf::{Rng64, Zipfian};

use spash_index_api::hash_key;

/// Key popularity distribution for the run phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Distribution {
    Uniform,
    /// YCSB zipfian with the default skew 0.99.
    Zipfian,
}

/// Operation mix of the run phase (fractions in percent).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mix {
    pub search_pct: u8,
    pub update_pct: u8,
    pub insert_pct: u8,
    pub delete_pct: u8,
}

impl Mix {
    /// Paper: "read-intensive (search:update = 90:10)".
    pub const READ_INTENSIVE: Mix = Mix {
        search_pct: 90,
        update_pct: 10,
        insert_pct: 0,
        delete_pct: 0,
    };
    /// Paper: "balanced (search:update = 50:50)".
    pub const BALANCED: Mix = Mix {
        search_pct: 50,
        update_pct: 50,
        insert_pct: 0,
        delete_pct: 0,
    };
    /// Paper: "write-intensive (search:update = 10:90)".
    pub const WRITE_INTENSIVE: Mix = Mix {
        search_pct: 10,
        update_pct: 90,
        insert_pct: 0,
        delete_pct: 0,
    };
    pub const SEARCH_ONLY: Mix = Mix {
        search_pct: 100,
        update_pct: 0,
        insert_pct: 0,
        delete_pct: 0,
    };
    pub const UPDATE_ONLY: Mix = Mix {
        search_pct: 0,
        update_pct: 100,
        insert_pct: 0,
        delete_pct: 0,
    };
    /// The service lin-check's mix: every op kind equally likely, so
    /// tasks over a tiny key space collide on inserts, updates, removes
    /// and reads.
    pub const COLLIDING: Mix = Mix {
        search_pct: 25,
        update_pct: 25,
        insert_pct: 25,
        delete_pct: 25,
    };

    fn validate(&self) {
        assert_eq!(
            self.search_pct as u32
                + self.update_pct as u32
                + self.insert_pct as u32
                + self.delete_pct as u32,
            100,
            "mix must sum to 100"
        );
    }
}

/// One generated operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WorkOp {
    Search(u64),
    Update(u64, Vec<u8>),
    Insert(u64, Vec<u8>),
    Delete(u64),
}

/// The harness-side spelling of the same operation (the service
/// front-end and its lin-check take `SweepOp`s).
impl From<WorkOp> for spash_index_api::crashpoint::SweepOp {
    fn from(op: WorkOp) -> Self {
        match op {
            WorkOp::Search(k) => Self::Get(k),
            WorkOp::Update(k, v) => Self::Update(k, v),
            WorkOp::Insert(k, v) => Self::Insert(k, v),
            WorkOp::Delete(k) => Self::Remove(k),
        }
    }
}

/// How values are sized.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ValueSize {
    /// 6-byte inline values (the paper's "inlined key-value entries").
    Inline,
    /// Fixed-size byte values (the paper sweeps 16–1024 B).
    Fixed(usize),
}

/// Workload configuration.
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    /// Keys loaded in the load phase (key space = `1..=n_keys`).
    pub n_keys: u64,
    pub dist: Distribution,
    pub mix: Mix,
    pub value: ValueSize,
    pub seed: u64,
}

impl WorkloadConfig {
    pub fn new(n_keys: u64, dist: Distribution, mix: Mix, value: ValueSize) -> Self {
        mix.validate();
        Self {
            n_keys,
            dist,
            mix,
            value,
            seed: 0x5eed,
        }
    }

    /// The `frac` most popular keys under the configured distribution —
    /// feeds the oracle hotspot detector (Fig 12a). Returns key hashes.
    pub fn hot_set_hashes(&self, frac: f64) -> Vec<u64> {
        let take = ((self.n_keys as f64 * frac) as u64).max(1);
        // Rank r maps to key keys[r] under the generator's permutation.
        (0..take).map(|r| hash_key(self.rank_to_key(r))).collect()
    }

    /// Deterministic rank→key **bijection**: popularity rank `r` maps to a
    /// pseudo-random key in `1..=n_keys` so hot keys are spread over the
    /// hash space (YCSB's "scrambled zipfian"). A 4-round Feistel network
    /// with cycle-walking makes it an exact permutation — every rank is a
    /// distinct key, so the load phase inserts exactly `n_keys` entries.
    pub fn rank_to_key(&self, r: u64) -> u64 {
        debug_assert!(r < self.n_keys);
        // Even bit-width so both Feistel halves are equal (a balanced
        // Feistel network is trivially a bijection).
        let bits = (64 - (self.n_keys - 1).leading_zeros()).max(2).next_multiple_of(2);
        let half = bits / 2;
        let mask = (1u64 << half) - 1;
        let mut x = r;
        loop {
            let mut l = x >> half;
            let mut rr = x & mask;
            for round in 0..4u64 {
                let f = hash_key(rr ^ self.seed.wrapping_add(round * 0x9e37)) & mask;
                let nl = rr;
                rr = l ^ f;
                l = nl;
            }
            x = l << half | rr;
            if x < self.n_keys {
                return 1 + x;
            }
        }
    }
}

/// Rank-space partition for thread `tid` of `threads`: the same
/// `div_ceil`-sized chunking as the benchmark harness's `my_chunk`, so a
/// load phase that inserts chunk `tid` of `load_keys` and a run phase
/// drawing from `partition_bounds` touch exactly the same keys.
pub fn partition_bounds(n: u64, threads: u64, tid: u64) -> (u64, u64) {
    debug_assert!(threads >= 1 && tid < threads);
    let per = n.div_ceil(threads);
    let lo = (tid * per).min(n);
    let hi = ((tid + 1) * per).min(n);
    (lo, hi)
}

/// Per-thread operation stream.
pub struct OpStream {
    cfg: WorkloadConfig,
    zipf: Option<Zipfian>,
    rng: Rng64,
    /// Run-phase keys are drawn from popularity ranks `[rank_lo, rank_hi)`
    /// — the full key space for shared streams, this thread's slice for
    /// partitioned ones.
    rank_lo: u64,
    rank_hi: u64,
    /// Next key for run-phase inserts.
    insert_cursor: u64,
}

impl OpStream {
    pub fn new(cfg: &WorkloadConfig, thread: u64) -> Self {
        Self::over_ranks(cfg, thread, 0, cfg.n_keys)
    }

    /// A stream restricted to thread `tid`'s rank partition (of
    /// `threads`): threads touch disjoint key sets, so the run phase is
    /// contention-free by construction — the low-contention end of the
    /// scalability sweep. A zipfian partitioned stream is skewed *within*
    /// its slice (every thread has its own private hot set).
    pub fn partitioned(cfg: &WorkloadConfig, tid: u64, threads: u64) -> Self {
        let (lo, hi) = partition_bounds(cfg.n_keys, threads, tid);
        // A degenerate empty slice (more threads than keys) falls back to
        // the shared space rather than generating nothing.
        if lo >= hi {
            Self::over_ranks(cfg, tid, 0, cfg.n_keys)
        } else {
            Self::over_ranks(cfg, tid, lo, hi)
        }
    }

    fn over_ranks(cfg: &WorkloadConfig, thread: u64, rank_lo: u64, rank_hi: u64) -> Self {
        let zipf = match cfg.dist {
            Distribution::Uniform => None,
            Distribution::Zipfian => Some(Zipfian::new(rank_hi - rank_lo, 0.99)),
        };
        Self {
            rng: Rng64::new(cfg.seed ^ (thread + 1).wrapping_mul(0xdead_beef_1234_5677)),
            zipf,
            rank_lo,
            rank_hi,
            insert_cursor: cfg.n_keys + 1 + thread * (1 << 32),
            cfg: cfg.clone(),
        }
    }

    fn pick_key(&mut self) -> u64 {
        let width = self.rank_hi - self.rank_lo;
        let r = self.rank_lo
            + match &self.zipf {
                None => self.rng.below(width),
                Some(z) => {
                    let u = self.rng.next_f64();
                    z.rank(u)
                }
            };
        self.cfg.rank_to_key(r)
    }

    /// NOTE: `rank_to_key` is not injective (it is a hash mod n); a few
    /// ranks may collide on one key, which YCSB's scrambled zipfian also
    /// accepts. Load-phase keys come from `load_keys`, which de-dups.
    fn make_value(&mut self, key: u64) -> Vec<u8> {
        match self.cfg.value {
            ValueSize::Inline => {
                let mut v = vec![0u8; 6];
                v.copy_from_slice(&key.to_le_bytes()[..6]);
                v
            }
            ValueSize::Fixed(n) => {
                let mut v = vec![0u8; n];
                let tag = key.to_le_bytes();
                for (i, b) in v.iter_mut().enumerate() {
                    *b = tag[i % 8] ^ i as u8;
                }
                v
            }
        }
    }

    /// Next run-phase operation.
    pub fn next_op(&mut self) -> WorkOp {
        let dice = self.rng.below(100) as u8;
        let m = self.cfg.mix;
        if dice < m.search_pct {
            WorkOp::Search(self.pick_key())
        } else if dice < m.search_pct + m.update_pct {
            let k = self.pick_key();
            let v = self.make_value(k);
            WorkOp::Update(k, v)
        } else if dice < m.search_pct + m.update_pct + m.insert_pct {
            let k = self.insert_cursor;
            self.insert_cursor += 1;
            let v = self.make_value(k);
            WorkOp::Insert(k, v)
        } else {
            WorkOp::Delete(self.pick_key())
        }
    }

    /// The expected value bytes for `key` (for correctness checks).
    pub fn expected_value(&mut self, key: u64) -> Vec<u8> {
        self.make_value(key)
    }
}

/// The keys of the load phase: exactly the image of the rank→key
/// bijection, so every run-phase key exists and `n_keys` entries load.
pub fn load_keys(cfg: &WorkloadConfig) -> Vec<u64> {
    (0..cfg.n_keys).map(|r| cfg.rank_to_key(r)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(dist: Distribution, mix: Mix) -> WorkloadConfig {
        WorkloadConfig::new(10_000, dist, mix, ValueSize::Inline)
    }

    #[test]
    fn load_keys_unique_and_in_range() {
        let c = cfg(Distribution::Uniform, Mix::BALANCED);
        let mut keys = load_keys(&c);
        assert_eq!(keys.len() as u64, c.n_keys);
        assert!(keys.iter().all(|&k| k >= 1 && k <= c.n_keys));
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len() as u64, c.n_keys, "rank_to_key must be a bijection");
    }

    #[test]
    fn run_keys_are_always_loaded() {
        let c = cfg(Distribution::Zipfian, Mix::BALANCED);
        let keys: std::collections::HashSet<u64> = load_keys(&c).into_iter().collect();
        let mut s = OpStream::new(&c, 0);
        for _ in 0..10_000 {
            match s.next_op() {
                WorkOp::Search(k) | WorkOp::Update(k, _) | WorkOp::Delete(k) => {
                    assert!(keys.contains(&k), "key {k} was never loaded");
                }
                WorkOp::Insert(k, _) => assert!(!keys.contains(&k)),
            }
        }
    }

    #[test]
    fn mix_ratios_roughly_hold() {
        let c = cfg(Distribution::Uniform, Mix::READ_INTENSIVE);
        let mut s = OpStream::new(&c, 1);
        let mut searches = 0;
        let n = 20_000;
        for _ in 0..n {
            if matches!(s.next_op(), WorkOp::Search(_)) {
                searches += 1;
            }
        }
        let frac = searches as f64 / n as f64;
        assert!((0.87..0.93).contains(&frac), "search fraction {frac}");
    }

    #[test]
    fn zipfian_concentrates_traffic() {
        let c = cfg(Distribution::Zipfian, Mix::SEARCH_ONLY);
        let mut s = OpStream::new(&c, 2);
        let mut counts: std::collections::HashMap<u64, u32> = Default::default();
        for _ in 0..50_000 {
            if let WorkOp::Search(k) = s.next_op() {
                *counts.entry(k).or_default() += 1;
            }
        }
        let mut v: Vec<u32> = counts.values().copied().collect();
        v.sort_unstable_by(|a, b| b.cmp(a));
        let top100: u32 = v.iter().take(100).sum();
        assert!(
            top100 as f64 / 50_000.0 > 0.4,
            "top-100 keys draw {} of 50k",
            top100
        );
    }

    #[test]
    fn hot_set_matches_top_ranks() {
        let c = cfg(Distribution::Zipfian, Mix::UPDATE_ONLY);
        let hot = c.hot_set_hashes(0.01);
        assert_eq!(hot.len(), 100);
        // The most popular key's hash must be in the set.
        assert!(hot.contains(&hash_key(c.rank_to_key(0))));
    }

    #[test]
    fn streams_are_deterministic_per_thread_and_distinct() {
        let c = cfg(Distribution::Uniform, Mix::BALANCED);
        let mut a1 = OpStream::new(&c, 0);
        let mut a2 = OpStream::new(&c, 0);
        let mut b = OpStream::new(&c, 1);
        let ops_a1: Vec<WorkOp> = (0..100).map(|_| a1.next_op()).collect();
        let ops_a2: Vec<WorkOp> = (0..100).map(|_| a2.next_op()).collect();
        let ops_b: Vec<WorkOp> = (0..100).map(|_| b.next_op()).collect();
        assert_eq!(ops_a1, ops_a2);
        assert_ne!(ops_a1, ops_b);
    }

    #[test]
    fn partition_bounds_cover_and_are_disjoint() {
        for (n, threads) in [(103u64, 4u64), (8, 8), (10_000, 7), (5, 8)] {
            let mut covered = 0;
            let mut prev_hi = 0;
            for t in 0..threads {
                let (lo, hi) = partition_bounds(n, threads, t);
                assert!(lo <= hi && hi <= n);
                assert!(lo >= prev_hi, "partitions overlap");
                prev_hi = hi;
                covered += hi - lo;
            }
            assert_eq!(covered, n, "partitions must cover the rank space");
        }
    }

    #[test]
    fn partitioned_streams_stay_in_their_slice() {
        for dist in [Distribution::Uniform, Distribution::Zipfian] {
            let c = cfg(dist, Mix::BALANCED);
            let threads = 4u64;
            // Keys owned by each slice, via the same bounds the stream uses.
            let owned: Vec<std::collections::HashSet<u64>> = (0..threads)
                .map(|t| {
                    let (lo, hi) = partition_bounds(c.n_keys, threads, t);
                    (lo..hi).map(|r| c.rank_to_key(r)).collect()
                })
                .collect();
            for t in 0..threads {
                let mut s = OpStream::partitioned(&c, t, threads);
                for _ in 0..2_000 {
                    match s.next_op() {
                        WorkOp::Search(k) | WorkOp::Update(k, _) | WorkOp::Delete(k) => {
                            assert!(owned[t as usize].contains(&k), "thread {t} drew foreign key {k}");
                        }
                        WorkOp::Insert(_, _) => {}
                    }
                }
            }
        }
    }

    #[test]
    fn partitioned_streams_are_deterministic_and_distinct() {
        let c = cfg(Distribution::Zipfian, Mix::BALANCED);
        let mut a1 = OpStream::partitioned(&c, 1, 4);
        let mut a2 = OpStream::partitioned(&c, 1, 4);
        let mut b = OpStream::partitioned(&c, 2, 4);
        let ops_a1: Vec<WorkOp> = (0..200).map(|_| a1.next_op()).collect();
        let ops_a2: Vec<WorkOp> = (0..200).map(|_| a2.next_op()).collect();
        let ops_b: Vec<WorkOp> = (0..200).map(|_| b.next_op()).collect();
        assert_eq!(ops_a1, ops_a2);
        assert_ne!(ops_a1, ops_b);
    }

    #[test]
    fn empty_partition_falls_back_to_shared_space() {
        // 5 keys, 8 threads: the last slices are empty and must degrade to
        // the full space instead of panicking or looping.
        let c = WorkloadConfig::new(5, Distribution::Uniform, Mix::BALANCED, ValueSize::Inline);
        let mut s = OpStream::partitioned(&c, 7, 8);
        for _ in 0..50 {
            match s.next_op() {
                WorkOp::Search(k) | WorkOp::Update(k, _) | WorkOp::Delete(k) => {
                    assert!((1..=5).contains(&k));
                }
                WorkOp::Insert(_, _) => {}
            }
        }
    }

    #[test]
    fn fixed_values_have_requested_size() {
        let c = WorkloadConfig::new(100, Distribution::Uniform, Mix::UPDATE_ONLY, ValueSize::Fixed(256));
        let mut s = OpStream::new(&c, 0);
        for _ in 0..50 {
            if let WorkOp::Update(_, v) = s.next_op() {
                assert_eq!(v.len(), 256);
            }
        }
    }

    #[test]
    #[should_panic(expected = "mix must sum to 100")]
    fn invalid_mix_rejected() {
        let _ = WorkloadConfig::new(
            10,
            Distribution::Uniform,
            Mix {
                search_pct: 50,
                update_pct: 20,
                insert_pct: 0,
                delete_pct: 0,
            },
            ValueSize::Inline,
        );
    }
}
