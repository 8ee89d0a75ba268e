//! Small shared helpers: order statistics, seeded key/value functions,
//! host memory, and the host chunk clock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use spash_index_api::hash_key;

/// Ops per host-time chunk (`host_ns_per_op` is the median chunk).
pub const CHUNK_OPS: u64 = 4096;
/// Ops per closed-loop batch handed to `PersistentIndex::run_batch`.
pub const BATCH_OPS: usize = 64;
/// Ops generated per generator call, with the host clock stopped.
pub const GEN_CHUNK_OPS: u64 = 64 * 1024;

/// Quantile `p` in `[0,1]` of an ascending-sorted slice, linearly
/// interpolated between ranks (so lumpy integer samples still resolve).
pub fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty());
    let pos = p * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// `(q1, median, q3)` of unsorted samples.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    (
        quantile_sorted(&s, 0.25),
        quantile_sorted(&s, 0.5),
        quantile_sorted(&s, 0.75),
    )
}

pub fn median(samples: &[f64]) -> f64 {
    quartiles(samples).1
}

/// Sort latencies and return `(p50, p999)`.
pub fn latency_percentiles(lat: &mut [u64]) -> (f64, f64) {
    lat.sort_unstable();
    let f: Vec<f64> = lat.iter().map(|&v| v as f64).collect();
    (quantile_sorted(&f, 0.5), quantile_sorted(&f, 0.999))
}

/// Seed-dependent key space: a bijection from a dense index (the
/// generators' `1..=n` keys, absent-key offsets, churn insertion
/// counters) onto 44-bit keys, so the key *set* — and with it the table
/// shape — varies with `--seed`, not just the order keys arrive in.
#[derive(Clone, Copy)]
pub struct KeySpace {
    salt: u64,
}

impl KeySpace {
    const MASK: u64 = (1 << 44) - 1;

    pub fn new(seed: u64) -> Self {
        Self {
            salt: hash_key(seed ^ 0x6b65_7973),
        }
    }

    #[inline]
    pub fn key(&self, i: u64) -> u64 {
        debug_assert!(i <= Self::MASK);
        // Odd multiplier: a bijection on Z/2^44.
        1 + (i
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(self.salt)
            & Self::MASK)
    }
}

/// The value stored under `key` at version `ver`: `len` bytes that are a
/// pure function of `(key, ver)`, so the shadow model only remembers
/// `(ver, len)`.
pub fn value_into(key: u64, ver: u32, len: usize, out: &mut Vec<u8>) {
    let base = key ^ (ver as u64) << 45;
    let mut j = 0u64;
    let end = out.len() + len;
    while out.len() < end {
        let w = hash_key(base.wrapping_add(j)).to_le_bytes();
        let take = (end - out.len()).min(8);
        out.extend_from_slice(&w[..take]);
        j += 1;
    }
}

pub fn value_matches(key: u64, ver: u32, len: usize, got: &[u8]) -> bool {
    if got.len() != len {
        return false;
    }
    let mut want = Vec::with_capacity(len);
    value_into(key, ver, len, &mut want);
    want == got
}

/// Peak resident set (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

// --- host-speed reference --------------------------------------------------

/// Dependent-load latency this box shows when its memory system is quiet;
/// calibrated host times are scaled to it (see [`ref_sample`]).
pub const REF_NOMINAL_NS_PER_LOAD: f64 = 200.0;
const REF_WORDS: usize = 16 << 20; // 64 MiB of u32
const REF_LOADS: usize = 1_000;

static REF_BUF: std::sync::OnceLock<Vec<u32>> = std::sync::OnceLock::new();

fn ref_buf() -> &'static [u32] {
    REF_BUF.get_or_init(|| {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        (0..REF_WORDS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % REF_WORDS as u64) as u32
            })
            .collect()
    })
}

/// Build the reference buffer now, outside anything that is timed.
pub fn ref_init() {
    ref_buf();
}

/// One sample of the host's memory speed: ns per load of a chain of
/// [`REF_LOADS`] dependent random loads over a 64 MiB buffer of the
/// benchmark's own.
///
/// The simulator is bound by memory latency on the host (a 256 MiB arena
/// plus the cache-model and HTM tables, all accessed at random), and this
/// box shares its memory system with other tenants: the same binary on the
/// same inputs runs 10–40 % slower for minutes at a time, in step with this
/// chain and not with a compute-only loop. Host metrics are therefore
/// reported *calibrated*: measured time x ([`REF_NOMINAL_NS_PER_LOAD`] /
/// the median sample taken alongside). The program under test never
/// touches the buffer, so a change to the program cannot move the
/// reference.
pub fn ref_sample(salt: u64) -> f64 {
    let buf = ref_buf();
    let mut i = (salt.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40) as usize % REF_WORDS;
    let t = Instant::now();
    for _ in 0..REF_LOADS {
        i = buf[i] as usize;
    }
    std::hint::black_box(i);
    t.elapsed().as_nanos() as f64 / REF_LOADS as f64
}

/// Host-time chunking over *system-wide* completed ops: one sample per
/// [`CHUNK_OPS`] ops, whichever task executed them. Under the cooperative
/// scheduler exactly one task runs at a time, so the wall time between
/// two crossings is the host cost of those ops including baton handoffs.
/// `pause`/`resume` stop the clock around input generation and checking;
/// `pause` closes a partial chunk, so the samples add up to the time the
/// clock ran. Inputs are a function of the seed, so chunk `i` covers the
/// same ops in every repeat of an invocation. Every chunk boundary also
/// takes one [`ref_sample`], with the clock stopped.
pub struct ChunkClock {
    ops: AtomicU64,
    inner: Mutex<ChunkInner>,
}

struct ChunkInner {
    last: Instant,
    ops_at_last: u64,
    running: bool,
    /// `(host ns, ops)` per chunk.
    samples: Vec<(f64, u64)>,
    refs: Vec<f64>,
    /// Host ns spent taking reference samples (not part of any chunk).
    ref_overhead_ns: u64,
}

impl ChunkClock {
    pub fn new() -> Self {
        Self {
            ops: AtomicU64::new(0),
            inner: Mutex::new(ChunkInner {
                last: Instant::now(),
                ops_at_last: 0,
                running: false,
                samples: Vec::new(),
                refs: Vec::new(),
                ref_overhead_ns: 0,
            }),
        }
    }

    fn close_chunk(&self, g: &mut ChunkInner, total: u64) {
        let now = Instant::now();
        g.samples.push((
            now.duration_since(g.last).as_nanos() as f64,
            total - g.ops_at_last,
        ));
        g.refs.push(ref_sample(total));
        g.last = Instant::now();
        g.ref_overhead_ns += g.last.duration_since(now).as_nanos() as u64;
        g.ops_at_last = total;
    }

    pub fn resume(&self) {
        let mut g = self.inner.lock().expect("chunk clock poisoned");
        g.last = Instant::now();
        g.ops_at_last = self.ops.load(Ordering::Relaxed);
        g.running = true;
    }

    pub fn pause(&self) {
        let mut g = self.inner.lock().expect("chunk clock poisoned");
        let total = self.ops.load(Ordering::Relaxed);
        if g.running && total > g.ops_at_last {
            self.close_chunk(&mut g, total);
        }
        g.running = false;
    }

    /// Record `n` completed ops.
    #[inline]
    pub fn tick(&self, n: u64) {
        let total = self.ops.fetch_add(n, Ordering::Relaxed) + n;
        if total / CHUNK_OPS != (total - n) / CHUNK_OPS {
            let mut g = self.inner.lock().expect("chunk clock poisoned");
            self.close_chunk(&mut g, total);
        }
    }

    /// The `(host ns, ops)` chunks recorded so far.
    pub fn chunks(&self) -> Vec<(f64, u64)> {
        self.inner
            .lock()
            .expect("chunk clock poisoned")
            .samples
            .clone()
    }

    /// Median reference sample (ns per load) over the clock's lifetime.
    pub fn ref_ns_per_load(&self) -> f64 {
        median(&self.inner.lock().expect("chunk clock poisoned").refs)
    }

    pub fn ref_overhead_ns(&self) -> u64 {
        self.inner
            .lock()
            .expect("chunk clock poisoned")
            .ref_overhead_ns
    }
}

/// `(median ns/op, p99 ns/op, ops per host second)` of a chunk series.
pub fn chunk_summary(chunks: &[(f64, u64)]) -> (f64, f64, f64) {
    let mut per_op: Vec<f64> = chunks.iter().map(|&(ns, ops)| ns / ops as f64).collect();
    per_op.sort_by(f64::total_cmp);
    let (ns, ops) = chunks
        .iter()
        .fold((0.0, 0u64), |(a, b), &(ns, ops)| (a + ns, b + ops));
    (
        quantile_sorted(&per_op, 0.5),
        quantile_sorted(&per_op, 0.99),
        ops as f64 * 1e9 / ns,
    )
}
