//! The common interface implemented by Spash and by every baseline hash
//! index from the paper's evaluation (§VI-A: CCEH, Dash, Level hashing,
//! CLevel, Plush, Halo).
//!
//! Keys are 64-bit; the paper's micro-benchmarks use 8 B keys and 8 B
//! values stored inline, and the macro-benchmarks use 16 B keys with
//! 16–1024 B values stored out-of-place behind pointers. The trait exposes
//! both paths:
//!
//! * the byte API (`insert`/`update`/`get`/`remove`) for variable-sized
//!   values;
//! * the `_u64` fast path for inline values of at most 48 bits (Spash
//!   reserves the upper 16 bits of each slot word for fingerprints and
//!   overflow hints, §III-A, so 48 bits is the inline payload width).

use spash_pmem::MemCtx;

pub mod crashpoint;
pub mod history;
pub mod rng;

pub use rng::Rng64;

/// Largest value storable inline in a compound slot.
pub const MAX_INLINE_VALUE: u64 = (1 << 48) - 1;

/// Errors shared by all index implementations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IndexError {
    /// Insert of a key that is already present.
    DuplicateKey,
    /// Update/remove of a key that is not present.
    NotFound,
    /// The persistent heap or the structure itself is full.
    OutOfMemory,
    /// Value exceeds what the implementation can store.
    ValueTooLarge,
    /// `format` refused an arena of `size` bytes: the index addresses at
    /// most `max`.
    ArenaTooLarge { size: u64, max: u64 },
}

impl std::fmt::Display for IndexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexError::DuplicateKey => write!(f, "key already present"),
            IndexError::NotFound => write!(f, "key not found"),
            IndexError::OutOfMemory => write!(f, "index or heap out of memory"),
            IndexError::ValueTooLarge => write!(f, "value too large"),
            IndexError::ArenaTooLarge { size, max } => {
                write!(f, "arena of {size} B exceeds the {max} B the index can address")
            }
        }
    }
}

impl std::error::Error for IndexError {}

/// A concurrent, crash-consistent persistent hash index.
///
/// All methods take `&self` plus the calling thread's [`MemCtx`]; an index
/// is shared across simulated threads by reference.
pub trait PersistentIndex: Send + Sync {
    /// Short name used in benchmark tables ("Spash", "CCEH", ...).
    fn name(&self) -> &'static str;

    /// Insert a new key with a byte value. `Err(DuplicateKey)` if present.
    fn insert(&self, ctx: &mut MemCtx, key: u64, value: &[u8]) -> Result<(), IndexError>;

    /// Update an existing key's value. `Err(NotFound)` if absent.
    fn update(&self, ctx: &mut MemCtx, key: u64, value: &[u8]) -> Result<(), IndexError>;

    /// Look up `key`, appending the value to `out`. Returns `true` on hit.
    fn get(&self, ctx: &mut MemCtx, key: u64, out: &mut Vec<u8>) -> bool;

    /// Delete `key`. Returns `true` if it was present.
    fn remove(&self, ctx: &mut MemCtx, key: u64) -> bool;

    /// Inline fast path; value must fit [`MAX_INLINE_VALUE`].
    fn insert_u64(&self, ctx: &mut MemCtx, key: u64, value: u64) -> Result<(), IndexError> {
        debug_assert!(value <= MAX_INLINE_VALUE);
        self.insert(ctx, key, &value.to_le_bytes()[..6])
    }

    /// Inline fast path for updates.
    fn update_u64(&self, ctx: &mut MemCtx, key: u64, value: u64) -> Result<(), IndexError> {
        debug_assert!(value <= MAX_INLINE_VALUE);
        self.update(ctx, key, &value.to_le_bytes()[..6])
    }

    /// Inline fast path for lookups.
    fn get_u64(&self, ctx: &mut MemCtx, key: u64) -> Option<u64> {
        let mut buf = Vec::with_capacity(8);
        if !self.get(ctx, key, &mut buf) {
            return None;
        }
        let mut le = [0u8; 8];
        let n = buf.len().min(8);
        le[..n].copy_from_slice(&buf[..n]);
        Some(u64::from_le_bytes(le))
    }

    /// Number of live key-value entries.
    fn entries(&self) -> u64;

    /// Total key-value slot capacity currently allocated — the load factor
    /// denominator for Fig 9 (`entries / capacity_slots`).
    fn capacity_slots(&self) -> u64;

    /// Execute a batch of operations. The default runs them serially;
    /// indexes with a pipeline (Spash, §III-D) override this to overlap
    /// PM reads across requests.
    fn run_batch(&self, ctx: &mut MemCtx, ops: &[BatchOp<'_>], out: &mut Vec<BatchResult>) {
        for op in ops {
            out.push(run_one(self, ctx, op));
        }
    }

    /// The load factor as defined by the paper (§VI-B).
    fn load_factor(&self) -> f64 {
        let cap = self.capacity_slots();
        if cap == 0 {
            0.0
        } else {
            self.entries() as f64 / cap as f64
        }
    }
}

/// One operation in a pipelined batch (§III-D of the paper: each core
/// executes several requests concurrently, overlapping their PM reads).
#[derive(Clone, Copy, Debug)]
pub enum BatchOp<'a> {
    Insert(u64, &'a [u8]),
    Update(u64, &'a [u8]),
    Get(u64),
    Remove(u64),
}

/// The result of one batched operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BatchResult {
    Inserted(Result<(), IndexError>),
    Updated(Result<(), IndexError>),
    Got(Option<Vec<u8>>),
    Removed(bool),
}

/// Execute a single batch op through the base trait.
pub fn run_one<I: PersistentIndex + ?Sized>(
    index: &I,
    ctx: &mut MemCtx,
    op: &BatchOp<'_>,
) -> BatchResult {
    match *op {
        BatchOp::Insert(k, v) => BatchResult::Inserted(index.insert(ctx, k, v)),
        BatchOp::Update(k, v) => BatchResult::Updated(index.update(ctx, k, v)),
        BatchOp::Get(k) => {
            let mut buf = Vec::new();
            if index.get(ctx, k, &mut buf) {
                BatchResult::Got(Some(buf))
            } else {
                BatchResult::Got(None)
            }
        }
        BatchOp::Remove(k) => BatchResult::Removed(index.remove(ctx, k)),
    }
}

/// The hash function shared by every index in the repository, so that PM
/// access comparisons are apples-to-apples. xxHash-style avalanche mixer
/// over the key (keys are already 64-bit).
#[inline]
pub fn hash_key(key: u64) -> u64 {
    let mut h = (key ^ 0x517c_c1b7_2722_0a95).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h ^= h >> 31;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^= h >> 33;
    h
}

/// 64-bit FNV-1a, fed in pieces: the one byte-stream hash behind value
/// fingerprints ([`history::fingerprint`]) and schedule identities
/// (`spash_sched::Trace::hash`).
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Fnv1a {
    pub const fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The published FNV-1a 64 test vectors, fed whole and in pieces.
    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(Fnv1a::new().finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv1a::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv1a::new();
        h.write(b"foo");
        let mut pieces = Fnv1a::new();
        pieces.write(b"f");
        pieces.write(b"oo");
        assert_eq!(h.finish(), 0xdcb2_7518_fed9_d577);
        assert_eq!(pieces.finish(), h.finish());
    }

    #[test]
    fn hash_is_deterministic_and_spreads() {
        assert_eq!(hash_key(42), hash_key(42));
        // Sequential keys must land in different high-bit prefixes most of
        // the time (the extendible directory uses the top bits).
        let mut tops = std::collections::HashSet::new();
        for k in 0..1000u64 {
            tops.insert(hash_key(k) >> 56);
        }
        assert!(tops.len() > 200, "only {} distinct prefixes", tops.len());
    }

    #[test]
    fn hash_zero_not_degenerate() {
        assert_ne!(hash_key(0), 0);
    }

    #[test]
    fn max_inline_value_is_48_bits() {
        assert_eq!(MAX_INLINE_VALUE, 0x0000_ffff_ffff_ffff);
    }

    #[test]
    fn error_display() {
        assert_eq!(IndexError::NotFound.to_string(), "key not found");
        assert_eq!(IndexError::DuplicateKey.to_string(), "key already present");
    }
}
