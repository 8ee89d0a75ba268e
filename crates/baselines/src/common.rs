//! Helpers shared by the baseline indexes.
//!
//! * a uniform value-word encoding (inline ≤7 bytes, or a pointer to an
//!   out-of-place `[key][len][value]` blob);
//! * a PM-resident reader-writer lock whose acquisition *writes PM* — the
//!   behaviour the paper calls out for CCEH and Level hashing ("produce
//!   PM writes to maintain read locks", §VI-B).

use std::collections::HashSet;

use spash_alloc::PmAllocator;
use spash_index_api::IndexError;
use spash_pmem::{MemCtx, PmAddr, VRwLock};

/// Sentinel key for an empty slot. Baseline workloads must use non-zero
/// keys (they do; the YCSB generator starts at 1).
pub const EMPTY_KEY: u64 = 0;
/// Sentinel key for a lazily-deleted slot (CCEH-style tombstone).
pub const TOMBSTONE: u64 = u64::MAX;

const BLOB_TAG: u64 = 0xff;

/// Pack a value word: inline for ≤7 bytes (`[len:8][bytes:56]`), blob tag
/// otherwise.
pub fn pack_inline(v: &[u8]) -> Option<u64> {
    if v.len() > 7 {
        return None;
    }
    let mut le = [0u8; 8];
    le[..v.len()].copy_from_slice(v);
    le[7] = v.len() as u8;
    Some(u64::from_le_bytes(le))
}

/// Pack a blob pointer into a value word.
pub fn pack_blob(addr: PmAddr) -> u64 {
    debug_assert!(addr.0 < 1 << 48);
    BLOB_TAG << 56 | addr.0
}

/// A decoded value word.
pub enum ValWord {
    Inline { bytes: [u8; 7], len: usize },
    Blob(PmAddr),
}

/// Decode a value word.
pub fn unpack_val(word: u64) -> ValWord {
    let le = word.to_le_bytes();
    if le[7] == BLOB_TAG as u8 {
        ValWord::Blob(PmAddr(word & ((1 << 48) - 1)))
    } else {
        let mut bytes = [0u8; 7];
        bytes.copy_from_slice(&le[..7]);
        ValWord::Inline {
            bytes,
            len: le[7] as usize,
        }
    }
}

/// Write an out-of-place blob `[key][len][value]`; returns its address.
pub fn write_blob(
    alloc: &PmAllocator,
    ctx: &mut MemCtx,
    key: u64,
    value: &[u8],
) -> Result<PmAddr, IndexError> {
    let a = alloc
        .alloc(ctx, 16 + value.len() as u64)
        .map_err(|_| IndexError::OutOfMemory)?;
    ctx.write_u64(a.addr, key);
    ctx.write_u64(PmAddr(a.addr.0 + 8), value.len() as u64);
    ctx.write_bytes(PmAddr(a.addr.0 + 16), value);
    // Persist the blob before the caller publishes a pointer to it: the
    // slot word must never become durable ahead of the bytes it names.
    ctx.flush_range(a.addr, 16 + value.len() as u64);
    ctx.fence();
    Ok(a.addr)
}

/// Read a blob's value into `out`.
pub fn read_blob_value(ctx: &mut MemCtx, addr: PmAddr, out: &mut Vec<u8>) {
    let len = ctx.read_u64(PmAddr(addr.0 + 8)) as usize;
    let start = out.len();
    out.resize(start + len, 0);
    ctx.read_bytes(PmAddr(addr.0 + 16), &mut out[start..]);
}

/// Free a blob.
pub fn free_blob(alloc: &PmAllocator, ctx: &mut MemCtx, addr: PmAddr) {
    let len = ctx.read_u64(PmAddr(addr.0 + 8));
    alloc.free(ctx, addr, 16 + len);
}

/// Resolve a value word into `out` (append).
pub fn append_value(ctx: &mut MemCtx, word: u64, out: &mut Vec<u8>) {
    match unpack_val(word) {
        ValWord::Inline { bytes, len } => out.extend_from_slice(&bytes[..len]),
        ValWord::Blob(addr) => read_blob_value(ctx, addr, out),
    }
}

/// Free whatever a value word owns.
pub fn free_val(alloc: &PmAllocator, ctx: &mut MemCtx, word: u64) {
    if let ValWord::Blob(addr) = unpack_val(word) {
        free_blob(alloc, ctx, addr);
    }
}

/// Build a value word for `value`, inlining when possible.
pub fn make_val(
    alloc: &PmAllocator,
    ctx: &mut MemCtx,
    key: u64,
    value: &[u8],
) -> Result<u64, IndexError> {
    match pack_inline(value) {
        Some(w) => Ok(w),
        None => Ok(pack_blob(write_blob(alloc, ctx, key, value)?)),
    }
}

/// Every baseline's post-recovery audit
/// ([`spash_index_api::crashpoint::Recovered::audit`]): census the heap
/// and audit it ([`spash_alloc::HeapCensus::audit`]) against the
/// addresses the recovered index can reach (region starts and blob
/// addresses), then check the allocator's high-water invariant
/// ([`PmAllocator::check_high_water`]). The caller has already walked the
/// index for `reachable`; the census reads come second.
pub(crate) fn audit(reachable: &HashSet<u64>, ctx: &mut MemCtx) -> (u64, Option<String>) {
    let (leaked_allocs, audit_error) = match PmAllocator::census(ctx) {
        Some(census) => census.audit(reachable),
        None => (0, Some("no formatted heap found".into())),
    };
    (leaked_allocs, audit_error.or_else(|| PmAllocator::check_high_water(ctx).err()))
}

/// A reader-writer lock whose lock word lives in PM: every acquisition and
/// release dirties the lock's cacheline (counted as a PM write), exactly
/// the overhead the paper attributes to CCEH/Level read locks. Mutual
/// exclusion and virtual-time serialization come from the embedded
/// [`VRwLock`].
pub struct PmRwLock {
    vrw: VRwLock<()>,
    word: PmAddr,
}

impl PmRwLock {
    /// `word` must point at an 8-byte PM location reserved for the lock.
    pub fn new(word: PmAddr) -> Self {
        Self {
            vrw: VRwLock::new(()),
            word,
        }
    }

    /// Shared lock; maintains the PM reader count (2 PM writes).
    pub fn read<R>(&self, ctx: &mut MemCtx, f: impl FnOnce(&mut MemCtx) -> R) -> R {
        // Lock words are dirty by design and never flushed: recovery
        // never trusts lock state, so the sanitizer must not flag them.
        ctx.san_transient(self.word, 8);
        self.vrw.read(ctx, |ctx, _| {
            ctx.fetch_or_u64(self.word, 0); // reader-count RMW
            let r = f(ctx);
            ctx.fetch_or_u64(self.word, 0);
            r
        })
    }

    /// Exclusive lock (2 PM writes).
    pub fn write<R>(&self, ctx: &mut MemCtx, f: impl FnOnce(&mut MemCtx) -> R) -> R {
        ctx.san_transient(self.word, 8);
        // lint:allow(flow-flush-fence): the lock word is declared san_transient above -- recovery never trusts lock state, so its dirtiness at release is not a publication. san=none(lock word is transient by design)
        self.vrw.write(ctx, |ctx, _| {
            ctx.write_u64(self.word, 1);
            let r = f(ctx);
            ctx.write_u64(self.word, 0);
            r
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spash_pmem::{PmConfig, PmDevice};

    #[test]
    fn inline_pack_roundtrip() {
        for v in [&b""[..], b"a", b"sixby!", b"seven77"] {
            let w = pack_inline(v).unwrap();
            match unpack_val(w) {
                ValWord::Inline { bytes, len } => assert_eq!(&bytes[..len], v),
                ValWord::Blob(_) => panic!("should be inline"),
            }
        }
        assert!(pack_inline(b"eight888").is_none());
    }

    #[test]
    fn blob_roundtrip() {
        let dev = PmDevice::new(PmConfig::small_test());
        let mut ctx = dev.ctx();
        let alloc = PmAllocator::format(&mut ctx, 0);
        let val = vec![9u8; 500];
        let w = make_val(&alloc, &mut ctx, 42, &val).unwrap();
        let mut out = Vec::new();
        append_value(&mut ctx, w, &mut out);
        assert_eq!(out, val);
        match unpack_val(w) {
            ValWord::Blob(addr) => assert_eq!(ctx.read_u64(addr), 42),
            _ => panic!("should be blob"),
        }
        free_val(&alloc, &mut ctx, w);
    }

    #[test]
    fn pm_lock_counts_pm_writes_on_read() {
        let dev = PmDevice::new(PmConfig::small_test());
        let mut ctx = dev.ctx();
        let lock = PmRwLock::new(PmAddr(4096));
        let before = dev.snapshot();
        lock.read(&mut ctx, |_| ());
        dev.flush_cache_all();
        let d = dev.snapshot().since(&before);
        assert!(
            d.cl_writes >= 1,
            "read-lock maintenance must dirty PM (got {} writebacks)",
            d.cl_writes
        );
    }
}
