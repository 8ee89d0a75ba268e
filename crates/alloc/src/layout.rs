//! Persistent arena layout: superblock, reserved region, chunk-header
//! table, heap chunks.
//!
//! ```text
//! +------------+------------------+---------------------+----------------+
//! | superblock | reserved region  | chunk header table  | heap chunks ...|
//! | 1 XPLine   | (index metadata) | 4 B per heap chunk  | 256 B each     |
//! +------------+------------------+---------------------+----------------+
//!
//! superblock, first cacheline (eight words):
//! +-------+-------+----------+----------+----------+----------+----------+-----------+
//! | magic | arena | reserved | reserved | table    | n_chunks | heap     | high-water|
//! |       | size  | start    | len      | start    |          | start    | mark      |
//! +-------+-------+----------+----------+----------+----------+----------+-----------+
//! ```
//!
//! The superblock records the layout so that recovery can re-derive every
//! region from offset 0 alone, and the allocator's persisted high-water
//! mark: no chunk at or above it has ever been allocated, so every header
//! from the mark on is free and the recovery walk stops there.

use spash_pmem::canary::{self, Canary};
use spash_pmem::{MemCtx, PmAddr, XPLINE};

/// Magic value identifying a formatted arena.
pub const MAGIC: u64 = 0x5350_4153_4855_4631; // "SPASHUF1"

/// Bytes of chunk-header-table entry per heap chunk.
pub const HDR_BYTES: u64 = 4;

/// One heap chunk is one XPLine (256 B) — the allocation granule and the
/// unit of the compacted-flush mechanism (paper §III-C).
pub const CHUNK: u64 = XPLINE;

/// The resolved arena layout.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Layout {
    pub reserved_start: u64,
    pub reserved_len: u64,
    pub table_start: u64,
    pub n_chunks: u64,
    pub heap_start: u64,
}

impl Layout {
    /// Compute the layout for an arena of `arena_size` bytes with a
    /// caller-reserved metadata region of `reserved_len` bytes.
    pub fn compute(arena_size: u64, reserved_len: u64) -> Layout {
        let reserved_len = reserved_len.div_ceil(XPLINE) * XPLINE;
        let reserved_start = XPLINE; // after the superblock
        let table_start = reserved_start + reserved_len;
        // Solve: table(4 B/chunk, XPLine-rounded) + chunks*256 <= remaining.
        let remaining = arena_size
            .checked_sub(table_start)
            .expect("arena too small for reserved region");
        let n_chunks = remaining / (CHUNK + HDR_BYTES);
        let table_len = (n_chunks * HDR_BYTES).div_ceil(XPLINE) * XPLINE;
        let heap_start = table_start + table_len;
        let n_chunks = (arena_size - heap_start) / CHUNK;
        assert!(n_chunks > 0, "arena too small for any heap chunk");
        Layout {
            reserved_start,
            reserved_len,
            table_start,
            n_chunks,
            heap_start,
        }
    }

    /// Address of chunk `i`.
    #[inline]
    pub fn chunk_addr(&self, i: u64) -> PmAddr {
        debug_assert!(i < self.n_chunks);
        PmAddr(self.heap_start + i * CHUNK)
    }

    /// Chunk index of an address inside the heap.
    #[inline]
    pub fn chunk_of(&self, addr: PmAddr) -> u64 {
        debug_assert!(addr.0 >= self.heap_start);
        (addr.0 - self.heap_start) / CHUNK
    }

    /// Byte address of chunk `i`'s 4-byte header entry.
    #[inline]
    pub fn header_addr(&self, i: u64) -> u64 {
        self.table_start + i * HDR_BYTES
    }
}

// Superblock field offsets.
const SB_MAGIC: u64 = 0;
const SB_ARENA: u64 = 8;
const SB_RESERVED_START: u64 = 16;
const SB_RESERVED_LEN: u64 = 24;
const SB_TABLE_START: u64 = 32;
const SB_N_CHUNKS: u64 = 40;
const SB_HEAP_START: u64 = 48;
const SB_HIGH_WATER: u64 = 56;

/// Write the superblock (format time), with a high-water mark of 0.
pub fn write_superblock(ctx: &mut MemCtx, arena_size: u64, l: &Layout) {
    ctx.write_u64(PmAddr(SB_MAGIC), MAGIC);
    ctx.write_u64(PmAddr(SB_ARENA), arena_size);
    ctx.write_u64(PmAddr(SB_RESERVED_START), l.reserved_start);
    ctx.write_u64(PmAddr(SB_RESERVED_LEN), l.reserved_len);
    ctx.write_u64(PmAddr(SB_TABLE_START), l.table_start);
    ctx.write_u64(PmAddr(SB_N_CHUNKS), l.n_chunks);
    ctx.write_u64(PmAddr(SB_HEAP_START), l.heap_start);
    ctx.write_u64(PmAddr(SB_HIGH_WATER), 0);
    ctx.flush_range(PmAddr(0), 64);
    ctx.fence();
}

/// Store a raised high-water mark. Under ADR it is flushed and fenced
/// before this returns, so it is durable before any header it newly
/// covers is written; eADR keeps the dirty line alive. The caller holds
/// the allocator's mark lock.
pub fn write_high_water(ctx: &mut MemCtx, mark: u64) {
    ctx.write_u64(PmAddr(SB_HIGH_WATER), mark);
    if ctx.device().config().domain == spash_pmem::PersistenceDomain::Adr
        && !canary::armed(Canary::SkipMarkFlush)
    {
        ctx.flush(PmAddr(SB_HIGH_WATER));
        ctx.fence();
    }
}

/// Read the superblock back (recovery): the layout and the high-water
/// mark, with one line read. Returns `None` if the arena was never
/// formatted.
pub fn read_superblock(ctx: &mut MemCtx) -> Option<(Layout, u64)> {
    decode_superblock(ctx.read_line(PmAddr(0)))
}

/// [`read_superblock`] on the arena as it stands, with no modelled
/// access: for audits, which must not move the virtual clock.
pub fn peek_superblock(ctx: &MemCtx) -> Option<(Layout, u64)> {
    let arena = ctx.device().arena();
    decode_superblock(std::array::from_fn(|w| arena.load_u64(PmAddr(w as u64 * 8))))
}

fn decode_superblock(words: [u64; 8]) -> Option<(Layout, u64)> {
    let word = |off: u64| words[(off / 8) as usize];
    if word(SB_MAGIC) != MAGIC {
        return None;
    }
    // The mark never exceeds the heap; clamping keeps a corrupt one from
    // sending the header walk past the table.
    Some((
        Layout {
            reserved_start: word(SB_RESERVED_START),
            reserved_len: word(SB_RESERVED_LEN),
            table_start: word(SB_TABLE_START),
            n_chunks: word(SB_N_CHUNKS),
            heap_start: word(SB_HEAP_START),
        },
        word(SB_HIGH_WATER).min(word(SB_N_CHUNKS)),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spash_pmem::{PmConfig, PmDevice};

    #[test]
    fn layout_regions_do_not_overlap() {
        let l = Layout::compute(16 << 20, 4096);
        assert!(l.reserved_start >= XPLINE);
        assert!(l.table_start >= l.reserved_start + l.reserved_len);
        assert!(l.heap_start >= l.table_start + l.n_chunks * HDR_BYTES);
        assert!(l.heap_start + l.n_chunks * CHUNK <= 16 << 20);
        assert!(l.n_chunks > 60_000); // most of 16 MiB is heap
    }

    #[test]
    fn layout_chunk_addr_roundtrip() {
        let l = Layout::compute(1 << 20, 0);
        for i in [0, 1, l.n_chunks - 1] {
            let a = l.chunk_addr(i);
            assert_eq!(l.chunk_of(a), i);
            assert_eq!(a.0 % CHUNK, 0);
        }
    }

    #[test]
    fn superblock_roundtrip() {
        let dev = PmDevice::new(PmConfig::small_test());
        let mut ctx = dev.ctx();
        assert!(read_superblock(&mut ctx).is_none());
        let l = Layout::compute(16 << 20, 1024);
        write_superblock(&mut ctx, 16 << 20, &l);
        assert_eq!(read_superblock(&mut ctx), Some((l, 0)));
        write_high_water(&mut ctx, 2048);
        assert_eq!(read_superblock(&mut ctx), Some((l, 2048)));
        assert_eq!(peek_superblock(&ctx), Some((l, 2048)));
        assert_eq!(ctx.device().arena().load_u64(PmAddr(SB_ARENA)), 16 << 20);
    }
}
