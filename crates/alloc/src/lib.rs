//! A DCMM-style persistent allocator (paper §III-C; Ma et al., FAST'21).
//!
//! The paper manages variable-sized key-value blobs with DCMM, whose
//! property Spash depends on is: **small size classes (≤128 B) are carved
//! out of XPLine-sized chunks, per thread, append-only** — that is what
//! makes consecutive small insertions contiguous in the persistent CPU
//! cache so they can be flushed back in one XPLine (compacted-flush).
//!
//! Persistent state (crash-recoverable):
//! * a superblock describing the arena layout ([`layout`]), and a
//!   high-water mark: every chunk ever allocated lies below it. The
//!   frontier raises it in steps of 1 024 chunks before it hands out a
//!   chunk at or past it (under ADR the new mark is flushed and fenced
//!   first), and nothing lowers it, so the recovery walk reads the header
//!   lines below the mark only and stays proportional to the chunks in
//!   use, not to the arena;
//! * a 4-byte header per 256-byte heap chunk: state (free / small class /
//!   segment / run) plus, for small chunks, a 16-bit slot bitmap and, for
//!   a run's start, its length in chunks. A *run* is any allocation of
//!   several chunks, a blob over 128 B or a baseline's region: one header
//!   format, one release and one free list serve both.
//!
//! Volatile state (rebuilt by [`PmAllocator::recover`]):
//! * per-thread active chunks and slot free-caches per size class;
//! * a global free-chunk list and allocation frontier;
//! * a mirror of the high-water mark, so a run that ends below it never
//!   takes the lock that raises it.
//!
//! Slots freed into a thread's cache keep their persistent bitmap bit set;
//! a crash leaks at most those cached slots (bounded, documented — DCMM
//! makes the same trade).

pub mod layout;

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};

use spash_pmem::sync::Mutex;
use spash_pmem::{MemCtx, PmAddr, Window};

pub use layout::{Layout, CHUNK};

/// Small size classes, in bytes. Allocations ≤128 B come from XPLine
/// chunks carved into equal slots (paper: "block classes with small sizes
/// (≤128-byte) are managed in XPLine-sized chunks").
pub const SMALL_CLASSES: [u64; 6] = [16, 32, 48, 64, 96, 128];

// Chunk header states: a header's top byte.
const ST_FREE: u8 = 0;
// 1..=6: small class index + 1.
const ST_SEGMENT: u8 = 0xF0;
/// A run's start, a blob's or (with [`RUN_REGION`] set) a region's; the
/// low 24 bits hold its length in chunks.
const ST_RUN: u8 = 0xD0;
const RUN_REGION: u8 = 0x08;
/// A run's continuation, on every 64th chunk of the run and on its last.
const ST_RUN_CONT: u8 = 0xD1;
const RUN_LEN: u32 = 0xff_ffff;
const RUN_HEADER_STRIDE: usize = 64;

/// Chunk headers per cacheline of the header table, which starts on an
/// XPLine boundary.
const HEADERS_PER_LINE: u64 = spash_pmem::CACHELINE / layout::HDR_BYTES;
/// Chunks the high-water mark rises by at a time: 64 header lines, so a
/// raise (one superblock store, plus its flush and fence under ADR) comes
/// once per 256 KiB of heap the frontier crosses.
const HIGH_WATER_STEP: u64 = 1024;

/// A chunk header as the recovery walk decodes it.
enum Chunk {
    Free,
    Segment,
    /// The start of a run: a region's, or a blob's.
    Run { region: bool },
    /// A small-class chunk: class index and slot bitmap.
    Small(usize, u16),
    /// The interior of a run (or a corrupted start, or an unknown
    /// state): live, but holding nothing to list.
    Other,
}

/// Errors from the allocator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllocError {
    /// The heap has no free chunk run of the required length.
    OutOfMemory,
    /// Requested size exceeds the maximum blob run (255 chunks), or a
    /// region's 24-bit length.
    TooLarge,
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::OutOfMemory => write!(f, "persistent heap exhausted"),
            AllocError::TooLarge => write!(f, "allocation exceeds 255 chunks (~64 KiB)"),
        }
    }
}

impl std::error::Error for AllocError {}

/// Result of an allocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SmallAlloc {
    /// Address of the slot.
    pub addr: PmAddr,
    /// When this allocation *filled* its XPLine chunk, the chunk base
    /// address: the compacted-flush mechanism asynchronously flushes
    /// exactly this 256-byte range (paper §III-C).
    pub exhausted_chunk: Option<PmAddr>,
}

#[derive(Clone, Copy, Default)]
struct ActiveChunk {
    chunk: u64,
    next_slot: u32,
    live: bool,
}

#[derive(Default)]
struct ThreadHeap {
    active: [ActiveChunk; SMALL_CLASSES.len()],
    /// Freed slots cached for reuse, per class.
    free_slots: [Vec<PmAddr>; SMALL_CLASSES.len()],
}

struct Global {
    free_chunks: Vec<u64>,
    /// Free runs of blobs and regions alike: (length, start chunk).
    free_runs: Vec<(u64, u64)>,
}

/// The allocator. Shared across simulated threads.
pub struct PmAllocator {
    layout: Layout,
    frontier: AtomicU64,
    /// The persisted high-water mark's volatile mirror: published only
    /// after the mark it mirrors is durable.
    high_water: AtomicU64,
    /// Serializes raises of the high-water mark.
    mark_lock: Mutex<()>,
    global: Mutex<Global>,
    threads: Vec<Mutex<ThreadHeap>>,
    n_thread_shards: usize,
}

/// What a recovery scan found.
pub struct RecoveredHeap {
    pub alloc: PmAllocator,
    /// Every live 256-byte segment (for the index's directory rebuild).
    pub segments: Vec<PmAddr>,
    /// Every live region as `(base, byte length)` — baseline index
    /// tables, WALs, and logs live here. Blob runs are not listed: the
    /// index that owns them finds them through its own slots.
    pub regions: Vec<(PmAddr, u64)>,
}

/// A census of every live allocation, read directly from the persistent
/// chunk headers (no volatile state involved). The crash-point harness
/// compares this against the set of allocations reachable from an index's
/// recovered structure to find leaks and corruption.
#[derive(Debug, Default)]
pub struct HeapCensus {
    /// Live small-class slots as `(slot address, class size)`. Includes
    /// slots sitting in volatile free caches at crash time — those keep
    /// their persistent bit set by design (the documented bounded leak).
    pub small_slots: Vec<(PmAddr, u64)>,
    /// Live 256-byte segments.
    pub segments: Vec<PmAddr>,
    /// Live blob runs (allocations over 128 B from
    /// [`PmAllocator::alloc`]) as `(base, byte length)`.
    pub large: Vec<(PmAddr, u64)>,
    /// Live region runs ([`PmAllocator::alloc_region`]) as `(base, byte
    /// length)`.
    pub regions: Vec<(PmAddr, u64)>,
}

impl HeapCensus {
    /// Total number of live allocation units.
    pub fn total(&self) -> usize {
        self.small_slots.len() + self.segments.len() + self.large.len() + self.regions.len()
    }

    /// The census-vs-reachability audit of an index: returns `(leaked
    /// allocations, corruption)`. `freed` are the small slots sitting in
    /// the allocator's volatile free caches
    /// ([`PmAllocator::cached_free_slots`]): they keep their persistent
    /// bits, so the census lists them, but they are free. Every address
    /// in `reachable` (segment and region starts, blob addresses) must be
    /// a live allocation in these books and not a freed slot — anything
    /// else is use-after-free-grade corruption — while the other live
    /// allocations the index cannot reach are *counted* as leaks. After
    /// a crash the caches start empty, so the freed slots that were
    /// cached are leaks then (the documented bounded leak), and so is a
    /// fresh blob or region an in-flight operation lost.
    pub fn audit(&self, reachable: &HashSet<u64>, freed: &HashSet<u64>) -> (u64, Option<String>) {
        let allocated: HashSet<u64> = (self.small_slots.iter().map(|&(a, _)| a.0))
            .filter(|a| !freed.contains(a))
            .chain(self.segments.iter().map(|a| a.0))
            .chain(self.large.iter().map(|&(a, _)| a.0))
            .chain(self.regions.iter().map(|&(a, _)| a.0))
            .collect();
        match reachable.iter().find(|r| !allocated.contains(r)) {
            Some(r) => (
                0,
                Some(format!(
                    "reachable address {r:#x} is not a live allocation in the heap census"
                )),
            ),
            None => (allocated.difference(reachable).count() as u64, None),
        }
    }
}

impl PmAllocator {
    /// Format a fresh arena: write the superblock, zero the header table.
    /// `reserved_len` bytes (XPLine-rounded) are set aside for the caller's
    /// own persistent metadata, reachable via [`PmAllocator::reserved`].
    pub fn format(ctx: &mut MemCtx, reserved_len: u64) -> Self {
        let arena_size = ctx.device().arena().size();
        let l = Layout::compute(arena_size, reserved_len);
        // The header table is zero in a fresh arena, but formatting an
        // arena that was used before must clear it.
        let zeros = vec![0u8; 4096];
        let table_len = l.heap_start - l.table_start;
        let mut off = 0;
        while off < table_len {
            let n = zeros.len().min((table_len - off) as usize);
            ctx.ntstore_bytes(PmAddr(l.table_start + off), &zeros[..n]);
            off += n as u64;
        }
        ctx.fence();
        layout::write_superblock(ctx, arena_size, &l);
        ctx.san_tag(PmAddr(0), CHUNK, "superblock");
        ctx.san_tag(PmAddr(l.table_start), table_len, "alloc-headers");
        if l.reserved_len > 0 {
            ctx.san_tag(PmAddr(l.reserved_start), l.reserved_len, "reserved");
        }
        Self::from_layout(l, 0)
    }

    fn from_layout(l: Layout, high_water: u64) -> Self {
        let n_thread_shards = 64;
        Self {
            layout: l,
            frontier: AtomicU64::new(0),
            high_water: AtomicU64::new(high_water),
            mark_lock: Mutex::new(()),
            global: Mutex::new(Global {
                free_chunks: Vec::new(),
                free_runs: Vec::new(),
            }),
            threads: (0..n_thread_shards)
                .map(|_| Mutex::new(ThreadHeap::default()))
                .collect(),
            n_thread_shards,
        }
    }

    /// Rebuild volatile state from the persistent header table after a
    /// crash (or clean restart). Returns the allocator plus the list of
    /// live index segments.
    pub fn recover(ctx: &mut MemCtx) -> Option<RecoveredHeap> {
        let (l, mark) = layout::read_superblock(ctx)?;
        let alloc = Self::from_layout(l, mark);
        let mut segments = Vec::new();
        let mut regions = Vec::new();
        let mut free_chunks = Vec::new();
        let mut frontier = 0;
        Self::walk_headers(ctx, &l, mark, |i, len, chunk| {
            match chunk {
                Chunk::Free => {
                    free_chunks.push(i);
                    return;
                }
                Chunk::Segment => segments.push(l.chunk_addr(i)),
                Chunk::Run { region: true } => regions.push((l.chunk_addr(i), len * CHUNK)),
                Chunk::Run { region: false } | Chunk::Other => {}
                Chunk::Small(class, bitmap) => {
                    // Recover the chunk's free slots.
                    let mut th = alloc.threads[i as usize % alloc.n_thread_shards].lock();
                    for (s, addr) in Self::slots(&l, i, class) {
                        if bitmap & (1 << s) == 0 {
                            th.free_slots[class].push(addr);
                        }
                    }
                }
            }
            frontier = i + len;
        });
        // Chunks past the frontier were never allocated; list only the
        // free chunks *below* it to keep the free list small.
        free_chunks.retain(|&c| c < frontier);
        alloc.frontier.store(frontier, Ordering::Relaxed);
        alloc.global.lock().free_chunks = free_chunks;
        Some(RecoveredHeap {
            alloc,
            segments,
            regions,
        })
    }

    /// Scan the persistent chunk headers and report every live allocation.
    /// Purely observational (no volatile state is built or mutated), so it
    /// can run on a post-crash image before — or instead of — recovery.
    pub fn census(ctx: &mut MemCtx) -> Option<HeapCensus> {
        let (l, mark) = layout::read_superblock(ctx)?;
        let mut out = HeapCensus::default();
        Self::walk_headers(ctx, &l, mark, |i, len, chunk| match chunk {
            Chunk::Free | Chunk::Other => {}
            Chunk::Segment => out.segments.push(l.chunk_addr(i)),
            Chunk::Run { region: false } => out.large.push((l.chunk_addr(i), len * CHUNK)),
            Chunk::Run { region: true } => out.regions.push((l.chunk_addr(i), len * CHUNK)),
            Chunk::Small(class, bitmap) => {
                for (s, addr) in Self::slots(&l, i, class) {
                    if bitmap & (1 << s) != 0 {
                        out.small_slots.push((addr, SMALL_CLASSES[class]));
                    }
                }
            }
        });
        Some(out)
    }

    /// The one walk over the chunk-header table, shared by recovery and
    /// the census, as a prefetch pipeline (§III-D): one modelled
    /// `read_line` per header line ([`HEADERS_PER_LINE`] headers), in
    /// table order, read through the workspace's prefetch window
    /// ([`Window`]), so the prefetch table decides how many lines are in
    /// flight. It covers the chunks below the persisted high-water `mark`
    /// only: every header from the mark on is free. Chunks are visited in
    /// chunk order: a run is visited once, at its start, with its length
    /// in chunks (at least 1), and its interior is skipped; every other
    /// chunk has length 1.
    ///
    /// A line wholly inside a run already decoded is not fetched, unless
    /// it was in flight when the run's start was decoded: those lines are
    /// read, the rest are passed in one step and never issued, so every
    /// prefetch is consumed before the walk returns.
    fn walk_headers(
        ctx: &mut MemCtx,
        l: &Layout,
        mark: u64,
        mut visit: impl FnMut(u64, u64, Chunk),
    ) {
        let lines = mark.div_ceil(HEADERS_PER_LINE) as usize;
        let line_addr = |k: usize| PmAddr(l.header_addr(k as u64 * HEADERS_PER_LINE));
        let mut win = Window::new(ctx, lines, line_addr);
        // `k`: the next line to read; `i`: the next chunk to visit.
        let (mut k, mut i) = (0, 0);
        while k < lines {
            let words = ctx.read_line(line_addr(k));
            let line_end = ((k as u64 + 1) * HEADERS_PER_LINE).min(mark);
            while i < line_end {
                let byte = l.header_addr(i);
                let h = Self::header_field(byte, words[(byte / 8 % 8) as usize]);
                let (chunk, len) = Self::decode(h);
                visit(i, len, chunk);
                i += len;
            }
            // `next`: the next line holding a chunk to visit. The lines
            // before it lie wholly inside a run: those in flight are read,
            // the rest are passed without being issued.
            let next = ((i / HEADERS_PER_LINE) as usize).clamp(k + 1, lines);
            for j in k + 1..next.min(win.issued()) {
                ctx.read_line(line_addr(j));
            }
            win.read(ctx, next - k);
            k = next;
        }
    }

    /// The high-water invariant: no header at or above the persisted mark
    /// is non-free. Read from the arena with no modelled access, so the
    /// crash audits can check it at every crash point without moving the
    /// virtual clock. An unformatted arena has nothing to check.
    pub fn check_high_water(ctx: &MemCtx) -> Result<(), String> {
        let Some((l, mark)) = layout::peek_superblock(ctx) else {
            return Ok(());
        };
        for c in mark..l.n_chunks {
            let h = Self::header_peek(&l, ctx, c);
            if h != 0 {
                return Err(format!(
                    "chunk {c} has header {h:#010x} at or above the persisted high-water mark {mark}"
                ));
            }
        }
        Ok(())
    }

    /// A chunk header's state and its run length in chunks.
    fn decode(h: u32) -> (Chunk, u64) {
        match (h >> 24) as u8 {
            ST_FREE => (Chunk::Free, 1),
            ST_SEGMENT => (Chunk::Segment, 1),
            state if state & !RUN_REGION == ST_RUN => {
                let region = state & RUN_REGION != 0;
                (Chunk::Run { region }, (h & RUN_LEN).max(1) as u64)
            }
            state if ((state - 1) as usize) < SMALL_CLASSES.len() => {
                (Chunk::Small((state - 1) as usize, h as u16), 1)
            }
            _ => (Chunk::Other, 1),
        }
    }

    /// The slots of small-class chunk `chunk`: (slot index, address).
    fn slots(l: &Layout, chunk: u64, class: usize) -> impl Iterator<Item = (u32, PmAddr)> {
        let (base, size) = (l.chunk_addr(chunk).0, SMALL_CLASSES[class]);
        (0..(CHUNK / size) as u32).map(move |s| (s, PmAddr(base + s as u64 * size)))
    }

    /// The arena layout.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// The caller-reserved persistent metadata region.
    pub fn reserved(&self) -> (PmAddr, u64) {
        (PmAddr(self.layout.reserved_start), self.layout.reserved_len)
    }

    // ---- chunk header helpers -------------------------------------------

    /// Header entries are 4-byte fields packed two-per-u64.
    fn header_get(l: &Layout, ctx: &mut MemCtx, chunk: u64) -> u32 {
        let byte = l.header_addr(chunk);
        Self::header_field(byte, ctx.read_u64(PmAddr(byte & !7)))
    }

    /// The header as the arena holds it, with no modelled access: for
    /// assertions, which must not move the virtual clock.
    fn header_peek(l: &Layout, ctx: &MemCtx, chunk: u64) -> u32 {
        let byte = l.header_addr(chunk);
        Self::header_field(byte, ctx.device().arena().load_u64(PmAddr(byte & !7)))
    }

    fn header_field(byte: u64, word: u64) -> u32 {
        if byte.is_multiple_of(8) {
            word as u32
        } else {
            (word >> 32) as u32
        }
    }

    fn header_set(&self, ctx: &mut MemCtx, chunk: u64, val: u32) {
        let byte = self.layout.header_addr(chunk);
        let addr = PmAddr(byte & !7);
        let shift = if byte.is_multiple_of(8) { 0 } else { 32 };
        let mask = !(0xffff_ffffu64 << shift);
        loop {
            let cur = ctx.device().arena().load_u64(addr);
            let new = (cur & mask) | ((val as u64) << shift);
            if ctx.cas_u64(addr, cur, new).is_ok() {
                break;
            }
        }
        // The header table is recovery-critical: under ADR an unflushed
        // header CAS is reverted by a crash, losing the allocation (or a
        // free) while the data it governs survives. eADR keeps the
        // dirty line alive, so the flush is elided there (paper §II-A).
        if ctx.device().config().domain == spash_pmem::PersistenceDomain::Adr {
            ctx.flush(addr);
            ctx.fence();
        }
    }

    #[inline]
    fn pack_header(state: u8, aux: u8, bitmap: u16) -> u32 {
        (state as u32) << 24 | (aux as u32) << 16 | bitmap as u32
    }

    // ---- chunk acquisition ----------------------------------------------

    /// Take a run of `len` free chunks and publish `header` as its start
    /// chunk's header. A run from the frontier is first covered by the
    /// high-water mark.
    fn take_run(&self, ctx: &mut MemCtx, len: u64, header: u32) -> Result<u64, AllocError> {
        debug_assert!(len >= 1);
        let reused = {
            let mut g = self.global.lock();
            if len == 1 {
                g.free_chunks.pop()
            } else {
                let pos = g.free_runs.iter().position(|&(l, _)| l == len);
                pos.map(|pos| g.free_runs.swap_remove(pos).1)
            }
        };
        let start = match reused {
            Some(c) => c,
            None => {
                let start = self.frontier.fetch_add(len, Ordering::Relaxed);
                if start + len > self.layout.n_chunks {
                    // Roll the frontier back so later smaller requests can fit.
                    self.frontier.fetch_sub(len, Ordering::Relaxed);
                    return Err(AllocError::OutOfMemory);
                }
                self.cover(ctx, start + len);
                start
            }
        };
        // lint:allow(flow-flush-fence): the only store before this header CAS is cover's high-water mark, which write_high_water flushes and fences under ADR; eADR needs no flush, and only the SkipMarkFlush canary leaves it unflushed under ADR. san=none(canary off outside its test)
        self.header_set(ctx, start, header);
        Ok(start)
    }

    /// Make the persisted high-water mark cover every chunk below `end`
    /// before any of them is handed out: raise it to the next multiple of
    /// [`HIGH_WATER_STEP`], durably, then publish the mirror. A run that
    /// ends at or below the mirror takes no lock. The mark never falls.
    fn cover(&self, ctx: &mut MemCtx, end: u64) {
        if end <= self.high_water.load(Ordering::Acquire) {
            return;
        }
        let _raise = self.mark_lock.lock();
        if end <= self.high_water.load(Ordering::Acquire) {
            return;
        }
        let mark = end.next_multiple_of(HIGH_WATER_STEP).min(self.layout.n_chunks);
        layout::write_high_water(ctx, mark);
        self.high_water.store(mark, Ordering::Release);
    }

    // ---- public allocation API ------------------------------------------

    /// Allocate one 256-byte, XPLine-aligned index segment.
    pub fn alloc_segment(&self, ctx: &mut MemCtx) -> Result<PmAddr, AllocError> {
        let c = self.take_run(ctx, 1, Self::pack_header(ST_SEGMENT, 0, 0))?;
        let addr = self.layout.chunk_addr(c);
        ctx.san_tag(addr, CHUNK, "segment");
        Ok(addr)
    }

    /// Free a segment allocated with [`PmAllocator::alloc_segment`].
    pub fn free_segment(&self, ctx: &mut MemCtx, addr: PmAddr) {
        let c = self.layout.chunk_of(addr);
        // Checked on the arena, not through the model: a modelled read
        // here would give debug builds a sync point and a cache access
        // that release builds do not have.
        debug_assert_eq!((Self::header_peek(&self.layout, ctx, c) >> 24) as u8, ST_SEGMENT);
        self.release(ctx, c, 1);
    }

    /// The small size class index for `size`, if `size` ≤ 128.
    pub fn class_for(size: u64) -> Option<usize> {
        SMALL_CLASSES.iter().position(|&c| size <= c)
    }

    /// Allocate `size` bytes. Small sizes come from the calling thread's
    /// append-only XPLine chunk (compacted-flush, §III-C); larger sizes
    /// take a run of whole chunks.
    pub fn alloc(&self, ctx: &mut MemCtx, size: u64) -> Result<SmallAlloc, AllocError> {
        if let Some(class) = Self::class_for(size) {
            return self.alloc_small(ctx, class);
        }
        let nchunks = size.div_ceil(CHUNK);
        if nchunks > 255 {
            return Err(AllocError::TooLarge);
        }
        Ok(SmallAlloc {
            addr: self.alloc_run(ctx, nchunks, false)?,
            exhausted_chunk: None,
        })
    }

    fn alloc_small(&self, ctx: &mut MemCtx, class: usize) -> Result<SmallAlloc, AllocError> {
        let shard = ctx.tid() as usize % self.n_thread_shards;
        let slot_size = SMALL_CLASSES[class];
        let slots_per_chunk = (CHUNK / slot_size) as u32;

        // 1. Reuse a cached freed slot.
        // 2. Else append within the active chunk.
        {
            let mut th = self.threads[shard].lock();
            if let Some(addr) = th.free_slots[class].pop() {
                return Ok(SmallAlloc {
                    addr,
                    exhausted_chunk: None,
                });
            }
            let ac = &mut th.active[class];
            if ac.live && ac.next_slot < slots_per_chunk {
                let slot = ac.next_slot;
                ac.next_slot += 1;
                let chunk = ac.chunk;
                let exhausted = ac.next_slot == slots_per_chunk;
                if exhausted {
                    ac.live = false;
                }
                drop(th);
                // Persist the slot bit.
                let h = Self::header_get(&self.layout, ctx, chunk);
                self.header_set(ctx, chunk, h | 1 << slot);
                let base = self.layout.chunk_addr(chunk);
                return Ok(SmallAlloc {
                    addr: PmAddr(base.0 + slot as u64 * slot_size),
                    exhausted_chunk: exhausted.then_some(base),
                });
            }
        }

        // 3. Open a fresh chunk.
        let chunk = self.take_run(ctx, 1, Self::pack_header(class as u8 + 1, 0, 0b1))?;
        ctx.san_tag(
            self.layout.chunk_addr(chunk),
            CHUNK,
            &format!("small-{}", slot_size),
        );
        {
            let mut th = self.threads[shard].lock();
            th.active[class] = ActiveChunk {
                chunk,
                next_slot: 1,
                live: true,
            };
        }
        let base = self.layout.chunk_addr(chunk);
        Ok(SmallAlloc {
            addr: base,
            exhausted_chunk: (slots_per_chunk == 1).then_some(base),
        })
    }

    /// Allocate a contiguous region of `size` bytes (XPLine-rounded, no
    /// upper bound beyond the heap itself). Regions back the baseline
    /// indexes' large tables (CCEH segments, Level/CLevel levels, Plush
    /// levels, Halo logs). A region is a run, so freeing needs no size
    /// argument, and a freed region is handed out again by the next
    /// request of its length.
    pub fn alloc_region(&self, ctx: &mut MemCtx, size: u64) -> Result<PmAddr, AllocError> {
        let nchunks = size.div_ceil(CHUNK).max(1);
        if nchunks > RUN_LEN as u64 {
            return Err(AllocError::TooLarge);
        }
        self.alloc_run(ctx, nchunks, true)
    }

    /// Free a region allocated with [`PmAllocator::alloc_region`].
    pub fn free_region(&self, ctx: &mut MemCtx, addr: PmAddr) {
        self.free_run(ctx, addr, true);
    }

    /// Free an allocation of `size` bytes at `addr`.
    pub fn free(&self, ctx: &mut MemCtx, addr: PmAddr, size: u64) {
        if let Some(class) = Self::class_for(size) {
            // Cache the slot for reuse; the persistent bit stays set (the
            // slot is volatile-free — a crash leaks only cached slots).
            let shard = ctx.tid() as usize % self.n_thread_shards;
            self.threads[shard].lock().free_slots[class].push(addr);
            return;
        }
        self.free_run(ctx, addr, false);
    }

    // ---- runs -----------------------------------------------------------

    /// A run's start header, its length aside.
    fn run_state(region: bool) -> u32 {
        ((ST_RUN | if region { RUN_REGION } else { 0 }) as u32) << 24
    }

    /// The chunks of the `len`-chunk run at `start` that carry a header:
    /// its start, every 64th chunk after it, and its last. The start holds
    /// the length, so the header walk skips the rest.
    fn run_headers(start: u64, len: u64) -> impl Iterator<Item = u64> {
        let last = !(len - 1).is_multiple_of(RUN_HEADER_STRIDE as u64);
        (start..start + len).step_by(RUN_HEADER_STRIDE).chain(last.then_some(start + len - 1))
    }

    /// Take a run of `len` chunks and write its headers, start first.
    fn alloc_run(&self, ctx: &mut MemCtx, len: u64, region: bool) -> Result<PmAddr, AllocError> {
        let start = self.take_run(ctx, len, Self::run_state(region) | len as u32)?;
        for c in Self::run_headers(start, len).skip(1) {
            self.header_set(ctx, c, Self::pack_header(ST_RUN_CONT, 0, 0));
        }
        let addr = self.layout.chunk_addr(start);
        ctx.san_tag(addr, len * CHUNK, if region { "region" } else { "large" });
        Ok(addr)
    }

    /// Free the run at `addr`, its length read from its start header.
    fn free_run(&self, ctx: &mut MemCtx, addr: PmAddr, region: bool) {
        let start = self.layout.chunk_of(addr);
        let h = Self::header_get(&self.layout, ctx, start);
        debug_assert_eq!(h & !RUN_LEN, Self::run_state(region), "free of a non-run");
        self.release(ctx, start, (h & RUN_LEN) as u64);
    }

    /// Clear the headers of the run of `len` chunks at `start` (a segment
    /// is a run of one), start first, and list it free for the next
    /// request of its length.
    fn release(&self, ctx: &mut MemCtx, start: u64, len: u64) {
        let free = Self::pack_header(ST_FREE, 0, 0);
        // Outside the loop: `spash-lint flow` must see a header cleared
        // (flushed and fenced under ADR) on every path through a free.
        self.header_set(ctx, start, free);
        for c in Self::run_headers(start, len).skip(1) {
            self.header_set(ctx, c, free);
        }
        let mut g = self.global.lock();
        if len == 1 {
            g.free_chunks.push(start);
        } else {
            g.free_runs.push((len, start));
        }
    }

    /// Every small slot freed into a thread's cache and not handed out
    /// again. A volatile read: no modelled access.
    pub fn cached_free_slots(&self) -> HashSet<u64> {
        let mut out = HashSet::new();
        for th in &self.threads {
            out.extend(th.lock().free_slots.iter().flatten().map(|a| a.0));
        }
        out
    }

    /// The audit of an index over this allocator that reaches
    /// `reachable`: the heap census against it
    /// ([`HeapCensus::audit`], without the slots this allocator has
    /// cached free), then the high-water invariant
    /// ([`PmAllocator::check_high_water`]).
    pub fn audit(&self, reachable: &HashSet<u64>, ctx: &mut MemCtx) -> (u64, Option<String>) {
        let (leaked, err) = match Self::census(ctx) {
            Some(census) => census.audit(reachable, &self.cached_free_slots()),
            None => (0, Some("no formatted heap found".into())),
        };
        (leaked, err.or_else(|| Self::check_high_water(ctx).err()))
    }

    /// Number of chunks ever touched (diagnostic).
    pub fn frontier_chunks(&self) -> u64 {
        self.frontier.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spash_pmem::{PmConfig, PmDevice};
    use std::sync::Arc;

    fn setup() -> (Arc<PmDevice>, PmAllocator, MemCtx) {
        let dev = PmDevice::new(PmConfig::small_test());
        let mut ctx = dev.ctx();
        let alloc = PmAllocator::format(&mut ctx, 1024);
        (dev, alloc, ctx)
    }

    #[test]
    fn class_for_boundaries() {
        assert_eq!(PmAllocator::class_for(1), Some(0));
        assert_eq!(PmAllocator::class_for(16), Some(0));
        assert_eq!(PmAllocator::class_for(17), Some(1));
        assert_eq!(PmAllocator::class_for(128), Some(5));
        assert_eq!(PmAllocator::class_for(129), None);
    }

    #[test]
    fn audit_counts_leaks_and_names_corruption() {
        let (_dev, alloc, mut ctx) = setup();
        let seg = alloc.alloc_segment(&mut ctx).unwrap();
        let blob = alloc.alloc(&mut ctx, 40).unwrap().addr;
        let big = alloc.alloc(&mut ctx, 1000).unwrap().addr;
        let region = alloc.alloc_region(&mut ctx, 4096).unwrap();
        let census = PmAllocator::census(&mut ctx).unwrap();
        assert_eq!(census.total(), 4);

        let none = HashSet::new();
        let all: HashSet<u64> = [seg.0, blob.0, big.0, region.0].into_iter().collect();
        assert_eq!(census.audit(&all, &none), (0, None));
        // Allocated but unreachable: counted, not an error.
        let some: HashSet<u64> = [seg.0, region.0].into_iter().collect();
        assert_eq!(census.audit(&some, &none), (2, None));
        assert_eq!(census.audit(&none, &none), (4, None));
        // Reachable but not allocated: corruption, named by address.
        let stray = blob.0 + 8;
        let bad: HashSet<u64> = [seg.0, stray].into_iter().collect();
        let (leaked, err) = census.audit(&bad, &none);
        assert_eq!(leaked, 0);
        assert!(err.unwrap().contains(&format!("{stray:#x}")));
        // A small slot freed into the cache keeps its bit but is free: no
        // leak when unreachable, corruption when reached.
        alloc.free(&mut ctx, blob, 40);
        let freed = alloc.cached_free_slots();
        assert_eq!(freed, HashSet::from([blob.0]));
        assert_eq!(PmAllocator::census(&mut ctx).unwrap().total(), 4);
        let live: HashSet<u64> = [seg.0, big.0, region.0].into_iter().collect();
        assert_eq!(alloc.audit(&live, &mut ctx), (0, None));
        let (_, err) = alloc.audit(&all, &mut ctx);
        assert!(err.unwrap().contains(&format!("{:#x}", blob.0)));
    }

    #[test]
    fn segments_are_xpline_aligned_and_distinct() {
        let (_dev, alloc, mut ctx) = setup();
        let a = alloc.alloc_segment(&mut ctx).unwrap();
        let b = alloc.alloc_segment(&mut ctx).unwrap();
        assert_eq!(a.0 % 256, 0);
        assert_eq!(b.0 % 256, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn freed_segment_is_reused() {
        let (_dev, alloc, mut ctx) = setup();
        let a = alloc.alloc_segment(&mut ctx).unwrap();
        alloc.free_segment(&mut ctx, a);
        let b = alloc.alloc_segment(&mut ctx).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn small_allocs_are_contiguous_within_a_chunk() {
        let (_dev, alloc, mut ctx) = setup();
        // 64-byte class: 4 slots per chunk; consecutive allocations must
        // be adjacent — that is what compacted-flush relies on.
        let a = alloc.alloc(&mut ctx, 60).unwrap();
        let b = alloc.alloc(&mut ctx, 60).unwrap();
        let c = alloc.alloc(&mut ctx, 60).unwrap();
        let d = alloc.alloc(&mut ctx, 60).unwrap();
        assert_eq!(b.addr.0, a.addr.0 + 64);
        assert_eq!(c.addr.0, b.addr.0 + 64);
        assert_eq!(d.addr.0, c.addr.0 + 64);
        assert!(a.exhausted_chunk.is_none());
        assert_eq!(
            d.exhausted_chunk,
            Some(PmAddr(a.addr.0)),
            "4th allocation fills the chunk and reports it for flushing"
        );
    }

    #[test]
    fn small_free_slots_are_recycled() {
        let (_dev, alloc, mut ctx) = setup();
        let a = alloc.alloc(&mut ctx, 16).unwrap();
        alloc.free(&mut ctx, a.addr, 16);
        let b = alloc.alloc(&mut ctx, 16).unwrap();
        assert_eq!(a.addr, b.addr);
    }

    #[test]
    fn large_alloc_spans_chunks_and_frees() {
        let (_dev, alloc, mut ctx) = setup();
        let a = alloc.alloc(&mut ctx, 1000).unwrap(); // 4 chunks
        assert_eq!(a.addr.0 % 256, 0);
        alloc.free(&mut ctx, a.addr, 1000);
        let b = alloc.alloc(&mut ctx, 1000).unwrap();
        assert_eq!(a.addr, b.addr, "freed run is reused");
    }

    #[test]
    fn too_large_rejected() {
        let (_dev, alloc, mut ctx) = setup();
        assert_eq!(
            alloc.alloc(&mut ctx, 256 * 300).unwrap_err(),
            AllocError::TooLarge
        );
    }

    #[test]
    fn out_of_memory_when_exhausted() {
        let dev = PmDevice::new(PmConfig {
            arena_size: 64 << 10,
            ..PmConfig::small_test()
        });
        let mut ctx = dev.ctx();
        let alloc = PmAllocator::format(&mut ctx, 0);
        let mut n = 0;
        loop {
            match alloc.alloc_segment(&mut ctx) {
                Ok(_) => n += 1,
                Err(AllocError::OutOfMemory) => break,
                Err(e) => panic!("unexpected {e}"),
            }
            assert!(n < 100_000, "never exhausted");
        }
        assert!(n > 0);
    }

    /// Census `dev`'s durable image on a fresh context: the census and
    /// its `(cl_reads, read_hits)`, with the prefetch table checked empty
    /// afterwards.
    fn cold_census(dev: &Arc<PmDevice>) -> (HeapCensus, u64, u64) {
        let mut ctx = dev.ctx();
        let room = ctx.prefetch_room();
        let before = dev.snapshot();
        let census = PmAllocator::census(&mut ctx).unwrap();
        let d = dev.snapshot().since(&before);
        assert_eq!(ctx.prefetch_room(), room, "a header prefetch was never read");
        (census, d.cl_reads, d.read_hits)
    }

    /// The header walk reads the table a line at a time: on a cold cache
    /// the census fetches each header line below the high-water mark once
    /// (by its prefetch) and reads it once (consuming the prefetch), and
    /// leaves no prefetch pending.
    #[test]
    fn header_walk_is_one_access_per_header_line() {
        let dev = PmDevice::new(PmConfig::small_test());
        let mut ctx = dev.ctx();
        let alloc = PmAllocator::format(&mut ctx, 1024);
        let l = *alloc.layout();
        let seg = alloc.alloc_segment(&mut ctx).unwrap();
        let blob = alloc.alloc(&mut ctx, 40).unwrap().addr;
        // A large run that skips part of a header line, and a region
        // that skips whole lines.
        let big = alloc.alloc(&mut ctx, 20 * CHUNK).unwrap().addr;
        let region = alloc.alloc_region(&mut ctx, 100 * CHUNK).unwrap();
        let tail = alloc.alloc_segment(&mut ctx).unwrap();
        dev.simulate_power_failure();

        let (census, cl_reads, read_hits) = cold_census(&dev);
        let lines = HIGH_WATER_STEP.div_ceil(HEADERS_PER_LINE);
        // More lines than a fresh context's table holds in flight.
        let room = dev.ctx().prefetch_room() as u64;
        assert!(lines > room && HIGH_WATER_STEP < l.n_chunks);
        // The superblock adds one line fetch, read as a miss.
        assert_eq!(cl_reads, lines + 1, "one fetch per header line");
        assert_eq!(read_hits, lines, "one read per header line");
        assert_eq!(census.segments, vec![seg, tail]);
        assert_eq!(census.large, vec![(big, 20 * CHUNK)]);
        assert_eq!(census.regions, vec![(region, 100 * CHUNK)]);
        assert_eq!(census.small_slots, vec![(blob, 48)]);
    }

    /// The walk ends at the persisted high-water mark, not at the end of
    /// the table, and the mark only rises: a region freed at the frontier
    /// leaves the mark where it was, in PM and in the mirror recovery
    /// rebuilds, while recovery draws the frontier back to the last live
    /// chunk.
    #[test]
    fn header_walk_stops_at_the_high_water_mark() {
        let dev = PmDevice::new(PmConfig::small_test());
        let mut ctx = dev.ctx();
        let alloc = PmAllocator::format(&mut ctx, 1024);
        let n_chunks = alloc.layout().n_chunks;
        let seg = alloc.alloc_segment(&mut ctx).unwrap();
        let mark = |ctx: &MemCtx| layout::peek_superblock(ctx).unwrap().1;
        assert_eq!(mark(&ctx), HIGH_WATER_STEP);
        assert!(n_chunks > 4 * HIGH_WATER_STEP, "the arena is nearly empty");

        // Cross one step, then free back to below it.
        let region = alloc.alloc_region(&mut ctx, HIGH_WATER_STEP * CHUNK).unwrap();
        assert_eq!(alloc.frontier_chunks(), HIGH_WATER_STEP + 1);
        assert_eq!(mark(&ctx), 2 * HIGH_WATER_STEP);
        alloc.free_region(&mut ctx, region);
        assert_eq!(alloc.frontier_chunks(), HIGH_WATER_STEP + 1, "the region went to the free list");
        assert_eq!(mark(&ctx), 2 * HIGH_WATER_STEP, "the mark never falls");
        dev.simulate_power_failure();

        let (census, cl_reads, _) = cold_census(&dev);
        assert_eq!(census.segments, vec![seg]);
        assert_eq!(census.total(), 1);
        let lines = (2 * HIGH_WATER_STEP).div_ceil(HEADERS_PER_LINE);
        assert_eq!(cl_reads, lines + 1, "the walk read past the mark");
        let mut ctx = dev.ctx();
        let rec = PmAllocator::recover(&mut ctx).unwrap();
        assert_eq!(rec.alloc.high_water.load(Ordering::Relaxed), 2 * HIGH_WATER_STEP);
        assert_eq!(rec.alloc.frontier_chunks(), 1);
        assert_eq!(PmAllocator::check_high_water(&ctx), Ok(()));
    }

    /// A region start lets the walk skip the header lines wholly inside
    /// the region: those already in flight are still read, the rest are
    /// never fetched, and no prefetch is left pending.
    #[test]
    fn header_walk_skips_the_lines_inside_a_run() {
        let dev = PmDevice::new(PmConfig::small_test());
        let mut ctx = dev.ctx();
        let alloc = PmAllocator::format(&mut ctx, 1024);
        let seg = alloc.alloc_segment(&mut ctx).unwrap();
        // Chunks 1..=640: header lines 0..=40, of which 1..=39 lie wholly
        // inside the region, far more than the prefetch table holds.
        let span = 40 * HEADERS_PER_LINE;
        let region = alloc.alloc_region(&mut ctx, span * CHUNK).unwrap();
        let tail = alloc.alloc_segment(&mut ctx).unwrap();
        dev.simulate_power_failure();

        let (census, cl_reads, read_hits) = cold_census(&dev);
        assert_eq!(census.segments, vec![seg, tail]);
        assert_eq!(census.regions, vec![(region, span * CHUNK)]);
        // Line 0 decodes the region's start with the rest of a fresh
        // context's table in flight (lines 1..room); lines room..=39 are
        // never fetched.
        let lines = HIGH_WATER_STEP.div_ceil(HEADERS_PER_LINE);
        let room = dev.ctx().prefetch_room() as u64;
        let skipped = 39 - (room - 1);
        assert_eq!(cl_reads, lines - skipped + 1);
        assert_eq!(read_hits, lines - skipped);
    }

    /// The header walk reads through the shared prefetch window, so a cold
    /// census runs at about the table's rate: one PM read latency per
    /// table's worth of lines, the bound recovery's segment loop keeps.
    #[test]
    fn header_walk_runs_at_the_tables_rate() {
        use spash_pmem::CostModel;
        let dev = PmDevice::new(PmConfig::small_test());
        let mut ctx = dev.ctx();
        let alloc = PmAllocator::format(&mut ctx, 1024);
        for i in 0.. {
            if alloc.frontier_chunks() >= 16 * HIGH_WATER_STEP {
                break;
            }
            match i % 3 {
                0 => drop(alloc.alloc_segment(&mut ctx).unwrap()),
                1 => drop(alloc.alloc(&mut ctx, 40).unwrap()),
                _ => drop(alloc.alloc(&mut ctx, 600).unwrap()),
            }
        }
        dev.simulate_power_failure();

        let mut ctx = dev.ctx();
        let (t0, before, room) = (ctx.now(), dev.snapshot(), ctx.prefetch_room());
        PmAllocator::census(&mut ctx).unwrap();
        let (ns, lines) = (ctx.now() - t0, dev.snapshot().since(&before).cl_reads);
        assert_eq!(ctx.prefetch_room(), room, "a header prefetch was never read");
        assert!(lines >= 1_000, "only {lines} header lines");
        let per_line = ns as f64 / lines as f64;
        // A fresh context's free room is the whole table.
        let floor = CostModel::PM_READ_MISS_NS as f64 / room as f64;
        assert!(
            per_line < 1.3 * floor,
            "{lines} lines fetched in {ns} ns: {per_line:.1} ns per line"
        );
    }

    /// A power failure is a phase boundary: a census before the cut queues
    /// media reads past the virtual-time floor, and recovery must not wait
    /// behind them.
    #[test]
    fn recovery_time_does_not_depend_on_reads_before_the_cut() {
        let recover_ns = |census_first: bool| {
            let dev = PmDevice::new(PmConfig::small_test());
            let mut ctx = dev.ctx();
            let alloc = PmAllocator::format(&mut ctx, 1024);
            for i in 0..3 * HIGH_WATER_STEP {
                match i % 3 {
                    0 => drop(alloc.alloc_segment(&mut ctx).unwrap()),
                    1 => drop(alloc.alloc(&mut ctx, 40).unwrap()),
                    _ => drop(alloc.alloc(&mut ctx, 600).unwrap()),
                }
            }
            // A phase boundary, as a benchmark harness draws one; the
            // census then starts at the floor and queues reads past it.
            dev.raise_vtime_floor(ctx.now().max(dev.sim_horizon()));
            if census_first {
                PmAllocator::census(&mut dev.ctx()).unwrap();
            }
            dev.simulate_power_failure();
            let mut ctx = dev.ctx();
            let t0 = ctx.now();
            PmAllocator::recover(&mut ctx).unwrap();
            ctx.now() - t0
        };
        assert_eq!(recover_ns(true), recover_ns(false));
    }

    #[test]
    fn recovery_finds_live_segments() {
        let dev = PmDevice::new(PmConfig::small_test());
        let mut ctx = dev.ctx();
        let alloc = PmAllocator::format(&mut ctx, 0);
        let s1 = alloc.alloc_segment(&mut ctx).unwrap();
        let s2 = alloc.alloc_segment(&mut ctx).unwrap();
        let s3 = alloc.alloc_segment(&mut ctx).unwrap();
        alloc.free_segment(&mut ctx, s2);
        dev.simulate_power_failure();

        let mut ctx2 = dev.ctx();
        let rec = PmAllocator::recover(&mut ctx2).expect("superblock present");
        let mut segs = rec.segments.clone();
        segs.sort();
        let mut expect = vec![s1, s3];
        expect.sort();
        assert_eq!(segs, expect);
        // The freed chunk is allocatable again.
        let s4 = rec.alloc.alloc_segment(&mut ctx2).unwrap();
        assert_eq!(s4, s2);
    }

    #[test]
    fn recovery_of_unformatted_arena_is_none() {
        let dev = PmDevice::new(PmConfig::small_test());
        let mut ctx = dev.ctx();
        assert!(PmAllocator::recover(&mut ctx).is_none());
    }

    #[test]
    fn recovery_reclaims_never_used_small_slots() {
        let dev = PmDevice::new(PmConfig::small_test());
        let mut ctx = dev.ctx();
        let alloc = PmAllocator::format(&mut ctx, 0);
        let a = alloc.alloc(&mut ctx, 128).unwrap(); // 2 slots per chunk
        let _b = alloc.alloc(&mut ctx, 128).unwrap();
        let c = alloc.alloc(&mut ctx, 96).unwrap(); // 96 B class: 2 slots
        dev.simulate_power_failure();

        let mut ctx2 = dev.ctx();
        let rec = PmAllocator::recover(&mut ctx2).unwrap();
        // The 96-class chunk had 1 of 2 slots used; the recovered free
        // slot must be the *other* slot of that chunk.
        let d = rec.alloc.alloc(&mut ctx2, 96).unwrap();
        assert_eq!(d.addr.0, c.addr.0 + 96);
        assert_ne!(d.addr, a.addr);
    }

    #[test]
    fn region_alloc_beyond_large_cap() {
        let (_dev, alloc, mut ctx) = setup();
        // 1 MiB region: far beyond the 255-chunk large-alloc cap.
        let r = alloc.alloc_region(&mut ctx, 1 << 20).unwrap();
        assert_eq!(r.0 % 256, 0);
        // A subsequent allocation must not land inside the region.
        let s = alloc.alloc_segment(&mut ctx).unwrap();
        assert!(s.0 >= r.0 + (1 << 20) || s.0 < r.0);
        // The freed region is the next 1 MiB region.
        alloc.free_region(&mut ctx, r);
        assert_eq!(alloc.alloc_region(&mut ctx, 1 << 20).unwrap(), r);
    }

    /// A freed region goes on the one run free list: the next request of
    /// its length, a region's or a blob's, takes it, and the frontier does
    /// not move. The region is not at the frontier, so rolling the
    /// frontier back could not reclaim it.
    #[test]
    fn freed_region_is_reused_by_the_next_request_of_its_length() {
        let (_dev, alloc, mut ctx) = setup();
        let r = alloc.alloc_region(&mut ctx, 4 * CHUNK).unwrap();
        let _tail = alloc.alloc_segment(&mut ctx).unwrap();
        let frontier = alloc.frontier_chunks();
        alloc.free_region(&mut ctx, r);
        assert_eq!(alloc.alloc_region(&mut ctx, 4 * CHUNK).unwrap(), r);
        assert_eq!(alloc.frontier_chunks(), frontier);
        // A shorter request does not split the run.
        alloc.free_region(&mut ctx, r);
        assert_ne!(alloc.alloc_region(&mut ctx, 3 * CHUNK).unwrap(), r);
        let frontier = alloc.frontier_chunks();
        // A blob of the run's length takes it, and the census books it as
        // a blob run.
        let b = alloc.alloc(&mut ctx, 4 * CHUNK).unwrap();
        assert_eq!(b.addr, r);
        assert_eq!(alloc.frontier_chunks(), frontier);
        let census = PmAllocator::census(&mut ctx).unwrap();
        assert_eq!(census.large, vec![(r, 4 * CHUNK)]);
        assert!(census.regions.iter().all(|&(a, _)| a != r));
    }

    /// A run writes a header on its start, on every 64th chunk and on its
    /// last chunk, and its free clears exactly those.
    #[test]
    fn a_run_carries_headers_on_its_start_every_64th_and_last_chunk() {
        let (_dev, alloc, mut ctx) = setup();
        let l = *alloc.layout();
        let headers = |ctx: &MemCtx, start: u64, len: u64| -> Vec<u64> {
            (0..len).filter(|&i| PmAllocator::header_peek(&l, ctx, start + i) != 0).collect()
        };
        for (len, want) in [(1, vec![0]), (2, vec![0, 1]), (5, vec![0, 4]), (65, vec![0, 64]), (130, vec![0, 64, 128, 129])] {
            for region in [false, true] {
                let addr = match region {
                    true => alloc.alloc_region(&mut ctx, len * CHUNK).unwrap(),
                    false => alloc.alloc(&mut ctx, len * CHUNK).unwrap().addr,
                };
                let start = l.chunk_of(addr);
                assert_eq!(headers(&ctx, start, len), want, "len {len}, region {region}");
                match region {
                    true => alloc.free_region(&mut ctx, addr),
                    false => alloc.free(&mut ctx, addr, len * CHUNK),
                }
                assert!(headers(&ctx, start, len).is_empty(), "len {len}, region {region}");
            }
        }
    }

    #[test]
    fn region_survives_recovery_scan() {
        let dev = PmDevice::new(PmConfig::small_test());
        let mut ctx = dev.ctx();
        let alloc = PmAllocator::format(&mut ctx, 0);
        let r = alloc.alloc_region(&mut ctx, 300 * 256).unwrap();
        let s = alloc.alloc_segment(&mut ctx).unwrap();
        dev.simulate_power_failure();
        let mut ctx2 = dev.ctx();
        let rec = PmAllocator::recover(&mut ctx2).unwrap();
        assert_eq!(rec.segments, vec![s]);
        // New allocations go past the region.
        let s2 = rec.alloc.alloc_segment(&mut ctx2).unwrap();
        assert!(s2.0 >= r.0 + 300 * 256 || s2.0 < r.0);
    }

    #[test]
    fn concurrent_allocations_do_not_collide() {
        let dev = PmDevice::new(PmConfig::small_test());
        let mut ctx = dev.ctx();
        let alloc = Arc::new(PmAllocator::format(&mut ctx, 0));
        let results: Vec<Vec<PmAddr>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let alloc = Arc::clone(&alloc);
                    let dev = Arc::clone(&dev);
                    s.spawn(move || {
                        let mut ctx = dev.ctx();
                        (0..200u64)
                            .map(|i| alloc.alloc(&mut ctx, 16 + (i % 100)).unwrap().addr)
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut all: Vec<PmAddr> = results.into_iter().flatten().collect();
        let n = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), n, "duplicate addresses handed out");
    }
}
