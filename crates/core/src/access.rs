//! The step-5 access seam: *how* a validate-then-process body touches
//! memory.
//!
//! §IV-A runs one body per operation. What varies is the concurrency
//! control around it: a short HTM transaction, the partition-lock
//! fallback behind it, or — in the Fig 12c ablations — a per-segment
//! write/read lock or a seqlock-optimistic read. The bodies (probe, key
//! match, value read, insert/remove/update apply, fp-tag and seginfo
//! writes, split image installation, route validation) are therefore
//! written once, generic over [`Access`], and monomorphised for its two
//! impls:
//!
//! * [`spash_htm::Tx`] — guarded, undo-logged, fallible;
//! * [`Plain`] — direct `MemCtx` access for code whose exclusion comes
//!   from somewhere else: a held lock, a seqlock version check, or (for
//!   the read-only preparation phase) step 5's own re-validation.
//!
//! `Plain` reads and writes cannot fail; the only `Err` a body can
//! return through it is its own [`Access::abort`], i.e. a stale
//! preparation snapshot, which the region runner retries.

use std::sync::atomic::{AtomicU64, Ordering};

use spash_htm::{Abort, LineId, Tx};
use spash_pmem::{MemCtx, PmAddr};

use crate::overlay::Overlay;

pub(crate) trait Access {
    fn read_u64(&mut self, ctx: &mut MemCtx, addr: PmAddr) -> Result<u64, Abort>;

    /// Load the eight words of the line holding `addr` as one access.
    fn read_line(&mut self, ctx: &mut MemCtx, addr: PmAddr) -> Result<[u64; 8], Abort>;

    fn write_u64(&mut self, ctx: &mut MemCtx, addr: PmAddr, v: u64) -> Result<(), Abort>;

    /// Conflict-check a line the body reads in bulk (blob payloads).
    fn read_guard(&mut self, id: LineId) -> Result<(), Abort>;

    /// Load a volatile cell (directory entry, overlay generation).
    fn read_volatile_u64(&mut self, id: LineId, cell: &AtomicU64) -> Result<u64, Abort>;

    /// Store a volatile cell (directory entry): undo-logged inside a
    /// transaction, a plain release store everywhere else.
    fn write_volatile_u64(&mut self, id: LineId, cell: &AtomicU64, v: u64) -> Result<(), Abort>;

    /// Invalidate overlay entries caching `seg`: the undo-logged `tx_seq`
    /// generation inside a transaction, `nt_seq` everywhere else.
    fn bump_overlay(
        &mut self,
        ctx: &mut MemCtx,
        overlay: &Overlay,
        seg: PmAddr,
    ) -> Result<(), Abort>;

    /// The preparation snapshot is stale: restart from preparation.
    fn abort<T>(&self, code: u32) -> Result<T, Abort> {
        Err(Abort::Explicit(code))
    }
}

impl Access for Tx<'_> {
    #[inline]
    fn read_u64(&mut self, ctx: &mut MemCtx, addr: PmAddr) -> Result<u64, Abort> {
        Tx::read_u64(self, ctx, addr)
    }

    #[inline]
    fn read_line(&mut self, ctx: &mut MemCtx, addr: PmAddr) -> Result<[u64; 8], Abort> {
        Tx::read_line(self, ctx, addr)
    }

    #[inline]
    fn write_u64(&mut self, ctx: &mut MemCtx, addr: PmAddr, v: u64) -> Result<(), Abort> {
        Tx::write_u64(self, ctx, addr, v)
    }

    #[inline]
    fn read_guard(&mut self, id: LineId) -> Result<(), Abort> {
        Tx::read_guard(self, id)
    }

    #[inline]
    fn read_volatile_u64(&mut self, id: LineId, cell: &AtomicU64) -> Result<u64, Abort> {
        Tx::read_volatile_u64(self, id, cell)
    }

    #[inline]
    fn write_volatile_u64(&mut self, id: LineId, cell: &AtomicU64, v: u64) -> Result<(), Abort> {
        Tx::write_volatile_u64(self, id, cell, v)
    }

    #[inline]
    fn bump_overlay(
        &mut self,
        ctx: &mut MemCtx,
        overlay: &Overlay,
        seg: PmAddr,
    ) -> Result<(), Abort> {
        overlay.tx_bump(self, ctx, seg)
    }
}

/// Direct access; see the module docs for when that is sound.
pub(crate) struct Plain;

impl Plain {
    /// Unwrap the result of a body that never calls [`Access::abort`]
    /// (probe, key match, value read, tag and seginfo writes): through
    /// `Plain` nothing else can fail.
    pub(crate) fn ok<T>(r: Result<T, Abort>) -> T {
        r.expect("plain access is infallible")
    }
}

impl Access for Plain {
    #[inline]
    fn read_u64(&mut self, ctx: &mut MemCtx, addr: PmAddr) -> Result<u64, Abort> {
        Ok(ctx.read_u64(addr))
    }

    #[inline]
    fn read_line(&mut self, ctx: &mut MemCtx, addr: PmAddr) -> Result<[u64; 8], Abort> {
        Ok(ctx.read_line(addr))
    }

    #[inline]
    fn write_u64(&mut self, ctx: &mut MemCtx, addr: PmAddr, v: u64) -> Result<(), Abort> {
        ctx.write_u64(addr, v);
        Ok(())
    }

    #[inline]
    fn read_guard(&mut self, _id: LineId) -> Result<(), Abort> {
        Ok(())
    }

    #[inline]
    fn read_volatile_u64(&mut self, _id: LineId, cell: &AtomicU64) -> Result<u64, Abort> {
        Ok(cell.load(Ordering::Acquire))
    }

    #[inline]
    fn write_volatile_u64(&mut self, _id: LineId, cell: &AtomicU64, v: u64) -> Result<(), Abort> {
        cell.store(v, Ordering::Release);
        Ok(())
    }

    #[inline]
    fn bump_overlay(
        &mut self,
        ctx: &mut MemCtx,
        overlay: &Overlay,
        seg: PmAddr,
    ) -> Result<(), Abort> {
        overlay.nt_bump(ctx, seg);
        Ok(())
    }
}
