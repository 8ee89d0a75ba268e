//! The persistent segment-info table that makes metadata-free segments
//! recoverable.
//!
//! Segments carry no header (§III-A), and the directory is volatile, so
//! after a crash *something* persistent must say which prefix/depth each
//! live segment covers. The paper does not spell out its recovery path; we
//! keep one 8-byte record per segment-capable chunk in the allocator's
//! reserved region: `[depth+1:8][prefix:48]`. Records are written inside
//! the same HTM transaction as the split/merge that changes them, so under
//! eADR they are always consistent with the segment contents.
//!
//! This is allocator-side metadata (like the chunk headers), not segment
//! metadata: the hot path never reads it — it costs one extra cacheline
//! write per split/merge, which is already XPLine-bounded.

use crate::access::Access;
use spash_htm::Abort;
use spash_pmem::{MemCtx, PmAddr};

const DEPTH_SHIFT: u32 = 48;
const PREFIX_MASK: u64 = (1 << 48) - 1;

/// The table. Lives in the allocator's reserved region.
pub struct SegInfoTable {
    base: PmAddr,
    heap_start: u64,
    n_chunks: u64,
}

impl SegInfoTable {
    /// `base`/`len` from [`spash_alloc::PmAllocator::reserved`];
    /// `heap_start`/`n_chunks` from the allocator layout.
    pub fn new(base: PmAddr, len: u64, heap_start: u64, n_chunks: u64) -> Self {
        assert!(
            len >= n_chunks * 8,
            "reserved region too small: need {} bytes for {} chunks, have {len}",
            n_chunks * 8,
            n_chunks
        );
        Self {
            base,
            heap_start,
            n_chunks,
        }
    }

    pub(crate) fn record_addr(&self, seg: PmAddr) -> PmAddr {
        debug_assert!(seg.0 >= self.heap_start);
        let chunk = (seg.0 - self.heap_start) / 256;
        debug_assert!(chunk < self.n_chunks);
        PmAddr(self.base.0 + chunk * 8)
    }

    #[inline]
    fn pack(depth: u8, prefix: u64) -> u64 {
        debug_assert!(prefix <= PREFIX_MASK);
        ((depth as u64) + 1) << DEPTH_SHIFT | prefix
    }

    /// Record `seg` covering `prefix` at `depth`.
    pub(crate) fn set<A: Access>(
        &self,
        a: &mut A,
        ctx: &mut MemCtx,
        seg: PmAddr,
        depth: u8,
        prefix: u64,
    ) -> Result<(), Abort> {
        a.write_u64(ctx, self.record_addr(seg), Self::pack(depth, prefix))
    }

    /// Clear `seg`'s record (merge/free).
    pub(crate) fn clear<A: Access>(
        &self,
        a: &mut A,
        ctx: &mut MemCtx,
        seg: PmAddr,
    ) -> Result<(), Abort> {
        a.write_u64(ctx, self.record_addr(seg), 0)
    }

    /// Read a segment's record. `None` if the record is absent (the chunk
    /// is not a live segment).
    pub fn read(&self, ctx: &mut MemCtx, seg: PmAddr) -> Option<(u8, u64)> {
        let w = ctx.read_u64(self.record_addr(seg));
        if w == 0 {
            return None;
        }
        Some((((w >> DEPTH_SHIFT) - 1) as u8, w & PREFIX_MASK))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::Plain;
    use spash_htm::{Htm, HtmConfig};
    use spash_pmem::{PmConfig, PmDevice};

    fn setup() -> (SegInfoTable, MemCtx) {
        let dev = PmDevice::new(PmConfig::small_test());
        let ctx = dev.ctx();
        // Pretend region: base 4096, heap at 1 MiB, 1000 chunks.
        let t = SegInfoTable::new(PmAddr(4096), 8000, 1 << 20, 1000);
        (t, ctx)
    }

    #[test]
    fn set_read_roundtrip() {
        let (t, mut ctx) = setup();
        let seg = PmAddr((1 << 20) + 7 * 256);
        assert_eq!(t.read(&mut ctx, seg), None);
        t.set(&mut Plain, &mut ctx, seg, 0, 0).unwrap();
        assert_eq!(t.read(&mut ctx, seg), Some((0, 0)), "depth 0 distinguishable from empty");
        t.set(&mut Plain, &mut ctx, seg, 9, 0b1_0110_1001).unwrap();
        assert_eq!(t.read(&mut ctx, seg), Some((9, 0b1_0110_1001)));
    }

    #[test]
    fn tx_set_rolls_back_on_abort() {
        let (t, mut ctx) = setup();
        let htm = Htm::new(HtmConfig::default());
        let seg = PmAddr((1 << 20) + 3 * 256);
        t.set(&mut Plain, &mut ctx, seg, 2, 0b11).unwrap();
        let r: Result<(), Abort> = htm.try_transaction(&mut ctx, |tx, ctx| {
            t.set(tx, ctx, seg, 3, 0b110)?;
            tx.abort(0)
        });
        assert!(r.is_err());
        assert_eq!(t.read(&mut ctx, seg), Some((2, 0b11)));
        htm.try_transaction(&mut ctx, |tx, ctx| t.set(tx, ctx, seg, 3, 0b110))
            .unwrap();
        assert_eq!(t.read(&mut ctx, seg), Some((3, 0b110)));
    }

    #[test]
    fn clear_removes_record() {
        let (t, mut ctx) = setup();
        let htm = Htm::new(HtmConfig::default());
        let seg = PmAddr(1 << 20);
        t.set(&mut Plain, &mut ctx, seg, 4, 0b1010).unwrap();
        htm.try_transaction(&mut ctx, |tx, ctx| t.clear(tx, ctx, seg))
            .unwrap();
        assert_eq!(t.read(&mut ctx, seg), None);
    }

    #[test]
    #[should_panic(expected = "reserved region too small")]
    fn rejects_undersized_region() {
        let _ = SegInfoTable::new(PmAddr(4096), 100, 1 << 20, 1000);
    }
}
