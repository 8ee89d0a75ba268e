//! The extendible-hashing chassis under [`crate::Cceh`] and
//! [`crate::Dash`]. Dash-EH is CCEH's shape — a directory of `2^depth`
//! entries over shared segments, each segment owning the hash range its
//! `(local depth, prefix)` names — so what the two repeat in order to
//! *exist* lives here once:
//!
//! * [`Dir`], the DRAM directory: routing by the hash's top bits, the
//!   "still routed here?" re-check every operation makes under its
//!   segment lock, doubling, the split's half-range repoint, and the
//!   rebuild from recovered segment identities;
//! * [`Header`], the two-word persistent segment identity
//!   (`MAGIC1:16 | local_depth:8 | prefix:40`, then a full-word second
//!   magic) with its flush+fence commit and its recovery scan.
//!
//! Everything an index *is* — segment layout, locks and lock regions,
//! probing, split copy order, homeless/orphan handling — stays in
//! `cceh.rs`/`dash.rs`. The directory methods are pure DRAM bookkeeping:
//! the `sync::RwLock` around the [`Dir`] and every `charge_dram*` stay at
//! the call sites, so each index keeps its own modelled access order.

use std::collections::HashSet;
use std::sync::Arc;

use spash_pmem::canary::{self, Canary};
use spash_pmem::{MemCtx, PmAddr};

const PREFIX_MASK: u64 = (1 << 40) - 1;

/// The volatile directory over segments of type `S`.
pub(crate) struct Dir<S> {
    pub depth: u32,
    /// One entry per directory slot: (segment, local depth).
    pub entries: Vec<(Arc<S>, u8)>,
}

impl<S> Dir<S> {
    /// Directory slot of `h`: its top `depth` bits.
    fn index_of(&self, h: u64) -> usize {
        if self.depth == 0 {
            0
        } else {
            (h >> (64 - self.depth)) as usize
        }
    }

    /// `(segment, local depth, global depth)` for hash `h`.
    pub fn route(&self, h: u64) -> (Arc<S>, u8, u32) {
        let (seg, ld) = &self.entries[self.index_of(h)];
        (Arc::clone(seg), *ld, self.depth)
    }

    /// Whether `h` is still routed to `seg` by a directory of `depth` —
    /// the re-check under a segment lock: a split or doubling since
    /// [`Dir::route`] sends the operation back to routing.
    pub fn still_routes(&self, h: u64, seg: &Arc<S>, depth: u32) -> bool {
        self.depth == depth && Arc::ptr_eq(&self.entries[self.index_of(h)].0, seg)
    }

    /// Double the directory: every entry appears twice.
    pub fn double(&mut self) {
        self.entries = self
            .entries
            .iter()
            .flat_map(|e| [e.clone(), e.clone()])
            .collect();
        self.depth += 1;
    }

    /// Split admission, under the directory's write lock: the `ld`-bit
    /// prefix `seg` owns, if `h` still routes to `seg` at local depth
    /// `ld` and the directory is deep enough for a child. `None` means
    /// the split raced and must retry from routing.
    pub fn split_prefix(&self, h: u64, seg: &Arc<S>, ld: u8) -> Option<u64> {
        let idx = self.index_of(h);
        let (cur, ld_now) = &self.entries[idx];
        (Arc::ptr_eq(cur, seg) && *ld_now == ld && u32::from(ld) < self.depth)
            .then(|| (idx >> (self.depth - u32::from(ld))) as u64)
    }

    /// The split's directory swing: halve the range `prefix` owns at
    /// local depth `ld` — lower half to `lower`, upper half to `upper`,
    /// both at `ld + 1`. Returns the number of entries rewritten.
    pub fn repoint(&mut self, prefix: u64, ld: u8, lower: &Arc<S>, upper: &Arc<S>) -> usize {
        let shift = self.depth - u32::from(ld);
        let span = 1usize << shift;
        let base = (prefix as usize) << shift;
        for i in 0..span {
            let seg = if i >= span / 2 { upper } else { lower };
            self.entries[base + i] = (Arc::clone(seg), ld + 1);
        }
        span
    }

    /// The distinct segments, in directory order.
    pub fn segments(&self) -> Vec<Arc<S>> {
        let mut seen = HashSet::new();
        self.entries
            .iter()
            .filter(|(seg, _)| seen.insert(Arc::as_ptr(seg)))
            .map(|(seg, _)| Arc::clone(seg))
            .collect()
    }

    /// Rebuild from recovered `(segment, local depth, prefix)` triples.
    ///
    /// Global depth is the deepest local depth found; each segment claims
    /// the range its identity names, deeper segments overriding shallower
    /// ones (exactly the half-split overlap a crash between the two
    /// header re-stamps leaves behind). Two triples naming the same range
    /// resolve to the later one — [`Header::scan_committed`] yields
    /// address order, so the higher address wins. `None` when there is no
    /// segment at all or the ranges leave a hole: the image is torn or
    /// foreign.
    pub fn rebuild(segs: &[(Arc<S>, u8, u64)]) -> Option<Self> {
        let depth = u32::from(segs.iter().map(|&(_, ld, _)| ld).max()?);
        let mut entries: Vec<Option<(Arc<S>, u8)>> = vec![None; 1 << depth];
        let mut by_depth: Vec<&(Arc<S>, u8, u64)> = segs.iter().collect();
        by_depth.sort_by_key(|&&(_, ld, prefix)| (ld, prefix));
        for (seg, ld, prefix) in by_depth {
            let shift = depth - u32::from(*ld);
            let base = (prefix << shift) as usize;
            for e in entries.iter_mut().skip(base).take(1 << shift) {
                *e = Some((Arc::clone(seg), *ld));
            }
        }
        Some(Self {
            depth,
            entries: entries.into_iter().collect::<Option<_>>()?,
        })
    }
}

/// A segment's persistent identity: two words at `offset` into the
/// segment. Both magics must match for recovery to accept a region as a
/// committed segment, so a torn header (or a recycled region) reads as
/// uncommitted.
pub(crate) struct Header {
    /// 16-bit magic in the top of the meta word.
    pub magic1: u64,
    /// Full-word magic after it.
    pub magic2: u64,
    pub offset: u64,
}

/// What recovery finds where a segment's header would be.
enum Parsed {
    Uncommitted,
    /// Both magics match but the identity is impossible.
    Malformed,
    /// `(local depth, prefix)`.
    Committed(u8, u64),
}

impl Header {
    /// Publish (or re-stamp) a segment's identity.
    pub fn stamp(&self, ctx: &mut MemCtx, seg: PmAddr, ld: u8, prefix: u64) {
        debug_assert!(prefix <= PREFIX_MASK);
        let meta = PmAddr(seg.0 + self.offset);
        ctx.write_u64(meta, self.magic1 << 48 | u64::from(ld) << 40 | prefix);
        ctx.write_u64(PmAddr(meta.0 + 8), self.magic2);
        if !canary::armed(Canary::SkipStampFlush) {
            ctx.flush_range(meta, 16);
        }
        ctx.fence();
    }

    fn parse_at(&self, ctx: &mut MemCtx, seg: PmAddr) -> Parsed {
        let meta = PmAddr(seg.0 + self.offset);
        if ctx.read_u64(PmAddr(meta.0 + 8)) != self.magic2 {
            return Parsed::Uncommitted;
        }
        let word = ctx.read_u64(meta);
        if word >> 48 != self.magic1 {
            return Parsed::Uncommitted;
        }
        let ld = ((word >> 40) & 0xff) as u8;
        let prefix = word & PREFIX_MASK;
        if u64::from(ld) > 40 || prefix >> ld != 0 {
            return Parsed::Malformed;
        }
        Parsed::Committed(ld, prefix)
    }

    /// Recovery's header scan: every recovered region of exactly
    /// `seg_len` bytes with a committed header becomes a `(segment, local
    /// depth, prefix)` triple, in address order. `None` when a committed
    /// header is malformed — that can never be written, so the image is
    /// not ours.
    pub fn scan_committed<S>(
        &self,
        ctx: &mut MemCtx,
        regions: &[(PmAddr, u64)],
        seg_len: u64,
        seg_at: impl Fn(PmAddr) -> S,
    ) -> Option<Vec<(Arc<S>, u8, u64)>> {
        let mut segs = Vec::new();
        for &(a, len) in regions {
            if len != seg_len {
                continue;
            }
            match self.parse_at(ctx, a) {
                Parsed::Uncommitted => {}
                Parsed::Malformed => return None,
                Parsed::Committed(ld, prefix) => segs.push((Arc::new(seg_at(a)), ld, prefix)),
            }
        }
        Some(segs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spash_pmem::{PmConfig, PmDevice};

    fn segs(n: u32) -> Vec<Arc<u32>> {
        (0..n).map(Arc::new).collect()
    }

    /// Which segment each top-`depth`-bits value routes to.
    fn routing(d: &Dir<u32>) -> Vec<u32> {
        (0..1u64 << d.depth)
            .map(|i| {
                *d.route(if d.depth == 0 { 0 } else { i << (64 - d.depth) })
                    .0
            })
            .collect()
    }

    #[test]
    fn routes_by_top_bits_including_depth_zero() {
        let s = segs(4);
        let d = Dir {
            depth: 2,
            entries: s.iter().map(|s| (Arc::clone(s), 2)).collect(),
        };
        let (seg, ld, depth) = d.route(0b10 << 62 | 0xffff);
        assert_eq!((*seg, ld, depth), (2, 2, 2));
        assert!(d.still_routes(0b10 << 62, &s[2], 2));
        assert!(!d.still_routes(0b10 << 62, &s[1], 2), "another segment");
        assert!(
            !d.still_routes(0b10 << 62, &s[2], 1),
            "directory doubled since"
        );

        let d0 = Dir {
            depth: 0,
            entries: vec![(Arc::clone(&s[0]), 0)],
        };
        assert_eq!(*d0.route(u64::MAX).0, 0);
        assert!(d0.still_routes(u64::MAX, &s[0], 0));
    }

    #[test]
    fn doubling_preserves_routing() {
        let s = segs(2);
        let mut d = Dir {
            depth: 1,
            entries: s.iter().map(|s| (Arc::clone(s), 1)).collect(),
        };
        d.double();
        assert_eq!(d.depth, 2);
        assert_eq!(routing(&d), [0, 0, 1, 1]);
        assert!(
            d.entries.iter().all(|&(_, ld)| ld == 1),
            "local depths unchanged"
        );
        assert_eq!(d.segments().iter().map(|s| **s).collect::<Vec<_>>(), [0, 1]);
    }

    #[test]
    fn split_repoints_the_upper_half_of_the_range() {
        let s = segs(3);
        let mut d = Dir {
            depth: 1,
            entries: vec![(Arc::clone(&s[0]), 1), (Arc::clone(&s[1]), 1)],
        };
        let h = 0b11 << 62;
        assert_eq!(d.split_prefix(h, &s[1], 1), None, "no room: needs doubling");
        d.double();
        d.double();
        assert_eq!(d.split_prefix(h, &s[0], 1), None, "routed elsewhere");
        assert_eq!(d.split_prefix(h, &s[1], 0), None, "stale local depth");
        assert_eq!(d.split_prefix(h, &s[1], 1), Some(1));
        assert_eq!(d.repoint(1, 1, &s[1], &s[2]), 4);
        assert_eq!(routing(&d), [0, 0, 0, 0, 1, 1, 2, 2]);
        assert_eq!(d.route(h), (Arc::clone(&s[2]), 2, 3));
        assert_eq!(d.route(0b10 << 62).1, 2);
        assert_eq!(d.route(0).1, 1, "the other segment keeps its depth");
    }

    #[test]
    fn rebuild_tiles_exactly_or_refuses() {
        let s = segs(4);
        let t = |i: usize, ld: u8, prefix: u64| (Arc::clone(&s[i]), ld, prefix);
        // 0 owns 0*, 1 owns 10*, 2 owns 11*.
        let d = Dir::rebuild(&[t(2, 2, 0b11), t(0, 1, 0), t(1, 2, 0b10)]).unwrap();
        assert_eq!(d.depth, 2);
        assert_eq!(routing(&d), [0, 0, 1, 2]);
        assert_eq!(
            d.entries.iter().map(|e| e.1).collect::<Vec<_>>(),
            [1, 1, 2, 2]
        );
        // Half-finished split: 0 still claims all of 0*, 3 already owns
        // 01* — the deeper header wins its range.
        let d = Dir::rebuild(&[t(0, 1, 0), t(1, 1, 1), t(3, 2, 0b01)]).unwrap();
        assert_eq!(routing(&d), [0, 3, 1, 1]);
        // Two claims on one range: the later triple wins.
        let d = Dir::rebuild(&[t(0, 1, 0), t(1, 1, 1), t(2, 1, 1)]).unwrap();
        assert_eq!(routing(&d), [0, 2]);
        // A hole (nothing owns 10*) or no segment at all is not an image.
        assert!(Dir::rebuild(&[t(0, 1, 0), t(2, 2, 0b11)]).is_none());
        assert!(Dir::<u32>::rebuild(&[]).is_none());
    }

    #[test]
    fn header_scan_separates_uncommitted_from_malformed() {
        const H: Header = Header {
            magic1: 0xBEEF,
            magic2: 0x1122_3344_5566_7788,
            offset: 8,
        };
        let dev = PmDevice::new(PmConfig::small_test());
        let mut ctx = dev.ctx();
        let seg = |i: u64| PmAddr(4096 + i * 1024);
        let regions: Vec<(PmAddr, u64)> = (0..4).map(|i| (seg(i), 1024)).collect();
        let mut scan =
            |regions: &[(PmAddr, u64)]| H.scan_committed(&mut ctx, regions, 1024, |a| a.0);

        assert_eq!(
            scan(&regions),
            Some(vec![]),
            "zeroed regions are uncommitted"
        );
        let mut ctx2 = dev.ctx();
        H.stamp(&mut ctx2, seg(0), 1, 0);
        H.stamp(&mut ctx2, seg(2), 1, 1);
        // One magic only — a torn header — still reads as uncommitted.
        ctx2.write_u64(PmAddr(seg(1).0 + 8), 0xBEEF << 48 | 1 << 40);
        ctx2.write_u64(PmAddr(seg(3).0 + 16), H.magic2);
        let found = scan(&regions).unwrap();
        assert_eq!(
            found
                .iter()
                .map(|(s, ld, p)| (**s, *ld, *p))
                .collect::<Vec<_>>(),
            [(seg(0).0, 1, 0), (seg(2).0, 1, 1)]
        );
        // A region of another size is not a segment, whatever it holds.
        assert_eq!(scan(&[(seg(0), 2048)]), Some(vec![]));
        // Both magics but a prefix wider than its depth: not our image.
        ctx2.write_u64(PmAddr(seg(3).0 + 8), 0xBEEF << 48 | 1 << 40 | 0b10);
        assert_eq!(scan(&regions), None);
    }
}
