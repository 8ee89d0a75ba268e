//! Epoch-based reclamation for batch buffers.
//!
//! Every committed batch borrows one buffer slot from a fixed pool; the
//! `get` responses of that batch carry [`ValueRef`]s into the slot
//! instead of owned allocations. The slot is **retired** (not freed)
//! when the batch's consumer is done with it, and **recycled** only once
//! no pinned consumer could still dereference it:
//!
//! * The pool keeps a global epoch counter, advanced at every retire.
//! * A consumer **pins** before dequeuing delivered batches and unpins
//!   after its last resolve; its pin records the epoch at pin time.
//! * A slot retired at epoch `e` is recycled only when `e < min(active
//!   pins)` — every consumer that could have seen a reference to it
//!   (references become unreachable at retire; see
//!   [`crate::BatchReplies::retire`]) has since unpinned or re-pinned.
//!
//! Recycling bumps the slot's generation and clears its bytes, so a
//! reference that *does* outlive its slot (only possible when the
//! invariant is broken) fails its generation check in
//! [`BatchPool::resolve`] instead of silently reading recycled bytes.
//! The [`Canary::ReclaimEarly`] canary breaks exactly this invariant —
//! reclamation ignores pins — and the named canary test must observe the
//! resulting [`ReclaimViolation`].

use std::sync::atomic::{AtomicU64, Ordering};

use spash_pmem::canary::{self, Canary};
use spash_pmem::sync::Mutex;

/// A pin slot value meaning "not pinned".
const QUIESCENT: u64 = u64::MAX;

struct Slot {
    /// Bumped on every recycle; [`ValueRef`]s carry the generation they
    /// were created under.
    gen: u64,
    bytes: Vec<u8>,
}

/// Exclusive handle to an acquired slot. Not `Clone`: exactly one owner
/// (the executor, then the delivered batch) until retirement.
#[derive(Debug)]
pub struct BatchBuf {
    idx: usize,
    gen: u64,
}

/// A reference into a batch buffer: resolvable while the buffer is live
/// or retired-but-pinned; a resolve after recycling reports a
/// [`ReclaimViolation`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ValueRef {
    slot: usize,
    gen: u64,
    off: u32,
    len: u32,
}

impl ValueRef {
    pub fn len(&self) -> usize {
        self.len as usize
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// The reclamation invariant was violated: a reference outlived its
/// buffer slot (the slot was recycled under the reader's feet).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReclaimViolation {
    pub slot: usize,
    /// Generation the reference was created under.
    pub ref_gen: u64,
    /// Generation the slot is at now.
    pub slot_gen: u64,
}

impl std::fmt::Display for ReclaimViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "use-after-reclaim: slot {} recycled (gen {} -> {}) while a reference was live",
            self.slot, self.ref_gen, self.slot_gen
        )
    }
}

struct Retired {
    idx: usize,
    epoch: u64,
}

/// Fixed pool of epoch-reclaimed batch buffers. All internal locks are
/// the cooperative [`spash_pmem::sync`] primitives, so every contended
/// pool access is a scheduler decision point and the reclamation races
/// the canary test provokes replay deterministically.
pub struct BatchPool {
    slots: Vec<Mutex<Slot>>,
    free: Mutex<Vec<usize>>,
    retired: Mutex<Vec<Retired>>,
    epoch: AtomicU64,
    pins: Vec<AtomicU64>,
}

impl BatchPool {
    /// `slots` buffer slots, `participants` pin slots for cross-task
    /// consumers (executors that deliver-and-retire inline need none).
    pub fn new(slots: usize, participants: usize) -> Self {
        assert!(slots >= 1);
        Self {
            slots: (0..slots)
                .map(|_| {
                    Mutex::new(Slot {
                        gen: 0,
                        bytes: Vec::new(),
                    })
                })
                .collect(),
            // LIFO free list, lowest index last so slot 0 is handed out
            // first — allocation order is deterministic.
            free: Mutex::new((0..slots).rev().collect()),
            retired: Mutex::new(Vec::new()),
            epoch: AtomicU64::new(0),
            pins: (0..participants).map(|_| AtomicU64::new(QUIESCENT)).collect(),
        }
    }

    /// Pin participant `who` at the current epoch. Must precede taking
    /// any delivered batch the participant intends to resolve refs from.
    pub fn pin(&self, who: usize) {
        let e = self.epoch.load(Ordering::SeqCst);
        self.pins[who].store(e, Ordering::SeqCst);
    }

    /// Clear participant `who`'s pin (it holds no more references).
    pub fn unpin(&self, who: usize) {
        self.pins[who].store(QUIESCENT, Ordering::SeqCst);
    }

    /// The reclamation frontier: retired slots with `epoch < min_pin`
    /// are unreachable by every pinned consumer. The armed
    /// [`Canary::ReclaimEarly`] canary ignores pins — the use-after-free window
    /// the named canary test must catch.
    fn min_pin(&self) -> u64 {
        if canary::armed(Canary::ReclaimEarly) {
            return QUIESCENT;
        }
        self.pins
            .iter()
            .map(|p| p.load(Ordering::SeqCst))
            .min()
            .unwrap_or(QUIESCENT)
    }

    /// Take a free slot, recycling eligible retired slots first.
    /// `None` = every slot is live or still protected by a pin; the
    /// caller must wait for consumers to retire/unpin.
    pub fn acquire(&self) -> Option<BatchBuf> {
        let recycled = {
            let min = self.min_pin();
            let mut retired = self.retired.lock();
            let mut ready = Vec::new();
            retired.retain(|r| {
                if r.epoch < min {
                    ready.push(r.idx);
                    false
                } else {
                    true
                }
            });
            ready
        };
        if !recycled.is_empty() {
            for &idx in &recycled {
                let mut s = self.slots[idx].lock();
                s.gen += 1;
                s.bytes.clear();
            }
            let mut free = self.free.lock();
            for idx in recycled {
                free.push(idx);
            }
        }
        let idx = self.free.lock().pop()?;
        let gen = self.slots[idx].lock().gen;
        Some(BatchBuf { idx, gen })
    }

    /// Append `bytes` to the buffer, returning a reference to them.
    pub fn append(&self, buf: &BatchBuf, bytes: &[u8]) -> ValueRef {
        let mut s = self.slots[buf.idx].lock();
        debug_assert_eq!(s.gen, buf.gen, "append to a recycled buffer");
        let off = s.bytes.len();
        s.bytes.extend_from_slice(bytes);
        ValueRef {
            slot: buf.idx,
            gen: buf.gen,
            off: off as u32,
            len: bytes.len() as u32,
        }
    }

    /// Retire a buffer at the current epoch (and advance the epoch).
    /// References into it stay resolvable until recycling.
    pub fn retire(&self, buf: BatchBuf) {
        let e = self.epoch.fetch_add(1, Ordering::SeqCst);
        self.retired.lock().push(Retired { idx: buf.idx, epoch: e });
    }

    /// Copy the referenced bytes into `out`. Fails iff the slot was
    /// recycled since the reference was created — which the pool's
    /// invariant rules out for readers following the pin discipline, so
    /// any `Err` is a reclamation bug (or the armed canary).
    pub fn resolve(&self, r: &ValueRef, out: &mut Vec<u8>) -> Result<(), ReclaimViolation> {
        let s = self.slots[r.slot].lock();
        if s.gen != r.gen {
            return Err(ReclaimViolation {
                slot: r.slot,
                ref_gen: r.gen,
                slot_gen: s.gen,
            });
        }
        out.extend_from_slice(&s.bytes[r.off as usize..(r.off + r.len) as usize]);
        Ok(())
    }

    /// Slots currently on the free list (diagnostics/leak tests).
    pub fn free_slots(&self) -> usize {
        self.free.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refs_survive_retirement_until_recycling() {
        let pool = BatchPool::new(1, 1);
        pool.pin(0);
        let buf = pool.acquire().unwrap();
        let r = pool.append(&buf, b"hello");
        pool.retire(buf);
        // Pinned at epoch 0, slot retired at epoch 0: protected.
        assert!(pool.acquire().is_none(), "pin must block recycling");
        let mut out = Vec::new();
        pool.resolve(&r, &mut out).unwrap();
        assert_eq!(out, b"hello");
        pool.unpin(0);
        // Unpinned: the slot recycles and the stale ref is detected.
        let buf2 = pool.acquire().expect("unpinned slot must recycle");
        assert!(pool.resolve(&r, &mut Vec::new()).is_err());
        pool.retire(buf2);
    }

    #[test]
    fn acquire_order_is_deterministic() {
        let pool = BatchPool::new(3, 0);
        let a = pool.acquire().unwrap();
        let b = pool.acquire().unwrap();
        assert_eq!((a.idx, b.idx), (0, 1));
        pool.retire(a);
        pool.retire(b);
        // No pins: retired slots recycle immediately; they are re-pushed
        // in retire order, so the LIFO free list hands back the most
        // recently retired slot first, then the untouched slot 2.
        let c = pool.acquire().unwrap();
        assert_eq!(c.idx, 1);
        let d = pool.acquire().unwrap();
        assert_eq!(d.idx, 0);
        pool.retire(c);
        pool.retire(d);
    }

    #[test]
    fn appends_pack_into_one_slot() {
        let pool = BatchPool::new(1, 0);
        let buf = pool.acquire().unwrap();
        let r1 = pool.append(&buf, b"abc");
        let r2 = pool.append(&buf, b"defg");
        let (mut o1, mut o2) = (Vec::new(), Vec::new());
        pool.resolve(&r1, &mut o1).unwrap();
        pool.resolve(&r2, &mut o2).unwrap();
        assert_eq!((o1.as_slice(), o2.as_slice()), (&b"abc"[..], &b"defg"[..]));
        pool.retire(buf);
    }
}
