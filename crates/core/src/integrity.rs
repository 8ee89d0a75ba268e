//! Structural integrity verification for a quiescent Spash index.
//!
//! [`Spash::verify_integrity`] walks the whole structure — directory,
//! segments, slots, overflow hints, blobs, and the persistent segment-info
//! table — and checks every invariant the operations rely on. It is meant
//! for tests, post-recovery validation, and debugging, not for the hot
//! path: it takes no locks and assumes no concurrent writers.
//!
//! The walk reads each line once, in two legs through the workspace's
//! prefetch window ([`spash_pmem::Window`]), the one recovery reads
//! through, so it runs at the prefetch table's rate, not one exposed miss
//! per word:
//!
//! - **Leg 1** streams every directory segment's image in directory
//!   order: its seginfo record, its four bucket lines
//!   (`Spash::read_segment`) and its fp line. Pass 2 and the checks a
//!   key word settles alone (inline key size, blob bounds) run from that
//!   read.
//! - **Leg 2** streams the distinct lines holding the blobs' keys, in
//!   address order, so each blob key is read once.
//!
//! Every other check runs from one decode per slot — key word, value
//! word, key and the key's full hash — with no further PM read. Each
//! stream line is read once, so a walk that passes leaves the prefetch
//! table as it found it. The same walk returns the addresses the index
//! reaches (its segments and blobs), which the crash audit's heap census
//! checks ([`crate::crash`]).
//!
//! Invariants checked (the section numbers are the paper's):
//!
//! 1. **Directory coherence** — every entry points at a segment; local
//!    depth ≤ global depth; each segment owns exactly one contiguous,
//!    size-aligned run of `2^(gd-ld)` entries (extendible hashing, §III-A).
//! 2. **Segment-info agreement** — the persistent recovery table records
//!    exactly the `(local depth, prefix)` the directory implies (our
//!    recovery substrate, DESIGN.md §7).
//! 3. **Slot well-formedness** — fingerprints match the key hash (for a
//!    blob pointer, so do the hash bits its key word carries for the
//!    recovery rebuild), inline keys fit 48 bits, blob pointers land
//!    inside the arena.
//! 4. **Routing** — every stored key hashes back into the segment that
//!    holds it.
//! 5. **Hint reachability** — every entry living outside its main bucket
//!    is reachable through a matching overflow hint in the main bucket
//!    (what makes a search miss authoritative, §III-A).
//! 6. **Uniqueness and accounting** — no key is stored twice; the entry
//!    and segment counters match a full count.
//! 7. **Fingerprint sidecar exactness** — every bucket's fp word equals
//!    what [`crate::fptable::rebuild_words`] derives from the slots.
//!    Tags are only *hints* on the probe path, but recovery rebuilds
//!    them and every mutation maintains them, so a quiescent index can
//!    (and must) be held to exact equality — this is what makes the
//!    wrong-tag mutation canary detectable. The walker feeds the rule
//!    full hashes, from each blob's key as leg 2 read it, where recovery
//!    feeds it the bits the key words carry
//!    ([`crate::slot::SlotKey::rule_hash`]): it never derives an expected
//!    word from those carried bits, so it checks recovery, not itself.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::Ordering;

use spash_index_api::hash_key;
use spash_pmem::{line_of, MemCtx, PmAddr, Window, CACHELINE};

use crate::access::Plain;
use crate::ops::Spash;
use crate::recovery::{image_line, IMAGE_LINES};
use crate::slot::{
    self, bucket_of, bucket_slots, fp14, hint_matches, value_word, SlotKey, BUCKETS_PER_SEG,
    SLOTS_PER_BUCKET, SLOTS_PER_SEG,
};

/// Aggregate statistics produced by a successful integrity walk.
#[derive(Debug, Clone, PartialEq)]
pub struct IntegrityReport {
    /// Global directory depth.
    pub directory_depth: u32,
    /// Number of distinct segments reachable from the directory.
    pub segments: u64,
    /// Total live entries.
    pub entries: u64,
    /// Entries stored outside their main bucket (hint-reachable).
    pub overflow_entries: u64,
    /// Entries whose value lives in an out-of-place blob.
    pub blob_entries: u64,
    /// Nonzero hint fields observed in main-bucket value words.
    pub hints_in_use: u64,
    /// Hints whose target slot no longer holds a matching entry. These are
    /// legal leftovers (a hint is only force-cleared when the entry it
    /// covers is removed through it) but should stay rare.
    pub stale_hints: u64,
    /// `(local depth, segment count)` pairs, ascending by depth.
    pub depth_histogram: Vec<(u8, u64)>,
    /// entries / (segments × 16 slots).
    pub load_factor: f64,
}

/// A violated invariant, with enough context to locate it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IntegrityError {
    /// A directory entry holds a null segment pointer.
    NullDirEntry { idx: usize },
    /// A directory entry claims a local depth above the global depth.
    DepthExceedsGlobal { idx: usize, local: u8, global: u32 },
    /// A segment's directory run is not contiguous, not `2^(gd-ld)` long,
    /// or not aligned to its own length.
    BadDirRun { seg: PmAddr, first: usize, len: usize, expected_len: usize },
    /// A segment appears under two different local depths.
    InconsistentDepth { seg: PmAddr },
    /// The segment-info table disagrees with the directory.
    SegInfoMismatch {
        seg: PmAddr,
        expected: (u8, u64),
        found: Option<(u8, u64)>,
    },
    /// A slot's fingerprint (or a blob pointer's carried hash bits) does
    /// not match its key's hash.
    FingerprintMismatch { seg: PmAddr, slot: u8 },
    /// An inline slot stores a key above the 48-bit inline maximum.
    OversizedInlineKey { seg: PmAddr, slot: u8 },
    /// A blob pointer is null or outside the arena.
    BlobOutOfBounds { seg: PmAddr, slot: u8, addr: PmAddr },
    /// A stored key's hash routes to a different segment.
    MisroutedKey { seg: PmAddr, slot: u8, key: u64 },
    /// An overflow entry has no matching hint in its main bucket.
    UnreachableOverflow { seg: PmAddr, slot: u8, key: u64 },
    /// The same key is stored in two slots.
    DuplicateKey { key: u64 },
    /// A bucket's fingerprint sidecar word differs from the rebuild rule.
    FpWordMismatch { seg: PmAddr, bucket: u8, expected: u64, found: u64 },
    /// The `len()` counter disagrees with a full count.
    EntryCountDrift { counted: u64, recorded: u64 },
    /// The segment counter disagrees with the directory walk.
    SegmentCountDrift { counted: u64, recorded: u64 },
}

impl std::fmt::Display for IntegrityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NullDirEntry { idx } => write!(f, "directory[{idx}] is null"),
            Self::DepthExceedsGlobal { idx, local, global } => {
                write!(f, "directory[{idx}] local depth {local} > global {global}")
            }
            Self::BadDirRun { seg, first, len, expected_len } => write!(
                f,
                "segment {seg:?}: directory run at {first} has length {len}, expected aligned {expected_len}"
            ),
            Self::InconsistentDepth { seg } => {
                write!(f, "segment {seg:?} listed under two local depths")
            }
            Self::SegInfoMismatch { seg, expected, found } => write!(
                f,
                "seginfo for {seg:?}: expected {expected:?}, found {found:?}"
            ),
            Self::FingerprintMismatch { seg, slot } => {
                write!(f, "segment {seg:?} slot {slot}: fingerprint mismatch")
            }
            Self::OversizedInlineKey { seg, slot } => {
                write!(f, "segment {seg:?} slot {slot}: inline key exceeds 48 bits")
            }
            Self::BlobOutOfBounds { seg, slot, addr } => {
                write!(f, "segment {seg:?} slot {slot}: blob pointer {addr:?} out of bounds")
            }
            Self::MisroutedKey { seg, slot, key } => {
                write!(f, "segment {seg:?} slot {slot}: key {key} routes elsewhere")
            }
            Self::UnreachableOverflow { seg, slot, key } => write!(
                f,
                "segment {seg:?} slot {slot}: overflow key {key} has no hint in its main bucket"
            ),
            Self::DuplicateKey { key } => write!(f, "key {key} stored twice"),
            Self::FpWordMismatch { seg, bucket, expected, found } => write!(
                f,
                "segment {seg:?} bucket {bucket}: fp word {found:#018x}, rebuild rule says {expected:#018x}"
            ),
            Self::EntryCountDrift { counted, recorded } => {
                write!(f, "counted {counted} entries but len() reports {recorded}")
            }
            Self::SegmentCountDrift { counted, recorded } => {
                write!(f, "counted {counted} segments but counter reports {recorded}")
            }
        }
    }
}

impl std::error::Error for IntegrityError {}

impl Spash {
    /// Verify every structural invariant of a quiescent index.
    ///
    /// Returns an [`IntegrityReport`] on success and the first violated
    /// invariant otherwise. Must not run concurrently with writers.
    pub fn verify_integrity(&self, ctx: &mut MemCtx) -> Result<IntegrityReport, IntegrityError> {
        self.walk(ctx).map(|(report, _)| report)
    }

    /// The integrity walk behind [`Self::verify_integrity`], which also
    /// returns the addresses the index reaches: every blob a slot points
    /// at, then every segment in the directory.
    pub(crate) fn walk(
        &self,
        ctx: &mut MemCtx,
    ) -> Result<(IntegrityReport, Vec<PmAddr>), IntegrityError> {
        let (dir, _) = self.dir.write_target();
        let gd = dir.depth;
        let n = dir.entries.len();

        // Pass 1: directory coherence — collect (seg → (first idx, local
        // depth)) and validate run shape.
        let mut runs: HashMap<PmAddr, (usize, u8, usize)> = HashMap::new(); // seg → (first, ld, len)
        let mut prev_seg = PmAddr::NULL;
        for idx in 0..n {
            let (seg, ld) = crate::dir::unpack_entry(dir.entries[idx].load(Ordering::Acquire));
            if seg.is_null() {
                return Err(IntegrityError::NullDirEntry { idx });
            }
            if u32::from(ld) > gd {
                return Err(IntegrityError::DepthExceedsGlobal { idx, local: ld, global: gd });
            }
            match runs.get_mut(&seg) {
                None => {
                    runs.insert(seg, (idx, ld, 1));
                }
                Some((first, ld0, len)) => {
                    if *ld0 != ld {
                        return Err(IntegrityError::InconsistentDepth { seg });
                    }
                    if seg != prev_seg {
                        // Reappearing after a gap: not contiguous.
                        return Err(IntegrityError::BadDirRun {
                            seg,
                            first: *first,
                            len: *len + 1,
                            expected_len: 1 << (gd - u32::from(ld)),
                        });
                    }
                    *len += 1;
                }
            }
            prev_seg = seg;
        }
        // The legs read PM per segment; iterate in directory order so the
        // access sequence (and thus the modelled cache's hit/miss
        // pattern) is deterministic, not HashMap-order.
        let mut run_list: Vec<(PmAddr, (usize, u8, usize))> =
            runs.iter().map(|(&s, &r)| (s, r)).collect();
        run_list.sort_unstable_by_key(|&(_, (first, _, _))| first);
        // Leg 1: every segment's image — seginfo record, four bucket
        // lines, fp line — read once, through one prefetch window.
        // Passes 2 and 3's key-word checks run from that read.
        let arena_size = self.dev.arena().size();
        let mut images = Vec::with_capacity(run_list.len());
        let mut blobs: Vec<PmAddr> = Vec::new();
        let mut win = Window::new(ctx, run_list.len() * IMAGE_LINES, |i| {
            let seg = run_list[i / IMAGE_LINES].0;
            image_line(&self.seginfo, &self.fptable, seg, i % IMAGE_LINES)
        });
        for &(seg, (first, ld, len)) in &run_list {
            let expected = 1usize << (gd - u32::from(ld));
            if len != expected || first % expected != 0 {
                return Err(IntegrityError::BadDirRun { seg, first, len, expected_len: expected });
            }
            let info = self.seginfo.read(ctx, seg);
            win.read(ctx, 1);
            let image = Plain::ok(Self::read_segment(&mut Plain, ctx, seg));
            win.read(ctx, BUCKETS_PER_SEG as usize);
            let words: [(u64, u64); SLOTS_PER_SEG as usize] =
                std::array::from_fn(|i| (image[2 * i], image[2 * i + 1]));
            let fp_line = ctx.read_line(self.fptable.word_addr(seg, 0));
            win.read(ctx, 1);
            // Pass 2: segment-info agreement. The table records the high
            // `ld` bits every hash in this run shares.
            let expected = (ld, if ld == 0 { 0 } else { (first >> (gd - u32::from(ld))) as u64 });
            if info != Some(expected) {
                return Err(IntegrityError::SegInfoMismatch { seg, expected, found: info });
            }
            // Pass 3, what a key word settles alone: inline keys fit,
            // blob pointers land inside the arena.
            for idx in 0..SLOTS_PER_SEG {
                match SlotKey::unpack(words[idx as usize].0) {
                    SlotKey::Inline { key, .. } if key > slot::MAX_INLINE_KEY => {
                        return Err(IntegrityError::OversizedInlineKey { seg, slot: idx });
                    }
                    SlotKey::Ptr { addr, .. } if addr.is_null() || addr.0 + 8 > arena_size => {
                        return Err(IntegrityError::BlobOutOfBounds { seg, slot: idx, addr });
                    }
                    SlotKey::Ptr { addr, .. } => blobs.push(addr),
                    _ => {}
                }
            }
            // The segment's four fp words share one line.
            let at = (self.fptable.word_addr(seg, 0).0 / 8 % 8) as usize;
            let fp: [u64; BUCKETS_PER_SEG as usize] = std::array::from_fn(|b| fp_line[at + b]);
            images.push((words, fp));
        }

        // Leg 2: every line holding a blob's key, read once, in address
        // order, through a second window.
        let blob_entries = blobs.len() as u64;
        blobs.sort_unstable();
        blobs.dedup();
        let mut key_lines: Vec<u64> = blobs.iter().map(|a| line_of(a.0)).collect();
        key_lines.dedup();
        let line_addr = |i: usize| PmAddr(key_lines[i] * CACHELINE);
        let mut win = Window::new(ctx, key_lines.len(), line_addr);
        let mut blob_keys = Vec::with_capacity(blobs.len());
        for (i, &line) in key_lines.iter().enumerate() {
            let words = ctx.read_line(line_addr(i));
            win.read(ctx, 1);
            let in_line = blobs[blob_keys.len()..].iter().take_while(|a| line_of(a.0) == line);
            let keys = in_line.map(|a| words[(a.0 / 8 % 8) as usize]);
            blob_keys.extend(keys);
        }
        let blob_key = |addr| blob_keys[blobs.binary_search(&addr).expect("blob key read")];

        // Passes 3 and 3b from one decode per slot: its key and the key's
        // full hash.
        let mut seen_keys: HashSet<u64> = HashSet::new();
        let mut entries = 0u64;
        let mut overflow_entries = 0u64;
        let mut hints_in_use = 0u64;
        let mut stale_hints = 0u64;
        for (&(seg, (first, _, run_len)), (words, fp)) in run_list.iter().zip(&images) {
            let keyed: [Option<(u64, u64)>; SLOTS_PER_SEG as usize] = std::array::from_fn(|i| {
                let key = match SlotKey::unpack(words[i].0) {
                    SlotKey::Empty => None,
                    SlotKey::Inline { key, .. } => Some(key),
                    SlotKey::Ptr { addr, .. } => Some(blob_key(addr)),
                };
                key.map(|key| (key, hash_key(key)))
            });
            for idx in 0..SLOTS_PER_SEG {
                let Some((key, h)) = keyed[idx as usize] else {
                    continue;
                };
                // The key word is the one the key's hash makes: its fp14,
                // and a blob pointer's carried hash bits.
                let kw = words[idx as usize].0;
                let made = match SlotKey::unpack(kw) {
                    SlotKey::Ptr { addr, .. } => SlotKey::ptr(addr, h),
                    _ => SlotKey::Inline { key, fp: fp14(h) },
                };
                if made.pack() != kw {
                    return Err(IntegrityError::FingerprintMismatch { seg, slot: idx });
                }
                let route = dir.index_of(h);
                if route < first || route >= first + run_len {
                    return Err(IntegrityError::MisroutedKey { seg, slot: idx, key });
                }
                if !seen_keys.insert(key) {
                    return Err(IntegrityError::DuplicateKey { key });
                }
                entries += 1;

                let home = bucket_of(h);
                if idx / SLOTS_PER_BUCKET != home {
                    overflow_entries += 1;
                    let hinted = bucket_slots(home).any(|s| {
                        hint_matches(value_word::hint(words[s as usize].1), h) == Some(idx)
                    });
                    if !hinted {
                        return Err(IntegrityError::UnreachableOverflow { seg, slot: idx, key });
                    }
                }
            }
            // Pass 3b: fingerprint sidecar exactness. Recompute the four
            // fp words from the slots and require the stored words to
            // match bit for bit.
            let expected_fp = crate::fptable::rebuild_words(words, |i| keyed[i].map(|(_, h)| h));
            for b in 0..BUCKETS_PER_SEG {
                let (expected, found) = (expected_fp[b as usize], fp[b as usize]);
                if found != expected {
                    return Err(IntegrityError::FpWordMismatch { seg, bucket: b, expected, found });
                }
            }

            // Hint hygiene (informational): a hint is stale when its
            // target slot no longer holds an entry with a matching
            // fingerprint.
            for b in 0..BUCKETS_PER_SEG {
                for s in bucket_slots(b) {
                    let hint = value_word::hint(words[s as usize].1);
                    if hint == 0 {
                        continue;
                    }
                    hints_in_use += 1;
                    let target = (hint & 0xf) as u8;
                    let fresh = keyed[target as usize].is_some_and(|(_, h)| {
                        hint_matches(hint, h) == Some(target) && bucket_of(h) == b
                    });
                    if !fresh {
                        stale_hints += 1;
                    }
                }
            }
        }

        // Pass 4: accounting.
        let recorded = self.len();
        if entries != recorded {
            return Err(IntegrityError::EntryCountDrift { counted: entries, recorded });
        }
        let seg_recorded = self.n_segments.load(Ordering::Relaxed);
        if runs.len() as u64 != seg_recorded {
            return Err(IntegrityError::SegmentCountDrift {
                counted: runs.len() as u64,
                recorded: seg_recorded,
            });
        }

        let mut hist: HashMap<u8, u64> = HashMap::new();
        for &(_, ld, _) in runs.values() {
            *hist.entry(ld).or_insert(0) += 1;
        }
        let mut depth_histogram: Vec<(u8, u64)> = hist.into_iter().collect();
        depth_histogram.sort_unstable();

        let segments = runs.len() as u64;
        let report = IntegrityReport {
            directory_depth: gd,
            segments,
            entries,
            overflow_entries,
            blob_entries,
            hints_in_use,
            stale_hints,
            depth_histogram,
            load_factor: entries as f64 / (segments * u64::from(SLOTS_PER_SEG)) as f64,
        };
        blobs.extend(run_list.iter().map(|&(seg, _)| seg));
        Ok((report, blobs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slot::{key_addr, value_addr};
    use crate::{ConcurrencyMode, SpashConfig};
    use spash_index_api::PersistentIndex;
    use spash_pmem::{PmConfig, PmDevice};
    use std::sync::Arc;

    fn device() -> Arc<PmDevice> {
        PmDevice::new(PmConfig {
            arena_size: 64 << 20,
            ..PmConfig::small_test()
        })
    }

    #[test]
    fn fresh_index_is_sound() {
        let dev = device();
        let mut ctx = dev.ctx();
        let idx = Spash::format(&mut ctx, SpashConfig::test_default()).unwrap();
        let r = idx.verify_integrity(&mut ctx).unwrap();
        assert_eq!(r.entries, 0);
        assert_eq!(r.segments, 1 << idx.cfg.initial_depth);
        assert_eq!(r.load_factor, 0.0);
        assert_eq!(r.stale_hints, 0);
    }

    #[test]
    fn survives_randomized_churn_with_splits_and_merges() {
        let dev = device();
        let mut ctx = dev.ctx();
        let idx = Spash::format(&mut ctx, SpashConfig::test_default()).unwrap();
        let mut state = 0x5eed_u64;
        let mut rng = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 11
        };
        // Grow through several splits, with blob values mixed in.
        for i in 0..6_000u64 {
            let v = if i % 7 == 0 { vec![3u8; 100] } else { i.to_le_bytes().to_vec() };
            idx.insert(&mut ctx, i + 1, &v).unwrap();
        }
        let grown = idx.verify_integrity(&mut ctx).unwrap();
        assert!(grown.segments > 64, "only {} segments", grown.segments);
        assert!(grown.overflow_entries > 0, "churn must exercise hints");
        assert!(grown.blob_entries > 0);
        // Churn: random deletes/reinserts/updates trigger merges too.
        for _ in 0..20_000 {
            let k = 1 + rng() % 6_000;
            match rng() % 3 {
                0 => {
                    idx.remove(&mut ctx, k);
                }
                1 => {
                    let _ = idx.update(&mut ctx, k, &[9u8; 40]);
                }
                _ => {
                    let _ = idx.insert(&mut ctx, k, &k.to_le_bytes());
                }
            }
        }
        let r = idx.verify_integrity(&mut ctx).unwrap();
        assert_eq!(r.entries, idx.len());
    }

    #[test]
    fn lock_modes_are_sound_too() {
        for mode in [ConcurrencyMode::WriteLock, ConcurrencyMode::WriteReadLock] {
            let dev = device();
            let mut ctx = dev.ctx();
            let idx = Spash::format(
                &mut ctx,
                SpashConfig { concurrency: mode, ..SpashConfig::test_default() },
            )
            .unwrap();
            for i in 0..3_000u64 {
                idx.insert(&mut ctx, i + 1, &i.to_le_bytes()).unwrap();
            }
            for i in 0..1_500u64 {
                idx.remove(&mut ctx, i * 2 + 1);
            }
            idx.verify_integrity(&mut ctx).unwrap();
        }
    }

    #[test]
    fn detects_a_corrupted_fingerprint() {
        let dev = device();
        let mut ctx = dev.ctx();
        let idx = Spash::format(&mut ctx, SpashConfig::test_default()).unwrap();
        for i in 0..500u64 {
            idx.insert(&mut ctx, i + 1, &i.to_le_bytes()).unwrap();
        }
        // Find an occupied slot and flip a fingerprint bit behind the
        // index's back.
        let (dir, _) = idx.dir.write_target();
        'outer: for e in dir.entries.iter() {
            let (seg, _) = crate::dir::unpack_entry(e.load(Ordering::Acquire));
            for s in 0..SLOTS_PER_SEG {
                let kw = ctx.read_u64(key_addr(seg, s));
                if !SlotKey::unpack(kw).is_empty() {
                    ctx.write_u64(key_addr(seg, s), kw ^ (1 << 50)); // fp bit
                    break 'outer;
                }
            }
        }
        match idx.verify_integrity(&mut ctx) {
            Err(IntegrityError::FingerprintMismatch { .. }) => {}
            other => panic!("expected FingerprintMismatch, got {other:?}"),
        }
    }

    /// A `Ptr` key word whose carried hash bits disagree with its blob
    /// key's hash is reported, though its fp14 and fp sidecar agree.
    #[test]
    fn detects_wrong_hash_bits_in_a_ptr_word() {
        let dev = device();
        let mut ctx = dev.ctx();
        let idx = Spash::format(&mut ctx, SpashConfig::test_default()).unwrap();
        for i in 0..500u64 {
            idx.insert(&mut ctx, i + 1, &[i as u8; 16]).unwrap();
        }
        let (dir, _) = idx.dir.write_target();
        let (seg, s) = dir
            .entries
            .iter()
            .map(|e| crate::dir::unpack_entry(e.load(Ordering::Acquire)).0)
            .find_map(|seg| {
                let s = (0..SLOTS_PER_SEG).find(|&s| ctx.read_u64(key_addr(seg, s)) != 0)?;
                Some((seg, s))
            })
            .unwrap();
        let SlotKey::Ptr { addr, fp, hb } = SlotKey::unpack(ctx.read_u64(key_addr(seg, s))) else {
            panic!("a 16-byte value is stored behind a Ptr");
        };
        // Flip one carried fp8 bit. The fp-word pass alone cannot see
        // it: the walker derives both sides from the blob key's hash.
        ctx.write_u64(key_addr(seg, s), SlotKey::Ptr { addr, fp, hb: hb ^ 0x100 }.pack());
        match idx.verify_integrity(&mut ctx) {
            Err(IntegrityError::FingerprintMismatch { seg: at, slot }) => {
                assert_eq!((at, slot), (seg, s))
            }
            other => panic!("expected FingerprintMismatch, got {other:?}"),
        }
    }

    #[test]
    fn detects_a_corrupted_fp_word() {
        let dev = device();
        let mut ctx = dev.ctx();
        let idx = Spash::format(&mut ctx, SpashConfig::test_default()).unwrap();
        for i in 0..500u64 {
            idx.insert(&mut ctx, i + 1, &i.to_le_bytes()).unwrap();
        }
        // Corrupt one occupied slot's sidecar tag behind the index's back.
        let (dir, _) = idx.dir.write_target();
        'outer: for e in dir.entries.iter() {
            let (seg, _) = crate::dir::unpack_entry(e.load(Ordering::Acquire));
            for s in 0..SLOTS_PER_SEG {
                if !SlotKey::unpack(ctx.read_u64(key_addr(seg, s))).is_empty() {
                    let old = idx.fptable.read(&mut Plain, &mut ctx, seg, s / SLOTS_PER_BUCKET).unwrap();
                    idx.fptable.set_slot_tag(&mut Plain, &mut ctx, seg, s, 0xEE).unwrap();
                    assert_ne!(idx.fptable.read(&mut Plain, &mut ctx, seg, s / SLOTS_PER_BUCKET).unwrap(), old);
                    break 'outer;
                }
            }
        }
        match idx.verify_integrity(&mut ctx) {
            Err(IntegrityError::FpWordMismatch { .. }) => {}
            other => panic!("expected FpWordMismatch, got {other:?}"),
        }
    }

    #[test]
    fn detects_a_lost_entry_as_count_drift() {
        let dev = device();
        let mut ctx = dev.ctx();
        let idx = Spash::format(&mut ctx, SpashConfig::test_default()).unwrap();
        for i in 0..200u64 {
            idx.insert(&mut ctx, i + 1, &i.to_le_bytes()).unwrap();
        }
        let (dir, _) = idx.dir.write_target();
        'outer: for e in dir.entries.iter() {
            let (seg, _) = crate::dir::unpack_entry(e.load(Ordering::Acquire));
            for s in 0..SLOTS_PER_SEG {
                let kw = ctx.read_u64(key_addr(seg, s));
                if !SlotKey::unpack(kw).is_empty() {
                    // Clear the entry but preserve any hint the value word
                    // carries for a neighbour, and keep the fp sidecar
                    // consistent: a cleanly lost entry, so only the count
                    // drift can fire.
                    let vw = ctx.read_u64(value_addr(seg, s));
                    ctx.write_u64(key_addr(seg, s), 0);
                    ctx.write_u64(value_addr(seg, s), value_word::with_payload(vw, 0));
                    idx.fptable.set_slot_tag(&mut Plain, &mut ctx, seg, s, 0).unwrap();
                    break 'outer;
                }
            }
        }
        match idx.verify_integrity(&mut ctx) {
            Err(IntegrityError::EntryCountDrift { counted, recorded }) => {
                assert_eq!(counted + 1, recorded);
            }
            other => panic!("expected EntryCountDrift, got {other:?}"),
        }
    }

    #[test]
    fn detects_a_duplicated_key() {
        let dev = device();
        let mut ctx = dev.ctx();
        let idx = Spash::format(&mut ctx, SpashConfig::test_default()).unwrap();
        for i in 0..200u64 {
            idx.insert(&mut ctx, i + 1, &i.to_le_bytes()).unwrap();
        }
        // Copy one occupied slot over an empty slot in the same bucket of
        // the same segment (routing and fingerprint stay valid, so the
        // duplicate check must be what fires).
        let (dir, _) = idx.dir.write_target();
        'outer: for e in dir.entries.iter() {
            let (seg, _) = crate::dir::unpack_entry(e.load(Ordering::Acquire));
            for b in 0..slot::BUCKETS_PER_SEG {
                let slots: Vec<u8> = bucket_slots(b).collect();
                let occupied: Vec<u8> = slots
                    .iter()
                    .copied()
                    .filter(|&s| !SlotKey::unpack(ctx.read_u64(key_addr(seg, s))).is_empty())
                    .collect();
                let empty: Vec<u8> = slots
                    .iter()
                    .copied()
                    .filter(|&s| SlotKey::unpack(ctx.read_u64(key_addr(seg, s))).is_empty())
                    .collect();
                if let (Some(&src), Some(&dst)) = (occupied.first(), empty.first()) {
                    let kw = ctx.read_u64(key_addr(seg, src));
                    let vw = ctx.read_u64(value_addr(seg, src));
                    ctx.write_u64(key_addr(seg, dst), kw);
                    ctx.write_u64(value_addr(seg, dst), vw);
                    break 'outer;
                }
            }
        }
        match idx.verify_integrity(&mut ctx) {
            Err(
                IntegrityError::DuplicateKey { .. } | IntegrityError::EntryCountDrift { .. },
            ) => {}
            other => panic!("expected DuplicateKey/EntryCountDrift, got {other:?}"),
        }
    }

    #[test]
    fn recovery_heals_a_torn_fp_word() {
        let dev = PmDevice::new(PmConfig {
            arena_size: 64 << 20,
            ..PmConfig::small_test()
        });
        let mut ctx = dev.ctx();
        let idx = Spash::format(&mut ctx, SpashConfig::test_default()).unwrap();
        for i in 0..1_000u64 {
            idx.insert(&mut ctx, i + 1, &i.to_le_bytes()).unwrap();
        }
        // Simulate a crash that tore fp words mid-publication: garbage in
        // several segments' sidecars.
        let (dir, _) = idx.dir.write_target();
        for (n, e) in dir.entries.iter().enumerate().take(4) {
            let (seg, _) = crate::dir::unpack_entry(e.load(Ordering::Acquire));
            idx.fptable
                .write_word(&mut Plain, &mut ctx, seg, (n % 4) as u8, 0xDEAD_BEEF_DEAD_BEEF)
                .unwrap();
        }
        drop(idx);
        dev.simulate_power_failure();
        // Recovery rebuilds every fp word from the slots; the walker's
        // exact-equality pass proves the heal.
        let mut ctx2 = dev.ctx();
        let rec = Spash::recover(&mut ctx2, SpashConfig::test_default()).unwrap();
        rec.verify_integrity(&mut ctx2)
            .unwrap_or_else(|e| panic!("torn fp word survived recovery: {e}"));
        let mut out = Vec::new();
        for i in 0..1_000u64 {
            out.clear();
            assert!(rec.get(&mut ctx2, i + 1, &mut out), "key {} lost", i + 1);
        }
    }

    #[test]
    fn sound_after_crash_recovery() {
        let dev = PmDevice::new(PmConfig {
            arena_size: 64 << 20,
            ..PmConfig::small_test()
        });
        let mut ctx = dev.ctx();
        let idx = Spash::format(&mut ctx, SpashConfig::test_default()).unwrap();
        for i in 0..4_000u64 {
            idx.insert(&mut ctx, i + 1, &i.to_le_bytes()).unwrap();
        }
        for i in 0..1_000u64 {
            idx.remove(&mut ctx, i * 3 + 1);
        }
        let before = idx.len();
        drop(idx);
        dev.simulate_power_failure();
        let mut ctx2 = dev.ctx();
        let rec = Spash::recover(&mut ctx2, SpashConfig::test_default()).unwrap();
        assert_eq!(rec.len(), before);
        let r = rec.verify_integrity(&mut ctx2).unwrap();
        assert_eq!(r.entries, before);
    }
}
