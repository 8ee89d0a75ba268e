//! The persistent per-bucket fingerprint sidecar table.
//!
//! Segments are headerless 256-byte XPLines with no spare bits, so the
//! 8-bit probe tags live in a sidecar in the allocator's reserved region,
//! from the first cacheline after the [`crate::seginfo`] records: four
//! packed [`crate::slot::fp_word`] words (32 bytes) per segment-capable
//! chunk, one word per bucket. A segment's four words are half a
//! cacheline shared with the buddy chunk. A probe reads exactly one
//! sidecar word and only touches the bucket line when a tag byte matches.
//!
//! Tags are *hints*: the slot key words stay authoritative, every tag
//! match is re-verified against the slot, and recovery rebuilds the whole
//! table from the slots ([`rebuild_words`]), healing any tag torn by a
//! crash. That is also why the live paths may keep the table *exactly*
//! equal to the rebuild rule (checked by the integrity walker): a torn
//! tag can only exist transiently between a crash and recovery.
//!
//! Under the [`Canary::FpWrongTag`] mutation every tag
//! *stored* through this table is corrupted while probes keep computing
//! the true tag — the canary the oracle battery must catch.

use crate::slot::{
    self, bucket_of, bucket_slots, fp8, fp_word, hint_matches, value_word, SlotKey,
    BUCKETS_PER_SEG, SEG_SIZE,
};
use crate::access::{Access, Plain};
use spash_htm::Abort;
use spash_pmem::canary::{self, Canary};
use spash_pmem::{MemCtx, PmAddr};

/// Sidecar bytes per segment-capable chunk: one u64 per bucket.
pub const FP_BYTES_PER_SEG: u64 = BUCKETS_PER_SEG as u64 * 8;

/// Corrupt a tag on its way into the table when the wrong-tag mutation is
/// armed. XOR 0x55 remapped away from 0 so an occupied slot still looks
/// occupied — the breakage is a *wrong* tag (false negatives), not a
/// spuriously empty one. Also applied by the split planner's image
/// builder so the canary covers tag writes on every path.
#[inline]
pub(crate) fn stored_tag(tag: u8) -> u8 {
    if tag != 0 && canary::armed(Canary::FpWrongTag) {
        let t = tag ^ 0x55;
        if t == 0 {
            0xff
        } else {
            t
        }
    } else {
        tag
    }
}

/// The table. Lives in the allocator's reserved region, after the
/// seginfo records.
pub struct FpTable {
    base: PmAddr,
    heap_start: u64,
    n_chunks: u64,
}

impl FpTable {
    /// `base` is the first byte after the seginfo records; `len` the
    /// remaining reserved bytes.
    pub fn new(base: PmAddr, len: u64, heap_start: u64, n_chunks: u64) -> Self {
        assert!(
            len >= n_chunks * FP_BYTES_PER_SEG,
            "reserved region too small for fp sidecar: need {} bytes for {} chunks, have {len}",
            n_chunks * FP_BYTES_PER_SEG,
            n_chunks
        );
        Self {
            base,
            heap_start,
            n_chunks,
        }
    }

    /// Address of bucket `b`'s fp word for segment `seg`.
    #[inline]
    pub fn word_addr(&self, seg: PmAddr, b: u8) -> PmAddr {
        debug_assert!(seg.0 >= self.heap_start && b < BUCKETS_PER_SEG);
        let chunk = (seg.0 - self.heap_start) / SEG_SIZE;
        debug_assert!(chunk < self.n_chunks);
        PmAddr(self.base.0 + chunk * FP_BYTES_PER_SEG + b as u64 * 8)
    }

    /// Read bucket `b`'s fp word. Joining a transaction's read set here
    /// is load-bearing: every insert/remove touching the bucket writes
    /// this word, so a fingerprint-filtered lookup that never reads a
    /// bucket line still conflicts with concurrent mutators.
    #[inline]
    pub(crate) fn read<A: Access>(
        &self,
        a: &mut A,
        ctx: &mut MemCtx,
        seg: PmAddr,
        b: u8,
    ) -> Result<u64, Abort> {
        a.read_u64(ctx, self.word_addr(seg, b))
    }

    /// Set the slot tag of slot `idx` (clearing: `tag` 0). The bucket is
    /// implied by the slot index.
    ///
    /// A tag torn by an ADR crash here is provably benign, so the write
    /// is declared a recovery don't-care for the ordering sanitizer:
    /// tags are probe *hints* — the slot key word stays authoritative
    /// for every membership decision — and recovery rebuilds the whole
    /// fp sidecar from the slots before the index serves a request.
    pub(crate) fn set_slot_tag<A: Access>(
        &self,
        a: &mut A,
        ctx: &mut MemCtx,
        seg: PmAddr,
        idx: u8,
        tag: u8,
    ) -> Result<(), Abort> {
        let (b, j) = (idx / 4, idx % 4);
        let addr = self.word_addr(seg, b);
        let w = a.read_u64(ctx, addr)?;
        a.write_u64(ctx, addr, fp_word::with_slot_tag(w, j, stored_tag(tag)))?;
        // lint:allow(flow-flush-fence): slot tag bytes are rebuilt from the segment scan on recovery; dynamically forgiven at this site. san=fptable::set_slot_tag
        ctx.san_forgive(addr, 8);
        Ok(())
    }

    /// Set the hint tag riding value word `idx` of bucket `idx/4`
    /// (clearing: `tag` 0). Same torn-tag benignity argument as
    /// [`Self::set_slot_tag`].
    pub(crate) fn set_hint_tag<A: Access>(
        &self,
        a: &mut A,
        ctx: &mut MemCtx,
        seg: PmAddr,
        idx: u8,
        tag: u8,
    ) -> Result<(), Abort> {
        let (b, j) = (idx / 4, idx % 4);
        let addr = self.word_addr(seg, b);
        let w = a.read_u64(ctx, addr)?;
        a.write_u64(ctx, addr, fp_word::with_hint_tag(w, j, stored_tag(tag)))?;
        // lint:allow(flow-flush-fence): hint tag bytes are rebuilt from the segment scan on recovery; dynamically forgiven at this site. san=fptable::set_hint_tag
        ctx.san_forgive(addr, 8);
        Ok(())
    }

    /// Whole-word write (format, split image installation, recovery
    /// rebuild). Same torn-tag benignity argument as
    /// [`Self::set_slot_tag`].
    pub(crate) fn write_word<A: Access>(
        &self,
        a: &mut A,
        ctx: &mut MemCtx,
        seg: PmAddr,
        b: u8,
        word: u64,
    ) -> Result<(), Abort> {
        a.write_u64(ctx, self.word_addr(seg, b), word)?;
        // lint:allow(flow-flush-fence): the fingerprint word is a DRAM-overlay-backed cache rebuilt on recovery; dynamically forgiven at this site. san=fptable::write_word
        ctx.san_forgive(self.word_addr(seg, b), 8);
        Ok(())
    }
}

/// The rebuild rule: the four fp words a segment's slots imply. This pure
/// function is the single source of truth shared by recovery (which
/// applies it) and the integrity walker (which checks the live table
/// against it exactly).
///
/// `hash_of` resolves occupied slot `idx` to its key hash. The rule reads
/// only hash bits 0–1 ([`bucket_of`]) and 3–24 ([`slot::fp12`], [`fp8`]),
/// so the key word alone can supply them ([`SlotKey::rule_hash`]: inline
/// keys are hashed, `Ptr` words carry the bits) — which is what recovery
/// passes. The walker passes the full hash, reading each blob's key, so
/// it checks recovery independently. The rule ignores the wrong-tag
/// mutation by construction (tags are *computed*, not copied), which is
/// exactly why recovery heals the canary's corruption and the walker
/// catches it.
pub fn rebuild_words(
    words: &[(u64, u64); 16],
    mut hash_of: impl FnMut(usize) -> Option<u64>,
) -> [u64; 4] {
    let mut fp = [0u64; 4];
    for b in 0..BUCKETS_PER_SEG {
        for (j, idx) in bucket_slots(b).enumerate() {
            let (kw, vw) = words[idx as usize];
            // Slot tag: fp8 of the resident key.
            if !SlotKey::unpack(kw).is_empty() {
                if let Some(h) = hash_of(idx as usize) {
                    fp[b as usize] = fp_word::with_slot_tag(fp[b as usize], j as u8, fp8(h));
                }
            }
            // Hint tag: fp8 of the overflow key this bucket's hint points
            // at, provided the hint is live — target occupied, fp12
            // match, main bucket is `b`, and the target actually overflows
            // (sits outside `b`). Anything else is a stale hint slot.
            let hint = value_word::hint(vw);
            if hint == 0 {
                continue;
            }
            let t = (hint & 0xf) as u8;
            let (tkw, _) = words[t as usize];
            if SlotKey::unpack(tkw).is_empty() || t / 4 == b {
                continue;
            }
            if let Some(th) = hash_of(t as usize) {
                if hint_matches(hint, th) == Some(t) && bucket_of(th) == b {
                    fp[b as usize] = fp_word::with_hint_tag(fp[b as usize], j as u8, fp8(th));
                }
            }
        }
    }
    fp
}

/// Rebuild and install one segment's fp words from `image`, the
/// segment's 32 words as recovery read them, and return the number of
/// live slots, so recovery counts entries from the same image. The rule
/// reads only hash bits 0–1 and 3–24, which every occupied key word
/// holds ([`SlotKey::rule_hash`]), so this function reads nothing: no
/// blob key, and not the fp line, which the caller has already read
/// with `read_line` (a write does not consume a pending prefetch of it).
pub fn rebuild_segment(table: &FpTable, ctx: &mut MemCtx, seg: PmAddr, image: &[u64; 32]) -> u64 {
    let words: [(u64, u64); slot::SLOTS_PER_SEG as usize] =
        std::array::from_fn(|i| (image[2 * i], image[2 * i + 1]));
    let fp = rebuild_words(&words, |i| SlotKey::unpack(words[i].0).rule_hash());
    for b in 0..BUCKETS_PER_SEG {
        Plain::ok(table.write_word(&mut Plain, ctx, seg, b, fp[b as usize]));
    }
    words.iter().filter(|&&(kw, _)| !SlotKey::unpack(kw).is_empty()).count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Spash;
    use spash_index_api::hash_key;

    fn seg_words_with(entries: &[(u8, u64)]) -> [(u64, u64); 16] {
        // entries: (slot idx, inline key)
        let mut words = [(0u64, 0u64); 16];
        for &(idx, key) in entries {
            let h = hash_key(key);
            words[idx as usize].0 = SlotKey::Inline { key, fp: slot::fp14(h) }.pack();
        }
        words
    }

    /// The hash of slot `idx`'s inline key.
    fn inline_hash(words: &[(u64, u64); 16]) -> impl Fn(usize) -> Option<u64> + '_ {
        |idx| match SlotKey::unpack(words[idx].0) {
            SlotKey::Empty => None,
            SlotKey::Inline { key, .. } => Some(hash_key(key)),
            SlotKey::Ptr { .. } => unreachable!("test uses inline keys only"),
        }
    }

    /// An inline key whose hash lands in bucket `b`.
    fn key_in_bucket(b: u8, salt: u64) -> u64 {
        (0..).map(|i| salt * 1000 + i).find(|&k| bucket_of(hash_key(k)) == b).unwrap()
    }

    #[test]
    fn rebuild_sets_slot_tags_for_occupied_slots() {
        let k0 = key_in_bucket(0, 1);
        let k2 = key_in_bucket(2, 2);
        let words = seg_words_with(&[(0, k0), (9, k2)]);
        let fp = rebuild_words(&words, inline_hash(&words));
        assert_eq!(fp_word::slot_tag(fp[0], 0), fp8(hash_key(k0)));
        assert_eq!(fp_word::slot_tag(fp[2], 1), fp8(hash_key(k2)));
        assert_eq!(fp[1], 0);
        assert_eq!(fp[3], 0);
    }

    #[test]
    fn rebuild_sets_hint_tags_for_live_overflow_hints() {
        // Overflow key with main bucket 0, stored in slot 6 (bucket 1);
        // the hint rides value word 2 of bucket 0.
        let ko = key_in_bucket(0, 3);
        let ho = hash_key(ko);
        let mut words = seg_words_with(&[(6, ko)]);
        words[2].1 = value_word::with_hint(0, slot::make_hint(ho, 6));
        let fp = rebuild_words(&words, inline_hash(&words));
        assert_eq!(fp_word::hint_tag(fp[0], 2), fp8(ho), "live hint tagged");
        assert_eq!(fp_word::slot_tag(fp[1], 2), fp8(ho), "overflow slot tagged too");
    }

    #[test]
    fn rebuild_ignores_stale_hints() {
        let ko = key_in_bucket(0, 4);
        let ho = hash_key(ko);
        // Hint to an *empty* slot.
        let mut words = [(0u64, 0u64); 16];
        words[1].1 = value_word::with_hint(0, slot::make_hint(ho, 6));
        assert_eq!(rebuild_words(&words, inline_hash(&words))[0], 0);
        // Hint whose target sits in the main bucket itself (not overflow).
        let mut words = seg_words_with(&[(2, ko)]);
        words[1].1 = value_word::with_hint(0, slot::make_hint(ho, 2));
        assert_eq!(fp_word::hint_tag(rebuild_words(&words, inline_hash(&words))[0], 1), 0);
    }

    /// The merge pre-check reads a segment's four fp words as one line,
    /// so no segment's words may straddle two.
    #[test]
    fn every_segments_fp_words_share_one_line() {
        use spash_pmem::{line_of, PmConfig, PmDevice};
        // Two arenas whose seginfo tables end at different offsets
        // within a line (32 B and 8 B past a line boundary).
        for arena_size in [16 << 20, 32 << 20] {
            let dev = PmDevice::new(PmConfig {
                arena_size,
                ..PmConfig::small_test()
            });
            let mut ctx = dev.ctx();
            let idx = Spash::format(&mut ctx, crate::SpashConfig::test_default()).unwrap();
            let l = idx.alloc.layout();
            for chunk in 0..l.n_chunks {
                let seg = l.chunk_addr(chunk);
                assert_eq!(
                    line_of(idx.fptable.word_addr(seg, 0).0),
                    line_of(idx.fptable.word_addr(seg, 3).0),
                    "chunk {chunk} of {} in a {arena_size} B arena",
                    l.n_chunks
                );
            }
        }
    }

    /// The rule gives the same words from the hashes a segment's key
    /// words carry as from the keys' full hashes: random segments of
    /// inline and `Ptr` keys, with live hints, hints whose fp12 or
    /// target is stale, and hints to a key in its own main bucket.
    #[test]
    fn rebuild_from_key_words_matches_full_hashes() {
        use spash_index_api::Rng64;
        use spash_pmem::PmAddr;
        let mut rng = Rng64::new(0xfb0);
        let mut live_hints = 0;
        for case in 0..2_000 {
            let mut words = [(0u64, 0u64); 16];
            let mut full = [None; 16];
            for ((kw, _), hash) in words.iter_mut().zip(&mut full) {
                if rng.below(4) == 0 {
                    continue; // empty slot
                }
                let key = rng.below(1 << 48);
                let h = hash_key(key);
                *hash = Some(h);
                *kw = if rng.below(2) == 0 {
                    SlotKey::Inline { key, fp: slot::fp14(h) }.pack()
                } else {
                    SlotKey::ptr(PmAddr(16 * (1 + rng.below(1 << 30))), h).pack()
                };
            }
            for (_, vw) in words.iter_mut() {
                let t = rng.below(16) as u8;
                *vw = match rng.below(4) {
                    0 => 0,
                    // A hint to `t` as an insert would write it.
                    1 | 2 => match full[t as usize] {
                        Some(h) => value_word::with_hint(0, slot::make_hint(h, t)),
                        None => value_word::with_hint(0, slot::make_hint(rng.next_u64(), t)),
                    },
                    // An arbitrary (mostly stale) hint.
                    _ => value_word::with_hint(0, (rng.next_u64() as u16).max(1)),
                };
            }
            let from_words = rebuild_words(&words, |i| SlotKey::unpack(words[i].0).rule_hash());
            assert_eq!(from_words, rebuild_words(&words, |i| full[i]), "case {case}: {words:x?}");
            live_hints += from_words.iter().map(|&w| (w >> 32).count_ones()).sum::<u32>();
        }
        assert!(live_hints > 0, "no case had a live hint");
    }

    #[test]
    fn membership_filter_is_complete_for_rebuilt_words() {
        // Every key reachable in the segment (main slot or hint) must
        // match its main bucket's fp word.
        let k_main = key_in_bucket(1, 5);
        let k_over = key_in_bucket(1, 6);
        let mut words = seg_words_with(&[(5, k_main), (10, k_over)]);
        let ho = hash_key(k_over);
        words[4].1 = value_word::with_hint(words[4].1, slot::make_hint(ho, 10));
        let fp = rebuild_words(&words, inline_hash(&words));
        assert!(fp_word::any_match(fp[1], fp8(hash_key(k_main))));
        assert!(fp_word::any_match(fp[1], fp8(ho)));
    }
}
