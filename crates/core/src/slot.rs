//! Metadata-free segments and compound key-value slots (paper §III-A).
//!
//! A segment is one 256-byte XPLine holding four cacheline-sized buckets of
//! four 16-byte compound slots each — no header, no bitmap, no lock, no
//! version. All bookkeeping that other indexes keep in metadata is either
//! unnecessary (durable linearizability comes from HTM + persistent cache)
//! or folded into reserved bits of the slots themselves:
//!
//! * **key word** `[tag:2][fp14:14][payload:48]` — `fp14` is the key
//!   fingerprint (hash bits 3–16) that filters pointer dereferences. An
//!   inline key fills the payload. A pointer splits it into
//!   `[hb:10][addr:38]`: the blob's 38-bit address ([`MAX_ARENA`] caps
//!   the arena at 256 GiB) and ten more hash bits, 0–1 and 17–24
//!   ([`hb10`]). With `fp14` those are every hash bit the fp sidecar's
//!   rebuild rule reads, so recovery rebuilds a segment's tags from its
//!   key words alone ([`SlotKey::rule_hash`]), with no blob read; they
//!   are published in the same 8-byte store as the pointer.
//! * **value word** `[hint:16][payload:48]` — payload is the inline value
//!   or the blob length; the top 16 bits belong to the *bucket*, not the
//!   slot: they hold an overflow hint `[fp12:12][slot:4]` pointing at an
//!   entry of this bucket that had to be placed in another bucket of the
//!   segment (circular probing).
//!
//! Out-of-place blobs are `[key: u64][len: u64][value bytes…]`.

use spash_index_api::{hash_key, IndexError};
use spash_pmem::canary::{self, Canary};
use spash_pmem::PmAddr;

/// Segment size in bytes — exactly one XPLine.
pub const SEG_SIZE: u64 = 256;
/// Cacheline-sized buckets per segment.
pub const BUCKETS_PER_SEG: u8 = 4;
/// Compound slots per bucket.
pub const SLOTS_PER_BUCKET: u8 = 4;
/// Total slots per segment.
pub const SLOTS_PER_SEG: u8 = BUCKETS_PER_SEG * SLOTS_PER_BUCKET;
/// Slot size in bytes (key word + value word).
pub const SLOT_SIZE: u64 = 16;

/// Largest key storable inline (the payload field is 48 bits).
pub const MAX_INLINE_KEY: u64 = (1 << 48) - 1;
/// Inline values are exactly 6 bytes (48 bits); anything else goes
/// out-of-place.
pub const INLINE_VALUE_LEN: usize = 6;

const TAG_SHIFT: u32 = 62;
const TAG_INLINE: u64 = 1;
const TAG_PTR: u64 = 2;
const FP_SHIFT: u32 = 48;
const FP_MASK: u64 = 0x3fff;
const PAYLOAD_MASK: u64 = (1 << 48) - 1;
const HB_SHIFT: u32 = 38;
const HB_MASK: u64 = 0x3ff;
const ADDR_MASK: u64 = (1 << HB_SHIFT) - 1;

/// Largest arena whose every address fits a `Ptr` key word's 38-bit
/// address field: 256 GiB.
pub const MAX_ARENA: u64 = 1 << HB_SHIFT;

/// Can an arena of `arena_size` bytes hold a Spash index? Every blob
/// address must fit a `Ptr` key word ([`MAX_ARENA`]).
pub fn check_arena(arena_size: u64) -> Result<(), IndexError> {
    if arena_size > MAX_ARENA {
        return Err(IndexError::ArenaTooLarge {
            size: arena_size,
            max: MAX_ARENA,
        });
    }
    Ok(())
}

/// The bucket a key hashes to: the lowest 2 bits of the hash (§III-A).
#[inline]
pub fn bucket_of(hash: u64) -> u8 {
    (hash & 0b11) as u8
}

/// 14-bit key fingerprint: hash bits 3–16 (§III-A "the lowest 3-16 bits").
#[inline]
pub fn fp14(hash: u64) -> u16 {
    ((hash >> 3) & FP_MASK) as u16
}

/// 12-bit overflow fingerprint: hash bits 3–14, forced non-zero so that a
/// packed hint can never collide with the "no hint" encoding (0).
#[inline]
pub fn fp12(hash: u64) -> u16 {
    let fp = ((hash >> 3) & 0xfff) as u16;
    fp.max(1)
}

/// The ten hash bits a `Ptr` key word carries beside `fp14`: bits 0–1
/// (the main bucket) in the low two, bits 17–24 ([`fp8`]'s source) above.
#[inline]
pub fn hb10(hash: u64) -> u16 {
    ((hash & 0b11) | ((hash >> 17) & 0xff) << 2) as u16
}

/// Decoded key word.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlotKey {
    Empty,
    /// Inline key (≤ 48 bits).
    Inline { key: u64, fp: u16 },
    /// Pointer to an out-of-place blob; `hb` is [`hb10`] of the blob
    /// key's hash.
    Ptr { addr: PmAddr, fp: u16, hb: u16 },
}

impl SlotKey {
    /// The key word of a blob at `addr` whose key hashes to `hash`.
    #[inline]
    pub fn ptr(addr: PmAddr, hash: u64) -> Self {
        SlotKey::Ptr {
            addr,
            fp: fp14(hash),
            hb: hb10(hash),
        }
    }

    /// Encode to the raw key word.
    pub fn pack(self) -> u64 {
        match self {
            SlotKey::Empty => 0,
            SlotKey::Inline { key, fp } => {
                debug_assert!(key <= MAX_INLINE_KEY);
                TAG_INLINE << TAG_SHIFT | (fp as u64 & FP_MASK) << FP_SHIFT | key
            }
            SlotKey::Ptr { addr, fp, hb } => {
                debug_assert!(addr.0 <= ADDR_MASK, "blob address beyond MAX_ARENA");
                TAG_PTR << TAG_SHIFT
                    | (fp as u64 & FP_MASK) << FP_SHIFT
                    | (hb as u64 & HB_MASK) << HB_SHIFT
                    | addr.0
            }
        }
    }

    /// Decode a raw key word.
    pub fn unpack(word: u64) -> SlotKey {
        match word >> TAG_SHIFT {
            0 => SlotKey::Empty,
            TAG_INLINE => SlotKey::Inline {
                key: word & PAYLOAD_MASK,
                fp: ((word >> FP_SHIFT) & FP_MASK) as u16,
            },
            TAG_PTR => SlotKey::Ptr {
                addr: PmAddr(word & ADDR_MASK),
                fp: ((word >> FP_SHIFT) & FP_MASK) as u16,
                hb: ((word >> HB_SHIFT) & HB_MASK) as u16,
            },
            _ => SlotKey::Empty, // reserved tag: treat as empty
        }
    }

    /// The hash the fp sidecar's rebuild rule reads for this key, from
    /// the key word alone (`None` for an empty slot). An inline key is
    /// hashed; a `Ptr` gives its key hash's bits 0–1 and 3–24 — the only
    /// ones [`bucket_of`], [`fp12`] and [`fp8`] read — and 0 elsewhere.
    #[inline]
    pub fn rule_hash(self) -> Option<u64> {
        match self {
            SlotKey::Empty => None,
            SlotKey::Inline { key, .. } => Some(hash_key(key)),
            SlotKey::Ptr { fp, hb, .. } => {
                let hb = hb as u64;
                Some((hb & 0b11) | (fp as u64 & FP_MASK) << 3 | (hb >> 2 & 0xff) << 17)
            }
        }
    }

    #[inline]
    pub fn is_empty(self) -> bool {
        matches!(self, SlotKey::Empty)
    }
}

/// Value-word helpers. The value word is `[hint:16][payload:48]`; the hint
/// belongs to the bucket, the payload to the slot's own entry.
pub mod value_word {
    /// Extract the overflow hint.
    #[inline]
    pub fn hint(word: u64) -> u16 {
        (word >> 48) as u16
    }

    /// Extract the payload (inline value or blob length).
    #[inline]
    pub fn payload(word: u64) -> u64 {
        word & ((1 << 48) - 1)
    }

    /// Replace the payload, preserving the hint.
    #[inline]
    pub fn with_payload(word: u64, payload: u64) -> u64 {
        debug_assert!(payload < 1 << 48);
        (word & !((1 << 48) - 1)) | payload
    }

    /// Replace the hint, preserving the payload.
    #[inline]
    pub fn with_hint(word: u64, hint: u16) -> u64 {
        (word & ((1 << 48) - 1)) | (hint as u64) << 48
    }
}

/// 8-bit probe tag: hash bits 17–24, forced non-zero so a stored tag can
/// never collide with the "empty slot" encoding (0). Disjoint from the
/// bucket bits (0–1), `fp14` (3–16) and `fp12` (3–14), so tag collisions
/// are independent of the in-slot fingerprints the tag pre-filters.
///
/// Under the [`Canary::FpCollide`] mutation every hash maps to
/// the same tag: the filter degenerates to "every slot is a candidate",
/// which must not change any result (candidate supersets only).
#[inline]
pub fn fp8(hash: u64) -> u8 {
    if canary::armed(Canary::FpCollide) {
        return 1;
    }
    let t = ((hash >> 17) & 0xff) as u8;
    if t == 0 {
        1
    } else {
        t
    }
}

/// Packed per-bucket fingerprint word, stored in the persistent fp
/// sidecar table ([`crate::fptable`]), one `u64` per bucket:
///
/// * **low 32 bits — slot tags**: byte `j` is the [`fp8`] tag of the key
///   in slot `4b+j` of bucket `b`, 0 when the slot is empty;
/// * **high 32 bits — hint tags**: byte `j` is the [`fp8`] tag of the
///   *overflow* key whose hint lives in the value word of slot `4b+j`,
///   0 when that value word carries no hint.
///
/// Together the two halves make one fp word a complete membership filter
/// for its bucket: a key stored in the segment is either in its main
/// bucket (slot tag) or reachable through a main-bucket hint (hint tag),
/// so a probe whose tag matches no byte is a definitive miss without
/// touching the bucket line.
pub mod fp_word {
    /// Slot-tag byte `j` (0..4).
    #[inline]
    pub fn slot_tag(word: u64, j: u8) -> u8 {
        debug_assert!(j < 4);
        (word >> (8 * j)) as u8
    }

    /// Replace slot-tag byte `j`.
    #[inline]
    pub fn with_slot_tag(word: u64, j: u8, tag: u8) -> u64 {
        debug_assert!(j < 4);
        (word & !(0xffu64 << (8 * j))) | (tag as u64) << (8 * j)
    }

    /// Hint-tag byte `j` (0..4).
    #[inline]
    pub fn hint_tag(word: u64, j: u8) -> u8 {
        debug_assert!(j < 4);
        (word >> (32 + 8 * j)) as u8
    }

    /// Replace hint-tag byte `j`.
    #[inline]
    pub fn with_hint_tag(word: u64, j: u8, tag: u8) -> u64 {
        debug_assert!(j < 4);
        (word & !(0xffu64 << (32 + 8 * j))) | (tag as u64) << (32 + 8 * j)
    }

    /// Bitmask (bit `j`) of slot-tag bytes equal to `tag`.
    #[inline]
    pub fn slot_candidates(word: u64, tag: u8) -> u8 {
        let mut m = 0u8;
        for j in 0..4 {
            if slot_tag(word, j) == tag {
                m |= 1 << j;
            }
        }
        m
    }

    /// Bitmask (bit `j`) of hint-tag bytes equal to `tag`.
    #[inline]
    pub fn hint_candidates(word: u64, tag: u8) -> u8 {
        let mut m = 0u8;
        for j in 0..4 {
            if hint_tag(word, j) == tag {
                m |= 1 << j;
            }
        }
        m
    }

    /// Does any byte (slot or hint tag) equal `tag`? False means the key
    /// is definitively absent from the segment.
    #[inline]
    pub fn any_match(word: u64, tag: u8) -> bool {
        slot_candidates(word, tag) != 0 || hint_candidates(word, tag) != 0
    }
}

/// A packed overflow hint: `[fp12:12][slot:4]`, never zero.
#[inline]
pub fn make_hint(hash: u64, slot_idx: u8) -> u16 {
    debug_assert!(slot_idx < SLOTS_PER_SEG);
    fp12(hash) << 4 | slot_idx as u16
}

/// If `hint` could refer to a key with hash `hash`, the candidate slot.
#[inline]
pub fn hint_matches(hint: u16, hash: u64) -> Option<u8> {
    if hint != 0 && hint >> 4 == fp12(hash) {
        Some((hint & 0xf) as u8)
    } else {
        None
    }
}

/// Byte address of slot `idx`'s key word within segment `seg`.
#[inline]
pub fn key_addr(seg: PmAddr, idx: u8) -> PmAddr {
    debug_assert!(idx < SLOTS_PER_SEG);
    PmAddr(seg.0 + idx as u64 * SLOT_SIZE)
}

/// Byte address of slot `idx`'s value word within segment `seg`.
#[inline]
pub fn value_addr(seg: PmAddr, idx: u8) -> PmAddr {
    PmAddr(key_addr(seg, idx).0 + 8)
}

/// The slot indexes of bucket `b`, in order.
#[inline]
pub fn bucket_slots(b: u8) -> core::ops::Range<u8> {
    let start = b * SLOTS_PER_BUCKET;
    start..start + SLOTS_PER_BUCKET
}

/// Buckets probed for a key whose main bucket is `b`, in circular order
/// (§III-A "starts the probing procedure from its main bucket and proceeds
/// in a circular order").
#[inline]
pub fn probe_order(b: u8) -> [u8; 4] {
    [b, (b + 1) % 4, (b + 2) % 4, (b + 3) % 4]
}

/// `(key word, value word)` of one bucket's four slots.
pub(crate) type BucketWords = [(u64, u64); SLOTS_PER_BUCKET as usize];

/// Where an insert will place its entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Placement {
    /// A free slot in the key's main bucket.
    Main(u8),
    /// A free slot in an overflow bucket plus the main-bucket slot whose
    /// value word will carry the overflow hint.
    Overflow { idx: u8, hint_slot: u8 },
    /// No placement possible: the segment must split.
    Full,
}

/// The placement rule (§III-A), one copy for live inserts and split
/// images: the first empty slot of main bucket `b`; else, when a value
/// word of `b` has no hint (every overflow entry must be findable
/// through one), the first empty slot of the other buckets in
/// [`probe_order`]. `bucket` reads one bucket's slots. It is called for
/// `b`, then for each overflow bucket in turn until one has room, so a
/// live insert reads no line the rule does not need. Placement hunts
/// *empty* slots: fp tags pre-filter occupied matches, not free space.
pub(crate) fn place(b: u8, mut bucket: impl FnMut(u8) -> BucketWords) -> Placement {
    let empty = |w: &BucketWords| w.iter().position(|&(kw, _)| SlotKey::unpack(kw).is_empty());
    let main = bucket(b);
    if let Some(i) = empty(&main) {
        return Placement::Main(b * SLOTS_PER_BUCKET + i as u8);
    }
    let Some(h) = main.iter().position(|&(_, vw)| value_word::hint(vw) == 0) else {
        return Placement::Full;
    };
    let hint_slot = b * SLOTS_PER_BUCKET + h as u8;
    for &ob in &probe_order(b)[1..] {
        if let Some(j) = empty(&bucket(ob)) {
            let idx = ob * SLOTS_PER_BUCKET + j as u8;
            return Placement::Overflow { idx, hint_slot };
        }
    }
    Placement::Full
}

/// The inline value-word payload of `value` under `key`, when the entry
/// fits its slot: a 6-byte value of a key of at most 48 bits. `None`:
/// the entry goes out of place.
pub(crate) fn inline_payload(key: u64, value: &[u8]) -> Option<u64> {
    if value.len() != INLINE_VALUE_LEN || key > MAX_INLINE_KEY {
        return None;
    }
    let mut le = [0u8; 8];
    le[..INLINE_VALUE_LEN].copy_from_slice(value);
    Some(u64::from_le_bytes(le))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_word_roundtrip() {
        for k in [
            SlotKey::Empty,
            SlotKey::Inline { key: 0, fp: 0 },
            SlotKey::Inline {
                key: MAX_INLINE_KEY,
                fp: 0x3fff,
            },
            SlotKey::Ptr {
                addr: PmAddr(0xdead_beef),
                fp: 0x1234,
                hb: 0x2a5,
            },
            SlotKey::Ptr {
                addr: PmAddr(MAX_ARENA - 1),
                fp: 0x3fff,
                hb: 0x3ff,
            },
        ] {
            assert_eq!(SlotKey::unpack(k.pack()), k);
        }
    }

    /// A `Ptr` key word's rule hash agrees with the key's full hash on
    /// every bit the rebuild rule reads.
    #[test]
    fn ptr_rule_hash_keeps_the_rule_bits() {
        for key in (0..4_096u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)) {
            let h = hash_key(key);
            let r = SlotKey::ptr(PmAddr(64), h).rule_hash().unwrap();
            assert_eq!(r, h & 0x1ff_fffb, "key {key:#x}");
            let rule_bits = |h| (bucket_of(h), fp12(h), fp14(h), fp8(h));
            assert_eq!(rule_bits(r), rule_bits(h));
        }
    }

    #[test]
    fn arena_bound_is_the_address_field() {
        assert_eq!(check_arena(64 << 20), Ok(()));
        assert_eq!(check_arena(MAX_ARENA), Ok(()));
        assert_eq!(
            check_arena(MAX_ARENA + 1),
            Err(IndexError::ArenaTooLarge {
                size: MAX_ARENA + 1,
                max: MAX_ARENA
            })
        );
    }

    #[test]
    fn empty_is_zero_word() {
        assert_eq!(SlotKey::Empty.pack(), 0);
        assert!(SlotKey::unpack(0).is_empty());
    }

    #[test]
    fn value_word_payload_and_hint_are_independent() {
        let w = value_word::with_payload(0, 0x1234_5678);
        let w = value_word::with_hint(w, 0xabcd);
        assert_eq!(value_word::payload(w), 0x1234_5678);
        assert_eq!(value_word::hint(w), 0xabcd);
        let w2 = value_word::with_payload(w, 7);
        assert_eq!(value_word::hint(w2), 0xabcd, "hint preserved");
        assert_eq!(value_word::payload(w2), 7);
        let w3 = value_word::with_hint(w2, 0);
        assert_eq!(value_word::payload(w3), 7, "payload preserved");
    }

    #[test]
    fn hint_is_never_zero() {
        // A hash whose bits 3..15 are all zero still yields a non-zero fp.
        let h = 0u64;
        let hint = make_hint(h, 0);
        assert_ne!(hint, 0);
        assert_eq!(hint_matches(hint, h), Some(0));
    }

    #[test]
    fn hint_roundtrip_and_mismatch() {
        let h = 0xdead_beef_cafe_f00d;
        let hint = make_hint(h, 13);
        assert_eq!(hint_matches(hint, h), Some(13));
        // A different hash (different fp12) must not match.
        let other = 0x1111_2222_3333_4444;
        assert_ne!(fp12(h), fp12(other));
        assert_eq!(hint_matches(hint, other), None);
        assert_eq!(hint_matches(0, h), None, "no-hint never matches");
    }

    #[test]
    fn addresses_are_within_the_segment() {
        let seg = PmAddr(0x1000);
        assert_eq!(key_addr(seg, 0).0, 0x1000);
        assert_eq!(value_addr(seg, 0).0, 0x1008);
        assert_eq!(key_addr(seg, 15).0, 0x10f0);
        assert_eq!(value_addr(seg, 15).0, 0x10f8);
    }

    #[test]
    fn probe_order_is_circular() {
        assert_eq!(probe_order(0), [0, 1, 2, 3]);
        assert_eq!(probe_order(2), [2, 3, 0, 1]);
        assert_eq!(probe_order(3), [3, 0, 1, 2]);
    }

    #[test]
    fn bucket_slots_cover_the_segment() {
        let mut seen = [false; 16];
        for b in 0..BUCKETS_PER_SEG {
            for s in bucket_slots(b) {
                assert!(!seen[s as usize]);
                seen[s as usize] = true;
            }
        }
        assert!(seen.iter().all(|&x| x));
    }

    #[test]
    fn fingerprints_use_disjoint_encoding_bits() {
        let h = u64::MAX;
        assert_eq!(fp14(h), 0x3fff);
        assert_eq!(fp12(h), 0xfff);
        assert_eq!(bucket_of(h), 3);
    }

    // The collide/wrong-tag hooks are process-global, so they are never
    // flipped inside this (parallel) unit-test binary — other tests
    // write and verify tags concurrently. Hook behaviour is exercised by
    // tests/fingerprint_oracle.rs, which owns its whole process.
    #[test]
    fn fp8_is_never_zero_and_uses_bits_17_to_24() {
        assert_eq!(fp8(0), 1, "zero tag remapped to 1");
        assert_eq!(fp8(0xab << 17), 0xab);
        // Bits below 17 (bucket, fp14, fp12) don't affect the tag.
        assert_eq!(fp8(0xab << 17 | 0x1_ffff), 0xab);
    }

    #[test]
    fn fp_word_tags_are_independent() {
        let mut w = 0u64;
        for j in 0..4 {
            w = fp_word::with_slot_tag(w, j, 0x10 + j);
            w = fp_word::with_hint_tag(w, j, 0x20 + j);
        }
        for j in 0..4 {
            assert_eq!(fp_word::slot_tag(w, j), 0x10 + j);
            assert_eq!(fp_word::hint_tag(w, j), 0x20 + j);
        }
        // Clearing one byte leaves the other seven intact.
        let w2 = fp_word::with_slot_tag(w, 2, 0);
        assert_eq!(fp_word::slot_tag(w2, 2), 0);
        assert_eq!(fp_word::slot_tag(w2, 1), 0x11);
        assert_eq!(fp_word::hint_tag(w2, 2), 0x22);
    }

    #[test]
    fn fp_word_candidate_masks() {
        let mut w = 0u64;
        w = fp_word::with_slot_tag(w, 0, 0x7f);
        w = fp_word::with_slot_tag(w, 3, 0x7f);
        w = fp_word::with_hint_tag(w, 1, 0x7f);
        assert_eq!(fp_word::slot_candidates(w, 0x7f), 0b1001);
        assert_eq!(fp_word::hint_candidates(w, 0x7f), 0b0010);
        assert!(fp_word::any_match(w, 0x7f));
        assert!(!fp_word::any_match(w, 0x42));
        // Tag 0 marks empties; an all-empty word has no zero "candidates"
        // in the probe sense because fp8 never returns 0.
        assert_eq!(fp_word::slot_candidates(0, fp8(0)), 0);
    }
}
