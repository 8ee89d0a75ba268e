//! The byte arena standing in for the physical PM address space.
//!
//! All data is stored in a heap allocation of `AtomicU64` words so that
//! concurrent simulated threads can race on it without undefined behaviour.
//! Word accesses use relaxed ordering: the structures built on top (the
//! software HTM, virtual-time locks, per-bucket locks in the baselines)
//! provide the synchronization that publishes multi-word data.

use std::sync::atomic::{AtomicU64, Ordering};

/// A byte offset into the PM arena.
///
/// Offsets are plain integers rather than pointers so that they can be
/// stored *inside* PM (a pointer persisted across a crash must remain
/// meaningful after recovery maps the arena elsewhere).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PmAddr(pub u64);

impl PmAddr {
    /// The null address. Offset 0 is reserved by the allocator superblock,
    /// so 0 never addresses user data.
    pub const NULL: PmAddr = PmAddr(0);

    #[inline]
    pub fn is_null(self) -> bool {
        self.0 == 0
    }

    #[inline]
    pub fn offset(self, delta: u64) -> PmAddr {
        PmAddr(self.0 + delta)
    }
}

/// The simulated PM address space.
pub struct Arena {
    words: Box<[AtomicU64]>,
    size: u64,
}

impl Arena {
    /// Allocate a zeroed arena of `size` bytes (must be a multiple of 8).
    pub fn new(size: u64) -> Self {
        assert_eq!(size % 8, 0, "arena size must be 8-byte aligned");
        let n = (size / 8) as usize;
        let mut v = Vec::with_capacity(n);
        v.resize_with(n, || AtomicU64::new(0));
        Self {
            words: v.into_boxed_slice(),
            size,
        }
    }

    /// Arena size in bytes.
    #[inline]
    pub fn size(&self) -> u64 {
        self.size
    }

    #[inline]
    fn word(&self, addr: u64) -> &AtomicU64 {
        debug_assert_eq!(addr % 8, 0, "unaligned word access at {addr:#x}");
        &self.words[(addr / 8) as usize]
    }

    /// Load an aligned u64.
    #[inline]
    pub fn load_u64(&self, addr: PmAddr) -> u64 {
        self.word(addr.0).load(Ordering::Acquire)
    }

    /// Store an aligned u64.
    #[inline]
    pub fn store_u64(&self, addr: PmAddr, v: u64) {
        self.word(addr.0).store(v, Ordering::Release);
    }

    /// Compare-and-swap an aligned u64. Returns the previous value on
    /// failure.
    #[inline]
    pub fn cas_u64(&self, addr: PmAddr, current: u64, new: u64) -> Result<u64, u64> {
        self.word(addr.0)
            .compare_exchange(current, new, Ordering::AcqRel, Ordering::Acquire)
    }

    /// Atomic fetch-or on an aligned u64.
    #[inline]
    pub fn fetch_or_u64(&self, addr: PmAddr, bits: u64) -> u64 {
        self.word(addr.0).fetch_or(bits, Ordering::AcqRel)
    }

    /// Atomic fetch-and on an aligned u64.
    #[inline]
    pub fn fetch_and_u64(&self, addr: PmAddr, bits: u64) -> u64 {
        self.word(addr.0).fetch_and(bits, Ordering::AcqRel)
    }

    /// Hint the host to start loading the line of the word at `addr`
    /// ([`crate::host_prefetch`]); an address outside the arena is ignored.
    #[inline]
    pub(crate) fn host_prefetch(&self, addr: PmAddr) {
        if let Some(w) = self.words.get((addr.0 / 8) as usize) {
            crate::host_prefetch(w);
        }
    }

    /// Copy bytes out of the arena. Tolerates unaligned `addr`/length.
    /// One atomic load per word touched, mirroring [`Self::write_bytes`].
    pub fn read_bytes(&self, addr: PmAddr, out: &mut [u8]) {
        // Leading partial word.
        let lead = ((8 - addr.0 % 8) % 8).min(out.len() as u64) as usize;
        let (head, rest) = out.split_at_mut(lead);
        if lead > 0 {
            let w = self.word(addr.0 & !7).load(Ordering::Acquire).to_le_bytes();
            let skip = (addr.0 % 8) as usize;
            head.copy_from_slice(&w[skip..skip + lead]);
        }
        // Whole words, then the trailing partial word.
        let mut a = addr.0 + lead as u64;
        for chunk in rest.chunks_mut(8) {
            let w = self.word(a).load(Ordering::Acquire).to_le_bytes();
            chunk.copy_from_slice(&w[..chunk.len()]);
            a += 8;
        }
    }

    /// Copy bytes into the arena. Byte-granular writes within a word use
    /// read-modify-write; concurrent writers to the *same word* must be
    /// excluded by higher-level locking (true of every structure here).
    pub fn write_bytes(&self, addr: PmAddr, data: &[u8]) {
        let mut a = addr.0;
        let mut i = 0;
        // Leading partial word.
        while i < data.len() && !a.is_multiple_of(8) {
            self.write_byte(a, data[i]);
            a += 1;
            i += 1;
        }
        // Whole words.
        while i + 8 <= data.len() {
            let w = u64::from_le_bytes(data[i..i + 8].try_into().unwrap());
            self.word(a).store(w, Ordering::Release);
            a += 8;
            i += 8;
        }
        // Trailing partial word.
        while i < data.len() {
            self.write_byte(a, data[i]);
            a += 1;
            i += 1;
        }
    }

    fn write_byte(&self, a: u64, b: u8) {
        let w = self.word(a & !7);
        let shift = (a % 8) * 8;
        let mask = !(0xffu64 << shift);
        let mut cur = w.load(Ordering::Relaxed);
        loop {
            let new = (cur & mask) | ((b as u64) << shift);
            match w.compare_exchange_weak(cur, new, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => return,
                Err(c) => cur = c,
            }
        }
    }

    /// Copy a whole 64-byte cacheline out (used for pre-image capture).
    pub(crate) fn read_line(&self, line: u64, out: &mut [u8; 64]) {
        self.read_bytes(PmAddr(line * crate::CACHELINE), out);
    }

    /// Copy a whole 64-byte cacheline in (used for ADR crash revert).
    pub(crate) fn write_line(&self, line: u64, data: &[u8; 64]) {
        self.write_bytes(PmAddr(line * crate::CACHELINE), data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_roundtrip() {
        let a = Arena::new(4096);
        a.store_u64(PmAddr(8), 0xdead_beef_cafe_f00d);
        assert_eq!(a.load_u64(PmAddr(8)), 0xdead_beef_cafe_f00d);
        assert_eq!(a.load_u64(PmAddr(16)), 0);
    }

    #[test]
    fn cas_succeeds_and_fails() {
        let a = Arena::new(64);
        a.store_u64(PmAddr(0), 7);
        assert_eq!(a.cas_u64(PmAddr(0), 7, 9), Ok(7));
        assert_eq!(a.cas_u64(PmAddr(0), 7, 11), Err(9));
        assert_eq!(a.load_u64(PmAddr(0)), 9);
    }

    #[test]
    fn unaligned_byte_roundtrip() {
        let a = Arena::new(128);
        let data: Vec<u8> = (0..23u8).collect();
        a.write_bytes(PmAddr(3), &data);
        let mut out = vec![0u8; 23];
        a.read_bytes(PmAddr(3), &mut out);
        assert_eq!(out, data);
        // Neighbours untouched.
        let mut b = [0u8; 3];
        a.read_bytes(PmAddr(0), &mut b);
        assert_eq!(b, [0, 0, 0]);
    }

    #[test]
    fn read_bytes_matches_its_bytewise_definition() {
        let a = Arena::new(64);
        for i in 0..8u64 {
            a.store_u64(
                PmAddr(i * 8),
                0x0101_0101_0101_0101u64.wrapping_mul(i) ^ 0x0706_0504_0302_0100,
            );
        }
        let byte_at = |addr: u64| (a.load_u64(PmAddr(addr & !7)) >> (addr % 8 * 8)) as u8;
        for start in 8..16u64 {
            for len in 0..=17usize {
                let mut out = vec![0xeeu8; len + 1];
                a.read_bytes(PmAddr(start), &mut out[..len]);
                let want: Vec<u8> = (start..start + len as u64).map(byte_at).collect();
                assert_eq!(&out[..len], &want[..], "addr%8={} len={len}", start % 8);
                assert_eq!(out[len], 0xee, "wrote past the output");
            }
        }
    }

    #[test]
    fn line_copy_roundtrip() {
        let a = Arena::new(256);
        let mut line = [0u8; 64];
        for (i, b) in line.iter_mut().enumerate() {
            *b = i as u8;
        }
        a.write_line(2, &line);
        let mut out = [0u8; 64];
        a.read_line(2, &mut out);
        assert_eq!(out, line);
    }

    #[test]
    fn fetch_or_and() {
        let a = Arena::new(64);
        a.fetch_or_u64(PmAddr(0), 0b1010);
        assert_eq!(a.load_u64(PmAddr(0)), 0b1010);
        a.fetch_and_u64(PmAddr(0), 0b0110);
        assert_eq!(a.load_u64(PmAddr(0)), 0b0010);
    }

    #[test]
    fn null_addr() {
        assert!(PmAddr::NULL.is_null());
        assert!(!PmAddr(8).is_null());
        assert_eq!(PmAddr(8).offset(4), PmAddr(12));
    }
}
