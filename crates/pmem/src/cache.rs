//! The CPU cache model.
//!
//! A sharded, set-associative, write-back cache over the PM address space.
//! The model does not hold data — the arena is always authoritative — it
//! tracks *residency* and *dirtiness*, which is all that is needed to
//! decide (a) whether an access hits, (b) when media writes happen
//! (eviction/flush), and (c) what a power failure loses under ADR.
//!
//! Under [`PersistenceDomain::Adr`] the model captures a pre-image of each
//! line on its clean-to-dirty transition so that a crash can revert
//! unflushed data — the mechanism behind the crash-consistency tests.
//! Under eADR a crash keeps every line, so nothing is captured.

use crate::arena::Arena;
use crate::config::PersistenceDomain;
use crate::sync::WordLock;

/// One shard's ways as parallel arrays, set-major (`set * ways + way`):
/// the lookup scans only tags, so an 8-way set costs one host line.
struct Shard {
    /// `line + 1` per way; 0 = empty. Indexed past `pad`.
    tags: Vec<u64>,
    /// Words skipped at the front of `tags` so that way 0 of set 0 — and
    /// with it every 8-way set — starts on a host cacheline.
    pad: usize,
    /// Only a resident way is ever dirty.
    dirty: Vec<bool>,
    /// The line's content at its clean-to-dirty transition, meaningful
    /// while the way is dirty. Kept only under ADR; empty otherwise.
    preimage: Vec<[u8; 64]>,
    /// Accesses so far; feeds victim selection.
    tick: u64,
}

const HOST_LINE: usize = 64;

impl Shard {
    fn new(n_ways: usize, domain: PersistenceDomain) -> Self {
        let tags = vec![0u64; n_ways + HOST_LINE / 8 - 1];
        // In elements; the Vec is never resized, so it stays valid.
        let pad = tags.as_ptr().align_offset(HOST_LINE);
        Self {
            pad: if pad < HOST_LINE / 8 { pad } else { 0 },
            tags,
            dirty: vec![false; n_ways],
            preimage: match domain {
                PersistenceDomain::Adr => vec![[0u8; 64]; n_ways],
                PersistenceDomain::Eadr => Vec::new(),
            },
            tick: 0,
        }
    }

    /// The tags of every way, in set-major order.
    fn tags(&mut self) -> &mut [u64] {
        let n = self.dirty.len();
        &mut self.tags[self.pad..self.pad + n]
    }

    /// Empty every way, handing each dirty one to `lost(way, line)` first
    /// — in set-major order, which is the order the bulk walks report.
    fn drain(&mut self, mut lost: impl FnMut(&mut Self, usize, u64)) {
        for w in 0..self.dirty.len() {
            let tag = std::mem::take(&mut self.tags()[w]);
            if std::mem::take(&mut self.dirty[w]) {
                lost(self, w, tag - 1);
            }
        }
    }
}

/// What a cache access did, so the device can charge costs and drive media.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessResult {
    pub hit: bool,
    /// A dirty line that had to be written back to make room.
    pub evicted_dirty: Option<u64>,
}

/// The sharded cache model.
pub struct CacheModel {
    /// No sync point inside any critical section, so one-word locks.
    shards: Vec<WordLock<Shard>>,
    sets_per_shard: usize,
    ways: usize,
    domain: PersistenceDomain,
}

impl CacheModel {
    pub fn new(capacity_bytes: u64, ways: usize, shards: usize, domain: PersistenceDomain) -> Self {
        let total_lines = (capacity_bytes / crate::CACHELINE).max(1) as usize;
        let total_sets = (total_lines / ways).max(shards);
        let sets_per_shard = total_sets.div_ceil(shards);
        let shards = (0..shards)
            .map(|_| WordLock::new(Shard::new(sets_per_shard * ways, domain)))
            .collect();
        Self {
            shards,
            sets_per_shard,
            ways,
            domain,
        }
    }

    #[inline]
    fn locate(&self, line: u64) -> (usize, usize) {
        // Distribute consecutive lines round-robin over shards, then over
        // sets within the shard, so hot contiguous regions spread out.
        let shard = (line as usize) % self.shards.len();
        let set = ((line as usize) / self.shards.len()) % self.sets_per_shard;
        (shard, set)
    }

    /// Simulate a load or store of `line`. A store under ADR captures
    /// the line's pre-image on its clean-to-dirty transition: `pre` when
    /// the caller copied the line before a store it already made (a
    /// successful CAS), else the line as `arena` holds it now, so the
    /// caller must perform its store *after* this call.
    pub fn access(
        &self,
        line: u64,
        write: bool,
        arena: &Arena,
        pre: Option<&[u8; 64]>,
    ) -> AccessResult {
        let (si, set) = self.locate(line);
        let mut sh = self.shards[si].lock();
        let sh = &mut *sh;
        sh.tick += 1;
        let base = set * self.ways;
        let tag = line + 1;
        let capture = self.domain == PersistenceDomain::Adr;
        let capture_into = |buf: &mut [u8; 64]| match pre {
            Some(p) => *buf = *p,
            None => arena.read_line(line, buf),
        };
        let set_tags = &mut sh.tags[sh.pad + base..][..self.ways];

        if let Some(j) = set_tags.iter().position(|&t| t == tag) {
            let w = base + j;
            if write && !sh.dirty[w] {
                sh.dirty[w] = true;
                if capture {
                    capture_into(&mut sh.preimage[w]);
                }
            }
            return AccessResult {
                hit: true,
                evicted_dirty: None,
            };
        }

        // Miss: find a victim — an empty way if any, else a pseudo-random
        // resident way. Random replacement is deliberate: the paper's
        // Observation 2 hinges on "random cacheline eviction" breaking up
        // XPLine-sized writes, which an LRU that ages sibling lines in
        // lockstep would (unrealistically) keep together.
        let j = set_tags.iter().position(|&t| t == 0).unwrap_or_else(|| {
            ((sh.tick ^ line).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 33) as usize % self.ways
        });
        let w = base + j;
        let evicted_dirty = (set_tags[j] != 0 && sh.dirty[w]).then(|| set_tags[j] - 1);
        set_tags[j] = tag;
        sh.dirty[w] = write;
        if write && capture {
            capture_into(&mut sh.preimage[w]);
        }
        AccessResult {
            hit: false,
            evicted_dirty,
        }
    }

    /// Install `line` as clean-resident without charging (prefetch
    /// completion). Returns an evicted dirty line, if any.
    pub fn install_clean(&self, line: u64, arena: &Arena) -> Option<u64> {
        let r = self.access(line, false, arena, None);
        r.evicted_dirty
    }

    /// Is `line` currently resident?
    pub fn is_resident(&self, line: u64) -> bool {
        let (si, set) = self.locate(line);
        let sh = self.shards[si].lock();
        sh.tags[sh.pad + set * self.ways..][..self.ways].contains(&(line + 1))
    }

    /// Explicit `clwb`: clear the dirty bit (the line stays resident).
    /// Returns `true` if the line was dirty (a writeback goes to media).
    pub fn flush(&self, line: u64) -> bool {
        let (si, set) = self.locate(line);
        let mut sh = self.shards[si].lock();
        let base = set * self.ways;
        let set_tags = &sh.tags[sh.pad + base..][..self.ways];
        match set_tags.iter().position(|&t| t == line + 1) {
            Some(j) => std::mem::replace(&mut sh.dirty[base + j], false),
            None => false,
        }
    }

    /// A power failure in the cache's persistence domain. Under eADR every
    /// dirty line is flushed by the reserved energy (the flushed lines are
    /// returned so the device can count the writebacks); under ADR every
    /// dirty line is *lost*: its pre-image is copied back into the arena
    /// and the line is returned in the second (reverted) list.
    pub fn power_failure(&self, arena: &Arena) -> (Vec<u64>, Vec<u64>) {
        let mut writebacks = Vec::new();
        let mut reverted = Vec::new();
        for sh in &self.shards {
            sh.lock().drain(|sh, w, line| match self.domain {
                PersistenceDomain::Eadr => writebacks.push(line),
                PersistenceDomain::Adr => {
                    arena.write_line(line, &sh.preimage[w]);
                    reverted.push(line);
                }
            });
        }
        (writebacks, reverted)
    }

    /// Write back and evict *everything* (like `wbinvd`): tests use this
    /// to measure cold-cache access counts. Returns the dirty lines.
    pub fn invalidate_all(&self) -> Vec<u64> {
        let mut out = Vec::new();
        for sh in &self.shards {
            sh.lock().drain(|_, _, line| out.push(line));
        }
        out
    }

    /// Flush every dirty line (quiesce between benchmark phases). Returns
    /// the lines written back.
    pub fn flush_all(&self) -> Vec<u64> {
        let mut out = Vec::new();
        for sh in &self.shards {
            let mut sh = sh.lock();
            for w in 0..sh.dirty.len() {
                if std::mem::replace(&mut sh.dirty[w], false) {
                    out.push(sh.tags()[w] - 1);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arena() -> Arena {
        Arena::new(1 << 20)
    }

    fn small_cache(domain: PersistenceDomain) -> CacheModel {
        // 2 shards * 2 sets * 2 ways = 8 lines capacity.
        CacheModel::new(8 * 64, 2, 2, domain)
    }

    #[test]
    fn miss_then_hit() {
        let a = arena();
        let c = small_cache(PersistenceDomain::Eadr);
        let r1 = c.access(5, false, &a, None);
        assert!(!r1.hit);
        let r2 = c.access(5, false, &a, None);
        assert!(r2.hit);
        assert!(c.is_resident(5));
        assert!(!c.is_resident(6));
    }

    #[test]
    fn dirty_eviction_reported() {
        let a = arena();
        // 1 shard, 1 set, 2 ways: lines collide aggressively.
        let c = CacheModel::new(2 * 64, 2, 1, PersistenceDomain::Eadr);
        c.access(1, true, &a, None);
        c.access(2, true, &a, None);
        // Both ways hold dirty lines, so the third distinct line evicts a
        // dirty victim. Which one is pseudo-random by design (paper
        // Observation 2) — a hash of the shard's access count and the
        // line; here it selects line 1.
        let r = c.access(3, true, &a, None);
        assert_eq!(r.evicted_dirty, Some(1));
    }

    #[test]
    fn flush_clears_dirty_keeps_resident() {
        let a = arena();
        let c = small_cache(PersistenceDomain::Eadr);
        c.access(7, true, &a, None);
        assert!(c.flush(7));
        assert!(!c.flush(7)); // already clean
        assert!(c.is_resident(7));
    }

    #[test]
    fn adr_crash_reverts_unflushed_line() {
        let a = arena();
        let c = small_cache(PersistenceDomain::Adr);
        let addr = crate::PmAddr(64 * 3);
        a.store_u64(addr, 111);
        c.access(3, true, &a, None); // capture pre-image (value 111)
        a.store_u64(addr, 222); // the actual store
        c.power_failure(&a);
        assert_eq!(a.load_u64(addr), 111, "unflushed write must be lost");
    }

    #[test]
    fn adr_crash_keeps_flushed_line() {
        let a = arena();
        let c = small_cache(PersistenceDomain::Adr);
        let addr = crate::PmAddr(64 * 3);
        a.store_u64(addr, 111);
        c.access(3, true, &a, None);
        a.store_u64(addr, 222);
        assert!(c.flush(3)); // clwb reached the persistence domain
        c.power_failure(&a);
        assert_eq!(a.load_u64(addr), 222);
    }

    #[test]
    fn eadr_crash_keeps_everything() {
        let a = arena();
        let c = small_cache(PersistenceDomain::Eadr);
        let addr = crate::PmAddr(64 * 3);
        a.store_u64(addr, 111);
        c.access(3, true, &a, None);
        a.store_u64(addr, 222);
        let (wb, reverted) = c.power_failure(&a);
        assert_eq!(wb, vec![3]);
        assert!(reverted.is_empty());
        assert_eq!(a.load_u64(addr), 222);
    }

    #[test]
    fn eviction_drops_preimage_write_survives_adr_crash() {
        let a = arena();
        // Tiny cache: 1 shard, 1 set, 1 way.
        let c = CacheModel::new(64, 1, 1, PersistenceDomain::Adr);
        let addr = crate::PmAddr(64);
        a.store_u64(addr, 1);
        c.access(1, true, &a, None);
        a.store_u64(addr, 2);
        // Evict line 1 by touching line 2: the writeback persists it.
        let r = c.access(2, false, &a, None);
        assert_eq!(r.evicted_dirty, Some(1));
        c.power_failure(&a);
        assert_eq!(a.load_u64(addr), 2, "evicted (written-back) data is durable");
    }

    /// FNV-1a over little-endian words: the pins below hash every value
    /// the model returns.
    struct Fnv(u64);
    impl Fnv {
        fn word(&mut self, w: u64) {
            for b in w.to_le_bytes() {
                self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        fn lines(&mut self, lines: &[u64]) {
            self.word(lines.len() as u64);
            for &l in lines {
                self.word(l);
            }
        }
    }

    /// What "bit-identical" means for the cache model below the
    /// benchmark: a seeded sequence of every call the data path makes,
    /// hashing each return value, the *order* of the bulk walks'
    /// output, and the arena image an ADR crash leaves behind. Captured
    /// on the array-of-`Way` layout; any re-layout must reproduce it.
    #[test]
    fn seeded_call_sequence_is_pinned() {
        const LINES: u64 = 200;
        let a = arena();
        // 4 shards * 4 sets * 4 ways = 64 lines.
        let c = CacheModel::new(64 * 64, 4, 4, PersistenceDomain::Adr);
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        let mut s = 0x5eed_cafe_f00d_u64;
        let mut next = move || {
            // splitmix64
            s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        // Coverage: hits, dirty evictions, dirty flushes, resident
        // probes, dirty evictions by install_clean.
        let mut seen = [0u64; 5];
        let mut step = |h: &mut Fnv, i: u64| {
            let r = next();
            let line = (r >> 8) % LINES;
            let mut saw = |what: usize, yes: bool| {
                seen[what] += yes as u64;
                yes as u64
            };
            match r % 100 {
                0..=79 => {
                    let write = r % 100 >= 50;
                    let res = c.access(line, write, &a, None);
                    h.word(saw(0, res.hit));
                    saw(1, res.evicted_dirty.is_some());
                    h.word(res.evicted_dirty.map_or(u64::MAX, |l| l));
                    if write {
                        // The store follows the access, as on the data
                        // path: the pre-image is the value before it.
                        a.store_u64(crate::PmAddr(line * 64 + (r >> 40) % 8 * 8), i + 1);
                    }
                }
                80..=87 => h.word(saw(2, c.flush(line))),
                88..=95 => h.word(saw(3, c.is_resident(line))),
                _ => {
                    let victim = c.install_clean(line, &a);
                    saw(4, victim.is_some());
                    h.word(victim.map_or(u64::MAX, |l| l));
                }
            }
        };
        for i in 0..100_000u64 {
            step(&mut h, i);
            if i % 10_000 == 9_999 {
                h.lines(&c.flush_all());
            }
        }
        for i in 100_000..100_500u64 {
            step(&mut h, i);
        }
        let (flushed, reverted) = c.power_failure(&a);
        h.lines(&flushed);
        h.lines(&reverted);
        for w in 0..LINES * 8 {
            h.word(a.load_u64(crate::PmAddr(w * 8)));
        }
        // The crash emptied the cache; refill and pin the wbinvd walk.
        for i in 100_500..101_000u64 {
            step(&mut h, i);
        }
        h.lines(&c.invalidate_all());
        assert!(!reverted.is_empty() && seen.iter().all(|&n| n > 100), "{seen:?}");
        assert_eq!(h.0, 0x1117_7b29_12b4_9387, "hash {:#018x}", h.0);
    }

    #[test]
    fn flush_all_returns_dirty_lines() {
        let a = arena();
        let c = small_cache(PersistenceDomain::Eadr);
        c.access(1, true, &a, None);
        c.access(2, false, &a, None);
        c.access(3, true, &a, None);
        let mut dirty = c.flush_all();
        dirty.sort_unstable();
        assert_eq!(dirty, vec![1, 3]);
        assert!(c.flush_all().is_empty());
    }
}
