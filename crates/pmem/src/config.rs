//! Platform configuration: arena size, cache geometry, persistence domain.

use crate::cost::CostModel;

/// Which part of the memory hierarchy survives a power failure.
///
/// Mirrors the two generations of Optane platforms (paper §II-A): ADR
/// (Apache Pass) persists only the write pending queues and the media, so
/// unflushed dirty cachelines are lost; eADR (Barlow Pass) flushes the CPU
/// cache with reserved energy, so everything visible is durable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PersistenceDomain {
    /// CPU cache is volatile: dirty, unflushed cachelines are lost on crash.
    Adr,
    /// CPU cache is inside the persistence domain (eADR): dirty cachelines
    /// survive a crash.
    Eadr,
}

/// Associativity of the modelled cache.
pub const CACHE_WAYS: usize = 8;

/// XPLine slots in the media's write-combining XPBuffer.
pub const XPBUFFER_SLOTS: usize = 64;

/// Configuration of the simulated platform.
#[derive(Clone, Debug)]
pub struct PmConfig {
    /// Size of the PM arena in bytes. Rounded up to an XPLine multiple.
    pub arena_size: u64,
    /// Total modelled cache capacity in bytes across all shards. Default
    /// 64 MiB, in the spirit of the testbed's 42 MB LLC plus private L2s.
    pub cache_capacity: u64,
    /// Number of cache shards (each behind its own mutex).
    pub cache_shards: usize,
    /// Persistence domain (ADR or eADR). Under ADR the cache model keeps
    /// a pre-image of every dirty line, so that a power failure can revert
    /// what was never flushed; under eADR it keeps none.
    pub domain: PersistenceDomain,
    /// Enable the persistence-ordering sanitizer ([`crate::san`]). Off
    /// (the default) costs nothing on data paths.
    pub san: bool,
    /// Latency/bandwidth constants (associated constants of the type).
    pub cost: CostModel,
}

impl Default for PmConfig {
    fn default() -> Self {
        Self {
            arena_size: 1 << 30,
            cache_capacity: 64 << 20,
            cache_shards: 64,
            domain: PersistenceDomain::Eadr,
            san: false,
            cost: CostModel,
        }
    }
}

impl PmConfig {
    /// A small configuration for unit tests: 16 MiB arena, 1 MiB cache.
    pub fn small_test() -> Self {
        Self {
            arena_size: 16 << 20,
            cache_capacity: 1 << 20,
            cache_shards: 8,
            ..Self::default()
        }
    }

    /// [`PmConfig::small_test`] with a volatile cache, for
    /// crash-consistency tests.
    pub fn adr_test() -> Self {
        Self {
            domain: PersistenceDomain::Adr,
            ..Self::small_test()
        }
    }

    pub(crate) fn normalized(mut self) -> Self {
        let xp = crate::XPLINE;
        self.arena_size = self.arena_size.div_ceil(xp) * xp;
        assert!(self.arena_size > 0, "arena_size must be non-zero");
        assert!(self.cache_shards > 0, "cache_shards must be non-zero");
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_size_rounds_up_to_xpline() {
        let cfg = PmConfig {
            arena_size: 1000,
            ..PmConfig::default()
        }
        .normalized();
        assert_eq!(cfg.arena_size, 1024);
    }

    #[test]
    fn default_domain_is_eadr() {
        assert_eq!(PmConfig::default().domain, PersistenceDomain::Eadr);
    }

    #[test]
    #[should_panic(expected = "arena_size")]
    fn zero_arena_rejected() {
        let _ = PmConfig {
            arena_size: 0,
            ..PmConfig::default()
        }
        .normalized();
    }
}
