//! Spash configuration, including the ablation switches used by the
//! paper's in-depth analysis (§VI-D, Fig 12).

use std::collections::HashSet;

use spash_htm::HtmConfig;

/// How updates decide whether to issue flush instructions (Table I /
/// Fig 12a).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UpdatePolicy {
    /// The paper's adaptive strategy: hot → write-nf; cold ≤64 B →
    /// write-nf; cold >64 B → asynchronous write-f. Hotness comes from
    /// the index's own hot-key detector (§III-B).
    Adaptive,
    /// The adaptive strategy with a zero-cost oracle for hotness: a key
    /// is hot iff its hash is in the set (Fig 12a's "oracle hotspot
    /// detector", fed by the workload generator's access probabilities).
    Oracle(HashSet<u64>),
    /// "in-place update (w/ flush)": flush after every update.
    AlwaysFlush,
    /// "in-place update (w/o flush)": never flush.
    NeverFlush,
}

/// Insertion allocation/flush strategy for out-of-place values (Fig 12b).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InsertPolicy {
    /// Compact small blobs into per-thread XPLine chunks and actively
    /// flush each chunk when it fills (the paper's mechanism, §III-C).
    CompactedFlush,
    /// Compact, but never actively flush (rely on random eviction) —
    /// the "w/o active flush" ablation bar.
    CompactedNoFlush,
    /// No compaction: small blobs are scattered (each insertion goes to a
    /// different XPLine), modelling conventional out-of-place insertion.
    Scattered,
}

/// Concurrency-control variants (Fig 12c).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConcurrencyMode {
    /// The paper's protocol: two-phase HTM with lock fallback.
    Htm,
    /// "Spash (w/ write lock)": per-segment lock serializes writes,
    /// reads stay lock-free (Dash-style).
    WriteLock,
    /// "Spash (w/ write & read lock)": per-segment lock for both reads
    /// and writes (Level-hashing-style).
    WriteReadLock,
}

/// Spash configuration. Plain data: the index builds its own volatile
/// state (the hot-key detector), so indexes built from clones of one
/// config share nothing.
#[derive(Clone, Debug)]
pub struct SpashConfig {
    /// Initial directory/segment depth: the table starts with
    /// `2^initial_depth` one-XPLine segments.
    pub initial_depth: u32,
    /// Update flush policy (Table I).
    pub update_policy: UpdatePolicy,
    /// Insertion policy (§III-C).
    pub insert_policy: InsertPolicy,
    /// Concurrency-control variant (§IV).
    pub concurrency: ConcurrencyMode,
    /// Requests executed in a pipelined batch per core (§III-D; the paper
    /// settles on 4).
    pub pipeline_depth: usize,
    /// Transaction conflict retries before falling back to the segment
    /// lock (§IV-A).
    pub max_tx_retries: u32,
    /// Software-HTM geometry.
    pub htm: HtmConfig,
}

impl Default for SpashConfig {
    fn default() -> Self {
        Self {
            initial_depth: 6,
            update_policy: UpdatePolicy::Adaptive,
            insert_policy: InsertPolicy::CompactedFlush,
            concurrency: ConcurrencyMode::Htm,
            pipeline_depth: 4,
            max_tx_retries: 8,
            htm: HtmConfig::default(),
        }
    }
}

impl SpashConfig {
    /// A small table for unit tests.
    pub fn test_default() -> Self {
        Self {
            initial_depth: 2,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_choices() {
        let c = SpashConfig::default();
        assert_eq!(c.pipeline_depth, 4, "paper §VI-D settles on PD=4");
        assert_eq!(c.concurrency, ConcurrencyMode::Htm);
        assert_eq!(c.insert_policy, InsertPolicy::CompactedFlush);
        assert_eq!(c.update_policy, UpdatePolicy::Adaptive);
    }

    #[test]
    fn debug_formatting_of_policy() {
        assert_eq!(format!("{:?}", UpdatePolicy::AlwaysFlush), "AlwaysFlush");
        assert_eq!(format!("{:?}", UpdatePolicy::Adaptive), "Adaptive");
    }
}
