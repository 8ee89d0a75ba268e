//! The six state-of-the-art persistent hash indexes the Spash paper
//! compares against (§VI-A), reimplemented on the same simulated PM
//! substrate so that PM-access and contention comparisons are
//! apples-to-apples:
//!
//! | Index | Source | Character the evaluation depends on |
//! |---|---|---|
//! | [`Cceh`]   | FAST'19  | coarse 16 KiB extendible segments, PM read-write locks, lazy deletion |
//! | [`Dash`]   | VLDB'20  | fingerprints, stash buckets, optimistic reads, lock-based writes |
//! | [`Level`]  | OSDI'18  | two-level probing, full-table rehash, PM locks on reads *and* writes |
//! | [`CLevel`] | ATC'20   | lock-free CAS slots, all values out-of-place, background-style migration |
//! | [`Plush`]  | VLDB'22  | DRAM buffer + WAL, 16× levelled merges, O(levels) lookups |
//! | [`Halo`]   | SIGMOD'22| full DRAM table + PM value log, snapshots/invalidation/GC writes |
//!
//! Per the paper's methodology (§VI-A): persistence flushes and fences are
//! removed (the platform is eADR), and variable-sized values are handled
//! out-of-place behind pointers ("extended implementations").

pub mod cceh;
pub mod clevel;
pub mod common;
pub mod dash;
mod exthash;
pub mod halo;
pub mod level;
pub mod plush;

pub use cceh::Cceh;
pub use clevel::CLevel;
pub use dash::Dash;
pub use halo::Halo;
pub use level::Level;
pub use plush::Plush;
