//! Simulated persistent-memory platform for the Spash reproduction.
//!
//! The paper ("Exploiting Persistent CPU Cache for Scalable Persistent Hash
//! Index", ICDE 2024) evaluates on a dual-socket Icelake server with Optane
//! DCPMM (Barlow Pass) and eADR. This crate substitutes that hardware with a
//! software model that preserves the behaviours the paper's results depend
//! on:
//!
//! * **Media granularity** — the physical media is accessed in 256-byte
//!   XPLines; writes are combined in a small XPBuffer, so XPLine-aligned
//!   sequential flushes coalesce while random cacheline evictions suffer
//!   write amplification (paper §II-A/§II-B, Observations 1–4).
//! * **Persistence domain** — under [`PersistenceDomain::Adr`] only data
//!   written back to media survives a crash; under
//!   [`PersistenceDomain::Eadr`] the CPU cache is inside the persistence
//!   domain and dirty lines survive. A simulated power failure
//!   ([`PmDevice::simulate_power_failure`]) applies exactly those semantics.
//! * **Cost accounting** — every access advances a per-thread *virtual
//!   clock* by the [`CostModel`] constants; locks serialize in virtual
//!   time ([`vlock`]); global media byte counters impose the bandwidth
//!   ceiling. Benchmarks report `ops / elapsed-virtual-time`,
//!   which reproduces the paper's throughput *shapes* on hardware that has
//!   neither PM nor 56 cores.
//!
//! Data itself lives in an ordinary heap [`arena::Arena`] accessed through
//! `AtomicU64` words, so the simulation is functionally a real (volatile)
//! key-value memory; the model layered on top decides what a crash keeps.

pub mod arena;
pub mod cache;
pub mod canary;
pub mod config;
pub mod cost;
mod counters;
pub mod ctx;
pub mod device;
pub mod fault;
pub mod media;
pub mod san;
pub mod schedhook;
pub mod span;
pub mod stats;
pub mod sync;
pub mod vlock;

pub use arena::{Arena, PmAddr};
pub use config::{PersistenceDomain, PmConfig};
pub use cost::{CostModel, VClock};
pub use ctx::{MemCtx, Window};
pub use device::{CrashReport, PmDevice};
pub use fault::{CrashPointHit, FaultPlan};
pub use san::{San, SanReport, SanViolation, SanViolationKind};
pub use schedhook::{SchedHook, SyncEvent};
pub use span::{SpanSnapshot, SPAN_COMPACTION, SPAN_LOG_REPLAY, SPAN_NAMES, SPAN_PROBE, SPAN_SPLIT};
pub use stats::{StatsDelta, StatsSnapshot};
pub use vlock::{VLock, VRwLock};

/// Size of a CPU cacheline in bytes.
pub const CACHELINE: u64 = 64;
/// Size of an XPLine, the internal access granularity of the simulated
/// Optane media (paper §II-A, Observation 1).
pub const XPLINE: u64 = 256;
/// Cachelines per XPLine.
pub const LINES_PER_XPLINE: u64 = XPLINE / CACHELINE;

/// Hint the host CPU to start loading the cacheline that holds `*p` — the
/// workspace's only host prefetch instruction. The simulator's own memory
/// (the arena, the HTM slot table) is far larger than the host's caches,
/// so wherever the *model* can name a line ahead of its use
/// ([`MemCtx::prefetch`]) the host can start on it too.
#[inline(always)]
pub fn host_prefetch<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: PREFETCHT0 is a hint. It never faults, whatever the address
    // (valid, dangling or unmapped), and has no architectural effect: no
    // register, flag or memory content changes, only cache state.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(p.cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Cacheline index of a byte address.
#[inline]
pub fn line_of(addr: u64) -> u64 {
    addr / CACHELINE
}
