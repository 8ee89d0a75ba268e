//! Concurrent operation histories and a Wing–Gong linearizability checker.
//!
//! The deterministic scheduler (`spash-sched`) runs a seeded multi-thread
//! workload against a [`PersistentIndex`] and records every operation as a
//! [`HistOp`]: invocation timestamp, response timestamp, and the observed
//! outcome. [`check_linearizable`] then searches for a *witness order* — a
//! sequential execution of the same operations, consistent with real-time
//! precedence (if op A responded before op B was invoked, A must come
//! first), in which the sequential shadow model (a plain `HashMap`, the
//! same semantics `crashpoint.rs` checks recovery against) produces
//! exactly the observed outcomes. If no witness exists the history is not
//! linearizable and the schedule that produced it is a genuine
//! concurrency bug (or an injected mutation; see
//! `spash_pmem::canary`).
//!
//! The search is Wing & Gong's DFS over permutations, pruned two ways:
//!
//! * **Real-time order** — op `i` may be linearized next only if no other
//!   pending op `j` has `resp_j < inv_i`.
//! * **Memoization** — states are revisited via many permutations; a seen
//!   set over `(done-mask, order-independent model fingerprint)` collapses
//!   them. This is the Lowe optimization that makes small histories (the
//!   2–4 thread, tens-of-ops histories the explorer generates) check in
//!   microseconds.
//!
//! Timestamps come from one shared atomic clock ticked at every
//! invocation and response, so they are distinct and totally ordered, and
//! same-thread program order is automatically a sub-order of real time.
//! The clock and the log it stamps are one [`Recorder`], the only history
//! buffer the lin drivers keep.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use spash_pmem::MemCtx;

use crate::crashpoint::SweepOp;
use crate::{Fnv1a, IndexError, PersistentIndex};

/// 64-bit FNV-1a over a byte slice: the value fingerprint stored in the
/// shadow model and compared against observed `get` results.
pub fn fingerprint(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// The outcome of one completed operation, as observed by its caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpResult {
    /// Insert/update succeeded.
    Ok,
    /// Insert refused: key already present.
    Dup,
    /// Update refused: key absent.
    NotFound,
    /// Resource refusal (`OutOfMemory` / `ValueTooLarge`). Always legal:
    /// an implementation may run out of room in any state, and the
    /// operation is a no-op on the abstract map.
    Full,
    /// Get hit; payload is the [`fingerprint`] of the bytes read.
    Found(u64),
    /// Get miss.
    Miss,
    /// Remove found and deleted the key.
    Removed,
    /// Remove found nothing.
    Absent,
}

impl OpResult {
    /// Classify an insert outcome (shared by [`SweepOp::apply`] and the
    /// service front-end, which observes results batch-at-a-time).
    pub fn of_insert(r: Result<(), IndexError>) -> Self {
        match r {
            Ok(()) => OpResult::Ok,
            Err(IndexError::DuplicateKey) => OpResult::Dup,
            Err(IndexError::NotFound) => OpResult::NotFound,
            Err(
                IndexError::OutOfMemory
                | IndexError::ValueTooLarge
                | IndexError::ArenaTooLarge { .. },
            ) => OpResult::Full,
        }
    }

    /// Classify an update outcome.
    pub fn of_update(r: Result<(), IndexError>) -> Self {
        match r {
            Ok(()) => OpResult::Ok,
            Err(IndexError::NotFound) => OpResult::NotFound,
            Err(IndexError::DuplicateKey) => OpResult::Dup,
            Err(
                IndexError::OutOfMemory
                | IndexError::ValueTooLarge
                | IndexError::ArenaTooLarge { .. },
            ) => OpResult::Full,
        }
    }

    /// Classify a get outcome from the fingerprint of the bytes read.
    pub fn of_get(fp: Option<u64>) -> Self {
        match fp {
            Some(fp) => OpResult::Found(fp),
            None => OpResult::Miss,
        }
    }

    /// Classify a remove outcome.
    pub fn of_remove(hit: bool) -> Self {
        if hit {
            OpResult::Removed
        } else {
            OpResult::Absent
        }
    }

    fn tag(self) -> u8 {
        match self {
            OpResult::Ok => 0,
            OpResult::Dup => 1,
            OpResult::NotFound => 2,
            OpResult::Full => 3,
            OpResult::Found(_) => 4,
            OpResult::Miss => 5,
            OpResult::Removed => 6,
            OpResult::Absent => 7,
        }
    }
}

/// One completed operation in a concurrent history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistOp {
    /// Simulated thread (task) id that issued the operation.
    pub thread: usize,
    /// The operation, including its value bytes for inserts/updates.
    pub op: SweepOp,
    /// Observed outcome.
    pub result: OpResult,
    /// Invocation timestamp (shared clock; distinct, totally ordered).
    pub inv: u64,
    /// Response timestamp; `inv < resp` always.
    pub resp: u64,
}

/// The one history log of a run: a shared clock and the completed
/// operations, cloned into every simulated thread. Every clone stamps
/// from the same clock and appends to the same log (order within it is
/// irrelevant — the checker orders by timestamps); the driver takes the
/// log after the run.
#[derive(Clone, Default)]
pub struct Recorder {
    clock: Arc<AtomicU64>,
    // lint:allow(std-sync): host-side history log; locked only to push one
    // completed op or to take the log, never across a sync point, so it
    // cannot deadlock the cooperative scheduler.
    log: Arc<std::sync::Mutex<Vec<HistOp>>>,
}

impl Recorder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Advance the shared clock and return the pre-increment value.
    pub fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::SeqCst)
    }

    /// Record `op`, invoked at `inv`, as completed now with `result`.
    /// Published immediately, not at task exit, so completed ops survive
    /// an injected crash or a valve stop.
    pub fn respond(&self, thread: usize, op: SweepOp, result: OpResult, inv: u64) {
        let resp = self.tick();
        let done = HistOp {
            thread,
            op,
            result,
            inv,
            resp,
        };
        self.log
            .lock()
            .expect("history log: a push panicked")
            .push(done);
    }

    /// Execute `op` against `idx` and record it, timestamping the
    /// invocation and response and classifying the outcome.
    pub fn run_op(&self, idx: &dyn PersistentIndex, ctx: &mut MemCtx, thread: usize, op: &SweepOp) {
        let inv = self.tick();
        let result = op.apply(idx, ctx);
        self.respond(thread, op.clone(), result, inv);
    }

    /// The operations recorded so far, leaving the log empty.
    pub fn take(&self) -> Vec<HistOp> {
        std::mem::take(&mut *self.log.lock().expect("history log: a push panicked"))
    }
}

/// Deterministic byte encoding of a history, for byte-identical replay
/// comparison (`tests/proptest_index.rs`). Sorts by invocation timestamp
/// first so physical collection order never matters.
pub fn encode(hist: &[HistOp]) -> Vec<u8> {
    let mut ops: Vec<&HistOp> = hist.iter().collect();
    ops.sort_by_key(|o| o.inv);
    let mut out = Vec::with_capacity(ops.len() * 40);
    for o in ops {
        out.extend_from_slice(&(o.thread as u64).to_le_bytes());
        let (tag, key, vfp): (u8, u64, u64) = match &o.op {
            SweepOp::Insert(k, v) => (0, *k, fingerprint(v)),
            SweepOp::Update(k, v) => (1, *k, fingerprint(v)),
            SweepOp::Remove(k) => (2, *k, 0),
            SweepOp::Get(k) => (3, *k, 0),
        };
        out.push(tag);
        out.extend_from_slice(&key.to_le_bytes());
        out.extend_from_slice(&vfp.to_le_bytes());
        out.push(o.result.tag());
        if let OpResult::Found(fp) = o.result {
            out.extend_from_slice(&fp.to_le_bytes());
        }
        out.extend_from_slice(&o.inv.to_le_bytes());
        out.extend_from_slice(&o.resp.to_le_bytes());
    }
    out
}

/// A non-linearizable history: no sequential witness order exists.
#[derive(Debug)]
pub struct Violation {
    /// Human-readable rendering of the offending history, timestamp
    /// ordered, for the failure report.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "history is not linearizable:\n{}", self.detail)
    }
}

fn mix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

/// Order-independent fingerprint of the model state (commutative sum of
/// per-entry mixes), used as the memoization key alongside the done-mask.
fn state_fp(state: &HashMap<u64, u64>) -> u64 {
    state
        .iter()
        .fold(0u64, |acc, (&k, &v)| {
            acc.wrapping_add(mix64(k.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ mix64(v)))
        })
}

/// Would `op` with observed `result` be legal from `state`? If so, apply
/// its effect and return `true`.
fn step(state: &mut HashMap<u64, u64>, op: &SweepOp, result: OpResult) -> bool {
    match (op, result) {
        // Resource refusals are legal in any state and change nothing.
        (_, OpResult::Full) => true,
        (SweepOp::Insert(k, v), OpResult::Ok) => {
            if state.contains_key(k) {
                return false;
            }
            state.insert(*k, fingerprint(v));
            true
        }
        (SweepOp::Insert(k, _), OpResult::Dup) => state.contains_key(k),
        (SweepOp::Update(k, v), OpResult::Ok) => match state.get_mut(k) {
            Some(slot) => {
                *slot = fingerprint(v);
                true
            }
            None => false,
        },
        (SweepOp::Update(k, _), OpResult::NotFound) => !state.contains_key(k),
        (SweepOp::Get(k), OpResult::Found(fp)) => state.get(k) == Some(&fp),
        (SweepOp::Get(k), OpResult::Miss) => !state.contains_key(k),
        (SweepOp::Remove(k), OpResult::Removed) => state.remove(k).is_some(),
        (SweepOp::Remove(k), OpResult::Absent) => !state.contains_key(k),
        _ => false,
    }
}

fn render(ops: &[&HistOp]) -> String {
    let mut s = String::new();
    for o in ops {
        s.push_str(&format!(
            "  [t{} {:>4}..{:<4}] {:?} -> {:?}\n",
            o.thread, o.inv, o.resp, o.op, o.result
        ));
    }
    s
}

/// Check a completed concurrent history against the sequential map model,
/// starting from `initial` state (key → value fingerprint; the prefill).
///
/// Returns `Ok(())` if a linearization exists. Histories longer than 128
/// operations are rejected up front (the explorer keeps per-schedule
/// histories far below that; checking cost is exponential in the worst
/// case, so this is a design bound, not an implementation limit).
pub fn check_linearizable(
    hist: &[HistOp],
    initial: &HashMap<u64, u64>,
) -> Result<(), Violation> {
    let mut ops: Vec<&HistOp> = hist.iter().collect();
    ops.sort_by_key(|o| o.inv);
    let n = ops.len();
    if n > 128 {
        return Err(Violation {
            detail: format!("history too long to check ({n} ops > 128)"),
        });
    }
    if n == 0 {
        return Ok(());
    }

    // DFS with explicit stack of (done-mask, state). Each frame tries all
    // schedulable pending ops; memoization collapses permutations that
    // reach the same (mask, state).
    let full: u128 = if n == 128 { u128::MAX } else { (1u128 << n) - 1 };
    let mut seen: HashSet<(u128, u64)> = HashSet::new();
    let mut stack: Vec<(u128, HashMap<u64, u64>)> = vec![(0, initial.clone())];

    while let Some((mask, state)) = stack.pop() {
        if mask == full {
            return Ok(());
        }
        if !seen.insert((mask, state_fp(&state))) {
            continue;
        }
        // Real-time frontier: the earliest response among pending ops.
        let mut min_resp = u64::MAX;
        for (i, o) in ops.iter().enumerate() {
            if mask & (1 << i) == 0 {
                min_resp = min_resp.min(o.resp);
            }
        }
        for (i, o) in ops.iter().enumerate() {
            if mask & (1 << i) != 0 {
                continue;
            }
            // `o` may be linearized next only if no pending op responded
            // before `o` was invoked. Timestamps are distinct, so this is
            // exactly `inv < min pending resp` (its own resp > its inv).
            if o.inv > min_resp {
                continue;
            }
            let mut next = state.clone();
            if step(&mut next, &o.op, o.result) {
                stack.push((mask | (1 << i), next));
            }
        }
    }

    Err(Violation {
        detail: render(&ops),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(thread: usize, op: SweepOp, result: OpResult, inv: u64, resp: u64) -> HistOp {
        HistOp {
            thread,
            op,
            result,
            inv,
            resp,
        }
    }

    #[test]
    fn sequential_history_is_linearizable() {
        let v = vec![1u8, 2, 3];
        let hist = vec![
            op(0, SweepOp::Insert(1, v.clone()), OpResult::Ok, 0, 1),
            op(0, SweepOp::Get(1), OpResult::Found(fingerprint(&v)), 2, 3),
            op(0, SweepOp::Remove(1), OpResult::Removed, 4, 5),
            op(0, SweepOp::Get(1), OpResult::Miss, 6, 7),
        ];
        check_linearizable(&hist, &HashMap::new()).unwrap();
    }

    #[test]
    fn concurrent_double_insert_ok_is_a_violation() {
        // Two overlapping inserts of the same key both report Ok: no
        // sequential order allows that.
        let v = vec![9u8];
        let hist = vec![
            op(0, SweepOp::Insert(7, v.clone()), OpResult::Ok, 0, 3),
            op(1, SweepOp::Insert(7, v.clone()), OpResult::Ok, 1, 2),
        ];
        assert!(check_linearizable(&hist, &HashMap::new()).is_err());
    }

    #[test]
    fn overlapping_ops_may_take_effect_in_either_order() {
        // A get overlapping an insert may see either state.
        let v = vec![5u8; 6];
        for result in [OpResult::Miss, OpResult::Found(fingerprint(&v))] {
            let hist = vec![
                op(0, SweepOp::Insert(3, v.clone()), OpResult::Ok, 0, 5),
                op(1, SweepOp::Get(3), result, 1, 4),
            ];
            check_linearizable(&hist, &HashMap::new()).unwrap();
        }
    }

    #[test]
    fn realtime_order_is_enforced() {
        // The get strictly follows the insert in real time, so it must
        // observe the inserted value; a miss is a violation.
        let v = vec![5u8; 6];
        let hist = vec![
            op(0, SweepOp::Insert(3, v.clone()), OpResult::Ok, 0, 1),
            op(1, SweepOp::Get(3), OpResult::Miss, 2, 3),
        ];
        assert!(check_linearizable(&hist, &HashMap::new()).is_err());
    }

    #[test]
    fn prefill_state_seeds_the_model() {
        let v = vec![1u8; 6];
        let initial: HashMap<u64, u64> = [(40u64, fingerprint(&v))].into_iter().collect();
        let hist = vec![op(
            0,
            SweepOp::Get(40),
            OpResult::Found(fingerprint(&v)),
            0,
            1,
        )];
        check_linearizable(&hist, &initial).unwrap();
        assert!(check_linearizable(&hist, &HashMap::new()).is_err());
    }

    #[test]
    fn resource_refusal_is_always_legal() {
        let hist = vec![
            op(0, SweepOp::Insert(1, vec![1; 6]), OpResult::Full, 0, 1),
            op(0, SweepOp::Get(1), OpResult::Miss, 2, 3),
        ];
        check_linearizable(&hist, &HashMap::new()).unwrap();
    }

    #[test]
    fn encode_is_order_insensitive_and_content_sensitive() {
        let v = vec![2u8; 6];
        let a = op(0, SweepOp::Insert(1, v.clone()), OpResult::Ok, 0, 1);
        let b = op(1, SweepOp::Get(1), OpResult::Found(fingerprint(&v)), 2, 3);
        assert_eq!(encode(&[a.clone(), b.clone()]), encode(&[b.clone(), a.clone()]));
        let mut b2 = b.clone();
        b2.result = OpResult::Miss;
        assert_ne!(encode(&[a.clone(), b]), encode(&[a, b2]));
    }
}
