//! The decision trace, stored as runs.
//!
//! A scheduled phase of the end-to-end benchmark takes about 13 million
//! decisions and switches task 71 times: as one `u16` per decision the
//! trace is 26 MB, as `(task, count)` runs it is a few hundred bytes.
//! [`Trace`] is the sequence of chosen task ids — its length, equality,
//! iteration and hash are those of the expanded sequence — held as
//! maximal runs, so appending `n` stays is one addition.

use std::fmt;

use spash_index_api::Fnv1a;

/// The chosen task id at every decision point of one scheduled run.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// Maximal runs: adjacent entries name different tasks and no count
    /// is zero, so equal sequences have equal representations.
    runs: Vec<(u16, u64)>,
    len: u64,
}

impl Trace {
    /// Number of decisions.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append `count` consecutive decisions for `task`.
    pub fn push_run(&mut self, task: u16, count: u64) {
        if count == 0 {
            return;
        }
        self.len += count;
        match self.runs.last_mut() {
            Some((t, n)) if *t == task => *n += count,
            _ => self.runs.push((task, count)),
        }
    }

    /// Append one decision.
    pub fn push(&mut self, task: u16) {
        self.push_run(task, 1);
    }

    /// The `(task, count)` runs, in order.
    pub fn runs(&self) -> &[(u16, u64)] {
        &self.runs
    }

    /// The decisions one by one.
    pub fn iter(&self) -> impl Iterator<Item = u16> + '_ {
        self.runs
            .iter()
            .flat_map(|&(task, count)| (0..count).map(move |_| task))
    }

    /// FNV-1a over the little-endian ids of the expanded sequence, mixed
    /// with its length — the identity of the interleaving.
    pub fn hash(&self) -> u64 {
        let mut h = Fnv1a::new();
        for d in self.iter() {
            h.write(&d.to_le_bytes());
        }
        h.finish() ^ self.len
    }
}

impl From<Vec<u16>> for Trace {
    fn from(decisions: Vec<u16>) -> Self {
        let mut trace = Trace::default();
        for d in decisions {
            trace.push(d);
        }
        trace
    }
}

/// Runs, not ids: `[3, 0×12856907, 2, 0×70]` is what a failure report can
/// afford to print (a lone decision prints as its bare id).
impl fmt::Debug for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("[")?;
        for (i, &(task, count)) in self.runs.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            if count == 1 {
                write!(f, "{task}")?;
            } else {
                write!(f, "{task}×{count}")?;
            }
        }
        f.write_str("]")
    }
}

/// A read position in a recorded trace ([`crate::SchedMode::Replay`]).
/// Reading past the end yields `None` for ever.
pub(crate) struct Cursor {
    trace: Trace,
    run: usize,
    /// Decisions of `trace.runs[run]` already consumed.
    used: u64,
}

impl Cursor {
    pub(crate) fn new(trace: Trace) -> Self {
        Self {
            trace,
            run: 0,
            used: 0,
        }
    }

    /// How many of the next decisions are recorded as `task`, without
    /// consuming any: the rest of the current run if it names `task`.
    pub(crate) fn run_ahead(&self, task: usize) -> u64 {
        match self.trace.runs.get(self.run) {
            Some(&(t, count)) if t as usize == task => count - self.used,
            _ => 0,
        }
    }

    /// Consume `n` decisions, returning the first of them.
    pub(crate) fn advance(&mut self, mut n: u64) -> Option<u16> {
        let first = self.trace.runs.get(self.run).map(|r| r.0);
        while let Some(&(_, count)) = self.trace.runs.get(self.run) {
            let left = count - self.used;
            if n < left {
                self.used += n;
                break;
            }
            n -= left;
            self.run += 1;
            self.used = 0;
        }
        first
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The hash as it was computed over a `Vec<u16>`.
    fn fnv_of_ids(ids: &[u16]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for d in ids {
            for b in d.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h ^ ids.len() as u64
    }

    const IDS: [u16; 12] = [2, 2, 2, 0, 1, 1, 300, 300, 300, 300, 0, 0];

    #[test]
    fn ids_and_runs_round_trip() {
        let trace = Trace::from(IDS.to_vec());
        assert_eq!(trace.runs(), [(2, 3), (0, 1), (1, 2), (300, 4), (0, 2)]);
        assert_eq!(trace.iter().collect::<Vec<u16>>(), IDS);
        assert_eq!(trace.len(), IDS.len());
        assert!(!trace.is_empty() && Trace::default().is_empty());
        assert_eq!(format!("{trace:?}"), "[2×3, 0, 1×2, 300×4, 0×2]");
    }

    #[test]
    fn equal_sequences_are_equal_however_they_were_built() {
        let mut by_runs = Trace::default();
        by_runs.push_run(2, 1);
        by_runs.push_run(2, 2);
        by_runs.push_run(0, 0);
        by_runs.push(0);
        by_runs.push_run(1, 2);
        by_runs.push_run(300, 4);
        by_runs.push(0);
        by_runs.push(0);
        assert_eq!(by_runs, Trace::from(IDS.to_vec()));
        assert_eq!(by_runs.len(), 12);
        by_runs.push(0);
        assert_ne!(by_runs, Trace::from(IDS.to_vec()));
    }

    #[test]
    fn the_hash_is_the_fnv_of_the_expanded_sequence() {
        assert_eq!(Trace::from(IDS.to_vec()).hash(), fnv_of_ids(&IDS));
        assert_eq!(Trace::default().hash(), fnv_of_ids(&[]));
        let mut long = Trace::default();
        long.push_run(7, 100_000);
        long.push(1);
        let mut ids = vec![7u16; 100_000];
        ids.push(1);
        assert_eq!(long.hash(), fnv_of_ids(&ids));
    }

    #[test]
    fn a_cursor_reads_decisions_and_looks_ahead_by_run() {
        let mut cur = Cursor::new(Trace::from(IDS.to_vec()));
        assert_eq!((cur.run_ahead(2), cur.run_ahead(0)), (3, 0));
        assert_eq!(cur.advance(1), Some(2));
        assert_eq!(cur.run_ahead(2), 2);
        assert_eq!(cur.advance(2), Some(2));
        assert_eq!(cur.run_ahead(0), 1);
        // Across run boundaries: 0, 1, 1, 300.
        assert_eq!(cur.advance(4), Some(0));
        assert_eq!(cur.run_ahead(300), 3);
        assert_eq!(cur.advance(0), Some(300));
        assert_eq!(cur.run_ahead(300), 3);
        // Past the end, and for ever after.
        assert_eq!(cur.advance(9), Some(300));
        assert_eq!((cur.advance(1), cur.run_ahead(0)), (None, 0));
        assert_eq!(cur.advance(1), None);
    }
}
