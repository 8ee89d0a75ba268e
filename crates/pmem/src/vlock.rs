//! Locks that serialize in *virtual time*.
//!
//! On a host with fewer cores than the simulated thread count, wall-clock
//! lock contention tells you nothing. These locks provide real mutual
//! exclusion (a host lock underneath) **and** model contention in
//! virtual time: an acquirer's clock jumps to the previous holder's release
//! time, so critical sections on a hot lock serialize exactly as they would
//! on real hardware, whatever the host core count.
//!
//! The closure-based API (`with`, `read`, `write`) is deliberate: the
//! release timestamp must be taken *after* the critical section advanced
//! the caller's clock, which a guard's `Drop` cannot observe.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::schedhook::{self, SyncEvent};
use crate::sync::{Mutex, RwLock};

use crate::cost::{CostModel, VClock};

/// Anything carrying a virtual clock (implemented by [`crate::MemCtx`] and
/// by `VClock` itself, for tests).
pub trait HasClock {
    fn vclock(&mut self) -> &mut VClock;
}

impl HasClock for VClock {
    fn vclock(&mut self) -> &mut VClock {
        self
    }
}

/// A mutex whose contention is modelled in virtual time. An uncontended
/// acquisition costs [`CostModel::LOCK_NS`].
pub struct VLock<T> {
    inner: Mutex<T>,
    release_t: AtomicU64,
}

impl<T> VLock<T> {
    pub fn new(value: T) -> Self {
        Self {
            inner: Mutex::new(value),
            release_t: AtomicU64::new(0),
        }
    }

    /// Run `f` holding the lock. The caller's clock first jumps to the
    /// previous holder's release time.
    ///
    /// Under a scheduler hook the acquisition is cooperative (the inner
    /// [`Mutex`] spins with yields), and the release is itself a sync
    /// point so waiters can be scheduled immediately after.
    // conc: region(lock) fn=with
    pub fn with<C: HasClock, R>(&self, c: &mut C, f: impl FnOnce(&mut C, &mut T) -> R) -> R {
        let mut guard = self.inner.lock();
        let release = self.release_t.load(Ordering::Acquire);
        {
            let clk = c.vclock();
            clk.sync_to(release);
            clk.advance(CostModel::LOCK_NS);
        }
        let r = f(c, &mut guard);
        self.release_t.fetch_max(c.vclock().now(), Ordering::AcqRel);
        drop(guard);
        schedhook::sync_point(SyncEvent::LockRelease);
        r
    }
}

/// A reader-writer lock whose contention is modelled in virtual time.
/// Readers serialize only against the last writer; writers serialize
/// against everyone.
pub struct VRwLock<T> {
    inner: RwLock<T>,
    write_release_t: AtomicU64,
    read_release_t: AtomicU64,
}

impl<T> VRwLock<T> {
    pub fn new(value: T) -> Self {
        Self {
            inner: RwLock::new(value),
            write_release_t: AtomicU64::new(0),
            read_release_t: AtomicU64::new(0),
        }
    }

    /// Run `f` holding a shared (read) lock.
    // conc: region(read-lock) fn=read
    pub fn read<C: HasClock, R>(&self, c: &mut C, f: impl FnOnce(&mut C, &T) -> R) -> R {
        let guard = self.inner.read();
        let release = self.write_release_t.load(Ordering::Acquire);
        {
            let clk = c.vclock();
            clk.sync_to(release);
            clk.advance(CostModel::LOCK_NS);
        }
        let r = f(c, &guard);
        self.read_release_t.fetch_max(c.vclock().now(), Ordering::AcqRel);
        drop(guard);
        schedhook::sync_point(SyncEvent::LockRelease);
        r
    }

    /// Run `f` holding the exclusive (write) lock.
    // conc: region(lock) fn=write
    pub fn write<C: HasClock, R>(&self, c: &mut C, f: impl FnOnce(&mut C, &mut T) -> R) -> R {
        let mut guard = self.inner.write();
        let release = self
            .write_release_t
            .load(Ordering::Acquire)
            .max(self.read_release_t.load(Ordering::Acquire));
        {
            let clk = c.vclock();
            clk.sync_to(release);
            clk.advance(CostModel::LOCK_NS);
        }
        let r = f(c, &mut guard);
        self.write_release_t.fetch_max(c.vclock().now(), Ordering::AcqRel);
        drop(guard);
        schedhook::sync_point(SyncEvent::LockRelease);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const L: u64 = CostModel::LOCK_NS;

    #[test]
    fn critical_sections_serialize_in_virtual_time() {
        let lock = VLock::new(0u64);
        // Two "threads" with independent clocks, each doing 100 ns of work
        // inside the lock. The second must observe the first's release.
        let mut c1 = VClock::new();
        let mut c2 = VClock::new();
        lock.with(&mut c1, |c, v| {
            c.vclock().advance(100);
            *v += 1;
        });
        assert_eq!(c1.now(), L + 100);
        lock.with(&mut c2, |c, v| {
            c.vclock().advance(100);
            *v += 1;
        });
        // c2 started at 0 but virtually waited until c1's release, then
        // paid the acquire and 100 work.
        assert_eq!(c2.now(), 2 * (L + 100));
    }

    #[test]
    fn readers_do_not_serialize_with_each_other() {
        let lock = VRwLock::new(5u64);
        let mut c1 = VClock::new();
        let mut c2 = VClock::new();
        lock.read(&mut c1, |c, _| c.vclock().advance(100));
        lock.read(&mut c2, |c, _| c.vclock().advance(100));
        // Both readers finish together: no serialization between them.
        assert_eq!(c1.now(), L + 100);
        assert_eq!(c2.now(), L + 100);
    }

    #[test]
    fn writer_serializes_after_readers() {
        let lock = VRwLock::new(0u64);
        let mut r = VClock::new();
        let mut w = VClock::new();
        lock.read(&mut r, |c, _| c.vclock().advance(100));
        lock.write(&mut w, |c, v| {
            c.vclock().advance(50);
            *v = 1;
        });
        // Writer waits for the reader release.
        assert_eq!(w.now(), 2 * L + 150);
    }

    #[test]
    fn reader_serializes_after_writer_only() {
        let lock = VRwLock::new(0u64);
        let mut w = VClock::new();
        let mut r = VClock::new();
        lock.write(&mut w, |c, _| c.vclock().advance(100));
        lock.read(&mut r, |c, _| c.vclock().advance(5));
        assert_eq!(r.now(), 2 * L + 105);
    }

    #[test]
    fn lock_provides_real_mutual_exclusion() {
        use std::sync::Arc;
        let lock = Arc::new(VLock::new(0u64));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let l = Arc::clone(&lock);
            handles.push(std::thread::spawn(move || {
                let mut c = VClock::new();
                for _ in 0..1000 {
                    l.with(&mut c, |_, v| *v += 1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut c = VClock::new();
        let total = lock.with(&mut c, |_, v| *v);
        assert_eq!(total, 4000);
    }
}
