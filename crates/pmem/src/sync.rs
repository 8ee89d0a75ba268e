//! Poison-ignoring `std::sync` lock wrappers with a `parking_lot`-style
//! API (`lock()` / `read()` / `write()` return guards directly).
//!
//! Two reasons these exist instead of using `std::sync` types raw:
//!
//! 1. The workspace must build with no network access, so `parking_lot`
//!    is out; every crate takes these via `spash_pmem::sync`.
//! 2. The crash-point fault injector (see `crate::fault`) aborts a run by
//!    unwinding with a panic from deep inside the memory model. A `std`
//!    lock held across that unwind would poison and turn every later
//!    access — including the post-crash recovery the harness is trying to
//!    exercise — into a `PoisonError`. Crash simulation *requires* that
//!    locks survive the unwind: on real hardware a power failure does not
//!    corrupt a lock word in a coherent way either, and recovery never
//!    trusts volatile lock state.
//!
//! A third duty arrived with the deterministic scheduler: under a
//! [`crate::schedhook`] hook exactly one task runs at a time, so blocking
//! on the host primitive while a *descheduled* task holds it would
//! deadlock the whole schedule. When a hook is active every acquisition
//! therefore spins on `try_lock`, yielding to the scheduler between
//! attempts ([`crate::schedhook::spin_wait`]); the scheduler then runs
//! the holder until it releases. Without a hook the fast blocking path is
//! unchanged. Either way an uncontended acquisition looks the hook up
//! once: reporting `LockAcquire` is also how it learns whether one is
//! installed.
//!
//! [`WordLock`] is the same contract in one word, for the two locks every
//! modelled access takes and whose critical sections contain no sync
//! point (a cache shard, the XPBuffer): one `xchg` to take, a plain store
//! to release, nothing to poison.

use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{PoisonError, TryLockError};

use crate::schedhook::{self, SyncEvent};

/// Mutual exclusion that never poisons.
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

/// Guard returned by [`Mutex::lock`].
pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;

impl<T> Mutex<T> {
    #[inline]
    pub const fn new(value: T) -> Self {
        Self(std::sync::Mutex::new(value))
    }

    #[inline]
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, ignoring poison from a crash-injection unwind.
    /// Cooperative under a scheduler hook (see module docs).
    // conc: region(lock) fn=lock
    #[inline]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        if schedhook::sync_point(SyncEvent::LockAcquire) {
            loop {
                match self.0.try_lock() {
                    Ok(g) => return g,
                    Err(TryLockError::Poisoned(p)) => return p.into_inner(),
                    Err(TryLockError::WouldBlock) => schedhook::spin_wait(),
                }
            }
        }
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[inline]
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

/// Reader-writer lock that never poisons.
pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);

/// Guard returned by [`RwLock::read`].
pub type RwLockReadGuard<'a, T> = std::sync::RwLockReadGuard<'a, T>;
/// Guard returned by [`RwLock::write`].
pub type RwLockWriteGuard<'a, T> = std::sync::RwLockWriteGuard<'a, T>;

impl<T> RwLock<T> {
    #[inline]
    pub const fn new(value: T) -> Self {
        Self(std::sync::RwLock::new(value))
    }

    #[inline]
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire a shared lock, ignoring poison from a crash-injection unwind.
    /// Cooperative under a scheduler hook (see module docs).
    #[inline]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        if schedhook::sync_point(SyncEvent::LockAcquire) {
            loop {
                match self.0.try_read() {
                    Ok(g) => return g,
                    Err(TryLockError::Poisoned(p)) => return p.into_inner(),
                    Err(TryLockError::WouldBlock) => schedhook::spin_wait(),
                }
            }
        }
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquire the exclusive lock, ignoring poison from a crash-injection
    /// unwind. Cooperative under a scheduler hook (see module docs).
    #[inline]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        if schedhook::sync_point(SyncEvent::LockAcquire) {
            loop {
                match self.0.try_write() {
                    Ok(g) => return g,
                    Err(TryLockError::Poisoned(p)) => return p.into_inner(),
                    Err(TryLockError::WouldBlock) => schedhook::spin_wait(),
                }
            }
        }
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }

    #[inline]
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

/// A one-word spin lock for critical sections that contain no sync point.
///
/// To the scheduler it is indistinguishable from [`Mutex`]: under a hook
/// an acquisition reports [`SyncEvent::LockAcquire`] first and yields
/// through [`schedhook::spin_wait`] while contended, so decision counts
/// and traces do not depend on which of the two a structure uses. (With
/// no sync point inside, a descheduled task never holds it, so under the
/// one-task-at-a-time scheduler the wait loop never runs.) Real threads
/// spin with `yield_now` instead of parking: the sections are a few dozen
/// instructions. The guard releases on drop, so an unwinding holder
/// (crash-point injection) leaves the lock free.
pub struct WordLock<T> {
    held: AtomicBool,
    value: UnsafeCell<T>,
}

// SAFETY: `value` is only reachable through a `WordGuard`, and `held`
// admits one guard at a time (swap-acquire to take, store-release to
// give back), so sharing the lock hands `T` from thread to thread but
// never to two at once: `T: Send` suffices, as for `std::sync::Mutex`.
unsafe impl<T: Send> Sync for WordLock<T> {}

/// Guard returned by [`WordLock::lock`]. The raw-pointer marker keeps it
/// on the thread that took it (neither `Send` nor `Sync`), so `T: Send`
/// is all the guard's `&T`/`&mut T` ever rely on.
pub struct WordGuard<'a, T> {
    lock: &'a WordLock<T>,
    _on_this_thread: PhantomData<*mut ()>,
}

impl<T> WordLock<T> {
    #[inline]
    pub const fn new(value: T) -> Self {
        Self {
            held: AtomicBool::new(false),
            value: UnsafeCell::new(value),
        }
    }

    /// Acquire the lock. Cooperative under a scheduler hook (see above).
    #[inline]
    pub fn lock(&self) -> WordGuard<'_, T> {
        // A no-op without a hook (one thread-local lookup either way).
        schedhook::sync_point(SyncEvent::LockAcquire);
        while self.held.swap(true, Ordering::Acquire) {
            schedhook::spin_wait();
        }
        WordGuard {
            lock: self,
            _on_this_thread: PhantomData,
        }
    }
}

impl<T> Deref for WordGuard<'_, T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        // SAFETY: this guard exists, so `held` is set on its behalf and
        // no other guard (the only other path to `value`) does.
        unsafe { &*self.lock.value.get() }
    }
}

impl<T> DerefMut for WordGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as in `deref`; `&mut self` makes the borrow unique
        // among users of this guard.
        unsafe { &mut *self.lock.value.get() }
    }
}

impl<T> Drop for WordGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        self.lock.held.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn word_lock_is_released_when_its_holder_unwinds() {
        let l = Arc::new(WordLock::new(7u64));
        let l2 = Arc::clone(&l);
        let _ = std::thread::spawn(move || {
            let mut g = l2.lock();
            *g = 8;
            panic!("simulated crash point");
        })
        .join();
        // Would spin forever if the unwound guard had kept the word.
        assert_eq!(*l.lock(), 8);
    }

    #[test]
    fn word_lock_excludes_two_real_threads() {
        // A non-atomic read-modify-write under the lock: lost updates
        // would show as a short count. The barrier makes both threads
        // contend from their first iteration.
        const PER: u64 = 50_000;
        let l = WordLock::new(0u64);
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..PER {
                        let mut g = l.lock();
                        let v = *g;
                        std::hint::black_box(&v);
                        *g = v + 1;
                    }
                });
            }
        });
        assert_eq!(*l.lock(), 2 * PER);
    }

    #[test]
    fn mutex_survives_a_panicking_holder() {
        let m = Arc::new(Mutex::new(7u64));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("simulated crash point");
        })
        .join();
        // A std Mutex would be poisoned here; ours must keep working.
        assert_eq!(*m.lock(), 7);
    }

    #[test]
    fn rwlock_survives_a_panicking_writer() {
        let l = Arc::new(RwLock::new(3u64));
        let l2 = Arc::clone(&l);
        let _ = std::thread::spawn(move || {
            let mut g = l2.write();
            *g = 4;
            panic!("simulated crash point");
        })
        .join();
        assert_eq!(*l.read(), 4);
        *l.write() = 5;
        assert_eq!(*l.read(), 5);
    }
}
