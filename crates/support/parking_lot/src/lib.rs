//! Offline, API-compatible subset of the `parking_lot` crate.
//!
//! Wraps `std::sync` primitives with `parking_lot`'s ergonomics: `lock()`,
//! `read()` and `write()` return guards directly (no `Result`), and a
//! poisoned lock — which can only arise from a panic while holding the
//! guard — is simply recovered, matching `parking_lot`'s "no poisoning"
//! semantics closely enough for this workspace.
//!
//! The real `parking_lot` is faster than `std` under heavy contention; the
//! hot-path design in `tcache-cache` (lock striping, short critical
//! sections) keeps contention per lock low, which is where `std`'s mutexes
//! (futex-based on Linux) are entirely adequate.

use std::fmt;
use std::sync::{self, MutexGuard, RwLockReadGuard, RwLockWriteGuard};

/// A mutual-exclusion lock whose `lock` method never fails.
#[derive(Default)]
pub struct Mutex<T: ?Sized> {
    inner: sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a mutex protecting `value`.
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Attempts to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(guard) => Some(guard),
            Err(sync::TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
            Err(sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Returns a mutable reference to the protected value (no locking
    /// needed: `&mut self` proves exclusive access).
    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(guard) => f.debug_struct("Mutex").field("data", &&*guard).finish(),
            None => f.debug_struct("Mutex").field("data", &"<locked>").finish(),
        }
    }
}

/// A reader-writer lock whose `read`/`write` methods never fail.
#[derive(Default)]
pub struct RwLock<T: ?Sized> {
    inner: sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Creates a lock protecting `value`.
    pub const fn new(value: T) -> Self {
        RwLock {
            inner: sync::RwLock::new(value),
        }
    }

    /// Consumes the lock, returning the protected value.
    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires a shared read lock.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        match self.inner.read() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Acquires the exclusive write lock.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        match self.inner.write() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Attempts to acquire a shared read lock without blocking; returns
    /// `None` if a writer holds (or `std` believes a writer is waiting for)
    /// the lock.
    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        match self.inner.try_read() {
            Ok(guard) => Some(guard),
            Err(sync::TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
            Err(sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Attempts to acquire the exclusive write lock without blocking.
    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        match self.inner.try_write() {
            Ok(guard) => Some(guard),
            Err(sync::TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
            Err(sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Returns a mutable reference to the protected value.
    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.inner.try_read() {
            Ok(guard) => f.debug_struct("RwLock").field("data", &&*guard).finish(),
            Err(_) => f.debug_struct("RwLock").field("data", &"<locked>").finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_round_trip() {
        let m = Mutex::new(5);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 6);
        assert_eq!(m.into_inner(), 6);
    }

    #[test]
    fn rwlock_readers_and_writer() {
        let l = RwLock::new(vec![1, 2, 3]);
        {
            let a = l.read();
            let b = l.read();
            assert_eq!(a.len() + b.len(), 6);
        }
        l.write().push(4);
        assert_eq!(l.read().len(), 4);
    }

    #[test]
    fn rwlock_try_read_and_try_write() {
        let l = RwLock::new(7);
        {
            let r = l.try_read().expect("uncontended try_read succeeds");
            assert_eq!(*r, 7);
            // Shared with an ordinary reader, but a writer would block.
            let r2 = l.read();
            assert_eq!(*r2, 7);
            assert!(l.try_write().is_none(), "readers block try_write");
        }
        {
            let mut w = l.try_write().expect("uncontended try_write succeeds");
            *w = 8;
            assert!(l.try_read().is_none(), "a writer blocks try_read");
        }
        assert_eq!(*l.read(), 8);
    }

    #[test]
    fn mutex_is_usable_across_threads() {
        let m = Arc::new(Mutex::new(0u64));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        *m.lock() += 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*m.lock(), 4000);
    }

    #[test]
    fn panicking_holder_does_not_poison() {
        let m = Arc::new(Mutex::new(1));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock();
            panic!("poison attempt");
        })
        .join();
        assert_eq!(*m.lock(), 1, "lock is recovered after a panic");
    }
}
