//! Thin lock shims over `std::sync` with a `parking_lot`-shaped API.
//!
//! The repository used `parking_lot` for two ergonomic reasons only:
//! `lock()` without an unwrap, and `Condvar::wait(&mut guard)`. These
//! wrappers provide exactly that surface over the standard library so
//! the default build has zero external dependencies; lock poisoning is
//! deliberately ignored (a panic while holding one of these locks
//! already aborts the affected test or experiment).

use std::ops::{Deref, DerefMut};
use std::sync::PoisonError;

/// A mutual-exclusion lock over `std::sync::Mutex` whose `lock()`
/// returns the guard directly (poisoning is ignored).
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

/// RAII guard for [`Mutex`]; the lock is released on drop.
pub struct MutexGuard<'a, T: ?Sized> {
    // `Option` so `Condvar::wait` can temporarily take ownership of the
    // std guard (std's wait consumes and returns it); never `None`
    // outside that window.
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// Creates a lock around `value`.
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consumes the lock, returning the protected value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            inner: Some(self.inner.lock().unwrap_or_else(PoisonError::into_inner)),
        }
    }

    /// Attempts to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(MutexGuard { inner: Some(g) }),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(MutexGuard {
                inner: Some(p.into_inner()),
            }),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard vacated during wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard vacated during wait")
    }
}

/// A condition variable usable with [`Mutex`], mirroring
/// `parking_lot::Condvar`'s `wait(&mut guard)` shape.
#[derive(Debug, Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    /// Creates a condition variable.
    pub const fn new() -> Self {
        Condvar {
            inner: std::sync::Condvar::new(),
        }
    }

    /// Atomically releases the guard's lock and blocks until notified;
    /// the lock is re-acquired before returning. Spurious wakeups are
    /// possible, as with any condition variable.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let std_guard = guard.inner.take().expect("guard vacated during wait");
        guard.inner = Some(
            self.inner
                .wait(std_guard)
                .unwrap_or_else(PoisonError::into_inner),
        );
    }

    /// Wakes one thread blocked on this condition variable.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes every thread blocked on this condition variable.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_counts_across_threads() {
        let m = Arc::new(Mutex::new(0u64));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let m = m.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        *m.lock() += 1;
                    }
                });
            }
        });
        assert_eq!(*m.lock(), 8000);
    }

    #[test]
    fn condvar_pingpong() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = pair.clone();
        let h = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut g = m.lock();
            *g = true;
            cv.notify_one();
        });
        let (m, cv) = &*pair;
        let mut g = m.lock();
        while !*g {
            cv.wait(&mut g);
        }
        drop(g);
        h.join().unwrap();
    }

    #[test]
    fn into_inner_returns_value() {
        let m = Mutex::new(7);
        assert_eq!(m.into_inner(), 7);
    }

    #[test]
    fn try_lock_contended_returns_none() {
        let m = Mutex::new(1);
        let _g = m.lock();
        assert!(m.try_lock().is_none());
    }
}
