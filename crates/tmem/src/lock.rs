//! Elidable locks: spin locks that transactions can subscribe to.
//!
//! An [`ElidableLock`]'s state is a word *inside* the transactional memory,
//! so transactions can read it ("subscribe") and are automatically
//! invalidated when the lock is acquired — the foundational mechanism of
//! transactional lock elision. The lock word gets a cache line of its own
//! to avoid false invalidations.
//!
//! Acquisition additionally waits for in-flight transaction write-backs to
//! drain ([`TMem::quiesce`]); together with subscription this gives the
//! holder an isolated view for direct (non-transactional) access. See the
//! [crate docs](crate) for the full protocol.

use std::fmt;
use std::sync::Arc;

use crate::addr::Addr;
use crate::mem::TMem;
use crate::runtime::Runtime;

/// The line version an [`ElidableLock`] acquisition published on the lock
/// word, returned by [`ElidableLock::lock`]. A
/// [`DirectCtx::under_lock`](crate::DirectCtx::under_lock) built from it
/// publishes the holder's stores at this version.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LockVersion(u64);

impl LockVersion {
    /// The version itself.
    pub fn get(self) -> u64 {
        self.0
    }
}

/// A test-and-test-and-set spin lock stored in transactional memory.
///
/// The stored value is `0` when free and `tid + 1` when held by thread
/// `tid`, which makes ownership bugs loud in debug builds.
pub struct ElidableLock {
    mem: Arc<TMem>,
    word: Addr,
}

impl ElidableLock {
    /// Creates a lock, allocating a dedicated line in `mem`.
    ///
    /// # Errors
    ///
    /// Propagates pool exhaustion.
    pub fn new(mem: Arc<TMem>) -> crate::error::TxResult<Self> {
        let word = mem.alloc_line_direct(1)?;
        #[cfg(feature = "txsan")]
        crate::san::log(crate::san::SanEvent::LockRegistered {
            word: word.0,
            fallback: 0,
        });
        Ok(ElidableLock { mem, word })
    }

    /// Declares this lock to the sanitizer as a *fallback* lock: every
    /// update transaction on the protected data must subscribe to it, and
    /// none may commit while another thread holds it. The HCF engine marks
    /// its data-structure lock; locks that merely serialize combiner
    /// selection are not marked.
    #[cfg(feature = "txsan")]
    pub fn mark_fallback(&self) {
        crate::san::log(crate::san::SanEvent::LockRegistered {
            word: self.word.0,
            fallback: 1,
        });
    }

    /// The lock word's address (for subscription).
    #[inline]
    pub fn word(&self) -> Addr {
        self.word
    }

    /// Whether the lock is currently held (racy snapshot).
    pub fn is_locked(&self, rt: &dyn Runtime) -> bool {
        self.mem.read_direct(rt, self.word) != 0
    }

    /// Acquires the lock, spinning (and yielding) until free, then waits
    /// for in-flight transaction write-backs to drain so the holder can use
    /// direct access safely. Returns the version the acquisition published
    /// on the lock word.
    pub fn lock(&self, rt: &dyn Runtime) -> LockVersion {
        let tag = rt.thread_id() as u64 + 1;
        let mut attempt = 0u32;
        let acquired = loop {
            if self.mem.read_direct(rt, self.word) == 0 {
                if let Ok(wv) = self.mem.cas_direct(rt, self.word, 0, tag) {
                    break LockVersion(wv);
                }
            }
            rt.backoff(attempt);
            attempt = attempt.saturating_add(1);
        };
        // The held window starts at the successful CAS (before the
        // quiesce): commits racing the drain are exactly what the
        // sanitizer must see as inside the window.
        #[cfg(feature = "txsan")]
        crate::san::log(crate::san::SanEvent::LockAcquired {
            tid: rt.thread_id() as u64,
            word: self.word.0,
        });
        self.mem.quiesce(rt);
        acquired
    }

    /// Tries to acquire the lock without spinning. On success the same
    /// quiesce guarantee as [`ElidableLock::lock`] holds, and the version
    /// the acquisition published is returned as `lock` returns it.
    pub fn try_lock(&self, rt: &dyn Runtime) -> Option<LockVersion> {
        let tag = rt.thread_id() as u64 + 1;
        if self.mem.read_direct(rt, self.word) != 0 {
            return None;
        }
        let acquired = LockVersion(self.mem.cas_direct(rt, self.word, 0, tag).ok()?);
        #[cfg(feature = "txsan")]
        crate::san::log(crate::san::SanEvent::LockAcquired {
            tid: rt.thread_id() as u64,
            word: self.word.0,
        });
        self.mem.quiesce(rt);
        Some(acquired)
    }

    /// Releases the lock.
    ///
    /// # Panics
    ///
    /// Debug builds panic if the calling thread is not the holder.
    pub fn unlock(&self, rt: &dyn Runtime) {
        debug_assert_eq!(
            self.mem.peek(self.word),
            rt.thread_id() as u64 + 1,
            "unlock by non-holder"
        );
        self.mem.write_direct(rt, self.word, 0);
        #[cfg(feature = "txsan")]
        crate::san::log(crate::san::SanEvent::LockReleased {
            tid: rt.thread_id() as u64,
            word: self.word.0,
        });
    }

    /// Runs `f` with the lock held.
    pub fn with<R>(&self, rt: &dyn Runtime, f: impl FnOnce() -> R) -> R {
        self.lock(rt);
        let r = f();
        self.unlock(rt);
        r
    }
}

impl fmt::Debug for ElidableLock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ElidableLock")
            .field("word", &self.word)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TMemConfig;
    use crate::runtime::RealRuntime;

    #[test]
    fn lock_unlock_cycle() {
        let mem = Arc::new(TMem::new(TMemConfig::default()));
        let rt = RealRuntime::new();
        let l = ElidableLock::new(mem).unwrap();
        assert!(!l.is_locked(&rt));
        l.lock(&rt);
        assert!(l.is_locked(&rt));
        l.unlock(&rt);
        assert!(!l.is_locked(&rt));
    }

    #[test]
    fn try_lock_fails_when_held() {
        let mem = Arc::new(TMem::new(TMemConfig::default()));
        let rt = Arc::new(RealRuntime::new());
        let l = Arc::new(ElidableLock::new(mem).unwrap());
        l.lock(rt.as_ref());
        let l2 = l.clone();
        let rt2 = rt.clone();
        let failed = std::thread::spawn(move || l2.try_lock(rt2.as_ref()).is_none())
            .join()
            .unwrap();
        assert!(failed);
        l.unlock(rt.as_ref());
        let acquired = l.try_lock(rt.as_ref()).expect("the lock is free");
        assert_eq!(l.mem.clock(), acquired.get(), "as `lock` returns it");
        l.unlock(rt.as_ref());
    }

    #[test]
    fn with_releases_on_exit() {
        let mem = Arc::new(TMem::new(TMemConfig::default()));
        let rt = RealRuntime::new();
        let l = ElidableLock::new(mem).unwrap();
        let out = l.with(&rt, || 42);
        assert_eq!(out, 42);
        assert!(!l.is_locked(&rt));
    }

    #[test]
    fn mutual_exclusion_under_contention() {
        let mem = Arc::new(TMem::new(TMemConfig::default()));
        let rt = Arc::new(RealRuntime::new());
        let l = Arc::new(ElidableLock::new(mem.clone()).unwrap());
        let counter = mem.alloc_direct(1).unwrap();
        let threads = 4;
        let per = 200;
        let mut hs = Vec::new();
        for _ in 0..threads {
            let l = l.clone();
            let mem = mem.clone();
            let rt = rt.clone();
            hs.push(std::thread::spawn(move || {
                for _ in 0..per {
                    l.lock(rt.as_ref());
                    let v = mem.read_direct(rt.as_ref(), counter);
                    mem.write_direct(rt.as_ref(), counter, v + 1);
                    l.unlock(rt.as_ref());
                }
            }));
        }
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(
            mem.read_direct(rt.as_ref(), counter),
            (threads * per) as u64
        );
    }

    #[test]
    fn lock_word_has_its_own_line() {
        let mem = Arc::new(TMem::new(TMemConfig::default()));
        let a = mem.alloc_direct(1).unwrap();
        let l = ElidableLock::new(mem.clone()).unwrap();
        assert_ne!(mem.line_of(a), mem.line_of(l.word()));
    }
}
