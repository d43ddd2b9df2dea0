//! Memory-access contexts: the same sequential code runs transactionally
//! or directly.
//!
//! The HCF paper's key usability claim is that the programmer writes
//! *sequential* data-structure code once, and the framework runs it either
//! inside a hardware transaction or under the fallback lock. [`MemCtx`] is
//! the Rust embodiment: data-structure operations are written against this
//! object-safe trait, and the framework supplies a [`TxCtx`] (speculative
//! phases) or a [`DirectCtx`] (lock-holding phases).

use std::fmt;

use crate::addr::Addr;
use crate::error::{AbortCause, TxResult};
use crate::lock::{ElidableLock, LockVersion};
use crate::mem::TMem;
use crate::runtime::Runtime;
use crate::txn::Txn;

/// Object-safe memory access used by sequential data-structure code.
///
/// All methods return `TxResult` so that code can propagate aborts with
/// `?`; the direct implementation never fails (other than allocation
/// exhaustion).
pub trait MemCtx {
    /// Loads the word at `addr`.
    ///
    /// # Errors
    ///
    /// Transactional contexts abort on conflicts and capacity overflow.
    fn read(&mut self, addr: Addr) -> TxResult<u64>;

    /// Loads the word at `addr` as [`read`](MemCtx::read) would, but
    /// makes no runtime access and joins no read set, so a check made
    /// with it (a `debug_assert!`) leaves the execution and a simulated
    /// run unchanged. `None` where a transactional read would abort.
    fn peek(&self, addr: Addr) -> Option<u64>;

    /// Stores `value` to `addr`.
    ///
    /// # Errors
    ///
    /// Transactional contexts abort on capacity overflow.
    fn write(&mut self, addr: Addr, value: u64) -> TxResult<()>;

    /// Allocates a zeroed block of `words` words.
    ///
    /// # Errors
    ///
    /// [`AbortCause::OutOfMemory`] when the pool is exhausted.
    fn alloc(&mut self, words: usize) -> TxResult<Addr>;

    /// Frees a block. Transactional contexts defer the free to commit.
    fn free(&mut self, addr: Addr, words: usize);

    /// Allocates one zeroed word on a dedicated cache line (padding for
    /// contended words, e.g. the two ends of a deque — without it the
    /// line-granularity conflict detection would serialize logically
    /// independent operations through false sharing).
    ///
    /// # Errors
    ///
    /// [`AbortCause::OutOfMemory`] when the pool is exhausted.
    fn alloc_line(&mut self) -> TxResult<Addr>;

    /// Subscribes to `lock`: aborts (with
    /// [`AbortCause::LOCK_HELD`](AbortCause::LOCK_HELD)) if the lock is
    /// held, and otherwise guarantees the transaction cannot commit once
    /// the lock is acquired. A no-op in direct contexts (the caller holds
    /// the lock).
    ///
    /// # Errors
    ///
    /// `Explicit(LOCK_HELD)` when the lock is currently held.
    fn subscribe(&mut self, lock: &ElidableLock) -> TxResult<()>;

    /// Explicitly aborts a transactional context with `code`; in a direct
    /// context this is a programming error and panics.
    ///
    /// # Errors
    ///
    /// Always returns `Err(Explicit(code))` in transactional contexts.
    ///
    /// # Panics
    ///
    /// Panics when invoked on a direct context.
    fn explicit_abort(&mut self, code: u8) -> TxResult<()>;

    /// `true` when running speculatively (inside a transaction).
    fn is_transactional(&self) -> bool;
}

/// Transactional implementation of [`MemCtx`], wrapping a [`Txn`].
pub struct TxCtx<'a, 'm> {
    tx: &'a mut Txn<'m>,
}

impl<'a, 'm> TxCtx<'a, 'm> {
    /// Wraps a transaction.
    pub fn new(tx: &'a mut Txn<'m>) -> Self {
        TxCtx { tx }
    }
}

impl fmt::Debug for TxCtx<'_, '_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TxCtx").field("tx", &self.tx).finish()
    }
}

impl MemCtx for TxCtx<'_, '_> {
    fn read(&mut self, addr: Addr) -> TxResult<u64> {
        self.tx.read(addr)
    }

    fn peek(&self, addr: Addr) -> Option<u64> {
        self.tx.peek(addr)
    }

    fn write(&mut self, addr: Addr, value: u64) -> TxResult<()> {
        self.tx.write(addr, value)
    }

    fn alloc(&mut self, words: usize) -> TxResult<Addr> {
        self.tx.alloc(words)
    }

    fn free(&mut self, addr: Addr, words: usize) {
        self.tx.free(addr, words);
    }

    fn alloc_line(&mut self) -> TxResult<Addr> {
        self.tx.alloc_line()
    }

    fn subscribe(&mut self, lock: &ElidableLock) -> TxResult<()> {
        let v = self.tx.read(lock.word())?;
        if v != 0 {
            self.tx.explicit_abort(AbortCause::LOCK_HELD)?;
        }
        Ok(())
    }

    fn explicit_abort(&mut self, code: u8) -> TxResult<()> {
        self.tx.explicit_abort(code)
    }

    fn is_transactional(&self) -> bool {
        true
    }
}

/// Direct (non-speculative) implementation of [`MemCtx`].
///
/// Use only single-threaded (initialization) or while holding an
/// [`ElidableLock`] all transactions subscribe to; see
/// [`TMem::read_direct`] for the protocol.
pub struct DirectCtx<'a> {
    mem: &'a TMem,
    rt: &'a dyn Runtime,
    /// The version stores publish at ([`DirectCtx::under_lock`]); `None`
    /// bumps the clock per store.
    at: Option<u64>,
}

impl<'a> DirectCtx<'a> {
    /// Creates a direct context over `mem`. Every store bumps the global
    /// clock and publishes its line at the new version, like
    /// [`TMem::write_direct`].
    pub fn new(mem: &'a TMem, rt: &'a dyn Runtime) -> Self {
        DirectCtx { mem, rt, at: None }
    }

    /// Creates a direct context for the holder of an [`ElidableLock`]
    /// whose [`lock`](ElidableLock::lock) returned `acquired`. Its stores
    /// (and the zeroing of blocks it allocates) still lock and unlock each
    /// line's orec, but publish the line at the acquisition's version
    /// instead of bumping the shared clock once per store, as a TL2
    /// commit publishes its whole write set at one version. A line whose
    /// version is already above `acquired` gets a fresh clock value, so
    /// no version ever goes down.
    ///
    /// Safe only if every transaction that can read the lines written here
    /// subscribes to that lock *before* its first read of any of them,
    /// which the HCF engine and the TLE/SCM baselines do (at each
    /// transaction's first read). Then every transaction's clock snapshot
    /// `rv` puts it in one of two cases:
    ///
    /// * `rv < acquired`: a line the holder wrote is above `rv`, so the
    ///   transaction aborts at its next read of it, and the lock word's
    ///   new version fails it at commit;
    /// * `rv >= acquired`: its subscription reads the lock word either
    ///   while the lock is held, and aborts, or after the release. The
    ///   release bumps the clock above `acquired` after the holder's last
    ///   store, and the subscription succeeds only if `rv` covers that
    ///   bump, so every store made here happened before the snapshot.
    ///
    /// So no transaction reads a line between two of the holder's stores,
    /// which is what a per-store clock bump would otherwise guard.
    pub fn under_lock(mem: &'a TMem, rt: &'a dyn Runtime, acquired: LockVersion) -> Self {
        DirectCtx {
            mem,
            rt,
            at: Some(acquired.get()),
        }
    }
}

impl fmt::Debug for DirectCtx<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DirectCtx").finish_non_exhaustive()
    }
}

impl MemCtx for DirectCtx<'_> {
    fn read(&mut self, addr: Addr) -> TxResult<u64> {
        Ok(self.mem.read_direct(self.rt, addr))
    }

    fn peek(&self, addr: Addr) -> Option<u64> {
        Some(self.mem.peek(addr))
    }

    fn write(&mut self, addr: Addr, value: u64) -> TxResult<()> {
        self.mem.store_direct(self.rt, addr, value, self.at);
        Ok(())
    }

    fn alloc(&mut self, words: usize) -> TxResult<Addr> {
        self.mem.alloc_direct_at(words, self.at)
    }

    fn free(&mut self, addr: Addr, words: usize) {
        self.mem.free_direct(addr, words);
    }

    fn alloc_line(&mut self) -> TxResult<Addr> {
        self.mem.alloc_line_direct(1)
    }

    fn subscribe(&mut self, _lock: &ElidableLock) -> TxResult<()> {
        Ok(())
    }

    fn explicit_abort(&mut self, code: u8) -> TxResult<()> {
        panic!("explicit_abort({code}) called on a direct (lock-holding) context");
    }

    fn is_transactional(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TMemConfig;
    use crate::runtime::RealRuntime;

    /// A tiny "sequential" routine written once against MemCtx.
    fn bump(ctx: &mut dyn MemCtx, a: Addr) -> TxResult<u64> {
        let v = ctx.read(a)?;
        ctx.write(a, v + 1)?;
        Ok(v + 1)
    }

    #[test]
    fn same_code_runs_direct_and_transactional() {
        let m = TMem::new(TMemConfig::small_word_granular());
        let rt = RealRuntime::new();
        let a = m.alloc_direct(1).unwrap();

        let mut d = DirectCtx::new(&m, &rt);
        assert_eq!(bump(&mut d, a).unwrap(), 1);
        assert!(!d.is_transactional());

        let mut tx = m.begin(&rt);
        {
            let mut c = TxCtx::new(&mut tx);
            assert_eq!(bump(&mut c, a).unwrap(), 2);
            assert!(c.is_transactional());
        }
        tx.commit().unwrap();
        assert_eq!(m.read_direct(&rt, a), 2);
    }

    #[test]
    fn subscribe_aborts_when_lock_held() {
        use std::sync::Arc;
        let m = Arc::new(TMem::new(TMemConfig::small_word_granular()));
        let rt = RealRuntime::new();
        let lock = ElidableLock::new(m.clone()).unwrap();
        lock.lock(&rt);
        let mut tx = m.begin(&rt);
        {
            let mut c = TxCtx::new(&mut tx);
            let e = c.subscribe(&lock).unwrap_err();
            assert!(e.is_lock_held());
        }
        let _ = tx.rollback(AbortCause::Conflict);
        lock.unlock(&rt);
    }

    #[test]
    fn subscribe_then_acquire_invalidates_tx() {
        use std::sync::Arc;
        let m = Arc::new(TMem::new(TMemConfig::small_word_granular()));
        let rt = RealRuntime::new();
        let lock = ElidableLock::new(m.clone()).unwrap();
        let a = m.alloc_direct(1).unwrap();
        let mut tx = m.begin(&rt);
        {
            let mut c = TxCtx::new(&mut tx);
            c.subscribe(&lock).unwrap();
            c.write(a, 1).unwrap();
        }
        lock.lock(&rt); // bumps the lock word's line version
        assert_eq!(tx.commit().unwrap_err(), AbortCause::Conflict);
        assert_eq!(m.read_direct(&rt, a), 0);
        lock.unlock(&rt);
    }

    #[test]
    fn direct_subscribe_is_noop() {
        use std::sync::Arc;
        let m = Arc::new(TMem::new(TMemConfig::small_word_granular()));
        let rt = RealRuntime::new();
        let lock = ElidableLock::new(m.clone()).unwrap();
        lock.lock(&rt);
        let mut d = DirectCtx::new(&m, &rt);
        assert!(d.subscribe(&lock).is_ok());
        lock.unlock(&rt);
    }

    #[test]
    #[should_panic(expected = "direct")]
    fn direct_explicit_abort_panics() {
        let m = TMem::new(TMemConfig::small_word_granular());
        let rt = RealRuntime::new();
        let mut d = DirectCtx::new(&m, &rt);
        let _ = d.explicit_abort(1);
    }

    #[test]
    fn ctx_alloc_free_round_trip() {
        let m = TMem::new(TMemConfig::small_word_granular());
        let rt = RealRuntime::new();
        let mut d = DirectCtx::new(&m, &rt);
        let a = d.alloc(3).unwrap();
        d.write(a, 9).unwrap();
        assert_eq!(d.read(a).unwrap(), 9);
        d.free(a, 3);
        assert_eq!(m.allocator().free_block_count(), 1);
    }
}

#[cfg(test)]
mod alloc_line_tests {
    use super::*;
    use crate::config::TMemConfig;
    use crate::runtime::RealRuntime;

    #[test]
    fn direct_alloc_line_is_line_aligned_and_zeroed() {
        let m = TMem::new(TMemConfig::default());
        let rt = RealRuntime::new();
        let mut d = DirectCtx::new(&m, &rt);
        let _ = d.alloc(3).unwrap(); // misalign the bump pointer
        let a = d.alloc_line().unwrap();
        assert_eq!(a.0 % m.config().words_per_line() as u64, 0);
        assert_eq!(d.read(a).unwrap(), 0);
    }

    #[test]
    fn tx_alloc_line_rolls_back() {
        let m = TMem::new(TMemConfig::default());
        let rt = RealRuntime::new();
        let before = m.allocator().free_block_count();
        {
            let mut tx = m.begin(&rt);
            {
                let mut c = TxCtx::new(&mut tx);
                let a = c.alloc_line().unwrap();
                c.write(a, 7).unwrap();
            }
            let _ = tx.rollback(crate::error::AbortCause::Conflict);
        }
        assert_eq!(m.allocator().free_block_count(), before + 1);
    }

    #[test]
    fn tx_alloc_line_commits_with_own_line() {
        let m = TMem::new(TMemConfig::default());
        let rt = RealRuntime::new();
        let other = m.alloc_direct(1).unwrap();
        let mut tx = m.begin(&rt);
        let a = {
            let mut c = TxCtx::new(&mut tx);
            let a = c.alloc_line().unwrap();
            c.write(a, 42).unwrap();
            a
        };
        tx.commit().unwrap();
        assert_eq!(m.read_direct(&rt, a), 42);
        assert_ne!(m.line_of(a), m.line_of(other));
    }

    #[test]
    fn two_alloc_lines_never_share() {
        let m = TMem::new(TMemConfig::default());
        let rt = RealRuntime::new();
        let mut d = DirectCtx::new(&m, &rt);
        let a = d.alloc_line().unwrap();
        let b = d.alloc_line().unwrap();
        assert_ne!(m.line_of(a), m.line_of(b));
    }
}

/// Stores through [`DirectCtx::under_lock`] publish at the lock's
/// acquisition version, and still abort every transaction that could see
/// them half done.
#[cfg(test)]
mod under_lock_tests {
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    use super::*;
    use crate::config::TMemConfig;
    use crate::orec::OrecValue;
    use crate::runtime::RealRuntime;

    /// One word per conflict-detection line, so every address below has a
    /// line of its own.
    fn setup() -> (Arc<TMem>, RealRuntime, ElidableLock) {
        let m = Arc::new(TMem::new(TMemConfig::small_word_granular()));
        let lock = ElidableLock::new(m.clone()).unwrap();
        (m, RealRuntime::new(), lock)
    }

    fn version(m: &TMem, a: Addr) -> u64 {
        OrecValue(m.orec(m.line_of(a)).load(Ordering::Relaxed)).version()
    }

    #[test]
    fn holder_stores_share_the_acquisition_version() {
        let (m, rt, lock) = setup();
        let (x, y) = (m.alloc_direct(1).unwrap(), m.alloc_direct(1).unwrap());
        let acquired = lock.lock(&rt);
        let z = {
            let mut d = DirectCtx::under_lock(&m, &rt, acquired);
            d.write(x, 1).unwrap();
            d.write(y, 2).unwrap();
            d.write(x, 3).unwrap();
            d.alloc(1).unwrap()
        };
        assert_eq!(m.clock(), acquired.get(), "no store bumped the clock");
        for a in [x, y, z] {
            assert_eq!(version(&m, a), acquired.get());
        }
        lock.unlock(&rt);
        assert!(m.clock() > acquired.get(), "the release bumps");
        assert_eq!((m.read_direct(&rt, x), m.read_direct(&rt, y)), (3, 2));
    }

    /// How a test acquires the lock: [`ElidableLock::lock`], or an
    /// uncontended [`ElidableLock::try_lock`], which must isolate the
    /// holder in the same way.
    type Acquire = fn(&ElidableLock, &dyn Runtime) -> LockVersion;

    fn try_acquire(lock: &ElidableLock, rt: &dyn Runtime) -> LockVersion {
        lock.try_lock(rt).expect("the lock is free")
    }

    /// (a) A transaction that read a line before the acquisition aborts at
    /// its next read of a line the holder wrote.
    #[test]
    fn reader_from_before_the_acquisition_aborts_at_a_holder_line() {
        reader_from_before_aborts(ElidableLock::lock);
    }

    /// (b) A transaction that begins after the acquisition aborts when it
    /// subscribes, although the holder's lines are not above its snapshot.
    #[test]
    fn transaction_begun_after_the_acquisition_aborts_at_subscription() {
        transaction_begun_after_aborts(ElidableLock::lock);
    }

    /// (a) and (b) for a holder that acquired with `try_lock`.
    #[test]
    fn a_try_lock_acquisition_isolates_the_holder_like_lock() {
        reader_from_before_aborts(try_acquire);
        transaction_begun_after_aborts(try_acquire);
    }

    fn reader_from_before_aborts(acquire: Acquire) {
        let (m, rt, lock) = setup();
        let (x, y) = (m.alloc_direct(1).unwrap(), m.alloc_direct(1).unwrap());
        let mut tx = m.begin(&rt);
        {
            let mut c = TxCtx::new(&mut tx);
            c.subscribe(&lock).unwrap();
            assert_eq!(c.read(x).unwrap(), 0);
        }
        let acquired = acquire(&lock, &rt);
        {
            let mut d = DirectCtx::under_lock(&m, &rt, acquired);
            d.write(x, 1).unwrap();
            d.write(y, 1).unwrap();
        }
        assert_eq!(tx.read(y).unwrap_err(), AbortCause::Conflict);
        let _ = tx.rollback(AbortCause::Conflict);
        lock.unlock(&rt);
    }

    fn transaction_begun_after_aborts(acquire: Acquire) {
        let (m, rt, lock) = setup();
        let x = m.alloc_direct(1).unwrap();
        let acquired = acquire(&lock, &rt);
        DirectCtx::under_lock(&m, &rt, acquired)
            .write(x, 7)
            .unwrap();

        let mut tx = m.begin(&rt);
        // The version check alone would let this transaction read the
        // holder's line: the subscription is what keeps it out.
        assert!(version(&m, x) <= m.clock());
        {
            let mut c = TxCtx::new(&mut tx);
            assert!(c.subscribe(&lock).unwrap_err().is_lock_held());
        }
        let _ = tx.rollback(AbortCause::Conflict);
        lock.unlock(&rt);

        // After the release a subscriber sees every store of the section.
        let mut tx = m.begin(&rt);
        {
            let mut c = TxCtx::new(&mut tx);
            c.subscribe(&lock).unwrap();
            assert_eq!(c.read(x).unwrap(), 7);
        }
        tx.commit().unwrap();
    }

    /// (c) A holder's store never lowers a line's version, also when a
    /// commit landed on the line between the acquisition and the store.
    #[test]
    fn holder_store_never_lowers_a_line_version() {
        let (m, rt, lock) = setup();
        let (x, y, z) = (
            m.alloc_direct(1).unwrap(),
            m.alloc_direct(1).unwrap(),
            m.alloc_direct(1).unwrap(),
        );
        let acquired = lock.lock(&rt);
        // A transaction that does not subscribe commits inside the
        // section, above the acquisition version.
        let mut tx = m.begin(&rt);
        tx.write(x, 1).unwrap();
        tx.write(z, 1).unwrap();
        tx.commit().unwrap();
        let committed = version(&m, x);
        assert!(committed > acquired.get());
        m.free_direct(z, 1);

        let mut d = DirectCtx::under_lock(&m, &rt, acquired);
        d.write(x, 2).unwrap();
        assert!(version(&m, x) > committed, "bumped past the commit");
        d.write(y, 2).unwrap();
        assert_eq!(version(&m, y), acquired.get());
        // Zeroing a recycled block follows the same rule.
        let z2 = d.alloc(1).unwrap();
        assert_eq!(z2, z, "size-class recycling");
        assert!(version(&m, z2) > committed);
        assert_eq!(d.read(z2).unwrap(), 0);
        lock.unlock(&rt);
    }
}
