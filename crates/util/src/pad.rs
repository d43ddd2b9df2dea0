//! Cache-line padding for contended shared state.
//!
//! [`CachePadded<T>`] aligns (and therefore sizes) its contents to 128
//! bytes, so two adjacent padded values never share a cache line and —
//! on processors whose L2 spatial prefetcher pulls line *pairs*, such
//! as recent Intel parts — never share a prefetched pair either. This
//! is the standard remedy for *false sharing*: independent atomics that
//! happen to be neighbours in memory otherwise ping-pong one physical
//! line between writer cores, serializing logically disjoint updates.
//!
//! Pad state that is written by one thread and merely *read* (or rarely
//! written) by others: global clocks, per-thread statistics slots,
//! ownership-record arrays. Do not pad large read-mostly data — padding
//! multiplies the footprint and wastes cache capacity.
//!
//! [`Striped<T>`] goes one step further for state that *every* thread
//! writes, such as statistics counters: it keeps one padded copy of `T`
//! per thread. A thread leases a stripe of its own on first use and
//! returns it when it exits, so up to [`COUNTER_STRIPES`] live threads
//! write without sharing a line, and without a lock-prefixed
//! read-modify-write: an owner bumps its counters with a plain relaxed
//! load and store ([`Striped::add`]). Threads beyond that share one extra
//! overflow stripe, bumped with `fetch_add`. Readers sum the stripes.
//! Each value is 65 padded copies of `T`, about 8 KB. The executors'
//! `ExecStats` are the only users, and derive every total that is a sum
//! of other counters instead of keeping it.

use std::cell::Cell;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};

/// Wraps a value, aligning it to its own 128-byte cache-line pair.
///
/// The wrapper is transparent in use: it `Deref`s to `T`, so
/// `CachePadded<AtomicU64>` can be loaded and stored like the bare
/// atomic.
///
/// 128 rather than 64: on Intel processors the L2 adjacent-line
/// prefetcher treats aligned 128-byte pairs as a unit, so 64-byte
/// padding still allows destructive interference between neighbours
/// (the same constant crossbeam uses on x86).
#[derive(Clone, Copy, Default, PartialEq, Eq)]
#[repr(align(128))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Pads `value`.
    #[inline]
    pub const fn new(value: T) -> Self {
        CachePadded { value }
    }

    /// Unwraps the padded value.
    #[inline]
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for CachePadded<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

impl<T> From<T> for CachePadded<T> {
    #[inline]
    fn from(value: T) -> Self {
        CachePadded::new(value)
    }
}

impl<T: fmt::Debug> fmt::Debug for CachePadded<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.value, f)
    }
}

/// Number of exclusively leased stripes in every [`Striped`] value: up to
/// this many threads at once own a stripe each. One bit of the lease mask
/// per stripe, so at most 64.
pub const COUNTER_STRIPES: usize = 64;

const _: () = assert!(COUNTER_STRIPES <= u64::BITS as usize);

/// Index of the stripe shared by threads that found no free stripe. It is
/// the one stripe written with `fetch_add`.
const OVERFLOW: usize = COUNTER_STRIPES;

/// Lease mask: bit `i` set means stripe `i` is free.
static FREE_STRIPES: AtomicU64 = AtomicU64::new(u64::MAX >> (64 - COUNTER_STRIPES));

thread_local! {
    /// The calling thread's stripe: `usize::MAX` before first use, a
    /// leased stripe below [`COUNTER_STRIPES`], or [`OVERFLOW`]. Read on
    /// every bump, so it is a `const` `Cell` with no destructor: reading
    /// it is one thread-local load, with no lazy-initialization check.
    ///
    /// Deliberately independent of any dense thread id a runtime hands
    /// out: stripes are touched inside per-access hooks, and resolving
    /// such an id there would *implicitly register* threads (such as a
    /// main thread doing direct setup) that previously never got one,
    /// shifting every later thread's id.
    static STRIPE_IDX: Cell<usize> = const { Cell::new(usize::MAX) };

    /// Releases the calling thread's lease when the thread exits. Touched
    /// only when the lease is taken, which registers its destructor.
    static LEASE: Lease = const { Lease(Cell::new(OVERFLOW)) };
}

/// A thread's stripe lease; see [`LEASE`].
struct Lease(Cell<usize>);

impl Drop for Lease {
    fn drop(&mut self) {
        let idx = self.0.get();
        if idx < COUNTER_STRIPES {
            // Bumps made later in this thread's teardown (by other
            // thread-local destructors) go to the shared overflow stripe.
            STRIPE_IDX.set(OVERFLOW);
            // Release: pairs with the Acquire of the next lease of this
            // stripe, so its owner's first load sees this thread's last
            // store and no count is lost.
            FREE_STRIPES.fetch_or(1 << idx, Ordering::Release);
        }
    }
}

/// Leases the lowest free stripe, or returns [`OVERFLOW`] when none is
/// free or the thread is already tearing down.
#[cold]
fn lease_stripe() -> usize {
    let idx = LEASE
        .try_with(|lease| {
            let mut free = FREE_STRIPES.load(Ordering::Relaxed);
            while free != 0 {
                let idx = free.trailing_zeros() as usize;
                // Acquire: pairs with the Release in `Lease::drop` of the
                // stripe's previous owner.
                match FREE_STRIPES.compare_exchange_weak(
                    free,
                    free & !(1 << idx),
                    Ordering::Acquire,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        lease.0.set(idx);
                        return idx;
                    }
                    Err(now) => free = now,
                }
            }
            OVERFLOW
        })
        .unwrap_or(OVERFLOW);
    STRIPE_IDX.set(idx);
    idx
}

/// The calling thread's stripe index: below [`COUNTER_STRIPES`] for a
/// leased stripe, [`OVERFLOW`] for the shared one. One index per OS
/// thread, shared by every [`Striped`] value.
#[inline]
fn stripe_index() -> usize {
    match STRIPE_IDX.get() {
        usize::MAX => lease_stripe(),
        idx => idx,
    }
}

/// [`COUNTER_STRIPES`] cache-padded copies of `T` leased one per thread,
/// plus one overflow copy shared by all other threads.
///
/// A thread leases a stripe from a global free mask on its first
/// [`add`](Striped::add), and releases it when it exits, so stripes are
/// recycled across thread churn. The stripe index is global: a thread owns
/// the same stripe of every `Striped` value. The owner is the stripe's
/// only writer, so it bumps counters with a plain load and store and no
/// lock-prefixed read-modify-write. Threads that find every stripe leased
/// share the overflow stripe, which is bumped with `fetch_add`, so counts
/// stay exact at any thread count. Readers combine all stripes through
/// [`iter`](Striped::iter).
pub struct Striped<T> {
    stripes: Box<[CachePadded<T>; COUNTER_STRIPES + 1]>,
}

impl<T: Default> Striped<T> {
    /// Creates [`COUNTER_STRIPES`] default stripes and the overflow stripe.
    pub fn new() -> Self {
        let stripes: Box<[CachePadded<T>]> = (0..=COUNTER_STRIPES)
            .map(|_| CachePadded::new(T::default()))
            .collect();
        Striped {
            stripes: stripes
                .try_into()
                .unwrap_or_else(|_| unreachable!("exactly COUNTER_STRIPES + 1 stripes")),
        }
    }
}

impl<T> Striped<T> {
    /// Adds `n` to the counter that `counter` selects in the calling
    /// thread's stripe. `counter` must return a field of the stripe it is
    /// given: the plain store below is exact only because the stripe has
    /// one writer.
    ///
    /// On a leased stripe this is a relaxed load and store (the thread is
    /// the only writer); on the overflow stripe a relaxed `fetch_add`.
    /// Counters publish nothing else, so relaxed suffices: a reader that
    /// joined the writers sees exact totals.
    #[inline]
    pub fn add(&self, counter: impl FnOnce(&T) -> &AtomicU64, n: u64) {
        let idx = STRIPE_IDX.get();
        if idx < COUNTER_STRIPES {
            let c = counter(&self.stripes[idx]);
            c.store(c.load(Ordering::Relaxed).wrapping_add(n), Ordering::Relaxed);
        } else {
            self.add_slow(counter, n);
        }
    }

    /// [`add`](Striped::add) for a thread without a leased stripe: first
    /// use, or the overflow stripe.
    #[cold]
    #[inline(never)]
    fn add_slow(&self, counter: impl FnOnce(&T) -> &AtomicU64, n: u64) {
        if stripe_index() == OVERFLOW {
            counter(&self.stripes[OVERFLOW]).fetch_add(n, Ordering::Relaxed);
        } else {
            // Leased just now: take the fast path.
            self.add(counter, n);
        }
    }

    /// All stripes, the overflow stripe included, for summing.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.stripes.iter().map(|s| &**s)
    }
}

impl<T: Default> Default for Striped<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> fmt::Debug for Striped<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Striped")
            .field("stripes", &COUNTER_STRIPES)
            .finish()
    }
}

/// `n` atomics, all zero, whose pages this call does not write.
///
/// `vec![0; n]` takes the allocator's zeroed path (fresh, untouched pages
/// for a large `n`), and the map to `AtomicU64` reuses that allocation in
/// place, so the copy loop left is an identity that the optimizer deletes
/// — but only where it can see that source and destination coincide, that
/// is, where the whole in-place collect is inlined. Collecting into a
/// `Box<[_]>` directly calls `Box`'s `from_iter`, which is not
/// `#[inline]`: depending on how the crate happened to be split into
/// codegen units it ran out of line, kept the copy, and faulted in every
/// page (a 24 MB `TMem` went resident on construction). `Vec`'s
/// `from_iter` and the in-place path below it are `#[inline]`, so they are
/// compiled into this function whatever the partitioning. The function
/// itself is never inlined, so no caller's code changes how it compiles.
/// Debug assertions keep the copy too (they add checks to the in-place
/// path), so the workspace's dev profile builds this crate at opt-level 2
/// without them. `hcf-tmem`'s `lazy_zero` test checks the result in both
/// profiles.
#[inline(never)]
pub fn zeroed_atomics(n: usize) -> Box<[AtomicU64]> {
    let atomics: Vec<AtomicU64> = vec![0u64; n].into_iter().map(AtomicU64::new).collect();
    atomics.into_boxed_slice()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn zeroed_atomics_are_zero() {
        assert!(zeroed_atomics(0).is_empty());
        let a = zeroed_atomics(1000);
        assert_eq!(a.len(), 1000);
        assert!(a.iter().all(|x| x.load(Ordering::Relaxed) == 0));
    }

    #[test]
    fn layout_isolates_neighbours() {
        assert_eq!(std::mem::align_of::<CachePadded<AtomicU64>>(), 128);
        assert!(std::mem::size_of::<CachePadded<AtomicU64>>() >= 128);
        // Adjacent array elements land on distinct 128-byte units.
        let pair = [CachePadded::new(0u64), CachePadded::new(0u64)];
        let a = &pair[0] as *const _ as usize;
        let b = &pair[1] as *const _ as usize;
        assert!(b - a >= 128);
    }

    #[test]
    fn transparent_access() {
        let c = CachePadded::new(AtomicU64::new(7));
        assert_eq!(c.load(Ordering::Relaxed), 7);
        c.store(9, Ordering::Relaxed);
        assert_eq!(c.into_inner().into_inner(), 9);
    }

    #[test]
    fn value_semantics() {
        let mut c = CachePadded::new(41u64);
        *c += 1;
        assert_eq!(*c, 42);
        assert_eq!(CachePadded::from(42u64), c);
        assert_eq!(format!("{c:?}"), "42");
    }

    /// Serializes the tests that lease many stripes at once, so that the
    /// recycling test finds stripes free.
    static LEASE_TESTS: crate::sync::Mutex<()> = crate::sync::Mutex::new(());

    fn lease_tests() -> crate::sync::MutexGuard<'static, ()> {
        LEASE_TESTS.lock()
    }

    fn total(s: &Striped<AtomicU64>) -> u64 {
        s.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    #[test]
    fn stripe_index_is_stable_and_in_range() {
        let i = stripe_index();
        assert!(i < COUNTER_STRIPES || i == OVERFLOW, "index {i}");
        assert_eq!(stripe_index(), i, "stable within a thread");
    }

    #[test]
    fn striped_counts_are_exact_with_more_threads_than_stripes() {
        let _serial = lease_tests();
        let s: Striped<AtomicU64> = Striped::new();
        let threads = COUNTER_STRIPES + 16;
        // All threads hold their lease at once, so at least 16 of them
        // share the overflow stripe.
        let barrier = std::sync::Barrier::new(threads);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    s.add(|c| c, 1);
                    barrier.wait();
                    for _ in 1..1_000 {
                        s.add(|c| c, 1);
                    }
                });
            }
        });
        assert_eq!(total(&s), threads as u64 * 1_000);
    }

    #[test]
    fn exited_threads_return_their_stripes() {
        let _serial = lease_tests();
        let s = std::sync::Arc::new(Striped::<AtomicU64>::new());
        let threads = 3 * COUNTER_STRIPES;
        // One at a time: `join` returns after the thread's lease is
        // released, so without recycling the 65th thread would find no
        // free stripe.
        for _ in 0..threads {
            let s = s.clone();
            let idx = std::thread::spawn(move || {
                for _ in 0..100 {
                    s.add(|c| c, 1);
                }
                stripe_index()
            })
            .join()
            .unwrap();
            assert!(idx < COUNTER_STRIPES, "thread got the overflow stripe");
        }
        assert_eq!(total(&s), threads as u64 * 100);
    }

    /// Bumps a counter from a thread-local destructor, during teardown.
    struct BumpOnExit(std::cell::RefCell<Option<std::sync::Arc<Striped<AtomicU64>>>>);

    impl Drop for BumpOnExit {
        fn drop(&mut self) {
            if let Some(s) = self.0.borrow_mut().take() {
                s.add(|c| c, 1);
            }
        }
    }

    thread_local! {
        static BUMP_ON_EXIT: BumpOnExit = const { BumpOnExit(std::cell::RefCell::new(None)) };
    }

    #[test]
    fn bumps_during_thread_teardown_are_counted() {
        let s = std::sync::Arc::new(Striped::<AtomicU64>::new());
        let arm = |s: &std::sync::Arc<Striped<AtomicU64>>| {
            BUMP_ON_EXIT.with(|b| *b.0.borrow_mut() = Some(s.clone()));
        };
        // The order in which the bump's destructor and the lease's are
        // registered decides which runs first; both orders must count.
        for order in 0..3 {
            let s = s.clone();
            std::thread::spawn(move || match order {
                0 => {
                    arm(&s);
                    s.add(|c| c, 1);
                }
                1 => {
                    s.add(|c| c, 1);
                    arm(&s);
                }
                // The first bump comes from the destructor itself.
                _ => arm(&s),
            })
            .join()
            .unwrap();
        }
        assert_eq!(total(&s), 5);
    }
}
