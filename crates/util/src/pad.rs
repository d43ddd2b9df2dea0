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
//! per thread (up to [`COUNTER_STRIPES`] threads), so writers never
//! share a line, and readers sum the stripes.

use std::cell::Cell;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};

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

/// Number of stripes in every [`Striped`] value (a power of two).
/// Threads pick stripes round-robin on first use, so up to this many
/// threads write without ever touching a shared cache line.
pub const COUNTER_STRIPES: usize = 64;

/// Round-robin source of stripe indices (see [`STRIPE_IDX`]).
static STRIPE_SEQ: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// The calling thread's stripe index, assigned round-robin on first
    /// use. Deliberately independent of any dense thread id a runtime
    /// hands out: stripes are touched inside per-access hooks, and
    /// resolving such an id there would *implicitly register* threads
    /// (such as a main thread doing direct setup) that previously never
    /// got one, shifting every later thread's id.
    static STRIPE_IDX: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The calling thread's stripe index in `0..COUNTER_STRIPES`. One index
/// per OS thread, shared by every [`Striped`] value.
#[inline]
fn stripe_index() -> usize {
    let cached = STRIPE_IDX.get();
    if cached != usize::MAX {
        return cached;
    }
    // Relaxed: the sequence only spreads threads over stripes; nothing
    // is published through it.
    let idx = STRIPE_SEQ.fetch_add(1, Ordering::Relaxed) & (COUNTER_STRIPES - 1);
    STRIPE_IDX.set(idx);
    idx
}

/// [`COUNTER_STRIPES`] cache-padded copies of `T`, one per writing thread.
///
/// Each thread writes only [`local`](Striped::local), its own stripe;
/// readers combine all stripes through [`iter`](Striped::iter). Threads
/// map to distinct stripes until more than [`COUNTER_STRIPES`] have ever
/// written, after which stripes are shared, so `T` must stay correct
/// under concurrent writers (e.g. `fetch_add` counters, which then stay
/// exact and merely contend).
pub struct Striped<T> {
    stripes: Box<[CachePadded<T>; COUNTER_STRIPES]>,
}

impl<T: Default> Striped<T> {
    /// Creates [`COUNTER_STRIPES`] default stripes.
    pub fn new() -> Self {
        let stripes: Box<[CachePadded<T>]> = (0..COUNTER_STRIPES)
            .map(|_| CachePadded::new(T::default()))
            .collect();
        Striped {
            stripes: stripes
                .try_into()
                .unwrap_or_else(|_| unreachable!("exactly COUNTER_STRIPES stripes")),
        }
    }
}

impl<T> Striped<T> {
    /// The calling thread's stripe.
    #[inline]
    pub fn local(&self) -> &T {
        // The mask lets the compiler drop the bounds check; the index is
        // already in range.
        &self.stripes[stripe_index() & (COUNTER_STRIPES - 1)]
    }

    /// All stripes, for summing.
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

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

    #[test]
    fn stripe_index_is_stable_and_in_range() {
        let i = stripe_index();
        assert!(i < COUNTER_STRIPES);
        assert_eq!(stripe_index(), i, "stable within a thread");
    }

    #[test]
    fn striped_counts_are_exact_with_more_threads_than_stripes() {
        let s: Striped<AtomicU64> = Striped::new();
        let threads = COUNTER_STRIPES + 16;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    for _ in 0..100 {
                        s.local().fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        let total: u64 = s.iter().map(|c| c.load(Ordering::Relaxed)).sum();
        assert_eq!(total, threads as u64 * 100);
    }
}
