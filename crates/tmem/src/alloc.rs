//! A simple word-pool allocator with size-class free lists.
//!
//! The transactional memory is a fixed-size pool of words; data structures
//! allocate node-sized blocks from it. Allocation is a bump pointer with
//! per-size free lists for recycling. The free lists are *non-intrusive*
//! (freed blocks are never written), which matters for correctness: a
//! concurrent transaction that followed a stale pointer into a freed block
//! keeps seeing a frozen copy of the old contents — a consistent stale
//! snapshot — and is aborted by read-set validation on the path that led
//! there, or by the version bump when the block is reused and rewritten.
//!
//! Each size class below 64 words has its own cache-padded mutex, and the
//! larger sizes share one more, so threads that allocate and free blocks
//! of different sizes never contend on the allocator. Every list stays
//! last-in-first-out.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use hcf_util::pad::CachePadded;
use hcf_util::sync::Mutex;

use crate::addr::Addr;
use crate::error::{AbortCause, TxResult};

/// Block sizes below this many words have a directly indexed free list;
/// every data-structure node in the workspace is far smaller.
const DIRECT_CLASSES: usize = 64;

/// Start addresses of the free blocks of one size, most recently freed
/// last.
type FreeList = Vec<u64>;

/// Word-pool allocator. One per [`TMem`](crate::TMem).
///
/// Each free list is last-in-first-out: `alloc` reuses the most recently
/// freed block of its size. That order decides which addresses the
/// lockstep figures touch, so it must not change.
pub struct Allocator {
    /// Bump pointer: index of the next never-allocated word. Starts at 1
    /// because address 0 is the reserved null.
    next: AtomicU64,
    /// Pool capacity in words.
    capacity: u64,
    /// `small[w]`: free blocks of `w` words (index 0 unused).
    small: Box<[CachePadded<Mutex<FreeList>>; DIRECT_CLASSES]>,
    /// Free blocks of `DIRECT_CLASSES` words or more, one entry per size
    /// ever freed, sorted by size — bookkeeping grows with the number of
    /// distinct large sizes, never with a block's length.
    large: CachePadded<Mutex<Vec<(usize, FreeList)>>>,
}

impl Allocator {
    /// Creates an allocator managing `capacity` words (word 0 reserved).
    pub fn new(capacity: usize) -> Self {
        Allocator {
            next: AtomicU64::new(1),
            capacity: capacity as u64,
            small: Box::new(std::array::from_fn(|_| {
                CachePadded::new(Mutex::new(Vec::new()))
            })),
            large: CachePadded::new(Mutex::new(Vec::new())),
        }
    }

    /// Allocates a block of `words` words.
    ///
    /// # Errors
    ///
    /// Returns [`AbortCause::OutOfMemory`] when neither the free list nor
    /// the remaining pool can satisfy the request.
    pub fn alloc(&self, words: usize) -> TxResult<Addr> {
        assert!(words > 0, "zero-sized allocation");
        let reused = if words < DIRECT_CLASSES {
            self.small[words].lock().pop()
        } else {
            let mut large = self.large.lock();
            large
                .binary_search_by_key(&words, |e| e.0)
                .ok()
                .and_then(|i| large[i].1.pop())
        };
        match reused {
            Some(a) => Ok(Addr(a)),
            None => self.bump(words as u64),
        }
    }

    /// Allocates a block whose start address is a multiple of `align`
    /// words. Used to give locks and headers a cache line of their own.
    pub fn alloc_aligned(&self, words: usize, align: usize) -> TxResult<Addr> {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        assert!(words > 0, "zero-sized allocation");
        let align = align as u64;
        loop {
            let cur = self.next.load(Ordering::Relaxed);
            let start = (cur + align - 1) & !(align - 1);
            let end = start + words as u64;
            if end > self.capacity {
                return Err(AbortCause::OutOfMemory);
            }
            if self
                .next
                .compare_exchange(cur, end, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                // The padding words between `cur` and `start` are leaked;
                // alignment requests are rare (per-structure headers).
                return Ok(Addr(start));
            }
        }
    }

    fn bump(&self, words: u64) -> TxResult<Addr> {
        loop {
            let cur = self.next.load(Ordering::Relaxed);
            let end = cur + words;
            if end > self.capacity {
                return Err(AbortCause::OutOfMemory);
            }
            if self
                .next
                .compare_exchange(cur, end, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                return Ok(Addr(cur));
            }
        }
    }

    /// Returns a block to the free list for its size class.
    ///
    /// The block contents are left untouched (see the module docs for why).
    pub fn free(&self, addr: Addr, words: usize) {
        debug_assert!(!addr.is_null(), "freeing the null address");
        debug_assert!(addr.0 + words as u64 <= self.capacity);
        if words < DIRECT_CLASSES {
            self.small[words].lock().push(addr.0);
            return;
        }
        let mut large = self.large.lock();
        let i = match large.binary_search_by_key(&words, |e| e.0) {
            Ok(i) => i,
            Err(i) => {
                large.insert(i, (words, Vec::new()));
                i
            }
        };
        large[i].1.push(addr.0);
    }

    /// Words handed out so far by the bump pointer (high-water mark).
    pub fn high_water(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }

    /// Number of blocks currently sitting on free lists: the sum over the
    /// size classes, exact while no thread allocates or frees.
    pub fn free_block_count(&self) -> u64 {
        let small: usize = self.small.iter().map(|l| l.lock().len()).sum();
        let large: usize = self.large.lock().iter().map(|e| e.1.len()).sum();
        (small + large) as u64
    }
}

impl fmt::Debug for Allocator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Allocator")
            .field("capacity", &self.capacity)
            .field("high_water", &self.high_water())
            .field("free_blocks", &self.free_block_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_allocates_disjoint_blocks() {
        let a = Allocator::new(100);
        let b1 = a.alloc(5).unwrap();
        let b2 = a.alloc(5).unwrap();
        assert_ne!(b1, b2);
        assert!(b2.0 >= b1.0 + 5 || b1.0 >= b2.0 + 5);
        assert!(!b1.is_null());
    }

    #[test]
    fn recycles_freed_blocks_by_size() {
        let a = Allocator::new(100);
        let b = a.alloc(7).unwrap();
        a.free(b, 7);
        assert_eq!(a.free_block_count(), 1);
        let b2 = a.alloc(7).unwrap();
        assert_eq!(b, b2, "same-size alloc reuses the freed block");
        assert_eq!(a.free_block_count(), 0);
    }

    #[test]
    fn different_size_does_not_reuse() {
        let a = Allocator::new(100);
        let b = a.alloc(7).unwrap();
        a.free(b, 7);
        let c = a.alloc(3).unwrap();
        assert_ne!(b, c);
    }

    #[test]
    fn out_of_memory() {
        let a = Allocator::new(10);
        assert!(a.alloc(9).is_ok()); // words 1..10
        assert_eq!(a.alloc(1).unwrap_err(), AbortCause::OutOfMemory);
    }

    #[test]
    fn aligned_allocation() {
        let a = Allocator::new(100);
        let _ = a.alloc(3).unwrap();
        let b = a.alloc_aligned(8, 8).unwrap();
        assert_eq!(b.0 % 8, 0);
    }

    #[test]
    fn word_zero_reserved() {
        let a = Allocator::new(100);
        let b = a.alloc(1).unwrap();
        assert_ne!(b, Addr::NULL);
    }

    #[test]
    fn concurrent_allocs_are_disjoint() {
        use std::collections::HashSet;
        use std::sync::Arc;
        let a = Arc::new(Allocator::new(100_000));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let a = a.clone();
            handles.push(std::thread::spawn(move || {
                (0..500).map(|_| a.alloc(3).unwrap().0).collect::<Vec<_>>()
            }));
        }
        let mut seen = HashSet::new();
        for h in handles {
            for addr in h.join().unwrap() {
                assert!(seen.insert(addr), "duplicate allocation at {addr}");
            }
        }
    }

    /// The free-list design this allocator replaced: one `HashMap` of
    /// LIFO lists keyed by size, then the bump pointer. Reuse order
    /// decides lockstep block addresses, so it must match step for step.
    struct HashMapModel {
        next: u64,
        free: std::collections::HashMap<usize, Vec<u64>>,
    }

    impl HashMapModel {
        fn alloc(&mut self, words: usize) -> u64 {
            if let Some(a) = self.free.get_mut(&words).and_then(Vec::pop) {
                return a;
            }
            let a = self.next;
            self.next += words as u64;
            a
        }

        fn free(&mut self, addr: u64, words: usize) {
            self.free.entry(words).or_default().push(addr);
        }
    }

    #[test]
    fn reuse_order_matches_hashmap_free_lists() {
        use hcf_util::rng::{Rng, SplitMix64};
        // Direct-indexed and large sizes, each repeated enough to reuse.
        const SIZES: [usize; 8] = [1, 2, 3, 5, 19, 63, 64, 300];
        let a = Allocator::new(1 << 24);
        let mut model = HashMapModel {
            next: 1,
            free: Default::default(),
        };
        let mut rng = SplitMix64::seed_from_u64(0x5eed);
        let mut live: Vec<(u64, usize)> = Vec::new();
        for step in 0..20_000 {
            if live.is_empty() || rng.random_bool(0.55) {
                let words = SIZES[rng.random_range(0..SIZES.len())];
                let got = a.alloc(words).unwrap().0;
                assert_eq!(got, model.alloc(words), "alloc({words}) at step {step}");
                live.push((got, words));
            } else {
                let (addr, words) = live.swap_remove(rng.random_range(0..live.len()));
                a.free(Addr(addr), words);
                model.free(addr, words);
            }
            let model_free: usize = model.free.values().map(Vec::len).sum();
            assert_eq!(a.free_block_count(), model_free as u64);
        }
        assert_eq!(a.high_water(), model.next);
    }

    #[test]
    fn free_block_count_is_exact_after_concurrent_alloc_free() {
        use std::collections::HashSet;
        use std::sync::Arc;
        const SIZES: [usize; 4] = [2, 3, 5, 70];
        let a = Arc::new(Allocator::new(1 << 20));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let a = a.clone();
                std::thread::spawn(move || {
                    let mut seen = Vec::new();
                    let mut held = Vec::new();
                    for i in 0..2_000usize {
                        let words = SIZES[(i + t) % SIZES.len()];
                        let b = a.alloc(words).unwrap();
                        seen.push((b.0, words));
                        held.push((b, words));
                        if i % 3 != 0 {
                            let (b, w) = held.swap_remove(i % held.len());
                            a.free(b, w);
                        }
                    }
                    for (b, w) in held {
                        a.free(b, w);
                    }
                    seen
                })
            })
            .collect();
        // Every block handed out was freed again, so the free lists hold
        // exactly the distinct blocks ever handed out.
        let mut distinct = HashSet::new();
        for h in handles {
            distinct.extend(h.join().unwrap());
        }
        assert_eq!(a.free_block_count(), distinct.len() as u64);
        // Draining the lists pops exactly that many blocks, each once,
        // before any size falls back to the bump pointer.
        let high_water = a.high_water();
        let mut drained = HashSet::new();
        for &words in &SIZES {
            let on_list = distinct.iter().filter(|&&(_, w)| w == words).count();
            for _ in 0..on_list {
                assert!(drained.insert((a.alloc(words).unwrap().0, words)));
            }
        }
        assert_eq!(drained, distinct);
        assert_eq!(a.free_block_count(), 0);
        assert_eq!(
            a.high_water(),
            high_water,
            "no block came from the bump pointer"
        );
    }

    #[test]
    fn private_and_shared_classes_under_concurrent_alloc_free() {
        use std::collections::HashSet;
        use std::sync::Barrier;
        /// Thread `t` alone uses `PRIVATE[t]` (one of them a large size);
        /// every thread uses `SHARED`.
        const PRIVATE: [usize; 4] = [2, 3, 5, 70];
        const SHARED: usize = 4;
        let a = Allocator::new(1 << 20);
        // Blocks currently handed out, and every block ever handed out.
        let live = Mutex::new(HashSet::new());
        let seen = Mutex::new(HashSet::new());
        let barrier = Barrier::new(PRIVATE.len());
        std::thread::scope(|s| {
            for (t, &private) in PRIVATE.iter().enumerate() {
                let (a, live, seen, barrier) = (&a, &live, &seen, &barrier);
                s.spawn(move || {
                    let mut held = Vec::new();
                    barrier.wait();
                    for i in 0..3_000usize {
                        let words = if i % 2 == 0 { private } else { SHARED };
                        let b = a.alloc(words).unwrap();
                        assert!(live.lock().insert(b.0), "{b:?} handed out twice");
                        seen.lock().insert((b.0, words));
                        held.push((b, words));
                        if (i + t) % 3 != 0 {
                            let (b, w) = held.swap_remove(i % held.len());
                            // Off the live set before another thread can
                            // be handed the block again.
                            live.lock().remove(&b.0);
                            a.free(b, w);
                        }
                    }
                    for (b, w) in held {
                        live.lock().remove(&b.0);
                        a.free(b, w);
                    }
                });
            }
        });
        let seen = seen.into_inner();
        // Every block handed out was freed again, so the free lists hold
        // exactly the distinct blocks ever handed out.
        assert_eq!(a.free_block_count(), seen.len() as u64);
        // And no two of those blocks overlap.
        let mut blocks: Vec<_> = seen.into_iter().collect();
        blocks.sort_unstable();
        for pair in blocks.windows(2) {
            let ((a0, w0), (a1, _)) = (pair[0], pair[1]);
            assert!(a0 + w0 as u64 <= a1, "blocks at {a0} and {a1} overlap");
        }
    }

    #[test]
    fn large_block_bookkeeping_does_not_grow_with_its_size() {
        const BIG: usize = 1 << 16;
        let a = Allocator::new(4 * BIG);
        let slots = |a: &Allocator| a.small.len() + a.large.lock().len();
        let empty = slots(&a);
        let b = a.alloc(BIG).unwrap();
        a.free(b, BIG);
        assert_eq!(a.free_block_count(), 1);
        assert_eq!(slots(&a), empty + 1, "one list entry for the new size");
        assert_eq!(a.alloc(BIG).unwrap(), b, "large block reused");
        assert_eq!(a.free_block_count(), 0);
        let c = a.alloc(2 * BIG).unwrap();
        a.free(c, 2 * BIG);
        a.free(b, BIG);
        assert_eq!(slots(&a), empty + 2);
        assert_eq!(a.alloc(2 * BIG).unwrap(), c);
        assert_eq!(a.alloc(BIG).unwrap(), b);
    }
}
