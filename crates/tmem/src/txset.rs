//! Allocation-free read/write-set structures and the per-thread
//! transaction scratch pool.
//!
//! The transaction hot path ([`Txn`](crate::Txn)) performs a set lookup
//! on *every* load and store, and historically paid for it with two
//! freshly allocated SipHash `HashMap`s per transaction. This module
//! replaces them with structures tuned for the actual footprint
//! distribution (most transactions touch a handful of lines, the tail
//! is bounded by the configured capacity):
//!
//! * [`SmallMap`] — an insertion-ordered key→value map that answers
//!   lookups by linear scan while small and switches to an
//!   open-addressing index (SplitMix64-mixed, linear probing) once it
//!   spills past the inline threshold. Iteration order is insertion
//!   order, so replacing `HashMap` (whose SipHash iteration order was
//!   randomized per process) makes commit publication *more*
//!   deterministic, not less.
//! * [`SortedLines`] — the write-line set, kept sorted incrementally so
//!   commit's lock-acquisition pass walks it directly instead of
//!   re-collecting, sorting and deduplicating a fresh `Vec`, and
//!   footprint queries are O(1)/O(log n).
//! * [`TxnScratch`] — all of a transaction's heap-backed state, pooled
//!   per thread through [`Runtime::take_scratch`](crate::Runtime) /
//!   [`Runtime::put_scratch`](crate::Runtime) so repeated transactions
//!   reuse capacity: after warm-up, begin/read/write/commit performs
//!   **zero** allocator calls.

use std::cell::RefCell;

use hcf_util::rng::{Rng, SplitMix64};

use crate::addr::Addr;

/// Entries held inline (looked up by linear scan) before the
/// open-addressing index engages. Eight entries cover the common case
/// (counters, stack/queue ops, small node updates) in two cache lines.
const INLINE: usize = 8;

/// Initial open-addressing capacity once a map spills (power of two).
const SPILL_CAPACITY: usize = 64;

/// Maximum scratch states cached per thread. Two covers every engine in
/// the workspace (one in-flight transaction, plus one headroom for
/// helper code that begins a transaction while another is being
/// dropped); the cap only bounds pathological callers.
const POOL_CAP: usize = 4;

#[inline]
fn mix(key: u64) -> u64 {
    // One SplitMix64 step — hcf-util's seeding mixer (golden-ratio
    // increment + 30/27/31 xor-multiply finalizer). Full-avalanche, so
    // the low bits used by the probe mask depend on every key bit.
    SplitMix64::new(key).next_u64()
}

/// An insertion-ordered `u64 → u64` map with an inline fast path and an
/// open-addressing spill index.
///
/// `clear` retains all capacity, which is what makes pooled reuse
/// allocation-free. Keys are word addresses or line numbers; values are
/// buffered words or recorded orec snapshots.
#[derive(Debug, Default)]
pub struct SmallMap {
    /// The entries in insertion order — the single source of truth.
    entries: Vec<(u64, u64)>,
    /// Open-addressing index over `entries` (slot → entry index + 1,
    /// `0` = empty). Only consulted while `engaged`.
    index: Vec<u32>,
    /// Whether `index` currently mirrors `entries` (set once the map
    /// grows past [`INLINE`], cleared — and the index zeroed — on
    /// `clear`).
    engaged: bool,
}

impl SmallMap {
    /// Creates an empty map (no heap allocation until first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up `key`.
    #[inline]
    pub fn get(&self, key: u64) -> Option<u64> {
        if !self.engaged {
            // Inline path: newest entries are the likeliest to be
            // re-accessed (read-after-write), so scan backwards.
            return self
                .entries
                .iter()
                .rev()
                .find(|&&(k, _)| k == key)
                .map(|&(_, v)| v);
        }
        let mask = self.index.len() - 1;
        let mut slot = (mix(key) as usize) & mask;
        loop {
            match self.index[slot] {
                0 => return None,
                e => {
                    let (k, v) = self.entries[(e - 1) as usize];
                    if k == key {
                        return Some(v);
                    }
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Inserts or updates `key`, returning `true` if the key was new.
    #[inline]
    pub fn insert(&mut self, key: u64, value: u64) -> bool {
        if !self.engaged {
            if let Some(e) = self.entries.iter_mut().rev().find(|e| e.0 == key) {
                e.1 = value;
                return false;
            }
            self.entries.push((key, value));
            if self.entries.len() > INLINE {
                self.engage();
            }
            return true;
        }
        let mask = self.index.len() - 1;
        let mut slot = (mix(key) as usize) & mask;
        loop {
            match self.index[slot] {
                0 => break,
                e => {
                    let entry = &mut self.entries[(e - 1) as usize];
                    if entry.0 == key {
                        entry.1 = value;
                        return false;
                    }
                }
            }
            slot = (slot + 1) & mask;
        }
        self.entries.push((key, value));
        self.index[slot] = self.entries.len() as u32;
        // Keep the load factor at or below 1/2 so probe sequences stay
        // short; rebuilding re-inserts every entry into a table twice
        // the size.
        if self.entries.len() * 2 > self.index.len() {
            self.grow();
        }
        true
    }

    /// Builds the spill index the first time the map outgrows the
    /// inline threshold.
    #[cold]
    fn engage(&mut self) {
        if self.index.len() < SPILL_CAPACITY {
            self.index.resize(SPILL_CAPACITY, 0);
        }
        self.engaged = true;
        self.reindex();
    }

    #[cold]
    fn grow(&mut self) {
        let cap = self.index.len() * 2;
        self.index.clear();
        self.index.resize(cap, 0);
        self.reindex();
    }

    fn reindex(&mut self) {
        for slot in self.index.iter_mut() {
            *slot = 0;
        }
        let mask = self.index.len() - 1;
        for (i, &(k, _)) in self.entries.iter().enumerate() {
            let mut slot = (mix(k) as usize) & mask;
            while self.index[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            self.index[slot] = (i + 1) as u32;
        }
    }

    /// Iterates `(key, value)` pairs in insertion order.
    #[inline]
    pub fn iter(&self) -> std::slice::Iter<'_, (u64, u64)> {
        self.entries.iter()
    }

    /// Empties the map, retaining entry and index capacity.
    pub fn clear(&mut self) {
        self.entries.clear();
        if self.engaged {
            // The index is only non-zero while engaged, so a map that
            // never spilled pays nothing here.
            for slot in self.index.iter_mut() {
                *slot = 0;
            }
            self.engaged = false;
        }
    }
}

/// A set of line numbers kept sorted incrementally.
///
/// Commit's lock-acquisition pass requires a deterministic global order
/// (ascending line number) to stay deadlock-free; maintaining the order
/// on insert makes that pass a plain slice walk and makes the footprint
/// query O(1). Insertion keeps the tail shift O(n), which beats the old
/// collect-sort-dedup (O(n log n) *per query*) for every footprint the
/// capacity config admits.
#[derive(Debug, Default)]
pub struct SortedLines {
    lines: Vec<usize>,
}

impl SortedLines {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct lines.
    #[inline]
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// Whether `line` is in the set.
    #[inline]
    pub fn contains(&self, line: usize) -> bool {
        self.lines.binary_search(&line).is_ok()
    }

    /// Inserts `line`, returning `true` if it was new.
    #[inline]
    pub fn insert(&mut self, line: usize) -> bool {
        match self.lines.binary_search(&line) {
            Ok(_) => false,
            Err(pos) => {
                self.lines.insert(pos, line);
                true
            }
        }
    }

    /// The lines in ascending order.
    #[inline]
    pub fn as_slice(&self) -> &[usize] {
        &self.lines
    }

    /// Empties the set, retaining capacity.
    pub fn clear(&mut self) {
        self.lines.clear();
    }
}

/// All heap-backed state of one transaction, pooled per thread so that
/// consecutive transactions reuse capacity instead of re-allocating.
///
/// A scratch is handed out by [`Runtime::take_scratch`](crate::Runtime)
/// at `begin` and returned — reset — by
/// [`Runtime::put_scratch`](crate::Runtime) when the transaction
/// finishes (commit, rollback or drop). No transactional state survives
/// the round trip: [`TxnScratch::reset`] empties every container and
/// only *capacity* is recycled.
#[derive(Debug, Default)]
pub struct TxnScratch {
    /// First-seen orec value per read line (line → raw orec).
    pub(crate) reads: SmallMap,
    /// Buffered stores (word address → value), insertion-ordered.
    pub(crate) writes: SmallMap,
    /// Distinct lines covered by `writes`, maintained sorted.
    pub(crate) write_lines: SortedLines,
    /// Blocks allocated by the transaction (rolled back on abort).
    pub(crate) allocs: Vec<(Addr, usize)>,
    /// Frees requested by the transaction (executed after commit).
    pub(crate) frees: Vec<(Addr, usize)>,
    /// Commit-time (line, original orec) pairs for abort restoration.
    pub(crate) locked: Vec<(usize, u64)>,
}

impl TxnScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties every container, retaining capacity.
    pub fn reset(&mut self) {
        self.reads.clear();
        self.writes.clear();
        self.write_lines.clear();
        self.allocs.clear();
        self.frees.clear();
        self.locked.clear();
    }

    /// True when no transactional state is held (used by tests to prove
    /// pooled reuse cannot leak state between transactions).
    pub fn is_clean(&self) -> bool {
        self.reads.is_empty()
            && self.writes.is_empty()
            && self.write_lines.is_empty()
            && self.allocs.is_empty()
            && self.frees.is_empty()
            && self.locked.is_empty()
    }
}

thread_local! {
    /// The default per-thread scratch pool behind
    /// [`Runtime::take_scratch`](crate::Runtime). Keyed by OS thread,
    /// which matches both runtimes: the lockstep scheduler pins each
    /// virtual thread to its own OS thread, and `RealRuntime` threads
    /// are OS threads by definition.
    static SCRATCH_POOL: RefCell<Vec<TxnScratch>> = const { RefCell::new(Vec::new()) };
}

/// Takes a scratch from the calling thread's pool (or creates one).
pub fn pool_take() -> TxnScratch {
    SCRATCH_POOL
        .with(|p| p.borrow_mut().pop())
        .unwrap_or_default()
}

/// Resets `scratch` and returns it to the calling thread's pool.
pub fn pool_put(mut scratch: TxnScratch) {
    scratch.reset();
    SCRATCH_POOL.with(|p| {
        let mut pool = p.borrow_mut();
        if pool.len() < POOL_CAP {
            pool.push(scratch);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcf_util::ptest::{u64s, vec_of};
    use hcf_util::{prop_assert_eq, proptest_lite};
    use std::collections::HashMap;

    #[test]
    fn small_map_inline_and_spilled() {
        let mut m = SmallMap::new();
        assert!(m.is_empty());
        for k in 0..40u64 {
            assert!(m.insert(k * 3, k), "fresh key");
            assert!(!m.insert(k * 3, k + 100), "update is not an insert");
        }
        assert_eq!(m.len(), 40);
        for k in 0..40u64 {
            assert_eq!(m.get(k * 3), Some(k + 100));
            assert_eq!(m.get(k * 3 + 1), None);
        }
    }

    #[test]
    fn small_map_iterates_in_insertion_order() {
        let mut m = SmallMap::new();
        let keys = [9u64, 2, 77, 41, 5, 13, 8, 1, 60, 33, 21, 4];
        for (i, &k) in keys.iter().enumerate() {
            m.insert(k, i as u64);
        }
        let got: Vec<u64> = m.iter().map(|&(k, _)| k).collect();
        assert_eq!(got, keys);
    }

    #[test]
    fn small_map_clear_retains_capacity_and_forgets_content() {
        let mut m = SmallMap::new();
        for k in 0..100u64 {
            m.insert(k, k);
        }
        m.clear();
        assert!(m.is_empty());
        for k in 0..100u64 {
            assert_eq!(m.get(k), None);
        }
        // Refill after clear: the spill index was zeroed, not stale.
        for k in 50..150u64 {
            m.insert(k, k * 2);
        }
        for k in 50..150u64 {
            assert_eq!(m.get(k), Some(k * 2));
        }
        assert_eq!(m.get(0), None);
    }

    #[test]
    fn sorted_lines_incremental() {
        let mut s = SortedLines::new();
        for &l in &[7usize, 3, 9, 3, 1, 7, 200, 0] {
            s.insert(l);
        }
        assert_eq!(s.as_slice(), &[0, 1, 3, 7, 9, 200]);
        assert_eq!(s.len(), 6);
        assert!(s.contains(9));
        assert!(!s.contains(8));
        s.clear();
        assert!(s.is_empty());
        assert!(!s.contains(0));
    }

    #[test]
    fn scratch_reset_is_clean() {
        let mut s = TxnScratch::new();
        s.reads.insert(1, 2);
        s.writes.insert(3, 4);
        s.write_lines.insert(5);
        s.allocs.push((Addr(1), 2));
        s.frees.push((Addr(3), 4));
        s.locked.push((5, 6));
        assert!(!s.is_clean());
        s.reset();
        assert!(s.is_clean());
    }

    #[test]
    fn pool_round_trip_resets() {
        let mut s = pool_take();
        s.writes.insert(1, 2);
        pool_put(s);
        let s2 = pool_take();
        assert!(s2.is_clean(), "pooled scratch leaked state");
        pool_put(s2);
    }

    proptest_lite! {
        cases = 128;

        /// SmallMap agrees with std's HashMap on any insert/lookup
        /// interleaving across the inline→spill boundary.
        fn small_map_matches_hashmap(ops in vec_of(u64s(0..64), 1..200)) {
            let mut m = SmallMap::new();
            let mut model: HashMap<u64, u64> = HashMap::new();
            for (i, k) in ops.into_iter().enumerate() {
                if i % 3 == 0 {
                    prop_assert_eq!(m.get(k), model.get(&k).copied());
                } else {
                    let v = i as u64;
                    let fresh = m.insert(k, v);
                    prop_assert_eq!(fresh, model.insert(k, v).is_none());
                }
                prop_assert_eq!(m.len(), model.len());
            }
            for (&k, &v) in &model {
                prop_assert_eq!(m.get(k), Some(v));
            }
        }
    }
}
