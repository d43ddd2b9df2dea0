//! Global transactional-memory statistics.

use std::sync::atomic::{AtomicU64, Ordering};

use hcf_util::pad::Striped;

use crate::error::AbortCause;

/// Monotonic counters kept by a [`TMem`](crate::TMem) instance.
///
/// These are *substrate-level* statistics (the HCF framework keeps its own
/// per-phase accounting on top). The counters are [`Striped`]: each thread
/// bumps a cache-padded stripe it leases exclusively, with a plain load and
/// store, so transactions on disjoint data never serialize on a shared
/// statistics line nor pay a lock-prefixed RMW, and
/// [`snapshot`](TxStats::snapshot) sums the stripes. Threads beyond the
/// [`COUNTER_STRIPES`](hcf_util::pad::COUNTER_STRIPES) live at once share
/// an overflow stripe bumped with `fetch_add`, so counts stay exact.
/// Snapshots are approximate under concurrency, exact once the counting
/// threads are joined.
#[derive(Debug, Default)]
pub struct TxStats {
    stripes: Striped<Counters>,
}

/// One stripe of [`TxStats`]: seven counters, 56 bytes, inside one
/// 128-byte padding unit.
#[derive(Debug, Default)]
struct Counters {
    commits: AtomicU64,
    aborts_conflict: AtomicU64,
    aborts_capacity: AtomicU64,
    aborts_explicit: AtomicU64,
    aborts_oom: AtomicU64,
    tx_reads: AtomicU64,
    tx_writes: AtomicU64,
}

/// A point-in-time copy of [`TxStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TxStatsSnapshot {
    /// Committed transactions.
    pub commits: u64,
    /// Aborts due to data conflicts.
    pub aborts_conflict: u64,
    /// Aborts due to footprint capacity.
    pub aborts_capacity: u64,
    /// Explicit aborts (lock subscription, status changes, ...).
    pub aborts_explicit: u64,
    /// Aborts due to word-pool exhaustion.
    pub aborts_oom: u64,
    /// Transactional loads.
    pub tx_reads: u64,
    /// Transactional stores.
    pub tx_writes: u64,
}

impl TxStatsSnapshot {
    /// Total aborts of any cause.
    pub fn aborts(&self) -> u64 {
        self.aborts_conflict + self.aborts_capacity + self.aborts_explicit + self.aborts_oom
    }

    /// Commit ratio among finished transactions, in `[0, 1]`; `1.0` when no
    /// transaction finished yet.
    pub fn commit_ratio(&self) -> f64 {
        let total = self.commits + self.aborts();
        if total == 0 {
            1.0
        } else {
            self.commits as f64 / total as f64
        }
    }
}

impl TxStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn record_commit(&self) {
        self.stripes.add(|s| &s.commits, 1);
    }

    pub(crate) fn record_abort(&self, cause: AbortCause) {
        self.stripes.add(
            |s| match cause {
                AbortCause::Conflict => &s.aborts_conflict,
                AbortCause::Capacity => &s.aborts_capacity,
                AbortCause::Explicit(_) => &s.aborts_explicit,
                AbortCause::OutOfMemory => &s.aborts_oom,
            },
            1,
        );
    }

    /// Publishes one transaction's transactional load and store counts.
    /// [`Txn`](crate::Txn) counts them in plain fields and calls this once,
    /// from its `Drop`, instead of bumping a counter per access.
    pub(crate) fn record_tx_accesses(&self, reads: u64, writes: u64) {
        if reads != 0 {
            self.stripes.add(|s| &s.tx_reads, reads);
        }
        if writes != 0 {
            self.stripes.add(|s| &s.tx_writes, writes);
        }
    }

    /// Takes a snapshot of all counters, summed over the stripes.
    ///
    /// Memory-ordering note: all counters are independent monotonic
    /// relaxed counters (see [`Striped::add`]) — no code synchronizes
    /// through them, so relaxed loads suffice. End-of-run snapshots are
    /// exact (the caller joins worker threads first, which orders all
    /// their increments before the loads); concurrent snapshots may tear
    /// across counters but every derived metric here
    /// ([`TxStatsSnapshot::aborts`], [`TxStatsSnapshot::commit_ratio`])
    /// only *adds* counters, so a torn snapshot can under-count but never
    /// underflow.
    pub fn snapshot(&self) -> TxStatsSnapshot {
        let mut t = TxStatsSnapshot::default();
        for s in self.stripes.iter() {
            t.commits += s.commits.load(Ordering::Relaxed);
            t.aborts_conflict += s.aborts_conflict.load(Ordering::Relaxed);
            t.aborts_capacity += s.aborts_capacity.load(Ordering::Relaxed);
            t.aborts_explicit += s.aborts_explicit.load(Ordering::Relaxed);
            t.aborts_oom += s.aborts_oom.load(Ordering::Relaxed);
            t.tx_reads += s.tx_reads.load(Ordering::Relaxed);
            t.tx_writes += s.tx_writes.load(Ordering::Relaxed);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abort_causes_counted_separately() {
        let s = TxStats::new();
        s.record_abort(AbortCause::Conflict);
        s.record_abort(AbortCause::Conflict);
        s.record_abort(AbortCause::Capacity);
        s.record_abort(AbortCause::Explicit(1));
        s.record_abort(AbortCause::OutOfMemory);
        let snap = s.snapshot();
        assert_eq!(snap.aborts_conflict, 2);
        assert_eq!(snap.aborts_capacity, 1);
        assert_eq!(snap.aborts_explicit, 1);
        assert_eq!(snap.aborts_oom, 1);
        assert_eq!(snap.aborts(), 5);
    }

    #[test]
    fn commit_ratio() {
        let s = TxStats::new();
        assert_eq!(s.snapshot().commit_ratio(), 1.0);
        s.record_commit();
        s.record_abort(AbortCause::Conflict);
        assert!((s.snapshot().commit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn access_counters() {
        let s = TxStats::new();
        s.record_tx_accesses(1, 1);
        s.record_tx_accesses(2, 0);
        let snap = s.snapshot();
        assert_eq!((snap.tx_reads, snap.tx_writes), (3, 1));
    }
}
