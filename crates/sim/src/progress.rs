//! Reusable per-worker progress accounting and stall detection.
//!
//! The native driver ([`crate::native`]) and the KV service (`hcf-kv`,
//! one counter per shard) both need the same watchdog: a set of per-worker
//! monotonic completion counters probed by a monitor thread, which
//! declares a stall when the *sum* stops advancing for a deadline.
//! Before this module each user would have re-implemented the
//! stall-threshold logic; now both share one implementation and one set
//! of semantics:
//!
//! * Progress is any increment anywhere — a single worker advancing
//!   resets the clock for everyone, because the counters exist to
//!   detect global livelock/lost-wakeup, not per-worker fairness.
//! * Counters are `Relaxed`: they are independent monotonic counts and
//!   nothing synchronizes through them. Final reads are exact when the
//!   reader joins the workers first (the join is the happens-before
//!   edge); mid-run reads may lag, which only delays — never falsifies
//!   — a stall verdict.
//! * The done count uses `Release`/`Acquire` so that a monitor seeing
//!   `done() == workers` also sees those workers' final state.
//!
//! Timestamps are caller-supplied nanoseconds (from whatever monotonic
//! clock the caller already has, e.g. `RealRuntime::now`), keeping this
//! module free of wall-clock reads and usable from library code under
//! the `no-wall-clock` lint.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use hcf_util::pad::CachePadded;

/// Per-worker monotonic completion counters plus a worker-exit count.
#[derive(Debug)]
pub struct ProgressMeter {
    ops: Vec<CachePadded<AtomicU64>>,
    done: AtomicUsize,
}

impl ProgressMeter {
    /// Creates a meter for `workers` workers.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn new(workers: usize) -> Self {
        assert!(workers >= 1, "need at least one worker");
        ProgressMeter {
            ops: (0..workers)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            done: AtomicUsize::new(0),
        }
    }

    /// Number of workers this meter tracks.
    pub fn workers(&self) -> usize {
        self.ops.len()
    }

    /// Records `n` completed operations for worker `wid`.
    pub fn record(&self, wid: usize, n: u64) {
        self.ops[wid].fetch_add(n, Ordering::Relaxed);
    }

    /// Marks one worker as exited. Call exactly once per worker (e.g.
    /// from a drop guard, so panics still count).
    pub fn mark_done(&self) {
        self.done.fetch_add(1, Ordering::Release);
    }

    /// Workers that have exited so far.
    pub fn done(&self) -> usize {
        self.done.load(Ordering::Acquire)
    }

    /// Whether every worker has exited.
    pub fn all_done(&self) -> bool {
        self.done() == self.workers()
    }

    /// Sum of completions across all workers.
    pub fn total(&self) -> u64 {
        self.ops.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Per-worker completion counts (for stall diagnostics: the
    /// all-zero pattern distinguishes "stuck from the start" from a
    /// mid-run livelock).
    pub fn per_worker(&self) -> Vec<u64> {
        self.ops.iter().map(|c| c.load(Ordering::Relaxed)).collect()
    }
}

/// Monitor-side stall clock over a [`ProgressMeter`]'s total.
///
/// The tracker is plain mutable state owned by the single monitor
/// thread; only the meter it observes is shared.
#[derive(Debug)]
pub struct StallTracker {
    deadline_ns: u64,
    last_total: u64,
    last_change_ns: u64,
}

/// Verdict of one [`StallTracker::observe`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Liveness {
    /// The total advanced since the previous observation (or never
    /// stopped long enough to matter).
    Progressing,
    /// No progress for at least the deadline; payload is how long, in
    /// nanoseconds.
    Stalled(u64),
}

impl StallTracker {
    /// Creates a tracker that declares a stall after `deadline_ns`
    /// nanoseconds without progress, with the clock starting at
    /// `now_ns`.
    pub fn new(deadline_ns: u64, now_ns: u64) -> Self {
        StallTracker {
            deadline_ns,
            last_total: 0,
            last_change_ns: now_ns,
        }
    }

    /// Feeds one observation of the meter's total at time `now_ns`.
    pub fn observe(&mut self, total: u64, now_ns: u64) -> Liveness {
        if total != self.last_total {
            self.last_total = total;
            self.last_change_ns = now_ns;
            return Liveness::Progressing;
        }
        let idle = now_ns.saturating_sub(self.last_change_ns);
        if idle >= self.deadline_ns {
            Liveness::Stalled(idle)
        } else {
            Liveness::Progressing
        }
    }

    /// Resets the clock without requiring progress — for callers whose
    /// idle state is legitimate (e.g. a server with an empty backlog is
    /// not stalled, it is waiting for requests).
    pub fn reset(&mut self, now_ns: u64) {
        self.last_change_ns = now_ns;
    }

    /// Nanoseconds since the last observed progress (or reset), as of
    /// the most recent `observe`/`reset` timestamp.
    pub fn deadline_ns(&self) -> u64 {
        self.deadline_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_counts_and_done() {
        let m = ProgressMeter::new(3);
        assert_eq!(m.workers(), 3);
        m.record(0, 2);
        m.record(2, 5);
        assert_eq!(m.total(), 7);
        assert_eq!(m.per_worker(), vec![2, 0, 5]);
        assert!(!m.all_done());
        m.mark_done();
        m.mark_done();
        m.mark_done();
        assert!(m.all_done());
    }

    #[test]
    fn tracker_requires_full_deadline_of_silence() {
        let mut t = StallTracker::new(100, 0);
        assert_eq!(t.observe(1, 50), Liveness::Progressing);
        assert_eq!(t.observe(1, 149), Liveness::Progressing);
        assert_eq!(t.observe(1, 150), Liveness::Stalled(100));
        // Progress at any point restarts the clock.
        assert_eq!(t.observe(2, 151), Liveness::Progressing);
        assert_eq!(t.observe(2, 250), Liveness::Progressing);
        assert_eq!(t.observe(2, 251), Liveness::Stalled(100));
    }

    #[test]
    fn tracker_reset_covers_legitimate_idle() {
        let mut t = StallTracker::new(100, 0);
        assert_eq!(t.observe(0, 99), Liveness::Progressing);
        t.reset(99); // e.g. the request backlog is empty
        assert_eq!(t.observe(0, 150), Liveness::Progressing);
        assert_eq!(t.observe(0, 199), Liveness::Stalled(100));
    }

    #[test]
    fn meter_is_shared_safely_across_threads() {
        let m = std::sync::Arc::new(ProgressMeter::new(4));
        std::thread::scope(|s| {
            for wid in 0..4 {
                let m = m.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        m.record(wid, 1);
                    }
                    m.mark_done();
                });
            }
        });
        assert_eq!(m.total(), 4000);
        assert!(m.all_done());
    }
}
