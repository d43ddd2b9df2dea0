//! Framework-level execution statistics.
//!
//! These power the paper's diagnostic figures: per-phase completion
//! percentages (Fig. 3), combining degree, and lock-acquisition rates.
//!
//! They are the only place a speculative attempt and its outcome are
//! counted: the TM and the runtimes count no transactions. Each event is
//! bumped once, and a total that is a sum of other counters is derived
//! in [`ExecStats::snapshot`] rather than counted.
//!
//! Every executor bumps several of these counters per operation, from
//! every thread, some of them inside the data-structure lock's critical
//! section. So they live on [`Striped`] counters: each thread bumps a
//! cache-padded stripe it leases exclusively, with a plain load and
//! store, instead of a `fetch_add` on a line that every thread writes.
//! Snapshots sum the stripes; they are exact once the counting threads
//! are joined.

use std::sync::atomic::{AtomicU64, Ordering};

use hcf_util::pad::Striped;

use crate::arm::ArmStats;

/// The phase in which an operation ultimately completed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Phase {
    /// Applied by its owner in the TryPrivate phase.
    Private = 0,
    /// Applied by its owner in the TryVisible phase.
    Visible = 1,
    /// Applied by a combiner on HTM in the TryCombining phase.
    Combining = 2,
    /// Applied by a combiner holding the lock (CombineUnderLock),
    /// including the FC arm's unannounced degree-1 ops (counted as a
    /// session of one).
    Lock = 3,
}

impl Phase {
    /// All phases, in order.
    pub const ALL: [Phase; 4] = [
        Phase::Private,
        Phase::Visible,
        Phase::Combining,
        Phase::Lock,
    ];

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Private => "TryPrivate",
            Phase::Visible => "TryVisible",
            Phase::Combining => "TryCombining",
            Phase::Lock => "CombineUnderLock",
        }
    }
}

/// Histogram bucket upper bounds (inclusive) for combining degree.
pub const DEGREE_BUCKETS: [usize; 7] = [1, 2, 4, 8, 16, 32, usize::MAX];

/// One stripe of one array's counters: fourteen counters, 112 bytes,
/// inside one 128-byte padding unit. Sessions are not counted: each one
/// bumps exactly one `degree_hist` bucket.
#[derive(Debug, Default)]
struct ArrayStats {
    completed: [AtomicU64; 4],
    helped_ops: AtomicU64,
    degree_hist: [AtomicU64; 7],
    attempts: AtomicU64,
    commits: AtomicU64,
}

/// One stripe of the executor-wide counters: four. The executor-wide
/// attempts and commits are the sums of the per-array ones.
#[derive(Debug, Default)]
struct GlobalStats {
    lock_acqs: AtomicU64,
    htm_conflicts: AtomicU64,
    htm_capacity: AtomicU64,
    htm_explicit: AtomicU64,
}

/// Monotonic counters kept by every executor.
#[derive(Debug)]
pub struct ExecStats {
    arrays: Vec<Striped<ArrayStats>>,
    global: Striped<GlobalStats>,
}

/// Sums one counter over every stripe.
fn sum<T>(stripes: &Striped<T>, counter: impl Fn(&T) -> &AtomicU64) -> u64 {
    stripes
        .iter()
        .map(|s| counter(s).load(Ordering::Relaxed))
        .sum()
}

impl ExecStats {
    /// Creates counters for `num_arrays` publication arrays (baselines
    /// that have no arrays pass 1 and attribute everything to array 0).
    pub fn new(num_arrays: usize) -> Self {
        ExecStats {
            arrays: (0..num_arrays.max(1)).map(|_| Striped::new()).collect(),
            global: Striped::new(),
        }
    }

    /// Records that one operation of array `aid` completed in `phase`.
    pub fn completed(&self, aid: usize, phase: Phase) {
        self.arrays[aid].add(|a| &a.completed[phase as usize], 1);
    }

    /// Records a combiner session over `degree` selected operations.
    pub fn session(&self, aid: usize, degree: usize) {
        let a = &self.arrays[aid];
        a.add(|a| &a.helped_ops, degree as u64);
        let b = DEGREE_BUCKETS.iter().position(|&ub| degree <= ub).unwrap();
        a.add(|a| &a.degree_hist[b], 1);
    }

    /// Records a data-structure lock acquisition.
    pub fn lock_acquired(&self) {
        self.global.add(|g| &g.lock_acqs, 1);
    }

    /// Records one speculative attempt on array `aid`.
    pub fn attempt(&self, aid: usize) {
        self.arrays[aid].add(|a| &a.attempts, 1);
    }

    /// Records a committed speculative attempt on array `aid`.
    pub fn commit(&self, aid: usize) {
        self.arrays[aid].add(|a| &a.commits, 1);
    }

    /// Records an aborted speculative attempt by cause.
    pub fn abort(&self, cause: hcf_tmem::AbortCause) {
        use hcf_tmem::AbortCause::*;
        self.global.add(
            |g| match cause {
                Conflict => &g.htm_conflicts,
                Capacity | OutOfMemory => &g.htm_capacity,
                Explicit(_) => &g.htm_explicit,
            },
            1,
        );
    }

    /// Operations completed in TryPrivate, and in total, across arrays.
    pub(crate) fn private_and_total(&self) -> (u64, u64) {
        self.arrays.iter().fold((0, 0), |(p, t), a| {
            let private = sum(a, |s| &s.completed[Phase::Private as usize]);
            let all: u64 = (0..4).map(|i| sum(a, |s| &s.completed[i])).sum();
            (p + private, t + all)
        })
    }

    /// Snapshot of all counters, summed over the stripes.
    ///
    /// Memory-ordering note: every counter is an independent monotonic
    /// relaxed counter (see [`Striped::add`]); nothing synchronizes
    /// *through* them, so `Relaxed` loads are sufficient here. End-of-run
    /// snapshots are exact because the driver joins the worker threads
    /// first (the join provides the happens-before edge). Mid-run
    /// snapshots (timeline sampling) may tear *across* counters — e.g.
    /// observe a `commit` whose `attempt` increment is not yet visible —
    /// so every derived metric that subtracts one counter from another
    /// must saturate; see [`ArrayStatsSnapshot::abort_rate`]. The native
    /// driver (`hcf-sim`'s `native` module) reports only end-of-run
    /// snapshots and probes progress through its own per-thread counters,
    /// so its watchdog never depends on cross-counter consistency.
    pub fn snapshot(&self) -> ExecStatsSnapshot {
        let g = &self.global;
        let arrays: Vec<ArrayStatsSnapshot> = self
            .arrays
            .iter()
            .map(|a| {
                let degree_hist: [u64; 7] = std::array::from_fn(|i| sum(a, |s| &s.degree_hist[i]));
                ArrayStatsSnapshot {
                    completed: std::array::from_fn(|i| sum(a, |s| &s.completed[i])),
                    sessions: degree_hist.iter().sum(),
                    helped_ops: sum(a, |s| &s.helped_ops),
                    degree_hist,
                    attempts: sum(a, |s| &s.attempts),
                    commits: sum(a, |s| &s.commits),
                }
            })
            .collect();
        ExecStatsSnapshot {
            lock_acqs: sum(g, |s| &s.lock_acqs),
            htm_attempts: arrays.iter().map(|a| a.attempts).sum(),
            htm_commits: arrays.iter().map(|a| a.commits).sum(),
            arrays,
            htm_conflicts: sum(g, |s| &s.htm_conflicts),
            htm_capacity: sum(g, |s| &s.htm_capacity),
            htm_explicit: sum(g, |s| &s.htm_explicit),
            arm: ArmStats::default(),
        }
    }
}

/// Per-array snapshot.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ArrayStatsSnapshot {
    /// Operations completed per [`Phase`] (indexed by `Phase as usize`).
    pub completed: [u64; 4],
    /// Combiner sessions.
    pub sessions: u64,
    /// Total operations selected across all sessions.
    pub helped_ops: u64,
    /// Session-degree histogram over [`DEGREE_BUCKETS`].
    pub degree_hist: [u64; 7],
    /// Speculative attempts on this array.
    pub attempts: u64,
    /// Committed speculative attempts on this array.
    pub commits: u64,
}

impl ArrayStatsSnapshot {
    /// Total completed operations in this array.
    pub fn total(&self) -> u64 {
        self.completed.iter().sum()
    }

    /// Fraction of this array's operations that completed in `phase`.
    pub fn phase_fraction(&self, phase: Phase) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.completed[phase as usize] as f64 / t as f64
        }
    }

    /// Speculative abort rate on this array, in `[0, 1]`.
    ///
    /// Saturates: a mid-run snapshot taken with relaxed loads can observe
    /// a commit before the attempt that produced it (see
    /// [`ExecStats::snapshot`]), making `commits > attempts` transiently.
    pub fn abort_rate(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            self.attempts.saturating_sub(self.commits) as f64 / self.attempts as f64
        }
    }

    /// Average combining degree (operations per combiner session).
    pub fn avg_degree(&self) -> f64 {
        if self.sessions == 0 {
            0.0
        } else {
            self.helped_ops as f64 / self.sessions as f64
        }
    }

    /// Serializes this snapshot as a JSON object (hand-formatted; the
    /// tree is dependency-free). Keys are stable: consumers include the
    /// `kv` STATS command and the bench JSON emitters.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"completed\":{:?},\"sessions\":{},\"helped_ops\":{},",
                "\"degree_hist\":{:?},\"attempts\":{},\"commits\":{},",
                "\"abort_rate\":{:.6},\"avg_degree\":{:.4}}}"
            ),
            self.completed,
            self.sessions,
            self.helped_ops,
            self.degree_hist,
            self.attempts,
            self.commits,
            self.abort_rate(),
            self.avg_degree(),
        )
    }
}

/// Point-in-time copy of [`ExecStats`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExecStatsSnapshot {
    /// One entry per publication array.
    pub arrays: Vec<ArrayStatsSnapshot>,
    /// Data-structure lock acquisitions.
    pub lock_acqs: u64,
    /// Speculative attempts started.
    pub htm_attempts: u64,
    /// Speculative attempts committed.
    pub htm_commits: u64,
    /// Aborts: data conflicts.
    pub htm_conflicts: u64,
    /// Aborts: capacity (incl. out-of-memory).
    pub htm_capacity: u64,
    /// Aborts: explicit (lock subscription, status changes).
    pub htm_explicit: u64,
    /// The HCF engine's arm selector (default: not selecting).
    pub arm: ArmStats,
}

impl ExecStatsSnapshot {
    /// Total completed operations across all arrays.
    pub fn total_ops(&self) -> u64 {
        self.arrays.iter().map(|a| a.total()).sum()
    }

    /// Aggregated per-phase completions across arrays.
    pub fn completed_by_phase(&self) -> [u64; 4] {
        let mut out = [0u64; 4];
        for a in &self.arrays {
            for (o, c) in out.iter_mut().zip(a.completed.iter()) {
                *o += c;
            }
        }
        out
    }

    /// Average combining degree across all arrays.
    pub fn avg_degree(&self) -> f64 {
        let sessions: u64 = self.arrays.iter().map(|a| a.sessions).sum();
        let helped: u64 = self.arrays.iter().map(|a| a.helped_ops).sum();
        if sessions == 0 {
            0.0
        } else {
            helped as f64 / sessions as f64
        }
    }

    /// Speculative abort rate in `[0, 1]`.
    ///
    /// Saturates for the same reason as [`ArrayStatsSnapshot::abort_rate`].
    pub fn abort_rate(&self) -> f64 {
        if self.htm_attempts == 0 {
            0.0
        } else {
            self.htm_attempts.saturating_sub(self.htm_commits) as f64 / self.htm_attempts as f64
        }
    }

    /// Serializes the snapshot as a JSON object, including the derived
    /// metrics every consumer recomputed by hand before this existed
    /// (abort rate, average combining degree, total ops). Array-level
    /// detail nests under `"arrays"` via [`ArrayStatsSnapshot::to_json`].
    pub fn to_json(&self) -> String {
        let arrays: Vec<String> = self.arrays.iter().map(|a| a.to_json()).collect();
        format!(
            concat!(
                "{{\"total_ops\":{},\"lock_acqs\":{},\"htm_attempts\":{},",
                "\"htm_commits\":{},\"htm_conflicts\":{},\"htm_capacity\":{},",
                "\"htm_explicit\":{},\"abort_rate\":{:.6},\"avg_degree\":{:.4},",
                "\"arm\":{},\"arrays\":[{}]}}"
            ),
            self.total_ops(),
            self.lock_acqs,
            self.htm_attempts,
            self.htm_commits,
            self.htm_conflicts,
            self.htm_capacity,
            self.htm_explicit,
            self.abort_rate(),
            self.avg_degree(),
            self.arm.to_json(),
            arrays.join(","),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_accounting_sums_to_total() {
        let s = ExecStats::new(2);
        s.completed(0, Phase::Private);
        s.completed(0, Phase::Lock);
        s.completed(1, Phase::Combining);
        let snap = s.snapshot();
        assert_eq!(snap.total_ops(), 3);
        assert_eq!(snap.completed_by_phase(), [1, 0, 1, 1]);
        assert_eq!(snap.arrays[0].total(), 2);
        assert!((snap.arrays[0].phase_fraction(Phase::Private) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn combining_degree() {
        let s = ExecStats::new(1);
        s.session(0, 1);
        s.session(0, 7);
        let snap = s.snapshot();
        assert_eq!(snap.arrays[0].sessions, 2);
        assert!((snap.arrays[0].avg_degree() - 4.0).abs() < 1e-12);
        // degree 1 -> bucket 0; degree 7 -> bucket <=8 (index 3)
        assert_eq!(snap.arrays[0].degree_hist[0], 1);
        assert_eq!(snap.arrays[0].degree_hist[3], 1);
    }

    #[test]
    fn abort_rate() {
        let s = ExecStats::new(1);
        for _ in 0..4 {
            s.attempt(0);
        }
        s.commit(0);
        s.abort(hcf_tmem::AbortCause::Conflict);
        s.abort(hcf_tmem::AbortCause::Capacity);
        s.abort(hcf_tmem::AbortCause::Explicit(1));
        let snap = s.snapshot();
        assert!((snap.abort_rate() - 0.75).abs() < 1e-12);
        assert_eq!(snap.htm_conflicts, 1);
        assert_eq!(snap.htm_capacity, 1);
        assert_eq!(snap.htm_explicit, 1);
    }

    #[test]
    fn phase_names() {
        assert_eq!(Phase::ALL.len(), 4);
        for p in Phase::ALL {
            assert!(!p.name().is_empty());
        }
    }

    #[test]
    fn json_snapshot_is_well_formed_and_complete() {
        let s = ExecStats::new(2);
        s.completed(0, Phase::Private);
        s.completed(1, Phase::Lock);
        s.session(1, 3);
        s.attempt(0);
        s.attempt(0);
        s.commit(0);
        s.lock_acquired();
        let j = s.snapshot().to_json();
        // Hand-formatted, so sanity-check both shape and content.
        assert!(j.starts_with('{') && j.ends_with('}'), "{j}");
        assert_eq!(j.matches('{').count(), j.matches('}').count(), "{j}");
        for key in [
            "\"total_ops\":2",
            "\"lock_acqs\":1",
            "\"htm_attempts\":2",
            "\"htm_commits\":1",
            "\"abort_rate\":0.5",
            "\"arrays\":[",
            "\"sessions\":1",
            "\"avg_degree\":3.0",
            "\"degree_hist\":",
            "\"arm\":{\"selecting\":false,\"in_force\":\"configured\"",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
    }

    #[test]
    fn zero_arrays_clamped_to_one() {
        let s = ExecStats::new(0);
        s.completed(0, Phase::Private);
        assert_eq!(s.snapshot().total_ops(), 1);
    }
}
