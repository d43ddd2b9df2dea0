//! `ExecStats` totals stay exact on its striped counters: when more
//! threads than `COUNTER_STRIPES` bump at once, and when many more
//! threads than stripes run one after another, so stripes pass between
//! owners. Each thread's work has known counts, so the totals are known
//! exactly.

use std::sync::Barrier;

use hcf_core::stats::{ExecStats, ExecStatsSnapshot, Phase, DEGREE_BUCKETS};
use hcf_tmem::AbortCause;
use hcf_util::pad::COUNTER_STRIPES;

const ARRAYS: usize = 2;
/// Rounds per thread; each round bumps every kind of counter.
const ROUNDS: u64 = 30;
/// Session degrees used each round, one per histogram bucket.
const DEGREES: [usize; 7] = [1, 2, 3, 8, 9, 32, 100];

/// One thread's known workload.
fn work(s: &ExecStats) {
    for _ in 0..ROUNDS {
        for aid in 0..ARRAYS {
            for phase in Phase::ALL {
                s.completed(aid, phase);
            }
            for d in DEGREES {
                s.session(aid, d);
            }
            s.attempt(aid);
            s.attempt(aid);
            s.commit(aid);
            s.abort(AbortCause::Conflict);
        }
        s.lock_acquired();
    }
}

/// What `threads` runs of `work` must add up to.
fn assert_exact(snap: &ExecStatsSnapshot, threads: u64) {
    let per = threads * ROUNDS;
    assert_eq!(snap.arrays.len(), ARRAYS);
    for a in &snap.arrays {
        assert_eq!(a.completed, [per; 4]);
        assert_eq!(a.sessions, per * DEGREES.len() as u64);
        let helped: usize = DEGREES.iter().sum();
        assert_eq!(a.helped_ops, per * helped as u64);
        assert_eq!(a.degree_hist, [per; DEGREE_BUCKETS.len()]);
        assert_eq!((a.attempts, a.commits), (2 * per, per));
    }
    assert_eq!(snap.total_ops(), 4 * ARRAYS as u64 * per);
    assert_eq!(snap.lock_acqs, per);
    let arrays = ARRAYS as u64;
    assert_eq!(
        (snap.htm_attempts, snap.htm_commits, snap.htm_conflicts),
        (2 * arrays * per, arrays * per, arrays * per)
    );
}

#[test]
fn totals_are_exact_with_more_threads_than_stripes() {
    const THREADS: usize = COUNTER_STRIPES + 16;
    let stats = ExecStats::new(ARRAYS);
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                // A thread takes its stripe at its first bump and keeps it
                // until it exits. Bumping before the barrier makes all
                // threads hold theirs at once, so at least 16 share the
                // overflow stripe, and all of them bump again together.
                work(&stats);
                barrier.wait();
                work(&stats);
            });
        }
    });
    assert_exact(&stats.snapshot(), 2 * THREADS as u64);
}

#[test]
fn totals_are_exact_when_threads_churn_through_stripes() {
    const CHURN: usize = 200;
    let stats = ExecStats::new(ARRAYS);
    // One at a time, so every thread can lease a stripe, and each stripe
    // passes through several owners (`join` returns after the lease is
    // released).
    for _ in 0..CHURN {
        std::thread::scope(|s| s.spawn(|| work(&stats)).join().unwrap());
    }
    assert_exact(&stats.snapshot(), CHURN as u64);
}
