//! `TxStats` and `RealRuntime` counts stay exact when threads share the
//! overflow stripe, when exited threads hand their stripes on, and when
//! transactions publish their access counts once, at drop.
//!
//! More threads than `COUNTER_STRIPES` run at once (each takes its stripe
//! before a barrier holds them all alive), so some share the overflow
//! stripe; and many more threads
//! than stripes run one after another, so stripes pass between owners.
//! Each thread's work has known counts, so the totals are known exactly.

use std::sync::Barrier;

use hcf_tmem::stats::TxStatsSnapshot;
use hcf_tmem::{AbortCause, Addr, RealRuntime, TMem, TMemConfig};
use hcf_util::pad::COUNTER_STRIPES;

const THREADS: usize = COUNTER_STRIPES + 16;
/// Committed transactions per thread: 2 reads, 2 writes each.
const COMMITS: u64 = 40;
/// Explicit aborts per thread: 1 read each, then `rollback`.
const EXPLICIT: u64 = 5;
/// Transactions per thread dropped without commit or rollback: 1 read
/// and 1 write each, counted as conflict aborts.
const DROPPED: u64 = 3;
/// Direct reads and writes per thread, which no counter counts.
const DIRECT: u64 = 7;

/// One thread's known workload on its own three words (disjoint from
/// every other thread's, so no commit can fail).
fn work(mem: &TMem, rt: &RealRuntime, a: Addr) {
    for i in 0..COMMITS {
        let mut tx = mem.begin(rt);
        let x = tx.read(a).unwrap();
        let y = tx.read(a + 1).unwrap();
        tx.write(a, x + 1).unwrap();
        tx.write(a + 2, y + i).unwrap();
        tx.commit().expect("disjoint transactions commit");
    }
    for _ in 0..EXPLICIT {
        let mut tx = mem.begin(rt);
        tx.read(a).unwrap();
        assert!(tx.explicit_abort(9).is_err());
        assert_eq!(tx.rollback(AbortCause::Conflict), AbortCause::Explicit(9));
    }
    for _ in 0..DROPPED {
        let mut tx = mem.begin(rt);
        tx.read(a + 1).unwrap();
        tx.write(a + 1, 5).unwrap();
        drop(tx);
    }
    for _ in 0..DIRECT {
        let v = mem.read_direct(rt, a);
        mem.write_direct(rt, a + 1, v);
    }
}

fn delta(after: TxStatsSnapshot, before: TxStatsSnapshot) -> TxStatsSnapshot {
    TxStatsSnapshot {
        commits: after.commits - before.commits,
        aborts_conflict: after.aborts_conflict - before.aborts_conflict,
        aborts_capacity: after.aborts_capacity - before.aborts_capacity,
        aborts_explicit: after.aborts_explicit - before.aborts_explicit,
        aborts_oom: after.aborts_oom - before.aborts_oom,
        tx_reads: after.tx_reads - before.tx_reads,
        tx_writes: after.tx_writes - before.tx_writes,
    }
}

#[test]
fn totals_are_exact_with_more_threads_than_stripes() {
    let mem = TMem::new(TMemConfig::small_word_granular());
    let rt = RealRuntime::new();
    let blocks: Vec<Addr> = (0..THREADS).map(|_| mem.alloc_direct(3).unwrap()).collect();
    let before = mem.stats();
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|s| {
        for &a in &blocks {
            let (mem, rt, barrier) = (&mem, &rt, &barrier);
            s.spawn(move || {
                // A thread takes its stripe at its first bump and keeps it
                // until it exits, so bumping before the barrier makes at
                // least 16 threads share the overflow stripe.
                work(mem, rt, a);
                barrier.wait();
                work(mem, rt, a);
            });
        }
    });
    let t = 2 * THREADS as u64;
    assert_eq!(
        delta(mem.stats(), before),
        TxStatsSnapshot {
            commits: t * COMMITS,
            aborts_conflict: t * DROPPED,
            aborts_capacity: 0,
            aborts_explicit: t * EXPLICIT,
            aborts_oom: 0,
            tx_reads: t * (2 * COMMITS + EXPLICIT + DROPPED),
            tx_writes: t * (2 * COMMITS + DROPPED),
        }
    );
}

#[test]
fn totals_are_exact_when_threads_churn_through_stripes() {
    const CHURN: usize = 200;
    let mem = TMem::new(TMemConfig::small_word_granular());
    let rt = RealRuntime::new();
    let a = mem.alloc_direct(3).unwrap();
    let before = mem.stats();
    // One at a time, so every thread can lease a stripe, and each stripe
    // passes through several owners (`join` returns after the lease is
    // released).
    for _ in 0..CHURN {
        std::thread::scope(|s| s.spawn(|| work(&mem, &rt, a)).join().unwrap());
    }
    let t = CHURN as u64;
    let tx_reads = 2 * COMMITS + EXPLICIT + DROPPED;
    let tx_writes = 2 * COMMITS + DROPPED;
    assert_eq!(
        delta(mem.stats(), before),
        TxStatsSnapshot {
            commits: t * COMMITS,
            aborts_conflict: t * DROPPED,
            aborts_capacity: 0,
            aborts_explicit: t * EXPLICIT,
            aborts_oom: 0,
            tx_reads: t * tx_reads,
            tx_writes: t * tx_writes,
        }
    );
    let begins = COMMITS + EXPLICIT + DROPPED;
    assert_eq!(
        rt.tx_counts(),
        (t * begins, t * COMMITS, t * (EXPLICIT + DROPPED))
    );
}

#[test]
fn dropped_transaction_publishes_its_counts() {
    let mem = TMem::new(TMemConfig::small_word_granular());
    let rt = RealRuntime::new();
    let a = mem.alloc_direct(4).unwrap();
    let before = mem.stats();
    let mut tx = mem.begin(&rt);
    for i in 0..3 {
        tx.read(a + i).unwrap();
    }
    tx.write(a, 1).unwrap();
    tx.write(a + 3, 2).unwrap();
    // Read-your-own-write hits the write buffer and is not a load.
    assert_eq!(tx.read(a).unwrap(), 1);
    assert_eq!(
        delta(mem.stats(), before).tx_reads,
        0,
        "counts are published at drop, not per access"
    );
    drop(tx);
    let d = delta(mem.stats(), before);
    assert_eq!((d.tx_reads, d.tx_writes), (3, 2));
    assert_eq!((d.commits, d.aborts_conflict), (0, 1));
}
