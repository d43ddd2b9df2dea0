//! Real-thread torture of the lock-elision protocol: transactions
//! subscribing to a lock race against lock holders doing direct
//! multi-word updates. The quiesce-on-acquire + subscription protocol
//! must never let either side observe a torn multi-word invariant.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hcf_tmem::{AbortCause, ElidableLock, MemCtx, RealRuntime, TMem, TMemConfig, TxCtx};

const PAIRS: u64 = 8;
const INVARIANT_SUM: u64 = 1000;

/// Shared state: PAIRS pairs of words, each pair summing to
/// `INVARIANT_SUM`. Writers move value between the halves of one pair;
/// readers check the sum of one pair.
struct World {
    mem: Arc<TMem>,
    lock: ElidableLock,
    base: hcf_tmem::Addr,
}

fn setup() -> World {
    let mem = Arc::new(TMem::new(TMemConfig::small_word_granular()));
    let lock = ElidableLock::new(mem.clone()).unwrap();
    let base = mem.alloc_direct((PAIRS * 2) as usize).unwrap();
    let rt = RealRuntime::new();
    for p in 0..PAIRS {
        mem.write_direct(&rt, base + p * 2, INVARIANT_SUM);
    }
    World { mem, lock, base }
}

#[test]
fn speculative_readers_never_see_torn_pairs() {
    let w = Arc::new(setup());
    let rt = Arc::new(RealRuntime::new());
    let violations = Arc::new(AtomicU64::new(0));
    let threads = 6;
    let iters = 2_000u64;

    std::thread::scope(|s| {
        for t in 0..threads {
            let w = w.clone();
            let rt = rt.clone();
            let violations = violations.clone();
            s.spawn(move || {
                for i in 0..iters {
                    let pair = w.base + ((t + i) % PAIRS) * 2;
                    if (t + i) % 3 == 0 {
                        // Writer: move a unit between the halves, under
                        // the lock, via direct access.
                        w.lock.lock(rt.as_ref());
                        let a = w.mem.read_direct(rt.as_ref(), pair);
                        let b = w.mem.read_direct(rt.as_ref(), pair + 1);
                        assert_eq!(a + b, INVARIANT_SUM, "holder saw torn pair");
                        if a > 0 {
                            w.mem.write_direct(rt.as_ref(), pair, a - 1);
                            w.mem.write_direct(rt.as_ref(), pair + 1, b + 1);
                        }
                        w.lock.unlock(rt.as_ref());
                    } else {
                        // Speculative reader (or transactional writer):
                        // subscribe, read both halves, check the sum.
                        let mut tx = w.mem.begin(rt.as_ref());
                        let body = {
                            let mut ctx = TxCtx::new(&mut tx);
                            (|| {
                                ctx.subscribe(&w.lock)?;
                                let a = ctx.read(pair)?;
                                let b = ctx.read(pair + 1)?;
                                if i % 2 == 0 && a > 0 {
                                    ctx.write(pair, a - 1)?;
                                    ctx.write(pair + 1, b + 1)?;
                                }
                                Ok::<u64, AbortCause>(a + b)
                            })()
                        };
                        match body {
                            Ok(sum) => {
                                // The read snapshot is opaque: even if the
                                // commit later fails, the observed values
                                // must be consistent.
                                if sum != INVARIANT_SUM {
                                    violations.fetch_add(1, Ordering::Relaxed);
                                }
                                let _ = tx.commit();
                            }
                            Err(_) => {
                                let _ = tx.rollback(AbortCause::Conflict);
                            }
                        }
                    }
                }
            });
        }
    });

    assert_eq!(
        violations.load(Ordering::Relaxed),
        0,
        "opacity/quiesce violation: somebody observed a torn pair"
    );
    // Final state still satisfies every invariant.
    let rt2 = RealRuntime::new();
    for p in 0..PAIRS {
        let a = w.mem.read_direct(&rt2, w.base + p * 2);
        let b = w.mem.read_direct(&rt2, w.base + p * 2 + 1);
        assert_eq!(a + b, INVARIANT_SUM, "pair {p} corrupted");
    }
}

#[test]
fn lock_acquisition_dooms_overlapping_transactions() {
    let w = setup();
    let rt = RealRuntime::new();
    // Start a transaction that subscribed before the lock was taken.
    let mut tx = w.mem.begin(&rt);
    {
        let mut ctx = TxCtx::new(&mut tx);
        ctx.subscribe(&w.lock).unwrap();
        let a = ctx.read(w.base).unwrap();
        ctx.write(w.base, a + 1).unwrap();
    }
    w.lock.lock(&rt);
    // The transaction must not be able to commit now.
    assert!(tx.commit().is_err());
    w.lock.unlock(&rt);
}

#[test]
fn trylock_failure_leaves_subscribers_alone() {
    let w = Arc::new(setup());
    let rt = Arc::new(RealRuntime::new());
    w.lock.lock(rt.as_ref());
    // Another thread's try_lock fails...
    {
        let w2 = w.clone();
        let rt2 = rt.clone();
        std::thread::spawn(move || assert!(w2.lock.try_lock(rt2.as_ref()).is_none()))
            .join()
            .unwrap();
    }
    w.lock.unlock(rt.as_ref());
    // ...and a fresh subscriber transaction started afterwards commits
    // fine (the failed try_lock must not have bumped the lock word).
    let mut tx = w.mem.begin(rt.as_ref());
    {
        let mut ctx = TxCtx::new(&mut tx);
        ctx.subscribe(&w.lock).unwrap();
        let a = ctx.read(w.base).unwrap();
        ctx.write(w.base, a).unwrap();
    }
    tx.commit().unwrap();
}
