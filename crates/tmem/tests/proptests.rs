//! Property-based tests of the transactional-memory substrate, on the
//! `proptest_lite` harness (seeded cases, halving shrink).

use hcf_util::ptest::{any_bool, any_u64, one_of, tuple2, u64s, usizes, vec_of, Gen};
use hcf_util::{prop_assert, prop_assert_eq, proptest_lite};

use hcf_tmem::{AbortCause, Addr, RealRuntime, TMem, TMemConfig};

const WORDS: usize = 64;

#[derive(Clone, Debug)]
enum Step {
    Read(u64),
    Write(u64, u64),
    DirectWrite(u64, u64),
    BeginTx(Vec<(u64, u64)>, bool), // writes, commit?
}

fn step_strategy() -> Gen<Step> {
    let addr = || u64s(0..WORDS as u64);
    one_of(vec![
        addr().map(Step::Read),
        tuple2(addr(), any_u64()).map(|(a, v)| Step::Write(a, v)),
        tuple2(addr(), any_u64()).map(|(a, v)| Step::DirectWrite(a, v)),
        tuple2(vec_of(tuple2(addr(), any_u64()), 0..6), any_bool())
            .map(|(ws, commit)| Step::BeginTx(ws, commit)),
    ])
}

proptest_lite! {
    cases = 256;

    /// Single-threaded: the memory behaves exactly like a flat array —
    /// committed transactional writes and direct writes apply, rolled
    /// back ones do not, and reads always see the model value.
    fn sequential_equivalence(steps in vec_of(step_strategy(), 1..80)) {
        let mem = TMem::new(TMemConfig::small_word_granular());
        let rt = RealRuntime::new();
        let base = mem.alloc_direct(WORDS).unwrap();
        let mut model = vec![0u64; WORDS];
        let mut tx = None;
        let mut tx_model: Vec<u64> = Vec::new();

        for step in steps {
            match step {
                Step::Read(a) => {
                    match &mut tx {
                        Some(t) => {
                            let got = hcf_tmem::Txn::read(t, base + a).unwrap();
                            prop_assert_eq!(got, tx_model[a as usize]);
                        }
                        None => {
                            prop_assert_eq!(mem.read_direct(&rt, base + a), model[a as usize]);
                        }
                    }
                }
                Step::Write(a, v) => {
                    match &mut tx {
                        Some(t) => {
                            t.write(base + a, v).unwrap();
                            tx_model[a as usize] = v;
                        }
                        None => {
                            mem.write_direct(&rt, base + a, v);
                            model[a as usize] = v;
                        }
                    }
                }
                Step::DirectWrite(a, v) => {
                    if tx.is_none() {
                        mem.write_direct(&rt, base + a, v);
                        model[a as usize] = v;
                    }
                }
                Step::BeginTx(writes, commit) => {
                    // Finish any open transaction first (commit it).
                    if let Some(t) = tx.take() {
                        prop_assert!(t.commit().is_ok());
                        model = tx_model.clone();
                    }
                    let mut t = mem.begin(&rt);
                    let mut m = model.clone();
                    for (a, v) in writes {
                        t.write(base + a, v).unwrap();
                        m[a as usize] = v;
                    }
                    if commit {
                        tx = Some(t);
                        tx_model = m;
                    } else {
                        let _ = t.rollback(AbortCause::Explicit(1));
                        // model unchanged
                    }
                }
            }
        }
        if let Some(t) = tx.take() {
            prop_assert!(t.commit().is_ok());
            model = tx_model.clone();
        }
        for a in 0..WORDS as u64 {
            prop_assert_eq!(mem.read_direct(&rt, base + a), model[a as usize]);
        }
    }

    /// Allocator: blocks handed out concurrently-ish never overlap and
    /// recycling preserves disjointness.
    fn allocator_blocks_disjoint(ops in vec_of(tuple2(usizes(1..8), any_bool()), 1..100)) {
        let mem = TMem::new(TMemConfig::default());
        let mut live: Vec<(Addr, usize)> = Vec::new();
        for (size, free_one) in ops {
            if free_one && !live.is_empty() {
                let (a, w) = live.swap_remove(0);
                mem.free_direct(a, w);
            } else {
                let a = mem.alloc_direct(size).unwrap();
                // no overlap with any live block
                for &(b, w) in &live {
                    let disjoint = a.0 + size as u64 <= b.0 || b.0 + w as u64 <= a.0;
                    prop_assert!(disjoint, "{a:?}+{size} overlaps {b:?}+{w}");
                }
                live.push((a, size));
            }
        }
    }

    /// A transaction that observed a value and commits guarantees no
    /// direct write intervened (two-thread torture in miniature: we
    /// interleave deterministically here, the real-thread version lives
    /// in the unit tests).
    fn invalidation_is_complete(writes in vec_of(u64s(0..WORDS as u64), 1..20)) {
        let mem = TMem::new(TMemConfig::small_word_granular());
        let rt = RealRuntime::new();
        let base = mem.alloc_direct(WORDS).unwrap();
        let mut tx = mem.begin(&rt);
        // Read everything.
        for a in 0..WORDS as u64 {
            tx.read(base + a).unwrap();
        }
        tx.write(base, 1).unwrap();
        // Any direct write to any read location must doom the commit.
        for &a in &writes {
            mem.write_direct(&rt, base + a, 99);
        }
        prop_assert!(tx.commit().is_err());
    }

    /// Pooled scratch (read/write sets) is fully reset between
    /// transactions on the same thread, whatever way the previous
    /// transaction ended: commit, explicit rollback, or a conflict abort
    /// at commit time. A leaked entry would show up as a phantom
    /// footprint, a stale read value, or a write published by a later
    /// commit.
    fn scratch_reuse_across_outcomes(
        txs in vec_of(tuple2(vec_of(tuple2(u64s(0..WORDS as u64), any_u64()), 0..8),
                             u64s(0..3)),
                      1..40)
    ) {
        let mem = TMem::new(TMemConfig::small_word_granular());
        let rt = RealRuntime::new();
        let base = mem.alloc_direct(WORDS).unwrap();
        let mut model = vec![0u64; WORDS];
        for (writes, outcome) in txs {
            let mut tx = mem.begin(&rt);
            // A recycled scratch must start empty.
            prop_assert_eq!(tx.read_footprint(), 0);
            prop_assert_eq!(tx.write_footprint(), 0);
            let mut m = model.clone();
            for &(a, v) in &writes {
                // Reads must never see residue from a previous tx's
                // write set.
                prop_assert_eq!(tx.read(base + a).unwrap(), m[a as usize]);
                tx.write(base + a, v).unwrap();
                prop_assert_eq!(tx.read(base + a).unwrap(), v);
                m[a as usize] = v;
            }
            prop_assert!(tx.write_footprint() <= writes.len());
            match outcome {
                // Commit: the model advances.
                0 => {
                    prop_assert!(tx.commit().is_ok());
                    model = m;
                }
                // Explicit rollback: the model must not move.
                1 => {
                    let _ = tx.rollback(AbortCause::Explicit(7));
                }
                // Conflict abort at commit time: invalidate a read line
                // behind the transaction's back, then watch it fail.
                _ => {
                    let a = writes.first().map_or(0, |&(a, _)| a);
                    prop_assert_eq!(tx.read(base + a).unwrap(), m[a as usize]);
                    mem.write_direct(&rt, base + a, 0xDEAD);
                    model[a as usize] = 0xDEAD;
                    if writes.is_empty() {
                        // Read-only transactions serialize at begin time;
                        // the later direct write does not doom them.
                        prop_assert!(tx.commit().is_ok());
                    } else {
                        prop_assert!(tx.commit().is_err());
                    }
                }
            }
        }
        for a in 0..WORDS as u64 {
            prop_assert_eq!(mem.read_direct(&rt, base + a), model[a as usize]);
        }
    }

    /// Capacity limits are enforced exactly at the configured line count.
    fn capacity_is_exact(cap in usizes(1..16)) {
        let mem = TMem::new(TMemConfig {
            words: 1 << 10,
            words_per_line_log2: 0,
            read_cap_lines: cap,
            write_cap_lines: cap,
        });
        let rt = RealRuntime::new();
        let base = mem.alloc_direct(32).unwrap();
        let mut tx = mem.begin(&rt);
        for i in 0..cap as u64 {
            prop_assert!(tx.read(base + i).is_ok());
        }
        prop_assert_eq!(tx.read(base + cap as u64).unwrap_err(), AbortCause::Capacity);
    }
}
