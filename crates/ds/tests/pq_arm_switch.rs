//! The skip-list priority queue under HCF's arm selector on the real
//! runtime: four threads run half Insert, half RemoveMin for long enough
//! that the selector closes at least four epochs and so switches arms at
//! least twice (it always probes the FC arm after the first epoch, since
//! RemoveMin never completes in TryPrivate). Under the FC arm, ops that
//! take the lock directly interleave with announced ops that combiners
//! apply; the queue must conserve every key across all of it.

use std::sync::Arc;

use hcf_core::{HcfEngine, Phase};
use hcf_ds::{PqOp, SkipListPq, SkipListPqDs};
use hcf_tmem::{DirectCtx, RealRuntime, TMem, TMemConfig};
use hcf_util::rng::{Rng, SplitMix64};

const THREADS: usize = 4;
/// 4 × 5,000 ops ≈ 4.9 epochs of 4,096.
const OPS_PER_THREAD: usize = 5_000;
const PREFILL: u64 = 512;

fn value_of(key: u64) -> u64 {
    key ^ 0xA5A5
}

#[test]
fn pq_conserves_keys_across_arm_switches() {
    let mem = Arc::new(TMem::new(TMemConfig::default().with_words(1 << 20)));
    // Set-up and inspection use their own runtime, so the load threads
    // get ids 0..THREADS on the engine's.
    let aux = RealRuntime::new();
    let pq = SkipListPq::create(&mut DirectCtx::new(&mem, &aux)).unwrap();
    let mut initial = Vec::new();
    for i in 0..PREFILL {
        let k = i * 7 + 1;
        assert!(pq
            .insert(&mut DirectCtx::new(&mem, &aux), k, value_of(k))
            .unwrap());
        initial.push(k);
    }

    let rt = Arc::new(RealRuntime::new());
    let ds = Arc::new(SkipListPqDs::new(pq));
    let e = HcfEngine::new(ds, mem.clone(), rt, SkipListPqDs::hcf_config(THREADS)).unwrap();

    let logs: Vec<(Vec<u64>, Vec<u64>)> = std::thread::scope(|s| {
        let hs: Vec<_> = (0..THREADS as u64)
            .map(|t| {
                let e = &e;
                s.spawn(move || {
                    let mut rng = SplitMix64::new(0x5EED + t);
                    let (mut inserted, mut removed) = (Vec::new(), Vec::new());
                    for _ in 0..OPS_PER_THREAD {
                        if rng.random_bool(0.5) {
                            let k = rng.random_range(0..1 << 20);
                            if let Some(r) = e.execute(PqOp::Insert(k, value_of(k))) {
                                assert_eq!(r, k);
                                inserted.push(k);
                            }
                        } else if let Some(k) = e.execute(PqOp::RemoveMin) {
                            removed.push(k);
                        }
                    }
                    (inserted, removed)
                })
            })
            .collect();
        hs.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let st = e.stats();
    assert_eq!(st.total_ops(), (THREADS * OPS_PER_THREAD) as u64);
    assert!(st.arm.switches >= 2, "{:?}", st.arm);
    assert!(st.completed_by_phase()[Phase::Lock as usize] > 0);

    // Conservation: prefill + inserted == final + removed, as multisets.
    let mut ctx = DirectCtx::new(&mem, &aux);
    assert!(pq.check_invariants(&mut ctx).unwrap());
    let contents = pq.collect(&mut ctx).unwrap();
    assert!(contents.iter().all(|&(k, v)| v == value_of(k)));
    let mut lhs = initial;
    let mut rhs: Vec<u64> = contents.iter().map(|&(k, _)| k).collect();
    for (inserted, removed) in logs {
        lhs.extend(inserted);
        rhs.extend(removed);
    }
    lhs.sort_unstable();
    rhs.sort_unstable();
    assert_eq!(lhs, rhs);
}
