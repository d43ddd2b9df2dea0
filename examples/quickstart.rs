//! Quickstart: wrap a sequential data structure with HCF and use it from
//! many real threads.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! The flow mirrors the paper's programming model:
//! 1. write sequential code against `MemCtx` (here: the bundled hash
//!    table — only `run_seq`-style methods, no concurrency reasoning);
//! 2. wrap it in an `HcfEngine` with per-operation-class policies;
//! 3. call `execute` from any thread.

use std::sync::Arc;

use hcf_core::{Executor, HcfEngine};
use hcf_ds::{HashTable, HashTableDs, MapOp};
use hcf_tmem::{DirectCtx, RealRuntime, TMem, TMemConfig};

fn main() {
    // The transactional memory all state lives in, and a pass-through
    // runtime (real threads, wall-clock time).
    let mem = Arc::new(TMem::new(TMemConfig::default()));
    let rt = Arc::new(RealRuntime::new());

    // Build the sequential hash table (single-threaded setup phase).
    let table = {
        let mut ctx = DirectCtx::new(&mem, rt.as_ref());
        HashTable::create(&mut ctx, 1024).expect("allocate table")
    };
    let ds = Arc::new(HashTableDs::new(table));

    // Wrap it in HCF: Find/Remove get a TLE-like policy, Insert gets the
    // full four-phase pipeline with insert_n combining (the §3.3 setup).
    let threads = 8;
    let engine = Arc::new(
        HcfEngine::new(ds, mem, rt, HashTableDs::hcf_config(threads)).expect("build engine"),
    );

    // Hammer it from real threads.
    let per_thread = 10_000u64;
    std::thread::scope(|s| {
        for t in 0..threads as u64 {
            let engine = engine.clone();
            s.spawn(move || {
                for i in 0..per_thread {
                    let k = (t * per_thread + i) % 512;
                    match i % 3 {
                        0 => engine.execute(MapOp::Insert(k, t)),
                        1 => engine.execute(MapOp::Find(k)),
                        _ => engine.execute(MapOp::Remove(k)),
                    };
                }
            });
        }
    });

    let stats = engine.exec_stats();
    println!(
        "executed {} operations on {threads} threads",
        stats.total_ops()
    );
    let [private, visible, combining, lock] = stats.completed_by_phase();
    println!("completed per phase:");
    println!("  TryPrivate       {private}");
    println!("  TryVisible       {visible}");
    println!("  TryCombining     {combining}");
    println!("  CombineUnderLock {lock}");
    println!(
        "HTM attempts {} (commit rate {:.1}%), lock acquisitions {}",
        stats.htm_attempts,
        100.0 * (1.0 - stats.abort_rate()),
        stats.lock_acqs
    );
    println!(
        "avg combining degree {:.2} over {} combiner sessions",
        stats.avg_degree(),
        stats.arrays.iter().map(|a| a.sessions).sum::<u64>()
    );
    assert_eq!(stats.total_ops(), threads as u64 * per_thread);
    println!("ok");
}
