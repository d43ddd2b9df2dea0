//! Run the §3.3 hash-table comparison on the deterministic simulator and
//! print a miniature of the paper's figure 2 as a console table.
//!
//! ```text
//! cargo run --release --example hashtable_workload [find_pct] [threads...]
//! ```
//!
//! Defaults to 40% Find over thread counts 1, 4, 12, 24, 36 — the
//! workload of figure 2(c). Expect TLE to collapse past its peak while
//! HCF keeps its throughput; Lock and FC stay flat.

use std::sync::Arc;

use hcf_core::Variant;
use hcf_ds::{HashTable, HashTableDs};
use hcf_sim::driver::{run, SimConfig};
use hcf_sim::workload::MapWorkload;
use hcf_tmem::TMemConfig;
use hcf_util::rng::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let find_pct: u32 = args.next().and_then(|a| a.parse().ok()).unwrap_or(40);
    let threads: Vec<usize> = {
        let t: Vec<usize> = args.filter_map(|a| a.parse().ok()).collect();
        if t.is_empty() {
            vec![1, 4, 12, 24, 36]
        } else {
            t
        }
    };

    println!("hash table, {find_pct}% Find, keys/buckets 16K, prefill 50%");
    print!("{:>8}", "threads");
    for v in Variant::ALL {
        print!("{:>10}", v.name());
    }
    println!("    (ops per million virtual cycles)");

    for &t in &threads {
        print!("{t:>8}");
        for v in Variant::ALL {
            let mut cfg = SimConfig::new(t).with_duration(400_000);
            cfg.tmem = TMemConfig::default().with_words(1 << 21);
            let w = MapWorkload {
                key_range: 16 * 1024,
                find_pct,
            };
            let r = run(
                &cfg,
                v,
                |ctx, th| {
                    let table = HashTable::create(ctx, 16 * 1024)?;
                    let mut rng = StdRng::seed_from_u64(7);
                    let mut n = 0;
                    while n < 8 * 1024 {
                        let k = rng.random_range(0..16 * 1024);
                        if table.insert(ctx, k, k)?.is_none() {
                            n += 1;
                        }
                    }
                    Ok((
                        Arc::new(HashTableDs::new(table)),
                        HashTableDs::hcf_config(th),
                    ))
                },
                move |_tid, rng: &mut StdRng| w.op(rng),
            );
            print!("{:>10.0}", r.throughput());
        }
        println!();
    }
}
