//! Microbenchmark of the software-TM hot path itself: transaction
//! begin/read/write/commit cost on real OS threads, with no data
//! structure and no combining framework in the way.
//!
//! Four scenarios isolate different costs of the substrate:
//!
//! * `ro` — read-only transactions (begin + R reads + commit; no clock
//!   traffic, no write-set, no locking),
//! * `wr-disjoint` — writer transactions on per-thread address regions
//!   (full commit pipeline — lock, validate, publish, clock — but no
//!   data conflicts, so aborts measure substrate noise only),
//! * `wr-contended` — all threads increment one shared counter word
//!   (worst-case conflict + clock contention; measures retry cost),
//! * `mixed` — 90% read-only / 10% writer on disjoint regions.
//!
//! Numbers are wall-clock and host-dependent — like `BENCH_native.json`
//! they are **not** comparable to the lockstep figures. Results go to
//! stdout as a table and to `BENCH_tmem.json` at the repository root.
//!
//! Usage: `tmem_hot [--smoke]` — `--smoke` runs a single small point per
//! scenario (the CI configuration). `HCF_TMEM_TX` overrides the number
//! of transactions per thread; `HCF_THREADS` overrides the sweep.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use hcf_bench::thread_sweep;
use hcf_tmem::{AbortCause, Addr, RealRuntime, TMem, TMemConfig};

/// Reads per read-only transaction.
const RO_READS: u64 = 16;
/// Reads / writes per writer transaction.
const WR_READS: u64 = 8;
const WR_WRITES: u64 = 8;
/// Words in each thread's private region (spread over many lines).
const REGION_WORDS: u64 = 1 << 12;

struct Point {
    scenario: &'static str,
    threads: usize,
    txs: u64,
    commits: u64,
    aborts: u64,
    elapsed_ns: u64,
}

impl Point {
    fn tx_per_sec(&self) -> f64 {
        if self.elapsed_ns == 0 {
            0.0
        } else {
            self.commits as f64 * 1e9 / self.elapsed_ns as f64
        }
    }

    fn ns_per_tx(&self) -> f64 {
        if self.commits == 0 {
            0.0
        } else {
            self.elapsed_ns as f64 / self.commits as f64
        }
    }
}

fn retry_loop(
    mem: &TMem,
    rt: &RealRuntime,
    mut body: impl FnMut(&mut hcf_tmem::Txn<'_>) -> Result<(), AbortCause>,
) -> u64 {
    let mut aborts = 0;
    loop {
        let mut tx = mem.begin(rt);
        match body(&mut tx) {
            Ok(()) => match tx.commit() {
                Ok(()) => return aborts,
                Err(_) => aborts += 1,
            },
            Err(_) => {
                let _ = tx.rollback(AbortCause::Conflict);
                aborts += 1;
            }
        }
    }
}

/// Runs `per_thread` transactions of `body(tid, i, tx)` on `threads`
/// threads and returns the measured point. `body` returns `Ok(true)` to
/// count the transaction as a writer (unused for now, all count equally).
fn run_point(
    scenario: &'static str,
    threads: usize,
    per_thread: u64,
    mem: Arc<TMem>,
    body: impl Fn(usize, u64, &mut hcf_tmem::Txn<'_>) -> Result<(), AbortCause> + Send + Sync + 'static,
) -> Point {
    let rt = Arc::new(RealRuntime::new());
    let body = Arc::new(body);
    let go = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for tid in 0..threads {
        let mem = Arc::clone(&mem);
        let rt = Arc::clone(&rt);
        let body = Arc::clone(&body);
        let go = Arc::clone(&go);
        handles.push(std::thread::spawn(move || {
            let _slot = rt.register();
            while !go.load(Ordering::Acquire) {
                std::hint::spin_loop();
            }
            let mut aborts = 0;
            for i in 0..per_thread {
                aborts += retry_loop(&mem, &rt, |tx| body(tid, i, tx));
            }
            aborts
        }));
    }
    let start = Instant::now();
    go.store(true, Ordering::Release);
    let mut aborts = 0;
    for h in handles {
        aborts += h.join().expect("bench thread panicked");
    }
    let elapsed_ns = start.elapsed().as_nanos() as u64;
    let commits = threads as u64 * per_thread;
    Point {
        scenario,
        threads,
        txs: commits + aborts,
        commits,
        aborts,
        elapsed_ns,
    }
}

fn mem_for(threads: usize) -> (Arc<TMem>, Vec<Addr>) {
    let words = (threads as u64 * REGION_WORDS + 1024).next_power_of_two() as usize;
    let mem = Arc::new(TMem::new(TMemConfig::default().with_words(words)));
    let regions: Vec<Addr> = (0..threads)
        .map(|_| mem.alloc_direct(REGION_WORDS as usize).expect("pool"))
        .collect();
    (mem, regions)
}

fn ro_point(threads: usize, per_thread: u64) -> Point {
    let (mem, regions) = mem_for(threads);
    run_point("ro", threads, per_thread, mem, move |tid, i, tx| {
        let base = regions[tid];
        for k in 0..RO_READS {
            // Stride by 9 words so consecutive reads hit distinct lines.
            tx.read(base + (i.wrapping_mul(7) + k * 9) % REGION_WORDS)?;
        }
        Ok(())
    })
}

fn wr_disjoint_point(threads: usize, per_thread: u64) -> Point {
    let (mem, regions) = mem_for(threads);
    run_point(
        "wr-disjoint",
        threads,
        per_thread,
        mem,
        move |tid, i, tx| {
            let base = regions[tid];
            for k in 0..WR_READS {
                tx.read(base + (i.wrapping_mul(7) + k * 9) % REGION_WORDS)?;
            }
            for k in 0..WR_WRITES {
                let a = base + (i.wrapping_mul(13) + k * 9) % REGION_WORDS;
                tx.write(a, i ^ k)?;
            }
            Ok(())
        },
    )
}

fn wr_contended_point(threads: usize, per_thread: u64) -> Point {
    let (mem, _) = mem_for(threads);
    let counter = mem.alloc_direct(1).expect("pool");
    let p = run_point(
        "wr-contended",
        threads,
        per_thread,
        Arc::clone(&mem),
        move |_tid, _i, tx| {
            let v = tx.read(counter)?;
            tx.write(counter, v + 1)
        },
    );
    let rt = RealRuntime::new();
    assert_eq!(
        mem.read_direct(&rt, counter),
        p.commits,
        "lost increments: the TM miscounted under contention"
    );
    p
}

fn mixed_point(threads: usize, per_thread: u64) -> Point {
    let (mem, regions) = mem_for(threads);
    run_point("mixed", threads, per_thread, mem, move |tid, i, tx| {
        let base = regions[tid];
        if i % 10 == 0 {
            for k in 0..WR_WRITES {
                tx.write(base + (i.wrapping_mul(13) + k * 9) % REGION_WORDS, i ^ k)?;
            }
        } else {
            for k in 0..RO_READS {
                tx.read(base + (i.wrapping_mul(7) + k * 9) % REGION_WORDS)?;
            }
        }
        Ok(())
    })
}

fn json_row(p: &Point) -> String {
    format!(
        concat!(
            "{{\"scenario\":\"{}\",\"threads\":{},\"txs\":{},\"commits\":{},",
            "\"aborts\":{},\"elapsed_ns\":{},\"tx_per_sec\":{:.2},\"ns_per_tx\":{:.1}}}"
        ),
        p.scenario,
        p.threads,
        p.txs,
        p.commits,
        p.aborts,
        p.elapsed_ns,
        p.tx_per_sec(),
        p.ns_per_tx(),
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let per_thread: u64 = std::env::var("HCF_TMEM_TX")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(if smoke { 2_000 } else { 200_000 });
    let sweep: Vec<usize> = if smoke {
        vec![2]
    } else {
        thread_sweep(&[1, 2, 4, 8])
    };

    println!(
        "{:<14} {:>7} {:>10} {:>10} {:>9} {:>14} {:>10}",
        "scenario", "threads", "commits", "aborts", "abort%", "tx/sec", "ns/tx"
    );
    let mut rows = Vec::new();
    for &threads in &sweep {
        for p in [
            ro_point(threads, per_thread),
            wr_disjoint_point(threads, per_thread),
            wr_contended_point(threads, per_thread),
            mixed_point(threads, per_thread),
        ] {
            println!(
                "{:<14} {:>7} {:>10} {:>10} {:>8.2}% {:>14.0} {:>10.1}",
                p.scenario,
                p.threads,
                p.commits,
                p.aborts,
                100.0 * p.aborts as f64 / p.txs.max(1) as f64,
                p.tx_per_sec(),
                p.ns_per_tx(),
            );
            rows.push(p);
        }
    }

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"schema\": \"hcf-bench-tmem-hot/v1\",");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"tx_per_thread\": {per_thread},");
    let _ = writeln!(json, "  \"results\": [");
    for (i, p) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(json, "    {}{comma}", json_row(p));
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_tmem.json");
    match std::fs::write(&path, &json) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\nfailed to write {}: {e}", path.display()),
    }
}
