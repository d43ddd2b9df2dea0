//! Native wall-clock benchmark: {variant × threads × workload} on real
//! OS threads, on the hash table and the AVL set.
//!
//! Unlike the figure binaries this measures *wall-clock* throughput of
//! the software-HTM substrate on the host machine — numbers depend on
//! core count and scheduler and are **not** comparable to the lockstep
//! figures (see `DESIGN.md`, "Native execution mode"). Results go to
//! stdout as a table and to `BENCH_native.json` at the repository root.
//!
//! Usage: `native [--smoke]` — `--smoke` runs a single 4-thread point
//! per data structure (the CI configuration); the default sweep covers
//! threads {1, 2, 4, 8} and three workload mixes. `HCF_SEED` and
//! `HCF_NATIVE_OPS` (ops per thread) override the defaults.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

use hcf_core::{HcfConfig, Variant};
use hcf_ds::{AvlDs, AvlMode};
use hcf_sim::native::{run_native, NativeConfig, NativeRunResult};
use hcf_sim::workload::{MapWorkload, SetWorkload};
use hcf_tmem::{MemCtx, TxResult};

use hcf_bench::{build_avl, build_hash, hash_tmem, seed, AVL_KEY_RANGE, AVL_THETA, HASH_KEY_RANGE};

/// One measured point, ready for serialization.
struct Row {
    ds: &'static str,
    workload: String,
    r: NativeRunResult,
}

fn ops_per_thread(default: u64) -> u64 {
    std::env::var("HCF_NATIVE_OPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn native_cfg(threads: usize, ops: u64) -> NativeConfig {
    NativeConfig::new(threads)
        .with_ops(ops)
        .with_seed(seed())
        .with_watchdog_ms(30_000)
}

fn hash_row(threads: usize, variant: Variant, find_pct: u32, ops: u64) -> Row {
    let mut cfg = native_cfg(threads, ops);
    cfg.tmem = hash_tmem();
    let w = MapWorkload {
        key_range: HASH_KEY_RANGE,
        find_pct,
    };
    let (r, _) = run_native(&cfg, variant, build_hash, move |_tid, rng| w.op(rng))
        .unwrap_or_else(|e| panic!("hash find{find_pct} stalled: {e}"));
    Row {
        ds: "hash",
        workload: format!("find{find_pct}"),
        r,
    }
}

fn avl_build(ctx: &mut dyn MemCtx, threads: usize) -> TxResult<(Arc<AvlDs>, HcfConfig)> {
    build_avl(ctx, threads, AvlMode::Selective)
}

fn avl_row(threads: usize, variant: Variant, find_pct: u32, ops: u64) -> Row {
    let cfg = native_cfg(threads, ops);
    let w = SetWorkload::new(AVL_KEY_RANGE, AVL_THETA, find_pct);
    let (r, _) = run_native(&cfg, variant, avl_build, move |_tid, rng| w.op(rng))
        .unwrap_or_else(|e| panic!("avl find{find_pct} stalled: {e}"));
    Row {
        ds: "avl",
        workload: format!("find{find_pct}"),
        r,
    }
}

fn json_row(row: &Row) -> String {
    let r = &row.r;
    format!(
        concat!(
            "{{\"ds\":\"{}\",\"workload\":\"{}\",\"variant\":\"{}\",",
            "\"threads\":{},\"total_ops\":{},\"elapsed_ns\":{},",
            "\"ops_per_sec\":{:.2},\"abort_rate\":{:.4},\"exec\":{},",
            "\"mean_ns\":{},\"p50_ns\":{},\"p90_ns\":{},\"p99_ns\":{},\"max_ns\":{}}}"
        ),
        row.ds,
        row.workload,
        r.variant,
        r.threads,
        r.total_ops,
        r.elapsed_ns,
        r.ops_per_sec(),
        r.abort_rate(),
        r.exec.to_json(),
        r.latency.mean_ns,
        r.latency.p50_ns,
        r.latency.p90_ns,
        r.latency.p99_ns,
        r.latency.max_ns,
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (threads_sweep, mixes, ops): (&[usize], &[u32], u64) = if smoke {
        (&[4], &[90], ops_per_thread(300))
    } else {
        (&[1, 2, 4, 8], &[100, 90, 60], ops_per_thread(20_000))
    };

    println!(
        "{:<5} {:<8} {:<7} {:>7} {:>9} {:>12} {:>10} {:>9} {:>9} {:>9}",
        "ds",
        "workload",
        "variant",
        "threads",
        "ops",
        "ops/sec",
        "abort",
        "p50_ns",
        "p99_ns",
        "max_ns"
    );
    let mut rows = Vec::new();
    for &threads in threads_sweep {
        for &find_pct in mixes {
            for v in Variant::ALL {
                for row in [
                    hash_row(threads, v, find_pct, ops),
                    avl_row(threads, v, find_pct, ops),
                ] {
                    println!(
                        "{:<5} {:<8} {:<7} {:>7} {:>9} {:>12.0} {:>10.4} {:>9} {:>9} {:>9}",
                        row.ds,
                        row.workload,
                        row.r.variant.to_string(),
                        row.r.threads,
                        row.r.total_ops,
                        row.r.ops_per_sec(),
                        row.r.abort_rate(),
                        row.r.latency.p50_ns,
                        row.r.latency.p99_ns,
                        row.r.latency.max_ns,
                    );
                    rows.push(row);
                }
            }
        }
    }

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"schema\": \"hcf-bench-native/v2\",");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"seed\": {},", seed());
    let _ = writeln!(json, "  \"ops_per_thread\": {ops},");
    let _ = writeln!(json, "  \"results\": [");
    for (i, row) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(json, "    {}{comma}", json_row(row));
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_native.json");
    match std::fs::write(&path, &json) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\nfailed to write {}: {e}", path.display()),
    }
}
