//! Extension X5: sorted linked-list set — combining's best case. Every
//! operation traverses from the head (O(n)), so TLE carries the whole
//! prefix in its read set (conflict- and capacity-fragile), while HCF's
//! single-sweep `run_multi` applies a sorted batch in one traversal.
//! Expected: TLE collapses early; HCF and FC (which also sweeps, under
//! the lock) dominate, with HCF ahead while its private phase still
//! wins some read parallelism.

use hcf_bench::{
    list_point, thread_sweep, throughput_row, Csv, SINGLE_SOCKET_THREADS, THROUGHPUT_HEADER,
};
use hcf_core::Variant;

fn main() {
    let mut csv = Csv::new("extra_list", THROUGHPUT_HEADER);
    for &pct in &[80u32, 20] {
        let workload = format!("find{pct}");
        for &threads in &thread_sweep(SINGLE_SOCKET_THREADS) {
            for v in Variant::ALL {
                let r = list_point(threads, v, pct);
                csv.line(&throughput_row("X5", &workload, &r));
            }
        }
    }
}
