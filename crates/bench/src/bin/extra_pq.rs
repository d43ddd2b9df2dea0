//! Extension X1: the §1 motivating example. A skip-list priority queue
//! whose `Insert`s parallelize and whose `RemoveMin`s conflict — the
//! workload class HCF was designed for. Sweeps the insert percentage.
//!
//! Usage: `extra_pq [insert_pct ...]` (default `50 80`).

use hcf_bench::{
    pq_point, thread_sweep, throughput_row, Csv, SINGLE_SOCKET_THREADS, THROUGHPUT_HEADER,
};
use hcf_core::Variant;

fn main() {
    let pcts: Vec<u32> = {
        let args: Vec<u32> = std::env::args()
            .skip(1)
            .filter_map(|a| a.parse().ok())
            .collect();
        if args.is_empty() {
            vec![50, 80]
        } else {
            args
        }
    };
    let mut csv = Csv::new("extra_pq", THROUGHPUT_HEADER);
    for &pct in &pcts {
        let workload = format!("insert{pct}");
        for &threads in &thread_sweep(SINGLE_SOCKET_THREADS) {
            for v in Variant::ALL {
                let r = pq_point(threads, v, pct);
                csv.line(&throughput_row("X1", &workload, &r));
            }
        }
    }
}
