//! Extension X4: FIFO queue (the classic flat-combining structure) with
//! per-class publication arrays. Enqueues conflict at the tail, dequeues
//! at the head; on a non-empty queue the two classes are disjoint, so —
//! unlike the stack — HCF's two concurrent combiners have real
//! parallelism to exploit over single-lock FC.

use hcf_bench::{
    queue_point, thread_sweep, throughput_row, Csv, SINGLE_SOCKET_THREADS, THROUGHPUT_HEADER,
};
use hcf_core::Variant;

fn main() {
    let mut csv = Csv::new("extra_queue", THROUGHPUT_HEADER);
    for &threads in &thread_sweep(SINGLE_SOCKET_THREADS) {
        for v in Variant::ALL {
            let r = queue_point(threads, v, 50);
            csv.line(&throughput_row("X4", "enq50", &r));
        }
    }
}
