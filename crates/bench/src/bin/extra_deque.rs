//! Extension X2: the §2.4 deque with one publication array per end and
//! specialized combiners. Opposite ends proceed independently; same-end
//! operations combine and eliminate.

use hcf_bench::{
    deque_point, thread_sweep, throughput_row, Csv, SINGLE_SOCKET_THREADS, THROUGHPUT_HEADER,
};
use hcf_core::Variant;

fn main() {
    let mut csv = Csv::new("extra_deque", THROUGHPUT_HEADER);
    for &threads in &thread_sweep(SINGLE_SOCKET_THREADS) {
        for v in Variant::ALL {
            let r = deque_point(threads, v);
            csv.line(&throughput_row("X2", "mixed", &r));
        }
    }
}
