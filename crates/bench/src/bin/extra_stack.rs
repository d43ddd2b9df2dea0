//! Extension X3: the honesty check from §3.1. A stack is all contention:
//! "one should not expect HCF always to be the winner when the contention
//! is high, e.g., when experimenting with a stack". Expected: FC at least
//! matches (typically beats) TLE and is competitive with HCF, whose HTM
//! attempts are mostly wasted here.

use hcf_bench::{
    stack_point, thread_sweep, throughput_row, Csv, SINGLE_SOCKET_THREADS, THROUGHPUT_HEADER,
};
use hcf_core::Variant;

fn main() {
    let mut csv = Csv::new("extra_stack", THROUGHPUT_HEADER);
    for &threads in &thread_sweep(SINGLE_SOCKET_THREADS) {
        for v in Variant::ALL {
            let r = stack_point(threads, v, 50);
            csv.line(&throughput_row("X3", "push50", &r));
        }
    }
}
