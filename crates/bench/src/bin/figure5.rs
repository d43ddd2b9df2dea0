//! Figure 5: AVL-tree set throughput vs. thread count under a Zipfian
//! (θ = 0.9) workload over keys [0..1023].
//!
//! * (a) 0% Find;
//! * (b) 40% Find;
//! * (c) 80% Find;
//! * `ablate`: the §3.4 ablations of the HCF variant itself (Selective
//!   vs. HelpAll vs. NoCombine vs. SameKey) on the 40%-Find workload.
//!
//! Usage: `figure5 [a|b|c|ablate|all]` (default `all`).

use hcf_bench::{
    avl_point, avl_point_mode, thread_sweep, throughput_row, Csv, SINGLE_SOCKET_THREADS,
    THROUGHPUT_HEADER,
};
use hcf_core::Variant;
use hcf_ds::AvlMode;

fn sub(csv: &mut Csv, name: &str, find_pct: u32) {
    let workload = format!("find{find_pct}");
    for &threads in &thread_sweep(SINGLE_SOCKET_THREADS) {
        for v in Variant::ALL {
            let r = avl_point(threads, v, find_pct);
            csv.line(&throughput_row(name, &workload, &r));
        }
    }
}

fn ablate(csv: &mut Csv) {
    for &threads in &thread_sweep(SINGLE_SOCKET_THREADS) {
        for (label, mode) in [
            ("HCF-selective", AvlMode::Selective),
            ("HCF-helpall", AvlMode::HelpAll),
            ("HCF-nocombine", AvlMode::NoCombine),
            ("HCF-samekey", AvlMode::SameKey),
        ] {
            let r = avl_point_mode(threads, Variant::Hcf, 40, mode);
            csv.line(&format!(
                "5-ablate,find40,{label},{threads},{},{},{:.2},{:.4},{},{:.3},{:.3}",
                r.total_ops,
                r.elapsed,
                r.throughput(),
                r.exec.abort_rate(),
                r.exec.lock_acqs,
                r.exec.avg_degree(),
                r.misses_per_op(),
            ));
        }
    }
}

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    let mut csv = Csv::new("figure5", THROUGHPUT_HEADER);
    if matches!(which.as_str(), "a" | "all") {
        sub(&mut csv, "5a", 0);
    }
    if matches!(which.as_str(), "b" | "all") {
        sub(&mut csv, "5b", 40);
    }
    if matches!(which.as_str(), "c" | "all") {
        sub(&mut csv, "5c", 80);
    }
    if matches!(which.as_str(), "ablate" | "all") {
        ablate(&mut csv);
    }
}
