//! A fresh `TMem` costs address space, not resident memory: its word and
//! orec arrays come from the zeroed allocator and construction writes no
//! page of them. Whether the conversion to atomics compiles to nothing is
//! up to the optimizer; the workspace's dev profile optimizes `hcf-util`
//! for it, so this holds, and runs, in debug and release builds alike. It
//! runs alone in its own test binary so no other test's allocations move
//! the process's RSS meanwhile.

use hcf_tmem::{TMem, TMemConfig};

/// The calling process's resident set, in KiB (Linux `/proc`).
fn vm_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmRSS line")
}

#[test]
fn a_fresh_tmem_is_not_resident() {
    let cfg = TMemConfig {
        words: 1 << 22,
        ..TMemConfig::default()
    };
    let before = vm_rss_kib();
    let mem = std::hint::black_box(TMem::new(cfg));
    let grown = vm_rss_kib().saturating_sub(before);
    // 32 MiB of words and 64 MiB of orecs; a few pages of bookkeeping
    // may become resident, none of the arrays' pages.
    assert!(
        grown < 4 * 1024,
        "a fresh TMem of {} words grew RSS by {grown} KiB",
        mem.config().words
    );
}
