//! Extension A2: the paper's stated future work — adaptive run-time
//! tuning of the HCF configuration (§2.4: "calling for an adaptive
//! runtime mechanism to tune the HCF performance. Exploring such a
//! mechanism is left for future work.").
//!
//! On the skewed AVL workload we compare, per thread count:
//!
//! * `HCF-tuned` — the hand-tuned configuration the figure-5 experiments
//!   use (specialized contention control, subtree-selective combining);
//! * `HCF-miscfg` — a deliberately bad starting configuration for this
//!   workload (TLE-like: all attempts private, own-only combining);
//! * `HCF-adaptive` — the same bad starting configuration with the
//!   feedback controller enabled.
//!
//! Expected shape: at low thread counts all three coincide; as contention
//! rises the misconfigured engine collapses like TLE while the adaptive
//! engine recovers most of the hand-tuned throughput.

use std::sync::Arc;

use hcf_bench::{build_avl, sim_config, thread_sweep, Csv, SINGLE_SOCKET_THREADS};
use hcf_core::{AdaptiveConfig, AdaptiveEngine, HcfEngine, PhasePolicy, Variant};
use hcf_ds::AvlMode;
use hcf_sim::driver::{run_timeline, run_with};
use hcf_sim::workload::SetWorkload;
use hcf_util::rng::*;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Mode {
    Tuned,
    Misconfigured,
    Adaptive,
}

fn point(threads: usize, mode: Mode, find_pct: u32) -> hcf_sim::RunResult {
    let cfg = sim_config(threads);
    let w = SetWorkload::new(hcf_bench::AVL_KEY_RANGE, hcf_bench::AVL_THETA, find_pct);
    run_with(
        &cfg,
        Variant::Hcf,
        |ctx, th| build_avl(ctx, th, AvlMode::Selective),
        move |ds, mem, rt, threads, tuned_cfg| {
            let hcf_cfg = match mode {
                Mode::Tuned => tuned_cfg,
                Mode::Misconfigured | Mode::Adaptive => {
                    hcf_core::HcfConfig::new(threads).with_default_policy(PhasePolicy::tle_like(10))
                }
            };
            let engine = Arc::new(HcfEngine::new(ds, mem, rt, hcf_cfg).expect("engine"));
            match mode {
                Mode::Adaptive => Arc::new(AdaptiveEngine::new(
                    engine,
                    AdaptiveConfig {
                        epoch_ops: 128,
                        ..AdaptiveConfig::default()
                    },
                )),
                _ => engine,
            }
        },
        move |_tid, rng: &mut StdRng| w.op(rng),
    )
}

/// Prints the within-run convergence of the adaptive engine at one
/// thread count: ops completed per 100K-cycle bucket for the adaptive vs
/// the misconfigured engine.
fn timeline(threads: usize, find_pct: u32, csv: &mut Csv) {
    const BUCKET: u64 = 100_000;
    for (label, mode) in [
        ("HCF-miscfg", Mode::Misconfigured),
        ("HCF-adaptive", Mode::Adaptive),
    ] {
        let cfg = sim_config(threads);
        let w = SetWorkload::new(hcf_bench::AVL_KEY_RANGE, hcf_bench::AVL_THETA, find_pct);
        let (_r, buckets) = run_timeline(
            &cfg,
            Variant::Hcf,
            |ctx, th| build_avl(ctx, th, AvlMode::Selective),
            move |ds, mem, rt, th, _tuned| {
                let hcf_cfg =
                    hcf_core::HcfConfig::new(th).with_default_policy(PhasePolicy::tle_like(10));
                let engine = Arc::new(HcfEngine::new(ds, mem, rt, hcf_cfg).expect("engine"));
                match mode {
                    Mode::Adaptive => Arc::new(AdaptiveEngine::new(
                        engine,
                        AdaptiveConfig {
                            epoch_ops: 128,
                            ..AdaptiveConfig::default()
                        },
                    )),
                    _ => engine,
                }
            },
            move |_tid, rng: &mut StdRng| w.op(rng),
            BUCKET,
        );
        for (i, ops) in buckets.iter().enumerate() {
            csv.line(&format!(
                "A2-timeline,{label},{threads},{},{}",
                i as u64 * BUCKET,
                ops
            ));
        }
    }
}

fn main() {
    let mut csv = Csv::new(
        "extra_adaptive",
        "figure,mode,threads,ops,cycles,ops_per_mcycle,abort_rate,avg_degree,final_private_budget",
    );
    let sweep = thread_sweep(SINGLE_SOCKET_THREADS);
    for &threads in &sweep {
        for (label, mode) in [
            ("HCF-tuned", Mode::Tuned),
            ("HCF-miscfg", Mode::Misconfigured),
            ("HCF-adaptive", Mode::Adaptive),
        ] {
            let r = point(threads, mode, 40);
            csv.line(&format!(
                "A2,{label},{threads},{},{},{:.2},{:.4},{:.3},-",
                r.total_ops,
                r.elapsed,
                r.throughput(),
                r.exec.abort_rate(),
                r.exec.avg_degree(),
            ));
        }
    }
    // Within-run convergence at a representative contended point.
    let t = sweep
        .iter()
        .copied()
        .find(|&t| t >= 18)
        .unwrap_or(*sweep.last().unwrap());
    timeline(t, 40, &mut csv);
}
