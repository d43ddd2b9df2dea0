//! # hcf-sim — deterministic lockstep simulation runtime
//!
//! The paper's evaluation ran on a 72-logical-CPU machine with Intel TSX.
//! This crate reproduces the *shape* of those multi-thread experiments on
//! any machine (including a single core) by running the **unmodified**
//! framework code on a discrete-event runtime:
//!
//! * [`sched::LockstepScheduler`] admits exactly one OS thread at a time —
//!   always the one with the smallest virtual clock (ties by thread id) —
//!   so every execution is deterministic and the software-HTM substrate
//!   observes genuine fine-grained interleavings in *virtual time*.
//! * [`cost::CostModel`] charges virtual cycles per memory access using a
//!   coherence approximation (per-line last-writer + reader set), per
//!   transaction begin/commit/abort, and a hyper-threading slowdown when
//!   both hyperthreads of a modeled core are occupied.
//! * [`topology::Topology`] models the paper's Oracle X5-2 (2 sockets ×
//!   18 cores × 2 SMT) including its thread-pinning rule, and applies a
//!   cross-socket penalty to remote coherence misses.
//! * [`driver::run`] wires a data structure, a synchronization
//!   [`Variant`](hcf_core::Variant), and a workload into a fixed-virtual-
//!   duration throughput measurement.
//!
//! Reported throughput is operations per virtual second; absolute values
//! are model artifacts, but *relative* comparisons across variants and
//! thread counts — the content of the paper's figures — are meaningful.
//!
//! The [`native`] module is the lockstep driver's wall-clock twin: the
//! same builders and workloads on real `std::thread` workers over
//! [`RealRuntime`](hcf_tmem::RealRuntime), with a livelock watchdog,
//! latency percentiles, and optional history recording for [`lincheck`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cost;
pub mod driver;
pub mod lincheck;
pub mod native;
pub mod progress;
pub mod runtime;
pub mod sched;
pub mod topology;
pub mod workload;

pub use cost::CostModel;
#[cfg(feature = "txsan")]
pub use driver::run_sanitized;
pub use driver::{run, run_seeds, run_timeline, run_with, MultiRunResult, RunResult, SimConfig};
pub use native::{
    run_native, run_native_with, LatencyStats, NativeConfig, NativeError, NativeHistory,
    NativeRunResult,
};
pub use progress::{Liveness, ProgressMeter, StallTracker};
pub use runtime::LockstepRuntime;
pub use sched::LockstepScheduler;
pub use topology::Topology;
pub use workload::{MapWorkload, PqWorkload, SetWorkload, Zipf};
