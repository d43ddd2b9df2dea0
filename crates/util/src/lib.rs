//! # hcf-util — dependency-free building blocks
//!
//! Everything the HCF reproduction previously pulled from crates.io
//! that the offline tier-1 gate cannot fetch, reimplemented over the
//! standard library (see `docs/BUILD.md` for the hermeticity
//! rationale):
//!
//! * [`rng`] — seedable, deterministic PRNGs ([`rng::SplitMix64`],
//!   [`rng::Xoshiro256pp`]) with a `rand`-shaped sampling API, so the
//!   figures are reproducible bit-for-bit from a seed.
//! * [`dist`] — the Zipfian and uniform key samplers the paper's
//!   workloads draw from.
//! * [`sync`] — `parking_lot`-shaped shims ([`sync::Mutex`] and
//!   [`sync::Condvar`]) over `std::sync`.
//! * [`pad`] — [`pad::CachePadded`], cache-line-pair alignment against
//!   false sharing of contended atomics, and [`pad::Striped`], one padded
//!   copy per writing thread for counters every thread bumps.
//! * [`ptest`] — the `proptest_lite` property-testing harness: seeded
//!   case generation, shrinking by halving, failure-seed reporting.
//! * [`frame`] — length-prefixed RESP-like framing for the `hcf-kv`
//!   wire protocol.
//! * [`shard`] — SplitMix64-based byte-string hashing and shard
//!   routing for the KV service.
//!
//! The crate deliberately has **zero dependencies**, forbids `unsafe`
//! code and denies missing docs on its public API.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]

pub mod dist;
pub mod frame;
pub mod pad;
pub mod ptest;
pub mod rng;
pub mod shard;
pub mod sync;
