//! # hcf-core — the HTM-assisted Combining Framework
//!
//! This crate implements the synchronization framework from
//! *"Transactional Lock Elision Meets Combining"* (Kogan & Lev, PODC 2017).
//! Given a **sequentially implemented** data structure (written against
//! [`hcf_tmem::MemCtx`]) protected by a lock, the framework executes each
//! operation through up to four phases (§2.1 of the paper):
//!
//! 1. **TryPrivate** — the owner runs the operation in a hardware
//!    transaction (here: the `hcf-tmem` software HTM), up to a budgeted
//!    number of attempts.
//! 2. **TryVisible** — the owner *announces* the operation in a
//!    publication array (making it eligible for delegation) and keeps
//!    trying on HTM; the transaction removes the announcement atomically
//!    with applying the operation.
//! 3. **TryCombining** — the owner becomes a *combiner*: it acquires the
//!    array's selection lock, selects a subset of announced operations
//!    (always including its own), and applies them — possibly combined and
//!    eliminated via the data structure's `run_multi` — in one or more
//!    hardware transactions, concurrently with other combiners and with
//!    non-delegated operations.
//! 4. **CombineUnderLock** — the remaining selected operations are applied
//!    under the data-structure lock.
//!
//! The number of publication arrays, the phase budgets, and the selection
//! policy are per-operation-class configuration ([`PhasePolicy`]) and
//! affect only performance, never correctness (§2.2–2.3). The §2.4
//! configurations that recover plain TLE and plain FC are provided as
//! presets, and the specialized single-combiner variant (selection lock
//! held for the whole combining session) is the `specialized` flag.
//!
//! The crate also provides every baseline the paper evaluates against:
//! a global lock, TLE and SCM (TLE with an auxiliary lock, Afek et al.)
//! as standalone executors, and flat combining and the naive TLE+FC
//! composition as engine configurations ([`HcfConfig::fc`],
//! [`HcfConfig::tle_fc`]) — all behind the common [`Executor`] trait so
//! that the experiment harness treats them uniformly.
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use hcf_core::{DataStructure, HcfEngine, HcfConfig, Executor};
//! use hcf_tmem::{Addr, MemCtx, TMem, TMemConfig, TxResult, RealRuntime};
//!
//! /// A bank of counters; `Add(i)` increments counter `i` and returns the
//! /// new value.
//! struct Counters { base: Addr, n: u64 }
//!
//! #[derive(Clone, Debug)]
//! struct Add(u64);
//!
//! impl DataStructure for Counters {
//!     type Op = Add;
//!     type Res = u64;
//!     fn run_seq(&self, ctx: &mut dyn MemCtx, op: &Add) -> TxResult<u64> {
//!         let a = self.base + (op.0 % self.n);
//!         let v = ctx.read(a)?;
//!         ctx.write(a, v + 1)?;
//!         Ok(v + 1)
//!     }
//! }
//!
//! let rt = Arc::new(RealRuntime::new());
//! let mem = Arc::new(TMem::new(TMemConfig::default()));
//! let base = mem.alloc_direct(4).unwrap();
//! let ds = Arc::new(Counters { base, n: 4 });
//! let engine = HcfEngine::new(ds, mem, rt, HcfConfig::new(8)).unwrap();
//! assert_eq!(engine.execute(Add(3)), 1);
//! assert_eq!(engine.execute(Add(3)), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adaptive;
pub mod arm;
pub mod baselines;
pub mod ds;
pub mod engine;
pub mod executor;
pub mod policy;
pub mod pubarray;
pub mod record;
pub mod stats;

pub use adaptive::{AdaptiveConfig, AdaptiveEngine};
pub use arm::{Arm, ArmStats};
pub use baselines::{LockExecutor, ScmExecutor, TleExecutor};
pub use ds::DataStructure;
pub use engine::{HcfConfig, HcfEngine};
pub use executor::{Executor, Variant};
pub use policy::{PhasePolicy, SelectPolicy};
pub use stats::{ExecStats, ExecStatsSnapshot, Phase};
