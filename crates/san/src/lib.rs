//! hcf-san: the transactional sanitizer and access-discipline lint for the
//! HCF stack.
//!
//! Two independent tools live here:
//!
//! * [`replay`] — consumes the event log produced by `hcf_tmem::san` when
//!   the workspace is built with `--features txsan`, and verifies opacity,
//!   conflict-serializability against the recorded commit order, the
//!   fallback-lock subscription discipline, and the publication-record /
//!   publication-slot state machines of the paper's §2.2. Entry point:
//!   [`replay::check`].
//! * [`lint`] — a dependency-free static scanner for the source-level
//!   access discipline (no `std::sync` primitives outside `hcf-util`, no
//!   undocumented `unsafe`, no wall clocks or ad-hoc RNG in library
//!   crates). Entry point: [`lint::lint_tree`], exposed as the `hcf-lint`
//!   binary.
//!
//! See `docs/SANITIZER.md` for how the pieces fit together and how to run
//! them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lint;
pub mod replay;

pub use lint::{lint_tree, Finding};
pub use replay::{check, Report, Violation};
