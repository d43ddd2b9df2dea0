//! The common interface over HCF and all baseline synchronization schemes.

use std::sync::Arc;

use hcf_tmem::{Runtime, TMem, TxResult};

use crate::baselines::{LockExecutor, ScmExecutor, TleExecutor};
use crate::ds::DataStructure;
use crate::engine::{HcfConfig, HcfEngine};
use crate::stats::ExecStatsSnapshot;

/// A concurrency scheme executing operations of a sequential data
/// structure: HCF itself or any of the paper's baselines.
pub trait Executor<D: DataStructure>: Send + Sync {
    /// Executes one operation to completion and returns its result.
    fn execute(&self, op: D::Op) -> D::Res;

    /// Framework statistics accumulated so far.
    fn exec_stats(&self) -> ExecStatsSnapshot;

    /// Display name of the scheme (used in experiment output).
    fn name(&self) -> &'static str;
}

/// The synchronization schemes compared in the paper's evaluation (§3.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Variant {
    /// The HTM-assisted Combining Framework with the data structure's
    /// preferred configuration.
    Hcf,
    /// A single global lock around every operation.
    Lock,
    /// Transactional lock elision (speculate, then lock).
    Tle,
    /// Flat combining (announce, combine everything under the lock).
    Fc,
    /// Software-assisted conflict management: TLE with an auxiliary lock
    /// serializing conflicting threads (Afek et al.).
    Scm,
    /// The naive TLE-then-FC composition discussed in §1/§3.3.
    TleFc,
}

impl Variant {
    /// All variants, in the paper's presentation order.
    pub const ALL: [Variant; 6] = [
        Variant::Hcf,
        Variant::Lock,
        Variant::Tle,
        Variant::Fc,
        Variant::Scm,
        Variant::TleFc,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Variant::Hcf => "HCF",
            Variant::Lock => "Lock",
            Variant::Tle => "TLE",
            Variant::Fc => "FC",
            Variant::Scm => "SCM",
            Variant::TleFc => "TLE+FC",
        }
    }

    /// Parses a variant name (case-insensitive; `tle+fc`/`tlefc` accepted).
    pub fn parse(s: &str) -> Option<Variant> {
        match s.to_ascii_lowercase().as_str() {
            "hcf" => Some(Variant::Hcf),
            "lock" => Some(Variant::Lock),
            "tle" => Some(Variant::Tle),
            "fc" => Some(Variant::Fc),
            "scm" => Some(Variant::Scm),
            "tle+fc" | "tlefc" => Some(Variant::TleFc),
            _ => None,
        }
    }

    /// Builds an executor of this variant over `ds`.
    ///
    /// `hcf_config` is used only by [`Variant::Hcf`], letting each data
    /// structure supply its tuned per-array policies; all other variants
    /// use their canonical configuration with `attempts` total HTM tries
    /// (the paper gives every HTM variant the same total budget of 10).
    ///
    /// # Errors
    ///
    /// Propagates pool exhaustion from lock/array allocation.
    pub fn build<D: DataStructure>(
        self,
        ds: Arc<D>,
        mem: Arc<TMem>,
        rt: Arc<dyn Runtime>,
        max_threads: usize,
        attempts: u32,
        hcf_config: HcfConfig,
    ) -> TxResult<Arc<dyn Executor<D>>> {
        Ok(match self {
            Variant::Hcf => Arc::new(HcfEngine::new(ds, mem, rt, hcf_config)?),
            Variant::Lock => Arc::new(LockExecutor::new(ds, mem, rt)?),
            Variant::Tle => Arc::new(TleExecutor::new(ds, mem, rt, attempts)?),
            Variant::Fc => Arc::new(HcfEngine::new(ds, mem, rt, HcfConfig::fc(max_threads))?),
            Variant::Scm => Arc::new(ScmExecutor::new(ds, mem, rt, attempts)?),
            Variant::TleFc => Arc::new(HcfEngine::new(
                ds,
                mem,
                rt,
                HcfConfig::tle_fc(max_threads, attempts),
            )?),
        })
    }
}

impl std::fmt::Display for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trip() {
        for v in Variant::ALL {
            assert_eq!(Variant::parse(v.name()), Some(v));
            assert_eq!(Variant::parse(&v.name().to_lowercase()), Some(v));
        }
        assert_eq!(Variant::parse("tlefc"), Some(Variant::TleFc));
        assert_eq!(Variant::parse("nope"), None);
    }

    #[test]
    fn names_unique() {
        let mut names: Vec<&str> = Variant::ALL.iter().map(|v| v.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), Variant::ALL.len());
    }
}
