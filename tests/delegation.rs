//! Cross-crate integration: the exactly-once delegation guarantee
//! (§2.3) under adversarial configurations.
//!
//! A "unique deposit" data structure records every applied operation in
//! an append-only log inside transactional memory. If any operation were
//! applied zero or two times — the races §2.3 argues about — the log
//! would show it.

use std::sync::Arc;

use hcf_core::{DataStructure, HcfConfig, PhasePolicy, SelectPolicy, Variant};
use hcf_tmem::{Addr, DirectCtx, MemCtx, RealRuntime, TMem, TMemConfig, TxResult};

/// Appends each executed token to a log; returns the log position.
struct DepositLog {
    header: Addr, // [0] = length
    slots: Addr,  // capacity words
    capacity: u64,
}

impl DepositLog {
    fn create(ctx: &mut dyn MemCtx, capacity: u64) -> TxResult<Self> {
        Ok(DepositLog {
            header: ctx.alloc(1)?,
            slots: ctx.alloc(capacity as usize)?,
            capacity,
        })
    }

    fn entries(&self, ctx: &mut dyn MemCtx) -> Vec<u64> {
        let n = ctx.read(self.header).unwrap();
        (0..n).map(|i| ctx.read(self.slots + i).unwrap()).collect()
    }
}

impl DataStructure for DepositLog {
    type Op = u64; // the unique token to deposit
    type Res = u64; // log position

    fn run_seq(&self, ctx: &mut dyn MemCtx, op: &u64) -> TxResult<u64> {
        let n = ctx.read(self.header)?;
        assert!(n < self.capacity, "log overflow");
        ctx.write(self.slots + n, *op)?;
        ctx.write(self.header, n + 1)?;
        Ok(n)
    }
}

fn stress(config: HcfConfig, threads: u64, per_thread: u64, label: &str) {
    let mem = Arc::new(TMem::new(TMemConfig::default().with_words(1 << 20)));
    let rt = Arc::new(RealRuntime::new());
    let ds = {
        let mut ctx = DirectCtx::new(&mem, rt.as_ref());
        Arc::new(DepositLog::create(&mut ctx, threads * per_thread + 1).unwrap())
    };
    let exec = Variant::Hcf
        .build(
            ds.clone(),
            mem.clone(),
            rt.clone(),
            threads as usize,
            10,
            config,
        )
        .unwrap();
    std::thread::scope(|s| {
        for t in 0..threads {
            let exec = exec.clone();
            s.spawn(move || {
                for i in 0..per_thread {
                    exec.execute(t * per_thread + i);
                }
            });
        }
    });
    let mut ctx = DirectCtx::new(&mem, rt.as_ref());
    let mut log = ds.entries(&mut ctx);
    assert_eq!(
        log.len() as u64,
        threads * per_thread,
        "{label}: wrong number of applications"
    );
    log.sort_unstable();
    log.dedup();
    assert_eq!(
        log.len() as u64,
        threads * per_thread,
        "{label}: some token deposited twice (and another lost)"
    );
}

/// Every op conflicts (all append to the same counter), so this pushes
/// operations deep into the delegation machinery.
#[test]
fn exactly_once_default_policy() {
    stress(HcfConfig::new(6), 6, 250, "default 2/3/5");
}

#[test]
fn exactly_once_visible_heavy_policy() {
    // Maximize the owner-vs-combiner race: lots of TryVisible attempts.
    let cfg = HcfConfig::new(6).with_default_policy(PhasePolicy {
        try_private: 0,
        try_visible: 8,
        try_combining: 2,
        select: SelectPolicy::All,
        specialized: false,
    });
    stress(cfg, 6, 250, "visible-heavy");
}

#[test]
fn exactly_once_combining_only() {
    stress(
        HcfConfig::new(6).with_default_policy(PhasePolicy::combining_first(4)),
        6,
        250,
        "combining-first",
    );
}

#[test]
fn exactly_once_specialized() {
    stress(
        HcfConfig::new(6).with_default_policy(PhasePolicy::combining_first(4).specialized(true)),
        6,
        250,
        "specialized",
    );
}

#[test]
fn exactly_once_fc_config() {
    stress(HcfConfig::fc(6), 6, 250, "fc");
}

#[test]
fn exactly_once_zero_budget_everywhere() {
    // Pathological: no HTM at all, own-only selection — a pure
    // lock-per-op pipeline through the announcement machinery.
    let cfg = HcfConfig::new(6).with_default_policy(PhasePolicy {
        try_private: 0,
        try_visible: 0,
        try_combining: 0,
        select: SelectPolicy::OwnOnly,
        specialized: false,
    });
    stress(cfg, 6, 250, "zero-budget");
}
