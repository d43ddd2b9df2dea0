//! Positive end-to-end check: a contended simulated workload on the
//! *unmodified* engine must come out of the replay checker clean. Runs in
//! per-access lockstep (`CostModel::exact()`), where ring order equals
//! execution order, so the checker's verdict is sound — see the
//! `san::replay` module docs.

use hcf_core::record::OpStatus;
use hcf_core::Variant;
use hcf_ds::{HashTable, HashTableDs, MapOp};
use hcf_sim::{run_sanitized, CostModel, MapWorkload, SimConfig};
use hcf_tmem::san::{SanEvent, SanLog};
use hcf_tmem::{MemCtx, TxResult};
use hcf_util::rng::StdRng;
use hcf_util::sync::Mutex;
use san::replay;
use std::collections::HashMap;
use std::sync::Arc;

static SESSION_GATE: Mutex<()> = Mutex::new(());

fn sanitized_cfg(threads: usize, duration: u64) -> SimConfig {
    let mut c = SimConfig::new(threads);
    c.cost = CostModel::exact();
    c.duration = duration;
    c
}

fn build_table(
    ctx: &mut dyn MemCtx,
    threads: usize,
) -> TxResult<(Arc<HashTableDs>, hcf_core::HcfConfig)> {
    let t = HashTable::create(ctx, 64)?;
    for k in 0..32 {
        t.insert(ctx, k * 2, k)?;
    }
    Ok((
        Arc::new(HashTableDs::new(t)),
        HashTableDs::hcf_config(threads),
    ))
}

/// Small key range + update-heavy mix: forces conflicts, aborts, lock
/// fallbacks and combining, so the log exercises every event kind.
fn contended_gen(find_pct: u32) -> impl Fn(usize, &mut StdRng) -> MapOp + Send + Sync {
    let w = MapWorkload {
        key_range: 64,
        find_pct,
    };
    move |_tid, rng| w.op(rng)
}

#[test]
fn contended_hcf_run_is_certified_clean() {
    let _gate = SESSION_GATE.lock();
    let (result, log) = run_sanitized(
        &sanitized_cfg(3, 60_000),
        Variant::Hcf,
        build_table,
        contended_gen(40),
    );
    assert!(result.total_ops > 0, "workload ran no operations");
    assert_eq!(log.dropped, 0, "event ring overflowed; grow the capacity");

    let report = replay::check(&log);
    assert!(report.ok(), "unmodified engine must be clean:\n{report}");
    assert!(
        report.txns_committed > 0,
        "sanitizer saw no commits — instrumentation dead? {report}"
    );

    // The clean verdict covered selection and record reuse: some record
    // went Announced -> BeingHelped, and some thread announced, reusing
    // its one publication record, more than once.
    let d = Delegation::of(&log);
    assert!(d.selected > 0, "no record went Announced -> BeingHelped");
    assert!(d.max_announces > 1, "no thread announced twice: {d:?}");
}

#[test]
fn cross_thread_helping_is_certified_clean() {
    // Four writers and no finds: owners pile up in the insert array, so
    // combiners select other threads' operations.
    let _gate = SESSION_GATE.lock();
    let (result, log) = run_sanitized(
        &sanitized_cfg(4, 60_000),
        Variant::Hcf,
        build_table,
        contended_gen(0),
    );
    assert!(result.total_ops > 0, "workload ran no operations");
    assert_eq!(log.dropped, 0, "event ring overflowed; grow the capacity");
    let report = replay::check(&log);
    assert!(report.ok(), "unmodified engine must be clean:\n{report}");
    let d = Delegation::of(&log);
    assert!(
        d.helped_others > 0,
        "no combiner selected another thread's op: {d:?}"
    );
}

/// What a sanitized log shows of delegation.
#[derive(Debug)]
struct Delegation {
    /// `Announced -> BeingHelped` record transitions.
    selected: usize,
    /// Slot clears by a thread other than the slot's owner: a combiner
    /// selecting someone else's operation.
    helped_others: usize,
    /// The most announcements any one thread made.
    max_announces: usize,
}

impl Delegation {
    fn of(log: &SanLog) -> Delegation {
        let mut slot_owner = HashMap::new();
        let mut announces: HashMap<u64, usize> = HashMap::new();
        let (mut selected, mut helped_others) = (0, 0);
        for e in &log.events {
            match *e {
                SanEvent::RecTransition { from, to, .. }
                    if from == OpStatus::Announced as u64 && to == OpStatus::BeingHelped as u64 =>
                {
                    selected += 1;
                }
                // Logged after the slots' allocation-time zeroing, so
                // that zeroing is not counted below.
                SanEvent::SlotRegistered { slot, owner, .. } => {
                    slot_owner.insert(slot, owner);
                }
                SanEvent::DirectWrite {
                    tid, addr, value, ..
                } => match slot_owner.get(&addr) {
                    Some(&owner) if value != 0 => *announces.entry(owner).or_default() += 1,
                    Some(&owner) if tid != owner => helped_others += 1,
                    _ => {}
                },
                _ => {}
            }
        }
        Delegation {
            selected,
            helped_others,
            max_announces: announces.values().copied().max().unwrap_or(0),
        }
    }
}

#[test]
fn every_variant_is_certified_clean() {
    let _gate = SESSION_GATE.lock();
    for v in Variant::ALL {
        let (result, log) =
            run_sanitized(&sanitized_cfg(2, 20_000), v, build_table, contended_gen(60));
        assert!(result.total_ops > 0, "{v}: workload ran no operations");
        assert_eq!(log.dropped, 0, "{v}: event ring overflowed");
        let report = replay::check(&log);
        assert!(
            report.ok(),
            "{v}: unmodified engine must be clean:\n{report}"
        );
    }
}
