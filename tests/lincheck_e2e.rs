//! End-to-end linearizability: record real histories of every variant on
//! the deterministic simulator (exact cost model) and check them against
//! sequential specifications. This is the strongest correctness statement
//! in the suite: not just "counts add up" but "every observed result is
//! explained by a single legal order".

use std::collections::BTreeMap;
use std::sync::Arc;

use hcf_core::{HcfConfig, Variant};
use hcf_ds::{HashTable, HashTableDs, MapOp, Stack, StackDs, StackOp};
use hcf_sim::driver::SimConfig;
use hcf_sim::lincheck::{check_linearizable, record_history, SeqSpec};
use hcf_sim::CostModel;
use hcf_tmem::{MemCtx, TMemConfig, TxResult};
use hcf_util::rng::*;

#[derive(Clone, PartialEq, Eq, Hash, Default)]
struct MapSpec(BTreeMap<u64, u64>);

impl SeqSpec for MapSpec {
    type Op = MapOp;
    type Res = Option<u64>;
    fn apply(&mut self, op: &MapOp) -> Option<u64> {
        match *op {
            MapOp::Insert(k, v) => self.0.insert(k, v),
            MapOp::Remove(k) => self.0.remove(&k),
            MapOp::Find(k) => self.0.get(&k).copied(),
        }
    }
}

#[derive(Clone, PartialEq, Eq, Hash, Default)]
struct StackSpec(Vec<u64>);

impl SeqSpec for StackSpec {
    type Op = StackOp;
    type Res = Option<u64>;
    fn apply(&mut self, op: &StackOp) -> Option<u64> {
        match *op {
            StackOp::Push(v) => {
                self.0.push(v);
                Some(v)
            }
            StackOp::Pop => self.0.pop(),
        }
    }
}

fn exact_cfg(threads: usize, seed: u64) -> SimConfig {
    let mut cfg = SimConfig::new(threads).with_seed(seed);
    cfg.cost = CostModel::exact();
    cfg.tmem = TMemConfig::default().with_words(1 << 18);
    cfg
}

fn build_map(ctx: &mut dyn MemCtx, threads: usize) -> TxResult<(Arc<HashTableDs>, HcfConfig)> {
    // Tiny table and key space: maximal conflicts and delegation.
    let t = HashTable::create(ctx, 4)?;
    Ok((
        Arc::new(HashTableDs::new(t)),
        HashTableDs::hcf_config(threads),
    ))
}

#[test]
fn hashtable_histories_are_linearizable() {
    for v in Variant::ALL {
        for seed in [1u64, 2, 3] {
            let history = record_history(
                &exact_cfg(6, seed),
                v,
                build_map,
                |_tid, rng: &mut StdRng| {
                    let k = rng.random_range(0..6u64);
                    match rng.random_range(0..3) {
                        0 => MapOp::Insert(k, rng.random_range(0..100)),
                        1 => MapOp::Remove(k),
                        _ => MapOp::Find(k),
                    }
                },
                20,
            );
            assert_eq!(history.len(), 120);
            assert!(
                check_linearizable(MapSpec::default(), &history),
                "{v} (seed {seed}) produced a non-linearizable history"
            );
        }
    }
}

#[test]
fn stack_histories_are_linearizable() {
    for v in [Variant::Hcf, Variant::Fc, Variant::Scm, Variant::TleFc] {
        let history = record_history(
            &exact_cfg(5, 7),
            v,
            |ctx, threads| {
                let s = Stack::create(ctx)?;
                s.push(ctx, 1000)?;
                s.push(ctx, 1001)?;
                Ok((Arc::new(StackDs::new(s)), StackDs::hcf_config(threads)))
            },
            |_tid, rng: &mut StdRng| {
                if rng.random_bool(0.5) {
                    StackOp::Push(rng.random_range(0..50))
                } else {
                    StackOp::Pop
                }
            },
            20,
        );
        let mut init = StackSpec::default();
        init.0.push(1000);
        init.0.push(1001);
        assert!(
            check_linearizable(init, &history),
            "{v} produced a non-linearizable stack history"
        );
    }
}

#[test]
fn timestamps_respect_real_time() {
    // Structural sanity of the recorder itself: per-thread spans are
    // disjoint and monotonically increasing.
    let history = record_history(
        &exact_cfg(4, 9),
        Variant::Hcf,
        build_map,
        |_tid, rng: &mut StdRng| MapOp::Insert(rng.random_range(0..4), 1),
        25,
    );
    for tid in 0..4 {
        let mut spans: Vec<_> = history.iter().filter(|s| s.tid == tid).collect();
        spans.sort_by_key(|s| s.invoke);
        for w in spans.windows(2) {
            assert!(
                w[0].response <= w[1].invoke,
                "overlapping spans on one thread"
            );
        }
        for s in &spans {
            assert!(s.invoke <= s.response);
        }
    }
}
