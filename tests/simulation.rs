//! Cross-crate integration: full-stack simulated runs are deterministic,
//! account every operation, and reproduce the paper's headline
//! qualitative claims at miniature scale.

use std::sync::Arc;

use hcf_core::{HcfConfig, Phase, Variant};
use hcf_ds::{AvlDs, AvlMode, AvlTree, HashTable, HashTableDs};
use hcf_sim::driver::{run, SimConfig};
use hcf_sim::workload::{MapWorkload, SetWorkload};
use hcf_tmem::{MemCtx, TMemConfig, TxResult};
use hcf_util::rng::*;

const KEYS: u64 = 1024;

fn build_table(ctx: &mut dyn MemCtx, threads: usize) -> TxResult<(Arc<HashTableDs>, HcfConfig)> {
    let t = HashTable::create(ctx, KEYS)?;
    let mut rng = StdRng::seed_from_u64(1);
    let mut n = 0;
    while n < KEYS / 2 {
        if t.insert(ctx, rng.random_range(0..KEYS), 0)?.is_none() {
            n += 1;
        }
    }
    Ok((
        Arc::new(HashTableDs::new(t)),
        HashTableDs::hcf_config(threads),
    ))
}

fn table_point(
    threads: usize,
    variant: Variant,
    find_pct: u32,
    duration: u64,
) -> hcf_sim::RunResult {
    let mut cfg = SimConfig::new(threads).with_duration(duration);
    cfg.tmem = TMemConfig::default().with_words(1 << 20);
    let w = MapWorkload {
        key_range: KEYS,
        find_pct,
    };
    run(&cfg, variant, build_table, move |_t, rng: &mut StdRng| {
        w.op(rng)
    })
}

#[test]
fn deterministic_full_stack() {
    for v in [Variant::Hcf, Variant::Scm, Variant::TleFc] {
        let a = table_point(6, v, 40, 150_000);
        let b = table_point(6, v, 40, 150_000);
        assert_eq!(a.total_ops, b.total_ops, "{v}");
        assert_eq!(a.elapsed, b.elapsed, "{v}");
        assert_eq!(a.exec, b.exec, "{v}");
        assert_eq!(a.mem, b.mem, "{v}");
    }
}

#[test]
fn phase_accounting_is_exact() {
    for v in Variant::ALL {
        let r = table_point(4, v, 40, 120_000);
        assert_eq!(
            r.exec.total_ops(),
            r.total_ops,
            "{v}: phase completions must sum to op count"
        );
        let e = &r.exec;
        assert_eq!(
            e.htm_attempts,
            e.htm_commits + e.htm_conflicts + e.htm_capacity + e.htm_explicit,
            "{v}: every speculative attempt commits or aborts for one cause"
        );
    }
}

#[test]
fn read_only_workload_scales_on_htm_variants() {
    // Figure 2(a)'s claim: with 100% finds, HCF scales like TLE; Lock and
    // FC do not scale.
    let t1 = [
        table_point(1, Variant::Hcf, 100, 150_000),
        table_point(1, Variant::Tle, 100, 150_000),
        table_point(1, Variant::Lock, 100, 150_000),
    ];
    let t8 = [
        table_point(8, Variant::Hcf, 100, 150_000),
        table_point(8, Variant::Tle, 100, 150_000),
        table_point(8, Variant::Lock, 100, 150_000),
    ];
    assert!(
        t8[0].throughput() > 3.0 * t1[0].throughput(),
        "HCF must scale"
    );
    assert!(
        t8[1].throughput() > 3.0 * t1[1].throughput(),
        "TLE must scale"
    );
    assert!(
        t8[2].throughput() < 2.0 * t1[2].throughput(),
        "Lock must not scale"
    );
    // And HCF carries no overhead vs TLE here (within noise).
    let ratio = t8[0].throughput() / t8[1].throughput();
    assert!((0.7..1.4).contains(&ratio), "HCF/TLE = {ratio}");
}

#[test]
fn update_heavy_workload_favors_hcf_over_tle() {
    // Figure 2(c)'s claim, miniaturized: under updates and enough
    // threads, TLE's lock stampede costs it; HCF keeps combining.
    let hcf = table_point(16, Variant::Hcf, 40, 250_000);
    let tle = table_point(16, Variant::Tle, 40, 250_000);
    assert!(
        hcf.throughput() > tle.throughput(),
        "HCF {:.0} must beat TLE {:.0} at 16 threads with 60% updates",
        hcf.throughput(),
        tle.throughput()
    );
    // The mechanism: TLE acquires the lock far more often per op.
    let tle_locks = tle.exec.lock_acqs as f64 / tle.total_ops as f64;
    let hcf_locks = hcf.exec.lock_acqs as f64 / hcf.total_ops as f64;
    assert!(
        hcf_locks < tle_locks,
        "HCF locks/op {hcf_locks:.4} must be below TLE {tle_locks:.4}"
    );
    // And HCF actually combines.
    assert!(
        hcf.exec.avg_degree() > 1.2,
        "degree {}",
        hcf.exec.avg_degree()
    );
}

#[test]
fn inserts_complete_in_combining_phases_under_contention() {
    // Figure 3's claim: as threads grow, Insert operations shift to the
    // combining phases while Find/Remove stay in TryPrivate.
    let r = table_point(16, Variant::Hcf, 40, 250_000);
    let readers = &r.exec.arrays[hcf_ds::hashtable::ARRAY_READERS];
    let inserts = &r.exec.arrays[hcf_ds::hashtable::ARRAY_INSERTS];
    assert!(
        readers.phase_fraction(Phase::Private) > 0.9,
        "find/remove should succeed privately: {readers:?}"
    );
    let insert_combined = inserts.phase_fraction(Phase::Combining)
        + inserts.phase_fraction(Phase::Lock)
        + inserts.phase_fraction(Phase::Visible);
    assert!(
        insert_combined > 0.2,
        "inserts should need the later phases: {inserts:?}"
    );
}

#[test]
fn zipf_avl_hcf_survives_high_contention() {
    // Figure 5's claim, miniaturized: under the skewed workload TLE
    // collapses at high thread counts; HCF holds a multiple of it.
    let build = |ctx: &mut dyn MemCtx, threads: usize| {
        let t = AvlTree::create(ctx)?;
        let mut rng = StdRng::seed_from_u64(2);
        let mut n = 0;
        while n < 256 {
            if t.insert(ctx, rng.random_range(0..512))? {
                n += 1;
            }
        }
        Ok((
            Arc::new(AvlDs::new(t, AvlMode::Selective)),
            AvlDs::hcf_config(threads, &AvlMode::Selective),
        ))
    };
    let point = |v: Variant| {
        let w = SetWorkload::new(512, 0.9, 20);
        let cfg = SimConfig::new(24).with_duration(250_000);
        run(&cfg, v, build, move |_t, rng: &mut StdRng| w.op(rng))
    };
    let hcf = point(Variant::Hcf);
    let tle = point(Variant::Tle);
    assert!(
        hcf.throughput() > 1.5 * tle.throughput(),
        "HCF {:.0} vs TLE {:.0}",
        hcf.throughput(),
        tle.throughput()
    );
}

#[test]
fn hcf_configured_as_tle_behaves_like_tle() {
    // §2.4: "TLE is achieved when the number of HTM attempts in the
    // second and third phases are set to 0, while chooseOpsToHelp
    // returns only the operation of the combiner". The config preset
    // must track the standalone baseline in both throughput and
    // mechanism (lock acquisitions, private-phase completions).
    use hcf_core::PhasePolicy;

    let build_as_tle = |ctx: &mut dyn MemCtx, threads: usize| {
        let (ds, _cfg) = build_table(ctx, threads)?;
        Ok((
            ds,
            HcfConfig::new(threads).with_default_policy(PhasePolicy::tle_like(10)),
        ))
    };
    for threads in [4usize, 12] {
        let mut cfg = SimConfig::new(threads).with_duration(250_000);
        cfg.tmem = TMemConfig::default().with_words(1 << 20);
        let w = MapWorkload {
            key_range: KEYS,
            find_pct: 40,
        };
        let w2 = w.clone();
        let as_tle = run(
            &cfg,
            Variant::Hcf,
            build_as_tle,
            move |_t, rng: &mut StdRng| w.op(rng),
        );
        let baseline = run(
            &cfg,
            Variant::Tle,
            build_table,
            move |_t, rng: &mut StdRng| w2.op(rng),
        );
        let ratio = as_tle.throughput() / baseline.throughput();
        assert!(
            (0.75..1.33).contains(&ratio),
            "HCF-as-TLE throughput diverged from TLE at {threads} threads: {ratio:.2}"
        );
        // Mechanism: everything completes privately or under the lock,
        // never in a combining transaction (budget 0).
        let phases = as_tle.exec.completed_by_phase();
        assert_eq!(phases[1], 0, "no TryVisible completions with budget 0");
        assert_eq!(phases[2], 0, "no TryCombining completions with budget 0");
        // Lock pressure tracks the baseline within a factor.
        let a = as_tle.exec.lock_acqs as f64 / as_tle.total_ops.max(1) as f64;
        let b = baseline.exec.lock_acqs as f64 / baseline.total_ops.max(1) as f64;
        assert!(
            (a - b).abs() < 0.15,
            "locks/op diverged at {threads} threads: {a:.3} vs {b:.3}"
        );
    }
}
