//! The `engine-pq` workload: [`LOAD_THREADS`] threads call `execute` on
//! the skip-list priority queue, half Insert (uniform keys below 2^20),
//! half RemoveMin, starting from 4,096 prefilled entries.
//!
//! The check is conservation: the prefill plus every successful insert
//! must equal the final contents plus every removed key, as multisets.
//! Threads fold the keys they insert and remove into order-independent
//! [`Fingerprint`]s instead of logging them, so the check costs no
//! memory that would show in `peak_rss_mb`. The final queue must also be
//! sorted, hold each key's own value, and pass `check_invariants`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

use hcf_core::{Executor, HcfEngine, LockExecutor, TleExecutor};
use hcf_ds::{PqOp, SkipListPq, SkipListPqDs};
use hcf_tmem::{DirectCtx, RealRuntime, Runtime, TMem, TMemConfig, TxResult};
use hcf_util::rng::{Rng, SplitMix64};

use crate::{
    drive, ledger, peak_rss_mb, sub_seed, EngineCounters, Report, RunOpts, SetupTimes, Step,
    Summary, Timed, Window, LOAD_THREADS,
};

/// Entries in the queue before the first operation.
pub const PREFILL: usize = 4096;

/// Keys are drawn uniformly below this.
pub const KEY_SPACE: u64 = 1 << 20;

/// HTM attempts the TLE reference gets: the paper's budget of 10.
const TLE_ATTEMPTS: u32 = 10;

/// Latency class of an Insert.
pub const CLASS_INSERT: usize = 0;
/// Latency class of a RemoveMin.
pub const CLASS_REMOVE_MIN: usize = 1;

/// The value stored with `key`, so the final contents can be checked.
pub fn value_of(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xA5A5
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An order-independent digest of a multiset of keys: the count and two
/// independent sums of mixed keys (wrapping). Equal multisets give equal
/// fingerprints; a lost, extra or changed key changes both sums.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Fingerprint {
    n: u64,
    a: u64,
    b: u64,
}

impl Fingerprint {
    /// Adds one key.
    pub fn add(&mut self, key: u64) {
        self.n += 1;
        self.a = self.a.wrapping_add(mix(key ^ 0x5151));
        self.b = self.b.wrapping_add(mix(key.rotate_left(29) ^ 0x7E7E_7E7E));
    }

    /// The union of two multisets.
    #[must_use]
    pub fn plus(self, o: Fingerprint) -> Fingerprint {
        Fingerprint {
            n: self.n + o.n,
            a: self.a.wrapping_add(o.a),
            b: self.b.wrapping_add(o.b),
        }
    }

    /// The digest of `keys`.
    pub fn of(keys: impl IntoIterator<Item = u64>) -> Fingerprint {
        let mut f = Fingerprint::default();
        keys.into_iter().for_each(|k| f.add(k));
        f
    }
}

/// Checks conservation and the final contents.
///
/// # Errors
///
/// Describes the first violation.
pub fn check_final(
    prefill: Fingerprint,
    inserted: Fingerprint,
    removed: Fingerprint,
    contents: &[(u64, u64)],
) -> Result<(), String> {
    if !contents.windows(2).all(|w| w[0].0 < w[1].0) {
        return Err("final queue is not strictly ascending".into());
    }
    if let Some((k, v)) = contents.iter().find(|&&(k, v)| v != value_of(k)) {
        return Err(format!("key {k} holds value {v:#x}, not its own"));
    }
    let fin = Fingerprint::of(contents.iter().map(|&(k, _)| k));
    if prefill.plus(inserted) != fin.plus(removed) {
        return Err(format!(
            "conservation: prefill {} + inserted {} != final {} + removed {} (or keys differ)",
            prefill.n, inserted.n, fin.n, removed.n
        ));
    }
    Ok(())
}

/// A prefilled queue in its own memory.
pub struct PqState {
    /// The queue's memory.
    pub mem: Arc<TMem>,
    /// The queue.
    pub pq: SkipListPq,
    /// Digest of the prefilled keys.
    pub prefill: Fingerprint,
    /// Runtime for set-up and inspection, kept apart from the load
    /// threads' runtime so it consumes none of the executor's thread ids.
    pub aux_rt: RealRuntime,
}

impl PqState {
    /// Creates the memory and prefills [`PREFILL`] distinct seeded keys.
    ///
    /// # Errors
    ///
    /// Memory exhaustion.
    pub fn new(seed: u64) -> TxResult<PqState> {
        let mem = Arc::new(TMem::new(TMemConfig::default()));
        let aux_rt = RealRuntime::new();
        let mut ctx = DirectCtx::new(&mem, &aux_rt);
        let pq = SkipListPq::create(&mut ctx)?;
        let mut rng = SplitMix64::new(sub_seed(seed, 50));
        let mut prefill = Fingerprint::default();
        while (prefill.n as usize) < PREFILL {
            let k = rng.random_range(0..KEY_SPACE);
            if pq.insert(&mut ctx, k, value_of(k))? {
                prefill.add(k);
            }
        }
        Ok(PqState {
            mem,
            pq,
            prefill,
            aux_rt,
        })
    }

    /// The queue's contents, read directly.
    ///
    /// # Errors
    ///
    /// When the structure's invariants do not hold.
    pub fn contents(&self) -> Result<Vec<(u64, u64)>, String> {
        let mut ctx = DirectCtx::new(&self.mem, &self.aux_rt);
        let io = |e| format!("reading the final queue: {e:?}");
        if !self.pq.check_invariants(&mut ctx).map_err(io)? {
            return Err("final queue fails check_invariants".into());
        }
        self.pq.collect(&mut ctx).map_err(io)
    }
}

/// What one stream of operations measured and found.
pub struct Streamed {
    /// The timed window's samples (an error if nothing was timed).
    pub summary: Result<Summary, String>,
    /// Executor counters over the timed window, when asked for.
    pub counters: Option<EngineCounters>,
    /// Failed checks.
    pub errors: Vec<String>,
}

/// A prefilled queue behind an executor.
pub struct Rig<E> {
    /// The queue.
    pub state: PqState,
    /// Runtime the load threads register with.
    pub rt: Arc<RealRuntime>,
    /// The executor under test.
    pub exec: E,
}

impl<E: Executor<SkipListPqDs>> Rig<E> {
    /// Prefills a queue and builds the executor over it.
    ///
    /// # Errors
    ///
    /// Memory exhaustion.
    pub fn new(
        seed: u64,
        build: impl FnOnce(Arc<SkipListPqDs>, Arc<TMem>, Arc<dyn Runtime>) -> TxResult<E>,
    ) -> Result<Rig<E>, String> {
        let state = PqState::new(seed).map_err(|e| format!("prefill: {e:?}"))?;
        let rt = Arc::new(RealRuntime::new());
        let ds = Arc::new(SkipListPqDs::new(state.pq));
        let exec =
            build(ds, state.mem.clone(), rt.clone()).map_err(|e| format!("executor: {e:?}"))?;
        Ok(Rig { state, rt, exec })
    }

    /// Runs the op stream on [`LOAD_THREADS`] threads over `window`, then
    /// checks conservation. When `snapshot_at_warm_end` is set, also
    /// measures the executor's counters over the timed window.
    pub fn stream(&self, seed: u64, window: Window, snapshot_at_warm_end: bool) -> Streamed {
        let abort = AtomicBool::new(false);
        let panicked = AtomicBool::new(false);
        let mut before = None;
        let (outcomes, steal) = std::thread::scope(|s| {
            let hs: Vec<_> = (0..LOAD_THREADS)
                .map(|t| {
                    let (abort, panicked) = (&abort, &panicked);
                    s.spawn(move || self.worker(seed, t, &window, abort, panicked))
                })
                .collect();
            let steal = window.watch(|| {
                if snapshot_at_warm_end {
                    before = Some(EngineCounters::from_snapshot(&self.exec.exec_stats()));
                }
            });
            let outcomes: Vec<_> = hs
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|_| {
                        (
                            Timed::panicked(),
                            Fingerprint::default(),
                            Fingerprint::default(),
                        )
                    })
                })
                .collect();
            (outcomes, steal)
        });
        let (mut parts, mut ins, mut rem) =
            (Vec::new(), Fingerprint::default(), Fingerprint::default());
        for (t, i, r) in outcomes {
            parts.push(t);
            ins = ins.plus(i);
            rem = rem.plus(r);
        }
        let mut errors: Vec<String> = parts.iter().filter_map(|t| t.error.clone()).collect();
        if panicked.into_inner() {
            errors.push("an operation panicked; conservation cannot be checked".into());
        }
        if errors.is_empty() {
            let checked = self
                .state
                .contents()
                .and_then(|c| check_final(self.state.prefill, ins, rem, &c));
            errors.extend(checked.err());
        }
        Streamed {
            summary: Summary::merge(&window, &parts, steal),
            counters: before
                .map(|b| EngineCounters::from_snapshot(&self.exec.exec_stats()).since(&b)),
            errors,
        }
    }

    fn worker(
        &self,
        seed: u64,
        t: usize,
        window: &Window,
        abort: &AtomicBool,
        panicked: &AtomicBool,
    ) -> (Timed, Fingerprint, Fingerprint) {
        let _slot = self.rt.register();
        let mut rng = SplitMix64::new(sub_seed(seed, 100 + t as u64));
        let (mut ins, mut rem) = (Fingerprint::default(), Fingerprint::default());
        let timed = drive(window, abort, 2, |_| {
            let op = if rng.random_bool(0.5) {
                let k = rng.random_range(0..KEY_SPACE);
                PqOp::Insert(k, value_of(k))
            } else {
                PqOp::RemoveMin
            };
            let class = match op {
                PqOp::Insert(..) => CLASS_INSERT,
                PqOp::RemoveMin => CLASS_REMOVE_MIN,
            };
            let Ok(res) = catch_unwind(AssertUnwindSafe(|| self.exec.execute(op))) else {
                panicked.store(true, std::sync::atomic::Ordering::Relaxed);
                abort.store(true, std::sync::atomic::Ordering::Relaxed);
                return Ok(Step::Failed(class));
            };
            match (op, res) {
                (PqOp::Insert(k, _), Some(r)) if r == k => ins.add(k),
                (PqOp::Insert(..), None) => {}
                (PqOp::RemoveMin, Some(k)) => rem.add(k),
                (PqOp::RemoveMin, None) => {}
                (op, res) => return Err(format!("{op:?} returned {res:?}")),
            }
            Ok(Step::Ok(class))
        });
        (timed, ins, rem)
    }
}

fn hcf_engine(
    ds: Arc<SkipListPqDs>,
    mem: Arc<TMem>,
    rt: Arc<dyn Runtime>,
) -> TxResult<HcfEngine<SkipListPqDs>> {
    HcfEngine::new(ds, mem, rt, SkipListPqDs::hcf_config(LOAD_THREADS))
}

/// Runs `engine-pq`; in a traced run also the per-layer ledger.
///
/// # Errors
///
/// Set-up failures.
pub fn run(opts: &RunOpts) -> Result<Report, String> {
    let start = || Rig::new(opts.seed, hcf_engine);
    let mut setups = SetupTimes::default();
    let rig = setups.time(start)?;
    let out = rig.stream(opts.seed, Window::new(opts.warmup, opts.run), opts.trace);
    drop(rig);
    let mut report = Report {
        errors: out.errors,
        ..Report::default()
    };
    match out.summary {
        Ok(summary) if opts.trace => {
            summary.report(&mut report, "traced.");
            for (class, name) in [(CLASS_INSERT, "insert"), (CLASS_REMOVE_MIN, "remove_min")] {
                let lat = &summary.by_class[class];
                if !lat.is_empty() {
                    report.push(&format!("engine.op_p50_ns.{name}"), lat.percentile(50.0));
                    report.push(&format!("engine.op_p99_ns.{name}"), lat.percentile(99.0));
                }
            }
            out.counters
                .expect("traced stream snapshots")
                .report(&mut report);
        }
        Ok(summary) => summary.report(&mut report, ""),
        Err(e) if report.correct() => return Err(e),
        Err(_) => {}
    }
    if opts.trace {
        ledger::run(crate::kv::KV_READ, opts, &mut report)?;
    } else {
        report.push("peak_rss_mb", peak_rss_mb()?);
        setups.finish(
            opts.setups,
            start,
            |r| {
                drop(r);
                Ok(())
            },
            &mut report,
        )?;
    }
    Ok(report)
}

/// Throughput of the `engine-pq` stream through a reference executor
/// (the paper's Lock and TLE baselines), over `run` after a short warm-up.
///
/// # Errors
///
/// Set-up or check failures.
pub fn reference_ops_s(seed: u64, run: Duration, tle: bool) -> Result<f64, String> {
    // Each window opens only after its queue is prefilled.
    let window = || Window::new(run / 10, run);
    let out = if tle {
        Rig::new(seed, |ds, mem, rt| {
            TleExecutor::new(ds, mem, rt, TLE_ATTEMPTS)
        })?
        .stream(seed, window(), false)
    } else {
        Rig::new(seed, LockExecutor::new)?.stream(seed, window(), false)
    };
    if !out.errors.is_empty() {
        return Err(out.errors.join("; "));
    }
    let summary = out.summary?;
    Ok(summary.ops as f64 / summary.elapsed.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conservation_holds_for_a_consistent_history() {
        let prefill = Fingerprint::of([5, 9, 12]);
        let inserted = Fingerprint::of([7, 5]);
        let removed = Fingerprint::of([5, 7]);
        let fin: Vec<(u64, u64)> = [5, 9, 12].iter().map(|&k| (k, value_of(k))).collect();
        assert_eq!(check_final(prefill, inserted, removed, &fin), Ok(()));
    }

    #[test]
    fn a_lost_entry_is_rejected() {
        let prefill = Fingerprint::of([5, 9, 12]);
        let inserted = Fingerprint::of([7]);
        let removed = Fingerprint::of([5]);
        // 7 was inserted and never removed, but is gone.
        let fin: Vec<(u64, u64)> = [9, 12].iter().map(|&k| (k, value_of(k))).collect();
        assert!(check_final(prefill, inserted, removed, &fin).is_err());
        // Same count, wrong key.
        let swapped: Vec<(u64, u64)> = [8, 9, 12].iter().map(|&k| (k, value_of(k))).collect();
        assert!(check_final(prefill, inserted, removed, &swapped).is_err());
    }

    #[test]
    fn wrong_values_and_order_are_rejected() {
        let prefill = Fingerprint::of([1, 2]);
        let none = Fingerprint::default();
        assert!(check_final(prefill, none, none, &[(1, 0), (2, value_of(2))]).is_err());
        assert!(check_final(prefill, none, none, &[(2, value_of(2)), (1, value_of(1))]).is_err());
    }

    #[test]
    fn prefill_is_seeded() {
        let a = PqState::new(3).unwrap();
        let b = PqState::new(3).unwrap();
        assert_eq!(a.prefill, b.prefill);
        assert_eq!(a.contents().unwrap().len(), PREFILL);
        assert_ne!(PqState::new(4).unwrap().prefill, a.prefill);
    }
}
