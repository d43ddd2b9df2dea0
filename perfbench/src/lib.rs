//! # perfbench — the repository's end-to-end and per-layer benchmark
//!
//! Three closed-loop workloads, each driven by [`LOAD_THREADS`] load
//! threads from one process (see `README.md` for why each was chosen):
//!
//! * [`Workload::KvRead`] / [`Workload::KvWrite`] — an in-process
//!   `hcf-kv` server on loopback, one [`hcf_kv::KvClient`] connection
//!   per load thread ([`kv`]).
//! * [`Workload::EnginePq`] — no network: load threads call
//!   `HcfEngine::execute` on the skip-list priority queue ([`pq`]).
//!
//! An untraced run (`--trace 0`) reports [`END_TO_END`]; a traced run
//! (`--trace 1`) repeats the workload, reports its end-to-end numbers
//! under `traced.*` so the cost of tracing shows, and adds the per-layer
//! ledger ([`ledger`]), measured by timing calls into each layer's public
//! functions from this crate. Every run checks the program's replies
//! against a model; a failed check makes the run incorrect.

pub mod json;
pub mod kv;
pub mod ledger;
pub mod pq;
pub mod stats;

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use hcf_core::ExecStatsSnapshot;

use crate::json::Json;
use crate::stats::{median, ratio, Histogram};

/// Load threads (and, for kv, client connections). Fixed rather than
/// taken from the host so results stay comparable; it equals `nproc` on
/// the 2-core reference host, and the header records the real `nproc`.
pub const LOAD_THREADS: usize = 2;

/// End-to-end metrics, reported by every untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_ops_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("ok_share", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every traced run: `(name, unit)`. A
/// layer the workload does not reach reports 0 (see `README.md`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("traced.throughput_ops_s", "1/s"),
    ("traced.latency_p50_us", "us"),
    ("traced.latency_p99_us", "us"),
    ("wire.encode_ns", "ns"),
    ("wire.decode_ns", "ns"),
    ("route.ns", "ns"),
    ("handoff.rtt_ns", "ns"),
    ("client.rtt_us", "us"),
    ("service.residual_us", "us"),
    ("kv.avg_batch", "count"),
    ("kv.busy_rejects", "count"),
    ("store.codec_ns", "ns"),
    ("store.direct_ns", "ns"),
    ("arena.dead_bytes_per_set", "B"),
    ("tm.tx_ns.kv", "ns"),
    ("tm.tx_ns.insert", "ns"),
    ("tm.tx_ns.remove_min", "ns"),
    ("tm.commit_ratio", "ratio"),
    ("tm.abort.conflict", "1/op"),
    ("tm.abort.capacity", "1/op"),
    ("tm.abort.explicit", "1/op"),
    ("engine.execute_ns.kv", "ns"),
    ("engine.phase_share.private", "ratio"),
    ("engine.phase_share.visible", "ratio"),
    ("engine.phase_share.combining", "ratio"),
    ("engine.phase_share.lock", "ratio"),
    ("engine.avg_degree", "count"),
    ("engine.lock_acqs_per_kop", "count"),
    ("engine.op_p50_ns.insert", "ns"),
    ("engine.op_p50_ns.remove_min", "ns"),
    ("engine.op_p99_ns.insert", "ns"),
    ("engine.op_p99_ns.remove_min", "ns"),
    ("ds.direct_ns.insert", "ns"),
    ("ds.direct_ns.remove_min", "ns"),
    ("ref.lock_ops_s", "1/s"),
    ("ref.tle_ops_s", "1/s"),
];

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Loopback KV, Zipf keys, 90% GET: the front end dominates.
    KvRead,
    /// Loopback KV, uniform keys over long chains, 90% writes: the store
    /// does its distinctive work.
    KvWrite,
    /// Skip-list priority queue through the HCF engine, 50% RemoveMin:
    /// the paper's motivating contention case.
    EnginePq,
}

impl Workload {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::KvRead, Workload::KvWrite, Workload::EnginePq];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::KvRead => "kv-read",
            Workload::KvWrite => "kv-write",
            Workload::EnginePq => "engine-pq",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Runs the workload once, with its output checks.
    ///
    /// # Errors
    ///
    /// Set-up or teardown failures that leave no result to report.
    pub fn run(self, opts: &RunOpts) -> Result<Report, String> {
        match self {
            Workload::KvRead => kv::run(kv::KV_READ, opts),
            Workload::KvWrite => kv::run(kv::KV_WRITE, opts),
            Workload::EnginePq => pq::run(opts),
        }
    }
}

/// How one run is sized.
#[derive(Clone, Debug)]
pub struct RunOpts {
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Untimed load before the timed window (caches fill, lazy set-up
    /// finishes).
    pub warmup: Duration,
    /// The timed window.
    pub run: Duration,
    /// Set-ups an untraced run times (see [`SetupTimes`]); `setup_s` is
    /// their median.
    pub setups: usize,
    /// Traced run: per-layer ledger instead of the end-to-end metrics.
    pub trace: bool,
    /// Operations per pass of each single-threaded ledger probe.
    pub probe_ops: usize,
    /// Timed window of each ledger run that needs load threads.
    pub probe_run: Duration,
}

impl RunOpts {
    /// The sizing the command line uses for `--seconds seconds`.
    pub fn for_seconds(seed: u64, seconds: u64, trace: bool) -> RunOpts {
        let run = Duration::from_secs(seconds);
        RunOpts {
            seed,
            warmup: (run / 10).min(Duration::from_secs(1)),
            run,
            setups: 9,
            trace,
            probe_ops: 20_000,
            probe_run: Duration::from_secs(1),
        }
    }

    /// A run small enough for unit tests.
    pub fn tiny(seed: u64, trace: bool) -> RunOpts {
        RunOpts {
            seed,
            warmup: Duration::from_millis(20),
            run: Duration::from_millis(150),
            setups: 2,
            trace,
            probe_ops: 200,
            probe_run: Duration::from_millis(60),
        }
    }
}

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as listed in [`END_TO_END`] or [`PER_LAYER`].
    pub name: String,
    /// Value as measured.
    pub value: f64,
}

/// The outcome of one run.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Failed output checks; empty means correct.
    pub errors: Vec<String>,
    /// Operations attempted in the timed window.
    pub attempted: u64,
    /// Of those, operations that failed (BUSY, protocol ERR, panic).
    pub failed: u64,
    /// Set-ups made; `setup_s` is their median.
    pub setup_runs: usize,
    /// Latency samples behind the percentiles.
    pub samples: u64,
    /// Per slice of the timed window: throughput (1/s), p50 and p99 (µs),
    /// host steal share.
    pub slices: Vec<[f64; 4]>,
    /// Measured metrics.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// Records a metric.
    pub fn push(&mut self, name: &str, value: f64) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
        });
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, the latter holding every metric of `catalog` in order
    /// (absent ones as 0).
    pub fn result_line(&self, catalog: &[(&str, &str)]) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        ));
        for (i, (name, unit)) in catalog.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            json::write_str(&mut out, name);
            out.push_str(": {\"value\": ");
            json::write_num(&mut out, self.get(name).unwrap_or(0.0));
            out.push_str(", \"unit\": ");
            json::write_str(&mut out, unit);
            out.push('}');
        }
        out.push_str("}}");
        out
    }
}

/// Start of the timed window, its end, and the equal slices it is cut
/// into (one per second, at least five).
#[derive(Clone, Copy, Debug)]
pub struct Window {
    /// Operations that start before this are warm-up, not timed.
    pub warm_end: Instant,
    /// No operation starts after this.
    pub deadline: Instant,
    slices: usize,
    slice: Duration,
}

impl Window {
    /// A window opening after `warmup` from now and lasting `run`.
    pub fn new(warmup: Duration, run: Duration) -> Window {
        let warm_end = Instant::now() + warmup;
        let slices = (run.as_secs() as usize).max(5);
        Window {
            warm_end,
            deadline: warm_end + run,
            slices,
            slice: run / slices as u32,
        }
    }

    /// Run on the main thread while the load threads work: calls
    /// `at_warm_end` when the timed window opens, then returns the share
    /// of CPU time the host stole from this VM in each slice (`steal` in
    /// `/proc/stat`; empty where that is unavailable). Steal shows which
    /// seconds the shared host disturbed.
    pub fn watch(&self, at_warm_end: impl FnOnce()) -> Vec<f64> {
        sleep_until(self.warm_end);
        at_warm_end();
        let mut last = cpu_ticks();
        let mut shares = Vec::with_capacity(self.slices);
        for i in 1..=self.slices {
            sleep_until(self.warm_end + self.slice * i as u32);
            let now = cpu_ticks();
            if let (Some((s0, t0)), Some((s1, t1))) = (last, now) {
                shares.push(ratio(
                    s1.saturating_sub(s0) as f64,
                    t1.saturating_sub(t0) as f64,
                ));
            }
            last = now;
        }
        shares
    }

    /// The slice an operation completing at `t` is counted in; one that
    /// completes after the deadline counts in the last.
    fn slice_of(&self, t: Instant) -> usize {
        let since = t.saturating_duration_since(self.warm_end).as_nanos();
        ((since / self.slice.as_nanos().max(1)) as usize).min(self.slices - 1)
    }
}

/// What one operation did, with its latency class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// Completed as the program promises.
    Ok(usize),
    /// Failed (BUSY, protocol ERR, panic); counted, not a check failure.
    Failed(usize),
}

/// One load thread's own stamps and samples.
#[derive(Clone, Debug, Default)]
pub struct Timed {
    /// Start of its first timed operation.
    pub start: Option<Instant>,
    /// Completion of its last timed operation.
    pub end: Option<Instant>,
    /// Timed operations.
    pub ops: u64,
    /// Timed operations that failed.
    pub failed: u64,
    /// Latencies in ns (saturating at `u32::MAX`) per class, whole window.
    pub class_lat: Vec<Histogram>,
    /// Operations completed in each slice of the window.
    pub slice_ops: Vec<u64>,
    /// Latencies of the operations completed in each slice.
    pub slice_lat: Vec<Histogram>,
    /// The check failure that stopped this thread, if any.
    pub error: Option<String>,
}

impl Timed {
    /// A thread that panicked: no samples, one error.
    pub fn panicked() -> Timed {
        Timed {
            error: Some("load thread panicked".into()),
            ..Timed::default()
        }
    }
}

/// Closed loop: calls `step(timed)` back to back until the window's
/// deadline or until any thread raises `abort`. Each call is stamped on
/// both sides; calls starting inside the window are timed. A check
/// failure (`Err` from `step`) is kept in [`Timed::error`] and raises
/// `abort` so the other threads stop too.
pub fn drive(
    window: &Window,
    abort: &AtomicBool,
    classes: usize,
    mut step: impl FnMut(bool) -> Result<Step, String>,
) -> Timed {
    let mut t = Timed {
        class_lat: vec![Histogram::default(); classes],
        slice_ops: vec![0; window.slices],
        slice_lat: vec![Histogram::default(); window.slices],
        ..Timed::default()
    };
    loop {
        let t0 = Instant::now();
        if t0 >= window.deadline || abort.load(Ordering::Relaxed) {
            return t;
        }
        let timed = t0 >= window.warm_end;
        let res = step(timed);
        let t1 = Instant::now();
        let step = match res {
            Ok(s) => s,
            Err(e) => {
                abort.store(true, Ordering::Relaxed);
                t.error = Some(e);
                return t;
            }
        };
        if timed {
            let (class, ok) = match step {
                Step::Ok(c) => (c, true),
                Step::Failed(c) => (c, false),
            };
            t.start.get_or_insert(t0);
            t.end = Some(t1);
            t.ops += 1;
            t.failed += u64::from(!ok);
            let ns = u32::try_from((t1 - t0).as_nanos()).unwrap_or(u32::MAX);
            t.class_lat[class].record(ns);
            let i = window.slice_of(t1);
            t.slice_ops[i] += 1;
            t.slice_lat[i].record(ns);
        }
    }
}

/// The load threads' samples merged.
#[derive(Clone, Debug)]
pub struct Summary {
    /// Timed operations across threads.
    pub ops: u64,
    /// Of those, failed.
    pub failed: u64,
    /// Latest end stamp minus earliest start stamp.
    pub elapsed: Duration,
    /// Latencies per class over the whole window.
    pub by_class: Vec<Histogram>,
    /// Length of one slice of the window.
    pub slice: Duration,
    /// Operations completed in each slice, all threads.
    pub slice_ops: Vec<u64>,
    /// Latencies per slice, all threads.
    pub slice_lat: Vec<Histogram>,
    /// Host steal share per slice (see [`Window::watch`]).
    pub slice_steal: Vec<f64>,
}

impl Summary {
    /// Merges per-thread results.
    ///
    /// # Errors
    ///
    /// When no thread completed a timed operation.
    pub fn merge(window: &Window, parts: &[Timed], steal: Vec<f64>) -> Result<Summary, String> {
        let start = parts.iter().filter_map(|t| t.start).min();
        let end = parts.iter().filter_map(|t| t.end).max();
        let (Some(start), Some(end)) = (start, end) else {
            return Err("no operation completed inside the timed window".into());
        };
        let classes = parts.iter().map(|t| t.class_lat.len()).max().unwrap_or(0);
        let mut s = Summary {
            ops: parts.iter().map(|t| t.ops).sum(),
            failed: parts.iter().map(|t| t.failed).sum(),
            elapsed: end - start,
            by_class: vec![Histogram::default(); classes],
            slice: window.slice,
            slice_ops: vec![0; window.slices],
            slice_lat: vec![Histogram::default(); window.slices],
            slice_steal: steal,
        };
        for t in parts {
            for (acc, h) in s.by_class.iter_mut().zip(&t.class_lat) {
                acc.merge(h);
            }
            for (acc, n) in s.slice_ops.iter_mut().zip(&t.slice_ops) {
                *acc += n;
            }
            for (acc, h) in s.slice_lat.iter_mut().zip(&t.slice_lat) {
                acc.merge(h);
            }
        }
        Ok(s)
    }

    /// Fills the report's counts and the timed end-to-end metrics, under
    /// `prefix` (`""` untraced, `"traced."` traced).
    ///
    /// Every metric covers the whole window, so a tail confined to a few
    /// seconds of it still counts. The per-second slices go to the
    /// header, where such seconds show.
    pub fn report(&self, r: &mut Report, prefix: &str) {
        let mut all = Histogram::default();
        self.slice_lat.iter().for_each(|h| all.merge(h));
        r.attempted = self.ops;
        r.failed = self.failed;
        r.samples = all.len();
        r.slices = self
            .slice_ops
            .iter()
            .zip(&self.slice_lat)
            .enumerate()
            .filter(|(_, (_, h))| !h.is_empty())
            .map(|(i, (&n, h))| {
                [
                    n as f64 / self.slice.as_secs_f64(),
                    h.percentile(50.0) / 1e3,
                    h.percentile(99.0) / 1e3,
                    self.slice_steal.get(i).copied().unwrap_or(0.0),
                ]
            })
            .collect();
        r.push(
            &format!("{prefix}throughput_ops_s"),
            self.ops as f64 / self.elapsed.as_secs_f64(),
        );
        r.push(
            &format!("{prefix}latency_p50_us"),
            all.percentile(50.0) / 1e3,
        );
        r.push(
            &format!("{prefix}latency_p99_us"),
            all.percentile(99.0) / 1e3,
        );
        if prefix.is_empty() {
            r.push(
                "ok_share",
                (self.ops - self.failed) as f64 / self.ops as f64,
            );
        }
    }
}

/// Set-up times of one run. The run times its first set-up, uses it for
/// the workload and reads `peak_rss_mb`; only then does it time the
/// remaining set-ups, each torn down at once, so that repeating the
/// set-up leaves `peak_rss_mb` alone. Teardown is not timed.
#[derive(Clone, Debug, Default)]
pub struct SetupTimes(Vec<f64>);

impl SetupTimes {
    /// Times one call of `setup`.
    ///
    /// # Errors
    ///
    /// `setup`'s failure.
    pub fn time<T>(&mut self, setup: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
        let t0 = Instant::now();
        let out = setup()?;
        self.0.push(t0.elapsed().as_secs_f64());
        Ok(out)
    }

    /// Times further set-ups, tearing each down, until `total` are timed;
    /// then reports `setup_s` (their median) and the count into `r`.
    ///
    /// # Errors
    ///
    /// The first set-up or teardown failure.
    pub fn finish<T>(
        mut self,
        total: usize,
        mut setup: impl FnMut() -> Result<T, String>,
        mut teardown: impl FnMut(T) -> Result<(), String>,
        r: &mut Report,
    ) -> Result<(), String> {
        while self.0.len() < total {
            let t = self.time(&mut setup)?;
            teardown(t)?;
        }
        r.setup_runs = self.0.len();
        r.push("setup_s", median(&self.0));
        Ok(())
    }
}

/// Engine counters summed over one or more engines, as `f64` so deltas
/// and ratios read directly.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EngineCounters {
    /// Completed operations per phase (private, visible, combining, lock).
    pub phase: [f64; 4],
    /// Combiner sessions.
    pub sessions: f64,
    /// Operations applied by combiner sessions.
    pub helped: f64,
    /// Fallback-lock acquisitions.
    pub lock_acqs: f64,
    /// Speculative attempts.
    pub attempts: f64,
    /// Committed speculative attempts.
    pub commits: f64,
    /// Aborts by cause.
    pub conflicts: f64,
    /// Capacity (and out-of-memory) aborts.
    pub capacity: f64,
    /// Explicit aborts (lock subscription, status changes).
    pub explicit: f64,
}

impl EngineCounters {
    /// From an in-process snapshot.
    pub fn from_snapshot(s: &ExecStatsSnapshot) -> EngineCounters {
        let (mut sessions, mut helped) = (0, 0);
        for a in &s.arrays {
            sessions += a.sessions;
            helped += a.helped_ops;
        }
        EngineCounters {
            phase: s.completed_by_phase().map(|c| c as f64),
            sessions: sessions as f64,
            helped: helped as f64,
            lock_acqs: s.lock_acqs as f64,
            attempts: s.htm_attempts as f64,
            commits: s.htm_commits as f64,
            conflicts: s.htm_conflicts as f64,
            capacity: s.htm_capacity as f64,
            explicit: s.htm_explicit as f64,
        }
    }

    /// From one engine object of the `STATS` document.
    ///
    /// # Errors
    ///
    /// When a member is missing.
    pub fn from_json(e: &Json) -> Result<EngineCounters, String> {
        let mut c = EngineCounters {
            lock_acqs: e.num(&["lock_acqs"])?,
            attempts: e.num(&["htm_attempts"])?,
            commits: e.num(&["htm_commits"])?,
            conflicts: e.num(&["htm_conflicts"])?,
            capacity: e.num(&["htm_capacity"])?,
            explicit: e.num(&["htm_explicit"])?,
            ..EngineCounters::default()
        };
        for a in e.arr("arrays")? {
            c.sessions += a.num(&["sessions"])?;
            c.helped += a.num(&["helped_ops"])?;
            for (p, v) in c.phase.iter_mut().zip(a.arr("completed")?) {
                match v {
                    Json::Num(n) => *p += n,
                    _ => return Err("STATS completed holds a non-number".into()),
                }
            }
        }
        Ok(c)
    }

    /// Counter-wise sum.
    pub fn add(&mut self, o: &EngineCounters) {
        *self = self.zip(o, |a, b| a + b);
    }

    /// What happened between `earlier` and `self`.
    pub fn since(&self, earlier: &EngineCounters) -> EngineCounters {
        self.zip(earlier, |a, b| a - b)
    }

    fn zip(&self, o: &EngineCounters, f: impl Fn(f64, f64) -> f64) -> EngineCounters {
        EngineCounters {
            phase: std::array::from_fn(|i| f(self.phase[i], o.phase[i])),
            sessions: f(self.sessions, o.sessions),
            helped: f(self.helped, o.helped),
            lock_acqs: f(self.lock_acqs, o.lock_acqs),
            attempts: f(self.attempts, o.attempts),
            commits: f(self.commits, o.commits),
            conflicts: f(self.conflicts, o.conflicts),
            capacity: f(self.capacity, o.capacity),
            explicit: f(self.explicit, o.explicit),
        }
    }

    /// Index (private, visible, combining, lock) of the phase in which
    /// most operations completed.
    pub fn main_phase(&self) -> usize {
        (0..4).fold(0, |best, i| {
            if self.phase[i] > self.phase[best] {
                i
            } else {
                best
            }
        })
    }

    /// The engine and TM layer metrics these counters give.
    pub fn report(&self, r: &mut Report) {
        let ops: f64 = self.phase.iter().sum();
        for (i, name) in ["private", "visible", "combining", "lock"]
            .iter()
            .enumerate()
        {
            r.push(
                &format!("engine.phase_share.{name}"),
                ratio(self.phase[i], ops),
            );
        }
        r.push("engine.avg_degree", ratio(self.helped, self.sessions));
        r.push("engine.lock_acqs_per_kop", ratio(self.lock_acqs * 1e3, ops));
        r.push("tm.commit_ratio", ratio(self.commits, self.attempts));
        r.push("tm.abort.conflict", ratio(self.conflicts, ops));
        r.push("tm.abort.capacity", ratio(self.capacity, ops));
        r.push("tm.abort.explicit", ratio(self.explicit, ops));
    }
}

/// Runs `f` while one idle-priority spinner per CPU keeps the CPUs from
/// halting, and returns its result with the number of spinners that ran.
///
/// A spinner runs under `SCHED_IDLE`, so any thread of the program
/// preempts it at once. What it removes is the halt: on a virtual
/// machine a halted vCPU that is woken waits for the host to schedule
/// it again, and on a shared host that wait (shown as steal) dominated
/// the kv round trips and varied 2–4× between runs. A spinner that cannot
/// lower its priority stops at once rather than compete with the program.
pub fn with_idle_spinners<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let stop = AtomicBool::new(false);
    let running = AtomicUsize::new(0);
    let out = std::thread::scope(|s| {
        for _ in 0..cpus {
            s.spawn(|| {
                if !sched_idle() {
                    return;
                }
                running.fetch_add(1, Ordering::Relaxed);
                while !stop.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            });
        }
        let out = f();
        stop.store(true, Ordering::Relaxed);
        out
    });
    (out, running.into_inner())
}

/// Moves the calling thread to `SCHED_IDLE`; false where that fails.
#[cfg(target_os = "linux")]
fn sched_idle() -> bool {
    #[repr(C)]
    struct SchedParam {
        priority: i32,
    }
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
    const SCHED_IDLE: i32 = 5;
    // SAFETY: pid 0 names the calling thread, and `param` points to a
    // live `struct sched_param` for the duration of the call.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &SchedParam { priority: 0 }) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn sched_idle() -> bool {
    false
}

/// Host steal and total CPU ticks so far, over all CPUs.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Sleeps until `t` (no-op if it has passed).
pub fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Derives an independent 64-bit seed for `stream` from the run seed.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    use hcf_util::rng::{Rng, SplitMix64};
    SplitMix64::new(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// The process's peak resident set (`VmHWM`) in MiB.
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or lacks `VmHWM`.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}
