//! The loopback KV workloads (`kv-read`, `kv-write`) and their checker.
//!
//! Each connection owns the keys `k` with `k % LOAD_THREADS == conn`:
//! only it writes them, so it can keep an exact sequential model of
//! their values and every reply on them must match the model. Reads of
//! the other connection's keys race with its writes, so they are only
//! checked for shape: NIL, a canonical integer, or a blob written for
//! that key (blobs embed their key). After the run every key is read
//! back and compared with its owner's model.

use std::sync::atomic::AtomicBool;

use hcf_kv::store::parse_inline_int;
use hcf_kv::{Command, KvClient, KvConfig, KvServer, Reply};
use hcf_util::dist::Zipf;
use hcf_util::rng::{Rng, SplitMix64};

use crate::json::Json;
use crate::stats::{median, ratio};
use crate::{
    drive, ledger, peak_rss_mb, sub_seed, EngineCounters, Report, RunOpts, SetupTimes, Step,
    Summary, Timed, Window, LOAD_THREADS,
};

/// The server's reply to INCR on a non-integer value: correct, not a
/// failure.
pub const NOT_INT: &str = "value is not an integer";

/// Requests kept in flight by the pipelined preload and final sweep.
const PIPELINE: usize = 32;

/// Key space, key distribution and request mix of a KV workload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KvShape {
    /// Keys `0..keys`; a multiple of [`LOAD_THREADS`].
    pub keys: u32,
    /// Zipf skew, or `None` for uniform keys.
    pub zipf_theta: Option<f64>,
    /// Percent GET.
    pub get_pct: u32,
    /// Percent SET; the rest is INCR.
    pub set_pct: u32,
}

/// `kv-read`: 4,096 Zipf(0.99) keys, 90% GET / 5% SET / 5% INCR.
pub const KV_READ: KvShape = KvShape {
    keys: 4096,
    zipf_theta: Some(0.99),
    get_pct: 90,
    set_pct: 5,
};

/// `kv-write`: 65,536 uniform keys, 10% GET / 45% SET / 45% INCR.
pub const KV_WRITE: KvShape = KvShape {
    keys: 65_536,
    zipf_theta: None,
    get_pct: 10,
    set_pct: 45,
};

/// The wire bytes of key `k`.
pub fn key_bytes(k: u32) -> Vec<u8> {
    format!("key:{k:06}").into_bytes()
}

/// The connection that owns (alone writes) key `k`.
pub fn owner(k: u32) -> usize {
    k as usize % LOAD_THREADS
}

/// A non-integer value that embeds its key.
pub fn blob(k: u32, tag: &str, seq: u64) -> Vec<u8> {
    format!("v{k}.{tag}.{seq}").into_bytes()
}

fn blob_of_key(k: u32, bytes: &[u8]) -> bool {
    bytes.starts_with(format!("v{k}.").as_bytes())
}

/// A stored value as the model sees it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Val {
    /// A canonical integer (stored inline by the server).
    Int(u64),
    /// Any other bytes (stored in the shard arena).
    Blob(Vec<u8>),
}

impl Val {
    /// The value's wire bytes.
    pub fn bytes(&self) -> Vec<u8> {
        match self {
            Val::Int(n) => n.to_string().into_bytes(),
            Val::Blob(b) => b.clone(),
        }
    }
}

/// One generated request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// `GET k`.
    Get(u32),
    /// `SET k v`.
    Set(u32, Val),
    /// `INCR k`.
    Incr(u32),
}

impl Op {
    /// The key the request targets.
    pub fn key(&self) -> u32 {
        match self {
            Op::Get(k) | Op::Set(k, _) | Op::Incr(k) => *k,
        }
    }

    /// The wire command.
    pub fn command(&self) -> Command {
        match self {
            Op::Get(k) => Command::Get(key_bytes(*k)),
            Op::Set(k, v) => Command::Set(key_bytes(*k), v.bytes()),
            Op::Incr(k) => Command::Incr(key_bytes(*k)),
        }
    }
}

/// One connection's seeded request stream.
#[derive(Clone, Debug)]
pub struct OpGen {
    shape: KvShape,
    conn: usize,
    rng: SplitMix64,
    zipf: Option<Zipf>,
    sets: u64,
}

impl OpGen {
    /// The stream of connection `conn` under `seed`.
    pub fn new(shape: KvShape, seed: u64, conn: usize) -> OpGen {
        OpGen {
            shape,
            conn,
            rng: SplitMix64::new(sub_seed(seed, 1 + conn as u64)),
            zipf: shape
                .zipf_theta
                .map(|t| Zipf::new(u64::from(shape.keys), t)),
            sets: 0,
        }
    }

    /// The next request. Writes are moved to the nearest key this
    /// connection owns; SET values alternate between integers and blobs.
    pub fn next_op(&mut self) -> Op {
        let r = self.rng.random_range(0..100u32);
        let k = match &self.zipf {
            Some(z) => z.sample(&mut self.rng) as u32,
            None => self.rng.random_range(0..self.shape.keys),
        };
        if r < self.shape.get_pct {
            return Op::Get(k);
        }
        let k = k - k % LOAD_THREADS as u32 + self.conn as u32;
        if r >= self.shape.get_pct + self.shape.set_pct {
            return Op::Incr(k);
        }
        self.sets += 1;
        let v = if self.sets.is_multiple_of(2) {
            Val::Int(self.rng.random_range(0..1_000_000u64))
        } else {
            Val::Blob(blob(k, &self.conn.to_string(), self.sets))
        };
        Op::Set(k, v)
    }
}

/// The seeded initial contents: about half the keys, alternating
/// integers and blobs.
pub fn preload_plan(shape: KvShape, seed: u64) -> Vec<Option<Val>> {
    let mut rng = SplitMix64::new(sub_seed(seed, 0));
    (0..shape.keys)
        .map(|k| {
            rng.random_bool(0.5).then(|| {
                if rng.random_bool(0.5) {
                    Val::Int(rng.random_range(0..1_000_000u64))
                } else {
                    Val::Blob(blob(k, "p", 0))
                }
            })
        })
        .collect()
}

/// Sequential model of one connection's keys.
#[derive(Clone, Debug)]
pub struct Model {
    conn: usize,
    vals: Vec<Option<Val>>,
}

impl Model {
    /// Connection `conn`'s model, starting from the preload plan.
    pub fn new(conn: usize, plan: &[Option<Val>]) -> Model {
        Model {
            conn,
            vals: plan.to_vec(),
        }
    }

    fn want_get(&self, k: u32) -> Reply {
        match &self.vals[k as usize] {
            None => Reply::Nil,
            Some(v) => Reply::Val(v.bytes()),
        }
    }

    /// Checks `reply` to `op` and applies `op` to the model. `Ok(true)`:
    /// correct; `Ok(false)`: a failed request (BUSY or a protocol ERR),
    /// which the server did not apply.
    ///
    /// # Errors
    ///
    /// A reply the server must not give.
    pub fn check(&mut self, op: &Op, reply: &Reply) -> Result<bool, String> {
        let (k, conn) = (op.key(), self.conn);
        let bad = || Err(format!("conn {conn}: {op:?} got {reply:?}"));
        if *reply == Reply::Busy {
            return Ok(false);
        }
        if let Reply::Err(msg) = reply {
            let incr_on_blob =
                matches!(op, Op::Incr(_)) && matches!(self.vals[k as usize], Some(Val::Blob(_)));
            return match (msg == NOT_INT, incr_on_blob) {
                (true, true) => Ok(true),
                (true, false) => bad(),
                (false, _) => Ok(false),
            };
        }
        if owner(k) != self.conn {
            return match (op, reply) {
                (Op::Get(_), Reply::Nil) => Ok(true),
                (Op::Get(_), Reply::Val(b))
                    if parse_inline_int(b).is_some() || blob_of_key(k, b) =>
                {
                    Ok(true)
                }
                _ => bad(),
            };
        }
        if let Op::Get(_) = op {
            return if *reply == self.want_get(k) {
                Ok(true)
            } else {
                bad()
            };
        }
        let slot = &mut self.vals[k as usize];
        match (op, reply) {
            (Op::Set(_, v), Reply::Ok) => {
                *slot = Some(v.clone());
                Ok(true)
            }
            (Op::Incr(_), Reply::Int(n)) => {
                let want = match slot {
                    None => 1,
                    Some(Val::Int(m)) => *m + 1,
                    Some(Val::Blob(_)) => return bad(),
                };
                if *n != want {
                    return bad();
                }
                *slot = Some(Val::Int(want));
                Ok(true)
            }
            _ => bad(),
        }
    }
}

/// A load connection: its client, request stream and model.
#[derive(Debug)]
pub struct Conn {
    client: KvClient,
    gen: OpGen,
    model: Model,
    /// SETs issued inside the timed window.
    pub timed_sets: u64,
}

impl Conn {
    /// One checked request.
    ///
    /// # Errors
    ///
    /// A transport error (the connection's model is then unknown) or a
    /// reply the model rules out.
    pub fn step(&mut self, timed: bool) -> Result<Step, String> {
        let op = self.gen.next_op();
        let reply = self
            .client
            .request(&op.command())
            .map_err(|e| format!("conn {}: transport error: {e}", self.model.conn))?;
        if timed && matches!(op, Op::Set(..)) {
            self.timed_sets += 1;
        }
        Ok(if self.model.check(&op, &reply)? {
            Step::Ok(0)
        } else {
            Step::Failed(0)
        })
    }

    /// Sends `ops` with [`PIPELINE`] requests in flight, passing each
    /// reply with its request to `on_reply`.
    fn pipelined(
        &mut self,
        ops: &[Op],
        mut on_reply: impl FnMut(&mut Model, &Op, Reply) -> Result<(), String>,
    ) -> Result<(), String> {
        let conn = self.model.conn;
        let io = |e: std::io::Error| format!("conn {conn}: transport error: {e}");
        let mut next_reply = 0;
        for (i, op) in ops.iter().enumerate() {
            self.client.send(&op.command()).map_err(io)?;
            if i + 1 - next_reply >= PIPELINE {
                let r = self.client.recv().map_err(io)?;
                on_reply(&mut self.model, &ops[next_reply], r)?;
                next_reply += 1;
            }
        }
        while next_reply < ops.len() {
            let r = self.client.recv().map_err(io)?;
            on_reply(&mut self.model, &ops[next_reply], r)?;
            next_reply += 1;
        }
        Ok(())
    }

    /// Stores the preload plan's values of the keys this connection owns.
    fn preload(&mut self, plan: &[Option<Val>]) -> Result<(), String> {
        let conn = self.model.conn;
        let ops: Vec<Op> = plan
            .iter()
            .enumerate()
            .filter(|&(k, _)| owner(k as u32) == conn)
            .filter_map(|(k, v)| v.clone().map(|v| Op::Set(k as u32, v)))
            .collect();
        self.pipelined(&ops, |_, op, r| match r {
            Reply::Ok => Ok(()),
            r => Err(format!("preload {op:?} got {r:?}")),
        })
    }

    /// Reads back every key this connection owns and compares it with the
    /// model.
    ///
    /// # Errors
    ///
    /// The first key whose stored value differs from the model.
    pub fn sweep(&mut self) -> Result<(), String> {
        let ops: Vec<Op> = (0..self.model.vals.len() as u32)
            .filter(|&k| owner(k) == self.model.conn)
            .map(Op::Get)
            .collect();
        self.pipelined(&ops, |m, op, r| {
            if r == m.want_get(op.key()) {
                Ok(())
            } else {
                Err(format!(
                    "final sweep: {op:?} got {r:?}, model {:?}",
                    m.want_get(op.key())
                ))
            }
        })
    }
}

/// A started server with its preloaded load connections.
#[derive(Debug)]
pub struct Rig {
    /// The in-process server.
    pub server: KvServer,
    /// One connection per load thread.
    pub conns: Vec<Conn>,
}

impl Rig {
    /// Starts `KvServer::start(KvConfig::default())`, connects
    /// `conns` clients and preloads the plan (each connection its own
    /// keys, in parallel).
    ///
    /// # Errors
    ///
    /// Start, connect or preload failures.
    pub fn start(
        shape: KvShape,
        seed: u64,
        plan: &[Option<Val>],
        conns: usize,
    ) -> Result<Rig, String> {
        let server =
            KvServer::start(KvConfig::default()).map_err(|e| format!("server start: {e}"))?;
        let mut rig = Rig {
            conns: Vec::new(),
            server,
        };
        for c in 0..conns {
            let client =
                KvClient::connect(rig.server.local_addr()).map_err(|e| format!("connect: {e}"))?;
            rig.conns.push(Conn {
                client,
                gen: OpGen::new(shape, seed, c),
                model: Model::new(c, plan),
                timed_sets: 0,
            });
        }
        std::thread::scope(|s| {
            let hs: Vec<_> = rig
                .conns
                .iter_mut()
                .map(|c| s.spawn(|| c.preload(plan)))
                .collect();
            hs.into_iter().try_for_each(|h| {
                h.join()
                    .map_err(|_| "preload thread panicked".to_string())?
            })
        })?;
        Ok(rig)
    }

    /// Closes the connections and shuts the server down.
    ///
    /// # Errors
    ///
    /// When the server reports a stall.
    pub fn stop(self) -> Result<(), String> {
        drop(self.conns);
        self.server.begin_shutdown();
        self.server
            .join()
            .map_err(|e| format!("server shutdown: {e}"))
    }
}

/// Server statistics: kv counters and engine counters over all shards,
/// read from the `STATS` document.
///
/// # Errors
///
/// When the document does not parse or lacks a member.
pub fn counters(server: &KvServer) -> Result<(KvCounters, EngineCounters), String> {
    let doc = Json::parse(&server.stats_json())?;
    let mut kv = KvCounters::default();
    let mut eng = EngineCounters::default();
    for shard in doc.arr("per_shard")? {
        kv.reqs += shard.num(&["reqs"])?;
        kv.batches += shard.num(&["batches"])?;
        kv.busy_rejects += shard.num(&["busy_rejects"])?;
        kv.dead_bytes += shard.num(&["arena", "dead_bytes"])?;
        eng.add(&EngineCounters::from_json(
            shard.get("engine").ok_or("STATS shard lacks engine")?,
        )?);
    }
    Ok((kv, eng))
}

/// What the outside of a server shows of how it built its shards: each
/// shard engine's publication-array count, and the phase in which most
/// operations completed while one client drove it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardShape {
    /// Publication arrays of each shard's engine.
    pub arrays: Vec<usize>,
    /// Index (private, visible, combining, lock) of the busiest phase.
    pub main_phase: usize,
}

/// The [`ShardShape`] of a live server, from `STATS`.
///
/// # Errors
///
/// When the document does not parse or lacks a member.
pub fn shard_shape(server: &KvServer) -> Result<ShardShape, String> {
    let doc = Json::parse(&server.stats_json())?;
    let arrays = doc
        .arr("per_shard")?
        .iter()
        .map(|shard| {
            let engine = shard.get("engine").ok_or("STATS shard lacks engine")?;
            Ok(engine.arr("arrays")?.len())
        })
        .collect::<Result<_, String>>()?;
    Ok(ShardShape {
        arrays,
        main_phase: counters(server)?.1.main_phase(),
    })
}

/// Service counters from `STATS`, summed over shards.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct KvCounters {
    /// Requests applied.
    pub reqs: f64,
    /// Engine operations (drained batches).
    pub batches: f64,
    /// Requests shed with BUSY.
    pub busy_rejects: f64,
    /// Arena bytes no longer reachable.
    pub dead_bytes: f64,
}

/// Runs one KV workload: set-up, timed closed loop on every connection,
/// final sweep; in a traced run also the per-layer ledger.
///
/// # Errors
///
/// Set-up, teardown or statistics failures.
pub fn run(shape: KvShape, opts: &RunOpts) -> Result<Report, String> {
    let plan = preload_plan(shape, opts.seed);
    let start = || Rig::start(shape, opts.seed, &plan, LOAD_THREADS);
    let mut setups = SetupTimes::default();
    let mut rig = setups.time(start)?;
    let window = Window::new(opts.warmup, opts.run);
    let abort = AtomicBool::new(false);
    let mut before = None;
    let (parts, steal): (Vec<Timed>, _) = std::thread::scope(|s| {
        let hs: Vec<_> = rig
            .conns
            .iter_mut()
            .map(|c| s.spawn(|| drive(&window, &abort, 1, |timed| c.step(timed))))
            .collect();
        let server = &rig.server;
        let steal = window.watch(|| {
            if opts.trace {
                before = Some(counters(server));
            }
        });
        let parts = hs
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Timed::panicked()))
            .collect();
        (parts, steal)
    });
    let mut report = Report {
        errors: parts.iter().filter_map(|t| t.error.clone()).collect(),
        ..Report::default()
    };
    let measured = measure(
        &rig,
        &window,
        &parts,
        steal,
        before,
        opts.trace,
        &mut report,
    );
    if report.correct() {
        for c in &mut rig.conns {
            if let Err(e) = c.sweep() {
                report.errors.push(e);
            }
        }
    }
    rig.stop()?;
    measured?;
    if opts.trace {
        ledger::run(shape, opts, &mut report)?;
    } else {
        report.push("peak_rss_mb", peak_rss_mb()?);
        setups.finish(opts.setups, start, Rig::stop, &mut report)?;
    }
    Ok(report)
}

/// Adds the timed window's metrics to `r`; in a traced run also the
/// `STATS` deltas between warm-up end (`before`) and now. A run stopped
/// by a check failure before timing anything has nothing to add.
fn measure(
    rig: &Rig,
    window: &Window,
    parts: &[Timed],
    steal: Vec<f64>,
    before: Option<Result<(KvCounters, EngineCounters), String>>,
    trace: bool,
    r: &mut Report,
) -> Result<(), String> {
    let summary = match Summary::merge(window, parts, steal) {
        Ok(s) => s,
        Err(_) if !r.correct() => return Ok(()),
        Err(e) => return Err(e),
    };
    if !trace {
        summary.report(r, "");
        return Ok(());
    }
    summary.report(r, "traced.");
    let (kv0, eng0) = before.expect("traced run snapshots at warm-up end")?;
    let (kv1, eng1) = counters(&rig.server)?;
    let sets: u64 = rig.conns.iter().map(|c| c.timed_sets).sum();
    r.push(
        "kv.avg_batch",
        ratio(kv1.reqs - kv0.reqs, kv1.batches - kv0.batches),
    );
    r.push("kv.busy_rejects", kv1.busy_rejects - kv0.busy_rejects);
    r.push(
        "arena.dead_bytes_per_set",
        ratio(kv1.dead_bytes - kv0.dead_bytes, sets as f64),
    );
    eng1.since(&eng0).report(r);
    Ok(())
}

/// Median round trip, in µs, of one connection alone on an idle
/// preloaded server, over `n` checked requests of the shape's mix; with
/// the server's [`ShardShape`].
///
/// # Errors
///
/// Set-up failures or a reply the model rules out.
pub fn client_rtt_us(shape: KvShape, seed: u64, n: usize) -> Result<(f64, ShardShape), String> {
    let plan = preload_plan(shape, seed);
    let mut rig = Rig::start(shape, seed, &plan, 1)?;
    let conn = &mut rig.conns[0];
    let mut rtts = Vec::with_capacity(n);
    let mut res = Ok(());
    for _ in 0..n.max(1) {
        let t0 = std::time::Instant::now();
        if let Err(e) = conn.step(false) {
            res = Err(e);
            break;
        }
        rtts.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    let res = res
        .and_then(|()| conn.sweep())
        .and_then(|()| shard_shape(&rig.server));
    rig.stop()?;
    res.map(|shards| (median(&rtts), shards))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model_with(k: u32, v: Option<Val>) -> Model {
        let mut plan = vec![None; 8];
        plan[k as usize] = v;
        Model::new(owner(k), &plan)
    }

    #[test]
    fn owned_replies_must_match_the_model_exactly() {
        let mut m = model_with(2, Some(Val::Int(41)));
        assert_eq!(m.check(&Op::Get(2), &Reply::Val(b"41".to_vec())), Ok(true));
        assert_eq!(m.check(&Op::Incr(2), &Reply::Int(42)), Ok(true));
        // A seeded wrong reply: the stale value, a wrong INCR, a lost SET.
        assert!(m.check(&Op::Get(2), &Reply::Val(b"41".to_vec())).is_err());
        assert!(m.check(&Op::Incr(2), &Reply::Int(42)).is_err());
        assert!(m.check(&Op::Get(4), &Reply::Val(b"1".to_vec())).is_err());
        let v = Val::Blob(blob(2, "0", 1));
        assert_eq!(m.check(&Op::Set(2, v.clone()), &Reply::Ok), Ok(true));
        assert!(m.check(&Op::Get(2), &Reply::Val(b"42".to_vec())).is_err());
        assert_eq!(m.check(&Op::Get(2), &Reply::Val(v.bytes())), Ok(true));
    }

    #[test]
    fn incr_on_a_blob_must_be_refused() {
        let mut m = model_with(2, Some(Val::Blob(blob(2, "p", 0))));
        assert_eq!(m.check(&Op::Incr(2), &Reply::Err(NOT_INT.into())), Ok(true));
        assert!(m.check(&Op::Incr(2), &Reply::Int(1)).is_err());
        let mut ints = model_with(2, Some(Val::Int(5)));
        assert!(ints
            .check(&Op::Incr(2), &Reply::Err(NOT_INT.into()))
            .is_err());
    }

    #[test]
    fn foreign_reads_are_checked_for_shape() {
        let mut m = model_with(2, None);
        assert_eq!(m.check(&Op::Get(3), &Reply::Nil), Ok(true));
        assert_eq!(m.check(&Op::Get(3), &Reply::Val(b"17".to_vec())), Ok(true));
        assert_eq!(m.check(&Op::Get(3), &Reply::Val(blob(3, "1", 9))), Ok(true));
        // Another key's blob, a non-canonical integer, a wrong reply kind.
        assert!(m.check(&Op::Get(3), &Reply::Val(blob(5, "1", 9))).is_err());
        assert!(m.check(&Op::Get(3), &Reply::Val(b"017".to_vec())).is_err());
        assert!(m.check(&Op::Get(3), &Reply::Ok).is_err());
    }

    #[test]
    fn busy_and_protocol_errors_are_failures_not_check_failures() {
        let mut m = model_with(2, None);
        assert_eq!(m.check(&Op::Set(2, Val::Int(1)), &Reply::Busy), Ok(false));
        assert_eq!(
            m.check(&Op::Get(2), &Reply::Err("shutting down".into())),
            Ok(false)
        );
        assert_eq!(m.check(&Op::Get(2), &Reply::Nil), Ok(true));
    }

    #[test]
    fn generator_is_seeded_and_writes_only_owned_keys() {
        let a: Vec<Op> = {
            let mut g = OpGen::new(KV_WRITE, 7, 1);
            (0..2000).map(|_| g.next_op()).collect()
        };
        let mut g = OpGen::new(KV_WRITE, 7, 1);
        assert!(a.iter().all(|op| *op == g.next_op()));
        assert!(a
            .iter()
            .filter(|op| !matches!(op, Op::Get(_)))
            .all(|op| owner(op.key()) == 1));
        let sets = a.iter().filter(|op| matches!(op, Op::Set(..))).count();
        assert!((800..1000).contains(&sets), "{sets} SETs of 2000");
        assert_ne!(preload_plan(KV_READ, 1), preload_plan(KV_READ, 2));
    }
}
