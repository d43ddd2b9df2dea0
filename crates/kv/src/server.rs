//! The sharded KV server: TCP front-end, per-shard queues and claims,
//! watchdog, and graceful shutdown.
//!
//! # Architecture
//!
//! ```text
//! conn threads (1/connection)
//!   parse frame → Command
//!   route keys by shard hash
//!   try_push onto the shard queue (bounded; BUSY if full)
//!   try_claim the shard ─┬─ won:  drain the queue, each drain = ONE
//!                        │        engine op on this thread (batch =
//!                        │        combined tx), fill every drained
//!                        │        request's ReplySlot, release when empty
//!                        └─ lost: wait on the ReplySlot; the owner fills it
//! ```
//!
//! Every shard is an independent [`HcfEngine`] over its own
//! transactional memory, publication arrays, and fallback lock —
//! the paper's multiple-publication-array design pushed up to the
//! service layer. There is no worker pool: as in the paper (§2.1–2.2),
//! a requester that finds its shard free applies its own request on its
//! own thread, and only a requester that finds the shard owned leaves
//! its request announced in the queue and waits. The owner turns the
//! whole backlog into a single [`KvBatch`] executed as one engine
//! operation, so the deeper the queue, the larger the combined
//! transaction: *batching is combining*, and the per-shard `avg_batch`
//! statistic is the service's combining degree. On the uncontended
//! path a request never crosses threads.
//!
//! A requester holds at most one claim at a time and serves its shard
//! until the queue is empty before it moves on, so an MGET that spans
//! shards cannot deadlock. A waiter spins briefly and then parks on its
//! reply's [`Gate`]; it never polls with yields or sleeps.
//!
//! Backpressure is the queue bound ([`KvConfig::queue_cap`]): a full
//! queue sheds the request with a structured `BUSY` reply rather than
//! buffering unboundedly. A monitor thread reuses
//! [`hcf_sim::progress`]'s meter/tracker (the same stall semantics as
//! the native driver) and declares the server stalled only when some
//! accepted request is still unanswered yet no shard completes anything
//! for [`KvConfig::watchdog_ms`].
//!
//! A connection's replies coalesce until it would block: each reply is
//! queued in the connection's [`FlushOnRead`], and the queue goes out in
//! one write just before the next read of the socket. The connection's
//! `BufReader` reads only when its buffer is empty, so the replies to
//! every request one read brought in share a single write, while a
//! client with one request in flight sees the same write per reply as
//! before. The queue is written out when the connection thread ends,
//! and before a `SHUTDOWN` starts the drain.
//!
//! The acceptor blocks in `accept`; shutdown wakes it with a loopback
//! connection of its own.

use std::collections::HashMap;
use std::io::{self, BufReader};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{JoinHandle, Thread};
use std::time::Duration;

use hcf_core::{HcfConfig, HcfEngine};
use hcf_ds::HashTable;
use hcf_sim::progress::{Liveness, ProgressMeter, StallTracker};
use hcf_tmem::runtime::Runtime;
use hcf_tmem::{DirectCtx, RealRuntime, TMem, TMemConfig};
use hcf_util::frame::{read_frame, FlushOnRead, FrameLimits};
use hcf_util::shard::{shard_of, table_key};
use hcf_util::sync::Mutex;

use crate::proto::{Command, Reply};
use crate::queue::{BoundedQueue, Gate, PushError};
use crate::store::{decode_value, encode_value, Arena, KvBatch, KvOp, KvRes, KvShardDs};

/// How long a requester whose shard is owned spins on its reply before
/// it parks. Most replies arrive within one engine batch (a few µs);
/// parking earlier costs a futex wake per request, and on a host with
/// fewer cores than threads that wake tends to leave a client and its
/// connection thread sharing one core (EXPERIMENTS.md, "Claiming the
/// shard"). Timed with the server's runtime clock.
const SPIN_NS: u64 = 20_000;

/// How often the monitor checks the watchdog. Shutdown does not wait
/// for it: `begin_shutdown` wakes the monitor.
const MONITOR_PERIOD: Duration = Duration::from_millis(10);

/// How long one connect that wakes the acceptor may take. A wake that
/// times out is repeated by `join`.
const WAKE_TIMEOUT: Duration = Duration::from_millis(100);

/// Server configuration. `Default` gives a loopback server on an
/// ephemeral port with 8 shards.
#[derive(Clone, Debug)]
pub struct KvConfig {
    /// Bind address, e.g. `"127.0.0.1:0"` for an ephemeral port.
    pub addr: String,
    /// Number of independent storage shards (engines).
    pub shards: usize,
    /// Per-shard queue bound — the backpressure limit.
    pub queue_cap: usize,
    /// Most queued requests drained into one engine operation.
    pub batch_max: usize,
    /// Hash-table buckets per shard.
    pub buckets_per_shard: u64,
    /// Transactional-memory words per shard.
    pub words_per_shard: usize,
    /// Stall deadline: backlog present but nothing completing.
    pub watchdog_ms: u64,
    /// Wire-format limits (max args per frame, max bytes per arg).
    pub limits: FrameLimits,
}

impl Default for KvConfig {
    fn default() -> Self {
        KvConfig {
            addr: "127.0.0.1:0".into(),
            shards: 8,
            queue_cap: 128,
            batch_max: 64,
            buckets_per_shard: 1024,
            words_per_shard: 1 << 19,
            watchdog_ms: 5_000,
            limits: FrameLimits::default(),
        }
    }
}

impl KvConfig {
    /// Builder-style bind-address override.
    pub fn with_addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Builder-style shard-count override.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Builder-style queue-bound override.
    pub fn with_queue_cap(mut self, cap: usize) -> Self {
        self.queue_cap = cap.max(1);
        self
    }

    /// Builder-style batch-size override.
    pub fn with_batch_max(mut self, max: usize) -> Self {
        self.batch_max = max.max(1);
        self
    }

    /// Builder-style watchdog-deadline override.
    pub fn with_watchdog_ms(mut self, ms: u64) -> Self {
        self.watchdog_ms = ms.max(1);
        self
    }
}

/// One per-key operation as routed by a connection thread (keys already
/// hashed; values still raw — encoding needs the target shard's arena,
/// which only the shard's owner touches).
#[derive(Debug)]
enum ShardOp {
    Get(u64),
    Set(u64, Vec<u8>),
    Del(u64),
    Incr(u64),
}

/// Decoded per-operation outcome handed back to the requester.
#[derive(Debug, PartialEq, Eq)]
enum OpOut {
    /// SET applied.
    Done,
    /// GET missed.
    Nil,
    /// GET hit.
    Bytes(Vec<u8>),
    /// INCR result or DEL existed-count.
    Int(u64),
    /// INCR on a non-integer value.
    NotInt,
}

/// One-shot rendezvous between a requester and the shard's owner (who
/// may be the requester itself).
#[derive(Debug, Default)]
struct ReplySlot {
    outs: Mutex<Option<Vec<OpOut>>>,
    filled: AtomicBool,
    gate: Gate,
}

impl ReplySlot {
    fn fill(&self, outs: Vec<OpOut>) {
        *self.outs.lock() = Some(outs);
        // Release pairs with the Acquire loads in `wait`: a waiter that
        // sees the flag finds the outcomes in `outs`.
        self.filled.store(true, Ordering::Release);
        self.gate.notify();
    }

    /// Waits until the owner fills the slot: spins for [`SPIN_NS`] on
    /// `clock`, then parks on the gate. Unbounded by design: every
    /// queued request is guaranteed a fill on the normal and shutdown
    /// paths; only a watchdog-declared stall abandons waiters (and a
    /// stall is fatal diagnostics, like [`NativeError::Stalled`]).
    ///
    /// [`NativeError::Stalled`]: hcf_sim::native::NativeError
    fn wait(&self, clock: &RealRuntime) -> Vec<OpOut> {
        if !self.filled.load(Ordering::Acquire) {
            let deadline = clock.now() + SPIN_NS;
            while !self.filled.load(Ordering::Acquire) && clock.now() < deadline {
                std::hint::spin_loop();
            }
            // `fill` sets the flag before it notifies, so a notify that
            // lands between this check and the wait is not lost.
            while !self.filled.load(Ordering::Acquire) {
                self.gate.wait();
            }
        }
        self.outs
            .lock()
            .take()
            .expect("a filled slot holds its outcomes")
    }
}

/// A queued request: one or more ops for a single shard plus the slot
/// awaiting their outcomes.
#[derive(Debug)]
struct Pending {
    ops: Vec<ShardOp>,
    slot: Arc<ReplySlot>,
}

/// One storage shard: engine + arena + queue + counters.
struct KvShard {
    engine: HcfEngine<KvShardDs>,
    /// The engine's runtime; the claim holder registers on it.
    rt: Arc<RealRuntime>,
    arena: Arena,
    queue: BoundedQueue<Pending>,
    /// Requests pushed onto `queue` (see [`ServerInner::unanswered`]).
    accepted: AtomicU64,
    batches: AtomicU64,
    reqs: AtomicU64,
    ops: AtomicU64,
    max_batch: AtomicU64,
    busy_rejects: AtomicU64,
}

impl KvShard {
    /// Builds one shard's table and engine.
    ///
    /// # Panics
    ///
    /// Panics if the configured transactional memory cannot hold the
    /// table and the engine (a static misconfiguration).
    fn new(cfg: &KvConfig) -> KvShard {
        let mem = Arc::new(TMem::new(
            TMemConfig::default().with_words(cfg.words_per_shard),
        ));
        // Setup uses its own throwaway runtime so the constructing
        // thread never takes a dense id on the shard's runtime.
        let setup_rt = RealRuntime::new();
        let table = {
            let mut ctx = DirectCtx::new(&mem, &setup_rt);
            HashTable::create(&mut ctx, cfg.buckets_per_shard)
                .expect("shard table allocation failed")
        };
        let rt = Arc::new(RealRuntime::new());
        let engine = HcfEngine::new(
            Arc::new(KvShardDs::new(table)),
            mem,
            rt.clone(),
            // Only the claim holder executes on this engine, always as
            // id 0 (see `ServerInner::serve`); 2 leaves margin without
            // inflating the publication array.
            HcfConfig::new(2).named("HCF-KV"),
        )
        .expect("shard engine allocation failed");
        KvShard {
            engine,
            rt,
            arena: Arena::new(),
            queue: BoundedQueue::new(cfg.queue_cap),
            accepted: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            reqs: AtomicU64::new(0),
            ops: AtomicU64::new(0),
            max_batch: AtomicU64::new(0),
            busy_rejects: AtomicU64::new(0),
        }
    }
}

/// Point-in-time batching counters for one shard. The interesting
/// number is `reqs / batches`: the average number of queued requests a
/// shard's owner combined into one engine transaction.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardBatchStats {
    /// Engine operations executed (one per drained batch).
    pub batches: u64,
    /// Requests served.
    pub reqs: u64,
    /// Per-key operations applied (MGET fans out several per request).
    pub ops: u64,
    /// Largest single batch.
    pub max_batch: u64,
    /// Requests shed with `BUSY`.
    pub busy_rejects: u64,
}

/// Diagnostics captured when the watchdog declares a stall.
#[derive(Clone, Debug)]
pub struct StallInfo {
    /// Requests completed before the stall.
    pub completed_reqs: u64,
    /// Per-shard completion counts at stall time.
    pub per_shard: Vec<u64>,
    /// Requests accepted but not yet answered, across all shards, at
    /// stall time.
    pub backlog: u64,
    /// How long nothing completed, in milliseconds.
    pub stalled_for_ms: u64,
}

/// Structured server failure, mirroring `hcf_sim::native::NativeError`.
#[derive(Clone, Debug)]
pub enum KvError {
    /// The watchdog saw a non-empty backlog make no progress for the
    /// deadline. Stuck connection threads (a shard's owner, and the
    /// requesters waiting on it) cannot be cancelled and are left
    /// detached — treat this as fatal diagnostics, not a recoverable
    /// condition.
    Stalled(StallInfo),
}

impl std::fmt::Display for KvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KvError::Stalled(s) => write!(
                f,
                "kv: no progress for {} ms with backlog {} ({} reqs completed, per-shard {:?})",
                s.stalled_for_ms, s.backlog, s.completed_reqs, s.per_shard
            ),
        }
    }
}

impl std::error::Error for KvError {}

struct ServerInner {
    cfg: KvConfig,
    /// The listener's address, which [`ServerInner::wake_acceptor`]
    /// connects to.
    addr: SocketAddr,
    shards: Vec<KvShard>,
    /// Requests answered per shard (the watchdog's progress).
    meter: ProgressMeter,
    stop: AtomicBool,
    /// The monitor thread, registered by the monitor itself before its
    /// first look at `stop`, so `begin_shutdown` can wake it.
    monitor: Mutex<Option<Thread>>,
    stall: Mutex<Option<StallInfo>>,
    /// A clone of every live connection's stream, keyed by connection id,
    /// so `join` can kick it off its read. Each connection thread removes
    /// its own entry when it ends.
    conns: Mutex<HashMap<u64, TcpStream>>,
    /// Monotonic clock for the monitor and for reply spinning (library
    /// code takes time through the runtime, never from the wall clock
    /// directly).
    clock: RealRuntime,
}

impl ServerInner {
    fn begin_shutdown(&self) {
        if self.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        for shard in &self.shards {
            shard.queue.close();
        }
        // Under the lock the monitor registers with: either it is
        // registered and is woken here, or it registers later and then
        // sees `stop`.
        if let Some(m) = self.monitor.lock().as_ref() {
            m.unpark();
        }
        self.wake_acceptor();
    }

    /// Connects to the listener once, so an acceptor blocked in `accept`
    /// returns and sees `stop`. A failed connect is ignored: `join`
    /// repeats the wake until the acceptor has exited.
    fn wake_acceptor(&self) {
        let mut addr = self.addr;
        // A wildcard bind accepts on loopback too.
        match addr.ip() {
            IpAddr::V4(ip) if ip.is_unspecified() => addr.set_ip(Ipv4Addr::LOCALHOST.into()),
            IpAddr::V6(ip) if ip.is_unspecified() => addr.set_ip(Ipv6Addr::LOCALHOST.into()),
            _ => {}
        }
        let _ = TcpStream::connect_timeout(&addr, WAKE_TIMEOUT);
    }

    /// Requests accepted but not yet answered, across all shards. The
    /// watchdog's backlog: counting these rather than queued requests
    /// keeps a batch whose owner died mid-execution in view, so a dead
    /// owner is a stall, not a hang. `reqs` can briefly run ahead of
    /// `accepted` (an owner answers before `submit` bumps it), hence
    /// the saturating difference.
    fn unanswered(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| {
                let reqs = s.reqs.load(Ordering::Relaxed);
                s.accepted.load(Ordering::Relaxed).saturating_sub(reqs)
            })
            .sum()
    }

    /// Queues `ops` on shard `sidx`, then serves the shard if this
    /// thread wins its claim. Either way the returned slot is filled by
    /// the time this thread or the current owner has drained the queue.
    fn submit(&self, sidx: usize, ops: Vec<ShardOp>) -> Result<Arc<ReplySlot>, Reply> {
        let shard = &self.shards[sidx];
        let slot = Arc::new(ReplySlot::default());
        match shard.queue.try_push(Pending {
            ops,
            slot: slot.clone(),
        }) {
            Ok(()) => {
                shard.accepted.fetch_add(1, Ordering::Relaxed);
                if shard.queue.try_claim() {
                    self.serve(sidx);
                }
                Ok(slot)
            }
            Err(PushError::Full(_)) => {
                shard.busy_rejects.fetch_add(1, Ordering::Relaxed);
                Err(Reply::Busy)
            }
            Err(PushError::Closed(_)) => Err(Reply::Err("server is shutting down".into())),
        }
    }

    /// Runs shard `sidx` for the claim just won: drains its queue one
    /// engine operation per drain until a release succeeds.
    ///
    /// The engine checks `tid < max_threads`, and any connection thread
    /// may own a shard, so the owner registers on the shard's runtime
    /// for the engine calls and gives the id back *before* it releases
    /// the claim: at most one registration exists per shard, so the id
    /// is always 0. A panic inside the engine unwinds without releasing
    /// the claim, deliberately — the engine lock may still be held, so
    /// the shard stays owned and the watchdog reports the stall.
    fn serve(&self, sidx: usize) {
        let shard = &self.shards[sidx];
        let mut batch: Vec<Pending> = Vec::new();
        loop {
            let engine_id = shard.rt.register();
            loop {
                shard.queue.drain(self.cfg.batch_max, &mut batch);
                if batch.is_empty() {
                    break;
                }
                let n = batch.len() as u64;
                process_batch(shard, &mut batch);
                self.meter.record(sidx, n);
            }
            drop(engine_id);
            if shard.queue.release() {
                return;
            }
        }
    }

    fn handle(&self, cmd: Command) -> Reply {
        match cmd {
            Command::Get(key) => self.single(&key, ShardOp::Get),
            Command::Set(key, val) => self.single(&key, move |k| ShardOp::Set(k, val)),
            Command::Del(key) => self.single(&key, ShardOp::Del),
            Command::Incr(key) => self.single(&key, ShardOp::Incr),
            Command::MGet(keys) => self.mget(&keys),
            Command::Stats => Reply::Val(self.stats_json().into_bytes()),
            // The connection loop intercepts SHUTDOWN before `handle`.
            Command::Shutdown => Reply::Ok,
        }
    }

    fn single(&self, key: &[u8], op: impl FnOnce(u64) -> ShardOp) -> Reply {
        let sidx = shard_of(key, self.shards.len());
        match self.submit(sidx, vec![op(table_key(key))]) {
            Err(reply) => reply,
            Ok(slot) => {
                let mut outs = slot.wait(&self.clock);
                debug_assert_eq!(outs.len(), 1);
                match outs.pop() {
                    Some(OpOut::Done) => Reply::Ok,
                    Some(OpOut::Nil) => Reply::Nil,
                    Some(OpOut::Bytes(b)) => Reply::Val(b),
                    Some(OpOut::Int(n)) => Reply::Int(n),
                    Some(OpOut::NotInt) => Reply::Err("value is not an integer".into()),
                    None => Reply::Err("internal: empty result batch".into()),
                }
            }
        }
    }

    fn mget(&self, keys: &[Vec<u8>]) -> Reply {
        // Group keys per shard, preserving original positions. One
        // sub-request per shard keeps each group atomic within its
        // shard; MGET across shards is not atomic (documented).
        let n_shards = self.shards.len();
        let mut groups: Vec<(Vec<usize>, Vec<ShardOp>)> = Vec::new();
        groups.resize_with(n_shards, Default::default);
        for (i, key) in keys.iter().enumerate() {
            let s = shard_of(key, n_shards);
            groups[s].0.push(i);
            groups[s].1.push(ShardOp::Get(table_key(key)));
        }
        let mut waits = Vec::new();
        for (sidx, (pos, ops)) in groups.into_iter().enumerate() {
            if ops.is_empty() {
                continue;
            }
            match self.submit(sidx, ops) {
                Ok(slot) => waits.push((pos, slot)),
                // Shed the whole request; already-queued sub-reads are
                // harmless (their unread slots are simply dropped).
                Err(reply) => return reply,
            }
        }
        let mut vals: Vec<Option<Vec<u8>>> = vec![None; keys.len()];
        for (pos, slot) in waits {
            for (p, out) in pos.into_iter().zip(slot.wait(&self.clock)) {
                if let OpOut::Bytes(b) = out {
                    vals[p] = Some(b);
                }
            }
        }
        Reply::MVal(vals)
    }

    fn stats_json(&self) -> String {
        let mut per = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            let batches = shard.batches.load(Ordering::Relaxed);
            let reqs = shard.reqs.load(Ordering::Relaxed);
            let avg_batch = if batches == 0 {
                0.0
            } else {
                reqs as f64 / batches as f64
            };
            let a = shard.arena.stats();
            per.push(format!(
                concat!(
                    "{{\"queue_len\":{},\"batches\":{},\"reqs\":{},\"ops\":{},",
                    "\"avg_batch\":{:.3},\"max_batch\":{},\"busy_rejects\":{},",
                    "\"arena\":{{\"slots\":{},\"retired_slots\":{},",
                    "\"live_bytes\":{},\"dead_bytes\":{}}},\"engine\":{}}}"
                ),
                shard.queue.len(),
                batches,
                reqs,
                shard.ops.load(Ordering::Relaxed),
                avg_batch,
                shard.max_batch.load(Ordering::Relaxed),
                shard.busy_rejects.load(Ordering::Relaxed),
                a.slots,
                a.retired_slots,
                a.live_bytes,
                a.dead_bytes,
                shard.engine.stats().to_json(),
            ));
        }
        format!(
            concat!(
                "{{\"shards\":{},\"queue_cap\":{},\"batch_max\":{},",
                "\"total_reqs\":{},\"stalled\":{},\"per_shard\":[{}]}}"
            ),
            self.shards.len(),
            self.cfg.queue_cap,
            self.cfg.batch_max,
            self.meter.total(),
            self.stall.lock().is_some(),
            per.join(","),
        )
    }
}

/// A running KV server. Create with [`KvServer::start`]; stop with a
/// `SHUTDOWN` command or [`KvServer::begin_shutdown`], then call
/// [`KvServer::join`].
pub struct KvServer {
    inner: Arc<ServerInner>,
    addr: SocketAddr,
    /// Returns the connection threads it has not reaped, and whether a
    /// reaped one panicked.
    acceptor: Option<JoinHandle<(Vec<JoinHandle<()>>, bool)>>,
    monitor: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for KvServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KvServer")
            .field("addr", &self.addr)
            .field("shards", &self.inner.shards.len())
            .finish()
    }
}

impl KvServer {
    /// Builds the shards, binds the listener, and spawns the acceptor
    /// and the monitor.
    ///
    /// # Errors
    ///
    /// I/O errors from binding the listener.
    ///
    /// # Panics
    ///
    /// Panics if shard construction exhausts the configured
    /// transactional memory (a static misconfiguration).
    pub fn start(cfg: KvConfig) -> io::Result<KvServer> {
        let shards: Vec<KvShard> = (0..cfg.shards.max(1)).map(|_| KvShard::new(&cfg)).collect();

        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;

        let inner = Arc::new(ServerInner {
            addr,
            meter: ProgressMeter::new(shards.len()),
            shards,
            stop: AtomicBool::new(false),
            monitor: Mutex::new(None),
            stall: Mutex::new(None),
            conns: Mutex::new(HashMap::new()),
            clock: RealRuntime::new(),
            cfg,
        });

        let acceptor = {
            let inner = inner.clone();
            std::thread::spawn(move || acceptor_loop(&inner, &listener))
        };

        let monitor = {
            let inner = inner.clone();
            std::thread::spawn(move || monitor_loop(&inner))
        };

        Ok(KvServer {
            inner,
            addr,
            acceptor: Some(acceptor),
            monitor: Some(monitor),
        })
    }

    /// The bound address (resolves `:0` to the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current statistics as JSON — the same document the `STATS`
    /// command returns.
    pub fn stats_json(&self) -> String {
        self.inner.stats_json()
    }

    /// Per-shard batching counters (what the bench reports as the
    /// service-level combining degree).
    pub fn shard_batch_stats(&self) -> Vec<ShardBatchStats> {
        self.inner
            .shards
            .iter()
            .map(|s| ShardBatchStats {
                batches: s.batches.load(Ordering::Relaxed),
                reqs: s.reqs.load(Ordering::Relaxed),
                ops: s.ops.load(Ordering::Relaxed),
                max_batch: s.max_batch.load(Ordering::Relaxed),
                busy_rejects: s.busy_rejects.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Initiates shutdown: stops accepting and closes every shard queue
    /// (queued requests are still served by their shards' owners).
    /// Idempotent; also triggered by a client `SHUTDOWN` command.
    pub fn begin_shutdown(&self) {
        self.inner.begin_shutdown();
    }

    /// Waits for a shutdown trigger, drains, and joins every thread.
    ///
    /// # Errors
    ///
    /// [`KvError::Stalled`] if the watchdog declared a stall; the stuck
    /// connection threads are left detached.
    ///
    /// # Panics
    ///
    /// Panics if a service or connection thread panicked without a
    /// stall being declared.
    pub fn join(mut self) -> Result<(), KvError> {
        while !self.inner.stop.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(2));
        }
        let (conn_threads, reaped_panic) = self
            .acceptor
            .take()
            .map(|h| {
                // `begin_shutdown` woke the acceptor once; wake it again
                // until it is gone, in case that connect failed.
                while !h.is_finished() {
                    std::thread::sleep(Duration::from_millis(1));
                    if !h.is_finished() {
                        self.inner.wake_acceptor();
                    }
                }
                h.join().expect("kv acceptor panicked")
            })
            .unwrap_or_default();
        // The monitor returns once every accepted request is answered,
        // or after it declared a stall.
        if let Some(h) = self.monitor.take() {
            h.join().expect("kv monitor panicked");
        }
        // After the acceptor exits no connection is added; kicking every
        // live one off its read ends its thread.
        for s in self.inner.conns.lock().values() {
            let _ = s.shutdown(Shutdown::Both);
        }
        let stall = self.inner.stall.lock().clone();
        if let Some(info) = stall {
            // Stuck owners and their waiters stay detached.
            return Err(KvError::Stalled(info));
        }
        assert!(!reaped_panic, "kv connection thread panicked");
        for h in conn_threads {
            h.join().expect("kv connection thread panicked");
        }
        Ok(())
    }
}

/// Applies one drained batch as a single engine operation and fills
/// every request's reply slot. Only the shard's claim holder calls it.
fn process_batch(shard: &KvShard, batch: &mut Vec<Pending>) {
    // Lower to engine ops. Arena writes happen here, outside the
    // transaction, exactly once per request (speculative retries must
    // not re-push).
    let mut ops: Vec<KvOp> = Vec::new();
    for p in batch.iter() {
        for op in &p.ops {
            ops.push(match op {
                ShardOp::Get(k) => KvOp::Get(*k),
                ShardOp::Set(k, v) => KvOp::Set(*k, encode_value(v, &shard.arena)),
                ShardOp::Del(k) => KvOp::Del(*k),
                ShardOp::Incr(k) => KvOp::Incr(*k),
            });
        }
    }
    let n_ops = ops.len() as u64;
    let combined: KvBatch = Arc::new(ops);
    let results = shard.engine.execute(combined);

    shard.batches.fetch_add(1, Ordering::Relaxed);
    shard.reqs.fetch_add(batch.len() as u64, Ordering::Relaxed);
    shard.ops.fetch_add(n_ops, Ordering::Relaxed);
    shard
        .max_batch
        .fetch_max(batch.len() as u64, Ordering::Relaxed);

    // Results are resolved in operation order: a GET decodes its handle
    // before a later SET or DEL of the batch retires it, and the arena
    // reuses a retired handle only for a later batch's push.
    let mut idx = 0usize;
    for p in batch.drain(..) {
        let mut outs = Vec::with_capacity(p.ops.len());
        for op in &p.ops {
            let res = results[idx];
            idx += 1;
            outs.push(match (op, res) {
                (ShardOp::Get(_), KvRes::Word(None)) => OpOut::Nil,
                (ShardOp::Get(_), KvRes::Word(Some(w))) => {
                    OpOut::Bytes(decode_value(w, &shard.arena))
                }
                (ShardOp::Set(..), KvRes::Word(old)) => {
                    retire_if_handle(shard, old);
                    OpOut::Done
                }
                (ShardOp::Del(_), KvRes::Word(old)) => {
                    retire_if_handle(shard, old);
                    OpOut::Int(u64::from(old.is_some()))
                }
                (ShardOp::Incr(_), KvRes::Int(n)) => OpOut::Int(n),
                (ShardOp::Incr(_), KvRes::NotInt) => OpOut::NotInt,
                (op, res) => unreachable!("op/result mismatch: {op:?} -> {res:?}"),
            });
        }
        p.slot.fill(outs);
    }
}

fn retire_if_handle(shard: &KvShard, old: Option<u64>) {
    if let Some(w) = old {
        if w & crate::store::INLINE_TAG == 0 {
            shard.arena.retire(w);
        }
    }
}

fn acceptor_loop(inner: &Arc<ServerInner>, listener: &TcpListener) -> (Vec<JoinHandle<()>>, bool) {
    let mut threads: Vec<JoinHandle<()>> = Vec::new();
    let mut reaped_panic = false;
    let mut next_id = 0u64;
    loop {
        let accepted = listener.accept();
        // Shutdown wakes this thread with a connection of its own, which
        // is dropped here unserved.
        if inner.stop.load(Ordering::Acquire) {
            return (threads, reaped_panic);
        }
        match accepted {
            Ok((stream, _peer)) => {
                if stream.set_nodelay(true).is_err() {
                    continue;
                }
                // Reap the connection threads that ended, so `threads`
                // stays as long as the live connections.
                for h in threads.extract_if(.., |h| h.is_finished()) {
                    reaped_panic |= h.join().is_err();
                }
                let id = next_id;
                next_id += 1;
                if let Ok(clone) = stream.try_clone() {
                    inner.conns.lock().insert(id, clone);
                }
                let inner = inner.clone();
                threads.push(std::thread::spawn(move || conn_loop(&inner, id, stream)));
            }
            Err(_) => return (threads, reaped_panic),
        }
    }
}

fn conn_loop(inner: &Arc<ServerInner>, id: u64, stream: TcpStream) {
    serve_conn(inner, stream);
    inner.conns.lock().remove(&id);
}

fn serve_conn(inner: &Arc<ServerInner>, stream: TcpStream) {
    // Each read of `conn` first writes out the replies queued so far.
    let mut conn = BufReader::new(FlushOnRead::new(stream));
    // The loop ends on clean disconnect, framing violation, or the
    // shutdown kick (socket shutdown turns the blocked read into Err).
    while let Ok(Some(args)) = read_frame(&mut conn, inner.cfg.limits) {
        let (reply, shutdown) = match Command::parse(&args) {
            Ok(Command::Shutdown) => (Reply::Ok, true),
            Ok(cmd) => (inner.handle(cmd), false),
            Err(msg) => (Reply::Err(msg), false),
        };
        if conn.get_mut().queue_frame(&reply.to_args()).is_err() {
            break;
        }
        if shutdown {
            // The client hears OK before the drain begins.
            let _ = conn.get_mut().flush();
            inner.begin_shutdown();
            break;
        }
    }
    // Dropping `conn` writes out the replies still queued, so a peer
    // whose last frame is malformed still gets the replies to the
    // frames before it.
}

fn monitor_loop(inner: &Arc<ServerInner>) {
    *inner.monitor.lock() = Some(std::thread::current());
    let deadline_ns = inner.cfg.watchdog_ms.saturating_mul(1_000_000);
    let mut tracker = StallTracker::new(deadline_ns, inner.clock.now());
    loop {
        if inner.stop.load(Ordering::Acquire) && inner.unanswered() == 0 {
            return;
        }
        // Returns early on `begin_shutdown`'s unpark (or spuriously;
        // either way the loop rechecks).
        std::thread::park_timeout(MONITOR_PERIOD);
        let backlog = inner.unanswered();
        if backlog == 0 {
            // An idle server is waiting, not stalled.
            tracker.reset(inner.clock.now());
            continue;
        }
        if let Liveness::Stalled(idle_ns) = tracker.observe(inner.meter.total(), inner.clock.now())
        {
            *inner.stall.lock() = Some(StallInfo {
                completed_reqs: inner.meter.total(),
                per_shard: inner.meter.per_worker(),
                backlog,
                stalled_for_ms: idle_ns / 1_000_000,
            });
            inner.begin_shutdown();
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serves `ops` as one request, and so as one engine batch, the way
    /// a claim holder does.
    fn run(shard: &KvShard, ops: Vec<ShardOp>) -> Vec<OpOut> {
        let slot = Arc::new(ReplySlot::default());
        let mut batch = vec![Pending {
            ops,
            slot: slot.clone(),
        }];
        let _engine_id = shard.rt.register();
        process_batch(shard, &mut batch);
        slot.wait(&RealRuntime::new())
    }

    #[test]
    fn a_batch_resolves_handles_in_op_order_across_reuse() {
        let shard = KvShard::new(&KvConfig::default());
        let k = 7;
        assert_eq!(
            run(&shard, vec![ShardOp::Set(k, b"old".to_vec())]),
            [OpOut::Done]
        );
        // The first batch's SET gets a fresh handle; the second one's
        // reuses the handle the first batch retired. Either way the
        // first GET sees the value before the SET, the second the new one.
        for (old, new) in [(&b"old"[..], &b"new"[..]), (b"new", b"newer")] {
            let outs = run(
                &shard,
                vec![
                    ShardOp::Get(k),
                    ShardOp::Set(k, new.to_vec()),
                    ShardOp::Get(k),
                ],
            );
            assert_eq!(
                outs,
                [
                    OpOut::Bytes(old.to_vec()),
                    OpOut::Done,
                    OpOut::Bytes(new.to_vec())
                ]
            );
        }
        let a = shard.arena.stats();
        assert_eq!((a.slots, a.retired_slots), (2, 2), "{a:?}");
        assert_eq!(a.live_bytes, b"newer".len() as u64);
    }
}
