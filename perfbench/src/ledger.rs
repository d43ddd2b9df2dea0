//! The per-layer ledger of a traced run: the cost of one request or
//! operation at each layer, measured by calling that layer's public
//! functions from this crate on inputs drawn from the workload's own
//! generator. Each single-threaded probe makes [`REPS`] passes of
//! `probe_ops` operations and reports the median pass's mean.
//!
//! | layer   | metrics                                                   |
//! |---------|-----------------------------------------------------------|
//! | wire    | `wire.encode_ns`, `wire.decode_ns` (request + reply)      |
//! | route   | `route.ns` (`shard_of` + `table_key`)                     |
//! | handoff | `handoff.rtt_ns` (queue push + gate, there and back)      |
//! | service | `client.rtt_us`, `service.residual_us`                    |
//! | store   | `store.codec_ns`, `store.direct_ns`                       |
//! | tm      | `tm.tx_ns.{kv,insert,remove_min}`                         |
//! | engine  | `engine.execute_ns.kv`                                    |
//! | ds      | `ds.direct_ns.{insert,remove_min}`                        |
//! | ref     | `ref.lock_ops_s`, `ref.tle_ops_s`                         |
//!
//! The KV probes run on one shard built as `KvServer::start` builds each
//! of its shards (a copy of that construction, `HcfConfig` included),
//! holding the keys the server would route to it. The server's own
//! shards are not reachable through its public surface, so every traced
//! run compares the copy with what a live server's `STATS` shows of its
//! shards ([`kv::ShardShape`]: their number, each engine's publication
//! arrays, the phase most single-client operations complete in) and
//! fails the run when they differ.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use hcf_core::{DataStructure, HcfConfig, HcfEngine};
use hcf_ds::HashTable;
use hcf_kv::queue::{BoundedQueue, Gate};
use hcf_kv::store::{decode_value, encode_value, Arena, KvBatch, KvOp, KvShardDs};
use hcf_kv::{KvConfig, Reply};
use hcf_tmem::{DirectCtx, MemCtx, RealRuntime, Runtime, TMem, TMemConfig, TxCtx, TxResult};
use hcf_util::frame::{read_frame, write_frame_owned, FrameLimits};
use hcf_util::rng::{Rng, SplitMix64};
use hcf_util::shard::{shard_of, table_key};

use crate::kv::{self, key_bytes, KvShape, Op, OpGen};
use crate::pq::{self, value_of, PqState, KEY_SPACE};
use crate::stats::median;
use crate::{sub_seed, EngineCounters, Report, RunOpts};

/// Passes per single-threaded probe.
pub const REPS: usize = 5;

/// Runs every probe and adds its metrics to `r`.
///
/// # Errors
///
/// Set-up failures, or a probe whose replies fail their check.
pub fn run(shape: KvShape, opts: &RunOpts, r: &mut Report) -> Result<(), String> {
    let n = opts.probe_ops.max(1);
    let ops = kv_ops(shape, opts.seed, n, |_| true);
    let (encode, decode) = wire_ns(&ops);
    r.push("wire.encode_ns", encode);
    r.push("wire.decode_ns", decode);
    let route = route_ns(&ops);
    r.push("route.ns", route);
    r.push("handoff.rtt_ns", handoff_rtt_ns(n / 10));
    let store = kv_store_ns(shape, opts.seed, n).map_err(|e| format!("kv store probe: {e:?}"))?;
    r.push("store.codec_ns", store.codec);
    r.push("store.direct_ns", store.direct);
    r.push("tm.tx_ns.kv", store.tx);
    r.push("engine.execute_ns.kv", store.engine);
    let (rtt, live) = kv::client_rtt_us(shape, opts.seed, n / 10)?;
    if live != store.shards {
        r.errors.push(format!(
            "the kv store probe's shard copy no longer matches the server: \
             {:?} in the copy, {live:?} in STATS",
            store.shards
        ));
    }
    r.push("client.rtt_us", rtt);
    r.push(
        "service.residual_us",
        rtt - (encode + decode + route + store.engine) / 1e3,
    );
    let pq = pq_ns(opts.seed, n / 4).map_err(|e| format!("pq probe: {e:?}"))?;
    r.push("ds.direct_ns.insert", pq[0]);
    r.push("ds.direct_ns.remove_min", pq[1]);
    r.push("tm.tx_ns.insert", pq[2]);
    r.push("tm.tx_ns.remove_min", pq[3]);
    r.push(
        "ref.lock_ops_s",
        pq::reference_ops_s(opts.seed, opts.probe_run, false)?,
    );
    r.push(
        "ref.tle_ops_s",
        pq::reference_ops_s(opts.seed, opts.probe_run, true)?,
    );
    Ok(())
}

/// `n` requests of connection 0's stream whose key passes `keep`.
fn kv_ops(shape: KvShape, seed: u64, n: usize, keep: impl Fn(u32) -> bool) -> Vec<Op> {
    let mut gen = OpGen::new(shape, seed, 0);
    std::iter::repeat_with(|| gen.next_op())
        .filter(|op| keep(op.key()))
        .take(n)
        .collect()
}

/// Mean ns per operation of `pass`, which performs `n` operations:
/// the median over [`REPS`] passes.
fn per_op_ns(n: usize, mut pass: impl FnMut()) -> f64 {
    let v: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            pass();
            t0.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    median(&v)
}

/// A plausible reply to `op` (the value sizes the server sends back).
fn reply_to(op: &Op) -> Reply {
    match op {
        Op::Get(k) => Reply::Val(kv::blob(*k, "0", 123_456)),
        Op::Set(..) => Reply::Ok,
        Op::Incr(_) => Reply::Int(123_456),
    }
}

/// Framing cost per request + reply: (encode, decode) ns. A request is
/// encoded by the client and decoded by the server; its reply the other
/// way round.
fn wire_ns(ops: &[Op]) -> (f64, f64) {
    let cmds: Vec<_> = ops.iter().map(Op::command).collect();
    let replies: Vec<_> = ops.iter().map(reply_to).collect();
    let mut buf = Vec::with_capacity(256);
    let encode = per_op_ns(ops.len(), || {
        for (c, rep) in cmds.iter().zip(&replies) {
            buf.clear();
            write_frame_owned(&mut buf, &c.to_args()).expect("vec write");
            write_frame_owned(&mut buf, &rep.to_args()).expect("vec write");
            black_box(&buf);
        }
    });
    let (mut req_bytes, mut rep_bytes) = (Vec::new(), Vec::new());
    for (c, rep) in cmds.iter().zip(&replies) {
        write_frame_owned(&mut req_bytes, &c.to_args()).expect("vec write");
        write_frame_owned(&mut rep_bytes, &rep.to_args()).expect("vec write");
    }
    let limits = FrameLimits::default();
    let decode = per_op_ns(ops.len(), || {
        let (mut rq, mut rp) = (&req_bytes[..], &rep_bytes[..]);
        for _ in 0..ops.len() {
            let a = read_frame(&mut rq, limits)
                .expect("well-formed")
                .expect("frame");
            black_box(hcf_kv::Command::parse(&a).expect("valid command"));
            let b = read_frame(&mut rp, limits)
                .expect("well-formed")
                .expect("frame");
            black_box(Reply::parse(&b).expect("valid reply"));
        }
    });
    (encode, decode)
}

/// Shard routing and table hashing of each request's key.
fn route_ns(ops: &[Op]) -> f64 {
    let keys: Vec<Vec<u8>> = ops.iter().map(|op| key_bytes(op.key())).collect();
    let shards = KvConfig::default().shards;
    per_op_ns(keys.len(), || {
        for k in &keys {
            black_box(shard_of(black_box(k), shards));
            black_box(table_key(black_box(k)));
        }
    })
}

/// One request's pair of cross-thread handoffs: a `BoundedQueue` push
/// plus `Gate` notify to a waiting thread, and the same back.
fn handoff_rtt_ns(n: usize) -> f64 {
    let n = n.max(1);
    let (there, back) = (BoundedQueue::new(1), BoundedQueue::new(1));
    let (wake_peer, wake_me) = (Gate::new(), Gate::new());
    let take = |q: &BoundedQueue<u64>, gate: &Gate| -> u64 {
        let mut got = Vec::with_capacity(1);
        loop {
            gate.wait();
            q.drain(1, &mut got);
            if let Some(&x) = got.first() {
                return x;
            }
        }
    };
    std::thread::scope(|s| {
        s.spawn(|| loop {
            let x = take(&there, &wake_peer);
            if x == u64::MAX {
                return;
            }
            back.try_push(x).expect("one item in flight");
            wake_me.notify();
        });
        let rtt = per_op_ns(n, || {
            for i in 0..n as u64 {
                there.try_push(i).expect("one item in flight");
                wake_peer.notify();
                black_box(take(&back, &wake_me));
            }
        });
        there.try_push(u64::MAX).expect("one item in flight");
        wake_peer.notify();
        rtt
    })
}

struct StoreNs {
    codec: f64,
    direct: f64,
    tx: f64,
    engine: f64,
    /// The copy's shape, every shard taken to be built like shard 0.
    shards: kv::ShardShape,
}

/// Runs `body` in transactions until one commits.
fn in_tx<T>(mem: &TMem, rt: &dyn Runtime, body: impl Fn(&mut dyn MemCtx) -> TxResult<T>) -> T {
    loop {
        let mut tx = mem.begin(rt);
        let res = body(&mut TxCtx::new(&mut tx));
        match res {
            Ok(v) => {
                if tx.commit().is_ok() {
                    return v;
                }
            }
            Err(c) => {
                tx.rollback(c);
            }
        }
    }
}

/// One server shard, built as `KvServer::start` builds it (keep the two
/// in step), holding the preloaded keys that route to shard 0; then the
/// shard-0 requests of the workload's stream as batches of one, applied
/// directly, in a transaction, and through the shard's engine.
fn kv_store_ns(shape: KvShape, seed: u64, n: usize) -> TxResult<StoreNs> {
    let cfg = KvConfig::default();
    let in_shard = |k: u32| shard_of(&key_bytes(k), cfg.shards) == 0;
    let mem = Arc::new(TMem::new(
        TMemConfig::default().with_words(cfg.words_per_shard),
    ));
    let aux = RealRuntime::new();
    let table = HashTable::create(&mut DirectCtx::new(&mem, &aux), cfg.buckets_per_shard)?;
    let ds = Arc::new(KvShardDs::new(table));
    let arena = Arena::new();
    let lower = |op: &Op| {
        let tk = table_key(&key_bytes(op.key()));
        match op {
            Op::Get(_) => KvOp::Get(tk),
            Op::Set(_, v) => KvOp::Set(tk, encode_value(&v.bytes(), &arena)),
            Op::Incr(_) => KvOp::Incr(tk),
        }
    };
    let preload: Vec<KvOp> = kv::preload_plan(shape, seed)
        .into_iter()
        .enumerate()
        .filter_map(|(k, v)| {
            v.filter(|_| in_shard(k as u32))
                .map(|v| lower(&Op::Set(k as u32, v)))
        })
        .collect();
    ds.run_seq(&mut DirectCtx::new(&mem, &aux), &Arc::new(preload))?;
    let batches: Vec<KvBatch> = kv_ops(shape, seed, n, in_shard)
        .iter()
        .map(|op| Arc::new(vec![lower(op)]))
        .collect();

    let rt = Arc::new(RealRuntime::new());
    let engine = HcfEngine::new(
        ds.clone(),
        mem.clone(),
        rt.clone(),
        HcfConfig::new(2).named("HCF-KV"),
    )?;
    let (mut direct, mut tx, mut exec) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPS {
        let t0 = Instant::now();
        let mut ctx = DirectCtx::new(&mem, rt.as_ref());
        for b in &batches {
            black_box(ds.run_seq(&mut ctx, b)?);
        }
        direct.push(t0.elapsed().as_nanos() as f64 / n as f64);
        let t0 = Instant::now();
        for b in &batches {
            black_box(in_tx(&mem, rt.as_ref(), |ctx| ds.run_seq(ctx, b)));
        }
        tx.push(t0.elapsed().as_nanos() as f64 / n as f64);
        let t0 = Instant::now();
        for b in &batches {
            black_box(engine.execute(b.clone()));
        }
        exec.push(t0.elapsed().as_nanos() as f64 / n as f64);
    }

    let blobs: Vec<Vec<u8>> = (0..n as u64).map(|i| kv::blob(i as u32, "c", i)).collect();
    let codec = per_op_ns(n, || {
        for b in &blobs {
            black_box(decode_value(encode_value(black_box(b), &arena), &arena));
        }
    });
    Ok(StoreNs {
        codec,
        direct: median(&direct),
        tx: median(&tx),
        engine: median(&exec),
        shards: kv::ShardShape {
            arrays: vec![engine.num_arrays(); cfg.shards.max(1)],
            main_phase: EngineCounters::from_snapshot(&engine.stats()).main_phase(),
        },
    })
}

/// Single-threaded queue operations on a prefilled queue: insert and
/// remove-min, directly and each in its own transaction. Returns
/// `[direct insert, direct remove_min, tx insert, tx remove_min]` ns.
fn pq_ns(seed: u64, n: usize) -> TxResult<[f64; 4]> {
    let n = n.max(1);
    let st = PqState::new(seed)?;
    let (mem, q) = (&*st.mem, st.pq);
    let rt = RealRuntime::new();
    let mut rng = SplitMix64::new(sub_seed(seed, 200));
    let mut samples: [Vec<f64>; 4] = Default::default();
    for _ in 0..REPS {
        for (slot, transactional) in [(0, false), (2, true)] {
            let keys: Vec<u64> = (0..n).map(|_| rng.random_range(0..KEY_SPACE)).collect();
            let t0 = Instant::now();
            for &k in &keys {
                if transactional {
                    black_box(in_tx(mem, &rt, |ctx| q.insert(ctx, k, value_of(k))));
                } else {
                    black_box(q.insert(&mut DirectCtx::new(mem, &rt), k, value_of(k))?);
                }
            }
            samples[slot].push(t0.elapsed().as_nanos() as f64 / n as f64);
            let t0 = Instant::now();
            for _ in 0..n {
                if transactional {
                    black_box(in_tx(mem, &rt, |ctx| q.remove_min(ctx)));
                } else {
                    black_box(q.remove_min(&mut DirectCtx::new(mem, &rt))?);
                }
            }
            samples[slot + 1].push(t0.elapsed().as_nanos() as f64 / n as f64);
        }
    }
    Ok(samples.map(|s| median(&s)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_report_positive_costs() {
        let ops = kv_ops(kv::KV_WRITE, 1, 200, |_| true);
        let (e, d) = wire_ns(&ops);
        assert!(e > 0.0 && d > 0.0);
        assert!(route_ns(&ops) > 0.0);
        assert!(handoff_rtt_ns(50) > 0.0);
        let s = kv_store_ns(kv::KV_WRITE, 1, 200).unwrap();
        assert!(s.codec > 0.0 && s.direct > 0.0 && s.tx > 0.0 && s.engine > 0.0);
        assert_eq!(s.shards.arrays.len(), KvConfig::default().shards.max(1));
        assert!(s.shards.arrays.iter().all(|&arrays| arrays > 0));
        // One thread, no conflicts: every operation finishes privately.
        assert_eq!(s.shards.main_phase, 0);
        assert!(pq_ns(1, 100).unwrap().iter().all(|&v| v > 0.0));
    }
}
