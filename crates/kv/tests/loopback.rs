//! End-to-end loopback test: a real TCP server, concurrent clients
//! with mixed operations, every reply checked against a sequential
//! model, then a clean drain-and-join shutdown.

use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use hcf_kv::store::{parse_inline_int, INLINE_TAG};
use hcf_kv::{Command, KvClient, KvConfig, KvError, KvServer, Reply};
use hcf_util::frame::{read_frame, write_frame_owned, FrameLimits, FLUSH_BOUND};
use hcf_util::rng::{Rng, SplitMix64};

/// What the sequential model expects INCR to do (mirrors the tagged
/// word semantics: canonical integers increment, everything else is a
/// type error).
fn model_incr(model: &mut HashMap<Vec<u8>, Vec<u8>>, key: &[u8]) -> Option<u64> {
    let n = match model.get(key) {
        None => 0,
        Some(v) => parse_inline_int(v)?,
    };
    let n2 = n.wrapping_add(1) & !INLINE_TAG;
    model.insert(key.to_vec(), n2.to_string().into_bytes());
    Some(n2)
}

/// One client worth of randomized-but-deterministic traffic over its
/// own key prefix, validated step by step against a local model.
fn client_traffic(addr: std::net::SocketAddr, tid: u64) {
    let mut client = KvClient::connect(addr).expect("connect");
    let mut rng = SplitMix64::new(0xC11E57 ^ tid);
    let mut model: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
    let key = |i: u64| format!("c{tid}:k{i}").into_bytes();
    const KEYS: u64 = 32;

    for step in 0..400u64 {
        let k = key(rng.next_u64() % KEYS);
        match rng.next_u64() % 6 {
            // SET with a value that may be binary, empty, or a
            // canonical integer (exercising both word encodings).
            0 | 1 => {
                let v: Vec<u8> = match rng.next_u64() % 4 {
                    0 => Vec::new(),
                    1 => (rng.next_u64() % (INLINE_TAG - 1)).to_string().into_bytes(),
                    2 => {
                        let mut v = format!("blob-{step}-\0\n").into_bytes();
                        v.push(0xFF);
                        v
                    }
                    _ => vec![(rng.next_u64() & 0xFF) as u8; (rng.next_u64() % 40) as usize],
                };
                client.set(&k, &v).expect("SET");
                model.insert(k, v);
            }
            2 => {
                assert_eq!(
                    client.get(&k).expect("GET"),
                    model.get(&k).cloned(),
                    "GET {k:?} diverged at step {step}"
                );
            }
            3 => {
                assert_eq!(
                    client.del(&k).expect("DEL"),
                    model.remove(&k).is_some(),
                    "DEL {k:?} diverged at step {step}"
                );
            }
            4 => {
                let reply = client.request(&Command::Incr(k.clone())).expect("INCR");
                match model_incr(&mut model, &k) {
                    Some(n) => assert_eq!(reply, Reply::Int(n), "INCR {k:?} at step {step}"),
                    None => assert!(
                        matches!(reply, Reply::Err(_)),
                        "INCR on non-integer must fail, got {reply:?}"
                    ),
                }
            }
            _ => {
                let ks: Vec<Vec<u8>> = (0..4).map(|_| key(rng.next_u64() % KEYS)).collect();
                let refs: Vec<&[u8]> = ks.iter().map(Vec::as_slice).collect();
                let got = client.mget(&refs).expect("MGET");
                let want: Vec<Option<Vec<u8>>> = ks.iter().map(|k| model.get(k).cloned()).collect();
                assert_eq!(got, want, "MGET diverged at step {step}");
            }
        }
    }

    // Final sweep: the server agrees with the model on every key.
    for i in 0..KEYS {
        let k = key(i);
        assert_eq!(client.get(&k).expect("GET"), model.get(&k).cloned());
    }
}

#[test]
fn concurrent_clients_match_sequential_models() {
    let server = KvServer::start(KvConfig::default().with_shards(8).with_watchdog_ms(10_000))
        .expect("server start");
    let addr = server.local_addr();

    // ≥ 4 concurrent clients over ≥ 4 shards (8 here); disjoint key
    // prefixes keep each client's sequential model exact while the
    // traffic still interleaves on every shard.
    std::thread::scope(|s| {
        for tid in 0..4u64 {
            s.spawn(move || client_traffic(addr, tid));
        }
    });

    // STATS reflects the work: requests were served and every shard
    // section is present.
    let mut client = KvClient::connect(addr).expect("connect");
    let stats = client.stats().expect("STATS");
    assert!(stats.contains("\"per_shard\":["), "stats JSON: {stats}");
    assert!(stats.contains("\"engine\":{"), "stats JSON: {stats}");
    let total = stats
        .split("\"total_reqs\":")
        .nth(1)
        .and_then(|s| s.split(&[',', '}'][..]).next())
        .and_then(|s| s.parse::<u64>().ok())
        .expect("total_reqs in stats");
    assert!(total >= 4 * 400, "served {total} requests");

    // Unknown commands are rejected per-request, not per-connection.
    let reply = client
        .request(&Command::Get(b"still-works".to_vec()))
        .expect("GET after error");
    assert_eq!(reply, Reply::Nil);

    client.shutdown().expect("SHUTDOWN");
    server.join().expect("clean join");
}

/// One connection's life on a single shard, `ROUNDS` times over: each
/// round reconnects, INCRs the shared counter and SETs/GETs the
/// connection's own keys. Returns how many INCRs it sent.
fn churning_connection(addr: std::net::SocketAddr, tid: u64) -> u64 {
    const ROUNDS: u64 = 5;
    const STEPS: u64 = 80;
    let mut rng = SplitMix64::new(0xC4A2 ^ tid);
    let mut model: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
    let (mut incrs, mut last_seen) = (0u64, 0u64);
    for round in 0..ROUNDS {
        let mut client = KvClient::connect(addr).expect("connect");
        for step in 0..STEPS {
            let k = format!("c{tid}:k{}", rng.next_u64() % 8).into_bytes();
            match rng.next_u64() % 3 {
                0 => {
                    let n = client.incr(b"shared").expect("INCR");
                    assert!(n > last_seen, "INCR went back: {n} after {last_seen}");
                    (incrs, last_seen) = (incrs + 1, n);
                }
                1 => {
                    let v = format!("r{round}s{step}").into_bytes();
                    client.set(&k, &v).expect("SET");
                    model.insert(k, v);
                }
                _ => assert_eq!(
                    client.get(&k).expect("GET"),
                    model.get(&k).cloned(),
                    "GET {k:?} diverged in round {round} at step {step}"
                ),
            }
        }
    }
    incrs
}

#[test]
fn churning_connections_outnumbering_engine_threads_share_one_shard() {
    // Six connections on one shard exceed the shard engine's
    // `max_threads` (2): any of them may own the shard, so each owner
    // must run as the engine's id 0. Reconnecting makes the server's
    // connection threads come and go.
    const CONNS: u64 = 6;
    let server = KvServer::start(KvConfig::default().with_shards(1).with_watchdog_ms(10_000))
        .expect("server start");
    let addr = server.local_addr();

    let (tx, rx) = std::sync::mpsc::channel();
    let clients = std::thread::spawn(move || {
        let incrs: u64 = std::thread::scope(|s| {
            let hs: Vec<_> = (0..CONNS)
                .map(|tid| s.spawn(move || churning_connection(addr, tid)))
                .collect();
            hs.into_iter().map(|h| h.join().expect("connection")).sum()
        });
        let _ = tx.send(incrs);
    });
    // A stranded queued request blocks its connection forever; the
    // timeout turns that into a failure instead of a hang.
    let incrs = rx
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("connections failed or hung");
    clients.join().expect("client threads");

    let mut client = KvClient::connect(addr).expect("connect");
    assert_eq!(
        client.get(b"shared").expect("GET"),
        Some(incrs.to_string().into_bytes()),
        "the shared counter lost or duplicated an INCR"
    );
    client.shutdown().expect("SHUTDOWN");
    server.join().expect("clean join");
}

#[test]
fn shutdown_drains_and_join_returns() {
    let server = KvServer::start(KvConfig::default().with_shards(4)).expect("server start");
    let addr = server.local_addr();
    let mut client = KvClient::connect(addr).expect("connect");
    client.set(b"k", b"v").expect("SET");
    client.shutdown().expect("SHUTDOWN");
    server.join().expect("drained join");
    // The listener is gone after join.
    assert!(
        KvClient::connect(addr).is_err() || {
            // A racing TIME_WAIT accept can succeed; a request must not.
            let mut c = KvClient::connect(addr).unwrap();
            c.get(b"k").is_err()
        }
    );
}

#[test]
fn a_dead_worker_is_a_stall_not_a_hang() {
    // A shard memory this small runs out after a few thousand keys, and
    // the shard's owner panics inside the engine with the request it was
    // serving unanswered. The watchdog must still see that request.
    let mut cfg = KvConfig::default().with_shards(1).with_watchdog_ms(300);
    cfg.words_per_shard = 1 << 14;
    let server = KvServer::start(cfg).expect("server start");
    let addr = server.local_addr();

    let (client_tx, client_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut client = KvClient::connect(addr).expect("connect");
        let failed_at = (0u64..).find(|i| client.set(format!("k{i}").as_bytes(), b"1").is_err());
        let _ = client_tx.send(failed_at.expect("unbounded range"));
    });
    let (join_tx, join_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = join_tx.send(server.join());
    });

    let timeout = std::time::Duration::from_secs(30);
    match join_rx.recv_timeout(timeout) {
        Ok(Err(KvError::Stalled(info))) => assert!(info.backlog > 0, "{info:?}"),
        Ok(Ok(())) => panic!("join returned Ok after a worker died"),
        Err(e) => panic!("join did not return: {e}"),
    }
    // The client saw an error, and only after the memory filled up.
    let failed_at = client_rx
        .recv_timeout(timeout)
        .expect("client still blocked");
    assert!(failed_at > 0, "the very first SET failed");
}

/// Open file descriptors of this process (0 where `/proc` is absent).
fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").map_or(0, Iterator::count)
}

#[test]
fn closed_connections_release_their_descriptors() {
    // 200 sequential connect / SET / close cycles. Each connection holds
    // two server-side descriptors while it lives; both must go when the
    // client closes, or a long-running server runs out of them. Other
    // tests of this binary open sockets too, so the count is polled
    // until it settles rather than read once.
    let server = KvServer::start(KvConfig::default().with_shards(1).with_watchdog_ms(10_000))
        .expect("server start");
    let addr = server.local_addr();
    let before = open_fds();
    for i in 0..200u64 {
        let mut client = KvClient::connect(addr).expect("connect");
        client.set(format!("k{i}").as_bytes(), b"v").expect("SET");
    }
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    let mut after = open_fds();
    while after > before + 8 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(20));
        after = open_fds();
    }
    assert!(
        after <= before + 8,
        "open descriptors went from {before} to {after} over 200 closed connections"
    );
    let mut client = KvClient::connect(addr).expect("connect");
    client.shutdown().expect("SHUTDOWN");
    server.join().expect("clean join");
}

/// The reply a sequential model of the server gives to `cmd` (SET, GET,
/// INCR and DEL only).
fn model_reply(model: &mut HashMap<Vec<u8>, Vec<u8>>, cmd: &Command) -> Reply {
    match cmd {
        Command::Set(k, v) => {
            model.insert(k.clone(), v.clone());
            Reply::Ok
        }
        Command::Get(k) => model.get(k).map_or(Reply::Nil, |v| Reply::Val(v.clone())),
        Command::Incr(k) => match model_incr(model, k) {
            Some(n) => Reply::Int(n),
            None => Reply::Err("value is not an integer".into()),
        },
        Command::Del(k) => Reply::Int(u64::from(model.remove(k).is_some())),
        other => unreachable!("not modelled: {other:?}"),
    }
}

/// Runs `body` on its own thread and fails the test if it has not
/// finished within `secs`, so a hang shows as a failure.
fn within(secs: u64, body: impl FnOnce() + Send + 'static) {
    let (tx, rx) = std::sync::mpsc::channel();
    let h = std::thread::spawn(move || {
        body();
        let _ = tx.send(());
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        // A body that panicked dropped `tx`; joining re-raises the panic.
        Ok(()) | Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
            h.join().expect("test body");
        }
        Err(e) => panic!("did not finish within {secs} s: {e}"),
    }
}

#[test]
fn a_deep_pipeline_is_answered_in_order() {
    let server = KvServer::start(KvConfig::default().with_shards(4)).expect("server start");
    let addr = server.local_addr();
    within(30, move || {
        let mut client = KvClient::connect(addr).expect("connect");
        let mut rng = SplitMix64::new(0x919E);
        let mut model = HashMap::new();
        for round in 0..4 {
            let cmds: Vec<Command> = (0..64)
                .map(|i| {
                    let k = format!("p{}", rng.next_u64() % 8).into_bytes();
                    match rng.next_u64() % 4 {
                        0 => Command::Set(k, format!("r{round}i{i}\n").into_bytes()),
                        1 => Command::Get(k),
                        2 => Command::Incr(k),
                        _ => Command::Del(k),
                    }
                })
                .collect();
            for cmd in &cmds {
                client.send(cmd).expect("send");
            }
            for (i, cmd) in cmds.iter().enumerate() {
                let want = model_reply(&mut model, cmd);
                let got = client.recv().expect("recv");
                assert_eq!(got, want, "round {round}, reply {i} to {cmd:?}");
            }
        }
        client.shutdown().expect("SHUTDOWN");
    });
    server.join().expect("clean join");
}

#[test]
fn replies_before_a_malformed_frame_are_delivered() {
    let server = KvServer::start(KvConfig::default().with_shards(2)).expect("server start");
    let addr = server.local_addr();
    within(30, move || {
        let mut wire = Vec::new();
        for i in 0..16u64 {
            let cmd = Command::Incr(b"ctr".to_vec());
            write_frame_owned(&mut wire, &cmd.to_args()).unwrap();
            if i == 7 {
                // A bad command is answered with ERR; only bad framing
                // ends the connection.
                write_frame_owned(&mut wire, &[b"NOPE".to_vec()]).unwrap();
            }
        }
        wire.extend_from_slice(b"*1\n$x\n");
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(&wire).expect("write");
        let mut r = BufReader::new(stream);
        let mut got = Vec::new();
        while let Ok(Some(args)) = read_frame(&mut r, FrameLimits::default()) {
            got.push(Reply::parse(&args).expect("reply"));
        }
        let mut want: Vec<Reply> = (1..=16).map(Reply::Int).collect();
        want.insert(8, Reply::Err("unknown command \"NOPE\"".into()));
        assert_eq!(got, want);
    });
    server.begin_shutdown();
    server.join().expect("clean join");
}

#[test]
fn a_request_split_across_writes_is_answered() {
    let server = KvServer::start(KvConfig::default().with_shards(2)).expect("server start");
    let addr = server.local_addr();
    within(30, move || {
        let mut wire = Vec::new();
        write_frame_owned(&mut wire, &Command::Get(b"k".to_vec()).to_args()).unwrap();
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        let mut r = BufReader::new(stream.try_clone().expect("clone"));
        // Split inside a header, then inside the payload.
        for (from, to) in [(0, 7), (7, 12), (12, wire.len())] {
            stream.write_all(&wire[from..to]).expect("write");
            std::thread::sleep(Duration::from_millis(30));
        }
        let args = read_frame(&mut r, FrameLimits::default())
            .expect("read")
            .expect("reply");
        assert_eq!(Reply::parse(&args), Ok(Reply::Nil));
    });
    server.begin_shutdown();
    server.join().expect("clean join");
}

#[test]
fn sends_past_the_flush_bound_are_all_answered() {
    let server = KvServer::start(KvConfig::default().with_shards(4)).expect("server start");
    let addr = server.local_addr();
    within(30, move || {
        const N: usize = 2_000;
        let set =
            |i: usize| Command::Set(format!("b{i}").into_bytes(), format!("v{i}").into_bytes());
        let mut one = Vec::new();
        write_frame_owned(&mut one, &set(0).to_args()).unwrap();
        assert!(N * one.len() > 4 * FLUSH_BOUND, "N does not pass the bound");

        let mut client = KvClient::connect(addr).expect("connect");
        for i in 0..N {
            client.send(&set(i)).expect("send");
        }
        for i in 0..N {
            assert_eq!(client.recv().expect("recv"), Reply::Ok, "SET {i}");
        }
        for i in 0..N {
            client
                .send(&Command::Get(format!("b{i}").into_bytes()))
                .expect("send");
        }
        client.flush().expect("flush");
        for i in 0..N {
            let want = Reply::Val(format!("v{i}").into_bytes());
            assert_eq!(client.recv().expect("recv"), want, "GET {i}");
        }
        client.shutdown().expect("SHUTDOWN");
    });
    server.join().expect("clean join");
}

#[test]
fn a_server_that_never_saw_a_connection_joins() {
    let server = KvServer::start(KvConfig::default().with_shards(1)).expect("server start");
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.begin_shutdown();
        let _ = tx.send(server.join().is_ok());
    });
    assert_eq!(rx.recv_timeout(Duration::from_secs(10)), Ok(true));
}
