//! Linearizability of INCR under real concurrency: several clients
//! hammer one key over loopback TCP, each span timestamped on a shared
//! monotonic clock, and the recorded history is checked against a
//! sequential counter specification with the Wing & Gong checker.

use std::sync::Arc;

use hcf_kv::{KvClient, KvConfig, KvServer};
use hcf_sim::lincheck::{check_linearizable, OpSpan, SeqSpec};
use hcf_tmem::runtime::Runtime;
use hcf_tmem::RealRuntime;

/// The sequential spec: INCR returns the new counter value.
#[derive(Clone, PartialEq, Eq, Hash)]
struct Counter(u64);

impl SeqSpec for Counter {
    type Op = ();
    type Res = u64;

    fn apply(&mut self, _op: &()) -> u64 {
        self.0 += 1;
        self.0
    }
}

#[test]
fn concurrent_incrs_on_one_key_linearize() {
    const CLIENTS: usize = 4;
    const PER_CLIENT: u64 = 25;

    // One shard concentrates every client on a single engine, the
    // worst case for the combined INCR read-modify-write.
    let server = KvServer::start(KvConfig::default().with_shards(1).with_watchdog_ms(10_000))
        .expect("server start");
    let addr = server.local_addr();
    let clock = Arc::new(RealRuntime::new());

    let mut history: Vec<OpSpan<(), u64>> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|tid| {
                let clock = clock.clone();
                s.spawn(move || {
                    let mut client = KvClient::connect(addr).expect("connect");
                    let mut spans = Vec::with_capacity(PER_CLIENT as usize);
                    for _ in 0..PER_CLIENT {
                        let invoke = clock.now();
                        let res = client.incr(b"ctr").expect("INCR");
                        let response = clock.now();
                        spans.push(OpSpan {
                            tid,
                            invoke,
                            response,
                            op: (),
                            res,
                        });
                    }
                    spans
                })
            })
            .collect();
        for h in handles {
            history.extend(h.join().expect("client thread"));
        }
    });

    assert_eq!(history.len(), CLIENTS * PER_CLIENT as usize);
    assert!(
        check_linearizable(Counter(0), &history),
        "INCR history is not linearizable"
    );

    // Nothing was lost or duplicated: the final value is the op count.
    let mut client = KvClient::connect(addr).expect("connect");
    let total = CLIENTS as u64 * PER_CLIENT;
    assert_eq!(client.incr(b"ctr").expect("final INCR"), total + 1);
    client.shutdown().expect("SHUTDOWN");
    server.join().expect("clean join");
}
