//! `kvbench` — wall-clock benchmark of the hcf-kv service over
//! loopback TCP.
//!
//! Each point starts a fresh in-process server (so per-shard batching
//! counters belong to exactly one configuration), drives it with
//! concurrent closed-loop clients — plus one open-loop (paced) point
//! where latency is measured from the *scheduled* send time, so
//! queueing delay counts — and reports throughput, latency percentiles,
//! and the service-level combining degree (`avg_batch` = requests per
//! engine transaction). Results go to stdout and `BENCH_kv.json` at the
//! repository root.
//!
//! Usage: `kvbench [--smoke]` — `--smoke` runs one small closed-loop
//! point (the CI configuration). `HCF_SEED` and `HCF_KV_REQS`
//! (requests per client) override the defaults.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use hcf_bench::seed;
use hcf_kv::{Command, KvClient, KvConfig, KvServer, Reply};
use hcf_util::dist::{Uniform, Zipf};
use hcf_util::rng::{Rng, SplitMix64};

const KEY_SPACE: u64 = 4096;
const ZIPF_THETA: f64 = 0.99;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum KeyDist {
    Uniform,
    Zipf,
}

impl KeyDist {
    fn name(self) -> &'static str {
        match self {
            KeyDist::Uniform => "uniform",
            KeyDist::Zipf => "zipf",
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Point {
    mode: &'static str, // "closed" | "open"
    dist: KeyDist,
    read_pct: u64,
    clients: usize,
    /// Open loop only: per-client request rate (req/s); 0 = unpaced.
    rate_per_client: u64,
}

struct Measured {
    point: Point,
    total_reqs: u64,
    busy: u64,
    elapsed_ns: u64,
    p50_ns: u64,
    p90_ns: u64,
    p99_ns: u64,
    mean_ns: u64,
    avg_batch: f64,
    max_batch: u64,
    per_shard_avg: Vec<f64>,
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn key_bytes(i: u64) -> Vec<u8> {
    format!("k{i}").into_bytes()
}

/// One client's request stream: draw a key from the distribution, then
/// GET with probability `read_pct`, else SET or INCR alternately (SETs
/// mix inline-integer and arena values, exercising both encodings).
fn run_client(
    addr: std::net::SocketAddr,
    point: Point,
    tid: u64,
    reqs: u64,
    start_at: Instant,
) -> (Vec<u64>, u64) {
    let mut client = KvClient::connect(addr).expect("connect");
    let mut rng = SplitMix64::new(seed() ^ 0x6B76_0000 ^ tid);
    let zipf = Zipf::new(KEY_SPACE, ZIPF_THETA);
    let uni = Uniform::new(0, KEY_SPACE);
    let mut lat = Vec::with_capacity(reqs as usize);
    let mut busy = 0u64;
    let pace = (point.rate_per_client > 0)
        .then(|| Duration::from_nanos(1_000_000_000 / point.rate_per_client));

    for i in 0..reqs {
        let k = key_bytes(match point.dist {
            KeyDist::Uniform => uni.sample(&mut rng),
            KeyDist::Zipf => zipf.sample(&mut rng),
        });
        let cmd = if rng.next_u64() % 100 < point.read_pct {
            Command::Get(k)
        } else if rng.next_u64().is_multiple_of(2) {
            let v = if rng.next_u64().is_multiple_of(2) {
                (rng.next_u64() >> 1).to_string().into_bytes()
            } else {
                vec![b'x'; 24]
            };
            Command::Set(k, v)
        } else {
            Command::Incr(k)
        };

        // Open loop: wait for this request's scheduled send time and
        // measure latency from it, so server-side queueing delay counts
        // even when the sender falls behind.
        let t0 = match pace {
            Some(dt) => {
                let scheduled = start_at + dt * (i as u32);
                let now = Instant::now();
                if scheduled > now {
                    std::thread::sleep(scheduled - now);
                }
                scheduled
            }
            None => Instant::now(),
        };
        match client.request(&cmd).expect("request") {
            Reply::Busy => busy += 1,
            // INCR racing a blob SET legitimately yields a type error;
            // anything else is a harness bug.
            Reply::Err(e) => assert!(e.contains("not an integer"), "server error: {e}"),
            _ => {}
        }
        lat.push(t0.elapsed().as_nanos() as u64);
    }
    (lat, busy)
}

fn measure(point: Point, reqs_per_client: u64, server_cfg: &KvConfig) -> Measured {
    let server = KvServer::start(server_cfg.clone()).expect("server start");
    let addr = server.local_addr();

    // Preload half the key space so reads hit warm data.
    let mut loader = KvClient::connect(addr).expect("connect");
    for i in 0..KEY_SPACE / 2 {
        loader.set(&key_bytes(i), b"0").expect("preload");
    }
    let preload_stats = server.shard_batch_stats();

    let started = Instant::now();
    let mut all_lat: Vec<u64> = Vec::new();
    let mut busy = 0u64;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..point.clients)
            .map(|tid| {
                s.spawn(move || run_client(addr, point, tid as u64, reqs_per_client, started))
            })
            .collect();
        for h in handles {
            let (lat, b) = h.join().expect("client thread");
            all_lat.extend(lat);
            busy += b;
        }
    });
    let elapsed_ns = started.elapsed().as_nanos() as u64;

    // Batching counters for the measured phase only (preload was a
    // single sequential client: batch size 1 by construction).
    let stats = server.shard_batch_stats();
    let mut batches = 0u64;
    let mut reqs = 0u64;
    let mut max_batch = 0u64;
    let mut per_shard_avg = Vec::with_capacity(stats.len());
    for (after, before) in stats.iter().zip(&preload_stats) {
        let b = after.batches - before.batches;
        let r = after.reqs - before.reqs;
        batches += b;
        reqs += r;
        max_batch = max_batch.max(after.max_batch);
        per_shard_avg.push(if b == 0 { 0.0 } else { r as f64 / b as f64 });
    }

    loader.shutdown().expect("SHUTDOWN");
    server.join().expect("join");

    all_lat.sort_unstable();
    let mean = if all_lat.is_empty() {
        0
    } else {
        all_lat.iter().sum::<u64>() / all_lat.len() as u64
    };
    Measured {
        point,
        total_reqs: all_lat.len() as u64,
        busy,
        elapsed_ns,
        p50_ns: percentile(&all_lat, 0.50),
        p90_ns: percentile(&all_lat, 0.90),
        p99_ns: percentile(&all_lat, 0.99),
        mean_ns: mean,
        avg_batch: if batches == 0 {
            0.0
        } else {
            reqs as f64 / batches as f64
        },
        max_batch,
        per_shard_avg,
    }
}

fn json_row(m: &Measured) -> String {
    let mut shards = String::new();
    for (i, a) in m.per_shard_avg.iter().enumerate() {
        if i > 0 {
            shards.push(',');
        }
        let _ = write!(shards, "{a:.3}");
    }
    format!(
        concat!(
            "{{\"mode\":\"{}\",\"dist\":\"{}\",\"read_pct\":{},\"clients\":{},",
            "\"rate_per_client\":{},\"total_reqs\":{},\"busy\":{},",
            "\"elapsed_ns\":{},\"reqs_per_sec\":{:.2},",
            "\"mean_ns\":{},\"p50_ns\":{},\"p90_ns\":{},\"p99_ns\":{},",
            "\"avg_batch\":{:.3},\"max_batch\":{},\"per_shard_avg_batch\":[{}]}}"
        ),
        m.point.mode,
        m.point.dist.name(),
        m.point.read_pct,
        m.point.clients,
        m.point.rate_per_client,
        m.total_reqs,
        m.busy,
        m.elapsed_ns,
        m.total_reqs as f64 * 1e9 / m.elapsed_ns.max(1) as f64,
        m.mean_ns,
        m.p50_ns,
        m.p90_ns,
        m.p99_ns,
        m.avg_batch,
        m.max_batch,
        shards,
    )
}

fn reqs_per_client(default: u64) -> u64 {
    std::env::var("HCF_KV_REQS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let server_cfg = KvConfig::default().with_shards(8).with_watchdog_ms(30_000);

    let (points, reqs): (Vec<Point>, u64) = if smoke {
        (
            vec![Point {
                mode: "closed",
                dist: KeyDist::Zipf,
                read_pct: 90,
                clients: 4,
                rate_per_client: 0,
            }],
            reqs_per_client(200),
        )
    } else {
        let mut pts = Vec::new();
        for dist in [KeyDist::Uniform, KeyDist::Zipf] {
            for read_pct in [90, 50] {
                pts.push(Point {
                    mode: "closed",
                    dist,
                    read_pct,
                    clients: 8,
                    rate_per_client: 0,
                });
            }
        }
        pts.push(Point {
            mode: "open",
            dist: KeyDist::Zipf,
            read_pct: 90,
            clients: 4,
            rate_per_client: 3_000,
        });
        (pts, reqs_per_client(4_000))
    };

    println!(
        "{:<7} {:<8} {:>5} {:>8} {:>9} {:>12} {:>9} {:>9} {:>9} {:>10} {:>9}",
        "mode",
        "dist",
        "read%",
        "clients",
        "reqs",
        "reqs/sec",
        "p50_us",
        "p90_us",
        "p99_us",
        "avg_batch",
        "max_batch"
    );
    let mut rows = Vec::new();
    for point in points {
        let m = measure(point, reqs, &server_cfg);
        println!(
            "{:<7} {:<8} {:>5} {:>8} {:>9} {:>12.0} {:>9.1} {:>9.1} {:>9.1} {:>10.3} {:>9}",
            m.point.mode,
            m.point.dist.name(),
            m.point.read_pct,
            m.point.clients,
            m.total_reqs,
            m.total_reqs as f64 * 1e9 / m.elapsed_ns.max(1) as f64,
            m.p50_ns as f64 / 1000.0,
            m.p90_ns as f64 / 1000.0,
            m.p99_ns as f64 / 1000.0,
            m.avg_batch,
            m.max_batch,
        );
        rows.push(m);
    }

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"schema\": \"hcf-bench-kv/v1\",");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"seed\": {},", seed());
    let _ = writeln!(json, "  \"reqs_per_client\": {reqs},");
    let _ = writeln!(
        json,
        "  \"server\": {{\"shards\":{},\"queue_cap\":{},\"batch_max\":{}}},",
        server_cfg.shards, server_cfg.queue_cap, server_cfg.batch_max
    );
    let _ = writeln!(json, "  \"results\": [");
    for (i, m) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(json, "    {}{comma}", json_row(m));
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_kv.json");
    match std::fs::write(&path, &json) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\nfailed to write {}: {e}", path.display()),
    }
}
