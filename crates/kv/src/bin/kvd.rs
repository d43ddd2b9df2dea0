//! `kvd` — the hcf-kv server daemon.
//!
//! ```text
//! kvd [--addr HOST:PORT] [--shards N] [--queue-cap N]
//!     [--batch-max N] [--watchdog-ms N]
//! ```
//!
//! Prints the bound address (useful with `--addr 127.0.0.1:0`), then
//! serves until a client sends `SHUTDOWN`.

use std::process::ExitCode;

use hcf_kv::{KvConfig, KvServer};

fn usage() -> ! {
    eprintln!(
        "usage: kvd [--addr HOST:PORT] [--shards N] [--queue-cap N] \
         [--batch-max N] [--watchdog-ms N]"
    );
    std::process::exit(2);
}

fn parse_args() -> KvConfig {
    let mut cfg = KvConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else { usage() };
        let num = || -> usize {
            value
                .parse()
                .unwrap_or_else(|_| -> usize { usage() })
                .max(1)
        };
        match flag.as_str() {
            "--addr" => cfg.addr = value.clone(),
            "--shards" => cfg.shards = num(),
            "--queue-cap" => cfg.queue_cap = num(),
            "--batch-max" => cfg.batch_max = num(),
            "--watchdog-ms" => cfg.watchdog_ms = num() as u64,
            _ => usage(),
        }
    }
    cfg
}

fn main() -> ExitCode {
    let cfg = parse_args();
    let server = match KvServer::start(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("kvd: failed to start: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("kvd listening on {}", server.local_addr());
    match server.join() {
        Ok(()) => {
            println!("kvd: clean shutdown");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("kvd: {e}");
            ExitCode::FAILURE
        }
    }
}
