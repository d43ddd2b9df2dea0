//! # hcf-kv — a sharded KV service where batching *is* combining
//!
//! An in-memory key-value service layered on the HCF engine. Storage is
//! `N` independent shards, each a transactional hash table driven by
//! its **own** engine instance (own publication arrays, own fallback
//! lock) — the paper's multiple-lock design surfaced as a service
//! topology. Keys route to shards by a SplitMix64-based hash
//! ([`hcf_util::shard`]).
//!
//! The front end is a dependency-free length-prefixed text protocol
//! ([`proto`]) over plain TCP. Each connection thread queues its
//! request on the key's shard ([`queue`]) and then tries to claim the
//! shard. The winner drains the queue on its own thread, and **a
//! drained backlog becomes one combined engine operation**
//! ([`store::KvShardDs`] runs the whole batch in a single transaction);
//! a loser waits for the owner to fill its reply. Queue depth under
//! load is therefore the service's combining degree, reported per shard
//! by the `STATS` command.
//!
//! Overload is handled by shedding (`BUSY` replies when a shard queue
//! is full), shutdown by drain (queued requests are still served by
//! their shards' owners), and liveness by a watchdog reusing the native
//! driver's progress meter ([`hcf_sim::progress`]).
//!
//! ```no_run
//! use hcf_kv::{KvClient, KvConfig, KvServer};
//!
//! let server = KvServer::start(KvConfig::default()).unwrap();
//! let mut client = KvClient::connect(server.local_addr()).unwrap();
//! client.set(b"greeting", b"hello").unwrap();
//! assert_eq!(client.get(b"greeting").unwrap().as_deref(), Some(&b"hello"[..]));
//! client.shutdown().unwrap();
//! server.join().unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod proto;
pub mod queue;
pub mod server;
pub mod store;

pub use client::KvClient;
pub use proto::{Command, Reply};
pub use server::{KvConfig, KvError, KvServer, ShardBatchStats, StallInfo};
