//! A minimal blocking client for the KV wire protocol.
//!
//! One request, one reply, in order — the transport is a plain
//! length-prefixed frame stream, so a client that wants pipelining can
//! use [`KvClient::send`] / [`KvClient::recv`] directly and keep
//! several requests in flight (perfbench's preload and final sweep do;
//! `kvbench` never pipelines).
//!
//! [`KvClient::send`] only queues a request. The queue goes out in one
//! write when [`KvClient::recv`] is about to block on the socket, on
//! [`KvClient::flush`], once it holds more than
//! [`FLUSH_BOUND`](hcf_util::frame::FLUSH_BOUND) bytes, or when the
//! client is dropped. A closed loop (one request in flight) makes the
//! same write and read calls as writing each request at once.

use std::io::{self, BufReader};
use std::net::{TcpStream, ToSocketAddrs};

use hcf_util::frame::{read_frame, FlushOnRead, FrameLimits};

use crate::proto::{Command, Reply};

/// A blocking connection to a KV server.
#[derive(Debug)]
pub struct KvClient {
    conn: BufReader<FlushOnRead<TcpStream>>,
    limits: FrameLimits,
}

impl KvClient {
    /// Connects with default frame limits.
    ///
    /// # Errors
    ///
    /// Propagates connection errors.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<KvClient> {
        KvClient::connect_with(addr, FrameLimits::default())
    }

    /// Connects with explicit frame limits (must admit the server's
    /// replies, e.g. large `STATS` documents).
    ///
    /// # Errors
    ///
    /// Propagates connection errors.
    pub fn connect_with(addr: impl ToSocketAddrs, limits: FrameLimits) -> io::Result<KvClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(KvClient {
            conn: BufReader::new(FlushOnRead::new(stream)),
            limits,
        })
    }

    /// Queues a request without waiting for the reply (pipelining). It
    /// is sent by the next [`KvClient::recv`] that has to read, by
    /// [`KvClient::flush`], or at once if the queue passes its bound.
    ///
    /// # Errors
    ///
    /// Propagates socket write errors.
    pub fn send(&mut self, cmd: &Command) -> io::Result<()> {
        self.conn.get_mut().queue_frame(&cmd.to_args())
    }

    /// Sends every queued request now.
    ///
    /// # Errors
    ///
    /// Propagates socket write errors.
    pub fn flush(&mut self) -> io::Result<()> {
        self.conn.get_mut().flush()
    }

    /// Receives the next in-order reply, first sending every queued
    /// request if the reply has not arrived yet.
    ///
    /// # Errors
    ///
    /// `UnexpectedEof` if the server closed the connection;
    /// `InvalidData` for malformed frames or replies.
    pub fn recv(&mut self) -> io::Result<Reply> {
        let args = read_frame(&mut self.conn, self.limits)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"))?;
        Reply::parse(&args).map_err(|m| io::Error::new(io::ErrorKind::InvalidData, m))
    }

    /// One full request/reply round trip.
    ///
    /// # Errors
    ///
    /// See [`KvClient::send`] and [`KvClient::recv`].
    pub fn request(&mut self, cmd: &Command) -> io::Result<Reply> {
        self.send(cmd)?;
        self.recv()
    }

    /// `GET key` → `Some(value)` or `None`.
    ///
    /// # Errors
    ///
    /// `InvalidData` for any reply other than `VAL`/`NIL` (including
    /// `BUSY` — callers that shed load should use [`KvClient::request`]).
    pub fn get(&mut self, key: &[u8]) -> io::Result<Option<Vec<u8>>> {
        match self.request(&Command::Get(key.to_vec()))? {
            Reply::Val(v) => Ok(Some(v)),
            Reply::Nil => Ok(None),
            other => Err(unexpected(&other)),
        }
    }

    /// `SET key value`.
    ///
    /// # Errors
    ///
    /// `InvalidData` for any reply other than `OK`.
    pub fn set(&mut self, key: &[u8], value: &[u8]) -> io::Result<()> {
        match self.request(&Command::Set(key.to_vec(), value.to_vec()))? {
            Reply::Ok => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// `DEL key` → whether the key existed.
    ///
    /// # Errors
    ///
    /// `InvalidData` for any reply other than `INT`.
    pub fn del(&mut self, key: &[u8]) -> io::Result<bool> {
        match self.request(&Command::Del(key.to_vec()))? {
            Reply::Int(n) => Ok(n == 1),
            other => Err(unexpected(&other)),
        }
    }

    /// `INCR key` → the new value.
    ///
    /// # Errors
    ///
    /// `InvalidData` for non-`INT` replies, including the server's
    /// "value is not an integer" error.
    pub fn incr(&mut self, key: &[u8]) -> io::Result<u64> {
        match self.request(&Command::Incr(key.to_vec()))? {
            Reply::Int(n) => Ok(n),
            other => Err(unexpected(&other)),
        }
    }

    /// `MGET keys...` → per-key `Option<value>`, positionally.
    ///
    /// # Errors
    ///
    /// `InvalidData` for any reply other than `MVAL`.
    pub fn mget(&mut self, keys: &[&[u8]]) -> io::Result<Vec<Option<Vec<u8>>>> {
        let cmd = Command::MGet(keys.iter().map(|k| k.to_vec()).collect());
        match self.request(&cmd)? {
            Reply::MVal(vals) => Ok(vals),
            other => Err(unexpected(&other)),
        }
    }

    /// `STATS` → the server's statistics JSON.
    ///
    /// # Errors
    ///
    /// `InvalidData` for any reply other than `VAL`.
    pub fn stats(&mut self) -> io::Result<String> {
        match self.request(&Command::Stats)? {
            Reply::Val(v) => Ok(String::from_utf8_lossy(&v).into_owned()),
            other => Err(unexpected(&other)),
        }
    }

    /// `SHUTDOWN` — asks the server to drain and exit.
    ///
    /// # Errors
    ///
    /// `InvalidData` for any reply other than `OK`.
    pub fn shutdown(&mut self) -> io::Result<()> {
        match self.request(&Command::Shutdown)? {
            Reply::Ok => Ok(()),
            other => Err(unexpected(&other)),
        }
    }
}

fn unexpected(reply: &Reply) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("unexpected reply {reply:?}"),
    )
}
