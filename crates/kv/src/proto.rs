//! The KV service's command/reply vocabulary over
//! [`hcf_util::frame`] frames.
//!
//! A request frame is `[COMMAND, arg, ...]`; a reply frame is
//! `[TAG, payload, ...]`. Command names are case-insensitive ASCII;
//! keys and values are arbitrary bytes (the framing is length-prefixed,
//! so nothing is escaped). Reply tags:
//!
//! | tag    | payload                                   | meaning |
//! |--------|-------------------------------------------|---------|
//! | `OK`   | —                                         | SET / SHUTDOWN succeeded |
//! | `NIL`  | —                                         | GET missed |
//! | `VAL`  | one value                                 | GET hit / STATS JSON |
//! | `INT`  | decimal integer                           | INCR result, DEL count |
//! | `MVAL` | per key: presence flag (`1`/`0`) + value  | MGET |
//! | `ERR`  | message                                   | request-level failure |
//! | `BUSY` | —                                         | load shed: shard queue full, retry later |
//!
//! `MVAL` carries an explicit presence flag so a *missing* key is
//! distinguishable from an *empty* value without sentinels.

/// A parsed client request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Command {
    /// Fetch the value of a key.
    Get(Vec<u8>),
    /// Set a key to a value.
    Set(Vec<u8>, Vec<u8>),
    /// Delete a key; replies with `INT 1` if it existed, `INT 0` if not.
    Del(Vec<u8>),
    /// Atomically increment an integer value (missing key starts at 0);
    /// replies with the new value.
    Incr(Vec<u8>),
    /// Fetch several keys at once. Atomic per shard, not across shards.
    MGet(Vec<Vec<u8>>),
    /// Snapshot server and per-shard engine statistics as JSON.
    Stats,
    /// Ask the server to drain and exit.
    Shutdown,
}

fn eq_ignore_case(a: &[u8], b: &str) -> bool {
    a.eq_ignore_ascii_case(b.as_bytes())
}

fn arity(name: &str, args: &[Vec<u8>], want: usize) -> Result<(), String> {
    if args.len() != want + 1 {
        Err(format!(
            "{name} takes {want} argument(s), got {}",
            args.len() - 1
        ))
    } else {
        Ok(())
    }
}

impl Command {
    /// Parses a request frame's argument list.
    ///
    /// # Errors
    ///
    /// A human-readable message for unknown commands or wrong arity
    /// (sent back to the client as an `ERR` reply).
    pub fn parse(args: &[Vec<u8>]) -> Result<Command, String> {
        let Some(name) = args.first() else {
            return Err("empty command".into());
        };
        if eq_ignore_case(name, "GET") {
            arity("GET", args, 1)?;
            Ok(Command::Get(args[1].clone()))
        } else if eq_ignore_case(name, "SET") {
            arity("SET", args, 2)?;
            Ok(Command::Set(args[1].clone(), args[2].clone()))
        } else if eq_ignore_case(name, "DEL") {
            arity("DEL", args, 1)?;
            Ok(Command::Del(args[1].clone()))
        } else if eq_ignore_case(name, "INCR") {
            arity("INCR", args, 1)?;
            Ok(Command::Incr(args[1].clone()))
        } else if eq_ignore_case(name, "MGET") {
            if args.len() < 2 {
                return Err("MGET takes at least 1 key".into());
            }
            Ok(Command::MGet(args[1..].to_vec()))
        } else if eq_ignore_case(name, "STATS") {
            arity("STATS", args, 0)?;
            Ok(Command::Stats)
        } else if eq_ignore_case(name, "SHUTDOWN") {
            arity("SHUTDOWN", args, 0)?;
            Ok(Command::Shutdown)
        } else {
            Err(format!(
                "unknown command {:?}",
                String::from_utf8_lossy(name)
            ))
        }
    }

    /// Encodes the command as a request frame's argument list.
    pub fn to_args(&self) -> Vec<Vec<u8>> {
        match self {
            Command::Get(k) => vec![b"GET".to_vec(), k.clone()],
            Command::Set(k, v) => vec![b"SET".to_vec(), k.clone(), v.clone()],
            Command::Del(k) => vec![b"DEL".to_vec(), k.clone()],
            Command::Incr(k) => vec![b"INCR".to_vec(), k.clone()],
            Command::MGet(keys) => {
                let mut a = vec![b"MGET".to_vec()];
                a.extend(keys.iter().cloned());
                a
            }
            Command::Stats => vec![b"STATS".to_vec()],
            Command::Shutdown => vec![b"SHUTDOWN".to_vec()],
        }
    }
}

/// A server reply. See the module docs for the wire mapping.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reply {
    /// Success without a payload.
    Ok,
    /// Key not present.
    Nil,
    /// A single value.
    Val(Vec<u8>),
    /// An integer result.
    Int(u64),
    /// MGET results, positionally: `None` = key absent.
    MVal(Vec<Option<Vec<u8>>>),
    /// Request-level failure.
    Err(String),
    /// Load shed: the target shard's queue was full. Retry later.
    Busy,
}

impl Reply {
    /// Encodes the reply as a frame's argument list.
    pub fn to_args(&self) -> Vec<Vec<u8>> {
        match self {
            Reply::Ok => vec![b"OK".to_vec()],
            Reply::Nil => vec![b"NIL".to_vec()],
            Reply::Val(v) => vec![b"VAL".to_vec(), v.clone()],
            Reply::Int(n) => vec![b"INT".to_vec(), n.to_string().into_bytes()],
            Reply::MVal(vals) => {
                let mut a = Vec::with_capacity(1 + vals.len() * 2);
                a.push(b"MVAL".to_vec());
                for v in vals {
                    match v {
                        Some(bytes) => {
                            a.push(b"1".to_vec());
                            a.push(bytes.clone());
                        }
                        None => {
                            a.push(b"0".to_vec());
                            a.push(Vec::new());
                        }
                    }
                }
                a
            }
            Reply::Err(msg) => vec![b"ERR".to_vec(), msg.clone().into_bytes()],
            Reply::Busy => vec![b"BUSY".to_vec()],
        }
    }

    /// Parses a reply frame's argument list.
    ///
    /// # Errors
    ///
    /// A message describing the malformed reply.
    pub fn parse(args: &[Vec<u8>]) -> Result<Reply, String> {
        let Some(tag) = args.first() else {
            return Err("empty reply".into());
        };
        let fixed = |want: usize, out: Reply| {
            if args.len() != want {
                Err(format!("bad reply arity {}", args.len()))
            } else {
                Ok(out)
            }
        };
        match tag.as_slice() {
            b"OK" => fixed(1, Reply::Ok),
            b"NIL" => fixed(1, Reply::Nil),
            b"BUSY" => fixed(1, Reply::Busy),
            b"VAL" => fixed(2, Reply::Val(args.get(1).cloned().unwrap_or_default())),
            b"INT" => {
                if args.len() != 2 {
                    return Err(format!("bad INT arity {}", args.len()));
                }
                let s = std::str::from_utf8(&args[1]).map_err(|_| "non-UTF8 INT".to_string())?;
                s.parse::<u64>()
                    .map(Reply::Int)
                    .map_err(|_| format!("bad INT payload {s:?}"))
            }
            b"ERR" => {
                if args.len() != 2 {
                    return Err(format!("bad ERR arity {}", args.len()));
                }
                Ok(Reply::Err(String::from_utf8_lossy(&args[1]).into_owned()))
            }
            b"MVAL" => {
                if args.len() % 2 != 1 {
                    return Err("MVAL needs flag/value pairs".into());
                }
                let mut vals = Vec::with_capacity((args.len() - 1) / 2);
                for pair in args[1..].chunks(2) {
                    match pair[0].as_slice() {
                        b"1" => vals.push(Some(pair[1].clone())),
                        b"0" => vals.push(None),
                        f => return Err(format!("bad MVAL flag {:?}", String::from_utf8_lossy(f))),
                    }
                }
                Ok(Reply::MVal(vals))
            }
            t => Err(format!(
                "unknown reply tag {:?}",
                String::from_utf8_lossy(t)
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commands_roundtrip() {
        let cmds = [
            Command::Get(b"k".to_vec()),
            Command::Set(b"k".to_vec(), vec![0, 1, 2, b'\n']),
            Command::Del(Vec::new()),
            Command::Incr(b"ctr".to_vec()),
            Command::MGet(vec![b"a".to_vec(), Vec::new(), b"c".to_vec()]),
            Command::Stats,
            Command::Shutdown,
        ];
        for cmd in cmds {
            assert_eq!(Command::parse(&cmd.to_args()).unwrap(), cmd);
        }
    }

    #[test]
    fn command_names_are_case_insensitive() {
        let args = vec![b"get".to_vec(), b"k".to_vec()];
        assert_eq!(Command::parse(&args).unwrap(), Command::Get(b"k".to_vec()));
    }

    #[test]
    fn bad_commands_are_rejected() {
        for args in [
            vec![],
            vec![b"NOPE".to_vec()],
            vec![b"GET".to_vec()],
            vec![b"SET".to_vec(), b"k".to_vec()],
            vec![b"MGET".to_vec()],
            vec![b"STATS".to_vec(), b"x".to_vec()],
        ] {
            assert!(Command::parse(&args).is_err(), "accepted {args:?}");
        }
    }

    #[test]
    fn replies_roundtrip() {
        let replies = [
            Reply::Ok,
            Reply::Nil,
            Reply::Val(vec![0, b'\n', 0xFF]),
            Reply::Val(Vec::new()),
            Reply::Int(0),
            Reply::Int(u64::MAX),
            Reply::MVal(vec![Some(b"v".to_vec()), None, Some(Vec::new())]),
            Reply::Err("boom".into()),
            Reply::Busy,
        ];
        for r in replies {
            assert_eq!(Reply::parse(&r.to_args()).unwrap(), r);
        }
    }

    #[test]
    fn mval_distinguishes_missing_from_empty() {
        let r = Reply::MVal(vec![None, Some(Vec::new())]);
        let parsed = Reply::parse(&r.to_args()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn bad_replies_are_rejected() {
        for args in [
            vec![],
            vec![b"WHAT".to_vec()],
            vec![b"INT".to_vec(), b"x".to_vec()],
            vec![b"MVAL".to_vec(), b"1".to_vec()],
            vec![b"MVAL".to_vec(), b"2".to_vec(), b"v".to_vec()],
            vec![b"OK".to_vec(), b"extra".to_vec()],
        ] {
            assert!(Reply::parse(&args).is_err(), "accepted {args:?}");
        }
    }
}
