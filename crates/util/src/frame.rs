//! Length-prefixed, RESP-like text framing for the KV service wire
//! protocol.
//!
//! A *frame* is a list of binary arguments. On the wire it looks like a
//! simplified RESP array of bulk strings:
//!
//! ```text
//! *<nargs>\n
//! $<len0>\n<raw bytes>\n
//! $<len1>\n<raw bytes>\n
//! ...
//! ```
//!
//! Every length is an explicit decimal prefix, so argument payloads are
//! arbitrary bytes (including `\n` and empty strings) and the reader
//! never scans payload content. Both requests and replies are frames;
//! the first argument of a request is the command name and the first
//! argument of a reply is a status tag (see `hcf-kv`'s protocol module).
//!
//! The reader enforces [`FrameLimits`] *before* allocating, so a
//! malicious or corrupt peer cannot ask the server to reserve gigabytes
//! with a five-byte header.

use std::io::{self, BufRead, Write};

/// Default cap on the number of arguments in one frame.
pub const MAX_ARGS_DEFAULT: usize = 1024;

/// Default cap on the byte length of a single argument (1 MiB).
pub const MAX_ARG_LEN_DEFAULT: usize = 1 << 20;

/// Size limits enforced by [`read_frame`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameLimits {
    /// Maximum number of arguments in a frame (must be ≥ 1).
    pub max_args: usize,
    /// Maximum byte length of one argument (0 allows only empty args).
    pub max_arg_len: usize,
}

impl Default for FrameLimits {
    fn default() -> Self {
        FrameLimits {
            max_args: MAX_ARGS_DEFAULT,
            max_arg_len: MAX_ARG_LEN_DEFAULT,
        }
    }
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Writes one frame. Does **not** flush: callers batching several
/// frames (pipelining) flush once at the end.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_frame<W: Write + ?Sized>(w: &mut W, args: &[&[u8]]) -> io::Result<()> {
    writeln!(w, "*{}", args.len())?;
    for arg in args {
        writeln!(w, "${}", arg.len())?;
        w.write_all(arg)?;
        w.write_all(b"\n")?;
    }
    Ok(())
}

/// Convenience wrapper over [`write_frame`] for owned argument lists.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_frame_owned<W: Write + ?Sized>(w: &mut W, args: &[Vec<u8>]) -> io::Result<()> {
    writeln!(w, "*{}", args.len())?;
    for arg in args {
        writeln!(w, "${}", arg.len())?;
        w.write_all(arg)?;
        w.write_all(b"\n")?;
    }
    Ok(())
}

/// Reads a `\n`-terminated ASCII header line of at most `max` bytes
/// (excluding the terminator). Returns `None` on clean EOF before any
/// byte was read.
fn read_header_line<R: BufRead + ?Sized>(r: &mut R, max: usize) -> io::Result<Option<Vec<u8>>> {
    let mut line = Vec::with_capacity(16);
    let mut first = true;
    loop {
        let mut byte = [0u8; 1];
        match r.read(&mut byte) {
            Ok(0) => {
                if first && line.is_empty() {
                    return Ok(None);
                }
                return Err(bad("unexpected EOF inside frame header"));
            }
            Ok(_) => {
                first = false;
                if byte[0] == b'\n' {
                    return Ok(Some(line));
                }
                if line.len() >= max {
                    return Err(bad("frame header line too long"));
                }
                line.push(byte[0]);
            }
            Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

/// Parses `<prefix><decimal>` out of a header line.
fn parse_prefixed(line: &[u8], prefix: u8, what: &str) -> io::Result<usize> {
    if line.first() != Some(&prefix) {
        return Err(bad(format!(
            "expected '{}' header for {what}, got {:?}",
            prefix as char,
            String::from_utf8_lossy(line)
        )));
    }
    let digits = &line[1..];
    if digits.is_empty() || digits.len() > 12 || !digits.iter().all(u8::is_ascii_digit) {
        return Err(bad(format!("malformed {what} length")));
    }
    let mut n: usize = 0;
    for &d in digits {
        n = n
            .checked_mul(10)
            .and_then(|n| n.checked_add((d - b'0') as usize))
            .ok_or_else(|| bad(format!("{what} length overflow")))?;
    }
    Ok(n)
}

/// Reads one frame, returning its argument list.
///
/// Returns `Ok(None)` on a clean EOF at a frame boundary (the peer hung
/// up between frames); EOF *inside* a frame is an error.
///
/// # Errors
///
/// `InvalidData` for malformed headers or frames exceeding `limits`;
/// other I/O errors are propagated.
pub fn read_frame<R: BufRead + ?Sized>(
    r: &mut R,
    limits: FrameLimits,
) -> io::Result<Option<Vec<Vec<u8>>>> {
    let Some(header) = read_header_line(r, 16)? else {
        return Ok(None);
    };
    let nargs = parse_prefixed(&header, b'*', "argument count")?;
    if nargs == 0 {
        return Err(bad("empty frame"));
    }
    if nargs > limits.max_args {
        return Err(bad(format!(
            "frame has {nargs} args, limit {}",
            limits.max_args
        )));
    }
    let mut args = Vec::with_capacity(nargs);
    for _ in 0..nargs {
        let line = read_header_line(r, 16)?.ok_or_else(|| bad("EOF inside frame"))?;
        let len = parse_prefixed(&line, b'$', "argument")?;
        if len > limits.max_arg_len {
            return Err(bad(format!(
                "argument of {len} bytes, limit {}",
                limits.max_arg_len
            )));
        }
        let mut buf = vec![0u8; len];
        r.read_exact(&mut buf)?;
        let mut nl = [0u8; 1];
        r.read_exact(&mut nl)?;
        if nl[0] != b'\n' {
            return Err(bad("missing argument terminator"));
        }
        args.push(buf);
    }
    Ok(Some(args))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn roundtrip(args: &[&[u8]]) -> Vec<Vec<u8>> {
        let mut buf = Vec::new();
        write_frame(&mut buf, args).unwrap();
        read_frame(&mut Cursor::new(buf), FrameLimits::default())
            .unwrap()
            .unwrap()
    }

    #[test]
    fn simple_roundtrip() {
        assert_eq!(
            roundtrip(&[b"GET", b"some-key"]),
            vec![b"GET".to_vec(), b"some-key".to_vec()]
        );
    }

    #[test]
    fn binary_and_empty_args_roundtrip() {
        let blob = [0u8, b'\n', b'*', b'$', 0xFF, b'\n'];
        assert_eq!(
            roundtrip(&[b"SET", &blob, b""]),
            vec![b"SET".to_vec(), blob.to_vec(), Vec::new()]
        );
    }

    #[test]
    fn multiple_frames_back_to_back() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[b"A"]).unwrap();
        write_frame(&mut buf, &[b"B", b"C"]).unwrap();
        let mut cur = Cursor::new(buf);
        let lim = FrameLimits::default();
        assert_eq!(
            read_frame(&mut cur, lim).unwrap().unwrap(),
            vec![b"A".to_vec()]
        );
        assert_eq!(
            read_frame(&mut cur, lim).unwrap().unwrap(),
            vec![b"B".to_vec(), b"C".to_vec()]
        );
        assert!(read_frame(&mut cur, lim).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn eof_inside_frame_is_an_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[b"GET", b"key"]).unwrap();
        buf.truncate(buf.len() - 3);
        let err = read_frame(&mut Cursor::new(buf), FrameLimits::default());
        assert!(err.is_err());
    }

    #[test]
    fn limits_are_enforced() {
        let lim = FrameLimits {
            max_args: 2,
            max_arg_len: 4,
        };
        let mut ok = Vec::new();
        write_frame(&mut ok, &[b"AB", b"CDEF"]).unwrap();
        assert!(read_frame(&mut Cursor::new(ok), lim).unwrap().is_some());

        let mut too_many = Vec::new();
        write_frame(&mut too_many, &[b"A", b"B", b"C"]).unwrap();
        assert!(read_frame(&mut Cursor::new(too_many), lim).is_err());

        let mut too_big = Vec::new();
        write_frame(&mut too_big, &[b"ABCDE"]).unwrap();
        assert!(read_frame(&mut Cursor::new(too_big), lim).is_err());
    }

    #[test]
    fn malformed_headers_are_rejected() {
        let lim = FrameLimits::default();
        for junk in [
            &b"2\n$1\nA\n"[..],                // missing '*'
            &b"*\n"[..],                       // no digits
            &b"*1\n$x\nA\n"[..],               // non-decimal length
            &b"*0\n"[..],                      // empty frame
            &b"*1\n$1\nAB"[..],                // wrong terminator
            &b"*1\n$999999999999999999\n"[..], // overflow-length
        ] {
            assert!(
                read_frame(&mut Cursor::new(junk.to_vec()), lim).is_err(),
                "accepted {:?}",
                String::from_utf8_lossy(junk)
            );
        }
    }

    #[test]
    fn owned_writer_matches_borrowed_writer() {
        let args: Vec<Vec<u8>> = vec![b"X".to_vec(), b"YZ".to_vec()];
        let mut a = Vec::new();
        let mut b = Vec::new();
        write_frame_owned(&mut a, &args).unwrap();
        write_frame(&mut b, &[b"X", b"YZ"]).unwrap();
        assert_eq!(a, b);
    }
}
