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

use std::io::{self, BufRead, Read, Write};

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

/// Longest header line [`read_frame`] gathers, terminator excluded.
/// `parse_prefixed` then accepts at most 12 digits of it.
const HEADER_MAX: usize = 16;

/// Writes the header line `<prefix><n>\n` in one `write_all`, formatting
/// `n` on the stack.
fn write_header<W: Write + ?Sized>(w: &mut W, prefix: u8, n: usize) -> io::Result<()> {
    // The prefix, at most 20 digits for a 64-bit `usize`, and `\n`.
    let mut line = [0u8; 22];
    let mut i = line.len() - 1;
    line[i] = b'\n';
    let mut n = n;
    loop {
        i -= 1;
        line[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    i -= 1;
    line[i] = prefix;
    w.write_all(&line[i..])
}

fn write_args<W: Write + ?Sized, A: AsRef<[u8]>>(w: &mut W, args: &[A]) -> io::Result<()> {
    write_header(w, b'*', args.len())?;
    for arg in args {
        let arg = arg.as_ref();
        write_header(w, b'$', arg.len())?;
        w.write_all(arg)?;
        w.write_all(b"\n")?;
    }
    Ok(())
}

/// Writes one frame. Does **not** flush: callers batching several
/// frames (pipelining) flush once at the end.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_frame<W: Write + ?Sized>(w: &mut W, args: &[&[u8]]) -> io::Result<()> {
    write_args(w, args)
}

/// Convenience wrapper over [`write_frame`] for owned argument lists.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_frame_owned<W: Write + ?Sized>(w: &mut W, args: &[Vec<u8>]) -> io::Result<()> {
    write_args(w, args)
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

/// Like [`BufRead::fill_buf`], retrying on `Interrupted`. The retry loop
/// cannot return the buffer it borrowed, so a second call hands it out;
/// unless the first call hit EOF, that call finds the buffer filled and
/// reads nothing.
fn fill<R: BufRead + ?Sized>(r: &mut R) -> io::Result<&[u8]> {
    loop {
        match r.fill_buf() {
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    r.fill_buf()
}

/// Reads one `<prefix><decimal>\n` header line and returns its number.
/// Returns `None` on clean EOF before any byte was read.
///
/// The line is parsed in place from the reader's buffer; only a line
/// that straddles a refill is gathered into a stack buffer. A line
/// longer than [`HEADER_MAX`] bytes is rejected as soon as that many
/// bytes have arrived without a terminator.
fn read_header<R: BufRead + ?Sized>(
    r: &mut R,
    prefix: u8,
    what: &str,
) -> io::Result<Option<usize>> {
    let mut line = [0u8; HEADER_MAX];
    let mut len = 0;
    loop {
        let buf = fill(r)?;
        if buf.is_empty() {
            if len == 0 {
                return Ok(None);
            }
            return Err(bad("unexpected EOF inside frame header"));
        }
        // Only the first bytes that could still belong to a legal line
        // are searched.
        let window = &buf[..buf.len().min(HEADER_MAX - len + 1)];
        match window.iter().position(|&b| b == b'\n') {
            Some(end) if len == 0 => {
                let n = parse_prefixed(&window[..end], prefix, what);
                r.consume(end + 1);
                return n.map(Some);
            }
            Some(end) => {
                line[len..len + end].copy_from_slice(&window[..end]);
                r.consume(end + 1);
                return parse_prefixed(&line[..len + end], prefix, what).map(Some);
            }
            None if window.len() > HEADER_MAX - len => {
                return Err(bad("frame header line too long"));
            }
            None => {
                let got = window.len();
                line[len..len + got].copy_from_slice(window);
                len += got;
                r.consume(got);
            }
        }
    }
}

/// Reads one argument payload of `len` bytes and its `\n` terminator.
fn read_arg<R: BufRead + ?Sized>(r: &mut R, len: usize) -> io::Result<Vec<u8>> {
    let buf = fill(r)?;
    if let Some(&term) = buf.get(len) {
        // The whole argument is buffered: one copy, no zeroing.
        if term != b'\n' {
            return Err(bad("missing argument terminator"));
        }
        let arg = buf[..len].to_vec();
        r.consume(len + 1);
        return Ok(arg);
    }
    let mut arg = vec![0u8; len];
    r.read_exact(&mut arg)?;
    let mut nl = [0u8; 1];
    r.read_exact(&mut nl)?;
    if nl[0] != b'\n' {
        return Err(bad("missing argument terminator"));
    }
    Ok(arg)
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
    let Some(nargs) = read_header(r, b'*', "argument count")? else {
        return Ok(None);
    };
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
        let len = read_header(r, b'$', "argument")?.ok_or_else(|| bad("EOF inside frame"))?;
        if len > limits.max_arg_len {
            return Err(bad(format!(
                "argument of {len} bytes, limit {}",
                limits.max_arg_len
            )));
        }
        args.push(read_arg(r, len)?);
    }
    Ok(Some(args))
}

/// The most bytes a [`FlushOnRead`] holds back: a longer queue is
/// written out at once, so a peer that pipelines without reading cannot
/// make it grow without bound. It equals std's `BufReader` default
/// capacity, the size of the read side's buffer.
pub const FLUSH_BOUND: usize = 8 * 1024;

/// A stream whose output waits for its next read.
///
/// [`FlushOnRead::queue_frame`] appends a frame to an in-memory queue,
/// and every [`Read::read`] first writes the whole queue out in one
/// `write_all`. Under a [`BufReader`](std::io::BufReader), which reads
/// only when its buffer is empty, a peer that answers each frame it
/// reads sends the answers to everything one read brought in with one
/// write, and never blocks on a read with an answer still queued. With
/// one frame in flight the writes and reads are the same as writing
/// each frame at once.
#[derive(Debug)]
pub struct FlushOnRead<S: Write> {
    stream: S,
    queued: Vec<u8>,
}

impl<S: Write> FlushOnRead<S> {
    /// Wraps `stream` with an empty queue.
    pub fn new(stream: S) -> Self {
        FlushOnRead {
            stream,
            queued: Vec::with_capacity(256),
        }
    }

    /// Appends one frame to the queue; writes the queue out if it now
    /// holds more than [`FLUSH_BOUND`] bytes.
    ///
    /// # Errors
    ///
    /// Propagates write errors from that flush.
    pub fn queue_frame(&mut self, args: &[Vec<u8>]) -> io::Result<()> {
        write_frame_owned(&mut self.queued, args)?;
        if self.queued.len() > FLUSH_BOUND {
            self.flush()?;
        }
        Ok(())
    }

    /// Writes out everything queued. The queue is emptied even when the
    /// write fails: the stream is then broken and its bytes cannot be
    /// delivered anyway.
    ///
    /// # Errors
    ///
    /// Propagates write errors from the stream.
    pub fn flush(&mut self) -> io::Result<()> {
        if self.queued.is_empty() {
            return Ok(());
        }
        let res = self.stream.write_all(&self.queued);
        self.queued.clear();
        res
    }
}

impl<S: Read + Write> Read for FlushOnRead<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.flush()?;
        self.stream.read(buf)
    }
}

impl<S: Write> Drop for FlushOnRead<S> {
    /// Best effort, as `BufWriter` does: frames queued but never flushed
    /// still go out when the stream is dropped.
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ptest::{one_of, u64s, vec_of, Gen};
    use crate::{prop_assert_eq, proptest_lite};
    use std::io::{BufReader, Cursor};

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

    /// Arguments that stress the framing: empty, binary, `\n`-bearing,
    /// and digit-only ones that look like headers.
    fn arg() -> Gen<Vec<u8>> {
        one_of(vec![
            vec_of(u64s(0..256).map(|b| b as u8), 0..40),
            vec_of(one_of(vec![u64s(10..11), u64s(36..37), u64s(42..43)]), 0..8)
                .map(|v| v.into_iter().map(|b| b as u8).collect()),
            vec_of(u64s(48..58).map(|b| b as u8), 0..20),
        ])
    }

    /// Small read buffers make every header and argument straddle
    /// refills at some point.
    const CAPACITIES: [usize; 4] = [1, 2, 3, 7];

    proptest_lite! {
        cases = 96;

        fn frames_roundtrip_through_small_read_buffers(
            frames in vec_of(vec_of(arg(), 1..6), 1..4)
        ) {
            let mut wire = Vec::new();
            for f in &frames {
                write_frame_owned(&mut wire, f).unwrap();
            }
            for cap in CAPACITIES {
                let mut r = BufReader::with_capacity(cap, wire.as_slice());
                for f in &frames {
                    prop_assert_eq!(
                        &read_frame(&mut r, FrameLimits::default()).unwrap().unwrap(),
                        f
                    );
                }
                prop_assert_eq!(read_frame(&mut r, FrameLimits::default()).unwrap(), None);
            }
        }
    }

    #[test]
    fn an_overlong_header_is_rejected_at_every_split() {
        let lim = FrameLimits::default();
        // 17 bytes before the terminator: one more than a line may hold.
        let long = b"*0000000000000001\n$1\nA\n";
        // 16 bytes fit the line, but 15 digits are too many for a length.
        let digits = b"*000000000000001\n$1\nA\n";
        // 12 digits: the longest length accepted.
        let longest = b"*000000000001\n$1\nA\n";
        for cap in 1..=long.len() {
            let mut r = BufReader::with_capacity(cap, &long[..]);
            let err = read_frame(&mut r, lim).unwrap_err();
            assert!(err.to_string().contains("too long"), "cap {cap}: {err}");
            let mut r = BufReader::with_capacity(cap, &digits[..]);
            let err = read_frame(&mut r, lim).unwrap_err();
            assert!(err.to_string().contains("malformed"), "cap {cap}: {err}");
            let mut r = BufReader::with_capacity(cap, &longest[..]);
            assert_eq!(
                read_frame(&mut r, lim).unwrap(),
                Some(vec![b"A".to_vec()]),
                "cap {cap}"
            );
        }
        // An argument header too, after a header that fits.
        let long_arg = b"*1\n$0000000000000001\nA\n";
        for cap in 1..=long_arg.len() {
            let mut r = BufReader::with_capacity(cap, &long_arg[..]);
            assert!(read_frame(&mut r, lim).is_err(), "cap {cap}");
        }
    }

    #[test]
    fn lengths_are_formatted_in_decimal() {
        let mut buf = Vec::new();
        write_header(&mut buf, b'$', 0).unwrap();
        write_header(&mut buf, b'*', 1_234_567_890).unwrap();
        write_header(&mut buf, b'$', usize::MAX).unwrap();
        assert_eq!(
            buf,
            format!("$0\n*1234567890\n${}\n", usize::MAX).into_bytes()
        );
    }

    /// A stream that logs each `write` and `read` call.
    #[derive(Default)]
    struct Logged {
        input: Cursor<Vec<u8>>,
        writes: Vec<Vec<u8>>,
        reads: usize,
    }

    impl Write for Logged {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Read for Logged {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            self.input.read(buf)
        }
    }

    #[test]
    fn queued_frames_go_out_in_one_write_before_a_read() {
        let mut s = FlushOnRead::new(Logged::default());
        s.queue_frame(&[b"A".to_vec()]).unwrap();
        s.queue_frame(&[b"B".to_vec(), b"C".to_vec()]).unwrap();
        assert!(s.stream.writes.is_empty(), "queued frames were written");
        // The logged stream has no input: each read returns 0 bytes.
        assert_eq!(s.read(&mut [0u8; 4]).unwrap(), 0);
        let mut want = Vec::new();
        write_frame(&mut want, &[b"A"]).unwrap();
        write_frame(&mut want, &[b"B", b"C"]).unwrap();
        assert_eq!(s.stream.writes, [want]);
        // An empty queue adds no write to a read.
        assert_eq!(s.read(&mut [0u8; 4]).unwrap(), 0);
        assert_eq!((s.stream.writes.len(), s.stream.reads), (1, 2));
    }

    #[test]
    fn a_queue_past_the_bound_is_written_at_once() {
        let mut s = FlushOnRead::new(Logged::default());
        let arg = vec![b'x'; FLUSH_BOUND / 4];
        let mut frames = 0;
        while s.stream.writes.is_empty() {
            s.queue_frame(std::slice::from_ref(&arg)).unwrap();
            frames += 1;
        }
        assert_eq!(frames, 4, "the fourth frame crosses the bound");
        assert!(s.stream.writes[0].len() > FLUSH_BOUND);
        assert!(s.queued.is_empty());
    }

    #[test]
    fn dropping_the_stream_sends_what_is_queued() {
        let mut out = Vec::new();
        {
            let mut s = FlushOnRead::new(&mut out);
            s.queue_frame(&[b"BYE".to_vec()]).unwrap();
        }
        let mut want = Vec::new();
        write_frame(&mut want, &[b"BYE"]).unwrap();
        assert_eq!(out, want);
    }
}
