//! Property tests for the wire layer: arbitrary argument lists —
//! including empty and limit-sized arguments — survive a frame
//! encode/decode round trip, and commands/replies survive the full
//! protocol stack.

use hcf_kv::{Command, Reply};
use hcf_util::frame::{read_frame, write_frame_owned, FrameLimits};
use hcf_util::ptest::{one_of, tuple2, u64s, vec_of, Gen};
use hcf_util::{prop_assert, prop_assert_eq, proptest_lite};

/// Arbitrary binary strings, length 0..max (empty is a legal argument).
fn bytes(max_len: u64) -> Gen<Vec<u8>> {
    vec_of(u64s(0..256).map(|b| b as u8), 0..max_len as usize)
}

fn roundtrip(args: &[Vec<u8>], limits: FrameLimits) -> Vec<Vec<u8>> {
    let mut buf = Vec::new();
    write_frame_owned(&mut buf, args).unwrap();
    let mut r = buf.as_slice();
    let decoded = read_frame(&mut r, limits).unwrap().expect("one frame");
    assert!(r.is_empty(), "frame fully consumed");
    decoded
}

proptest_lite! {
    cases = 96;

    fn frames_roundtrip(args in vec_of(bytes(64), 1..10)) {
        prop_assert_eq!(roundtrip(&args, FrameLimits::default()), args);
    }

    fn back_to_back_frames_stay_separated(
        pair in tuple2(vec_of(bytes(32), 1..6), vec_of(bytes(32), 1..6))
    ) {
        let (a, b) = pair;
        let mut buf = Vec::new();
        write_frame_owned(&mut buf, &a).unwrap();
        write_frame_owned(&mut buf, &b).unwrap();
        let limits = FrameLimits::default();
        let mut r = buf.as_slice();
        prop_assert_eq!(read_frame(&mut r, limits).unwrap().unwrap(), a);
        prop_assert_eq!(read_frame(&mut r, limits).unwrap().unwrap(), b);
        prop_assert!(read_frame(&mut r, limits).unwrap().is_none(), "clean EOF");
    }

    fn commands_survive_the_wire(cmd in command()) {
        let decoded = roundtrip(&cmd.to_args(), FrameLimits::default());
        prop_assert_eq!(Command::parse(&decoded).unwrap(), cmd);
    }

    fn replies_survive_the_wire(reply in reply()) {
        let decoded = roundtrip(&reply.to_args(), FrameLimits::default());
        prop_assert_eq!(Reply::parse(&decoded).unwrap(), reply);
    }
}

fn command() -> Gen<Command> {
    let key = || bytes(24);
    one_of(vec![
        key().map(Command::Get),
        tuple2(key(), bytes(48)).map(|(k, v)| Command::Set(k, v)),
        key().map(Command::Del),
        key().map(Command::Incr),
        vec_of(key(), 1..6).map(Command::MGet),
        Gen::new(|_, _| Command::Stats),
        Gen::new(|_, _| Command::Shutdown),
    ])
}

fn reply() -> Gen<Reply> {
    one_of(vec![
        Gen::new(|_, _| Reply::Ok),
        Gen::new(|_, _| Reply::Nil),
        Gen::new(|_, _| Reply::Busy),
        bytes(48).map(Reply::Val),
        u64s(0..u64::MAX).map(Reply::Int),
        vec_of(
            one_of(vec![bytes(16).map(Some), Gen::new(|_, _| None::<Vec<u8>>)]),
            0..5,
        )
        .map(Reply::MVal),
        bytes(32).map(|b| Reply::Err(String::from_utf8_lossy(&b).into_owned())),
    ])
}

#[test]
fn limit_sized_argument_roundtrips_and_one_more_byte_is_rejected() {
    let limits = FrameLimits {
        max_args: 4,
        max_arg_len: 64,
    };
    let exact = vec![vec![0xAB; 64]];
    assert_eq!(roundtrip(&exact, limits), exact);

    let mut buf = Vec::new();
    write_frame_owned(&mut buf, &[vec![0xAB; 65]]).unwrap();
    let err = read_frame(&mut buf.as_slice(), limits).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
}

#[test]
fn too_many_arguments_are_rejected_before_allocation() {
    let limits = FrameLimits {
        max_args: 2,
        max_arg_len: 16,
    };
    let args: Vec<Vec<u8>> = (0..3).map(|i| vec![i]).collect();
    let mut buf = Vec::new();
    write_frame_owned(&mut buf, &args).unwrap();
    let err = read_frame(&mut buf.as_slice(), limits).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
}

#[test]
fn empty_frame_of_empty_args_roundtrips() {
    // [""] — one argument, zero bytes: empty keys/values are legal.
    let args = vec![Vec::new()];
    assert_eq!(roundtrip(&args, FrameLimits::default()), args);
}
