//! Property suite for the serve wire protocol (vendored proptest), in the
//! mold of `wire_roundtrip`:
//!
//! 1. **round trip** — every request/response the encoder can produce
//!    decodes back to itself through the total
//!    [`Request::decode_checked`] / [`Response::decode_checked`] decoders,
//!    consuming the payload exactly;
//! 2. **truncation totality** — every strict prefix of a valid encoding is
//!    a typed [`FrameError`], never a panic and never a bogus success (the
//!    codec has no self-delimiting value a prefix could terminate at);
//! 3. **fuzz totality** — arbitrary byte soup and single-byte corruptions
//!    of valid encodings always *return* from the checked decoders.  This
//!    is the property that lets the server run them on socket bytes: a
//!    malformed frame costs one `BAD_REQUEST` reply, not the process;
//! 4. **framing** — `read_frame ∘ write_frame = id`, clean EOF at a frame
//!    boundary is `Ok(None)`, and streams cut mid-frame are io errors.

use lma_serve::proto::{
    read_frame, write_frame, ErrorReport, FrameError, Request, RequestBody, Response, ResponseBody,
    RunReport, RunSpec, StatsReport, MAX_FRAME,
};
use proptest::prelude::*;

/// Arbitrary bytes → always-valid UTF-8 (lossy), exercising multi-byte
/// characters and the empty string.
fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

fn spec(words: &[Vec<u8>], nums: (u64, u64, u64, u64), opts: (u64, u64)) -> RunSpec {
    RunSpec {
        workload: text(words.first().map_or(&[][..], Vec::as_slice)),
        family: text(words.get(1).map_or(&[][..], Vec::as_slice)),
        n: nums.0 as usize,
        seed: nums.1,
        backing: text(words.get(2).map_or(&[][..], Vec::as_slice)),
        threads: nums.2 as usize,
        round_limit: (opts.0 & 1 == 1).then_some(opts.0 >> 1),
        deadline_ms: (opts.1 & 1 == 1).then_some(opts.1 >> 1),
    }
}

fn request(tag: u64, id: u64, body_spec: RunSpec) -> Request {
    let body = match tag % 4 {
        0 => RequestBody::Ping,
        1 => RequestBody::Run(body_spec),
        2 => RequestBody::Stats,
        _ => RequestBody::Shutdown,
    };
    Request { id, body }
}

fn response(tag: u64, id: u64, words: &[Vec<u8>], nums: &[u64]) -> Response {
    let at = |i: usize| nums.get(i).copied().unwrap_or(0);
    let body = match tag % 5 {
        0 => ResponseBody::Pong,
        1 => ResponseBody::Done(RunReport {
            digest: text(words.first().map_or(&[][..], Vec::as_slice)),
            rounds: at(0),
            messages: at(1),
            bits: at(2),
            queue_ns: at(3),
            run_ns: at(4),
            lanes: at(5) as u32,
        }),
        2 => ResponseBody::Failed(ErrorReport {
            code: at(0) as u8,
            message: text(words.first().map_or(&[][..], Vec::as_slice)),
        }),
        3 => ResponseBody::Stats(StatsReport {
            served: at(0),
            failed: at(1),
            coalesced: at(2),
            graph_hits: at(3),
            graph_misses: at(4),
            partition_hits: at(5),
            partition_misses: at(6),
            oracle_hits: at(7),
            oracle_misses: at(8),
            batch_widths: nums
                .iter()
                .map(|&x| ((x >> 32) as u32, x & 0xffff_ffff))
                .collect(),
            queue_p50_ns: at(9),
            queue_p99_ns: at(10),
            total_p50_ns: at(11),
            total_p99_ns: at(12),
            cache_entries: at(13),
            cache_bytes: at(14),
            cache_evictions: at(15),
            executors: at(16),
            queue_depth: at(17),
            in_flight_groups: at(18),
        }),
        _ => ResponseBody::Bye(at(0)),
    };
    Response { id, body }
}

/// The checked decoder agrees with the encoder, consumes the payload
/// exactly, and rejects every strict prefix.
fn pin_request(value: &Request) {
    let bytes = value.to_bytes();
    assert_eq!(
        Request::decode_checked(&bytes).as_ref(),
        Ok(value),
        "checked decode"
    );
    for cut in 0..bytes.len() {
        let err =
            Request::decode_checked(&bytes[..cut]).expect_err("a strict prefix must never decode");
        assert!(!err.to_string().is_empty());
    }
}

fn pin_response(value: &Response) {
    let bytes = value.to_bytes();
    assert_eq!(
        Response::decode_checked(&bytes).as_ref(),
        Ok(value),
        "checked decode"
    );
    for cut in 0..bytes.len() {
        let err =
            Response::decode_checked(&bytes[..cut]).expect_err("a strict prefix must never decode");
        assert!(!err.to_string().is_empty());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn requests_round_trip_and_truncate_to_typed_errors(
        tag in any::<u64>(),
        id in any::<u64>(),
        words in collection::vec(collection::vec(any::<u8>(), 0..24), 0..4),
        nums in ((any::<u64>(), any::<u64>()), (0u64..1 << 32, any::<u64>())),
        opts in (any::<u64>(), any::<u64>()),
    ) {
        let ((a, b), (c, d)) = nums;
        pin_request(&request(tag, id, spec(&words, (a, b, c, d), opts)));
    }

    #[test]
    fn responses_round_trip_and_truncate_to_typed_errors(
        tag in any::<u64>(),
        id in any::<u64>(),
        words in collection::vec(collection::vec(any::<u8>(), 0..48), 0..3),
        nums in collection::vec(any::<u64>(), 0..20),
    ) {
        pin_response(&response(tag, id, &words, &nums));
    }

    /// Arbitrary byte soup: the checked decoders must *return* — any
    /// `Ok` is fine, any `Err` is fine, a panic is the only failure.
    #[test]
    fn arbitrary_bytes_decode_totally(
        bytes in collection::vec(any::<u8>(), 0..256),
    ) {
        if let Ok(decoded) = Request::decode_checked(&bytes) {
            // A success must at least be self-consistent: the decoded value
            // survives its own encode → decode round trip.  (Byte equality
            // with the input is too strong — over-long varints are
            // non-canonical spellings of the same value; see the dedicated
            // case below.)
            prop_assert_eq!(Request::decode_checked(&decoded.to_bytes()), Ok(decoded));
        }
        if let Ok(decoded) = Response::decode_checked(&bytes) {
            prop_assert_eq!(Response::decode_checked(&decoded.to_bytes()), Ok(decoded));
        }
    }

    /// Single-byte corruption of a valid encoding: still total, and when
    /// the result decodes it must survive its own round trip.
    #[test]
    fn corrupted_encodings_decode_totally(
        tag in any::<u64>(),
        id in any::<u64>(),
        words in collection::vec(collection::vec(any::<u8>(), 0..16), 0..4),
        nums in ((any::<u64>(), any::<u64>()), (0u64..1 << 32, any::<u64>())),
        opts in (any::<u64>(), any::<u64>()),
        flip in (0usize..1 << 16, 1u64..256),
    ) {
        let ((a, b), (c, d)) = nums;
        let mut bytes = request(tag, id, spec(&words, (a, b, c, d), opts)).to_bytes();
        let at = flip.0 % bytes.len();
        bytes[at] ^= flip.1 as u8;
        if let Ok(decoded) = Request::decode_checked(&bytes) {
            prop_assert_eq!(Request::decode_checked(&decoded.to_bytes()), Ok(decoded));
        }
    }

    #[test]
    fn frames_round_trip_and_truncations_are_errors(
        payload in collection::vec(any::<u8>(), 0..512),
        cut_seed in any::<u64>(),
    ) {
        let mut framed = Vec::new();
        write_frame(&mut framed, &payload).unwrap();
        prop_assert_eq!(framed.len(), 4 + payload.len());
        let mut cursor = std::io::Cursor::new(framed.clone());
        prop_assert_eq!(read_frame(&mut cursor).unwrap(), Some(payload.clone()));
        prop_assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF is None");
        // Any strict prefix of the frame stream: Ok(None) only at offset 0,
        // an io error everywhere else — never a panic, never a short read.
        let cut = (cut_seed as usize) % framed.len();
        let mut cursor = std::io::Cursor::new(framed[..cut].to_vec());
        match read_frame(&mut cursor) {
            Ok(None) => prop_assert_eq!(cut, 0, "mid-frame EOF must not look clean"),
            Ok(Some(_)) => prop_assert!(false, "a cut frame must not decode"),
            Err(_) => {}
        }
    }
}

/// The varint caveat called out inline above, pinned as its own case: the
/// checked decoder accepts non-canonical (over-long) varints, so two
/// different byte strings may decode to one value — round-trip agreement
/// is on *values*, not bytes.
#[test]
fn non_canonical_varints_decode_to_the_same_value() {
    // id=0 as the canonical single byte...
    let canonical = Request {
        id: 0,
        body: RequestBody::Ping,
    };
    assert_eq!(
        Request::decode_checked(&canonical.to_bytes()),
        Ok(canonical.clone())
    );
    // ...and as the over-long two-byte form 0x80 0x00.
    let overlong = vec![0x80, 0x00, 0];
    assert_eq!(Request::decode_checked(&overlong), Ok(canonical));
}

/// The 1 MiB frame cap is enforced on both sides of the framing layer.
#[test]
fn frame_cap_is_enforced_both_ways() {
    let big = vec![0u8; MAX_FRAME + 1];
    assert!(write_frame(&mut Vec::new(), &big).is_err());
    let mut hostile = Vec::new();
    hostile.extend_from_slice(&u32::try_from(MAX_FRAME + 1).unwrap().to_le_bytes());
    hostile.extend_from_slice(&[0u8; 16]);
    let err = read_frame(&mut std::io::Cursor::new(hostile)).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
}

/// The hostile-length cap: a claimed 4 GiB string inside a 3-byte payload
/// is a typed `LengthOverrun` before any allocation could happen.
#[test]
fn hostile_claimed_lengths_are_typed_errors() {
    let mut bytes = vec![1, 1]; // id=1, tag=Run
                                // workload string length = u32::MAX as a varint
    let mut x = u64::from(u32::MAX);
    loop {
        let byte = (x & 0x7f) as u8;
        x >>= 7;
        if x == 0 {
            bytes.push(byte);
            break;
        }
        bytes.push(byte | 0x80);
    }
    match Request::decode_checked(&bytes) {
        Err(FrameError::LengthOverrun { claimed, remaining }) => {
            assert_eq!(claimed, u64::from(u32::MAX));
            assert_eq!(remaining, 0);
        }
        other => panic!("expected LengthOverrun, got {other:?}"),
    }
}
