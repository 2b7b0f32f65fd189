//! Equivalence of the incremental request parser with the one-shot
//! reader — the framing contract the epoll reactor rests on.
//!
//! The reactor feeds [`RequestParser`] whatever segments the kernel
//! delivers; the blocking reference reader pulls the same bytes
//! through [`read_request`]. These properties pin that for any complete byte
//! stream — pipelined keep-alive requests, any header/body shape the
//! server speaks, malformed frames — both paths produce identical
//! request sequences and identical malformed classifications,
//! regardless of how the stream is split into segments (byte-by-byte
//! included).
//!
//! The corpus stays ASCII: the two paths intentionally differ on
//! *truncated* streams (the one-shot reader sees EOF where the
//! incremental parser waits for more bytes), and on non-UTF-8 head
//! bytes the one-shot reader reports an I/O error where the
//! incremental parser classifies lossily — neither can occur on the
//! wire traffic the server accepts, and both are excluded here.

use pic_net::http::{read_request, Parse, RecvError, RequestParser};
use proptest::prelude::*;
use std::io::BufReader;

/// A parsed request, flattened for comparison.
type Summary = (String, String, Vec<(String, String)>, Vec<u8>);

/// What a complete stream parses to: the requests in order, and the
/// malformed classification that terminated parsing (if any).
#[derive(Debug, PartialEq)]
struct Outcome {
    requests: Vec<Summary>,
    malformed: Option<String>,
}

/// Pulls the whole stream through the blocking one-shot reader.
fn one_shot(stream: &[u8]) -> Outcome {
    let mut reader = BufReader::new(stream);
    let mut requests = Vec::new();
    loop {
        match read_request(&mut reader) {
            Ok(req) => requests.push((req.method, req.path, req.headers, req.body)),
            Err(RecvError::Closed) => {
                return Outcome {
                    requests,
                    malformed: None,
                }
            }
            Err(RecvError::Malformed(why)) => {
                return Outcome {
                    requests,
                    malformed: Some(why),
                }
            }
            Err(e) => panic!("in-memory stream cannot fail transport: {e}"),
        }
    }
}

/// Feeds the stream to the incremental parser in the given segments,
/// polling after every segment exactly like the reactor does.
fn incremental(stream: &[u8], segment_ends: &[usize]) -> Outcome {
    let mut parser = RequestParser::new();
    let mut requests = Vec::new();
    let mut fed = 0;
    let mut segments: Vec<usize> = segment_ends.to_vec();
    segments.push(stream.len());
    for end in segments {
        let end = end.min(stream.len());
        if end > fed {
            parser.feed(&stream[fed..end]);
            fed = end;
        }
        loop {
            match parser.poll() {
                Parse::Request(req) => {
                    requests.push((req.method, req.path, req.headers, req.body));
                }
                Parse::Incomplete => break,
                Parse::Malformed(why) => {
                    return Outcome {
                        requests,
                        malformed: Some(why),
                    }
                }
            }
        }
    }
    Outcome {
        requests,
        malformed: None,
    }
}

/// xorshift-style mixer for deriving independent draws from one seed.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Builds one syntactically valid request from a seed: varied method,
/// path, optional headers (mixed case, padded whitespace), optional
/// body with an exact `Content-Length`, CRLF or bare-LF line endings.
fn build_request(seed: u64) -> Vec<u8> {
    let mut s = seed;
    let method = ["GET", "POST", "PUT", "DELETE"][(mix(&mut s) % 4) as usize];
    let path = format!("/r{}/{}", mix(&mut s) % 100, mix(&mut s) % 1000);
    let eol = if mix(&mut s).is_multiple_of(4) {
        "\n"
    } else {
        "\r\n"
    };
    let mut wire = format!("{method} {path} HTTP/1.1{eol}").into_bytes();
    if mix(&mut s).is_multiple_of(2) {
        let client = format!("client-{}", mix(&mut s) % 8);
        let header = ["x-client", "X-Client", "X-CLIENT"][(mix(&mut s) % 3) as usize];
        wire.extend_from_slice(format!("{header}: {client}{eol}").as_bytes());
    }
    if mix(&mut s).is_multiple_of(3) {
        wire.extend_from_slice(format!("accept:  application/json {eol}").as_bytes());
    }
    let body_len = (mix(&mut s) % 96) as usize;
    if body_len > 0 || mix(&mut s).is_multiple_of(2) {
        wire.extend_from_slice(format!("content-length: {body_len}{eol}").as_bytes());
    }
    wire.extend_from_slice(eol.as_bytes());
    for i in 0..body_len {
        // Printable ASCII, including CR/LF-free JSON-ish bytes.
        wire.push(b' ' + ((mix(&mut s).wrapping_add(i as u64)) % 95) as u8);
    }
    wire
}

/// A pipeline of `count` valid requests, concatenated back-to-back.
fn build_pipeline(seed: u64, count: usize) -> Vec<u8> {
    let mut s = seed;
    let mut wire = Vec::new();
    for _ in 0..count {
        wire.extend_from_slice(&build_request(mix(&mut s)));
    }
    wire
}

/// One malformed frame, complete through the offending line so both
/// paths reach the classification.
fn build_malformed(seed: u64) -> Vec<u8> {
    let mut s = seed;
    match mix(&mut s) % 5 {
        0 => b"NOT-A-REQUEST\r\n\r\n".to_vec(),
        1 => b"GET /x SPDY/3\r\n\r\n".to_vec(),
        2 => b"GET /x HTTP/1.1\r\nbroken header line\r\n\r\n".to_vec(),
        3 => b"POST /x HTTP/1.1\r\ncontent-length: ten\r\n\r\n".to_vec(),
        _ => format!("POST /x HTTP/1.1\r\ncontent-length: {}\r\n\r\n", u64::MAX).into_bytes(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random segmentation of a valid pipeline parses to exactly the
    /// one-shot result: same requests, same order, same fields.
    #[test]
    fn random_splits_match_the_one_shot_parser(
        seed in any::<u64>(),
        count in 1usize..=4,
        cuts in proptest::collection::vec(any::<u64>(), 0..12),
    ) {
        let wire = build_pipeline(seed, count);
        let segment_ends: Vec<usize> = cuts
            .iter()
            .map(|&c| (c % (wire.len() as u64 + 1)) as usize)
            .collect();
        let split = incremental(&wire, &segment_ends);
        let whole = one_shot(&wire);
        prop_assert_eq!(split.requests.len(), count, "every request parsed");
        prop_assert_eq!(split, whole);
    }

    /// The degenerate segmentation — one byte per feed — still matches.
    #[test]
    fn byte_by_byte_matches_the_one_shot_parser(
        seed in any::<u64>(),
        count in 1usize..=3,
    ) {
        let wire = build_pipeline(seed, count);
        let every_byte: Vec<usize> = (1..=wire.len()).collect();
        let split = incremental(&wire, &every_byte);
        prop_assert_eq!(split, one_shot(&wire));
    }

    /// Malformed frames classify identically — same terminal verdict,
    /// same human-readable reason, and the same number of preceding
    /// valid requests served before the poison frame.
    #[test]
    fn malformed_frames_classify_identically(
        seed in any::<u64>(),
        valid_prefix in 0usize..=2,
        cuts in proptest::collection::vec(any::<u64>(), 0..8),
    ) {
        let mut wire = build_pipeline(seed, valid_prefix);
        wire.extend_from_slice(&build_malformed(seed));
        let segment_ends: Vec<usize> = cuts
            .iter()
            .map(|&c| (c % (wire.len() as u64 + 1)) as usize)
            .collect();
        let split = incremental(&wire, &segment_ends);
        let whole = one_shot(&wire);
        prop_assert!(split.malformed.is_some(), "poison frame detected");
        prop_assert_eq!(split.requests.len(), valid_prefix);
        prop_assert_eq!(split, whole);
    }

    /// Segmentation invariance holds for *any* ASCII bytes, not just
    /// streams the server accepts: how a stream is split never changes
    /// what it parses to.
    #[test]
    fn segmentation_never_changes_the_outcome(
        bytes in proptest::collection::vec(0x20u8..0x7f, 0..256),
        cuts in proptest::collection::vec(any::<u64>(), 0..16),
        newlines in proptest::collection::vec(any::<u64>(), 0..8),
    ) {
        // Sprinkle newlines in so line-structured parses are reachable.
        let mut wire = bytes;
        for &at in &newlines {
            if !wire.is_empty() {
                let i = (at % wire.len() as u64) as usize;
                wire[i] = b'\n';
            }
        }
        let segment_ends: Vec<usize> = cuts
            .iter()
            .map(|&c| (c % (wire.len() as u64 + 1)) as usize)
            .collect();
        let split = incremental(&wire, &segment_ends);
        let whole = incremental(&wire, &[]);
        prop_assert_eq!(split, whole);
    }
}
