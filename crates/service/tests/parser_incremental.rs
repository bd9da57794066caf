//! Replay fuzzing for the resumable [`RequestParser`]: every fixture
//! stream is fed whole, split at **every** byte boundary, byte-by-byte,
//! and in proptest-chosen random chunkings, and each replay must yield
//! exactly the one-shot result the fixture writes out by hand — unit by
//! unit, the request (method, path, query, body, keep-alive, whether a
//! deadline was sent) or the error status it parses to — including
//! pipelined back-to-back requests that share a chunk.
//!
//! Truncated streams are covered separately: cutting a stream anywhere
//! that is *not* a request boundary must leave the parser `!is_clean()`
//! (the reactor's abort oracle), while cutting exactly between requests
//! must leave it clean.

use an5d_service::http::HttpError;
use an5d_service::{Parse, Request, RequestParser};
use proptest::prelude::*;

/// The fields a well-formed unit must parse to.
#[derive(Debug, Clone, Copy)]
struct Fields {
    method: &'static str,
    path: &'static str,
    query: &'static str,
    body: &'static [u8],
    keep_alive: bool,
    deadline: bool,
}

/// An HTTP/1.1 `GET /` with no headers; fixtures override what differs.
const GET: Fields = Fields {
    method: "GET",
    path: "/",
    query: "",
    body: b"",
    keep_alive: true,
    deadline: false,
};

/// One request's worth of bytes plus what it must parse to: its fields,
/// or the status of the framing error that poisons the rest of the
/// stream.
struct Unit {
    bytes: &'static [u8],
    expect: Result<Fields, u16>,
}

const fn ok(bytes: &'static [u8], fields: Fields) -> Unit {
    Unit {
        bytes,
        expect: Ok(fields),
    }
}

const fn bad(bytes: &'static [u8], status: u16) -> Unit {
    Unit {
        bytes,
        expect: Err(status),
    }
}

/// Fixture streams, each a concatenation of request units so the exact
/// request boundaries are known by construction. Error units only ever
/// appear last: the parser stops at the first framing error.
fn fixtures() -> Vec<(&'static str, Vec<Unit>)> {
    vec![
        (
            "simple get",
            vec![ok(
                b"GET /stats HTTP/1.1\r\n\r\n",
                Fields {
                    path: "/stats",
                    ..GET
                },
            )],
        ),
        (
            "post with query and body",
            vec![ok(
                b"POST /parse?verbose=1 HTTP/1.1\r\nContent-Length: 11\r\n\r\nhello world",
                Fields {
                    method: "POST",
                    path: "/parse",
                    query: "verbose=1",
                    body: b"hello world",
                    ..GET
                },
            )],
        ),
        (
            "http/1.0 opting into keep-alive",
            vec![ok(
                b"GET /devices HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
                Fields {
                    path: "/devices",
                    ..GET
                },
            )],
        ),
        (
            "http/1.0 closes by default",
            vec![ok(
                b"get /devices HTTP/1.0\r\n\r\n",
                Fields {
                    path: "/devices",
                    keep_alive: false,
                    ..GET
                },
            )],
        ),
        (
            "close wins over later keep-alive",
            vec![ok(
                b"GET /stats HTTP/1.1\r\nConnection: close\r\nConnection: keep-alive\r\n\r\n",
                Fields {
                    path: "/stats",
                    keep_alive: false,
                    ..GET
                },
            )],
        ),
        (
            "body containing CRLF noise",
            vec![ok(
                b"POST /plan HTTP/1.1\r\nContent-Length: 14\r\n\r\nGET /x\r\n\r\nBODY",
                Fields {
                    method: "POST",
                    path: "/plan",
                    body: b"GET /x\r\n\r\nBODY",
                    ..GET
                },
            )],
        ),
        (
            "bare-LF line endings",
            vec![ok(
                b"POST /parse HTTP/1.1\nContent-Length: 3\n\nabc",
                Fields {
                    method: "POST",
                    path: "/parse",
                    body: b"abc",
                    ..GET
                },
            )],
        ),
        (
            "repeated equal content-length",
            vec![ok(
                b"POST /parse HTTP/1.1\r\nContent-Length: 3\r\ncontent-length: 3\r\n\r\nabc",
                Fields {
                    method: "POST",
                    path: "/parse",
                    body: b"abc",
                    ..GET
                },
            )],
        ),
        (
            "deadline header",
            vec![ok(
                b"GET /stats HTTP/1.1\r\nx-an5d-deadline-ms: 60000\r\n\r\n",
                Fields {
                    path: "/stats",
                    deadline: true,
                    ..GET
                },
            )],
        ),
        (
            "pipelined trio sharing the stream",
            vec![
                ok(
                    b"POST /parse HTTP/1.1\r\nContent-Length: 5\r\n\r\nfirst",
                    Fields {
                        method: "POST",
                        path: "/parse",
                        body: b"first",
                        ..GET
                    },
                ),
                ok(
                    b"GET /devices HTTP/1.1\r\n\r\n",
                    Fields {
                        path: "/devices",
                        ..GET
                    },
                ),
                ok(
                    b"POST /stats HTTP/1.1\r\nConnection: close\r\nContent-Length: 6\r\n\r\nsecond",
                    Fields {
                        method: "POST",
                        path: "/stats",
                        body: b"second",
                        keep_alive: false,
                        ..GET
                    },
                ),
            ],
        ),
        (
            "request after an empty-bodied post",
            vec![
                ok(
                    b"POST /shutdown HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
                    Fields {
                        method: "POST",
                        path: "/shutdown",
                        ..GET
                    },
                ),
                ok(
                    b"GET /metrics HTTP/1.1\r\n\r\n",
                    Fields {
                        path: "/metrics",
                        ..GET
                    },
                ),
            ],
        ),
        (
            "malformed request line",
            vec![bad(b"complete nonsense\r\n\r\n", 400)],
        ),
        (
            "unsupported protocol version",
            vec![bad(b"GET /stats SPDY/3\r\n\r\n", 400)],
        ),
        (
            "unparseable content-length",
            vec![bad(
                b"POST /parse HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
                400,
            )],
        ),
        (
            "signed content-length",
            vec![bad(
                b"POST /parse HTTP/1.1\r\nContent-Length: +5\r\n\r\nhello",
                400,
            )],
        ),
        (
            "conflicting content-lengths",
            vec![bad(
                b"POST /parse HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\nhello!",
                400,
            )],
        ),
        (
            "signed deadline",
            vec![bad(
                b"GET /stats HTTP/1.1\r\nx-an5d-deadline-ms: +250\r\n\r\n",
                400,
            )],
        ),
        (
            "oversized content-length is a 413",
            vec![bad(
                b"POST /parse HTTP/1.1\r\nContent-Length: 1073741824\r\n\r\n",
                413,
            )],
        ),
        (
            "transfer-encoding is refused with 501",
            vec![bad(
                b"POST /parse HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
                501,
            )],
        ),
        (
            "good request then a poisoned one",
            vec![
                ok(
                    b"GET /stats HTTP/1.1\r\n\r\n",
                    Fields {
                        path: "/stats",
                        ..GET
                    },
                ),
                bad(b"BLARG\r\n\r\n", 400),
            ],
        ),
    ]
}

fn stream_of(units: &[Unit]) -> Vec<u8> {
    units.iter().flat_map(|u| u.bytes.iter().copied()).collect()
}

/// Byte offsets at which the stream sits exactly between requests.
/// Units after the first error never complete (failures are sticky), so
/// boundaries stop accruing there.
fn boundaries_of(units: &[Unit]) -> Vec<usize> {
    let mut at = 0;
    let mut out = vec![0];
    for unit in units {
        if unit.expect.is_err() {
            break;
        }
        at += unit.bytes.len();
        out.push(at);
    }
    out
}

/// What a parse result is checked on: the request's fields (deadline
/// reduced to whether one was sent), or the error's status.
type Outcome = Result<(String, String, String, Vec<u8>, bool, bool), u16>;

fn outcome_of(result: &Result<Request, HttpError>) -> Outcome {
    match result {
        Ok(request) => Ok((
            request.method.clone(),
            request.path.clone(),
            request.query.clone(),
            request.body.clone(),
            request.keep_alive,
            request.deadline.is_some(),
        )),
        Err(err) => Err(err.status),
    }
}

/// The one-shot result: the fixture's table, up to and including the
/// first error.
fn one_shot(units: &[Unit]) -> Vec<Outcome> {
    let mut out = Vec::new();
    for unit in units {
        out.push(match unit.expect {
            Ok(f) => Ok((
                f.method.to_string(),
                f.path.to_string(),
                f.query.to_string(),
                f.body.to_vec(),
                f.keep_alive,
                f.deadline,
            )),
            Err(status) => Err(status),
        });
        if unit.expect.is_err() {
            break;
        }
    }
    out
}

/// Feed the stream to the resumable parser in the given chunks, draining
/// every completed request after each feed. Returns the parse results
/// plus the final `is_clean()` verdict.
fn incremental(chunks: &[&[u8]]) -> (Vec<Result<Request, HttpError>>, bool) {
    let mut parser = RequestParser::new();
    let mut out = Vec::new();
    for chunk in chunks {
        parser.feed(chunk);
        loop {
            match parser.parse() {
                Parse::Ready(request) => out.push(Ok(request)),
                Parse::Failed(err) => {
                    out.push(Err(err));
                    return (out, parser.is_clean());
                }
                Parse::NeedMore => break,
            }
        }
    }
    (out, parser.is_clean())
}

fn assert_equivalent(name: &str, chunks: &[&[u8]], expected: &[Outcome]) {
    let (got, _) = incremental(chunks);
    assert_eq!(
        got.len(),
        expected.len(),
        "{name}: request count diverged across {} chunks",
        chunks.len()
    );
    for (index, (got, want)) in got.iter().zip(expected).enumerate() {
        assert_eq!(&outcome_of(got), want, "{name}: request {index} diverged");
    }
}

#[test]
fn whole_stream_matches_one_shot() {
    for (name, units) in fixtures() {
        let raw = stream_of(&units);
        assert_equivalent(name, &[&raw], &one_shot(&units));
    }
}

#[test]
fn every_two_chunk_split_matches_one_shot() {
    for (name, units) in fixtures() {
        let raw = stream_of(&units);
        let expected = one_shot(&units);
        for cut in 0..=raw.len() {
            let (a, b) = raw.split_at(cut);
            assert_equivalent(&format!("{name} @ split {cut}"), &[a, b], &expected);
        }
    }
}

#[test]
fn byte_by_byte_replay_matches_one_shot() {
    for (name, units) in fixtures() {
        let raw = stream_of(&units);
        let expected = one_shot(&units);
        let chunks: Vec<&[u8]> = raw.chunks(1).collect();
        assert_equivalent(&format!("{name} byte-by-byte"), &chunks, &expected);
    }
}

#[test]
fn pipelined_requests_arriving_in_one_chunk_all_complete() {
    // The reactor relies on a single feed() surfacing *every* pipelined
    // request already in the buffer, one parse() call at a time.
    let name = "pipelined trio sharing the stream";
    let (_, units) = fixtures()
        .into_iter()
        .find(|(fixture, _)| *fixture == name)
        .expect("fixture exists");
    let raw = stream_of(&units);
    let (got, clean) = incremental(&[&raw]);
    assert_eq!(got.len(), 3, "{name}: all three requests must surface");
    assert!(got.iter().all(Result::is_ok));
    assert!(clean, "{name}: buffer must be empty after the last request");
}

#[test]
fn truncation_is_clean_exactly_at_request_boundaries() {
    for (name, units) in fixtures() {
        let raw = stream_of(&units);
        let expected = one_shot(&units);
        let boundaries = boundaries_of(&units);
        for cut in 0..=raw.len() {
            let prefix = &raw[..cut];
            let (got, clean) = incremental(&[prefix]);
            // Completed requests must be a prefix of the full stream's.
            let done = boundaries.iter().filter(|&&b| b > 0 && b <= cut).count();
            let failed = got.last().is_some_and(Result::is_err);
            if !failed {
                assert_eq!(
                    got.len(),
                    done,
                    "{name} cut at {cut}: exactly the fully-delivered requests complete"
                );
            }
            for (index, (got, want)) in got.iter().zip(&expected).enumerate() {
                assert_eq!(
                    &outcome_of(got),
                    want,
                    "{name} cut at {cut}: request {index} diverged"
                );
            }
            // The reactor's abort oracle: a close is clean iff the
            // stream ends exactly between requests (and no framing
            // error poisoned the parser).
            assert_eq!(
                clean,
                boundaries.contains(&cut) && !failed,
                "{name} cut at {cut}: is_clean() must flag mid-request truncation"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random chunkings of every fixture — arbitrary cut points, in any
    /// order and multiplicity (duplicates yield empty chunks, which the
    /// parser must tolerate) — always match the one-shot result.
    #[test]
    fn random_chunkings_match_one_shot(
        fixture in 0usize..64,
        mut cuts in prop::collection::vec(0usize..256, 0..12),
    ) {
        let fixtures = fixtures();
        let (name, units) = &fixtures[fixture % fixtures.len()];
        let raw = stream_of(units);
        let expected = one_shot(units);
        for cut in &mut cuts {
            *cut %= raw.len() + 1;
        }
        cuts.sort_unstable();
        let mut chunks: Vec<&[u8]> = Vec::with_capacity(cuts.len() + 1);
        let mut start = 0;
        for &cut in &cuts {
            chunks.push(&raw[start..cut]);
            start = cut;
        }
        chunks.push(&raw[start..]);
        assert_equivalent(&format!("{name} cuts {cuts:?}"), &chunks, &expected);
    }
}

/// Feed `raw` to a fresh parser in the chunks its cut points make, and
/// collect what it answers until it fails or runs out of bytes.
fn parse_in_chunks(raw: &[u8], cuts: &[usize]) -> Vec<Result<Request, HttpError>> {
    let mut cuts: Vec<usize> = cuts.iter().map(|cut| cut % (raw.len() + 1)).collect();
    cuts.sort_unstable();
    cuts.push(raw.len());
    let mut chunks = Vec::with_capacity(cuts.len());
    let mut start = 0;
    for cut in cuts {
        chunks.push(&raw[start..cut]);
        start = cut;
    }
    incremental(&chunks).0
}

/// The parser's two head limits, as the server documents them.
const LINE_LIMIT: usize = 8 * 1024;
const HEADER_LIMIT: usize = 64;

/// `bytes` with every `\n` turned into another byte, so it stays on one
/// line.
fn one_line(bytes: &[u8]) -> Vec<u8> {
    bytes
        .iter()
        .map(|&b| if b == b'\n' { b'x' } else { b })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes in arbitrary chunks, raw or behind a valid request
    /// head, never panic the parser, and a request it accepts carries no
    /// body over `MAX_BODY_BYTES`.
    #[test]
    fn arbitrary_bytes_never_panic_and_bodies_stay_bounded(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
        cuts in prop::collection::vec(any::<usize>(), 0..8),
        length in any::<u32>(),
        framed in any::<bool>(),
    ) {
        let raw = if framed {
            let mut raw = format!("POST /parse HTTP/1.1\r\nContent-Length: {length}\r\n\r\n")
                .into_bytes();
            raw.extend_from_slice(&bytes);
            raw
        } else {
            bytes
        };
        for request in parse_in_chunks(&raw, &cuts).into_iter().flatten() {
            prop_assert!(request.body.len() <= an5d_service::http::MAX_BODY_BYTES);
        }
    }

    /// A line over the 8 KiB limit, request line or header, is refused
    /// whatever it holds and however it arrives.
    #[test]
    fn an_overlong_line_is_an_http_error(
        filler in prop::collection::vec(any::<u8>(), LINE_LIMIT + 1..LINE_LIMIT + 64),
        cuts in prop::collection::vec(any::<usize>(), 0..8),
        in_header in any::<bool>(),
        terminated in any::<bool>(),
    ) {
        let mut raw = Vec::new();
        if in_header {
            raw.extend_from_slice(b"GET /stats HTTP/1.1\r\n");
        }
        raw.extend(one_line(&filler));
        if terminated {
            raw.extend_from_slice(b"\r\n\r\n");
        }
        let results = parse_in_chunks(&raw, &cuts);
        prop_assert!(
            matches!(results.last(), Some(Err(err)) if err.message == "header line too long"),
            "{results:?}"
        );
    }

    /// More than 64 headers are refused, whatever their values hold.
    #[test]
    fn too_many_headers_is_an_http_error(
        headers in prop::collection::vec(
            prop::collection::vec(any::<u8>(), 0..24),
            HEADER_LIMIT + 1..HEADER_LIMIT + 16,
        ),
        cuts in prop::collection::vec(any::<usize>(), 0..8),
    ) {
        let mut raw = b"GET /stats HTTP/1.1\r\n".to_vec();
        for value in &headers {
            // A header the server reads no further than its name.
            raw.extend_from_slice(b"x-filler: ");
            raw.extend(one_line(value));
            raw.extend_from_slice(b"\r\n");
        }
        raw.extend_from_slice(b"\r\n");
        let results = parse_in_chunks(&raw, &cuts);
        prop_assert!(
            matches!(results.last(), Some(Err(err)) if err.message == "too many headers"),
            "{results:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A body declared and sent at either side of the limit, in
    /// arbitrary chunks: accepted whole up to `MAX_BODY_BYTES`, a 413
    /// past it.
    #[test]
    fn bodies_past_the_limit_are_refused(
        over in 0usize..8,
        cuts in prop::collection::vec(any::<usize>(), 0..8),
    ) {
        let limit = an5d_service::http::MAX_BODY_BYTES;
        let length = limit - 4 + over;
        let mut raw = format!("POST /parse HTTP/1.1\r\nContent-Length: {length}\r\n\r\n")
            .into_bytes();
        raw.resize(raw.len() + length, b'a');
        let results = parse_in_chunks(&raw, &cuts);
        match results.as_slice() {
            [Ok(request)] => {
                prop_assert!(length <= limit);
                prop_assert_eq!(request.body.len(), length);
            }
            [Err(err)] => prop_assert!(length > limit && err.status == 413, "{err:?}"),
            other => panic!("{length} bytes: {other:?}"),
        }
    }
}
