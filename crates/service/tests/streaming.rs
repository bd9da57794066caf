//! Streaming round-trip tests: the chunked transfer coding survives
//! every byte split (mirroring `parser_incremental.rs` for the request
//! parser), the streamed `/batch` body reassembles byte-identical to
//! the `BatchDriver` facade's lines, `/batch` emits job lines
//! incrementally while later jobs are still running, a response that
//! fails mid-stream aborts the connection (the keep-alive regression
//! behind `an5d_connections_aborted`) — and every other body, up to the
//! largest `/codegen`, is sent whole with `Content-Length`.

mod common;

use an5d::{An5d, BatchDriver, BatchJob, BlockConfig, GridInit, Precision, SerialBackend};
use an5d_service::{
    api, client, encode_chunk, ChunkDecoder, Server, ServerConfig, CHUNK_TERMINATOR,
};
use common::{metric, post_request, read_head, read_response, send_raw, shutdown};
use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Chunked codec round-trip at every byte split
// ---------------------------------------------------------------------

/// Payload sets to frame; each becomes one chunked body.
fn fixtures() -> Vec<Vec<Vec<u8>>> {
    vec![
        vec![],                                      // empty body: terminator only
        vec![b"x".to_vec()],                         // single one-byte chunk
        vec![b"hello".to_vec(), b" world".to_vec()], // two small chunks
        vec![vec![0u8; 300]],                        // multi-hex-digit size line
        vec![
            b"a".to_vec(),
            b"bb".to_vec(),
            b"ccc".to_vec(),
            b"dddd".to_vec(),
        ],
        vec![b"\r\n0\r\n\r\n".to_vec()], // payload that looks like framing
    ]
}

/// Frame `payloads` as a complete chunked body.
fn wire_of(payloads: &[Vec<u8>]) -> Vec<u8> {
    let mut wire = Vec::new();
    for p in payloads {
        wire.extend_from_slice(&encode_chunk(p));
    }
    wire.extend_from_slice(CHUNK_TERMINATOR);
    wire
}

/// Ground truth: decode the whole wire in one call.
fn one_shot(wire: &[u8]) -> (Vec<u8>, usize, bool) {
    let mut decoder = ChunkDecoder::new();
    let mut out = Vec::new();
    let consumed = decoder.decode(wire, &mut out).expect("well-formed wire");
    (out, consumed, decoder.is_done())
}

/// Decode `wire` delivered as the given consecutive slices, resuming
/// the decoder across calls exactly as a client reading a socket would.
fn incremental(pieces: &[&[u8]]) -> (Vec<u8>, bool) {
    let mut decoder = ChunkDecoder::new();
    let mut out = Vec::new();
    for piece in pieces {
        let mut offset = 0;
        while offset < piece.len() && !decoder.is_done() {
            let consumed = decoder
                .decode(&piece[offset..], &mut out)
                .expect("well-formed wire");
            if consumed == 0 {
                break; // partial size line: needs more input
            }
            offset += consumed;
        }
    }
    (out, decoder.is_done())
}

#[test]
fn whole_wire_matches_the_payloads() {
    for payloads in fixtures() {
        let wire = wire_of(&payloads);
        let expected: Vec<u8> = payloads.concat();
        let (out, consumed, done) = one_shot(&wire);
        assert_eq!(out, expected);
        assert_eq!(consumed, wire.len());
        assert!(done);
    }
}

#[test]
fn every_two_chunk_split_matches_one_shot() {
    for payloads in fixtures() {
        let wire = wire_of(&payloads);
        let expected: Vec<u8> = payloads.concat();
        for cut in 0..=wire.len() {
            let (a, b) = wire.split_at(cut);
            let (out, done) = incremental(&[a, b]);
            assert_eq!(out, expected, "split at {cut}");
            assert!(done, "split at {cut}");
        }
    }
}

#[test]
fn byte_by_byte_replay_matches_one_shot() {
    for payloads in fixtures() {
        let wire = wire_of(&payloads);
        let expected: Vec<u8> = payloads.concat();
        let pieces: Vec<&[u8]> = wire.chunks(1).collect();
        let (out, done) = incremental(&pieces);
        assert_eq!(out, expected);
        assert!(done);
    }
}

#[test]
fn surplus_after_the_terminator_is_left_unconsumed() {
    for payloads in fixtures() {
        let mut wire = wire_of(&payloads);
        let body_len = wire.len();
        wire.extend_from_slice(b"NEXT RESPONSE");
        let (out, consumed, done) = one_shot(&wire);
        assert_eq!(out, payloads.concat());
        assert_eq!(consumed, body_len, "decoder must stop at the terminator");
        assert!(done);
    }
}

#[test]
fn truncation_is_never_silently_done() {
    for payloads in fixtures() {
        let wire = wire_of(&payloads);
        // Every strict prefix decodes without error but reports not-done:
        // the caller can tell a truncated body from a complete one.
        for cut in 0..wire.len() {
            let mut decoder = ChunkDecoder::new();
            let mut out = Vec::new();
            let mut offset = 0;
            while offset < cut {
                let consumed = decoder.decode(&wire[offset..cut], &mut out).unwrap();
                if consumed == 0 {
                    break;
                }
                offset += consumed;
            }
            assert!(!decoder.is_done(), "prefix of {cut} bytes claimed done");
        }
    }
}

/// `bytes` cut at the given points (taken modulo its length + 1, in any
/// order and multiplicity; duplicates yield empty pieces).
fn pieces<'a>(bytes: &'a [u8], cuts: &[usize]) -> Vec<&'a [u8]> {
    let mut cuts: Vec<usize> = cuts.iter().map(|cut| cut % (bytes.len() + 1)).collect();
    cuts.sort_unstable();
    cuts.push(bytes.len());
    let mut start = 0;
    cuts.iter()
        .map(|&cut| {
            let piece = &bytes[start..cut];
            start = cut;
            piece
        })
        .collect()
}

/// The decoder's limit on one size or trailer line, as the client
/// documents it.
const LINE_LIMIT: usize = 8 * 1024;

/// The bytes chunked framing is made of, drawn often so that random
/// streams get past the first size line.
const FRAMING: &[u8] = b"0123456789abcdefABCDEF;= \r\n\n\n+-";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random payloads delivered at random byte splits always decode
    /// to the concatenated payloads.
    #[test]
    fn random_chunkings_match_one_shot(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..64), 0..6),
        cuts in prop::collection::vec(0usize..4096, 0..12),
    ) {
        let wire = wire_of(&payloads);
        let (out, done) = incremental(&pieces(&wire, &cuts));
        prop_assert_eq!(out, payloads.concat());
        prop_assert!(done);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes in arbitrary pieces never panic the decoder. A
    /// call consumes no more than it was given, all of it until the body
    /// is done, and outputs no more than it consumed; an error is
    /// `InvalidData`.
    #[test]
    fn arbitrary_bytes_never_panic_or_overreach(
        picks in prop::collection::vec(any::<u16>(), 0..512),
        cuts in prop::collection::vec(any::<usize>(), 0..8),
    ) {
        let bytes: Vec<u8> = picks
            .iter()
            .map(|&pick| match pick.to_le_bytes() {
                [byte, 0..=191] => FRAMING[usize::from(byte) % FRAMING.len()],
                [byte, _] => byte,
            })
            .collect();
        let mut decoder = ChunkDecoder::new();
        let mut out = Vec::new();
        for piece in pieces(&bytes, &cuts) {
            let before = out.len();
            match decoder.decode(piece, &mut out) {
                Ok(consumed) => {
                    prop_assert!(consumed <= piece.len());
                    prop_assert!(consumed == piece.len() || decoder.is_done());
                    prop_assert!(out.len() - before <= consumed);
                }
                Err(err) => {
                    prop_assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
                    prop_assert!(out.len() - before <= piece.len());
                    break;
                }
            }
        }
    }

    /// A size or trailer line longer than the limit is refused by the
    /// call that delivers its first byte past the limit, whether or not
    /// the line's end arrives in the same piece — never buffered whole.
    #[test]
    fn an_overlong_framing_line_is_refused(
        extra in 1usize..64,
        cuts in prop::collection::vec(any::<usize>(), 0..8),
        trailer in any::<bool>(),
        terminated in any::<bool>(),
    ) {
        // Leading zeros keep a size line well-formed at any length; a
        // trailer line is a field the decoder otherwise ignores.
        let (mut wire, filler) = if trailer {
            (b"3\r\nabc\r\n0\r\n".to_vec(), b'x')
        } else {
            (Vec::new(), b'0')
        };
        let past_limit = wire.len() + LINE_LIMIT + 1;
        wire.resize(wire.len() + LINE_LIMIT + extra, filler);
        if terminated {
            wire.extend_from_slice(b"\r\n");
        }
        let mut decoder = ChunkDecoder::new();
        let mut out = Vec::new();
        let mut fed = 0;
        let mut refused = false;
        for piece in pieces(&wire, &cuts) {
            fed += piece.len();
            match decoder.decode(piece, &mut out) {
                Ok(_) => prop_assert!(fed < past_limit, "{fed} bytes accepted"),
                Err(err) => {
                    prop_assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
                    prop_assert!(fed >= past_limit, "refused at {fed} bytes");
                    refused = true;
                    break;
                }
            }
        }
        prop_assert!(refused);
    }
}

// ---------------------------------------------------------------------
// Server-side streaming
// ---------------------------------------------------------------------

/// Serializes every server-backed test in this binary: fault plans are
/// process-global, so a test installing one must not overlap a test
/// whose streams would trip it.
static FAULT_GATE: Mutex<()> = Mutex::new(());

fn start_server() -> Server {
    common::server(ServerConfig {
        workers: 2,
        queue_depth: 64,
        cache_capacity: 64,
        ..ServerConfig::default()
    })
}

fn install_plan(spec: &str) {
    an5d_fault::install(an5d_fault::FaultPlan::parse(spec).expect("valid plan"));
}

const CODEGEN_BODY: &str = r#"{"benchmark":"star2d1r","interior":[128,128],"steps":16,
    "config":{"bt":4,"bs":[64],"hsn":64,"precision":"single"}}"#;

const EXECUTE_BODY: &str = r#"{"benchmark":"j2d5pt","interior":[24,24],"steps":5,
    "config":{"bt":2,"bs":[12],"precision":"double"}}"#;

/// Three `/execute`-style jobs, exercising both benchmarks and an
/// explicit grid seed.
const BATCH_BODY: &str = r#"{"jobs":[
    {"benchmark":"j2d5pt","interior":[24,24],"steps":5,
     "config":{"bt":2,"bs":[12],"precision":"double"}},
    {"benchmark":"star2d1r","interior":[128,128],"steps":8,
     "config":{"bt":4,"bs":[64],"hsn":64,"precision":"single"}},
    {"benchmark":"j2d5pt","interior":[16,16],"steps":3,
     "config":{"bt":2,"bs":[8],"precision":"double"},"seed":7}
]}"#;

/// `BATCH_BODY`'s lines as the facade produces them: a fresh
/// `BatchDriver` (not the server's) over the same three jobs, rendered
/// by the one line serializer.
fn expected_batch_lines() -> String {
    let job = |name: &str, interior: &[usize], steps, config: BlockConfig, seed| {
        BatchJob::new(an5d::suite::by_name(name).unwrap(), interior, steps, config)
            .with_init(GridInit::Hash { seed })
    };
    let double = |bt, bs| BlockConfig::new(bt, &[bs], None, Precision::Double).unwrap();
    let single = BlockConfig::new(4, &[64], Some(64), Precision::Single).unwrap();
    let jobs = [
        job("j2d5pt", &[24, 24], 5, double(2, 12), 0x5EED),
        job("star2d1r", &[128, 128], 8, single, 0x5EED),
        job("j2d5pt", &[16, 16], 3, double(2, 8), 7),
    ];
    let results = BatchDriver::new(Arc::new(SerialBackend)).run(&jobs);
    let lines = results.iter().enumerate();
    lines.map(|(i, r)| api::batch_job_line(i, r)).collect()
}

#[test]
fn batch_stream_matches_the_facade_and_orders_lines_by_index() {
    let _gate = FAULT_GATE.lock().unwrap_or_else(|e| e.into_inner());
    an5d_fault::uninstall();
    let server = start_server();
    let addr = server.addr();

    let (status, streamed) = client::post(addr, "/batch", BATCH_BODY).expect("streamed");
    assert_eq!(status, 200, "{streamed}");
    assert_eq!(streamed, expected_batch_lines());

    let lines: Vec<&str> = streamed.lines().collect();
    assert_eq!(lines.len(), 3);
    for (index, line) in lines.iter().enumerate() {
        let parsed = an5d_service::parse_json(line).expect("each line is standalone JSON");
        let got = parsed.get("index").and_then(an5d_service::Json::as_f64);
        assert_eq!(got, Some(index as f64), "line {index}: {line}");
        assert!(parsed.get("checksum").is_some(), "line {index}: {line}");
    }

    // The response flowed through the stream series: one stream, one
    // chunk per job.
    let (status, metrics) = client::get(addr, "/metrics").expect("/metrics");
    assert_eq!(status, 200);
    let series = |family: &str| {
        metric(&metrics, family, &[("endpoint", "/batch")])
            .unwrap_or_else(|| panic!("{family} missing"))
    };
    assert_eq!(series("an5d_streams_total"), 1);
    assert_eq!(series("an5d_stream_chunks_total"), 3);
    assert_eq!(series("an5d_stream_bytes_total"), streamed.len() as u64);
    assert_eq!(series("an5d_stream_ttfb_us_count"), 1);

    shutdown(server);
}

fn raw_post(addr: SocketAddr, path: &str, body: &str) -> TcpStream {
    send_raw(addr, &post_request(path, body, true))
}

#[test]
fn streamed_responses_use_chunked_framing_on_the_wire() {
    let _gate = FAULT_GATE.lock().unwrap_or_else(|e| e.into_inner());
    an5d_fault::uninstall();
    let server = start_server();
    let addr = server.addr();

    let mut stream = raw_post(addr, "/batch", BATCH_BODY);
    let head = read_head(&mut stream);
    let lower = head.to_ascii_lowercase();
    assert!(lower.starts_with("http/1.1 200"), "{head}");
    assert!(lower.contains("transfer-encoding: chunked"), "{head}");
    assert!(!lower.contains("content-length"), "{head}");

    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("drain body");
    let mut decoder = ChunkDecoder::new();
    let mut body = Vec::new();
    let mut offset = 0;
    while !decoder.is_done() {
        let consumed = decoder
            .decode(&rest[offset..], &mut body)
            .expect("valid chunks");
        assert!(consumed > 0, "truncated chunked body on the wire");
        offset += consumed;
    }
    assert_eq!(String::from_utf8(body).unwrap(), expected_batch_lines());

    shutdown(server);
}

/// The largest body the service can produce: 257,603 bytes of CUDA —
/// many socket-buffer fills, just under the stream high-water mark.
const LARGEST_CODEGEN_BODY: &str = r#"{"benchmark":"box2d4r","interior":[2048,2048],"steps":16,
    "config":{"bt":16,"bs":[256],"hsn":256,"precision":"double"}}"#;

fn assert_sent_whole(head: &str) {
    let lower = head.to_ascii_lowercase();
    assert!(lower.starts_with("http/1.1 200"), "{head}");
    assert!(lower.contains("content-length: "), "{head}");
    assert!(!lower.contains("transfer-encoding"), "{head}");
}

#[test]
fn the_largest_body_arrives_whole_on_a_connection_that_stays_usable() {
    let _gate = FAULT_GATE.lock().unwrap_or_else(|e| e.into_inner());
    an5d_fault::uninstall();
    let server = start_server();
    let addr = server.addr();

    let pipeline = An5d::benchmark("box2d4r").unwrap();
    let problem = pipeline.problem(&[2048, 2048], 16).unwrap();
    let config = BlockConfig::new(16, &[256], Some(256), Precision::Double).unwrap();
    let code = pipeline.generate_cuda(&problem, &config).unwrap();
    let expected = api::codegen_response(&code).render();
    assert!(
        (250_000..256 * 1024).contains(&expected.len()),
        "{} bytes",
        expected.len()
    );
    let (_, small) = client::post(addr, "/execute", EXECUTE_BODY).expect("/execute");

    // Once plainly, once with every socket write capped at 4 KiB: the
    // single-segment response then drains through the resumable
    // `POLLOUT` path in ~63 pieces.
    for plan in [None, Some("seed=1;reactor.write=short:4096")] {
        if let Some(plan) = plan {
            install_plan(plan);
        }
        let mut stream = send_raw(addr, &post_request("/codegen", LARGEST_CODEGEN_BODY, false));
        let (head, body) = read_response(&mut stream);
        assert_sent_whole(&head);
        assert!(body == expected, "{plan:?}: /codegen bytes differ");

        // The kept-alive connection serves a second request.
        let reused_before = server.reused_requests();
        stream
            .write_all(post_request("/execute", EXECUTE_BODY, true).as_bytes())
            .expect("second request");
        let (head, body) = read_response(&mut stream);
        assert_sent_whole(&head);
        assert_eq!(body, small, "{plan:?}");
        assert_eq!(server.reused_requests(), reused_before + 1, "{plan:?}");

        if plan.is_some() {
            let short_writes = an5d_fault::fired("reactor.write");
            assert!(short_writes >= 60, "only {short_writes} short writes");
            an5d_fault::uninstall();
        }
    }

    shutdown(server);
}

#[test]
fn a_leftover_stream_parameter_changes_nothing() {
    let _gate = FAULT_GATE.lock().unwrap_or_else(|e| e.into_inner());
    an5d_fault::uninstall();
    let server = start_server();
    let addr = server.addr();

    // The spellings that used to select the other body path.
    for (path, body) in [("/codegen", CODEGEN_BODY), ("/execute", EXECUTE_BODY)] {
        let (status, plain) = client::post(addr, path, body).expect("plain request");
        assert_eq!(status, 200, "{path}: {plain}");
        let mut stream = raw_post(addr, &format!("{path}?stream=true"), body);
        let (head, flagged) = read_response(&mut stream);
        assert_sent_whole(&head);
        assert_eq!(flagged, plain, "{path}");
    }
    let head = read_head(&mut raw_post(addr, "/batch?stream=false", BATCH_BODY));
    assert!(
        head.to_ascii_lowercase()
            .contains("transfer-encoding: chunked"),
        "{head}"
    );

    shutdown(server);
}

/// Drain a chunked response body off a raw socket (head included),
/// returning it with the instant `arrived(&body)` first held and the
/// instant the terminator arrived.
fn drain_chunked(
    stream: &mut TcpStream,
    arrived: impl Fn(&[u8]) -> bool,
) -> (String, Instant, Instant) {
    let head = read_head(stream).to_ascii_lowercase();
    assert!(head.contains("transfer-encoding: chunked"), "{head}");
    let mut decoder = ChunkDecoder::new();
    let mut body = Vec::new();
    let mut buf = [0u8; 4096];
    let mut first_at: Option<Instant> = None;
    while !decoder.is_done() {
        let n = stream.read(&mut buf).expect("body read");
        assert!(n > 0, "connection closed before the terminator");
        let mut offset = 0;
        while offset < n {
            let consumed = decoder
                .decode(&buf[offset..n], &mut body)
                .expect("valid chunks");
            if consumed == 0 {
                break;
            }
            offset += consumed;
        }
        if first_at.is_none() && arrived(&body) {
            first_at = Some(Instant::now());
        }
    }
    let done_at = Instant::now();
    let body = String::from_utf8(body).expect("UTF-8 body");
    (body, first_at.expect("the body never arrived"), done_at)
}

#[test]
fn batch_lines_arrive_before_the_batch_completes() {
    let _gate = FAULT_GATE.lock().unwrap_or_else(|e| e.into_inner());
    an5d_fault::uninstall();
    let server = start_server();
    let addr = server.addr();

    // Delay the second chunk pull only: job 0's line hits the wire
    // immediately, then the producer stalls 600ms before job 1. If the
    // server buffered the NDJSON body, the first line could not arrive
    // ~600ms before the last byte.
    install_plan("seed=1;stream.chunk=delay:600@every:2#1");
    let mut stream = raw_post(addr, "/batch", BATCH_BODY);
    let (body, first_line_at, done_at) = drain_chunked(&mut stream, |body| body.contains(&b'\n'));
    let gap = done_at.duration_since(first_line_at);
    assert!(
        gap >= Duration::from_millis(300),
        "first line arrived only {gap:?} before completion; expected an early line"
    );
    assert_eq!(body.lines().count(), 3);

    an5d_fault::uninstall();
    shutdown(server);
}

#[test]
fn batch_honors_the_request_deadline_per_job() {
    let _gate = FAULT_GATE.lock().unwrap_or_else(|e| e.into_inner());
    an5d_fault::uninstall();
    let server = start_server();
    let addr = server.addr();

    // Burn the whole 100ms budget before the first job runs: every job
    // must then be refused with a deadline marker, not silently run
    // past the client's budget.
    install_plan("seed=1;stream.chunk=delay:400#1");
    let response =
        client::post_with_deadline(addr, "/batch", BATCH_BODY, 100).expect("streamed batch");
    assert_eq!(response.status, 200, "{}", response.body);
    let body = response.body;
    assert_eq!(body.lines().count(), 3);
    for line in body.lines() {
        assert!(line.contains("\"deadline_exceeded\":true"), "line: {line}");
    }

    an5d_fault::uninstall();
    shutdown(server);
}

#[test]
fn mid_stream_failure_aborts_the_connection() {
    let _gate = FAULT_GATE.lock().unwrap_or_else(|e| e.into_inner());
    an5d_fault::uninstall();
    let server = start_server();
    let addr = server.addr();
    let aborted_before = server.state().metrics().connections.snapshot().aborted;

    // Fail the producer after the first chunk: the head and one chunk
    // reach the wire, then the terminator never arrives. A chunked
    // response has no other way to signal failure, so the server must
    // sever the connection and the client must report truncation.
    install_plan("seed=1;stream.chunk=error@every:2#1");
    let err = client::post(addr, "/batch", BATCH_BODY).expect_err("truncated stream");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    an5d_fault::uninstall();

    // The reactor counts the severed connection as aborted.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let snapshot = server.state().metrics().connections.snapshot();
        if snapshot.aborted > aborted_before {
            break;
        }
        assert!(Instant::now() < deadline, "no abort recorded: {snapshot:?}");
        std::thread::sleep(Duration::from_millis(10));
    }

    // The server itself stays healthy: a fresh request succeeds.
    let (status, body) = client::post(addr, "/batch", BATCH_BODY).expect("recovery");
    assert_eq!(status, 200, "{body}");

    shutdown(server);
}
