//! Bodies no stage should follow to the bottom.
//!
//! The frontend recursed once per nesting level and every later stage
//! once per term of a sum, without limit: a 12 KB `/parse` body of 6,000
//! opening parentheses overflowed the worker's stack and the process
//! aborted — not a panic, so nothing caught it. The parser now refuses
//! past its nesting and node limits; every endpoint that takes a
//! `"source"` must answer such a body `400` and keep serving.
//!
//! An `/execute` interior whose grid cannot be allocated — or whose cell
//! count does not even fit a `usize` — used to panic the dispatch
//! worker, leaving its connection unanswered; it is refused with a 400
//! before anything allocates.

mod common;

use an5d_service::{client, ServerConfig};
use common::{server, shutdown};

const NEST: &str = "for (t = 0; t < I_T; t++) for (i = 1; i <= N; i++) for (j = 1; j <= N; j++) \
                    A[(t+1)%2][i][j] = ";

/// A request body any `"source"` endpoint accepts, around `value`.
fn body(value: &str) -> String {
    format!(
        r#"{{"source":"{NEST}{value};","name":"hostile","interior":[32,32],"steps":4,
            "device":"v100","precision":"single","space":"quick",
            "config":{{"bt":2,"bs":[16],"precision":"single"}}}}"#
    )
}

#[test]
fn deep_and_long_sources_are_refused_by_a_server_that_lives_on() {
    let server = server(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let addr = server.addr();
    let read = "A[t%2][i][j+1]";
    // The long chain is sized to fit the 1 MiB body limit.
    let hostile = [
        (
            format!("{}{read}{}", "(".repeat(6_000), ")".repeat(6_000)),
            "nest deeper than 64 levels",
        ),
        (
            format!("{}{read}", "-".repeat(100_000)),
            "nest deeper than 64 levels",
        ),
        (
            vec!["A[t%2][i][j]"; 80_000].join("+"),
            "more than 16384 nodes",
        ),
    ];
    for (value, reason) in &hostile {
        for path in [
            "/parse", "/plan", "/predict", "/tune", "/codegen", "/execute",
        ] {
            let (status, answer) = client::post(addr, path, &body(value)).unwrap();
            assert_eq!(status, 400, "{path}: {answer}");
            assert!(answer.contains(reason), "{path}: {answer}");
        }
    }

    let benign = format!("0.5f * {read} + 0.5f * A[t%2][i-1][j]");
    for path in ["/parse", "/plan", "/execute"] {
        let (status, answer) = client::post(addr, path, &body(&benign)).unwrap();
        assert_eq!(status, 200, "{path}: {answer}");
    }
    shutdown(server);
}

#[test]
fn an_execute_grid_past_the_cell_limit_is_refused_before_it_allocates() {
    let server = server(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let addr = server.addr();
    let execute = |interior: &str| {
        let body = format!(
            r#"{{"benchmark":"j2d5pt","interior":{interior},"steps":1,
                "config":{{"bt":1,"bs":[32],"precision":"single"}}}}"#
        );
        client::post(addr, "/execute", &body).unwrap()
    };
    // The first one's cell count overflows a `usize` product; the second
    // one asks for 40 GB.
    for interior in ["[4294967296,4294967296]", "[100000,100000]"] {
        let (status, answer) = execute(interior);
        assert_eq!(status, 400, "{interior}: {answer}");
        // The limit, 2^26 cells, is named in the answer.
        assert!(answer.contains("67108864"), "{interior}: {answer}");
    }
    let (status, answer) = execute("[64,64]");
    assert_eq!(status, 200, "{answer}");
    assert!(answer.contains("\"checksum\""), "{answer}");
    shutdown(server);
}
