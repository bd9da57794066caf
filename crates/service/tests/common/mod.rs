//! The one harness the service integration tests share: an in-process
//! server on an ephemeral port, a self-deleting tune-DB path, raw-socket
//! request helpers and readers for the two metrics views.

// Every test binary compiles this module and uses its own subset.
#![allow(dead_code)]

use an5d_service::{client, parse_json, Json, Server, ServerConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

/// Start a server with `config` on an ephemeral port, on the serial
/// backend unless the config names one.
pub fn server(config: ServerConfig) -> Server {
    Server::start(&ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        backend: config.backend.or_else(|| Some("serial".to_string())),
        ..config
    })
    .expect("bind ephemeral port")
}

/// `POST /shutdown` and join every server thread.
pub fn shutdown(server: Server) {
    let (status, _) = client::post(server.addr(), "/shutdown", "").expect("shutdown request");
    assert_eq!(status, 200);
    server.wait();
}

/// A tune-DB path in the temp directory, unique to this process and
/// `label`, removed (with its compaction side file) on drop.
pub struct TempDb(pub PathBuf);

impl TempDb {
    pub fn new(label: &str) -> Self {
        let name = format!("an5d-service-{label}-{}.db", std::process::id());
        let path = std::env::temp_dir().join(name);
        let _ = std::fs::remove_file(&path);
        Self(path)
    }

    /// The path as a `ServerConfig::tune_db` value.
    pub fn config(&self) -> Option<String> {
        Some(self.0.display().to_string())
    }
}

impl Drop for TempDb {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
        let _ = std::fs::remove_file(self.0.with_extension("tmp"));
    }
}

/// The raw text of a `POST` carrying `body`; `close` asks the server to
/// close the connection after answering.
pub fn post_request(path: &str, body: &str, close: bool) -> String {
    let connection = if close { "close" } else { "keep-alive" };
    format!(
        "POST {path} HTTP/1.1\r\nHost: an5d\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n{body}",
        body.len()
    )
}

/// Open a raw socket (30 s read timeout) and send `request` verbatim.
pub fn send_raw(addr: SocketAddr, request: &str) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    stream.write_all(request.as_bytes()).expect("send request");
    stream
}

/// Read one response head byte by byte: everything through the blank
/// line, nothing of the body.
pub fn read_head(stream: &mut TcpStream) -> String {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        let n = stream.read(&mut byte).expect("head read");
        assert!(n > 0, "connection closed mid-head");
        head.push(byte[0]);
    }
    String::from_utf8(head).expect("ASCII head")
}

/// Read one `Content-Length`-framed response off a raw socket: the head
/// (through the blank line) and exactly the announced body bytes.
pub fn read_response(stream: &mut TcpStream) -> (String, String) {
    let head = read_head(stream);
    let length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .expect("length header")
        .trim()
        .parse()
        .expect("numeric length");
    let mut body = vec![0u8; length];
    stream.read_exact(&mut body).expect("read body");
    (head, String::from_utf8(body).expect("UTF-8 body"))
}

/// Send one keep-alive request on a raw socket and read its complete
/// `200` response, so the reactor parks the connection afterwards.
/// Returns the idle socket and the body. (The keep-alive client would
/// transparently reconnect after a server-side close, hiding the EOF a
/// test may want to observe.)
pub fn park(addr: SocketAddr, request: &str) -> (TcpStream, String) {
    let mut stream = send_raw(addr, request);
    let (head, body) = read_response(&mut stream);
    assert!(head.starts_with("HTTP/1.1 200"), "parked request: {head}");
    (stream, body)
}

/// The value of the sample line `family{labels} value` in a `/metrics`
/// exposition (`family value` for an empty label set); for histograms
/// name the line, e.g. `an5d_request_latency_us_count`.
pub fn metric(text: &str, family: &str, labels: &[(&str, &str)]) -> Option<u64> {
    let labels: Vec<String> = labels
        .iter()
        .map(|(name, value)| format!("{name}=\"{value}\""))
        .collect();
    let needle = if labels.is_empty() {
        format!("{family} ")
    } else {
        format!("{family}{{{}}} ", labels.join(","))
    };
    text.lines()
        .find_map(|line| line.strip_prefix(&needle))
        .and_then(|value| value.trim().parse().ok())
}

/// `GET /stats`, parsed.
pub fn stats(addr: SocketAddr) -> Json {
    let (status, body) = client::get(addr, "/stats").expect("/stats reachable");
    assert_eq!(status, 200);
    parse_json(&body).expect("/stats is valid JSON")
}

/// The value of the series `family{labels}` in a parsed `/stats` body: a
/// counter or gauge reading, or a histogram's `count`. `None` when the
/// family or the label set is absent.
pub fn stat(stats: &Json, family: &str, labels: &[(&str, &str)]) -> Option<u64> {
    let wanted = Json::Obj(
        labels
            .iter()
            .map(|(name, value)| ((*name).to_string(), Json::str(value)))
            .collect(),
    );
    let series = stats.get(family)?.get("series")?.as_array()?;
    let value = series
        .iter()
        .find(|s| s.get("labels") == Some(&wanted))?
        .get("value")?;
    let number = value.get("count").unwrap_or(value);
    number.as_usize().map(|n| n as u64)
}
