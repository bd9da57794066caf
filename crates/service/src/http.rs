//! Minimal HTTP/1.1 framing: request line + headers + `Content-Length`
//! body in, JSON response out — with keep-alive.
//!
//! The build environment has no crates.io access, so this is a std-only
//! implementation. Connections are **persistent by default** (HTTP/1.1
//! semantics): the server keeps reading requests off one connection
//! until the client sends `Connection: close`, the idle timeout expires,
//! or the per-connection request bound is reached. `HTTP/1.0` requests
//! default to close unless they carry `Connection: keep-alive`.
//! Every response is rendered whole and written as one buffer with a
//! `Content-Length` and an explicit `Connection:` header, so clients
//! never need read-to-EOF framing to reuse a connection.
//!
//! Requests are read by the resumable [`RequestParser`] the reactor
//! drives: it consumes arbitrary byte chunks and yields
//! [`Parse::NeedMore`] until a full request is buffered.

use std::io::{self, Write};

/// Upper bound on a request body (1 MiB — DSL sources are tiny).
pub const MAX_BODY_BYTES: usize = 1 << 20;
/// Upper bound on one header line.
const MAX_LINE_BYTES: usize = 8 * 1024;
/// Upper bound on the number of headers.
const MAX_HEADERS: usize = 64;
/// Cap on an `x-an5d-deadline-ms` budget (24 h): large enough to be
/// "no practical limit", small enough that the arithmetic around
/// `Instant + budget` can never overflow.
pub const MAX_DEADLINE_MS: u64 = 24 * 60 * 60 * 1000;
/// The request header carrying the client's processing budget in
/// milliseconds (see [`Request::deadline`]).
pub const DEADLINE_HEADER: &str = "x-an5d-deadline-ms";

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, …).
    pub method: String,
    /// Request path without query string (e.g. `/tune`).
    pub path: String,
    /// Raw query string (without the `?`; empty when none was sent).
    pub query: String,
    /// Raw body bytes (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open after this
    /// request (HTTP/1.1 default unless `Connection: close`; HTTP/1.0
    /// default off unless `Connection: keep-alive`).
    pub keep_alive: bool,
    /// The request's processing budget, stamped the moment its
    /// `x-an5d-deadline-ms` header was parsed — so queueing time counts
    /// against it. `None` (no header) means no budget: never shed.
    pub deadline: Option<an5d_fault::Deadline>,
}

impl Request {
    /// A keep-alive request — the HTTP/1.1 default — for tests and
    /// direct `dispatch` callers. `path` may carry a query string
    /// (`/tune?refresh=true`), which is split off exactly as the wire
    /// parser would.
    #[must_use]
    pub fn new(method: &str, path: &str, body: &[u8]) -> Self {
        let (path, query) = split_target(path);
        Self {
            method: method.to_ascii_uppercase(),
            path,
            query,
            body: body.to_vec(),
            keep_alive: true,
            deadline: None,
        }
    }

    /// `true` when the query string carries `name` as a truthy flag:
    /// bare (`?refresh`), `=true` or `=1`. Any other value — including
    /// `=false` — is off, so a typo never silently forces a re-tune.
    #[must_use]
    pub fn query_flag(&self, name: &str) -> bool {
        self.query.split('&').any(|pair| {
            let (key, value) = match pair.split_once('=') {
                Some((key, value)) => (key, value),
                None => (pair, ""),
            };
            key == name && matches!(value, "" | "true" | "1")
        })
    }

    /// The value of query parameter `name` (`/trace?id=abc` → `"abc"`);
    /// `None` when absent, `""` when bare or explicitly empty.
    #[must_use]
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (key, value) = match pair.split_once('=') {
                Some((key, value)) => (key, value),
                None => (pair, ""),
            };
            (key == name).then_some(value)
        })
    }
}

/// Split a request target into path and query string.
fn split_target(target: &str) -> (String, String) {
    match target.split_once('?') {
        Some((path, query)) => (path.to_string(), query.to_string()),
        None => (target.to_string(), String::new()),
    }
}

/// A response about to be written; the body is JSON unless built with
/// [`Response::text`] (the Prometheus `/metrics` exposition).
#[derive(Debug, PartialEq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response body, rendered whole.
    pub body: String,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Trace ID echoed in the `x-an5d-trace` header, when assigned.
    pub trace: Option<String>,
    /// Seconds for a `Retry-After` header — set on every overload or
    /// deadline-shed 503 so well-behaved clients back off instead of
    /// hammering.
    pub retry_after: Option<u32>,
}

impl Response {
    /// A response with the given status and JSON body.
    #[must_use]
    pub fn new(status: u16, body: String) -> Self {
        Self {
            status,
            body,
            content_type: "application/json",
            trace: None,
            retry_after: None,
        }
    }

    /// A plain-text response (Prometheus exposition format).
    #[must_use]
    pub fn text(status: u16, body: String) -> Self {
        Self {
            status,
            body,
            content_type: "text/plain; version=0.0.4",
            trace: None,
            retry_after: None,
        }
    }

    /// Attach the request's trace ID, echoed as `x-an5d-trace`.
    #[must_use]
    pub fn with_trace(mut self, trace: String) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Attach a `Retry-After: secs` header (overload and deadline-shed
    /// 503s).
    #[must_use]
    pub fn with_retry_after(mut self, secs: u32) -> Self {
        self.retry_after = Some(secs);
        self
    }
}

/// A framing problem while reading a request, carrying the status code
/// the connection should be answered with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpError {
    /// Status to reply with (400, 413, …).
    pub status: u16,
    /// Human-readable reason (returned in the JSON error body).
    pub message: String,
}

impl HttpError {
    fn bad_request(message: &str) -> Self {
        Self {
            status: 400,
            message: message.to_string(),
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({})", self.message, self.status)
    }
}

impl std::error::Error for HttpError {}

fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Internal Server Error",
    }
}

/// `true` when a `Connection:` header value contains `token` (the header
/// is a comma-separated token list, compared case-insensitively).
fn connection_header_has(value: &str, token: &str) -> bool {
    value
        .split(',')
        .any(|part| part.trim().eq_ignore_ascii_case(token))
}

/// The request-line fields, fixed before headers begin.
#[derive(Debug, Clone)]
struct Head {
    method: String,
    path: String,
    query: String,
}

/// Header-derived state accumulated while parsing one request head.
#[derive(Debug, Clone)]
struct HeadFields {
    keep_alive: bool,
    /// RFC 9112: once any Connection header says close, close wins — a
    /// later keep-alive token must not re-enable persistence.
    close_seen: bool,
    /// The body length from `Content-Length`; `None` until one is seen
    /// (no body).
    content_length: Option<usize>,
    /// Budget from an `x-an5d-deadline-ms` header, if one was sent.
    deadline_ms: Option<u64>,
}

/// Parse a request line into its head and the version-derived defaults.
fn parse_request_line(line: &str) -> Result<(Head, HeadFields), HttpError> {
    let mut parts = line.split_whitespace();
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpError::bad_request("malformed request line"));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::bad_request("unsupported HTTP version"));
    }
    // Split off the query string: the API is JSON-body based, but a few
    // endpoints take behaviour flags in the query (`/tune?refresh=true`).
    let (path, query) = split_target(target);
    Ok((
        Head {
            method: method.to_ascii_uppercase(),
            path,
            query,
        },
        HeadFields {
            // Persistent connections are the HTTP/1.1 default; 1.0 must
            // opt in.
            keep_alive: version != "HTTP/1.0",
            close_seen: false,
            content_length: None,
            deadline_ms: None,
        },
    ))
}

/// `text` as an unsigned decimal number. `str::parse` alone also takes a
/// leading `+`, which HTTP's `1*DIGIT` fields do not allow.
fn parse_digits<T: std::str::FromStr>(text: &str) -> Option<T> {
    if text.bytes().all(|b| b.is_ascii_digit()) {
        text.parse().ok()
    } else {
        None
    }
}

/// Fold one non-empty header line into `fields`.
fn apply_header_line(line: &str, fields: &mut HeadFields) -> Result<(), HttpError> {
    let Some((name, value)) = line.split_once(':') else {
        return Err(HttpError::bad_request("malformed header"));
    };
    let name = name.trim();
    if name.eq_ignore_ascii_case("content-length") {
        let Some(length) = parse_digits::<usize>(value.trim()) else {
            return Err(HttpError::bad_request("invalid Content-Length"));
        };
        // Two lengths that disagree leave the body's end to whichever one
        // a hop believes: refuse the request rather than pick one.
        if fields.content_length.is_some_and(|seen| seen != length) {
            return Err(HttpError::bad_request("conflicting Content-Length"));
        }
        if length > MAX_BODY_BYTES {
            return Err(HttpError {
                status: 413,
                message: format!("body larger than {MAX_BODY_BYTES} bytes"),
            });
        }
        fields.content_length = Some(length);
    } else if name.eq_ignore_ascii_case("connection") {
        if connection_header_has(value, "close") {
            fields.close_seen = true;
            fields.keep_alive = false;
        } else if connection_header_has(value, "keep-alive") && !fields.close_seen {
            fields.keep_alive = true;
        }
    } else if name.eq_ignore_ascii_case(DEADLINE_HEADER) {
        // A malformed budget is rejected, not ignored: silently running
        // without the deadline the client asked for is the one behavior
        // they can least afford.
        let Some(ms) = parse_digits::<u64>(value.trim()) else {
            return Err(HttpError::bad_request("invalid x-an5d-deadline-ms"));
        };
        fields.deadline_ms = Some(ms.min(MAX_DEADLINE_MS));
    } else if name.eq_ignore_ascii_case("transfer-encoding") {
        // Only Content-Length framing is implemented. On a persistent
        // connection a silently-ignored chunked body would be re-parsed
        // as the next request (framing desync / request smuggling), so
        // refuse outright — the error reply closes the connection.
        return Err(HttpError {
            status: 501,
            message: "Transfer-Encoding is not supported; use Content-Length".to_string(),
        });
    }
    Ok(())
}

/// The outcome of one [`RequestParser::parse`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Parse {
    /// The buffered bytes do not yet hold a complete request; feed more.
    NeedMore,
    /// One complete request was consumed from the buffer. Call
    /// [`RequestParser::parse`] again — pipelined requests may follow in
    /// the same buffer.
    Ready(Request),
    /// The stream is unframeable. Reply with the error and close: the
    /// parser stays failed because resynchronizing inside an unframeable
    /// byte stream is request smuggling by another name.
    Failed(HttpError),
}

/// Where an in-progress request head stands between `parse` calls.
#[derive(Debug)]
enum Phase {
    /// Between requests: the next line is a request line.
    RequestLine,
    /// Request line consumed; reading header lines. `seen` counts the
    /// header lines consumed so far: the blank line must come before the
    /// `MAX_HEADERS`-th.
    Headers {
        head: Head,
        fields: HeadFields,
        seen: usize,
    },
    /// Head complete; waiting for `content_length` body bytes.
    Body { head: Head, fields: HeadFields },
    /// Sticky terminal state after an unframeable stream.
    Failed(HttpError),
}

/// A resumable incremental request parser for the reactor boundary.
///
/// Feed it whatever byte chunks `read` produced ([`RequestParser::feed`])
/// and pull requests out ([`RequestParser::parse`]); the state machine
/// suspends mid-request-line, mid-headers, or mid-body and resumes on
/// the next chunk. However the bytes are split, it yields the same
/// requests (pinned by `tests/parser_incremental.rs`).
#[derive(Debug)]
pub struct RequestParser {
    buf: Vec<u8>,
    /// Bytes below `pos` are consumed (hidden from parsing).
    pos: usize,
    /// Line-scan resume point (`pos ≤ scan ≤ buf.len()`): the bytes in
    /// `pos..scan` are known to hold no `\n`, so repeated `parse` calls
    /// over a slowly-growing line stay linear overall.
    scan: usize,
    phase: Phase,
}

impl Default for RequestParser {
    fn default() -> Self {
        Self::new()
    }
}

impl RequestParser {
    /// A parser positioned between requests with an empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buf: Vec::new(),
            pos: 0,
            scan: 0,
            phase: Phase::RequestLine,
        }
    }

    /// Append freshly-read bytes to the parse buffer.
    pub fn feed(&mut self, bytes: &[u8]) {
        if self.pos > 0 && self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
            self.scan = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a parsed request.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// `true` when the connection sits exactly between requests: no
    /// partial bytes buffered and no request head in progress. An EOF
    /// here is a clean keep-alive close; an EOF anywhere else is a
    /// mid-request truncation (counted as an aborted connection).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        matches!(self.phase, Phase::RequestLine) && self.buffered() == 0
    }

    /// Take the next `\n`-terminated line off the buffer, stripping one
    /// trailing `\r`. `None` means the buffer holds no complete line
    /// yet. The `\r` counts against `MAX_LINE_BYTES`.
    fn take_line(&mut self) -> Option<Result<String, HttpError>> {
        match self.buf[self.scan..].iter().position(|&b| b == b'\n') {
            Some(rel) => {
                let newline = self.scan + rel;
                if newline - self.pos > MAX_LINE_BYTES {
                    return Some(Err(HttpError::bad_request("header line too long")));
                }
                let mut end = newline;
                if end > self.pos && self.buf[end - 1] == b'\r' {
                    end -= 1;
                }
                let line = String::from_utf8_lossy(&self.buf[self.pos..end]).into_owned();
                self.pos = newline + 1;
                self.scan = self.pos;
                Some(Ok(line))
            }
            None => {
                self.scan = self.buf.len();
                if self.buffered() > MAX_LINE_BYTES {
                    return Some(Err(HttpError::bad_request("header line too long")));
                }
                None
            }
        }
    }

    fn fail(&mut self, err: HttpError) -> Parse {
        self.phase = Phase::Failed(err.clone());
        Parse::Failed(err)
    }

    /// Drive the state machine as far as the buffered bytes allow.
    pub fn parse(&mut self) -> Parse {
        loop {
            match std::mem::replace(&mut self.phase, Phase::RequestLine) {
                Phase::RequestLine => match self.take_line() {
                    None => return Parse::NeedMore,
                    Some(Err(err)) => return self.fail(err),
                    Some(Ok(line)) => match parse_request_line(&line) {
                        Ok((head, fields)) => {
                            self.phase = Phase::Headers {
                                head,
                                fields,
                                seen: 0,
                            };
                        }
                        Err(err) => return self.fail(err),
                    },
                },
                Phase::Headers {
                    head,
                    mut fields,
                    mut seen,
                } => match self.take_line() {
                    None => {
                        self.phase = Phase::Headers { head, fields, seen };
                        return Parse::NeedMore;
                    }
                    Some(Err(err)) => return self.fail(err),
                    Some(Ok(line)) => {
                        if line.is_empty() {
                            self.phase = Phase::Body { head, fields };
                            continue;
                        }
                        if let Err(err) = apply_header_line(&line, &mut fields) {
                            return self.fail(err);
                        }
                        seen += 1;
                        if seen >= MAX_HEADERS {
                            return self.fail(HttpError::bad_request("too many headers"));
                        }
                        self.phase = Phase::Headers { head, fields, seen };
                    }
                },
                Phase::Body { head, fields } => {
                    let length = fields.content_length.unwrap_or(0);
                    if self.buffered() < length {
                        self.phase = Phase::Body { head, fields };
                        return Parse::NeedMore;
                    }
                    let body = self.buf[self.pos..self.pos + length].to_vec();
                    self.pos += length;
                    // The body may contain `\n` bytes; line scanning for
                    // the next request must restart at the new cursor.
                    self.scan = self.pos;
                    if self.pos == self.buf.len() {
                        self.buf.clear();
                        self.pos = 0;
                        self.scan = 0;
                    }
                    return Parse::Ready(Request {
                        method: head.method,
                        path: head.path,
                        query: head.query,
                        body,
                        keep_alive: fields.keep_alive,
                        deadline: fields.deadline_ms.map(an5d_fault::Deadline::in_ms),
                    });
                }
                Phase::Failed(err) => return self.fail(err),
            }
        }
    }
}

/// Write a response as one `Content-Length`-framed buffer and flush it,
/// announcing whether the server will keep the connection open
/// (`keep_alive`) or close it after this response.
///
/// # Errors
///
/// Propagates transport errors from the underlying stream.
pub fn write_response(
    writer: &mut impl Write,
    response: &Response,
    keep_alive: bool,
) -> io::Result<()> {
    let trace_header = match &response.trace {
        Some(id) => format!("x-an5d-trace: {id}\r\n"),
        None => String::new(),
    };
    let retry_header = match response.retry_after {
        Some(secs) => format!("Retry-After: {secs}\r\n"),
        None => String::new(),
    };
    let mut bytes = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n{}{}Connection: {}\r\n\r\n",
        response.status,
        reason_phrase(response.status),
        response.content_type,
        response.body.len(),
        trace_header,
        retry_header,
        if keep_alive { "keep-alive" } else { "close" },
    )
    .into_bytes();
    // One write per response: on a kept-alive connection a header segment
    // followed by a separate body segment would trip Nagle + delayed-ACK
    // (~40 ms per request).
    bytes.extend_from_slice(response.body.as_bytes());
    writer.write_all(&bytes)?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parse one complete request, fed whole.
    fn parse(raw: &str) -> Result<Request, HttpError> {
        let mut parser = RequestParser::new();
        parser.feed(raw.as_bytes());
        match parser.parse() {
            Parse::Ready(request) => Ok(request),
            Parse::Failed(err) => Err(err),
            Parse::NeedMore => panic!("incomplete request: {raw:?}"),
        }
    }

    #[test]
    fn parses_a_post_with_body() {
        let req =
            parse("POST /tune?x=1 HTTP/1.1\r\nHost: localhost\r\nContent-Length: 4\r\n\r\nabcd")
                .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/tune");
        assert_eq!(req.query, "x=1");
        assert_eq!(req.body, b"abcd");
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn query_flags_parse_truthy_spellings_only() {
        let req = |target: &str| parse(&format!("POST {target} HTTP/1.1\r\n\r\n")).unwrap();
        assert!(req("/tune?refresh=true").query_flag("refresh"));
        assert!(req("/tune?refresh=1").query_flag("refresh"));
        assert!(req("/tune?refresh").query_flag("refresh"));
        assert!(req("/tune?a=b&refresh=true").query_flag("refresh"));
        assert!(!req("/tune?refresh=false").query_flag("refresh"));
        assert!(!req("/tune?refresh=yes").query_flag("refresh"));
        assert!(!req("/tune").query_flag("refresh"));
        assert!(!req("/tune?refreshx=true").query_flag("refresh"));
        // The constructor splits targets exactly like the wire parser.
        let direct = Request::new("POST", "/tune?refresh=true", b"{}");
        assert_eq!(direct.path, "/tune");
        assert!(direct.query_flag("refresh"));
    }

    #[test]
    fn parses_a_get_without_body() {
        let req = parse("get /stats HTTP/1.0\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/stats");
        assert!(req.body.is_empty());
        assert!(!req.keep_alive, "HTTP/1.0 defaults to close");
    }

    #[test]
    fn connection_header_overrides_the_version_default() {
        let req = parse("GET /stats HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!req.keep_alive);
        let req = parse("GET /stats HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(req.keep_alive);
        // Token lists and mixed case are honoured.
        let req = parse("GET /stats HTTP/1.1\r\nConnection: TE, Close\r\n\r\n").unwrap();
        assert!(!req.keep_alive);
        // Unrelated Connection tokens leave the version default alone.
        let req = parse("GET /stats HTTP/1.1\r\nConnection: upgrade\r\n\r\n").unwrap();
        assert!(req.keep_alive);
        // Close wins even when a later header line says keep-alive.
        let req =
            parse("GET /stats HTTP/1.1\r\nConnection: close\r\nConnection: keep-alive\r\n\r\n")
                .unwrap();
        assert!(!req.keep_alive, "close must win once seen");
    }

    #[test]
    fn request_constructor_defaults_to_keep_alive() {
        let req = Request::new("post", "/tune", b"{}");
        assert_eq!(req.method, "POST");
        assert!(req.keep_alive);
    }

    #[test]
    fn transfer_encoding_is_refused_not_desynced() {
        // A chunked body the server does not parse must not be left on
        // the stream to be misread as the next pipelined request.
        let err = parse(
            "POST /plan HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
        )
        .unwrap_err();
        assert_eq!(err.status, 501);
        assert!(err.message.contains("Transfer-Encoding"));
    }

    #[test]
    fn malformed_requests_map_to_http_errors() {
        assert_eq!(parse("nonsense\r\n\r\n").unwrap_err().status, 400);
        assert_eq!(parse("GET / SPDY/3\r\n\r\n").unwrap_err().status, 400);
        assert_eq!(
            parse("POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n")
                .unwrap_err()
                .status,
            400
        );
        let huge = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", 1 << 30);
        assert_eq!(parse(&huge).unwrap_err().status, 413);
    }

    #[test]
    fn response_framing_includes_length_and_connection_state() {
        let mut out = Vec::new();
        write_response(&mut out, &Response::new(200, "{\"ok\":true}".into()), true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("{\"ok\":true}"));

        let mut out = Vec::new();
        write_response(&mut out, &Response::new(200, "{}".into()), false).unwrap();
        assert!(String::from_utf8(out)
            .unwrap()
            .contains("Connection: close\r\n"));
    }

    #[test]
    fn trace_ids_and_content_types_are_framed() {
        let mut out = Vec::new();
        let response = Response::new(200, "{}".into()).with_trace("00c0ffee00c0ffee".into());
        write_response(&mut out, &response, true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.contains("x-an5d-trace: 00c0ffee00c0ffee\r\n"),
            "{text}"
        );
        assert!(text.contains("Content-Type: application/json\r\n"));

        let mut out = Vec::new();
        write_response(&mut out, &Response::text(200, "an5d_up 1\n".into()), true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Content-Type: text/plain; version=0.0.4\r\n"));
        assert!(!text.contains("x-an5d-trace"), "{text}");
        assert!(text.ends_with("an5d_up 1\n"));
    }

    #[test]
    fn incremental_parser_suspends_and_resumes_at_any_boundary() {
        let raw = b"POST /tune?x=1 HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd";
        let mut parser = RequestParser::new();
        assert!(parser.is_clean());
        // One byte at a time: every intermediate call is NeedMore.
        for &byte in &raw[..raw.len() - 1] {
            parser.feed(&[byte]);
            assert_eq!(parser.parse(), Parse::NeedMore);
            assert!(!parser.is_clean(), "mid-request is not clean");
        }
        parser.feed(&raw[raw.len() - 1..]);
        let Parse::Ready(req) = parser.parse() else {
            panic!("complete request must be ready");
        };
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/tune");
        assert_eq!(req.query, "x=1");
        assert_eq!(req.body, b"abcd");
        assert!(req.keep_alive);
        assert!(parser.is_clean(), "between requests is clean");
        assert_eq!(parser.parse(), Parse::NeedMore);
    }

    #[test]
    fn incremental_parser_yields_pipelined_requests_from_one_chunk() {
        let mut parser = RequestParser::new();
        parser.feed(
            b"POST /a HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi\
              GET /b HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        let Parse::Ready(first) = parser.parse() else {
            panic!("first pipelined request");
        };
        assert_eq!(first.path, "/a");
        assert_eq!(first.body, b"hi");
        assert!(first.keep_alive);
        let Parse::Ready(second) = parser.parse() else {
            panic!("second pipelined request");
        };
        assert_eq!(second.path, "/b");
        assert!(!second.keep_alive);
        assert!(parser.is_clean());
    }

    #[test]
    fn incremental_parser_failures_are_sticky() {
        let mut parser = RequestParser::new();
        parser.feed(b"GET / SPDY/3\r\n\r\n");
        let Parse::Failed(err) = parser.parse() else {
            panic!("unsupported version must fail");
        };
        assert_eq!(err.status, 400);
        // Even a well-formed follow-up cannot resynchronize the stream.
        parser.feed(b"GET /stats HTTP/1.1\r\n\r\n");
        assert!(matches!(parser.parse(), Parse::Failed(e) if e.status == 400));
        assert!(!parser.is_clean());
    }

    #[test]
    fn incremental_parser_enforces_line_and_body_limits() {
        let mut parser = RequestParser::new();
        parser.feed(b"GET /stats HTTP/1.1\r\nX-Pad: ");
        parser.feed(&vec![b'a'; MAX_LINE_BYTES + 1]);
        assert!(matches!(parser.parse(), Parse::Failed(e) if e.status == 400));

        let mut parser = RequestParser::new();
        parser.feed(format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", 1 << 30).as_bytes());
        assert!(matches!(parser.parse(), Parse::Failed(e) if e.status == 413));
    }

    #[test]
    fn truncation_is_distinguishable_from_clean_eof() {
        // Clean EOF: nothing buffered, between requests.
        let parser = RequestParser::new();
        assert!(parser.is_clean());
        // Truncation: a request line arrived but the head never finished.
        let mut parser = RequestParser::new();
        parser.feed(b"POST /tune HTTP/1.1\r\nContent-Le");
        assert_eq!(parser.parse(), Parse::NeedMore);
        assert!(!parser.is_clean());
        // Truncation mid-body counts too.
        let mut parser = RequestParser::new();
        parser.feed(b"POST /tune HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort");
        assert_eq!(parser.parse(), Parse::NeedMore);
        assert!(!parser.is_clean());
    }

    #[test]
    fn query_params_return_values_by_key() {
        let req = Request::new("GET", "/trace?id=abc123&limit=5", b"");
        assert_eq!(req.query_param("id"), Some("abc123"));
        assert_eq!(req.query_param("limit"), Some("5"));
        assert_eq!(req.query_param("missing"), None);
        assert_eq!(
            Request::new("GET", "/trace?id", b"").query_param("id"),
            Some("")
        );
    }
}
