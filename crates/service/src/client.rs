//! A minimal blocking HTTP/1.1 client for `an5d-serve`.
//!
//! [`KeepAliveClient`] holds a persistent connection and reuses it
//! across requests, reconnecting transparently when the server closes
//! it (idle timeout, per-connection request bound, shutdown). This is
//! the path the `serve` workload of `benchmark/` measures. The
//! module-level [`get`]/[`post`]/[`raw`] helpers send one request on a
//! fresh connection with `Connection: close`, through the same connect
//! and exchange — fine for tests and one-off calls.
//!
//! Sockets carry timeouts so a wedged server fails a test instead of
//! hanging it; production consumers would use any real HTTP client.
//!
//! Framing is strict: a response must carry a `Content-Length` of at
//! most 64 MiB, and a body shorter than announced is an error — a
//! truncated body is never silently returned as success.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Client-side socket timeout.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// The largest `Content-Length` the client accepts; a larger one is
/// refused before anything is allocated. The largest body the service
/// sends, a `/codegen`, is about 258 KB.
const MAX_BODY: usize = 64 << 20;

/// Retry policy for [`KeepAliveClient`]: capped exponential backoff
/// with **seeded** jitter, so a whole fleet of clients with distinct
/// seeds decorrelates while any single run stays reproducible.
///
/// Retries are spent only on *idempotent* requests (`GET`, and `POST`
/// to the deterministic pipeline endpoints — everything but
/// `/shutdown`) and only when re-sending is provably safe: transport
/// failures before any response byte arrived, plus — when
/// [`retry_on_503`](Self::retry_on_503) is set — `503` sheds, waiting
/// out the server's `Retry-After` hint first.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Maximum retries per call (the first attempt is free).
    pub budget: u32,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub base: Duration,
    /// Ceiling on the pause: caps both the exponential schedule and any
    /// server `Retry-After` hint, so a buggy or hostile server sending
    /// a huge value cannot stall the whole retry budget.
    pub cap: Duration,
    /// Jitter seed: identical seeds replay identical backoff
    /// sequences.
    pub seed: u64,
    /// Also retry `503` responses (honoring `Retry-After`). Off by
    /// default: a shed is a valid terminal answer for load tests.
    pub retry_on_503: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            budget: 3,
            base: Duration::from_millis(10),
            cap: Duration::from_secs(1),
            seed: 0,
            retry_on_503: false,
        }
    }
}

impl RetryPolicy {
    /// The pause before retry number `attempt` (0-based): capped
    /// exponential backoff, jittered into `[half, full]` by the seeded
    /// stream at `token`, then floored by the server's `Retry-After`
    /// hint when one was sent — with the hint itself clamped to
    /// [`cap`](Self::cap), so the policy's ceiling is the ceiling,
    /// whatever the server claims.
    #[must_use]
    pub(crate) fn backoff(
        &self,
        attempt: u32,
        token: u64,
        retry_after_secs: Option<u64>,
    ) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32.checked_shl(attempt.min(16)).unwrap_or(u32::MAX))
            .min(self.cap);
        let nanos = u64::try_from(exp.as_nanos()).unwrap_or(u64::MAX);
        let jittered = nanos / 2 + splitmix64(self.seed ^ token) % (nanos / 2 + 1);
        let mut pause = Duration::from_nanos(jittered);
        if let Some(secs) = retry_after_secs {
            let hint = Duration::from_secs(secs).min(self.cap);
            pause = pause.max(hint);
        }
        pause
    }
}

/// Is re-sending this request safe? `GET` always; `POST` to the
/// deterministic pipeline endpoints too (the same body always produces
/// the same answer) — but never `/shutdown`, whose side effect must
/// fire at most once.
fn idempotent(method: &str, path: &str) -> bool {
    method.eq_ignore_ascii_case("GET") || !path.starts_with("/shutdown")
}

/// splitmix64: the standard 64-bit finalizer — plenty for jitter.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn invalid(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// Parsed response head: status, body framing and whether the server
/// announced it will close the connection.
struct ResponseHead {
    status: u16,
    content_length: Option<usize>,
    close: bool,
    /// The `x-an5d-trace` request id, when the server sent one.
    trace: Option<String>,
    /// The `Retry-After` hint (seconds), sent with 503 sheds.
    retry_after: Option<u64>,
}

fn read_head(reader: &mut impl BufRead) -> io::Result<ResponseHead> {
    let mut status_line = String::new();
    if reader.read_line(&mut status_line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before a status line",
        ));
    }
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(|| invalid("malformed status line"))?;

    let mut content_length: Option<usize> = None;
    let mut close = false;
    let mut trace = None;
    let mut retry_after = None;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(invalid("truncated response headers"));
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = Some(
                    value
                        .trim()
                        .parse()
                        .map_err(|_| invalid("bad Content-Length"))?,
                );
            } else if name.eq_ignore_ascii_case("connection")
                && value.trim().eq_ignore_ascii_case("close")
            {
                close = true;
            } else if name.eq_ignore_ascii_case("x-an5d-trace") {
                trace = Some(value.trim().to_string());
            } else if name.eq_ignore_ascii_case("retry-after") {
                // Unparseable hints are treated as absent, not as zero —
                // the backoff schedule then decides the pause alone.
                retry_after = value.trim().parse().ok();
            }
        }
    }
    Ok(ResponseHead {
        status,
        content_length,
        close,
        trace,
        retry_after,
    })
}

/// Read exactly the `Content-Length` bytes of one response body. A
/// response without the header is an error, and so are a length over
/// [`MAX_BODY`] (refused before allocating) and a body cut short —
/// truncation is never returned as success. Bytes past the body's end
/// (the next pipelined response) are left in the reader.
fn read_body(reader: &mut impl BufRead, head: &ResponseHead) -> io::Result<String> {
    let length = head
        .content_length
        .ok_or_else(|| invalid("response without Content-Length"))?;
    if length > MAX_BODY {
        return Err(invalid(&format!(
            "Content-Length {length} exceeds the {MAX_BODY}-byte limit"
        )));
    }
    let mut bytes = vec![0u8; length];
    // A truncated body must NOT surface as UnexpectedEof: that kind
    // marks "no response bytes arrived" for the keep-alive retry logic,
    // and a partially-received response may already have been acted
    // upon server-side.
    reader
        .read_exact(&mut bytes)
        .map_err(|e| invalid(&format!("truncated response body: {e}")))?;
    String::from_utf8(bytes).map_err(|_| invalid("non-UTF-8 body"))
}

/// A complete response: status, body, and the headers the tests and
/// harnesses assert on.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// HTTP status code.
    pub status: u16,
    /// Response body.
    pub body: String,
    /// The `x-an5d-trace` header value, when the server sent one.
    pub trace: Option<String>,
    /// The `Retry-After` header value in seconds, when the server sent
    /// one (503 sheds carry it).
    pub retry_after: Option<u64>,
}

/// Open a connection with the client's socket timeouts.
fn connect(addr: SocketAddr) -> io::Result<BufReader<TcpStream>> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    // Requests are single-segment writes; don't let Nagle hold one
    // back waiting for the previous response's ACK.
    stream.set_nodelay(true)?;
    Ok(BufReader::new(stream))
}

/// The wire text of one request: a JSON `body`, the optional
/// `x-an5d-deadline-ms` budget, and `Connection: keep-alive` or
/// `Connection: close`.
fn request_text(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    deadline_ms: Option<u64>,
    keep_alive: bool,
) -> String {
    let deadline_header = deadline_ms.map_or_else(String::new, |ms| {
        format!("{}: {ms}\r\n", crate::http::DEADLINE_HEADER)
    });
    let connection = if keep_alive { "keep-alive" } else { "close" };
    format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n{deadline_header}Connection: {connection}\r\n\r\n{body}",
        body.len()
    )
}

/// Write one request and read its response over `conn`. Only
/// closed-before-status-line (`UnexpectedEof` from the first read) keeps
/// its kind and so stays retryable; any failure after response bytes
/// started arriving is remapped to `InvalidData`, so the retry logic in
/// [`KeepAliveClient::send`] cannot silently re-send it.
fn exchange(conn: &mut BufReader<TcpStream>, request: &str) -> io::Result<(ResponseHead, String)> {
    conn.get_mut().write_all(request.as_bytes())?;
    conn.get_mut().flush()?;
    let head = read_head(conn).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            e
        } else {
            invalid(&format!("failed reading response head: {e}"))
        }
    })?;
    let body = read_body(conn, &head).map_err(|e| {
        if e.kind() == io::ErrorKind::InvalidData {
            e
        } else {
            invalid(&format!("failed reading response body: {e}"))
        }
    })?;
    Ok((head, body))
}

/// Send raw request bytes on a fresh connection and read one
/// `(status, body)` response.
///
/// # Errors
///
/// Propagates connect/IO failures and malformed responses.
pub fn raw(addr: SocketAddr, request: &str) -> io::Result<(u16, String)> {
    let (head, body) = exchange(&mut connect(addr)?, request)?;
    Ok((head.status, body))
}

/// `GET path` → `(status, body)` over a fresh connection.
///
/// # Errors
///
/// Propagates connect/IO failures and malformed responses.
pub fn get(addr: SocketAddr, path: &str) -> io::Result<(u16, String)> {
    raw(addr, &request_text(addr, "GET", path, "", None, false))
}

/// `POST path` with a JSON body → `(status, body)` over a fresh
/// connection.
///
/// # Errors
///
/// Propagates connect/IO failures and malformed responses.
pub fn post(addr: SocketAddr, path: &str, body: &str) -> io::Result<(u16, String)> {
    raw(addr, &request_text(addr, "POST", path, body, None, false))
}

/// A client that keeps one TCP connection to `an5d-serve` open and
/// pushes every request through it, reconnecting when the server closes
/// the connection (idle timeout, request bound, shutdown).
///
/// Without a [`RetryPolicy`] the only transparent recovery is a single
/// free reconnect when the *kept-alive* connection turns out to be
/// stale (the server closed it between requests; no response bytes had
/// arrived, so re-sending is safe). [`with_retry`](Self::with_retry)
/// adds budgeted, backoff-paced retries on top for idempotent requests
/// — the client a chaos soak runs with.
#[derive(Debug)]
pub struct KeepAliveClient {
    addr: SocketAddr,
    conn: Option<BufReader<TcpStream>>,
    /// Requests answered without opening a new connection.
    reused: u64,
    /// Budgeted retry policy; `None` keeps the legacy
    /// stale-reconnect-only behavior.
    retry: Option<RetryPolicy>,
    /// Monotonic token feeding the jitter stream (one per pause).
    jitter_token: u64,
    /// When set, every request carries `x-an5d-deadline-ms` with this
    /// budget.
    deadline_ms: Option<u64>,
}

impl KeepAliveClient {
    /// A client for the given server address; connects lazily.
    #[must_use]
    pub fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            conn: None,
            reused: 0,
            retry: None,
            jitter_token: 0,
            deadline_ms: None,
        }
    }

    /// Attach a budgeted retry policy (see [`RetryPolicy`]).
    #[must_use]
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// Set (or clear) the `x-an5d-deadline-ms` budget sent with every
    /// subsequent request.
    pub fn set_deadline_ms(&mut self, deadline_ms: Option<u64>) {
        self.deadline_ms = deadline_ms;
    }

    /// Requests served over an already-established connection (i.e. TCP
    /// connection setups saved versus a fresh connection per request).
    #[must_use]
    pub fn reused(&self) -> u64 {
        self.reused
    }

    /// `GET path` → `(status, body)`, reusing the connection.
    ///
    /// # Errors
    ///
    /// Propagates connect/IO failures and malformed responses.
    pub fn get(&mut self, path: &str) -> io::Result<(u16, String)> {
        let response = self.send("GET", path, "")?;
        Ok((response.status, response.body))
    }

    /// `POST path` with a JSON body → `(status, body)`, reusing the
    /// connection.
    ///
    /// # Errors
    ///
    /// Propagates connect/IO failures and malformed responses.
    pub fn post(&mut self, path: &str, body: &str) -> io::Result<(u16, String)> {
        let response = self.send("POST", path, body)?;
        Ok((response.status, response.body))
    }

    /// Spend one budgeted retry: pause per the policy (honoring
    /// `Retry-After` when given) and report whether a retry was
    /// available at all.
    fn spend_retry(&mut self, attempt: &mut u32, retry_after_secs: Option<u64>) -> bool {
        let Some(policy) = &self.retry else {
            return false;
        };
        if *attempt >= policy.budget {
            return false;
        }
        let pause = policy.backoff(*attempt, self.jitter_token, retry_after_secs);
        self.jitter_token += 1;
        *attempt += 1;
        std::thread::sleep(pause);
        true
    }

    /// Send one request and read the whole [`HttpResponse`], with its
    /// `x-an5d-trace` id (usable with `GET /trace?id=`) and `Retry-After`
    /// hint, reusing the connection.
    ///
    /// # Errors
    ///
    /// Propagates connect/IO failures and malformed responses.
    pub fn send(&mut self, method: &str, path: &str, body: &str) -> io::Result<HttpResponse> {
        let request = request_text(self.addr, method, path, body, self.deadline_ms, true);
        let may_retry = idempotent(method, path);
        // Budgeted retries spent so far on this call.
        let mut attempt: u32 = 0;
        loop {
            let had_conn = self.conn.is_some();
            let mut conn = match self.conn.take() {
                Some(conn) => conn,
                None => match connect(self.addr) {
                    Ok(conn) => conn,
                    Err(error) => {
                        if may_retry && self.spend_retry(&mut attempt, None) {
                            continue;
                        }
                        return Err(error);
                    }
                },
            };
            match exchange(&mut conn, &request) {
                Ok((head, body)) => {
                    if had_conn {
                        self.reused += 1;
                    }
                    if !head.close {
                        self.conn = Some(conn);
                    }
                    if head.status == 503
                        && may_retry
                        && self.retry.as_ref().is_some_and(|p| p.retry_on_503)
                    {
                        let retry_after = head.retry_after;
                        if self.spend_retry(&mut attempt, retry_after) {
                            continue;
                        }
                    }
                    return Ok(HttpResponse {
                        status: head.status,
                        body,
                        trace: head.trace,
                        retry_after: head.retry_after,
                    });
                }
                Err(error)
                    if had_conn
                        && matches!(
                            error.kind(),
                            io::ErrorKind::UnexpectedEof
                                | io::ErrorKind::BrokenPipe
                                | io::ErrorKind::ConnectionReset
                                | io::ErrorKind::ConnectionAborted
                        ) =>
                {
                    // The server closed the kept-alive connection between
                    // requests (idle timeout / request bound). Nothing of
                    // the response had arrived, so re-sending on a fresh
                    // connection is safe — and free: it doesn't touch the
                    // retry budget. At most one per call: `self.conn` is
                    // now empty, so the next failure takes the budgeted
                    // path below.
                    continue;
                }
                Err(error)
                    if may_retry
                        && matches!(
                            error.kind(),
                            io::ErrorKind::UnexpectedEof
                                | io::ErrorKind::BrokenPipe
                                | io::ErrorKind::ConnectionReset
                                | io::ErrorKind::ConnectionAborted
                                | io::ErrorKind::ConnectionRefused
                                | io::ErrorKind::TimedOut
                                | io::ErrorKind::WouldBlock
                        ) =>
                {
                    // Transport failure before any response byte arrived
                    // (anything later is remapped to InvalidData by
                    // `exchange` and is *never* retried): safe to re-send
                    // an idempotent request, charged to the budget.
                    if self.spend_retry(&mut attempt, None) {
                        continue;
                    }
                    return Err(error);
                }
                Err(error) => return Err(error),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    #[test]
    fn backoff_is_deterministic_for_a_seed_and_capped() {
        let policy = RetryPolicy {
            budget: 8,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(100),
            seed: 42,
            retry_on_503: false,
        };
        let twin = policy.clone();
        for attempt in 0..8 {
            let a = policy.backoff(attempt, u64::from(attempt), None);
            let b = twin.backoff(attempt, u64::from(attempt), None);
            assert_eq!(a, b, "same seed + token must replay the same pause");
            // Jitter stays within [half, full] of the capped exponential.
            let exp = Duration::from_millis(10)
                .saturating_mul(1 << attempt.min(16))
                .min(Duration::from_millis(100));
            assert!(
                a >= exp / 2 && a <= exp,
                "attempt {attempt}: {a:?} vs {exp:?}"
            );
        }
        // Distinct seeds decorrelate (with overwhelming probability on
        // at least one of 8 attempts).
        let other = RetryPolicy {
            seed: 43,
            ..policy.clone()
        };
        assert!(
            (0..8)
                .any(|n| policy.backoff(n, u64::from(n), None)
                    != other.backoff(n, u64::from(n), None)),
            "different seeds must produce a different backoff sequence"
        );
    }

    #[test]
    fn retry_after_hint_floors_the_backoff_up_to_the_cap() {
        // A hint below the ceiling is honored in full…
        let roomy = RetryPolicy {
            base: Duration::from_millis(1),
            cap: Duration::from_secs(10),
            ..RetryPolicy::default()
        };
        let pause = roomy.backoff(0, 0, Some(2));
        assert!(
            (Duration::from_secs(2)..=Duration::from_secs(10)).contains(&pause),
            "hint below cap must be honored, got {pause:?}"
        );

        // …but a huge (buggy or hostile) hint is clamped to the policy's
        // ceiling instead of stalling the whole retry budget.
        let tight = RetryPolicy {
            base: Duration::from_millis(1),
            cap: Duration::from_millis(4),
            ..RetryPolicy::default()
        };
        for hint in [2, 3600, u64::MAX] {
            let pause = tight.backoff(0, 0, Some(hint));
            assert!(
                pause <= Duration::from_millis(4),
                "hint {hint}s must be clamped to the 4ms cap, got {pause:?}"
            );
        }
        assert!(tight.backoff(0, 0, None) < Duration::from_millis(5));
    }

    /// Build a `ResponseHead` by parsing wire bytes, so framing tests
    /// exercise the real header parser.
    fn head_of(wire: &str) -> ResponseHead {
        read_head(&mut io::Cursor::new(wire.as_bytes().to_vec())).expect("head parses")
    }

    #[test]
    fn head_parses_content_length_and_unparseable_retry_after() {
        let head = head_of("HTTP/1.1 503 Service Unavailable\r\nRetry-After: soon\r\n\r\n");
        assert_eq!(head.content_length, None);
        assert_eq!(head.retry_after, None, "unparseable hint is absent");
        assert!(head_of("HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n").content_length == Some(2));
    }

    #[test]
    fn read_body_leaves_the_next_response_in_the_reader() {
        let head = head_of("HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\n");
        let mut reader = io::Cursor::new(b"helloNEXT".to_vec());
        assert_eq!(read_body(&mut reader, &head).unwrap(), "hello");
        let mut rest = Vec::new();
        reader.read_to_end(&mut rest).unwrap();
        assert_eq!(rest, b"NEXT", "pipelined bytes stay in the reader");
    }

    #[test]
    fn truncated_bodies_are_errors_not_success() {
        // Content-Length body shorter than announced.
        let framed = head_of("HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\n");
        let err = read_body(&mut io::Cursor::new(b"short".to_vec()), &framed).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");

        // No framing at all: the old read-to-EOF fallback accepted any
        // truncation as success — now it is rejected outright.
        let unframed = head_of("HTTP/1.1 200 OK\r\n\r\n");
        let err = read_body(&mut io::Cursor::new(b"anything".to_vec()), &unframed).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn an_oversized_content_length_is_refused_before_allocating() {
        // Allocating `usize::MAX` bytes panics on "capacity overflow";
        // the refusal must come before any allocation, at the limit's edge.
        for length in [u64::MAX, MAX_BODY as u64 + 1] {
            let head = head_of(&format!(
                "HTTP/1.1 200 OK\r\nContent-Length: {length}\r\n\r\n"
            ));
            let err = read_body(&mut io::Cursor::new(b"tiny".to_vec()), &head).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            assert!(err.to_string().contains("exceeds"), "{length}: {err}");
        }
    }

    #[test]
    fn requests_carry_the_same_head_but_for_connection_and_deadline() {
        let addr: SocketAddr = "127.0.0.1:7845".parse().unwrap();
        assert_eq!(
            request_text(addr, "POST", "/plan", "{}", None, true),
            "POST /plan HTTP/1.1\r\nHost: 127.0.0.1:7845\r\nContent-Type: application/json\r\n\
             Content-Length: 2\r\nConnection: keep-alive\r\n\r\n{}"
        );
        assert_eq!(
            request_text(addr, "GET", "/metrics", "", Some(40), false),
            "GET /metrics HTTP/1.1\r\nHost: 127.0.0.1:7845\r\nContent-Type: application/json\r\n\
             Content-Length: 0\r\nx-an5d-deadline-ms: 40\r\nConnection: close\r\n\r\n"
        );
    }

    #[test]
    fn only_idempotent_requests_are_retryable() {
        assert!(idempotent("GET", "/metrics"));
        assert!(idempotent("POST", "/tune"));
        assert!(idempotent("POST", "/execute"));
        assert!(!idempotent("POST", "/shutdown"));
    }
}
