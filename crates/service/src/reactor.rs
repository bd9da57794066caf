//! The reactor half of the server: one thread that owns every
//! connection and never blocks on any of them.
//!
//! The pre-reactor server handed each accepted connection to a pooled
//! worker for its whole lifetime, so `workers` — not the hardware —
//! bounded concurrent clients. The reactor inverts that: connections
//! live here as nonblocking sockets in an [`an5d_net::Poller`], and a
//! worker is involved only between "a complete request is parsed" and
//! "the response is written" (see `server.rs` for the dispatch half).
//! The same shape as AN5D's temporal blocking: the scarce resource (a
//! worker thread / a register) is held exactly while useful work
//! happens, and an idle keep-alive connection costs one `pollfd` entry
//! plus one deadline — which is what makes 10k parked connections with
//! 4 workers a non-event.
//!
//! The worker that renders a response also puts it on the wire: it
//! calls [`write_out`] once on the connection's shared stream and hands
//! the connection back with the offset it reached, just as AN5D
//! consumes a plane on-chip instead of sending it through slow memory.
//! The reactor writes only what the socket could not take at once (and
//! the 503 / framing-error answers it originates itself), through the
//! same [`write_out`].
//!
//! Per-connection lifecycle:
//!
//! ```text
//!            accept                    bytes          complete request
//!   listener ──────▶ Reading (first) ───────▶ Reading ───────────────▶ InFlight
//!                       ▲                        ▲                        │
//!                       │ first bytes            │        worker wrote all│ socket full
//!                       │                        │ partial next    ┌──────┤
//!                       │                        │                 ▼      ▼
//!                    Parked ◀──────────────── written ◀────────────── Writing
//!                       keep-alive, no buffered bytes
//! ```
//!
//! * **Parked** — idle between requests; read interest, keep-alive
//!   deadline. The cheap majority under C10K load.
//! * **Reading** — partial request buffered in the [`RequestParser`];
//!   read interest, I/O deadline.
//! * **InFlight** — request dispatched to a worker, which handles it and
//!   makes the response's first write; **no** poll interest at all, so
//!   a client pipelining ahead is backpressured by TCP rather than by
//!   server memory, and the next request is parsed only after the
//!   worker's completion is applied — in order, no byte written twice.
//!   No deadline: the worker owns the clock, so the connection's
//!   deadline is removed.
//! * **Writing** — the rest of a response the socket could not take at
//!   once; write interest, I/O deadline. `close_after_write` carries the
//!   `Connection: close` / request-bound / error / 503 decision. The
//!   response is one rendered buffer plus the offset written so far.
//!
//! Closes distinguish *clean* ends (EOF while parked between requests,
//! idle timeout, shutdown) from *aborted* ones (EOF, transport error,
//! or deadline while a request head or body was partially buffered —
//! `RequestParser::is_clean` is the oracle), feeding the
//! `an5d_connections_aborted` counter.
//!
//! Each connection holds at most one deadline ([`Deadlines`]):
//! re-arming replaces it, dispatch and close remove it.

use crate::api;
use crate::http::{Parse, Request, RequestParser, Response};
use crate::server::{render_response, Completion, DispatchItem, Shared, IO_TIMEOUT};
use an5d_net::{Event, Interest, Poller, WakeReceiver};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Poll token of the listener.
const LISTENER: usize = 0;
/// Poll token of the wake channel.
const WAKE: usize = 1;
/// First token handed to a connection; tokens are never reused, so a
/// stale completion can never alias a new connection.
const FIRST_CONN_TOKEN: usize = 2;

/// Read syscall chunk size.
const READ_CHUNK: usize = 16 * 1024;
/// Most bytes drained from one connection per loop iteration; a bulk
/// sender yields to its neighbours and the level-triggered poll picks
/// the remainder up next iteration.
const READ_BURST: usize = 256 * 1024;

/// Upper bound on one poll wait: a safety heartbeat so a lost wake can
/// stall the loop by at most this much.
const MAX_POLL_WAIT: Duration = Duration::from_millis(500);

/// Each connection's one armed deadline, in firing order. Times are
/// passed in, never read, so tests drive a synthetic clock.
#[derive(Debug, Default)]
struct Deadlines {
    /// `(deadline, token)` in firing order; equal deadlines fire in
    /// token order.
    queue: BTreeSet<(Instant, usize)>,
    /// Each armed token's current deadline: the key of its `queue` entry.
    armed: HashMap<usize, Instant>,
}

impl Deadlines {
    /// Arm `token` to fire at `at`, replacing its previous deadline.
    fn arm(&mut self, token: usize, at: Instant) {
        if let Some(old) = self.armed.insert(token, at) {
            self.queue.remove(&(old, token));
        }
        self.queue.insert((at, token));
    }

    /// Cancel `token`'s deadline, if it has one.
    fn disarm(&mut self, token: usize) {
        if let Some(old) = self.armed.remove(&token) {
            self.queue.remove(&(old, token));
        }
    }

    /// Number of armed deadlines.
    fn len(&self) -> usize {
        self.queue.len()
    }

    /// Time from `now` until the earliest deadline (zero if it is
    /// already due); `None` when nothing is armed.
    fn next_timeout(&self, now: Instant) -> Option<Duration> {
        self.queue
            .first()
            .map(|&(at, _)| at.saturating_duration_since(now))
    }

    /// Remove and return every token whose deadline is at or before
    /// `now`, in firing order.
    fn expired(&mut self, now: Instant) -> Vec<usize> {
        let mut due = Vec::new();
        while let Some(&(at, token)) = self.queue.first() {
            if at > now {
                break;
            }
            self.queue.pop_first();
            self.armed.remove(&token);
            due.push(token);
        }
        due
    }
}

/// What the reactor is doing with a connection right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    /// Idle between requests (keep-alive deadline armed).
    Parked,
    /// Awaiting the first request, or holding a partial one.
    Reading,
    /// Request handed to a worker; no poll interest.
    InFlight,
    /// Response bytes draining to the socket.
    Writing,
}

/// What one [`write_out`] call achieved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Flush {
    /// Every byte of the response is written.
    Done,
    /// The socket (or an injected short write) took only part of the
    /// rest; resume from the advanced offset once it is writable.
    Blocked,
    /// A transport error or an injected kill: the peer holds a
    /// truncated response.
    Failed,
}

/// The one socket write: write `out[*pos..]` to `sink` without
/// blocking, advancing `*pos` by what the sink took. The worker calls
/// it once per response; the reactor calls it on every `POLLOUT`.
///
/// The `reactor.write` fault point is evaluated once per call: `Error`
/// fails it, `Short(n)` caps the bytes it may write, `Delay(d)` stalls
/// it.
pub(crate) fn write_out(mut sink: impl Write, out: &[u8], pos: &mut usize) -> Flush {
    let mut budget = usize::MAX;
    match an5d_fault::point("reactor.write") {
        None => {}
        Some(an5d_fault::FaultAction::Delay(d)) => std::thread::sleep(d),
        Some(an5d_fault::FaultAction::Error) => return Flush::Failed,
        Some(an5d_fault::FaultAction::Short(n)) => budget = n.max(1),
    }
    while *pos < out.len() && budget > 0 {
        let limit = out.len().min(pos.saturating_add(budget));
        match sink.write(&out[*pos..limit]) {
            Ok(0) => return Flush::Failed,
            Ok(n) => {
                *pos += n;
                budget -= n;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return Flush::Failed,
        }
    }
    if *pos == out.len() {
        Flush::Done
    } else {
        Flush::Blocked
    }
}

/// Everything the reactor holds per connection.
struct Conn {
    /// Shared with the worker that writes the connection's response.
    stream: Arc<TcpStream>,
    parser: RequestParser,
    /// The response being written (head and body), resumed under
    /// `POLLOUT` when the first write could not take all of it.
    out: Vec<u8>,
    /// Bytes of `out` already written.
    out_pos: usize,
    /// Requests served on this connection.
    served: usize,
    state: ConnState,
    close_after_write: bool,
}

pub(crate) struct Reactor {
    shared: Arc<Shared>,
    /// `Some` until shutdown stops accepting.
    listener: Option<TcpListener>,
    receiver: WakeReceiver,
    poller: Poller,
    deadlines: Deadlines,
    conns: BTreeMap<usize, Conn>,
    next_token: usize,
}

impl Reactor {
    /// Wire the listener and wake channel into a fresh poller.
    ///
    /// # Errors
    ///
    /// Propagates the failure to make the listener nonblocking.
    pub(crate) fn new(
        listener: TcpListener,
        shared: Arc<Shared>,
        receiver: WakeReceiver,
    ) -> io::Result<Self> {
        listener.set_nonblocking(true)?;
        let mut poller = Poller::new();
        poller.register(LISTENER, &listener, Interest::READABLE);
        poller.register(WAKE, &receiver, Interest::READABLE);
        Ok(Self {
            shared,
            listener: Some(listener),
            receiver,
            poller,
            deadlines: Deadlines::default(),
            conns: BTreeMap::new(),
            next_token: FIRST_CONN_TOKEN,
        })
    }

    /// The reactor thread body: poll → wakes → completions → accept →
    /// socket events → timers, until shutdown has drained every
    /// connection.
    pub(crate) fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            if self.shared.shutdown.load(Ordering::Acquire) {
                self.sweep_for_shutdown();
                if self.conns.is_empty() {
                    break;
                }
            }
            let timeout = self
                .deadlines
                .next_timeout(Instant::now())
                .map_or(MAX_POLL_WAIT, |hint| hint.min(MAX_POLL_WAIT));
            if self.poller.poll(Some(timeout), &mut events).is_err() {
                // Unrecoverable poll failure: back off instead of
                // spinning; the heartbeat keeps shutdown responsive.
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
            let busy_start = Instant::now();
            // A worker pushes its completion before it wakes, so after
            // the drain every completion whose wake byte was swallowed
            // is already in the list; one pushed later wakes the next
            // poll. Completions first: they hand connections back for
            // their next request.
            if events.iter().any(|event| event.token == WAKE) {
                self.receiver.drain();
                self.apply_completions();
            }
            for event in events.iter().copied() {
                match event.token {
                    LISTENER => self.do_accept(),
                    WAKE => {}
                    token => self.on_socket_event(token, event),
                }
            }
            self.fire_timers();
            debug_assert!(
                self.deadlines.len() <= self.conns.len(),
                "{} deadlines for {} connections",
                self.deadlines.len(),
                self.conns.len()
            );
            self.stats().record_loop(busy_start.elapsed());
        }
    }

    fn stats(&self) -> &crate::metrics::ConnectionStats {
        &self.shared.state.metrics().connections
    }

    /// Arm (or re-arm) the connection's single deadline.
    fn arm(&mut self, token: usize, budget: Duration) {
        if self.conns.contains_key(&token) {
            self.deadlines.arm(token, Instant::now() + budget);
        }
    }

    /// Decrement the parked gauge when leaving the parked state.
    fn leave_parked(&mut self, token: usize) {
        if let Some(conn) = self.conns.get(&token) {
            if conn.state == ConnState::Parked {
                self.stats().on_unparked();
            }
        }
    }

    /// Close and forget a connection. `aborted` marks a mid-request (or
    /// mid-response) death for the `an5d_connections_aborted` counter.
    fn close(&mut self, token: usize, aborted: bool) {
        self.deadlines.disarm(token);
        if let Some(conn) = self.conns.remove(&token) {
            self.poller.deregister(token);
            if conn.state == ConnState::Parked {
                self.stats().on_unparked();
            }
            self.stats().on_closed(aborted);
        }
    }

    /// Accept every connection the backlog holds right now.
    fn do_accept(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue; // dropped: cannot safely poll it
                    }
                    // Disable Nagle: a response goes out as one segment
                    // instead of waiting on a delayed ACK.
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    self.poller.register(token, &stream, Interest::READABLE);
                    self.conns.insert(
                        token,
                        Conn {
                            stream: Arc::new(stream),
                            parser: RequestParser::new(),
                            out: Vec::new(),
                            out_pos: 0,
                            served: 0,
                            state: ConnState::Reading,
                            close_after_write: false,
                        },
                    );
                    self.stats().on_accepted();
                    // The first request gets the full I/O budget, as the
                    // pre-reactor server gave it.
                    self.arm(token, IO_TIMEOUT);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    // Transient accept failure (e.g. EMFILE): yield so a
                    // persistent error cannot become a hot loop.
                    std::thread::sleep(Duration::from_millis(5));
                    return;
                }
            }
        }
    }

    fn on_socket_event(&mut self, token: usize, event: Event) {
        let Some(conn) = self.conns.get(&token) else {
            return; // closed earlier this iteration
        };
        match conn.state {
            ConnState::Parked | ConnState::Reading if event.readable => self.do_read(token),
            ConnState::Writing => self.try_flush(token),
            _ => {}
        }
    }

    /// Drain readable bytes into the parser, then advance it.
    fn do_read(&mut self, token: usize) {
        match an5d_fault::point("reactor.read") {
            None => {}
            Some(an5d_fault::FaultAction::Delay(d)) => std::thread::sleep(d),
            Some(_) => {
                // Injected transport kill. Always an abort (regardless of
                // parser state) so a chaos soak can reconcile
                // `an5d_connections_aborted` against the plan's fires.
                self.close(token, true);
                return;
            }
        }
        let mut peer_gone = false;
        let mut chunk = [0u8; READ_CHUNK];
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let mut total = 0;
            loop {
                match (&*conn.stream).read(&mut chunk) {
                    Ok(0) => {
                        peer_gone = true;
                        break;
                    }
                    Ok(n) => {
                        conn.parser.feed(&chunk[..n]);
                        total += n;
                        if total >= READ_BURST {
                            break; // fairness: poll re-reports the rest
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        peer_gone = true;
                        break;
                    }
                }
            }
        }
        self.advance_parser(token, peer_gone);
    }

    /// Pull at most one request out of the parser and act on it.
    /// Pipelined successors stay buffered until this one's response is
    /// written — requests on one connection are served in order.
    fn advance_parser(&mut self, token: usize, peer_gone: bool) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        match conn.parser.parse() {
            Parse::Ready(request) => self.dispatch_request(token, request),
            Parse::Failed(err) => {
                // Framing errors poison the stream position; answer and
                // close rather than guess where the next request starts.
                let body = render_response(
                    &Response::new(err.status, api::error_body(&err.message)),
                    false,
                );
                self.start_write(token, body, true);
            }
            Parse::NeedMore => {
                if peer_gone {
                    // Clean EOF between requests is normal keep-alive
                    // teardown; EOF mid-request is an abort.
                    let aborted = !self.conns[&token].parser.is_clean();
                    self.close(token, aborted);
                } else if self.conns[&token].parser.is_clean() {
                    self.park(token);
                } else {
                    // Mid-request (partial line buffered, or headers
                    // done and body bytes outstanding): keep Reading
                    // under the per-request I/O budget, not the
                    // keep-alive idle timeout, and don't count it in
                    // the parked gauge.
                    self.resume_reading(token);
                }
            }
        }
    }

    /// Idle between requests: cheap to hold, reaped after the keep-alive
    /// budget.
    fn park(&mut self, token: usize) {
        self.leave_parked(token);
        let keep_alive_timeout = self.shared.keep_alive_timeout;
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.state = ConnState::Parked;
            self.poller.set_interest(token, Interest::READABLE);
            self.stats().on_parked();
            self.arm(token, keep_alive_timeout);
        }
    }

    /// A request is (still) arriving: full I/O budget per read, exactly
    /// like the pre-reactor per-read socket timeout.
    fn resume_reading(&mut self, token: usize) {
        self.leave_parked(token);
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.state = ConnState::Reading;
            self.poller.set_interest(token, Interest::READABLE);
            self.arm(token, IO_TIMEOUT);
        }
    }

    /// Hand a parsed request to the dispatch queue — or shed it with a
    /// 503 when the queue is at depth (admission control now sheds
    /// *requests*, not connections: parked idle connections are nearly
    /// free, so the bounded resource worth guarding is worker time).
    fn dispatch_request(&mut self, token: usize, request: Request) {
        // A request whose deadline already expired — it burned its whole
        // budget queued in the kernel or mid-parse — is shed here so it
        // never occupies a worker: 503 + Retry-After instead of a 504
        // from a worker that could do no useful work.
        if request.deadline.is_some_and(|d| d.expired()) {
            self.shared.state.metrics().deadline_shed.inc();
            let body = render_response(
                &Response::new(503, api::error_body("deadline expired before dispatch"))
                    .with_retry_after(1),
                false,
            );
            self.start_write(token, body, true);
            return;
        }
        let mut queue = self.shared.queue.lock().expect("dispatch queue poisoned");
        if queue.len() >= self.shared.queue_depth {
            drop(queue);
            self.shared.state.metrics().rejected.inc();
            let body = render_response(
                &Response::new(503, api::error_body("server overloaded, retry later"))
                    .with_retry_after(1),
                false,
            );
            self.start_write(token, body, true);
            return;
        }
        // Fields, not `&mut self` helpers, while the queue lock is held.
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.state == ConnState::Parked {
            self.shared.state.metrics().connections.on_unparked();
        }
        conn.state = ConnState::InFlight;
        conn.served += 1;
        let served = conn.served;
        if served > 1 {
            self.shared.reused_requests.fetch_add(1, Ordering::Relaxed);
        }
        // No poll interest while a worker owns the request: a client
        // pipelining ahead is backpressured by TCP, not server memory.
        self.poller.set_interest(token, Interest::NONE);
        self.deadlines.disarm(token);
        queue.push_back(DispatchItem {
            token,
            stream: Arc::clone(&conn.stream),
            request,
            served,
        });
        drop(queue);
        self.shared.available.notify_one();
    }

    /// Take ownership of a response the reactor itself originates (a
    /// 503 shed or a framing error) and write it.
    fn start_write(&mut self, token: usize, bytes: Vec<u8>, close_after: bool) {
        self.leave_parked(token);
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.state = ConnState::Writing;
            conn.out = bytes;
            conn.out_pos = 0;
            conn.close_after_write = close_after;
            // Optimistic first write: the send buffer is almost always
            // open, so most responses never wait for a poll round.
            self.try_flush(token);
        }
    }

    /// Write more of the connection's response: the reactor's own first
    /// write, or a resumed one under `POLLOUT`.
    fn try_flush(&mut self, token: usize) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let flush = write_out(&*conn.stream, &conn.out, &mut conn.out_pos);
        self.after_write(token, flush);
    }

    /// Act on what the latest write of `token`'s response reported.
    fn after_write(&mut self, token: usize, flush: Flush) {
        match flush {
            // Any failure mid-response — transport error or injected
            // kill — is an abort: the client holds a truncated response.
            Flush::Failed => self.close(token, true),
            Flush::Done => self.on_response_written(token),
            Flush::Blocked => {
                // Blocked on the socket (or the short-write cap): wait
                // for POLLOUT under a fresh I/O budget (re-armed so a
                // slowly-draining client is judged per write step, not
                // per response).
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.state = ConnState::Writing;
                }
                self.poller.set_interest(token, Interest::WRITABLE);
                self.arm(token, IO_TIMEOUT);
            }
        }
    }

    /// The response is fully on the wire: close, or look for the next
    /// request (which may already be buffered, pipelined).
    fn on_response_written(&mut self, token: usize) {
        let close =
            self.conns[&token].close_after_write || self.shared.shutdown.load(Ordering::Acquire);
        if close {
            self.close(token, false);
            return;
        }
        if let Some(conn) = self.conns.get_mut(&token) {
            // A parked connection holds no response buffer.
            conn.out = Vec::new();
            conn.out_pos = 0;
        }
        self.advance_parser(token, false);
    }

    /// Take back each connection whose worker has written (or started
    /// writing) its response.
    fn apply_completions(&mut self) {
        let completed = std::mem::take(
            &mut *self
                .shared
                .completions
                .lock()
                .expect("completion queue poisoned"),
        );
        for Completion {
            token,
            keep_alive,
            out,
            out_pos,
            flush,
        } in completed
        {
            // An in-flight connection has no poll interest and no
            // deadline, so nothing closes it while its request runs.
            let Some(conn) = self.conns.get_mut(&token) else {
                continue;
            };
            conn.out = out;
            conn.out_pos = out_pos;
            conn.close_after_write = !keep_alive;
            self.after_write(token, flush);
        }
    }

    /// Close every connection whose deadline is due.
    fn fire_timers(&mut self) {
        for token in self.deadlines.expired(Instant::now()) {
            let conn = &self.conns[&token];
            // Keep-alive expiry on a parked connection is a clean reap;
            // a deadline mid-request or mid-response (a response still
            // draining when the I/O budget ran out) is an abort.
            let aborted = !conn.parser.is_clean() || conn.state == ConnState::Writing;
            self.close(token, aborted);
        }
    }

    /// On shutdown: stop accepting, drop every idle connection, and let
    /// in-flight requests and draining responses finish — every admitted
    /// request is answered.
    fn sweep_for_shutdown(&mut self) {
        if self.listener.take().is_some() {
            self.poller.deregister(LISTENER);
        }
        let idle: Vec<usize> = self
            .conns
            .iter()
            .filter(|(_, conn)| matches!(conn.state, ConnState::Parked | ConnState::Reading))
            .map(|(&token, _)| token)
            .collect();
        for token in idle {
            // Server-initiated: never counted as a peer abort.
            self.close(token, false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::unix::net::UnixStream;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    /// Read everything the nonblocking `reader` holds right now.
    fn drain_into(mut reader: &UnixStream, got: &mut Vec<u8>) {
        let mut chunk = [0u8; 64 * 1024];
        loop {
            match reader.read(&mut chunk) {
                Ok(0) => return,
                Ok(n) => got.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) => panic!("read: {e}"),
            }
        }
    }

    #[test]
    fn write_out_blocks_resumes_and_delivers_every_byte_once() {
        let (writer, reader) = UnixStream::pair().unwrap();
        writer.set_nonblocking(true).unwrap();
        reader.set_nonblocking(true).unwrap();
        // Larger than any socket buffer: nobody reads, so it blocks.
        let out: Vec<u8> = (0..4 << 20).map(|i: u32| (i % 251) as u8).collect();
        let mut pos = 0;
        assert_eq!(write_out(&writer, &out, &mut pos), Flush::Blocked);
        let blocked_at = pos;
        assert!(0 < blocked_at && blocked_at < out.len(), "{blocked_at}");

        let mut got = Vec::new();
        drain_into(&reader, &mut got);
        assert_eq!(got.len(), blocked_at, "the offset is what the peer holds");
        let mut resumes = 0;
        while write_out(&writer, &out, &mut pos) == Flush::Blocked {
            drain_into(&reader, &mut got);
            resumes += 1;
            assert!(resumes < 10_000, "no progress at {pos}");
        }
        assert_eq!(pos, out.len());
        drain_into(&reader, &mut got);
        assert!(got == out, "bytes lost, duplicated or reordered");

        // Done is idempotent: nothing left to write.
        assert_eq!(write_out(&writer, &out, &mut pos), Flush::Done);
    }

    #[test]
    fn write_out_fails_once_the_peer_is_gone() {
        let (writer, reader) = UnixStream::pair().unwrap();
        writer.set_nonblocking(true).unwrap();
        drop(reader);
        let mut pos = 0;
        assert_eq!(
            write_out(&writer, b"HTTP/1.1 200 OK\r\n", &mut pos),
            Flush::Failed
        );
        assert_eq!(pos, 0);
    }

    #[test]
    fn fires_at_the_deadline_not_before() {
        let start = Instant::now();
        let mut deadlines = Deadlines::default();
        deadlines.arm(1, start + ms(50));
        assert!(deadlines.expired(start + ms(49)).is_empty());
        assert_eq!(deadlines.expired(start + ms(50)), vec![1]);
        assert_eq!(deadlines.len(), 0);
        assert!(deadlines.expired(start + ms(100)).is_empty(), "fires once");
    }

    #[test]
    fn past_deadlines_fire_on_the_next_sweep() {
        let start = Instant::now();
        let mut deadlines = Deadlines::default();
        deadlines.arm(9, start);
        assert_eq!(deadlines.next_timeout(start + ms(5)), Some(Duration::ZERO));
        assert_eq!(deadlines.expired(start + ms(5)), vec![9]);
    }

    #[test]
    fn rearming_replaces_the_old_deadline() {
        let start = Instant::now();
        let mut deadlines = Deadlines::default();
        deadlines.arm(7, start + ms(20));
        deadlines.arm(7, start + ms(30));
        assert_eq!(deadlines.len(), 1);
        assert!(deadlines.expired(start + ms(25)).is_empty(), "old deadline");
        assert_eq!(deadlines.expired(start + ms(30)), vec![7]);

        // Re-arming earlier replaces a later deadline just the same.
        deadlines.arm(7, start + ms(100));
        deadlines.arm(7, start + ms(40));
        assert_eq!(deadlines.expired(start + ms(40)), vec![7]);
        assert!(deadlines.expired(start + ms(200)).is_empty());
    }

    #[test]
    fn disarm_cancels() {
        let start = Instant::now();
        let mut deadlines = Deadlines::default();
        deadlines.arm(3, start + ms(10));
        deadlines.arm(4, start + ms(10));
        deadlines.disarm(3);
        deadlines.disarm(3);
        deadlines.disarm(99);
        assert_eq!(deadlines.len(), 1);
        assert_eq!(deadlines.expired(start + ms(10)), vec![4]);
    }

    #[test]
    fn next_timeout_is_the_earliest_live_deadline() {
        let start = Instant::now();
        let mut deadlines = Deadlines::default();
        assert_eq!(deadlines.next_timeout(start), None);
        deadlines.arm(1, start + ms(200));
        deadlines.arm(2, start + ms(30));
        assert_eq!(deadlines.next_timeout(start), Some(ms(30)));
        assert_eq!(deadlines.next_timeout(start + ms(10)), Some(ms(20)));
        // A cancelled deadline no longer counts.
        deadlines.disarm(2);
        assert_eq!(deadlines.next_timeout(start), Some(ms(200)));
        deadlines.disarm(1);
        assert_eq!(deadlines.next_timeout(start), None);
    }

    #[test]
    fn many_parked_deadlines_fire_in_one_sweep() {
        let start = Instant::now();
        let mut deadlines = Deadlines::default();
        for token in (0..5000).rev() {
            deadlines.arm(token, start + ms(100));
        }
        assert_eq!(deadlines.len(), 5000);
        assert!(deadlines.expired(start + ms(99)).is_empty());
        let fired = deadlines.expired(start + ms(100));
        assert_eq!(fired, (0..5000).collect::<Vec<_>>(), "token order");
        assert_eq!(deadlines.len(), 0);
        assert_eq!(deadlines.next_timeout(start), None);
    }
}
