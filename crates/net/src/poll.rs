//! A level-triggered readiness poller over `poll(2)`.
//!
//! [`Poller`] keeps a registry of `(token, fd, interest)` entries and
//! rebuilds the `pollfd` array on every [`Poller::poll`] call — the same
//! O(n) the kernel pays to scan the set, so there is nothing to gain
//! from an incremental structure until an `epoll` backend exists.
//! Entries whose [`Interest`] is empty are skipped entirely (a
//! connection whose request is executing on a worker generates no
//! events at all).

use std::collections::BTreeMap;
use std::io;
use std::os::unix::io::{AsRawFd, RawFd};
use std::time::Duration;

/// Which readiness a registration asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Interest {
    /// Wake when the source has bytes to read (or the peer hung up).
    pub readable: bool,
    /// Wake when the source can accept writes again.
    pub writable: bool,
}

impl Interest {
    /// Read-side interest only.
    pub const READABLE: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Write-side interest only.
    pub const WRITABLE: Interest = Interest {
        readable: false,
        writable: true,
    };
    /// No interest: the entry stays registered but generates no events.
    pub const NONE: Interest = Interest {
        readable: false,
        writable: false,
    };

    /// `true` when neither direction is requested.
    #[must_use]
    pub fn is_none(self) -> bool {
        !self.readable && !self.writable
    }
}

/// One readiness event out of [`Poller::poll`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The token the source was registered under.
    pub token: usize,
    /// Bytes are readable — or the peer closed / errored, which a read
    /// will surface as `Ok(0)` / `Err`.
    pub readable: bool,
    /// The source can accept writes.
    pub writable: bool,
}

mod sys {
    use std::os::raw::{c_int, c_short};

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub(crate) struct PollFd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    pub(crate) const POLLIN: c_short = 0x001;
    pub(crate) const POLLOUT: c_short = 0x004;
    pub(crate) const POLLERR: c_short = 0x008;
    pub(crate) const POLLHUP: c_short = 0x010;
    pub(crate) const POLLNVAL: c_short = 0x020;

    #[cfg(target_os = "linux")]
    pub(crate) type NFds = std::os::raw::c_ulong;
    #[cfg(not(target_os = "linux"))]
    pub(crate) type NFds = std::os::raw::c_uint;

    extern "C" {
        pub fn poll(fds: *mut PollFd, nfds: NFds, timeout: c_int) -> c_int;
    }
}

/// A level-triggered readiness poller (see the module docs).
#[derive(Debug, Default)]
pub struct Poller {
    entries: BTreeMap<usize, (RawFd, Interest)>,
    scratch_tokens: Vec<usize>,
}

impl Poller {
    /// An empty poller.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or re-register) a source under `token`. The poller
    /// keeps only the descriptor number: the caller deregisters the token
    /// before it drops the source.
    pub fn register(&mut self, token: usize, source: &impl AsRawFd, interest: Interest) {
        self.entries.insert(token, (source.as_raw_fd(), interest));
    }

    /// Change the interest of an existing registration; ignored for
    /// unknown tokens.
    pub fn set_interest(&mut self, token: usize, interest: Interest) {
        if let Some(entry) = self.entries.get_mut(&token) {
            entry.1 = interest;
        }
    }

    /// Remove a registration; ignored for unknown tokens.
    pub fn deregister(&mut self, token: usize) {
        self.entries.remove(&token);
    }

    /// Number of registered sources (including zero-interest ones).
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Wait until a registered source is ready or `timeout` passes
    /// (`None` blocks indefinitely). Ready sources are appended to
    /// `events` (cleared first); returns the number of events.
    ///
    /// # Errors
    ///
    /// Propagates OS poll failures other than `EINTR` (which retries).
    pub fn poll(
        &mut self,
        timeout: Option<Duration>,
        events: &mut Vec<Event>,
    ) -> io::Result<usize> {
        events.clear();
        self.scratch_tokens.clear();
        let mut fds: Vec<sys::PollFd> = Vec::with_capacity(self.entries.len());
        for (&token, &(fd, interest)) in &self.entries {
            if interest.is_none() {
                continue;
            }
            let mut mask = 0;
            if interest.readable {
                mask |= sys::POLLIN;
            }
            if interest.writable {
                mask |= sys::POLLOUT;
            }
            self.scratch_tokens.push(token);
            fds.push(sys::PollFd {
                fd,
                events: mask,
                revents: 0,
            });
        }
        let timeout_ms: std::os::raw::c_int = match timeout {
            // Round up so a 0.4ms timer never degenerates to a hot loop.
            Some(t) => std::os::raw::c_int::try_from(t.as_millis())
                .unwrap_or(std::os::raw::c_int::MAX)
                .max(i32::from(!t.is_zero())),
            None => -1,
        };
        let ready = loop {
            // SAFETY: `fds` is a valid, exclusively-borrowed array of
            // `nfds` initialized `pollfd` records for the whole call.
            let rc = unsafe { sys::poll(fds.as_mut_ptr(), fds.len() as sys::NFds, timeout_ms) };
            if rc >= 0 {
                break rc;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        };
        if ready > 0 {
            for (index, fd) in fds.iter().enumerate() {
                if fd.revents == 0 {
                    continue;
                }
                // POLLERR/POLLHUP/POLLNVAL are delivered regardless of
                // the requested mask; surface them as readability so the
                // caller's read observes the EOF/error directly.
                let exceptional = fd.revents & (sys::POLLERR | sys::POLLHUP | sys::POLLNVAL) != 0;
                events.push(Event {
                    token: self.scratch_tokens[index],
                    readable: fd.revents & sys::POLLIN != 0 || exceptional,
                    writable: fd.revents & sys::POLLOUT != 0 || exceptional,
                });
            }
        }
        Ok(events.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::unix::net::UnixStream;

    #[test]
    fn readable_only_when_bytes_are_pending() {
        let (mut a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        let mut poller = Poller::new();
        poller.register(7, &b, Interest::READABLE);
        let mut events = Vec::new();

        // Nothing pending: the poll times out empty.
        let n = poller
            .poll(Some(Duration::from_millis(10)), &mut events)
            .unwrap();
        assert_eq!(n, 0, "{events:?}");

        a.write_all(b"ping").unwrap();
        let n = poller
            .poll(Some(Duration::from_millis(1000)), &mut events)
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
        let mut buf = [0u8; 8];
        assert_eq!((&b).read(&mut buf).unwrap(), 4);
    }

    #[test]
    fn peer_close_surfaces_as_readability() {
        let (a, b) = UnixStream::pair().unwrap();
        let mut poller = Poller::new();
        poller.register(1, &b, Interest::READABLE);
        drop(a);
        let mut events = Vec::new();
        poller
            .poll(Some(Duration::from_millis(1000)), &mut events)
            .unwrap();
        assert!(events.iter().any(|e| e.token == 1 && e.readable));
        b.set_nonblocking(true).unwrap();
        let mut buf = [0u8; 8];
        assert_eq!((&b).read(&mut buf).unwrap(), 0, "read observes EOF");
    }

    #[test]
    fn zero_interest_entries_generate_no_events() {
        let (mut a, b) = UnixStream::pair().unwrap();
        a.write_all(b"data").unwrap();
        let mut poller = Poller::new();
        poller.register(3, &b, Interest::NONE);
        assert_eq!(poller.len(), 1);
        let mut events = Vec::new();
        let n = poller
            .poll(Some(Duration::from_millis(20)), &mut events)
            .unwrap();
        assert_eq!(n, 0, "masked-out source must stay silent: {events:?}");
        // Re-enabling interest surfaces the buffered bytes immediately.
        poller.set_interest(3, Interest::READABLE);
        let n = poller
            .poll(Some(Duration::from_millis(1000)), &mut events)
            .unwrap();
        assert_eq!(n, 1);
        assert!(events[0].readable);
    }

    #[test]
    fn writable_interest_reports_an_open_send_buffer() {
        let (a, _b) = UnixStream::pair().unwrap();
        let mut poller = Poller::new();
        poller.register(9, &a, Interest::WRITABLE);
        let mut events = Vec::new();
        poller
            .poll(Some(Duration::from_millis(1000)), &mut events)
            .unwrap();
        assert!(events.iter().any(|e| e.token == 9 && e.writable));
    }

    #[test]
    fn deregistered_tokens_disappear() {
        let (mut a, b) = UnixStream::pair().unwrap();
        a.write_all(b"x").unwrap();
        let mut poller = Poller::new();
        poller.register(4, &b, Interest::READABLE);
        poller.deregister(4);
        assert!(poller.is_empty());
        let mut events = Vec::new();
        let n = poller
            .poll(Some(Duration::from_millis(10)), &mut events)
            .unwrap();
        assert_eq!(n, 0);
    }
}
