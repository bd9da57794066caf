//! A wake channel for nudging a reactor out of `poll`.
//!
//! Built from a connected unix socket pair: the receiving end registers
//! with the [`crate::Poller`] as an ordinary readable source, and any
//! thread holding the [`Waker`] writes one byte to fire it. Wakes
//! coalesce naturally — once the socket buffer holds a pending byte,
//! further `wake()` calls are free no-ops (`WouldBlock` simply means the
//! reactor is already guaranteed to wake).

use std::io::{self, Read, Write};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;

/// The sending half: cheap, thread-safe (`&self`) wakes.
#[derive(Debug)]
pub struct Waker {
    stream: UnixStream,
}

impl Waker {
    /// Nudge the receiver. Never blocks; failures are ignored (a full
    /// buffer already guarantees a pending wake).
    pub fn wake(&self) {
        let _ = (&self.stream).write(&[1]);
    }
}

/// The receiving half, owned by the reactor; register it with a
/// [`crate::Poller`] for readability.
#[derive(Debug)]
pub struct WakeReceiver {
    stream: UnixStream,
}

impl WakeReceiver {
    /// Swallow every pending wake byte so the next `poll` blocks again.
    pub fn drain(&self) {
        let mut sink = [0u8; 256];
        loop {
            match (&self.stream).read(&mut sink) {
                Ok(0) => return, // sender dropped: stay level-quiet
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return, // WouldBlock: drained
            }
        }
    }
}

impl AsRawFd for WakeReceiver {
    fn as_raw_fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }
}

/// Create a connected wake channel.
///
/// # Errors
///
/// Propagates `socketpair(2)` failures.
pub fn wake() -> io::Result<(Waker, WakeReceiver)> {
    let (sender, receiver) = UnixStream::pair()?;
    sender.set_nonblocking(true)?;
    receiver.set_nonblocking(true)?;
    Ok((Waker { stream: sender }, WakeReceiver { stream: receiver }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poll::{Interest, Poller};
    use std::time::Duration;

    #[test]
    fn wake_fires_poll_and_drain_quiets_it() {
        let (waker, receiver) = wake().unwrap();
        let mut poller = Poller::new();
        poller.register(0, &receiver, Interest::READABLE);
        let mut events = Vec::new();

        waker.wake();
        waker.wake(); // coalesces
        poller
            .poll(Some(Duration::from_millis(1000)), &mut events)
            .unwrap();
        assert!(events.iter().any(|e| e.token == 0 && e.readable));

        receiver.drain();
        let n = poller
            .poll(Some(Duration::from_millis(10)), &mut events)
            .unwrap();
        assert_eq!(n, 0, "drained channel must be quiet: {events:?}");
    }

    #[test]
    fn wake_from_another_thread_is_seen() {
        let (waker, receiver) = wake().unwrap();
        let mut poller = Poller::new();
        poller.register(5, &receiver, Interest::READABLE);
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            waker.wake();
        });
        let mut events = Vec::new();
        poller
            .poll(Some(Duration::from_millis(5000)), &mut events)
            .unwrap();
        assert!(events.iter().any(|e| e.token == 5));
        handle.join().unwrap();
    }
}
