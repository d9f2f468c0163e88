//! Shared networking plumbing: the epoll reactor, NDJSON line framing,
//! and shutdown wakeups.
//!
//! Three layers live here, bottom to top:
//!
//! * [`sys`] — raw `epoll`/`eventfd` FFI behind safe RAII wrappers (the
//!   only `unsafe` in the crate).
//! * Framing and timing helpers: [`LineBuffer`] (incremental newline
//!   framing with an `O(n)` resume scan), [`POLL_INTERVAL`],
//!   [`MAX_LINE_BYTES`], and [`ShutdownGate`] (a Condvar-backed drain
//!   flag that *wakes* sleepers instead of letting them sleep-step).
//! * [`reactor`] — the readiness-driven connection engine both
//!   `chop serve` and `chop router` run on; it alone frames requests, so
//!   the line cap, truncation refusal and drain rules exist once.

pub(crate) mod reactor;
pub(crate) mod sys;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Duration;

use crate::protocol::{ErrorKind, Response, ServiceError};

/// How long blocked waits (the reactor's idle tick, the replication
/// stream's event waits and its parked-standby poll) run before
/// re-checking shutdown and kill flags that may be flipped from outside
/// the wait.
pub const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// Maximum bytes one request line may occupy. A client streaming data
/// without a newline would otherwise grow the connection buffer without
/// bound; past this limit the connection gets one typed protocol error
/// reply and is closed. 4 MiB comfortably fits any real spec.
pub const MAX_LINE_BYTES: usize = 4 * 1024 * 1024;

/// A drain flag that can *wake* waiters.
///
/// The one drain type of `chop serve` and `chop router`: the reactor
/// polls [`is_triggered`](ShutdownGate::is_triggered) every tick, and
/// long sleepers (the router's health loop, client retry backoffs) call
/// [`wait_for`](ShutdownGate::wait_for) with their *full* interval,
/// which [`trigger`](ShutdownGate::trigger) interrupts immediately.
#[derive(Debug, Default)]
pub struct ShutdownGate {
    triggered: AtomicBool,
    lock: Mutex<()>,
    wake: Condvar,
}

impl ShutdownGate {
    /// A fresh, untriggered gate.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Trips the gate and wakes every current and future waiter.
    pub fn trigger(&self) {
        self.triggered.store(true, Ordering::SeqCst);
        // Taking the lock orders the store before any waiter's re-check,
        // so a sleeper cannot miss the wakeup between its own check and
        // its wait.
        drop(self.lock.lock().unwrap_or_else(PoisonError::into_inner));
        self.wake.notify_all();
    }

    /// Whether the gate has been tripped.
    #[must_use]
    pub fn is_triggered(&self) -> bool {
        self.triggered.load(Ordering::SeqCst)
    }

    /// Sleeps up to `timeout`, returning early — with `true` — the
    /// moment the gate trips. Returns `false` after an undisturbed wait.
    pub fn wait_for(&self, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        let mut guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if self.is_triggered() {
                return true;
            }
            let now = std::time::Instant::now();
            let Some(remaining) = deadline.checked_duration_since(now).filter(|d| !d.is_zero())
            else {
                return false;
            };
            let (next, _timed_out) = self
                .wake
                .wait_timeout(guard, remaining)
                .unwrap_or_else(PoisonError::into_inner);
            guard = next;
        }
    }
}

/// Incremental newline framing over an append-only byte buffer.
///
/// `scanned` remembers how far the last search got, so feeding a 4 MiB
/// newline-less flood in 4 KiB chunks costs one pass total instead of a
/// quadratic re-scan per chunk.
///
/// Framing is zero-copy: [`next_line`](Self::next_line) hands out a
/// slice *borrowed from the buffer* instead of draining the bytes into
/// a fresh `Vec` per request. Consumed lines linger in front of `head`
/// until the next [`extend`](Self::extend), which compacts them away in
/// one tail memmove per socket read — previously every line paid its
/// own allocation plus a memmove of the entire remaining buffer.
#[derive(Debug, Default)]
pub(crate) struct LineBuffer {
    buf: Vec<u8>,
    /// Start of the unconsumed bytes; everything before belongs to
    /// lines already handed out and is reclaimed on the next `extend`.
    head: usize,
    /// End of the prefix known to contain no `\n` past `head` (always
    /// in `head..=buf.len()`).
    scanned: usize,
}

impl LineBuffer {
    /// Appends freshly read bytes, first reclaiming the space held by
    /// lines that were handed out since the previous call.
    pub(crate) fn extend(&mut self, bytes: &[u8]) {
        if self.head > 0 {
            self.buf.drain(..self.head);
            self.scanned -= self.head;
            self.head = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Returns the next full line *including* its trailing newline, or
    /// `None` when no complete line is buffered yet. The slice borrows
    /// the buffer in place; it is consumed immediately (a later call
    /// returns the following line) but stays valid until the next
    /// [`extend`](Self::extend).
    pub(crate) fn next_line(&mut self) -> Option<&[u8]> {
        let offset = self.buf[self.scanned..].iter().position(|&b| b == b'\n');
        match offset {
            Some(at) => {
                let start = self.head;
                let end = self.scanned + at;
                self.head = end + 1;
                self.scanned = self.head;
                Some(&self.buf[start..=end])
            }
            None => {
                self.scanned = self.buf.len();
                None
            }
        }
    }

    /// Unconsumed bytes currently buffered (all part of one incomplete
    /// line whenever [`next_line`](Self::next_line) just returned
    /// `None`).
    pub(crate) fn len(&self) -> usize {
        self.buf.len() - self.head
    }

    /// Whether no unconsumed bytes are buffered.
    pub(crate) fn is_empty(&self) -> bool {
        self.head == self.buf.len()
    }
}

/// One encoded protocol-error reply line, as sent before every
/// server-initiated close (oversized line, truncated request, idle
/// timeout, connection limit) so the peer never sees a silent drop.
pub(crate) fn refusal_line(kind: ErrorKind, message: String) -> Vec<u8> {
    let mut out = Response::Error(ServiceError::new(kind, message)).encode();
    out.push('\n');
    out.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn line_buffer_frames_across_chunk_boundaries() {
        let mut buf = LineBuffer::default();
        buf.extend(b"alpha\nbe");
        assert_eq!(buf.next_line(), Some(b"alpha\n".as_slice()));
        assert_eq!(buf.next_line(), None);
        buf.extend(b"ta\n\ngamma");
        assert_eq!(buf.next_line(), Some(b"beta\n".as_slice()));
        assert_eq!(buf.next_line(), Some(b"\n".as_slice()));
        assert_eq!(buf.next_line(), None);
        assert_eq!(buf.len(), 5);
        buf.extend(b"\n");
        assert_eq!(buf.next_line(), Some(b"gamma\n".as_slice()));
        assert!(buf.is_empty());
    }

    #[test]
    fn line_buffer_consumes_in_place_and_compacts_on_extend() {
        let mut buf = LineBuffer::default();
        buf.extend(b"one\ntwo\nthree\ntail");
        // Three lines served from one read, no extend in between: each
        // view is a slice of the same backing buffer, and `len` tracks
        // only the unconsumed tail.
        assert_eq!(buf.next_line(), Some(b"one\n".as_slice()));
        assert_eq!(buf.next_line(), Some(b"two\n".as_slice()));
        assert_eq!(buf.next_line(), Some(b"three\n".as_slice()));
        assert_eq!(buf.next_line(), None);
        assert_eq!(buf.len(), 4);
        assert!(!buf.is_empty());
        // The next extend reclaims the consumed prefix and framing
        // continues across the compaction seam.
        buf.extend(b" end\n");
        assert_eq!(buf.next_line(), Some(b"tail end\n".as_slice()));
        assert!(buf.is_empty());
        assert_eq!(buf.len(), 0);
    }

    #[test]
    fn shutdown_gate_wakes_sleepers_immediately() {
        let gate = Arc::new(ShutdownGate::new());
        let waiter = {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                let start = Instant::now();
                let woken = gate.wait_for(Duration::from_secs(30));
                (woken, start.elapsed())
            })
        };
        std::thread::sleep(Duration::from_millis(50));
        gate.trigger();
        let (woken, waited) = waiter.join().expect("waiter");
        assert!(woken, "a triggered gate must report the wake");
        assert!(
            waited < Duration::from_secs(5),
            "a 30 s wait must be interrupted promptly, waited {waited:?}"
        );
        // Once triggered, waits return instantly.
        assert!(gate.wait_for(Duration::from_secs(30)));
        assert!(gate.is_triggered());
    }

    #[test]
    fn untriggered_gate_times_out() {
        let gate = ShutdownGate::new();
        let start = Instant::now();
        assert!(!gate.wait_for(Duration::from_millis(30)));
        assert!(start.elapsed() >= Duration::from_millis(25));
    }
}
